//! The in-core engine, the streamed engine and the multi-device fleet run
//! one shared four-stage kernel over differently sized device slices, and
//! the host fallback re-enacts its schedule. Over arbitrary small graphs,
//! both representations and an integer, a weighted and a float program:
//!
//! * every engine's values are bit-identical to `run_fallback`'s,
//! * a fleet of one device walks the in-core engine's trajectory and issues
//!   exactly its warp operations, iteration by iteration — by construction:
//!   an in-core run *is* a one-device run of the fleet's loop,
//! * a streamed run whose budget holds every shard walks the in-core
//!   engine's convergence trajectory and issues its warp operations — by
//!   construction too: a streamed run is a one-device run of the same loop
//!   whose device starts out of core,
//! * a fleet device forced out of core streams like the streamed engine's
//!   and still feeds the halo exchange what the resident device would,
//! * every slicing — one shard per streamed batch, one batch, fleets of
//!   1–4 — counts exactly what it counts with the replay memo off,
//! * an OOM rebatch, which re-cuts every slice, records its stage scopes
//!   anew: a recording of one slicing is never replayed for another.

use cusha::algos::{Bfs, PageRank, Sssp};
use cusha::core::{
    run_fallback, try_run, try_run_multi, try_run_streamed, CuShaConfig, CuShaOutput, EngineError,
    MultiConfig, Repr, StreamingConfig, Value, VertexProgram,
};
use cusha::graph::generators::rmat::{rmat, RmatConfig};
use cusha::graph::{Edge, Graph};
use cusha::simt::FaultPlan;
use proptest::prelude::*;

/// Strategy: an arbitrary small graph (possibly with self-loops, parallel
/// edges, isolated vertices).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (1u32..120).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 1u32..65).prop_map(|(s, d, w)| Edge::new(s, d, w));
        proptest::collection::vec(edge, 0..400).prop_map(move |edges| Graph::new(n, edges))
    })
}

/// The output of a run, capped or not (PageRank may stop at the cap).
fn settle<V: std::fmt::Debug>(r: Result<CuShaOutput<V>, EngineError<V>>) -> CuShaOutput<V> {
    match r {
        Ok(out) => out,
        Err(EngineError::NonConverged { partial }) => *partial,
        Err(e) => panic!("run failed: {e}"),
    }
}

fn bits<V: Value>(values: &[V]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn check<P: VertexProgram>(prog: &P, g: &Graph, repr: Repr, n_per: u32) -> Result<(), String> {
    let tag = format!("{} {}", repr.label(), prog.name());
    let mut cfg = CuShaConfig::new(repr).with_vertices_per_shard(n_per);
    cfg.max_iterations = 200;
    let want = settle(run_fallback(prog, g, &cfg));
    let want_bits = bits(&want.values);

    let in_core = settle(try_run(prog, g, &cfg));
    if bits(&in_core.values) != want_bits {
        return Err(format!("{tag}: in-core diverged from the fallback"));
    }

    // One shard per batch: every cross-shard stage-4 write takes the
    // host-master sink.
    let streamed = settle(try_run_streamed(
        prog,
        g,
        &StreamingConfig::new(cfg.clone(), 1),
    ));
    if bits(&streamed.values) != want_bits {
        return Err(format!("{tag}: one-shard-per-batch streaming diverged"));
    }
    let mut plain = cfg.clone();
    plain.device.replay_memo = false;
    let interpreted = settle(try_run_streamed(
        prog,
        g,
        &StreamingConfig::new(plain.clone(), 1),
    ));
    if streamed.stats.kernel.counters != interpreted.stats.kernel.counters
        || streamed.stats.compute_seconds.to_bits() != interpreted.stats.compute_seconds.to_bits()
    {
        return Err(format!(
            "{tag}: per-batch replay changed the streamed accounting"
        ));
    }
    // Every shard in one batch: nothing leaves the slice.
    let whole = settle(try_run_streamed(
        prog,
        g,
        &StreamingConfig::new(cfg.clone(), u64::MAX),
    ));
    let series = |o: &CuShaOutput<P::V>| -> Vec<u64> {
        o.stats
            .per_iteration
            .iter()
            .map(|it| it.updated_vertices)
            .collect()
    };
    if whole.stats.iterations != in_core.stats.iterations || series(&whole) != series(&in_core) {
        return Err(format!(
            "{tag}: single-batch streaming left the in-core trajectory"
        ));
    }
    // ... and launches the in-core engine's kernels. (A streamed G-Shards
    // slice takes its window boundaries from the host, a resident one loads
    // them from the p x p table it carries: those loads are all that differ.)
    let (w, i) = (&whole.stats.kernel.counters, &in_core.stats.kernel.counters);
    let beside_loads = |c: &cusha::simt::counters::Counters| {
        let shared = (c.shared_accesses, c.bank_conflict_replays, c.atomic_replays);
        (c.gst_transactions, c.gst_requested_bytes, shared)
    };
    let same = match repr {
        Repr::ConcatWindows => w == i,
        Repr::GShards => {
            beside_loads(w) == beside_loads(i) && w.gld_transactions <= i.gld_transactions
        }
    };
    if !same {
        return Err(format!(
            "{tag}: single-batch streaming counted {w:?}, in-core {i:?}"
        ));
    }

    // A fleet run in the single-engine shape (`as_run_stats`), capped or not.
    let fleet_run = |cfg: &CuShaConfig, devices| {
        let flat = try_run_multi(prog, g, &MultiConfig::new(cfg.clone(), devices)).map(|out| {
            let stats = out.stats.as_run_stats();
            let values = out.values;
            CuShaOutput { values, stats }
        });
        settle(flat)
    };
    let trajectory = |o: &CuShaOutput<P::V>| -> Vec<(u64, u64)> {
        let detail = o.stats.per_iteration.iter();
        detail
            .map(|it| (it.seconds.to_bits(), it.updated_vertices))
            .collect()
    };
    for devices in 1..=4 {
        let fleet = fleet_run(&cfg, devices);
        if bits(&fleet.values) != want_bits {
            return Err(format!("{tag} x{devices}: fleet diverged"));
        }
        let (f, i) = (&fleet.stats, &in_core.stats);
        if devices == 1
            && (f.iterations != i.iterations
                || trajectory(&fleet) != trajectory(&in_core)
                || f.kernel.counters != i.kernel.counters)
        {
            return Err(format!(
                "{tag}: fleet-of-1 {} iterations, counters {:?} != in-core {}, {:?}",
                f.iterations, f.kernel.counters, i.iterations, i.kernel.counters
            ));
        }
        let interpreted = fleet_run(&plain, devices).stats.kernel.counters;
        if fleet.stats.kernel.counters != interpreted {
            return Err(format!(
                "{tag} x{devices}: replay changed the fleet's counters"
            ));
        }
    }

    // A fleet whose middle device cannot hold its share streams it — the same
    // mode, the same code as the streamed engine — and still feeds the halo
    // exchange: the host-master sink pushes what leaves the device's range to
    // the spill list, like the outbox it stands in for.
    let three = |plan: Option<FaultPlan>| {
        let mut mcfg = MultiConfig::new(cfg.clone(), 3);
        mcfg.fault_plans = vec![None, plan];
        match try_run_multi(prog, g, &mcfg) {
            Ok(out) => Ok(out),
            Err(EngineError::NonConverged { .. }) => Err(()),
            Err(e) => panic!("{tag} x3: {e}"),
        }
    };
    if let (Ok(resident), Ok(streamed)) = (
        three(None),
        three(Some(FaultPlan::new().fail_alloc_at(&[0]))),
    ) {
        let middle = &streamed.stats.per_device[1];
        if middle.shards > 0 && (middle.mode != "rebatched" || middle.fault.oom_rebatches != 1) {
            return Err(format!("{tag} x3: the middle device is {}", middle.mode));
        }
        if bits(&streamed.values) != want_bits {
            return Err(format!("{tag} x3: a streamed middle device diverged"));
        }
        if streamed.stats.exchange_bytes != resident.stats.exchange_bytes {
            return Err(format!(
                "{tag} x3: a streamed middle device exchanged {} B, a resident one {} B",
                streamed.stats.exchange_bytes, resident.stats.exchange_bytes
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_engine_matches_the_host_sweep(g in arb_graph(), n_per in 2u32..40) {
        for repr in [Repr::GShards, Repr::ConcatWindows] {
            let checked = check(&Bfs::new(0), &g, repr, n_per)
                .and_then(|()| check(&Sssp::new(0), &g, repr, n_per))
                .and_then(|()| check(&PageRank::new(), &g, repr, n_per));
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }
}

/// The public path to a changed `erange.start`: an allocation fault makes
/// the streamed engine halve its budget and re-cut its batches. The retried
/// attempt must record every scope under the new slicing — as many misses as
/// an undisturbed run at the halved budget, and its exact accounting.
#[test]
fn an_oom_rebatch_re_records_instead_of_replaying() {
    let g = rmat(&RmatConfig::graph500(8, 3000, 11));
    let prog = Sssp::new(0);
    for repr in [Repr::GShards, Repr::ConcatWindows] {
        let run = |resident: u64, oom: bool, replay: bool| {
            let mut base = CuShaConfig::new(repr).with_vertices_per_shard(16);
            base.device.replay_memo = replay;
            base.fault_plan = oom.then(|| FaultPlan::new().fail_alloc_at(&[2]));
            settle(try_run_streamed(
                &prog,
                &g,
                &StreamingConfig::new(base, resident),
            ))
        };
        let rebatched = run(1 << 13, true, true);
        assert_eq!(rebatched.stats.fault.oom_rebatches, 1, "{}", repr.label());
        let halved = run(1 << 12, false, true);
        assert!(halved.stats.memo.replay_misses > 0);
        assert_ne!(
            run(1 << 13, false, true).stats.kernel.counters,
            halved.stats.kernel.counters,
            "the two budgets must cut different slices"
        );
        for (other, what) in [
            (&halved, "halved budget"),
            (&run(1 << 13, true, false), "replay off"),
        ] {
            assert_eq!(bits(&rebatched.values), bits(&other.values));
            assert_eq!(
                rebatched.stats.kernel.counters,
                other.stats.kernel.counters,
                "{} vs {what}",
                repr.label()
            );
        }
        assert_eq!(
            (
                rebatched.stats.memo.replay_hits,
                rebatched.stats.memo.replay_misses
            ),
            (
                halved.stats.memo.replay_hits,
                halved.stats.memo.replay_misses
            ),
            "{}",
            repr.label()
        );
    }
}
