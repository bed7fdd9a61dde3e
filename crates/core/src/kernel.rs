//! The one four-stage kernel (paper Figure 5) and the pieces every engine
//! shares around it.
//!
//! The in-core engine, the streamed engine and the multi-device fleet all
//! run the same thing: upload the device buffers of a contiguous shard
//! range, launch one thread block per shard through stages 1–4, and — for
//! recovery — re-enact that schedule on the host. This module owns each of
//! those exactly once:
//!
//! * [`HostArrays`] — the host master copies of the per-vertex and
//!   per-entry arrays, built once per run;
//! * [`Resident`] + [`DeviceSlice`] — the device buffers of a shard range
//!   with its global vertex/entry/CW offsets, built by one upload routine
//!   that takes the [`RetryPolicy`];
//! * [`DeviceSlice::launch`] — the kernel body. Engines differ only in
//!   where a stage-4 write that falls *outside* the slice's own entry range
//!   goes, which is a typed [`Sink`]: nowhere (a slice covering every shard
//!   has no such write), a device outbox plus an ordered spill list (the
//!   fleet's halo updates), or the host master with a PCIe byte count (a
//!   streamed device, alone or in a fleet);
//! * [`HostArrays::sweep`] — the host re-enactment, bit-identical to the
//!   kernel.
//!
//! Control metadata (shard boundaries, window ranges) is treated as
//! uniform/cached and charged neither traffic nor instructions; the bulk
//! per-edge and per-vertex arrays dominate, and they are fully accounted.

use crate::cw::ConcatWindows;
use crate::engine::PreparedLayout;
use crate::error::EngineError;
use crate::program::{Value, VertexProgram};
use crate::shards::GShards;
use crate::stats::FaultStats;
use cusha_graph::Graph;
use cusha_obs::trace::lanes;
use cusha_simt::{
    aligned_chunks, Block, DevVec, DeviceFault, Gpu, KernelDesc, KernelStats, Mask, Pod, WARP,
};
use std::array::from_fn;
use std::ops::Range;
use std::sync::Arc;

/// Site tags of the kernel's three replay scopes — one per statically
/// accounted stage per shard (first word of every `warp_scope` key; see
/// `cusha_simt::replay`). G-Shards/CW make the access pattern of stages 1, 2
/// and 4 a property of the representation (paper §3), so each replays whole;
/// stage 3 publishes by value and stays interpreted. The key is `[tag, shard's
/// vertex range (two words), where the stage's buffers start]`: the vertex
/// range names the shard (entry ranges coincide for shards without in-edges);
/// the last word is `voff` for stage 1, which touches only `VertexValues`, and
/// the slice's entry range for stages 2 and 4 — it fixes their buffer offsets
/// and which stage-4 writes leave the slice. Nothing names the layout or the
/// program: the table's owner (the layout, or a one-attempt device) does.
const SITE_GATHER: u64 = 0x6373_474154484552; // "GATHER"
const SITE_APPLY: u64 = 0x6373_4150504c59; // "APPLY"
const SITE_WRITEBACK: u64 = 0x6373_5752495445; // "WRITE"

/// 32 evenly spaced samples of `column[range]`, a stage scope's fingerprint of
/// the index column driving it. The exact key already determines the
/// accounting; these backstop a table that outlived its layout.
fn sampled(column: &[u32], range: &Range<usize>) -> [u32; WARP] {
    from_fn(|l| match range.len() {
        0 => 0,
        n => column[range.start + l * n / WARP],
    })
}

/// Transient-fault retry budget of one engine. Copy faults transferred
/// nothing and launch faults fire before any block runs, so either retry
/// re-issues the identical operation. An engine retries by
/// [`RetryPolicy::DEFAULT`] or not at all ([`RetryPolicy::NONE`]); it is not
/// a setting of any configuration.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RetryPolicy {
    /// Retries allowed per copy operation.
    pub max_copy_retries: u32,
    /// First retry's backoff in seconds; doubles per retry of the same
    /// operation. Recorded in [`FaultStats::backoff_seconds`].
    pub backoff_base_seconds: f64,
    /// In-place re-launches allowed per kernel fault.
    pub max_kernel_retries: u32,
}

/// Budget halvings a device may spend on OOM before the fault is final.
pub(crate) const MAX_REBATCHES: u32 = 8;

impl RetryPolicy {
    /// What every engine that recovers in place grants: the streamed engine,
    /// each fleet device, and the middleware around engines with no ladder.
    pub(crate) const DEFAULT: RetryPolicy = RetryPolicy {
        max_copy_retries: 3,
        backoff_base_seconds: 1e-3,
        max_kernel_retries: 1,
    };

    /// No retries: every device fault surfaces to the caller (the in-core
    /// engine, whose callers own recovery).
    pub(crate) const NONE: RetryPolicy = RetryPolicy {
        max_copy_retries: 0,
        backoff_base_seconds: 0.0,
        max_kernel_retries: 0,
    };
}

/// The retry around whole attempts granted to an entry with no recovery
/// ladder (the middleware's engines, k-core, triangle counting): `attempt`
/// reruns after a transient fault while [`RetryPolicy::DEFAULT`] lasts, on
/// the fault plan the last one advanced. Returns the last outcome and retries.
pub fn retry_attempts<T, V>(
    mut attempt: impl FnMut() -> Result<T, EngineError<V>>,
) -> (Result<T, EngineError<V>>, FaultStats) {
    use EngineError::{CopyFault, KernelFault};
    let (budget, mut retried) = (RetryPolicy::DEFAULT, FaultStats::default());
    loop {
        match attempt() {
            Err(CopyFault { .. }) if retried.copy_retries < budget.max_copy_retries => {
                let doubled = (1u64 << retried.copy_retries) as f64;
                retried.backoff_seconds += budget.backoff_base_seconds * doubled;
                retried.copy_retries += 1;
            }
            Err(KernelFault { .. }) if retried.kernel_retries < budget.max_kernel_retries => {
                retried.kernel_retries += 1;
            }
            outcome => return (outcome, retried),
        }
    }
}

/// Retries `op` on transient copy faults with exponential backoff; other
/// faults (OOM, kernel) pass through for coarser-grained recovery.
pub(crate) fn with_copy_retries<T>(
    gpu: &mut Gpu,
    retry: &RetryPolicy,
    fault: &mut FaultStats,
    mut op: impl FnMut(&mut Gpu) -> Result<T, DeviceFault>,
) -> Result<T, DeviceFault> {
    let mut attempt = 0u32;
    loop {
        match op(gpu) {
            Err(DeviceFault::Copy { .. }) if attempt < retry.max_copy_retries => {
                fault.copy_retries += 1;
                fault.backoff_seconds += retry.backoff_base_seconds * (1u64 << attempt) as f64;
                fault_instant(gpu, "fault", "copy-retry");
                attempt += 1;
            }
            other => return other,
        }
    }
}

/// Emits a recovery instant on the device's fault lane at its current clock.
pub fn fault_instant(gpu: &Gpu, cat: &'static str, name: &str) {
    let (pid, ts) = (gpu.trace_pid(), gpu.total_seconds());
    gpu.tracer().instant(pid, lanes::FAULT, cat, name, ts);
}

/// Runs an upload of several buffers; one that fails midway gives back what
/// it had allocated, so its caller can retry on the same device.
fn or_free<T>(
    gpu: &mut Gpu,
    upload: impl FnOnce(&mut Gpu) -> Result<T, DeviceFault>,
) -> Result<T, DeviceFault> {
    let held = gpu.allocated_bytes();
    upload(gpu).inspect_err(|_| gpu.free(gpu.allocated_bytes() - held))
}

/// Where the batch starting at shard `from` ends: the longest run of
/// consecutive shards below `to` whose entry arrays fit `budget` bytes, and
/// never fewer than one shard — the kernel cannot split a shard, so one
/// larger than the budget forms its own batch.
pub(crate) fn batch_end(gs: &GShards, per_entry: u64, budget: u64, from: u32, to: u32) -> u32 {
    let bytes_of = |s: u32| gs.shard_entries(s).len() as u64 * per_entry;
    let (mut end, mut bytes) = (from + 1, bytes_of(from));
    while end < to && bytes + bytes_of(end) <= budget {
        bytes += bytes_of(end);
        end += 1;
    }
    end
}

/// Host master copies of the arrays the kernel consumes, indexed globally:
/// `values` by vertex, everything else by shard entry.
pub(crate) struct HostArrays<P: VertexProgram> {
    /// Vertex values; starts as the program's initial state.
    pub values: Vec<P::V>,
    /// The `SrcValue` column.
    pub src_value: Vec<P::V>,
    /// Per-entry static source values, when the program has them.
    pub statics: Option<Vec<P::SV>>,
    /// Per-entry edge values, when the program has them.
    pub edges: Option<Vec<P::E>>,
}

impl<P: VertexProgram> HostArrays<P> {
    /// The initial state of `prog` over `graph`, laid out for `gs`.
    pub(crate) fn new(prog: &P, graph: &Graph, gs: &GShards) -> Self {
        let values: Vec<P::V> = (0..graph.num_vertices())
            .map(|v| prog.initial_value(v))
            .collect();
        let src_value = gs.src_index().iter().map(|&s| values[s as usize]).collect();
        let statics = P::HAS_STATIC_VALUES.then(|| {
            let per_vertex = prog.static_values(graph);
            gs.src_index()
                .iter()
                .map(|&s| per_vertex[s as usize])
                .collect()
        });
        let edges = P::HAS_EDGE_VALUES.then(|| {
            let by_id = prog.edge_values(graph);
            gs.edge_id().iter().map(|&id| by_id[id as usize]).collect()
        });
        HostArrays {
            values,
            src_value,
            statics,
            edges,
        }
    }

    /// Drops every column. For a caller whose devices hold everything and
    /// can never be re-uploaded to: nothing reads the masters again.
    pub(crate) fn release(&mut self) {
        (self.values, self.src_value) = Default::default();
        (self.statics, self.edges) = (None, None);
    }

    /// The functional core of the CuSha iteration on the host masters: the
    /// kernel's per-shard schedule ([`init_local`], [`fold`], the update
    /// condition, [`write_back`]) over `shards`, bit-identical to a launch for
    /// every program, floats included. Every stage-4 write lands in the master
    /// column, and one outside `own` in `spills` too. Returns the number of
    /// vertex values published.
    pub(crate) fn sweep(
        &mut self,
        prog: &P,
        gs: &GShards,
        shards: Range<u32>,
        own: &Range<usize>,
        spills: &mut Vec<(usize, P::V)>,
    ) -> u64 {
        let (vv, sv) = (&mut self.values, &mut self.src_value);
        let (mut updated, mut local) = (0u64, Vec::new());
        for s in shards {
            let vrange = gs.vertex_range(s);
            let (offset, entries) = (vrange.start as usize, gs.shard_entries(s));
            local.resize(vrange.len(), P::V::default());
            init_local(prog, &vv[offset..], &mut local);
            let (r, dest) = (|| entries.clone(), gs.dest_index());
            let (st, ed) = (self.statics.as_deref(), self.edges.as_deref());
            let (st, ed) = (st.map(|c| &c[r()]), ed.map(|c| &c[r()]));
            fold(prog, &dest[r()], &sv[r()], st, ed, offset, &mut local);

            // Stage 3: publish values passing the update condition.
            let published = updated;
            for (lv, g) in local.iter_mut().zip(&mut vv[offset..]) {
                if prog.update_condition(lv, g) {
                    *g = *lv;
                    updated += 1;
                }
            }
            if updated > published {
                write_back(gs, None, s, &local, offset, |e, val| {
                    sv[e] = val;
                    if !own.contains(&e) {
                        spills.push((e, val));
                    }
                });
            }
        }
        updated
    }
}

/// Stage 1 of one shard: `local[i]` starts from `values[i]`, its `VertexValues`.
fn init_local<P: VertexProgram>(prog: &P, values: &[P::V], local: &mut [P::V]) {
    for (lv, v) in local.iter_mut().zip(values) {
        *lv = P::V::default();
        prog.init_compute(lv, v);
    }
}

/// Stage 2 of one shard, whose first vertex is `offset`: folds each entry of
/// the columns into its destination's slot in entry order (the lanes' order).
fn fold<P: VertexProgram>(
    prog: &P,
    dest: &[u32],
    src: &[P::V],
    statics: Option<&[P::SV]>,
    edges: Option<&[P::E]>,
    offset: usize,
    local: &mut [P::V],
) {
    for (k, (&d, srcv)) in dest.iter().zip(src).enumerate() {
        let statv = statics.map_or_else(P::SV::default, |c| c[k]);
        let ev = edges.map_or_else(P::E::default, |c| c[k]);
        prog.compute(srcv, &statv, &ev, &mut local[d as usize - offset]);
    }
}

/// Stage 4 of shard `s`: hands `emit` each `(entry, value)` of its windows in
/// window order — or of `CW_s`, those windows concatenated: the same sequence.
fn write_back<V: Copy>(
    gs: &GShards,
    cw: Option<&ConcatWindows>,
    s: u32,
    local: &[V],
    offset: usize,
    mut emit: impl FnMut(usize, V),
) {
    let Some(cw) = cw else {
        for e in (0..gs.num_shards()).flat_map(|j| gs.window(s, j)) {
            emit(e, local[gs.src_index()[e] as usize - offset]);
        }
        return;
    };
    let r = cw.cw_entries(s);
    for (&at, &src) in cw.mapper()[r.clone()].iter().zip(&cw.src_index()[r]) {
        emit(at as usize, local[src as usize - offset]);
    }
}

/// Global entry range covered by the contiguous shard range `shards`.
pub(crate) fn entry_range(gs: &GShards, shards: &Range<u32>) -> Range<usize> {
    if shards.is_empty() {
        return 0..0;
    }
    gs.shard_entries(shards.start).start..gs.shard_entries(shards.end - 1).end
}

/// Global vertex range covered by the contiguous shard range `shards`.
pub(crate) fn vertex_range(gs: &GShards, shards: &Range<u32>) -> Range<usize> {
    if shards.is_empty() {
        return 0..0;
    }
    gs.vertex_range(shards.start).start as usize..gs.vertex_range(shards.end - 1).end as usize
}

/// Stage-4 targets of `shards` that fall outside `erange`, sorted. Windows
/// never straddle a shard boundary, so in G-Shards mode each remote window
/// is one contiguous run of the result.
fn remote_targets(
    layout: &PreparedLayout,
    shards: Range<u32>,
    erange: &Range<usize>,
) -> Vec<usize> {
    let gs = layout.gs();
    let mut remote = Vec::new();
    if erange.len() == gs.num_edges() as usize {
        return remote;
    }
    match layout.cw() {
        None => {
            for s in shards {
                for j in 0..gs.num_shards() {
                    let w = gs.window(s, j);
                    if !w.is_empty() && !erange.contains(&w.start) {
                        remote.extend(w);
                    }
                }
            }
        }
        Some(cw) => {
            for s in shards {
                let targets = cw.cw_entries(s).map(|k| cw.mapper()[k] as usize);
                remote.extend(targets.filter(|pos| !erange.contains(pos)));
            }
        }
    }
    remote.sort_unstable();
    remote.dedup();
    remote
}

/// How stage-4 writes that leave a slice travel, decided at upload time
/// because it determines which auxiliary buffers the slice carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SpillVia {
    /// Through a device outbox sized to the slice's remote targets (none
    /// for a slice covering every shard). G-Shards slices also carry the
    /// p×p window-offset table stage 4 reads its boundaries from.
    Outbox,
    /// Straight to the host master copy; the slice carries neither an
    /// outbox nor the window-offset table (the host supplies boundaries).
    Host,
}

/// Device-side halo buffer of a slice: one slot per remote stage-4 target.
pub(crate) struct Outbox<V: Value> {
    /// Sorted global entry positions this slice writes outside its range.
    remote: Vec<usize>,
    /// `SrcIndex` of the remote targets (G-Shards; CW reads its own).
    src_index: Option<DevVec<u32>>,
    buf: DevVec<V>,
    /// Remote writes of the latest launch, in write order:
    /// `(global entry position, value)`.
    spills: Vec<(usize, V)>,
}

/// Outbox slot of global entry position `pos` among the sorted `remote`
/// targets.
fn slot_of(remote: &[usize], pos: usize) -> usize {
    let slot = remote.partition_point(|&r| r < pos);
    debug_assert_eq!(remote.get(slot), Some(&pos), "not a remote target");
    slot
}

/// A streamed device's spill destination: the host master `SrcValue` column,
/// with the bytes that crossed PCIe to reach it. [`HostArrays::sweep`]'s
/// contract: a write outside the *device's* entry range is also pushed to the
/// spill list, so it still flows through the fleet's halo exchange.
pub(crate) struct HostMaster<'a, V> {
    /// The full master column, indexed by global entry position.
    pub src_value: &'a mut [V],
    /// Incremented by the size of every value written.
    pub bytes: &'a mut u64,
    /// The entry range of the device the slice streams through.
    pub own: &'a Range<usize>,
    /// Writes outside `own`, in write order: `(global entry position, value)`.
    pub spills: &'a mut Vec<(usize, V)>,
}

/// Where a stage-4 write outside the slice's own entry range goes.
enum Sink<'a, V: Value> {
    /// The slice covers every target: no such write exists.
    None,
    /// Device outbox store plus an entry in its spill list.
    Outbox(&'a mut Outbox<V>),
    /// Host-master write plus a PCIe byte count.
    Host(HostMaster<'a, V>),
}

impl<V: Value> Sink<'_, V> {
    /// What to add to a global entry position inside the remote window
    /// starting at `wstart` to index the outbox (whose slots for one window
    /// are one contiguous run); 0 for the other sinks, which index by
    /// position.
    fn window_shift(&self, wstart: usize) -> isize {
        match self {
            Sink::Outbox(ob) => slot_of(&ob.remote, wstart) as isize - wstart as isize,
            _ => 0,
        }
    }

    /// `SrcIndex` of the chunk at global position `base` of a remote window
    /// (outbox index `at`): a charged load from the outbox's copy, or the
    /// host-pinned copy.
    fn src_index(
        &self,
        b: &mut Block<'_>,
        gs: &GShards,
        base: usize,
        at: isize,
        mask: Mask,
    ) -> [u32; WARP] {
        if let Sink::Outbox(Outbox {
            src_index: Some(rsi),
            ..
        }) = self
        {
            return b.gload_run(rsi, mask, at);
        }
        let mut sidx = [0u32; WARP];
        for l in mask.iter() {
            sidx[l] = gs.src_index()[base + l];
        }
        sidx
    }

    /// Stores the chunk at global position `base` (outbox index `at`) of a
    /// remote window (G-Shards stage 4).
    fn store_run(
        &mut self,
        b: &mut Block<'_>,
        base: usize,
        at: isize,
        mask: Mask,
        vals: &[V; WARP],
    ) {
        mask.iter().for_each(|l| self.put(base + l, vals[l]));
        if let Sink::Outbox(ob) = self {
            b.gstore_run(&mut ob.buf, mask, at, vals);
        }
    }

    /// Scatters the lanes of `mask` to remote targets `pos[l]` (CW stage 4).
    fn scatter(&mut self, b: &mut Block<'_>, mask: Mask, pos: &[u32; WARP], vals: &[V; WARP]) {
        mask.iter().for_each(|l| self.put(pos[l] as usize, vals[l]));
        if let Sink::Outbox(Outbox { remote, buf, .. }) = self {
            b.gstore(buf, mask, |l| slot_of(remote, pos[l] as usize), |l| vals[l]);
        }
    }

    /// The host-visible half of a remote write: all a replayed stage 4 makes.
    fn put(&mut self, at: usize, val: V) {
        match self {
            Sink::None => debug_assert!(false, "stage-4 write left a whole-graph slice"),
            Sink::Outbox(ob) => ob.spills.push((at, val)),
            Sink::Host(host) => {
                host.src_value[at] = val;
                *host.bytes += <V as Pod>::SIZE as u64;
                if !host.own.contains(&at) {
                    host.spills.push((at, val));
                }
            }
        }
    }
}

/// Device state that outlives a slice: the vertex values of a global vertex
/// range and the `is_converged` flag.
pub(crate) struct Resident<V: Value> {
    /// `VertexValues[voff..]`.
    pub vertex_values: DevVec<V>,
    /// Global id of the first vertex held.
    pub voff: usize,
    /// The convergence flag (Figure 5's `is_converged`).
    pub flag: DevVec<u32>,
}

impl<V: Value> Resident<V> {
    /// Uploads `values` — `VertexValues[voff..]` — and the flag: all a
    /// streamed device keeps between batches.
    pub(crate) fn upload(
        gpu: &mut Gpu,
        retry: &RetryPolicy,
        fault: &mut FaultStats,
        values: &[V],
        voff: usize,
    ) -> Result<Self, DeviceFault> {
        or_free(gpu, |gpu| {
            Ok(Resident {
                vertex_values: with_copy_retries(gpu, retry, fault, |g| g.try_upload(values))?,
                voff,
                flag: with_copy_retries(gpu, retry, fault, |g| g.try_upload(&[1u32]))?,
            })
        })
    }

    /// Host resets `is_converged` before a launch.
    pub(crate) fn reset_flag(
        &mut self,
        gpu: &mut Gpu,
        retry: &RetryPolicy,
        fault: &mut FaultStats,
    ) -> Result<(), DeviceFault> {
        with_copy_retries(gpu, retry, fault, |g| g.try_h2d(&mut self.flag, &[1u32]))
    }

    /// Per-iteration `is_converged` readback (Figure 5, line 29).
    pub(crate) fn read_flag(
        &self,
        gpu: &mut Gpu,
        retry: &RetryPolicy,
        fault: &mut FaultStats,
    ) -> Result<u32, DeviceFault> {
        with_copy_retries(gpu, retry, fault, |g| g.try_download_scalar(&self.flag, 0))
    }
}

/// The device buffers of the contiguous shard range `shards`: its slice of
/// every per-entry array, indexed relative to the slice's global offsets.
pub(crate) struct DeviceSlice<P: VertexProgram> {
    /// Global shard ids held (one thread block each).
    pub shards: Range<u32>,
    /// Global entry range held; `src_value[k]` is entry `erange.start + k`.
    pub erange: Range<usize>,
    /// Global CW position of `src_index[0]` / `mapper[0]` (CW mode).
    cwoff: usize,
    /// The slice of the `SrcValue` column.
    pub src_value: DevVec<P::V>,
    src_static: Option<DevVec<P::SV>>,
    edge_value: Option<DevVec<P::E>>,
    dest_index: DevVec<u32>,
    /// G-Shards: `SrcIndex[erange]`; CW: the window-major `SrcIndex`.
    src_index: DevVec<u32>,
    /// CW only.
    mapper: Option<DevVec<u32>>,
    /// G-Shards with [`SpillVia::Outbox`] only: every window's start.
    window_offsets: Option<DevVec<u32>>,
    /// Present when some stage-4 target lies outside `erange`.
    outbox: Option<Outbox<P::V>>,
    /// Device bytes the buffers above hold, given back by
    /// [`DeviceSlice::retire`].
    bytes: u64,
}

/// Uploads `VertexValues` for the vertices of `shards`, then the slice
/// (spilling through its outbox), then the convergence flag — the whole
/// state of a device that keeps a shard range resident.
pub(crate) fn upload_resident<P: VertexProgram>(
    gpu: &mut Gpu,
    retry: &RetryPolicy,
    fault: &mut FaultStats,
    layout: &PreparedLayout,
    host: &HostArrays<P>,
    shards: Range<u32>,
) -> Result<(Resident<P::V>, DeviceSlice<P>), DeviceFault> {
    let vrange = vertex_range(layout.gs(), &shards);
    or_free(gpu, |gpu| {
        let vertex_values = with_copy_retries(gpu, retry, fault, |g| {
            g.try_upload(&host.values[vrange.clone()])
        })?;
        let via = SpillVia::Outbox;
        let slice = DeviceSlice::upload(gpu, retry, fault, layout, host, shards, via)?;
        let flag = with_copy_retries(gpu, retry, fault, |g| g.try_upload(&[1u32]))?;
        let resident = Resident {
            vertex_values,
            voff: vrange.start,
            flag,
        };
        Ok((resident, slice))
    })
}

impl<P: VertexProgram> DeviceSlice<P> {
    /// Uploads the slice of `shards` from the host masters, one charged H2D
    /// copy per buffer, in a fixed order (fault-plan operation indices
    /// depend on it): `SrcValue`, static values, edge values, `DestIndex`,
    /// `SrcIndex`, `Mapper`, window offsets, remote `SrcIndex`, outbox.
    pub(crate) fn upload(
        gpu: &mut Gpu,
        retry: &RetryPolicy,
        fault: &mut FaultStats,
        layout: &PreparedLayout,
        host: &HostArrays<P>,
        shards: Range<u32>,
        via: SpillVia,
    ) -> Result<Self, DeviceFault> {
        let held = gpu.allocated_bytes();
        or_free(gpu, |gpu| {
            fn up<T: Pod>(
                gpu: &mut Gpu,
                retry: &RetryPolicy,
                fault: &mut FaultStats,
                data: &[T],
            ) -> Result<DevVec<T>, DeviceFault> {
                with_copy_retries(gpu, retry, fault, |g| g.try_upload(data))
            }
            let gs = layout.gs();
            let erange = entry_range(gs, &shards);
            let src_value = up(gpu, retry, fault, &host.src_value[erange.clone()])?;
            let src_static = match &host.statics {
                Some(v) => Some(up(gpu, retry, fault, &v[erange.clone()])?),
                None => None,
            };
            let edge_value = match &host.edges {
                Some(v) => Some(up(gpu, retry, fault, &v[erange.clone()])?),
                None => None,
            };
            let dest_index = up(gpu, retry, fault, &gs.dest_index()[erange.clone()])?;
            let (cwoff, src_index, mapper) = match layout.cw() {
                Some(cw) => {
                    let r = cw.cw_entries(shards.start).start..cw.cw_entries(shards.end - 1).end;
                    let src_index = up(gpu, retry, fault, &cw.src_index()[r.clone()])?;
                    let mapper = up(gpu, retry, fault, &cw.mapper()[r.clone()])?;
                    (r.start, src_index, Some(mapper))
                }
                None => {
                    let src_index = up(gpu, retry, fault, &gs.src_index()[erange.clone()])?;
                    (0, src_index, None)
                }
            };
            // G-Shards' stage 4 must look up every window's boundaries — a p×p
            // offset table the CW layout does not need (its per-shard ranges
            // are one entry each). The table lives in device memory and its
            // reads are charged, which is part of why small windows hurt
            // G-Shards.
            let window_offsets = if mapper.is_none() && via == SpillVia::Outbox {
                let p = gs.num_shards();
                let flat: Vec<u32> = (0..p)
                    .flat_map(|j| (0..p).map(move |i| gs.window(i, j).start as u32))
                    .collect();
                Some(up(gpu, retry, fault, &flat)?)
            } else {
                None
            };
            let remote = match via {
                SpillVia::Outbox => remote_targets(layout, shards.clone(), &erange),
                SpillVia::Host => Vec::new(),
            };
            let outbox = if remote.is_empty() {
                None
            } else {
                let src_index = if mapper.is_none() {
                    let rsi: Vec<u32> = remote.iter().map(|&k| gs.src_index()[k]).collect();
                    Some(up(gpu, retry, fault, &rsi)?)
                } else {
                    None
                };
                let buf = gpu.try_alloc::<P::V>(remote.len())?;
                Some(Outbox {
                    remote,
                    src_index,
                    buf,
                    spills: Vec::new(),
                })
            };
            Ok(DeviceSlice {
                shards,
                erange,
                cwoff,
                src_value,
                src_static,
                edge_value,
                dest_index,
                src_index,
                mapper,
                window_offsets,
                outbox,
                bytes: gpu.allocated_bytes() - held,
            })
        })
    }

    /// Retires the slice: its buffers' bytes go back to the device. A streamed
    /// device does this to every batch once its `SrcValue` is back in the
    /// master, so it never holds more than its resident part and one batch.
    pub(crate) fn retire(self, gpu: &mut Gpu) {
        gpu.free(self.bytes);
    }

    /// Moves the latest launch's remote stage-4 writes, in write order, to
    /// the end of `into` (an empty one trades buffers with the outbox: no copy).
    pub(crate) fn take_spills(&mut self, into: &mut Vec<(usize, P::V)>) {
        match &mut self.outbox {
            Some(ob) if into.is_empty() => std::mem::swap(into, &mut ob.spills),
            Some(ob) => into.append(&mut ob.spills),
            None => {}
        }
    }

    /// Launches the four-stage kernel over the slice's shards — one thread
    /// block per shard — and returns the launch statistics with the number
    /// of vertex values published. Writes that leave the slice go to
    /// `host` when given, else to the slice's outbox (see [`Sink`]). Launch
    /// faults fire before any block runs, so up to
    /// `retry.max_kernel_retries` in-place re-launches re-execute the
    /// identical work; past that the fault surfaces.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn launch(
        &mut self,
        gpu: &mut Gpu,
        name: &Arc<str>,
        threads_per_block: u32,
        prog: &P,
        layout: &PreparedLayout,
        res: &mut Resident<P::V>,
        mut host: Option<HostMaster<'_, P::V>>,
        retry: &RetryPolicy,
        fault: &mut FaultStats,
    ) -> Result<(KernelStats, u64), DeviceFault> {
        let desc = KernelDesc::new(name.clone(), self.shards.len() as u32, threads_per_block);
        // The sink borrows the outbox for the launch; the body borrows the
        // rest of the slice.
        let mut outbox = self.outbox.take();
        let mut attempts = 0u32;
        let result = loop {
            let sink = match (host.as_mut(), outbox.as_mut()) {
                (Some(h), _) => Sink::Host(HostMaster {
                    src_value: &mut *h.src_value,
                    bytes: &mut *h.bytes,
                    own: h.own,
                    spills: &mut *h.spills,
                }),
                (None, Some(ob)) => {
                    ob.spills.clear();
                    Sink::Outbox(ob)
                }
                (None, None) => Sink::None,
            };
            let mut updated = 0u64;
            match self.launch_once(gpu, &desc, prog, layout, res, sink, &mut updated) {
                Ok(kstats) => break Ok((kstats, updated)),
                Err(DeviceFault::Kernel { .. }) if attempts < retry.max_kernel_retries => {
                    attempts += 1;
                    fault.kernel_retries += 1;
                    fault_instant(gpu, "fault", "kernel-retry");
                }
                Err(f) => break Err(f),
            }
        };
        self.outbox = outbox;
        result
    }

    /// The kernel body: stages 1–4 of Figure 5 for every shard of the
    /// slice, in run-form ops, with one replay scope around each statically
    /// accounted stage; one that replays moves its data with the loop of
    /// [`HostArrays::sweep`] over host views instead.
    #[allow(clippy::too_many_arguments)]
    fn launch_once(
        &mut self,
        gpu: &mut Gpu,
        desc: &KernelDesc,
        prog: &P,
        layout: &PreparedLayout,
        res: &mut Resident<P::V>,
        mut sink: Sink<'_, P::V>,
        updated: &mut u64,
    ) -> Result<KernelStats, DeviceFault> {
        let gs = layout.gs();
        let p = gs.num_shards();
        let erange = self.erange.clone();
        let (voff, eoff) = (res.voff as isize, erange.start as isize);
        // Entry positions are `u32`-indexed, so both slice bounds fit a word.
        let slice_word = (erange.start as u64) << 32 | erange.end as u64;
        gpu.try_launch(desc, |b| {
            let s = self.shards.start + b.id();
            let vrange = gs.vertex_range(s);
            let site = |tag: u64, at: u64| [tag, vrange.start as u64, vrange.end as u64, at];
            let offset = vrange.start as usize;
            let nv = vrange.len();
            let mut local = b.shared_alloc::<P::V>(nv);

            // Stage 1: coalesced fetch of VertexValues into shared memory.
            // Pure stride-1 traffic: SoA run operations copy whole lane
            // columns and account in closed form.
            b.phase("gather");
            if b.warp_scope(&site(SITE_GATHER, res.voff as u64), Mask::FULL, &[0; WARP]) {
                let vv = &res.vertex_values.host()[offset - res.voff..][..nv];
                init_local(prog, vv, local.host_mut());
            } else {
                for (base, mask) in aligned_chunks(offset..offset + nv) {
                    let vals = b.gload_run(&res.vertex_values, mask, base as isize - voff);
                    let mut inited = [P::V::default(); WARP];
                    for l in mask.iter() {
                        prog.init_compute(&mut inited[l], &vals[l]);
                    }
                    b.exec(mask, 1);
                    b.sstore_run(&mut local, mask, base as isize - offset as isize, &inited);
                }
            }
            b.warp_scope_end();
            b.sync();

            // Stage 2: process shard entries; atomic shared update of the
            // destination's local value. `DestIndex` drives the collision
            // scan, and it is the layout's: the whole stage is one scope.
            b.phase("apply");
            let entries = gs.shard_entries(s);
            let col = sampled(gs.dest_index(), &entries);
            if b.warp_scope(&site(SITE_APPLY, slice_word), Mask::FULL, &col) {
                let r = || entries.start - erange.start..entries.end - erange.start;
                let statics = self.src_static.as_ref().map(|c| &c.host()[r()]);
                let edges = self.edge_value.as_ref().map(|c| &c.host()[r()]);
                let (dest, srcv) = (&self.dest_index.host()[r()], &self.src_value.host()[r()]);
                fold(prog, dest, srcv, statics, edges, offset, local.host_mut());
            } else {
                for (base, mask) in aligned_chunks(entries) {
                    let shift = base as isize - eoff;
                    let dst = b.gload_run(&self.dest_index, mask, shift);
                    let srcv = b.gload_run(&self.src_value, mask, shift);
                    let statv = match &self.src_static {
                        Some(buf) => b.gload_run(buf, mask, shift),
                        None => [P::SV::default(); WARP],
                    };
                    let ev = match &self.edge_value {
                        Some(buf) => b.gload_run(buf, mask, shift),
                        None => [P::E::default(); WARP],
                    };
                    b.exec(mask, P::COMPUTE_COST);
                    b.supdate(
                        &mut local,
                        mask,
                        |l| dst[l] as usize - offset,
                        |l, slot| prog.compute(&srcv[l], &statv[l], &ev[l], slot),
                    );
                }
            }
            b.warp_scope_end();
            b.sync();

            // Stage 3: update_condition; publish changed values.
            b.phase("scatter");
            let mut block_updated = false;
            for (base, mask) in aligned_chunks(offset..offset + nv) {
                let old = b.gload_run(&res.vertex_values, mask, base as isize - voff);
                let mut newv = b.sload_run(&local, mask, base as isize - offset as isize);
                let mut cond_bits = 0u32;
                for l in mask.iter() {
                    if prog.update_condition(&mut newv[l], &old[l]) {
                        cond_bits |= 1 << l;
                    }
                }
                b.exec(mask, 1);
                // update_condition may have refined local (e.g. PageRank's
                // damping); keep the shared copy current for stage 4.
                b.sstore_run(&mut local, mask, base as isize - offset as isize, &newv);
                let smask = Mask(cond_bits);
                if !smask.is_empty() {
                    b.gstore_run(&mut res.vertex_values, smask, base as isize - voff, &newv);
                    block_updated = true;
                    *updated += smask.count() as u64;
                }
            }
            b.sync();

            // Stage 4: write-back to the windows in all shards. Targets
            // inside the slice are device stores into its `SrcValue`;
            // the rest go to the sink. Whether it runs is the values'
            // business; what it costs when it does is the layout's (CW's
            // `Mapper`, or G-Shards' window starts, fingerprint it).
            b.phase("compact");
            if !block_updated {
                return;
            }
            let col = match layout.cw() {
                Some(cw) => sampled(cw.mapper(), &cw.cw_entries(s)),
                None => from_fn(|l| gs.window(s, (l * p as usize / WARP) as u32).start as u32),
            };
            let replays = b.warp_scope(&site(SITE_WRITEBACK, slice_word), Mask::FULL, &col);
            match (layout.cw(), &self.mapper) {
                _ if replays => {
                    let srcv = self.src_value.host_mut();
                    let emit = |e: usize, val| match erange.contains(&e) {
                        true => srcv[e - erange.start] = val,
                        false => sink.put(e, val),
                    };
                    write_back(gs, layout.cw(), s, local.host(), offset, emit);
                }
                (Some(cw), Some(mapper)) => {
                    // Concatenated Windows: dense sweep of CW_s through the
                    // Mapper.
                    for (base, mask) in aligned_chunks(cw.cw_entries(s)) {
                        let shift = base as isize - self.cwoff as isize;
                        let sidx = b.gload_run(&self.src_index, mask, shift);
                        let map = b.gload_run(mapper, mask, shift);
                        let loc = b.sload(&local, mask, |l| sidx[l] as usize - offset);
                        // Without a sink the slice holds every target: skip
                        // the per-lane range test on the in-core hot path.
                        let own = match sink {
                            Sink::None => mask,
                            _ => mask.and(Mask::from_fn(|l| erange.contains(&(map[l] as usize)))),
                        };
                        if !own.is_empty() {
                            let at = |l: usize| (map[l] as isize - eoff) as usize;
                            b.gstore(&mut self.src_value, own, at, |l| loc[l]);
                        }
                        let away = Mask(mask.0 & !own.0);
                        if !away.is_empty() {
                            sink.scatter(b, away, &map, &loc);
                        }
                    }
                }
                _ => {
                    // G-Shards: one warp walks each window W_sj, first
                    // fetching its boundary from the offset table.
                    for j in 0..p {
                        if let Some(wo) = &self.window_offsets {
                            let lanes = if s + 1 < p { 2 } else { 1 };
                            b.gload_run(wo, Mask::first(lanes), (j * p + s) as isize);
                        }
                        let w = gs.window(s, j);
                        let own = w.is_empty() || erange.contains(&w.start);
                        // Entry `e` of the window sits at `e + shift` in its
                        // target buffer (the slice's or the sink's).
                        let shift = if own {
                            -eoff
                        } else {
                            sink.window_shift(w.start)
                        };
                        for (base, mask) in aligned_chunks(w) {
                            let at = base as isize + shift;
                            // The source-index column drives the shared
                            // gather; the store is stride-1.
                            let sidx = if own {
                                b.gload_run(&self.src_index, mask, at)
                            } else {
                                sink.src_index(b, gs, base, at, mask)
                            };
                            let full = b.sload(&local, mask, |l| sidx[l] as usize - offset);
                            if own {
                                b.gstore_run(&mut self.src_value, mask, at, &full);
                            } else {
                                sink.store_run(b, base, at, mask, &full);
                            }
                        }
                    }
                }
            }
            b.warp_scope_end();
            b.gstore(&mut res.flag, Mask::first(1), |_| 0, |_| 0u32);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Repr;
    use crate::program::testing::MiniSssp;
    use cusha_graph::generators::rmat::{rmat, RmatConfig};
    use cusha_simt::DeviceConfig;

    /// What a launch leaves behind: the slice's `SrcValue`, the device's
    /// `VertexValues`, the remote writes in write order, the host master
    /// column and the bytes written to it.
    #[derive(Debug, PartialEq)]
    struct Effects {
        src_value: Vec<u32>,
        vertex_values: Vec<u32>,
        spills: Vec<(usize, u32)>,
        master: Vec<u32>,
        host_writes: u64,
    }

    /// Uploads `shards` to `gpu` and launches once; the launch's statistics
    /// and effects. The slice spills through its outbox, or — given the entry
    /// range of the streamed device it is a batch of — to a host master, with
    /// every vertex resident.
    fn launch_slice(
        gpu: &mut Gpu,
        layout: &PreparedLayout,
        host: &HostArrays<MiniSssp>,
        shards: Range<u32>,
        streamed: Option<&Range<usize>>,
    ) -> (KernelStats, Effects) {
        let (retry, mut fault) = (RetryPolicy::NONE, FaultStats::default());
        let (mut master, mut host_writes, mut spills) = (host.src_value.clone(), 0, Vec::new());
        let ((mut res, mut slice), sink) = match streamed {
            None => {
                let up = upload_resident(gpu, &retry, &mut fault, layout, host, shards);
                (up.expect("upload"), None)
            }
            Some(own) => {
                let res = Resident::upload(gpu, &retry, &mut fault, &host.values, 0);
                let via = SpillVia::Host;
                let slice = DeviceSlice::upload(gpu, &retry, &mut fault, layout, host, shards, via);
                let sink = HostMaster {
                    src_value: &mut master,
                    bytes: &mut host_writes,
                    own,
                    spills: &mut spills,
                };
                ((res.expect("upload"), slice.expect("upload")), Some(sink))
            }
        };
        let prog = MiniSssp { source: 0 };
        let name: Arc<str> = "slice-probe".into();
        let launched = slice.launch(
            gpu, &name, 128, &prog, layout, &mut res, sink, &retry, &mut fault,
        );
        let kstats = launched.expect("launch").0;
        slice.take_spills(&mut spills);
        let effects = Effects {
            src_value: slice.src_value.host().to_vec(),
            vertex_values: res.vertex_values.host().to_vec(),
            spills,
            master,
            host_writes,
        };
        (kstats, effects)
    }

    #[test]
    fn a_recording_of_one_slice_is_never_replayed_for_another() {
        // The same shards in a slice that starts elsewhere sit at other
        // buffer offsets and spill other writes: on one device (one replay
        // table) the second slice must record for itself — stage 1 too, as
        // its `VertexValues` window (`voff`) moved with the slice.
        let g = rmat(&RmatConfig::graph500(8, 2500, 5));
        for repr in [Repr::GShards, Repr::ConcatWindows] {
            let layout = PreparedLayout::build(&g, repr, 16);
            let host = HostArrays::new(&MiniSssp { source: 0 }, &g, layout.gs());
            let p = layout.num_shards();
            let mut lone = Gpu::new(DeviceConfig::gtx780());
            let alone = launch_slice(&mut lone, &layout, &host, 1..p, None).0;

            let mut gpu = Gpu::new(DeviceConfig::gtx780());
            launch_slice(&mut gpu, &layout, &host, 0..p, None);
            let (hits, misses, _) = gpu.replay_stats();
            let shifted = launch_slice(&mut gpu, &layout, &host, 1..p, None).0;
            assert_eq!(shifted.counters, alone.counters, "{}", repr.label());
            assert_eq!(shifted.seconds.to_bits(), alone.seconds.to_bits());
            let (hits_after, misses_after, _) = gpu.replay_stats();
            assert_eq!(hits_after, hits, "{}: replayed another slice", repr.label());
            assert!(misses_after > misses);
            // The same slice again is the same key: everything replays.
            let again = launch_slice(&mut gpu, &layout, &host, 1..p, None).0;
            assert_eq!(again.counters, alone.counters);
            assert_eq!(gpu.replay_stats().1, misses_after);
        }
    }

    #[test]
    fn a_replayed_launch_leaves_what_an_interpreted_one_does() {
        // A replayed stage moves its data outside the block ops, straight
        // into the slice and the sink. For every stage-4 sink — none (a
        // whole-graph slice), an outbox, a streamed batch's host master —
        // the launch that replays every stage must leave the same values,
        // spills in the same order and the same PCIe bytes as one
        // interpreted with replay off.
        let g = rmat(&RmatConfig::graph500(8, 2500, 5));
        for repr in [Repr::GShards, Repr::ConcatWindows] {
            let layout = PreparedLayout::build(&g, repr, 16);
            let mut host = HostArrays::new(&MiniSssp { source: 0 }, &g, layout.gs());
            // A mid-run `SrcValue`: nearly every shard updates and writes back.
            for (e, v) in host.src_value.iter_mut().enumerate() {
                *v = (e % 7) as u32;
            }
            let p = layout.num_shards();
            let own = entry_range(layout.gs(), &(1..p));
            for (shards, streamed) in [(0..p, None), (1..p, None), (2..p, Some(&own))] {
                let tag = format!(
                    "{} {shards:?} streamed={}",
                    repr.label(),
                    streamed.is_some()
                );
                let mut gpu = Gpu::new(DeviceConfig::gtx780());
                let recorded = launch_slice(&mut gpu, &layout, &host, shards.clone(), streamed);
                let (_, scopes, _) = gpu.replay_stats();
                let replayed = launch_slice(&mut gpu, &layout, &host, shards.clone(), streamed);
                let (hits, misses, _) = gpu.replay_stats();
                assert_eq!(
                    (hits, misses),
                    (scopes, scopes),
                    "{tag}: not every stage replayed"
                );

                let mut off = DeviceConfig::gtx780();
                off.replay_memo = false;
                let interpreted =
                    launch_slice(&mut Gpu::new(off), &layout, &host, shards.clone(), streamed);
                assert_eq!(replayed.1, interpreted.1, "{tag}");
                assert_eq!(recorded.1, interpreted.1, "{tag}");
                let (on, off) = (&replayed.0, &interpreted.0);
                assert_eq!(on.counters, off.counters, "{tag}");
                assert_eq!(on.seconds.to_bits(), off.seconds.to_bits(), "{tag}");
                // The sinks saw traffic: the comparison is not vacuous.
                let fx = &interpreted.1;
                match (shards.start, streamed) {
                    (0, _) => assert!(fx.spills.is_empty() && fx.host_writes == 0, "{tag}"),
                    (_, None) => assert!(!fx.spills.is_empty(), "{tag}"),
                    (_, Some(_)) => assert!(!fx.spills.is_empty() && fx.host_writes > 0, "{tag}"),
                }
            }
        }
    }
}
