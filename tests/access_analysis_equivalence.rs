//! The simulator's scattered-access analysis (`CoalesceMemo`: bitset passes,
//! O(active lanes)) against its references, bit for bit: the sort-based
//! `coalesce` / `bank_conflicts` and an O(n²) same-target scan. Every
//! paper-facing transaction count goes through this analysis, so the fast
//! form may never disagree with the slow one — on any mask, any address
//! set, any geometry — and must leave its scratch zeroed behind it.

use cusha::simt::coalesce::{bank_conflicts, coalesce};
use cusha::simt::{CoalesceMemo, DeviceConfig, Gpu, KernelDesc, Mask, Pod, WARP};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// `(segment, sector, banks, bank width)`: the two presets, other fast-form
/// geometries (one sector per segment, 64 sectors per segment, narrow and
/// wide banks), and ones outside it that must take the sort-based fallback:
/// 128 sectors per segment, a sector wider than its segment, and
/// non-power-of-two bank counts and widths.
fn geometries() -> Vec<(u32, u32, u32, u32)> {
    let of = |d: DeviceConfig| {
        (
            d.segment_bytes,
            d.sector_bytes,
            d.shared_banks,
            d.bank_width_bytes,
        )
    };
    vec![
        of(DeviceConfig::gtx780()),
        of(DeviceConfig::tiny_test()),
        (32, 32, 16, 8),
        (2048, 32, 8, 2),
        (64, 16, 32, 4),
        (4096, 32, 24, 4),
        (32, 64, 32, 12),
    ]
}

/// Lane addresses drawn around `base` within `window` bytes, element-aligned
/// or not. Small windows force duplicates and shared sectors; unaligned wide
/// elements straddle sectors and segments; a base of 2^40 is far past the
/// scratch cap.
fn lane_addresses() -> impl Strategy<Value = [u64; WARP]> {
    (
        proptest::collection::vec(any::<u64>(), WARP),
        0usize..6,
        0usize..3,
        any::<bool>(),
    )
        .prop_map(|(raw, window, base, aligned)| {
            let window = [8u64, 96, 640, 4096, 1 << 16, 1 << 24][window];
            let base = [0u64, 4093, 1 << 40][base];
            let mut out = [0u64; WARP];
            for (o, r) in out.iter_mut().zip(raw) {
                let off = r % window;
                *o = base + if aligned { off & !7 } else { off };
            }
            out
        })
}

fn some_lanes<T: Copy>(mask: Mask, per_lane: impl Fn(usize) -> T) -> [Option<T>; WARP] {
    let mut out = [None; WARP];
    for l in mask.iter() {
        out[l] = Some(per_lane(l));
    }
    out
}

/// Lanes whose target an earlier active lane already hit.
fn quadratic_collisions<T: PartialEq>(mask: Mask, target: impl Fn(usize) -> T) -> u32 {
    mask.iter()
        .filter(|&l| {
            mask.iter()
                .take_while(|&k| k < l)
                .any(|k| target(k) == target(l))
        })
        .count() as u32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn global_analysis_equals_the_sort_based_reference(
        bits in any::<u32>(),
        addrs in lane_addresses(),
        elem in 0usize..5,
    ) {
        let mask = Mask(bits);
        let len = [1u32, 2, 4, 8, 16][elem];
        for (segment, sector, banks, width) in geometries() {
            let mut core = CoalesceMemo::new(segment, sector, banks, width);
            let lanes = some_lanes(mask, |l| (addrs[l], len));
            let want = coalesce(&lanes, segment, sector);
            // Twice: the second call runs on grown, used scratch.
            for _ in 0..2 {
                prop_assert_eq!(core.global(mask, &addrs, len), want);
                prop_assert!(core.scratch_is_clear());
            }
            prop_assert_eq!(core.coalesce(&lanes), want);
            prop_assert!(core.scratch_is_clear());
            prop_assert_eq!(core.hit_stats(), (0, 3));
        }
    }

    #[test]
    fn mixed_width_lanes_equal_the_reference(
        bits in any::<u32>(),
        addrs in lane_addresses(),
        widths in proptest::collection::vec(0usize..4, WARP),
    ) {
        let mask = Mask(bits);
        let lanes = some_lanes(mask, |l| (addrs[l], [1u32, 2, 4, 8][widths[l]]));
        let mut core = CoalesceMemo::new(128, 32, 32, 4);
        prop_assert_eq!(core.coalesce(&lanes), coalesce(&lanes, 128, 32));
        prop_assert!(core.scratch_is_clear());
    }

    #[test]
    fn shared_analysis_equals_the_references(
        bits in any::<u32>(),
        addrs in lane_addresses(),
        elem in 0usize..4,
    ) {
        let mask = Mask(bits);
        let elem = [1u32, 2, 4, 8][elem];
        // Shared elements are element-aligned, as `SharedVec::addr` makes them.
        let addrs = addrs.map(|a| a / elem as u64 * elem as u64);
        for (segment, sector, banks, width) in geometries() {
            let mut core = CoalesceMemo::new(segment, sector, banks, width);
            let want = bank_conflicts(&some_lanes(mask, |l| addrs[l]), banks, width);
            let collisions = quadratic_collisions(mask, |l| addrs[l]);
            for _ in 0..2 {
                prop_assert_eq!(core.shared(mask, &addrs), want);
                prop_assert!(core.scratch_is_clear());
                prop_assert_eq!(core.atomic(mask, &addrs, elem), (want, collisions));
                prop_assert!(core.scratch_is_clear());
            }
        }
    }

    #[test]
    fn supdate_counts_equal_the_quadratic_reference(
        bits in any::<u32>(),
        idxs in proptest::collection::vec(0usize..96, WARP),
    ) {
        fn check<T: Pod>(mask: Mask, idxs: &[usize]) -> Result<(), TestCaseError> {
            let cfg = DeviceConfig::gtx780();
            let (banks, width) = (cfg.shared_banks, cfg.bank_width_bytes);
            let mut gpu = Gpu::new(cfg);
            let mut hit = [0u32; 96];
            let stats = gpu.launch(&KernelDesc::new("atomic", 1, 32), |b| {
                let mut sh = b.shared_alloc::<T>(96);
                b.supdate(&mut sh, mask, |l| idxs[l], |l, _| hit[idxs[l]] += 1 << l);
            });
            // Every active lane applied exactly once, to its own target.
            for (i, &h) in hit.iter().enumerate() {
                let want: u32 = mask.iter().filter(|&l| idxs[l] == i).map(|l| 1 << l).sum();
                prop_assert_eq!(h, want);
            }
            let collisions = quadratic_collisions(mask, |l| idxs[l]);
            let lanes = some_lanes(mask, |l| (idxs[l] * T::SIZE as usize) as u64);
            let replays = bank_conflicts(&lanes, banks, width);
            prop_assert_eq!(stats.counters.atomic_replays, collisions as u64);
            prop_assert_eq!(stats.counters.bank_conflict_replays, replays as u64);
            prop_assert_eq!(
                stats.counters.warp_instructions,
                1 + (collisions + replays) as u64
            );
            Ok(())
        }
        let mask = Mask(bits);
        check::<u8>(mask, &idxs)?;
        check::<u16>(mask, &idxs)?;
        check::<u32>(mask, &idxs)?;
        check::<f64>(mask, &idxs)?;
    }
}
