//! Representation-footprint model (paper Figure 9).
//!
//! Figure 9 compares device memory occupied by CSR, G-Shards and CW per
//! input graph across the eight benchmarks. The byte counts depend on the
//! benchmark through `sizeof(Vertex)`, `sizeof(Edge)` and
//! `sizeof(StaticVertex)`; this module centralizes the arithmetic so the
//! harness and the engine account identically — including the engines'
//! pre-flights, [`check_fits`] and [`check_streams`]: a graph whose modeled
//! footprint the device cannot hold is refused before the host builds
//! anything for it.

use crate::engine::Repr;
use crate::error::EngineError;
use crate::program::VertexProgram;
use cusha_simt::{DeviceConfig, Pod};

/// Value sizes of one benchmark (bytes; 0 when the array is absent).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValueSizes {
    /// `sizeof(Vertex)`.
    pub vertex: u32,
    /// `sizeof(Edge)`, 0 if the benchmark has no edge values.
    pub edge: u32,
    /// `sizeof(StaticVertex)`, 0 if unused.
    pub static_vertex: u32,
}

impl ValueSizes {
    /// The sizes of the values program `P` moves.
    pub fn of<P: VertexProgram>() -> Self {
        let present = |has: bool, size: u32| if has { size } else { 0 };
        ValueSizes {
            vertex: <P::V as Pod>::SIZE,
            edge: present(P::HAS_EDGE_VALUES, <P::E as Pod>::SIZE),
            static_vertex: present(P::HAS_STATIC_VALUES, <P::SV as Pod>::SIZE),
        }
    }
}

/// Index width used throughout (u32).
pub const INDEX_BYTES: u64 = 4;

/// Bytes one shard entry occupies on the device: the `(SrcIndex, SrcValue,
/// EdgeValue, DestIndex)` tuple, the static source value, and under CW the
/// `Mapper` cell — what the footprint formulas charge per edge and what the
/// streamed mode's planner budgets batches with.
pub fn entry_bytes(s: ValueSizes, repr: Repr) -> u64 {
    let mapper = match repr {
        Repr::GShards => 0,
        Repr::ConcatWindows => INDEX_BYTES,
    };
    2 * INDEX_BYTES + s.vertex as u64 + s.edge as u64 + s.static_vertex as u64 + mapper
}

/// Bytes occupied by the CSR representation: `VertexValues` +
/// `InEdgeIdxs` + `SrcIndxs` + `EdgeValues` (+ static values if used).
pub fn csr_bytes(v: u64, e: u64, s: ValueSizes) -> u64 {
    v * s.vertex as u64
        + (v + 1) * INDEX_BYTES
        + e * INDEX_BYTES
        + e * s.edge as u64
        + v * s.static_vertex as u64
}

/// Bytes occupied by G-Shards: `VertexValues` plus per-entry
/// `(SrcIndex, SrcValue, EdgeValue, DestIndex)` tuples (+ per-entry static
/// source values), plus shard/window offset tables.
pub fn gshards_bytes(v: u64, e: u64, num_shards: u64, s: ValueSizes) -> u64 {
    // The p² window table saturates: a shard size of 1 on a 2³²-vertex graph
    // is input a user can type.
    let windows = num_shards.saturating_mul(num_shards);
    (v * s.vertex as u64 + e * entry_bytes(s, Repr::GShards) + (num_shards + 1) * INDEX_BYTES)
        .saturating_add(windows.saturating_mul(INDEX_BYTES))
}

/// Bytes occupied by Concatenated Windows: G-Shards plus the `Mapper`
/// column (the `SrcIndex` column is the same size, just reordered) and the
/// per-shard CW offsets.
pub fn cw_bytes(v: u64, e: u64, num_shards: u64, s: ValueSizes) -> u64 {
    gshards_bytes(v, e, num_shards, s).saturating_add((e + num_shards + 1) * INDEX_BYTES)
}

/// The engines' pre-flight: refuses a graph of `v` vertices and `e` edges
/// whose footprint exceeds the device's memory with the error its uploads
/// would end in — G-Shards / CW at `(repr, vertices per shard)` when `shards`
/// is given, CSR otherwise — before the host allocates the |V|- and p²-sized
/// tables of that representation; then a shard size whose stage-1 array one
/// block cannot hold. A graph that fits is not touched.
pub fn check_fits<V>(
    v: u64,
    e: u64,
    s: ValueSizes,
    shards: Option<(Repr, u32)>,
    device: &DeviceConfig,
) -> Result<(), EngineError<V>> {
    let requested_bytes = match shards {
        None => csr_bytes(v, e, s),
        Some((Repr::GShards, n)) => gshards_bytes(v, e, v.div_ceil(n.max(1) as u64), s),
        Some((Repr::ConcatWindows, n)) => cw_bytes(v, e, v.div_ceil(n.max(1) as u64), s),
    };
    refuse_over(requested_bytes, device)?;
    shards.map_or(Ok(()), |(_, n)| check_shard_block(v, n, s, device))
}

/// The out-of-core engines' pre-flight (the fleet's, and with one device the
/// streamed engine's): what streaming cannot shrink — a device's share of
/// `VertexValues` plus the shard/window offset tables of the whole layout,
/// the footprint at `e = 0` — must fit one device, and a shard one block.
/// Refused like [`check_fits`], before anything |V|- or p²-sized is built.
pub fn check_streams<V>(
    v: u64,
    devices: u64,
    s: ValueSizes,
    (repr, n): (Repr, u32),
    device: &DeviceConfig,
) -> Result<(), EngineError<V>> {
    let p = v.div_ceil(n.max(1) as u64);
    let tables = match repr {
        Repr::GShards => gshards_bytes(0, 0, p, s),
        Repr::ConcatWindows => cw_bytes(0, 0, p, s),
    };
    let share = v.div_ceil(devices.max(1)) * s.vertex as u64;
    refuse_over(tables.saturating_add(share), device)?;
    check_shard_block(v, n, s, device)
}

/// Refuses a shard size whose stage-1 array — one shard's `min(|N|, |V|)`
/// vertex values, in one block's shared memory — the device cannot hold, as
/// the typed [`EngineError::InvalidConfig`] of a block it cannot launch.
pub(crate) fn check_shard_block<V>(
    v: u64,
    n: u32,
    s: ValueSizes,
    device: &DeviceConfig,
) -> Result<(), EngineError<V>> {
    let stage1 = (n as u64).min(v) * s.vertex as u64;
    device
        .check_block(0, stage1)
        .map_err(EngineError::InvalidConfig)
}

fn refuse_over<V>(requested_bytes: u64, device: &DeviceConfig) -> Result<(), EngineError<V>> {
    let capacity_bytes = device.global_mem_bytes;
    if requested_bytes <= capacity_bytes {
        return Ok(());
    }
    Err(EngineError::DeviceOom {
        requested_bytes,
        capacity_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SSSP: ValueSizes = ValueSizes {
        vertex: 4,
        edge: 4,
        static_vertex: 0,
    };
    const PR: ValueSizes = ValueSizes {
        vertex: 4,
        edge: 0,
        static_vertex: 4,
    };

    #[test]
    fn csr_matches_paper_formula() {
        // n=8, m=9, 4B vertex, 4B edge: 32 + 36 + 36 + 36 = 140.
        assert_eq!(csr_bytes(8, 9, SSSP), 140);
    }

    #[test]
    fn gshards_overhead_close_to_paper_estimate() {
        // Paper: GS adds ~ (|E|-|V|)*sizeof(Vertex) + |E|*sizeof(index)
        // over CSR. Check within the small offset-table slack.
        let (v, e, p) = (100_000u64, 1_000_000u64, 16u64);
        let overhead = gshards_bytes(v, e, p, SSSP) as i64 - csr_bytes(v, e, SSSP) as i64;
        let paper_estimate = ((e - v) * SSSP.vertex as u64 + e * INDEX_BYTES) as i64;
        let slack = (p * p + p + 1) as i64 * INDEX_BYTES as i64 + (v as i64 + 1) * 4;
        assert!(
            (overhead - paper_estimate).abs() <= slack,
            "overhead {overhead} vs paper estimate {paper_estimate}"
        );
    }

    #[test]
    fn cw_adds_one_index_per_edge() {
        let (v, e, p) = (1000u64, 10_000u64, 8u64);
        let diff = cw_bytes(v, e, p, SSSP) - gshards_bytes(v, e, p, SSSP);
        assert_eq!(diff, e * INDEX_BYTES + (p + 1) * INDEX_BYTES);
    }

    #[test]
    fn ratios_in_paper_ballpark() {
        // Paper: GS ≈ 2.09x CSR, CW ≈ 2.58x CSR on average (Figure 9 also
        // shows per-benchmark maxima well above the average). For a
        // LiveJournal-like shape, SSSP sits near 2x and PR (which carries a
        // per-entry static value) near the upper end.
        let (v, e, p) = (4_847_571u64, 68_993_773u64, 256u64);
        let ratio_sssp = gshards_bytes(v, e, p, SSSP) as f64 / csr_bytes(v, e, SSSP) as f64;
        assert!(
            (1.5..2.6).contains(&ratio_sssp),
            "GS/SSSP ratio {ratio_sssp}"
        );
        for s in [SSSP, PR] {
            let ratio = gshards_bytes(v, e, p, s) as f64 / csr_bytes(v, e, s) as f64;
            assert!((1.5..3.6).contains(&ratio), "GS ratio {ratio}");
            let ratio_cw = cw_bytes(v, e, p, s) as f64 / csr_bytes(v, e, s) as f64;
            assert!(ratio_cw > ratio);
            assert!(ratio_cw < 4.5, "CW ratio {ratio_cw}");
        }
    }

    #[test]
    fn value_sizes_and_entry_bytes_follow_the_program() {
        use crate::program::testing::MiniSssp;
        let sssp = ValueSizes::of::<MiniSssp>();
        assert_eq!(sssp, SSSP, "u32 distances, u32 weights, no static values");
        // (SrcIndex, SrcValue, EdgeValue, DestIndex) = 16 B; CW adds the Mapper.
        assert_eq!(entry_bytes(SSSP, Repr::GShards), 16);
        assert_eq!(entry_bytes(SSSP, Repr::ConcatWindows), 20);
        assert_eq!(
            entry_bytes(PR, Repr::GShards),
            16,
            "a static value per entry"
        );
    }

    #[test]
    fn check_fits_is_the_footprint_against_the_device() {
        let device = DeviceConfig::gtx780();
        let cap = device.global_mem_bytes;
        let fits = |v, e, shards| check_fits::<u32>(v, e, SSSP, shards, &device);
        // A million-edge graph fits under every representation.
        for shards in [
            None,
            Some((Repr::GShards, 6144)),
            Some((Repr::ConcatWindows, 6144)),
        ] {
            assert!(fits(100_000, 1_000_000, shards).is_ok(), "{shards:?}");
        }
        // The boundary is the formula's value, to the byte.
        let v = (cap - 4) / 8; // csr_bytes(v, 0, SSSP) = 8 v + 4
        assert!(fits(v, 0, None).is_ok());
        let refused = fits(v + 1, 0, None).unwrap_err();
        assert!(
            matches!(refused, EngineError::DeviceOom { requested_bytes, capacity_bytes }
                if requested_bytes == csr_bytes(v + 1, 0, SSSP) && capacity_bytes == cap),
            "{refused}"
        );
        // One edge to vertex four billion: |V| values and a p x p table.
        for repr in [Repr::GShards, Repr::ConcatWindows] {
            assert!(
                fits(4_000_000_001, 1, Some((repr, 6144))).is_err(),
                "{repr:?}"
            );
            assert!(
                fits(300_000_001, 1, Some((repr, 6144))).is_err(),
                "{repr:?}"
            );
        }
        assert!(fits(4_000_000_001, 1, None).is_err());
        assert!(
            fits(300_000_001, 1, None).is_ok(),
            "2.4 GB of CSR fits 3 GiB"
        );
        // A shard size of 1 (or 0) on 2^32 vertices saturates instead of wrapping.
        assert_eq!(gshards_bytes(1 << 32, 0, 1 << 32, SSSP), u64::MAX);
        assert_eq!(cw_bytes(1 << 32, 0, 1 << 32, SSSP), u64::MAX);
        assert!(fits(1 << 32, 0, Some((Repr::GShards, 1))).is_err());
        assert!(fits(1 << 32, 0, Some((Repr::ConcatWindows, 0))).is_err());
    }

    #[test]
    fn check_streams_is_what_no_batching_can_shrink() {
        let device = DeviceConfig::gtx780();
        let cap = device.global_mem_bytes;
        let streams = |v, devices, shards| check_streams::<u32>(v, devices, SSSP, shards, &device);
        for repr in [Repr::GShards, Repr::ConcatWindows] {
            // Edges are not in it: a graph `check_fits` refuses for its entry
            // arrays streams.
            assert!(
                check_fits::<u32>(100_000, 1 << 30, SSSP, Some((repr, 6144)), &device).is_err()
            );
            assert!(streams(100_000, 1, (repr, 6144)).is_ok(), "{repr:?}");
            // One edge to vertex four billion, in million-vertex shards: 16 GB
            // of values on one device, 8 GB each on two; sixty-four devices
            // hold their 250 MB shares, but no block holds a million-vertex
            // shard's values (the memory check comes first).
            for devices in [1, 2] {
                let refused = streams(4_000_000_001, devices, (repr, 1 << 20)).unwrap_err();
                assert!(
                    matches!(refused, EngineError::DeviceOom { requested_bytes, capacity_bytes }
                        if requested_bytes > 4_000_000_001 * 4 / devices && capacity_bytes == cap),
                    "{refused}"
                );
            }
            let blocked = streams(4_000_000_001, 64, (repr, 1 << 20)).unwrap_err();
            assert!(
                matches!(blocked, EngineError::InvalidConfig(_)),
                "{blocked}"
            );
            // The p x p table is every device's, whatever its share: 1.7 TB
            // at the autotuner's shard size.
            assert!(
                streams(4_000_000_001, 64, (repr, 6144)).is_err(),
                "{repr:?}"
            );
            assert!(streams(1 << 20, 64, (repr, 16)).is_err(), "{repr:?}");
            assert!(streams(1 << 32, 64, (repr, 1)).is_err(), "{repr:?}");
        }
        // The boundary is the formula's value, to the byte: values, p + 1
        // shard offsets, p x p window offsets.
        let (v, p) = (1u64 << 20, (1u64 << 20) / 64);
        let mut exact = device.clone();
        exact.global_mem_bytes = 4 * v + 4 * (p + 1) + 4 * p * p;
        assert!(check_streams::<u32>(v, 1, SSSP, (Repr::GShards, 64), &exact).is_ok());
        exact.global_mem_bytes -= 1;
        assert!(check_streams::<u32>(v, 1, SSSP, (Repr::GShards, 64), &exact).is_err());
    }
}
