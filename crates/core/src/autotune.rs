//! Shard-size selection (paper Section 4, "Selecting shard size").
//!
//! CuSha sizes shards per input graph: it solves the average-window-size
//! formula `|E|·|N|²/|V|² = 32` (one warp) for `|N|`, then clamps the result
//! to the shared-memory quota available to a block — `shared_per_sm /
//! RESIDENT_BLOCKS / sizeof(Vertex)` — and rounds to a warp multiple.

use cusha_simt::DeviceConfig;

/// Target average window size: one full warp.
pub const TARGET_WINDOW: f64 = 32.0;

/// Blocks assumed resident per SM, which share its shared memory: the
/// paper's example (48 KiB per SM, 4-byte values: 6 K vertices a shard).
const RESIDENT_BLOCKS: u32 = 2;

/// Computes the paper's recommended vertices-per-shard `|N|` for a graph of
/// `num_vertices` / `num_edges`, with `vertex_size` bytes per vertex value,
/// on device `cfg`, assuming [`RESIDENT_BLOCKS`] blocks share one SM.
///
/// Degenerate graphs (no edges) get the quota-maximal shard size, since
/// windows are empty anyway.
pub fn select_vertices_per_shard(
    num_vertices: u64,
    num_edges: u64,
    vertex_size: u32,
    cfg: &DeviceConfig,
) -> u32 {
    assert!(vertex_size > 0, "vertex size must be positive");
    let quota_bytes = cfg.shared_mem_per_sm / RESIDENT_BLOCKS;
    let quota_vertices = (quota_bytes / vertex_size).max(32);
    if num_edges == 0 || num_vertices == 0 {
        return round_to_warp(quota_vertices);
    }
    // |N| = |V| * sqrt(32 / |E|).
    let ideal = num_vertices as f64 * (TARGET_WINDOW / num_edges as f64).sqrt();
    let clamped = ideal.clamp(32.0, quota_vertices as f64);
    round_to_warp(clamped as u32)
}

fn round_to_warp(n: u32) -> u32 {
    (n.max(32) / 32) * 32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::windows::expected_window_size;

    #[test]
    fn hits_target_window_size_when_unconstrained() {
        let cfg = DeviceConfig::gtx780();
        // Sparse graph: ideal |N| is small and fits the quota.
        let n = select_vertices_per_shard(1_000_000, 3_000_000, 4, &cfg);
        let w = expected_window_size(3_000_000, 1_000_000, n);
        assert!(
            (w - TARGET_WINDOW).abs() / TARGET_WINDOW < 0.15,
            "window {w} far from target with |N| = {n}"
        );
    }

    #[test]
    fn clamps_to_shared_memory_quota() {
        let cfg = DeviceConfig::gtx780(); // 48 KiB per SM
                                          // Very sparse, very large: ideal |N| would exceed the quota.
        let n = select_vertices_per_shard(100_000_000, 100_000_000, 4, &cfg);
        // Quota: 24 KiB / 4 B = 6144 vertices (the paper's own example).
        assert_eq!(n, 6144);
    }

    #[test]
    fn floors_at_one_warp() {
        let cfg = DeviceConfig::gtx780();
        // Dense graph: ideal |N| < 32 is raised to 32.
        let n = select_vertices_per_shard(1_000, 1_000_000, 4, &cfg);
        assert_eq!(n, 32);
    }

    #[test]
    fn result_is_warp_aligned() {
        let cfg = DeviceConfig::gtx780();
        for (v, e) in [(10_000, 50_000), (123_457, 1_000_003), (64, 64)] {
            let n = select_vertices_per_shard(v, e, 4, &cfg);
            assert_eq!(n % 32, 0, "|N| = {n} not warp aligned");
            assert!(n >= 32);
        }
    }

    #[test]
    fn empty_graph_gets_quota_maximum() {
        let cfg = DeviceConfig::gtx780();
        assert_eq!(select_vertices_per_shard(100, 0, 4, &cfg), 6144);
    }

    #[test]
    fn bigger_vertex_values_shrink_shards() {
        let cfg = DeviceConfig::gtx780();
        let small = select_vertices_per_shard(100_000_000, 100_000_000, 4, &cfg);
        let big = select_vertices_per_shard(100_000_000, 100_000_000, 8, &cfg);
        assert_eq!(big * 2, small);
    }
}
