//! Loader robustness: the text and binary graph readers under hostile
//! input — random truncation, single-bit rot, and outright garbage.
//!
//! The contract under test: the readers never panic and never trust a
//! header enough to allocate unbounded memory. For the checksummed binary
//! formats the guarantee is stronger — *every* strict prefix, every
//! single-bit flip and every trailing byte of a well-formed file is rejected
//! with a typed error. Both are checked on a v2 file the v2 writer wrote
//! (`tests/golden/binary_v2_rmat6.bin`, FNV-1a digests) and on the v3 file
//! the current writer makes of the same graph (`WordDigest`s, which change
//! under any single-word difference). A flip in the version field is caught
//! too: 2 and 1 differ in two bits; v3 read as v2 fails the header digest,
//! and v3 read as the digest-less v1 takes the header digest for the first
//! record, whose endpoints are then out of range.

use cusha::graph::generators::rmat::{rmat, RmatConfig};
use cusha::graph::io::{read_binary, read_edge_list, write_binary, write_edge_list, WordDigest};
use cusha::graph::Graph;
use proptest::prelude::*;

/// The small deterministic graph both binary images hold.
fn sample_graph() -> Graph {
    rmat(&RmatConfig::graph500(6, 200, 11))
}

/// The v2 image of [`sample_graph`], as the v2 writer wrote it.
const V2_SAMPLE: &[u8] = include_bytes!("golden/binary_v2_rmat6.bin");

/// A well-formed binary v3 image of [`sample_graph`].
fn sample_binary() -> Vec<u8> {
    let mut bytes = Vec::new();
    write_binary(&sample_graph(), &mut bytes).expect("in-memory write");
    bytes
}

/// Both checksummed images: the v2 fixture and the writer's v3.
fn images() -> [Vec<u8>; 2] {
    [V2_SAMPLE.to_vec(), sample_binary()]
}

/// The same graph as a text edge list.
fn sample_edge_list() -> Vec<u8> {
    let mut bytes = Vec::new();
    write_edge_list(&sample_graph(), &mut bytes).expect("in-memory write");
    bytes
}

/// FNV-1a with the binary format's constants, for hand-forged headers.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every strict prefix of a v2 or v3 file is rejected — there is no cut
    /// point at which a truncated file still reads back as a graph.
    #[test]
    fn truncated_binary_always_errs(cut in any::<usize>()) {
        for bytes in images() {
            let cut = cut % bytes.len(); // 0..len, always a strict prefix
            prop_assert!(
                read_binary(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes parsed as a graph",
                bytes.len()
            );
        }
    }

    /// Every single-bit flip anywhere in a v2 or v3 file is rejected: magic
    /// and version are matched exactly, counts and payload are checksummed,
    /// and the checksums themselves have nothing to agree with when
    /// flipped.
    #[test]
    fn bit_flipped_binary_always_errs(pos in any::<usize>(), bit in 0u8..8) {
        for mut bytes in images() {
            let i = pos % bytes.len();
            bytes[i] ^= 1 << bit;
            prop_assert!(
                read_binary(&bytes[..]).is_err(),
                "flip of bit {bit} at byte {i} went undetected"
            );
        }
    }

    /// Any bytes after the payload digest of a v2 or v3 file are rejected:
    /// the header undercounts the file.
    #[test]
    fn trailing_bytes_binary_always_errs(extra in proptest::collection::vec(any::<u8>(), 1..64)) {
        for mut bytes in images() {
            bytes.extend_from_slice(&extra);
            prop_assert!(read_binary(&bytes[..]).is_err(), "{} trailing bytes accepted", extra.len());
        }
    }

    /// Arbitrary garbage never parses as a binary graph (a forged file
    /// would need the magic, a known version, and two colliding FNV
    /// digests) and, more importantly, never panics or over-allocates.
    #[test]
    fn garbage_binary_always_errs(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        prop_assert!(read_binary(&bytes[..]).is_err());
    }

    /// The text reader returns (Ok or Err) on arbitrary garbage without
    /// panicking — including invalid UTF-8, absurd tokens, and embedded
    /// NULs. Whatever parses must be bounded by the input (a line per
    /// edge), so a small input cannot fabricate a huge graph.
    #[test]
    fn garbage_edge_list_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        if let Ok(g) = read_edge_list(&bytes[..]) {
            prop_assert!((g.num_edges() as usize) <= bytes.len());
        }
    }

    /// A truncated or bit-rotted text edge list never panics. Unlike the
    /// checksummed binary, text truncation at a line boundary can
    /// legitimately parse — but only ever to a subset of the original
    /// edges, never to something larger.
    #[test]
    fn damaged_edge_list_never_panics(
        cut in any::<usize>(),
        flip in any::<bool>(),
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let original = sample_edge_list();
        let edges = {
            let g = read_edge_list(&original[..]).expect("pristine sample");
            g.num_edges()
        };
        let mut bytes = original[..cut % (original.len() + 1)].to_vec();
        if flip && !bytes.is_empty() {
            let i = pos % bytes.len();
            bytes[i] ^= 1 << bit;
        }
        if let Ok(g) = read_edge_list(&bytes[..]) {
            // A flipped digit can change endpoints/weights but cannot
            // add lines; truncation can only lose them.
            prop_assert!(g.num_edges() <= edges, "damage grew the edge count");
        }
    }
}

/// The v2 file the v2 writer wrote reads back as the graph it was written
/// from, and the v3 writer keeps its layout: only the version word and the
/// two digests differ.
#[test]
fn v2_fixture_reads_back_as_the_same_graph() {
    assert_eq!(read_binary(V2_SAMPLE).expect("v2 fixture"), sample_graph());
    let v3 = sample_binary();
    assert_eq!(v3.len(), V2_SAMPLE.len());
    let payload = 24..v3.len() - 8;
    assert_eq!(
        (&v3[8..16], &v3[payload.clone()]),
        (&V2_SAMPLE[8..16], &V2_SAMPLE[payload.clone()])
    );
    assert_eq!(v3[4..8], 3u32.to_le_bytes());
    assert_eq!(
        v3[v3.len() - 8..],
        WordDigest::of(&v3[payload]).to_le_bytes()
    );
}

#[test]
fn hostile_edge_count_does_not_preallocate() {
    // A forged v2 or v3 header claiming u32::MAX edges (48 GiB of records)
    // with a *valid* header checksum must fail on the missing payload —
    // after a capped reservation, not a multi-gigabyte allocation.
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(&4u32.to_le_bytes());
    header[4..].copy_from_slice(&u32::MAX.to_le_bytes());
    for (version, digest) in [(2u32, fnv1a(&header)), (3, WordDigest::of(&header))] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"CUSH");
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&header);
        bytes.extend_from_slice(&digest.to_le_bytes());
        let err = read_binary(&bytes[..]).expect_err("payload-less header must not parse");
        assert!(
            err.to_string().contains("edge #0"),
            "v{version}: should fail at the first missing record, got: {err}"
        );
    }
}

#[test]
fn truncated_v1_binary_still_errs() {
    // The checksum-less v1 format keeps its historical structural checks:
    // a file cut mid-record or short of the claimed count is a parse
    // error, never a panic.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"CUSH");
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&8u32.to_le_bytes()); // n = 8
    bytes.extend_from_slice(&3u32.to_le_bytes()); // m = 3 claimed
    for (s, d, w) in [(0u32, 1u32, 5u32), (1, 2, 7)] {
        bytes.extend_from_slice(&s.to_le_bytes());
        bytes.extend_from_slice(&d.to_le_bytes());
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    bytes.extend_from_slice(&3u32.to_le_bytes()[..2]); // torn third record
    for cut in [bytes.len(), bytes.len() - 2, 13, 8] {
        assert!(
            read_binary(&bytes[..cut]).is_err(),
            "v1 prefix of {cut} bytes parsed as a graph"
        );
    }
}
