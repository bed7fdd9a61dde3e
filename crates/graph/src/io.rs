//! Graph de/serialization.
//!
//! Two formats:
//!
//! * **Text edge list** — the SNAP interchange format the paper's inputs ship
//!   in: one `src dst [weight]` triple per line, `#`-prefixed comment lines
//!   ignored. A missing weight defaults to 1.
//! * **Binary** — a compact little-endian format (`CUSH` magic, version,
//!   counts, then packed `(src, dst, weight)` triples) for fast reloads of
//!   generated surrogates. Version 2 (the write format) appends an FNV-1a
//!   checksum to the header section and to the edge payload and requires
//!   the file to end exactly after the payload checksum, so truncated or
//!   bit-rotted files fail with a typed [`IoError::Corrupt`] instead of
//!   silently building a wrong graph. Version 1 files remain readable.

use crate::builder::GraphBuilder;
use crate::types::{Edge, Graph};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"CUSH";
/// The version written by [`write_binary`]. [`read_binary`] also accepts
/// the checksum-less v1.
const VERSION: u32 = 2;

/// Errors produced by graph IO.
#[derive(Debug)]
pub enum IoError {
    /// Underlying IO failure.
    Io(io::Error),
    /// Malformed input; the string describes line/offset and cause.
    Parse(String),
    /// A binary v2 file failed a section checksum, ended early, or carries
    /// trailing bytes — the payload does not match what was written.
    Corrupt(String),
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse(m) => write!(f, "parse error: {m}"),
            IoError::Corrupt(m) => write!(f, "corrupt input: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

/// Streaming byte-wise FNV-1a (64-bit): the per-section digest of the binary
/// v2 format and the per-record checksum of the service's write-ahead log.
/// Both are on-disk formats, so the digests are pinned by a unit test.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The digest of everything folded in so far.
    pub fn finish(self) -> u64 {
        self.0
    }

    /// The digest of `bytes` alone.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::default();
        h.update(bytes);
        h.finish()
    }
}

/// Parses a text edge list from a reader. Lines are read into one reused
/// buffer; a line that is not UTF-8 is malformed input ([`IoError::Parse`]),
/// not an IO failure.
pub fn read_edge_list<R: Read>(reader: R) -> Result<Graph, IoError> {
    let mut reader = BufReader::new(reader);
    let mut builder = GraphBuilder::new();
    let mut buf = Vec::new();
    for lineno in 1.. {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        let line = std::str::from_utf8(&buf)
            .map_err(|e| IoError::Parse(format!("line {lineno}: not UTF-8: {e}")))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>, what: &str| -> Result<u32, IoError> {
            tok.ok_or_else(|| IoError::Parse(format!("line {lineno}: missing {what}")))?
                .parse::<u32>()
                .map_err(|e| IoError::Parse(format!("line {lineno}: bad {what}: {e}")))
        };
        let src = parse(it.next(), "source")?;
        let dst = parse(it.next(), "destination")?;
        let weight = match it.next() {
            Some(tok) => tok
                .parse::<u32>()
                .map_err(|e| IoError::Parse(format!("line {lineno}: bad weight: {e}")))?,
            None => 1,
        };
        if it.next().is_some() {
            return Err(IoError::Parse(format!("line {lineno}: trailing tokens")));
        }
        builder.add_edge(src, dst, weight);
    }
    Ok(builder.build())
}

/// Writes a text edge list (with weights) to a writer.
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# cusha edge list: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for e in g.edges() {
        writeln!(w, "{} {} {}", e.src, e.dst, e.weight)?;
    }
    w.flush()?;
    Ok(())
}

/// Loads a text edge list from a file path.
pub fn load_edge_list(path: impl AsRef<Path>) -> Result<Graph, IoError> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Saves a text edge list to a file path.
pub fn save_edge_list(g: &Graph, path: impl AsRef<Path>) -> Result<(), IoError> {
    write_edge_list(g, std::fs::File::create(path)?)
}

/// Writes the compact binary format (v2: checksummed sections).
///
/// Layout: `CUSH` magic, version, then the header section (`n`, `m`,
/// FNV-1a of those 8 bytes) and the payload section (`m` packed
/// `(src, dst, weight)` records, FNV-1a of all payload bytes). Nothing
/// may follow the payload checksum.
pub fn write_binary<W: Write>(g: &Graph, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(&g.num_vertices().to_le_bytes());
    header[4..].copy_from_slice(&g.num_edges().to_le_bytes());
    w.write_all(&header)?;
    w.write_all(&Fnv1a::of(&header).to_le_bytes())?;
    let mut crc = Fnv1a::default();
    for e in g.edges() {
        let mut record = [0u8; EDGE_RECORD_BYTES];
        record[..4].copy_from_slice(&e.src.to_le_bytes());
        record[4..8].copy_from_slice(&e.dst.to_le_bytes());
        record[8..].copy_from_slice(&e.weight.to_le_bytes());
        crc.update(&record);
        w.write_all(&record)?;
    }
    w.write_all(&crc.finish().to_le_bytes())?;
    w.flush()?;
    Ok(())
}

/// Bytes per serialized edge record: `(src, dst, weight)` as `u32` each.
const EDGE_RECORD_BYTES: usize = 12;

/// Upper bound on the edge capacity reserved up front from an untrusted
/// header (16 MiB of records). A header claiming more edges than this gets
/// its vector grown incrementally instead, so a corrupt or hostile `m`
/// cannot force a multi-gigabyte allocation before the payload proves it is
/// actually that long.
const MAX_TRUSTED_CAPACITY: usize = (16 << 20) / EDGE_RECORD_BYTES;

/// Reads the compact binary format (v1 or v2).
///
/// The header's claimed counts are treated as untrusted: the edge vector's
/// up-front reservation is capped (a corrupt `m` cannot trigger an
/// allocation the payload never backs), and a payload shorter than `m`
/// records yields a typed error naming the truncation point rather than a
/// bare EOF. For v2 files the header and payload checksums are verified
/// and the file must end exactly after the payload checksum; any mismatch,
/// short section, or trailing byte is [`IoError::Corrupt`]. v1 files carry
/// no checksums, so only structural defects are detectable there
/// ([`IoError::Parse`], the historical behavior).
pub fn read_binary<R: Read>(reader: R) -> Result<Graph, IoError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)
        .map_err(|e| truncated("magic", e))?;
    if &magic != MAGIC {
        return Err(IoError::Parse("bad magic".into()));
    }
    let mut buf4 = [0u8; 4];
    let mut read_u32 = |r: &mut BufReader<R>, what: &str| -> Result<u32, IoError> {
        r.read_exact(&mut buf4).map_err(|e| truncated(what, e))?;
        Ok(u32::from_le_bytes(buf4))
    };
    let version = read_u32(&mut r, "version")?;
    if version != 1 && version != VERSION {
        return Err(IoError::Parse(format!("unsupported version {version}")));
    }
    let checked = version >= 2;
    // In a checksummed file a short read means the file was cut after the
    // writer started — corruption, not a parse-shaped input.
    let short = |what: &str, e: io::Error| -> IoError {
        if checked && e.kind() == io::ErrorKind::UnexpectedEof {
            IoError::Corrupt(format!("truncated input while reading {what}"))
        } else {
            truncated(what, e)
        }
    };
    let mut header = [0u8; 8];
    r.read_exact(&mut header)
        .map_err(|e| short("header counts", e))?;
    let n = u32::from_le_bytes(header[..4].try_into().unwrap());
    let m = u32::from_le_bytes(header[4..].try_into().unwrap());
    if checked {
        let mut crc = [0u8; 8];
        r.read_exact(&mut crc)
            .map_err(|e| short("header checksum", e))?;
        if u64::from_le_bytes(crc) != Fnv1a::of(&header) {
            return Err(IoError::Corrupt(
                "header checksum mismatch (vertex/edge counts are damaged)".into(),
            ));
        }
    }
    let mut edges = Vec::with_capacity((m as usize).min(MAX_TRUSTED_CAPACITY));
    let mut payload_crc = Fnv1a::default();
    for i in 0..m {
        let mut record = [0u8; EDGE_RECORD_BYTES];
        r.read_exact(&mut record)
            .map_err(|e| short(&format!("edge #{i} of {m} claimed by the header"), e))?;
        payload_crc.update(&record);
        let word = |k: usize| u32::from_le_bytes(record[4 * k..4 * k + 4].try_into().unwrap());
        let (src, dst, weight) = (word(0), word(1), word(2));
        if src >= n || dst >= n {
            let msg = format!("edge #{i} ({src} -> {dst}) out of range for {n} vertices");
            // Under v2 an out-of-range edge is indistinguishable from bit
            // rot until the payload checksum settles it; report it as the
            // corruption it almost certainly is.
            return Err(if checked {
                IoError::Corrupt(msg)
            } else {
                IoError::Parse(msg)
            });
        }
        edges.push(Edge::new(src, dst, weight));
    }
    if checked {
        let mut crc = [0u8; 8];
        r.read_exact(&mut crc)
            .map_err(|e| short("payload checksum", e))?;
        if u64::from_le_bytes(crc) != payload_crc.finish() {
            return Err(IoError::Corrupt(format!(
                "payload checksum mismatch over {m} edge records"
            )));
        }
        // Explicit end-of-file length check: a well-formed v2 file ends
        // here; trailing bytes mean the header undercounts the payload.
        let mut one = [0u8; 1];
        match r.read_exact(&mut one) {
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {}
            Ok(()) => {
                return Err(IoError::Corrupt(
                    "trailing bytes after payload checksum (header undercounts the file)".into(),
                ))
            }
            Err(e) => return Err(IoError::Io(e)),
        }
    }
    Graph::try_new(n, edges).map_err(|e| IoError::Parse(e.to_string()))
}

/// Maps a short read to [`IoError::Parse`] (a truncated file is malformed
/// input, not an environment failure); other IO errors pass through.
fn truncated(what: &str, e: io::Error) -> IoError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        IoError::Parse(format!("truncated input while reading {what}"))
    } else {
        IoError::Io(e)
    }
}

/// Loads the compact binary format from a file path.
pub fn load_binary(path: impl AsRef<Path>) -> Result<Graph, IoError> {
    read_binary(std::fs::File::open(path)?)
}

/// Saves the compact binary format to a file path.
pub fn save_binary(g: &Graph, path: impl AsRef<Path>) -> Result<(), IoError> {
    write_binary(g, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi;

    /// On-disk v2 graph files and the service's WAL records carry these
    /// digests; the three below were computed before the four hand-written
    /// copies of the loop became [`Fnv1a`], so files written then still read.
    #[test]
    fn fnv1a_digests_are_pinned() {
        assert_eq!(Fnv1a::of(&[]), 0xcbf2_9ce4_8422_2325);
        let g = Graph::new(
            4,
            vec![Edge::new(0, 1, 5), Edge::new(1, 2, 7), Edge::new(3, 0, 9)],
        );
        let mut file = Vec::new();
        write_binary(&g, &mut file).unwrap();
        let (header, payload) = (&file[8..16], &file[24..file.len() - 8]);
        assert_eq!(Fnv1a::of(header), 0xccd7_8816_5292_cdd2);
        assert_eq!(file[16..24], 0xccd7_8816_5292_cdd2u64.to_le_bytes());
        assert_eq!(
            file[file.len() - 8..],
            0xaa60_d187_45ad_40efu64.to_le_bytes()
        );
        // Streaming in pieces is the same digest.
        let mut pieces = Fnv1a::default();
        payload.chunks(5).for_each(|chunk| pieces.update(chunk));
        assert_eq!(pieces.finish(), 0xaa60_d187_45ad_40ef);
    }

    #[test]
    fn text_round_trip() {
        let g = erdos_renyi(50, 200, 3);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g.num_edges(), back.num_edges());
        assert_eq!(g.edges(), back.edges());
    }

    #[test]
    fn text_parses_comments_and_default_weight() {
        let input = "# header\n\n0 1\n1 2 9\n";
        let g = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge(0).weight, 1);
        assert_eq!(g.edge(1).weight, 9);
    }

    #[test]
    fn text_rejects_garbage() {
        assert!(matches!(
            read_edge_list("0 x\n".as_bytes()),
            Err(IoError::Parse(_))
        ));
        assert!(matches!(
            read_edge_list("0\n".as_bytes()),
            Err(IoError::Parse(_))
        ));
        assert!(matches!(
            read_edge_list("0 1 2 3\n".as_bytes()),
            Err(IoError::Parse(_))
        ));
    }

    /// A line that is not UTF-8 is malformed input naming its line, like any
    /// other bad token — not an IO failure; the lines around it still parse.
    #[test]
    fn text_rejects_non_utf8_line_as_parse_error() {
        let input = b"0 1\n1 \xff2\n2 3\n";
        match read_edge_list(&input[..]) {
            Err(IoError::Parse(msg)) => assert!(msg.starts_with("line 2: "), "{msg}"),
            other => panic!("expected Parse(line 2), got {other:?}"),
        }
        // CRLF endings and a last line without a newline still parse.
        let g = read_edge_list(&b"# c\r\n0 1 4\r\n1 2"[..]).unwrap();
        assert_eq!(g.edges(), &[Edge::new(0, 1, 4), Edge::new(1, 2, 1)]);
        // Existing messages keep their line numbers.
        match read_edge_list(&b"0 1\n\n0 1 2 3\n"[..]) {
            Err(IoError::Parse(msg)) => assert_eq!(msg, "line 3: trailing tokens"),
            other => panic!("expected Parse(trailing), got {other:?}"),
        }
    }

    #[test]
    fn binary_round_trip() {
        let g = erdos_renyi(64, 333, 4);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn binary_rejects_corruption() {
        let g = erdos_renyi(8, 10, 5);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf[0] = b'X';
        assert!(matches!(read_binary(&buf[..]), Err(IoError::Parse(_))));
        // A truncated v2 payload is typed corruption, not an IO failure.
        let mut buf2 = Vec::new();
        write_binary(&g, &mut buf2).unwrap();
        buf2.truncate(buf2.len() - 10);
        match read_binary(&buf2[..]) {
            Err(IoError::Corrupt(msg)) => {
                assert!(msg.contains("truncated"), "{msg}");
                assert!(msg.contains("edge #9"), "{msg}");
            }
            other => panic!("expected Corrupt(truncated), got {other:?}"),
        }
        // Truncation inside the header is also typed corruption.
        let mut buf3 = Vec::new();
        write_binary(&g, &mut buf3).unwrap();
        buf3.truncate(10);
        assert!(matches!(read_binary(&buf3[..]), Err(IoError::Corrupt(_))));
    }

    #[test]
    fn binary_v2_catches_single_bit_rot_everywhere() {
        let g = erdos_renyi(16, 40, 9);
        let mut clean = Vec::new();
        write_binary(&g, &mut clean).unwrap();
        // Flip one bit at every byte position past the magic; every flip
        // must surface as a typed error (version/corrupt), never a wrong
        // graph. (Magic flips are covered by the bad-magic case above.)
        for pos in 4..clean.len() {
            let mut buf = clean.clone();
            buf[pos] ^= 1 << (pos % 8);
            assert!(
                read_binary(&buf[..]).is_err(),
                "bit flip at byte {pos} was not detected"
            );
        }
    }

    #[test]
    fn binary_v2_rejects_trailing_bytes() {
        let g = erdos_renyi(8, 10, 5);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.push(0);
        match read_binary(&buf[..]) {
            Err(IoError::Corrupt(msg)) => assert!(msg.contains("trailing"), "{msg}"),
            other => panic!("expected Corrupt(trailing), got {other:?}"),
        }
    }

    /// Serializes `g` in the checksum-less v1 layout (what pre-v2 builds
    /// wrote) so compatibility stays under test without a fixture file.
    fn write_binary_v1(g: &Graph) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"CUSH");
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&g.num_vertices().to_le_bytes());
        buf.extend_from_slice(&g.num_edges().to_le_bytes());
        for e in g.edges() {
            buf.extend_from_slice(&e.src.to_le_bytes());
            buf.extend_from_slice(&e.dst.to_le_bytes());
            buf.extend_from_slice(&e.weight.to_le_bytes());
        }
        buf
    }

    #[test]
    fn binary_v1_files_remain_readable() {
        let g = erdos_renyi(32, 100, 11);
        let buf = write_binary_v1(&g);
        assert_eq!(read_binary(&buf[..]).unwrap(), g);
        // v1 keeps its historical truncation behavior: Parse, not Corrupt.
        let mut cut = write_binary_v1(&g);
        cut.truncate(cut.len() - 2);
        assert!(matches!(read_binary(&cut[..]), Err(IoError::Parse(_))));
    }

    #[test]
    fn binary_header_cannot_force_huge_allocation() {
        // A header claiming u32::MAX edges backed by no payload must fail
        // with a truncation parse error without first reserving ~48 GiB.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"CUSH");
        buf.extend_from_slice(&1u32.to_le_bytes()); // version
        buf.extend_from_slice(&10u32.to_le_bytes()); // n
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // m (lie)
        match read_binary(&buf[..]) {
            Err(IoError::Parse(msg)) => assert!(msg.contains("truncated"), "{msg}"),
            other => panic!("expected Parse(truncated), got {other:?}"),
        }
    }

    #[test]
    fn binary_file_round_trip_through_paths() {
        let g = erdos_renyi(30, 90, 7);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cusha-io-bin-test-{}.bin", std::process::id()));
        save_binary(&g, &path).unwrap();
        let back = load_binary(&path).unwrap();
        assert_eq!(g, back);
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            load_binary(dir.join("cusha-io-definitely-missing.bin")),
            Err(IoError::Io(_))
        ));
    }

    #[test]
    fn file_round_trip_through_paths() {
        let g = erdos_renyi(30, 90, 6);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cusha-io-test-{}.txt", std::process::id()));
        save_edge_list(&g, &path).unwrap();
        let back = load_edge_list(&path).unwrap();
        assert_eq!(g.edges(), back.edges());
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            load_edge_list(dir.join("cusha-io-definitely-missing")),
            Err(IoError::Io(_))
        ));
    }

    #[test]
    fn binary_rejects_out_of_range_edge() {
        let g = Graph::new(4, vec![Edge::new(0, 3, 1)]);
        // v2: patching the vertex count trips the header checksum first.
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(read_binary(&buf[..]), Err(IoError::Corrupt(_))));
        // v1 has no checksum, so the range check itself must catch it.
        let mut v1 = write_binary_v1(&g);
        v1[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(read_binary(&v1[..]), Err(IoError::Parse(_))));
    }
}
