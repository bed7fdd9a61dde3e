//! Graph de/serialization.
//!
//! Two formats:
//!
//! * **Text edge list** — the SNAP interchange format the paper's inputs ship
//!   in: one `src dst [weight]` triple per line, `#`-prefixed comment lines
//!   ignored. A missing weight defaults to 1.
//! * **Binary** — a compact little-endian format (`CUSH` magic, version,
//!   counts, then packed `(src, dst, weight)` triples) for fast reloads of
//!   generated surrogates. Version 3 (the write format) appends a
//!   [`WordDigest`] to the header section and to the edge payload and
//!   requires the file to end exactly after the payload digest, so truncated
//!   or bit-rotted files fail with a typed [`IoError::Corrupt`] instead of
//!   silently building a wrong graph. Version 2 (the same layout with
//!   [`Fnv1a`] digests) and the digest-less version 1 remain readable.

use crate::builder::GraphBuilder;
use crate::types::{Edge, Graph, VertexId};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"CUSH";
/// The version written by [`write_binary`]. [`read_binary`] also accepts
/// FNV-1a-checked v2 and the checksum-less v1.
const VERSION: u32 = 3;

/// Errors produced by graph IO.
#[derive(Debug)]
pub enum IoError {
    /// Underlying IO failure.
    Io(io::Error),
    /// Malformed input; the string describes line/offset and cause.
    Parse(String),
    /// A binary v2/v3 file failed a section checksum, ended early, or carries
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

/// Streaming byte-wise FNV-1a (64-bit): the per-record checksum of the
/// service's write-ahead log and the per-section digest of binary v2 files,
/// which are still read. Both are on-disk formats, so the digests are pinned
/// by a unit test.
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

/// The odd multiplier of every [`WordDigest`] step and of its fold.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// A word-parallel 64-bit digest: the section digest of binary v3 and the
/// SDC scrubber's buffer digest.
///
/// The input's 8-byte little-endian words (the last one zero-padded) go
/// round-robin to four lanes, each step `lane = (lane ^ word) * K` with `K`
/// odd. A step is a bijection of the lane for a fixed word and of the word
/// for a fixed lane, and the fold — the byte length, then each lane in turn,
/// by the same step, and a final xorshift-multiply — is a bijection of each
/// lane for fixed others. So two equal-length inputs that differ in exactly
/// one word, which covers every single-bit flip, always digest differently:
/// FNV-1a's guarantee at one multiply per word instead of one per byte. It
/// is an error check, not a general-purpose hash: a bit only reaches the
/// bits above it in its lane, so some multi-word differences cancel.
#[derive(Clone, Copy, Debug)]
pub struct WordDigest {
    /// The lanes, rotated so that the next word always goes to `lanes[0]`.
    lanes: [u64; WordDigest::LANES],
    /// Bytes folded in so far.
    len: u64,
    /// The bytes of an unfinished word (the first `len % 8`).
    tail: [u8; 8],
}

impl Default for WordDigest {
    fn default() -> Self {
        WordDigest {
            lanes: [
                0x243f_6a88_85a3_08d3,
                0x1319_8a2e_0370_7344,
                0xa409_3822_299f_31d0,
                0x082e_fa98_ec4e_6c89,
            ],
            len: 0,
            tail: [0; 8],
        }
    }
}

#[inline(always)]
fn step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(K)
}

#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().unwrap())
}

impl WordDigest {
    /// Independent multiply chains, so consecutive words do not wait on
    /// each other.
    pub const LANES: usize = 4;

    /// One word into the next lane.
    fn absorb(&mut self, word: u64) {
        self.lanes[0] = step(self.lanes[0], word);
        self.lanes.rotate_left(1);
    }

    /// Folds `bytes` into the digest; any split of the input into `update`
    /// calls gives the same digest.
    pub fn update(&mut self, mut bytes: &[u8]) {
        let fill = (self.len % 8) as usize;
        self.len += bytes.len() as u64;
        if fill > 0 {
            let take = bytes.len().min(8 - fill);
            self.tail[fill..fill + take].copy_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if fill + take < 8 {
                return;
            }
            self.absorb(le_word(&self.tail));
        }
        let mut rounds = bytes.chunks_exact(8 * Self::LANES);
        for round in &mut rounds {
            for (k, lane) in self.lanes.iter_mut().enumerate() {
                *lane = step(*lane, le_word(&round[8 * k..]));
            }
        }
        let mut words = rounds.remainder().chunks_exact(8);
        for word in &mut words {
            self.absorb(le_word(word));
        }
        self.tail[..words.remainder().len()].copy_from_slice(words.remainder());
    }

    /// The digest of everything folded in so far.
    pub fn finish(&self) -> u64 {
        let mut d = *self;
        let rest = (d.len % 8) as usize;
        if rest > 0 {
            d.tail[rest..].fill(0);
            d.absorb(le_word(&d.tail));
        }
        d.lanes
            .rotate_right((d.len.div_ceil(8) % Self::LANES as u64) as usize);
        let h = d
            .lanes
            .iter()
            .fold(step(0, d.len), |h, &lane| step(h, lane));
        let h = (h ^ (h >> 32)).wrapping_mul(K);
        h ^ (h >> 29)
    }

    /// The digest of `bytes` alone.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = WordDigest::default();
        h.update(bytes);
        h.finish()
    }

    /// The digest of the little-endian bytes of `word(item)` for each item,
    /// without materialising them: one word per item.
    pub fn of_words<T: Copy>(items: &[T], word: impl Fn(T) -> u64) -> u64 {
        let mut d = WordDigest::default();
        let mut lanes = d.lanes;
        let mut rounds = items.chunks_exact(Self::LANES);
        for round in &mut rounds {
            for k in 0..Self::LANES {
                lanes[k] = step(lanes[k], word(round[k]));
            }
        }
        d.lanes = lanes;
        for &item in rounds.remainder() {
            d.absorb(word(item));
        }
        d.len = 8 * items.len() as u64;
        d.finish()
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
            let tok =
                tok.ok_or_else(|| IoError::Parse(format!("line {lineno}: missing {what}")))?;
            match tok.parse::<u32>() {
                Ok(VertexId::MAX) => Err(IoError::Parse(format!(
                    "line {lineno}: {what} {tok} has no 32-bit vertex count"
                ))),
                Ok(id) => Ok(id),
                Err(e) => Err(IoError::Parse(format!("line {lineno}: bad {what}: {e}"))),
            }
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

/// Writes the compact binary format (v3: [`WordDigest`]-checked sections).
///
/// Layout: `CUSH` magic, version, then the header section (`n`, `m`, the
/// digest of those 8 bytes) and the payload section (`m` packed
/// `(src, dst, weight)` records, the digest of all payload bytes). Nothing
/// may follow the payload digest. v2 is the same layout with [`Fnv1a`]
/// digests.
pub fn write_binary<W: Write>(g: &Graph, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(&g.num_vertices().to_le_bytes());
    header[4..].copy_from_slice(&g.num_edges().to_le_bytes());
    w.write_all(&header)?;
    w.write_all(&WordDigest::of(&header).to_le_bytes())?;
    let mut digest = WordDigest::default();
    let mut chunk = Vec::with_capacity(CHUNK_RECORDS.min(g.edges().len()) * EDGE_RECORD_BYTES);
    for edges in g.edges().chunks(CHUNK_RECORDS) {
        chunk.clear();
        for e in edges {
            chunk.extend_from_slice(&e.src.to_le_bytes());
            chunk.extend_from_slice(&e.dst.to_le_bytes());
            chunk.extend_from_slice(&e.weight.to_le_bytes());
        }
        digest.update(&chunk);
        w.write_all(&chunk)?;
    }
    w.write_all(&digest.finish().to_le_bytes())?;
    w.flush()?;
    Ok(())
}

/// Bytes per serialized edge record: `(src, dst, weight)` as `u32` each.
const EDGE_RECORD_BYTES: usize = 12;

/// Records the payload is read and written in at a time: just under 64 KiB,
/// and an even count, so every chunk is whole digest words.
const CHUNK_RECORDS: usize = 5460;

/// Upper bound on the edge capacity reserved up front from an untrusted
/// header (16 MiB of records). A header claiming more edges than this gets
/// its vector grown incrementally instead, so a corrupt or hostile `m`
/// cannot force a multi-gigabyte allocation before the payload proves it is
/// actually that long.
const MAX_TRUSTED_CAPACITY: usize = (16 << 20) / EDGE_RECORD_BYTES;

/// Reads the compact binary format (v1, v2 or v3).
///
/// The header's claimed counts are treated as untrusted: the edge vector's
/// up-front reservation is capped (a corrupt `m` cannot trigger an
/// allocation the payload never backs), and a payload shorter than `m`
/// records yields a typed error naming the first missing record rather than
/// a bare EOF. The payload is read in chunks of at most 64 KiB and each edge
/// is range-checked once, as it arrives. For v2 and v3 files the header and
/// payload digests are verified and the file must end exactly after the
/// payload digest; any mismatch, short section, or trailing byte is
/// [`IoError::Corrupt`]. v1 files carry no checksums, so only structural
/// defects are detectable there ([`IoError::Parse`], the historical
/// behavior).
pub fn read_binary<R: Read>(reader: R) -> Result<Graph, IoError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)
        .map_err(|e| truncated("magic", e))?;
    if &magic != MAGIC {
        return Err(IoError::Parse("bad magic".into()));
    }
    let mut buf4 = [0u8; 4];
    r.read_exact(&mut buf4)
        .map_err(|e| truncated("version", e))?;
    let version = u32::from_le_bytes(buf4);
    if !(1..=VERSION).contains(&version) {
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
        let digest = match version {
            2 => Fnv1a::of(&header),
            _ => WordDigest::of(&header),
        };
        if u64::from_le_bytes(crc) != digest {
            return Err(IoError::Corrupt(
                "header checksum mismatch (vertex/edge counts are damaged)".into(),
            ));
        }
    }
    let m_records = m as usize;
    let mut edges = Vec::with_capacity(m_records.min(MAX_TRUSTED_CAPACITY));
    // Payload digests: v2's FNV-1a, v3's WordDigest (v1 has none).
    let (mut fnv1a, mut words) = (Fnv1a::default(), WordDigest::default());
    let mut chunk = vec![0u8; m_records.min(CHUNK_RECORDS) * EDGE_RECORD_BYTES];
    while edges.len() < m_records {
        let want = (m_records - edges.len()).min(CHUNK_RECORDS) * EDGE_RECORD_BYTES;
        let (got, stopped) = fill(&mut r, &mut chunk[..want]);
        let records = &chunk[..got - got % EDGE_RECORD_BYTES];
        match version {
            1 => {}
            2 => fnv1a.update(records),
            _ => words.update(records),
        }
        for record in records.chunks_exact(EDGE_RECORD_BYTES) {
            let word = |k: usize| u32::from_le_bytes(record[4 * k..4 * k + 4].try_into().unwrap());
            let (src, dst, weight) = (word(0), word(1), word(2));
            if src >= n || dst >= n {
                let i = edges.len();
                let msg = format!("edge #{i} ({src} -> {dst}) out of range for {n} vertices");
                // Under v2/v3 an out-of-range edge is indistinguishable from
                // bit rot until the payload checksum settles it; report it as
                // the corruption it almost certainly is.
                return Err(if checked {
                    IoError::Corrupt(msg)
                } else {
                    IoError::Parse(msg)
                });
            }
            edges.push(Edge::new(src, dst, weight));
        }
        if let Some(e) = stopped {
            let i = edges.len();
            return Err(short(&format!("edge #{i} of {m} claimed by the header"), e));
        }
    }
    if checked {
        let mut crc = [0u8; 8];
        r.read_exact(&mut crc)
            .map_err(|e| short("payload checksum", e))?;
        let digest = match version {
            2 => fnv1a.finish(),
            _ => words.finish(),
        };
        if u64::from_le_bytes(crc) != digest {
            return Err(IoError::Corrupt(format!(
                "payload checksum mismatch over {m} edge records"
            )));
        }
        // Explicit end-of-file length check: a well-formed v2/v3 file ends
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
    Ok(Graph::from_checked_parts(n, edges))
}

/// Reads into `buf` until it is full or the input stops; returns the bytes
/// read and, when short, why (`UnexpectedEof` at the end of the input).
/// Interrupted reads are retried, as `read_exact` does.
fn fill(r: &mut impl Read, buf: &mut [u8]) -> (usize, Option<io::Error>) {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => return (got, Some(io::ErrorKind::UnexpectedEof.into())),
            Ok(k) => got += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return (got, Some(e)),
        }
    }
    (got, None)
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

    /// A v2 file as the v2 writer wrote it: [`small_graph`] in the layout
    /// v3 kept, with FNV-1a section digests.
    #[rustfmt::skip]
    const V2_FIXTURE: [u8; 68] = [
        0x43, 0x55, 0x53, 0x48, 0x02, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
        0x03, 0x00, 0x00, 0x00, 0xd2, 0xcd, 0x92, 0x52, 0x16, 0x88, 0xd7, 0xcc,
        0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
        0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00,
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00,
        0xef, 0x40, 0xad, 0x45, 0x87, 0xd1, 0x60, 0xaa,
    ];

    fn small_graph() -> Graph {
        Graph::new(
            4,
            vec![Edge::new(0, 1, 5), Edge::new(1, 2, 7), Edge::new(3, 0, 9)],
        )
    }

    fn v3_bytes(g: &Graph) -> Vec<u8> {
        let mut file = Vec::new();
        write_binary(g, &mut file).unwrap();
        file
    }

    /// The service's WAL records and the v2 graph files still read carry
    /// these digests; the three below were computed before the four
    /// hand-written copies of the loop became [`Fnv1a`].
    #[test]
    fn fnv1a_digests_are_pinned() {
        assert_eq!(Fnv1a::of(&[]), 0xcbf2_9ce4_8422_2325);
        let file = &V2_FIXTURE;
        let (header, payload) = (&file[8..16], &file[24..file.len() - 8]);
        assert_eq!(Fnv1a::of(header), 0xccd7_8816_5292_cdd2);
        assert_eq!(file[16..24], 0xccd7_8816_5292_cdd2u64.to_le_bytes());
        assert_eq!(Fnv1a::of(payload), 0xaa60_d187_45ad_40ef);
        assert_eq!(
            file[file.len() - 8..],
            0xaa60_d187_45ad_40efu64.to_le_bytes()
        );
        // Streaming in pieces is the same digest.
        let mut pieces = Fnv1a::default();
        payload.chunks(5).for_each(|chunk| pieces.update(chunk));
        assert_eq!(pieces.finish(), 0xaa60_d187_45ad_40ef);
    }

    /// v3 files carry these [`WordDigest`]s: an on-disk format, so they are
    /// pinned. Every split of an input into `update` calls, and the
    /// one-word-per-item form, digest the same.
    #[test]
    fn word_digest_is_pinned() {
        const WORD_EMPTY: u64 = 0x62b1_8515_dca9_89ca;
        const WORD_HEADER: u64 = 0xeacf_b040_38b2_3df8;
        const WORD_PAYLOAD: u64 = 0x5c0e_97f4_28ab_a612;
        assert_eq!(WordDigest::of(&[]), WORD_EMPTY);
        let file = v3_bytes(&small_graph());
        assert_eq!(file[..8], *b"CUSH\x03\0\0\0");
        assert_eq!(file[8..16], V2_FIXTURE[8..16]);
        assert_eq!(file[16..24], WORD_HEADER.to_le_bytes());
        assert_eq!(file[24..60], V2_FIXTURE[24..60]);
        assert_eq!(file[60..], WORD_PAYLOAD.to_le_bytes());
        assert_eq!(WordDigest::of(&file[24..60]), WORD_PAYLOAD);
        let bytes: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let whole = WordDigest::of(&bytes);
        for piece in [1, 3, 5, 7, 8, 13, 32, 33, 999] {
            let mut pieces = WordDigest::default();
            bytes.chunks(piece).for_each(|chunk| pieces.update(chunk));
            assert_eq!(pieces.finish(), whole, "pieces of {piece}");
        }
        // The rotating lanes are the plain round-robin: word `j` to lane
        // `j % LANES`, the tail zero-padded.
        let round_robin = |bytes: &[u8]| {
            let mut lanes = WordDigest::default().lanes;
            for (j, word) in bytes.chunks(8).enumerate() {
                let mut padded = [0u8; 8];
                padded[..word.len()].copy_from_slice(word);
                lanes[j % WordDigest::LANES] =
                    step(lanes[j % WordDigest::LANES], u64::from_le_bytes(padded));
            }
            let n = bytes.len() as u64;
            let h = lanes.iter().fold(step(0, n), |h, &lane| step(h, lane));
            let h = (h ^ (h >> 32)).wrapping_mul(K);
            h ^ (h >> 29)
        };
        for len in [0, 1, 7, 8, 9, 31, 32, 33, 36, 100, 1000] {
            assert_eq!(WordDigest::of(&bytes[..len]), round_robin(&bytes[..len]));
        }
        let words: Vec<u64> = (1..=11u64).map(|w| w.wrapping_mul(K)).collect();
        let le: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(WordDigest::of_words(&words, |w| w), WordDigest::of(&le));
    }

    /// The guarantee: equal-length inputs differing in one bit — so in one
    /// word, full or padded tail — digest differently, at every length
    /// from empty to three rounds of lanes and a partial word.
    #[test]
    fn word_digest_catches_every_single_bit_flip() {
        for len in 0..=8 * (3 * WordDigest::LANES + 1) + 7 {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + len) as u8).collect();
            let base = WordDigest::of(&bytes);
            for bit in 0..8 * len {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(WordDigest::of(&flipped), base, "len {len} bit {bit}");
            }
        }
    }

    /// A v2 file written by the v2 writer reads back as the graph it holds.
    #[test]
    fn v2_fixture_reads_back_as_written() {
        assert_eq!(read_binary(&V2_FIXTURE[..]).unwrap(), small_graph());
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

    /// Vertex id `u32::MAX` leaves no 32-bit vertex count: refused naming
    /// its line, where the builder's high-water mark wrapped to 0 and
    /// `Graph::new` panicked.
    #[test]
    fn text_refuses_the_largest_vertex_id() {
        for (input, want) in [
            ("0 1\n4294967295 0\n", "line 2: source 4294967295 "),
            ("0 4294967295 3\n", "line 1: destination 4294967295 "),
        ] {
            match read_edge_list(input.as_bytes()) {
                Err(IoError::Parse(msg)) => assert!(msg.starts_with(want), "{msg}"),
                other => panic!("expected Parse({want}), got {other:?}"),
            }
        }
        let g = read_edge_list("4294967294 0\n".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), u32::MAX);
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

    /// Flips every bit past the magic, one at a time; every flip must
    /// surface as a typed error (version/corrupt), never a wrong graph.
    /// (Magic flips are covered by the bad-magic case above.)
    fn assert_every_flip_errs(clean: &[u8]) {
        for bit in 32..8 * clean.len() {
            let mut buf = clean.to_vec();
            buf[bit / 8] ^= 1 << (bit % 8);
            assert!(
                read_binary(&buf[..]).is_err(),
                "flip of bit {} at byte {} was not detected",
                bit % 8,
                bit / 8
            );
        }
    }

    #[test]
    fn binary_v2_catches_single_bit_rot_everywhere() {
        assert_every_flip_errs(&V2_FIXTURE);
    }

    #[test]
    fn binary_v3_catches_single_bit_rot_everywhere() {
        assert_every_flip_errs(&v3_bytes(&erdos_renyi(16, 40, 9)));
        assert_every_flip_errs(&v3_bytes(&small_graph()));
    }

    fn assert_trailing_byte_errs(clean: &[u8]) {
        let mut buf = clean.to_vec();
        buf.push(0);
        match read_binary(&buf[..]) {
            Err(IoError::Corrupt(msg)) => assert!(msg.contains("trailing"), "{msg}"),
            other => panic!("expected Corrupt(trailing), got {other:?}"),
        }
    }

    #[test]
    fn binary_v2_rejects_trailing_bytes() {
        assert_trailing_byte_errs(&V2_FIXTURE);
    }

    #[test]
    fn binary_v3_rejects_trailing_bytes() {
        assert_trailing_byte_errs(&v3_bytes(&erdos_renyi(8, 10, 5)));
    }

    /// The payload is read in chunks: a graph spanning three of them round
    /// trips through a reader that hands out a few bytes at a time and is
    /// sometimes interrupted, and a cut inside the second chunk names the
    /// first record it lost.
    #[test]
    fn binary_chunks_are_invisible() {
        struct Trickle<'a>(&'a [u8], usize);
        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.1 += 1;
                if self.1.is_multiple_of(7) {
                    return Err(io::ErrorKind::Interrupted.into());
                }
                let k = buf.len().min(self.0.len()).min(1 + self.1 % 29);
                buf[..k].copy_from_slice(&self.0[..k]);
                self.0 = &self.0[k..];
                Ok(k)
            }
        }
        let g = erdos_renyi(300, 2 * CHUNK_RECORDS as u64 + 77, 3);
        let file = v3_bytes(&g);
        assert_eq!(read_binary(Trickle(&file, 0)).unwrap(), g);
        let lost = CHUNK_RECORDS + 123;
        let cut = 24 + lost * EDGE_RECORD_BYTES + 5;
        match read_binary(Trickle(&file[..cut], 0)) {
            Err(IoError::Corrupt(msg)) => {
                assert!(msg.contains(&format!("edge #{lost} of ")), "{msg}")
            }
            other => panic!("expected Corrupt(truncated), got {other:?}"),
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
        // A v3 payload that names a vertex past `n` under valid digests is
        // caught by the loader's one range check.
        let mut buf = v3_bytes(&g);
        buf[28..32].copy_from_slice(&4u32.to_le_bytes());
        let digest = WordDigest::of(&buf[24..36]);
        buf[36..].copy_from_slice(&digest.to_le_bytes());
        match read_binary(&buf[..]) {
            Err(IoError::Corrupt(msg)) => {
                assert_eq!(msg, "edge #0 (0 -> 4) out of range for 4 vertices")
            }
            other => panic!("expected Corrupt(out of range), got {other:?}"),
        }
        // v1 has no checksum, so the range check itself must catch it.
        let mut v1 = write_binary_v1(&g);
        v1[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(read_binary(&v1[..]), Err(IoError::Parse(_))));
    }
}
