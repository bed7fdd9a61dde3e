//! Host workers for the topology builds: one process-wide budget of spare
//! cores, and the two levels that G-Shards, CW and both CSRs split their
//! builds into (DESIGN §4.2, §4.9).
//!
//! **Level 1** ([`Buckets`]). Each worker takes a contiguous id range of the
//! edge list and counting-sorts it by coarse bucket — an owning shard, or a
//! block of vertices — into its own slice of one buffer. **Level 2**
//! ([`split_work`]). Buckets go to workers in contiguous ranges balanced by
//! entry count; for each of its buckets a worker reads the level-1 slices in
//! worker order (id order), orders them by the fine key, and writes them
//! into the bucket's range of the output columns and its row of a side
//! table. Every range a worker writes is a `split_at_mut` of the caller's
//! arrays, and a stable sort of id-ordered input has one result, so the
//! bytes do not depend on the worker count. On one worker each build keeps
//! the counting sort it had before: [`shard_order`]'s three passes, and
//! [`crate::csr::adjacency`]'s one.

use crate::partition::edge_balanced_ranges;
use crate::types::{Edge, Graph};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Below this many ids a budgeted build runs on the calling thread alone:
/// starting workers would cost more than they save.
const MIN_PARALLEL_IDS: usize = 1 << 18;
/// The widest radix digit of a level-2 pass (a 2^13-entry count table): a
/// key of up to 26 bits sorts a shard of 2^12 entries or more in two passes.
const DIGIT_BITS: u32 = 13;

/// The host's available parallelism (1 when unknown), read once: the one
/// read of it in library code.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Spare cores held by live [`Lease`]s, out of `cores() - 1`.
static HELD: AtomicUsize = AtomicUsize::new(0);

/// Spare cores taken from the process-wide budget of `cores() - 1` (the
/// calling thread is the one core never leased), given back on drop.
#[must_use = "the cores go back when the lease drops"]
#[derive(Debug)]
pub struct Lease(usize);

impl Lease {
    /// Up to `want` of the spare cores free now; none when every one is held.
    pub fn take(want: usize) -> Lease {
        let spare = cores() - 1;
        let mut got = 0;
        let _ = HELD.fetch_update(Ordering::AcqRel, Ordering::Acquire, |held| {
            got = want.min(spare.saturating_sub(held));
            Some(held + got)
        });
        Lease(got)
    }

    /// How many cores this lease holds.
    pub fn cores(&self) -> usize {
        self.0
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        HELD.fetch_sub(self.0, Ordering::AcqRel);
    }
}

thread_local! {
    /// The worker count [`with_workers`] forces on this thread.
    static FORCED: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Runs `f` with every build it makes on this thread on exactly `workers`
/// workers, whatever the budget holds: how the tests show the bytes are the
/// same at any count.
pub fn with_workers<T>(workers: usize, f: impl FnOnce() -> T) -> T {
    let before = FORCED.replace(Some(workers.max(1)));
    let out = f();
    FORCED.set(before);
    out
}

/// The workers a build over `n` ids runs on, held until the lease drops: the
/// calling thread plus every spare core free in the budget (none below a
/// fixed id count), or what [`with_workers`] forces.
pub fn workers_for(n: usize) -> (Lease, usize) {
    let forced = FORCED.get();
    let budgeted = forced.is_none() && n >= MIN_PARALLEL_IDS;
    let lease = Lease::take(if budgeted { usize::MAX } else { 0 });
    let workers = forced.unwrap_or(1 + lease.cores());
    (lease, workers)
}

/// Level 2: hands each of `workers` a contiguous range of `sizes`' buckets,
/// balanced by entries, and for each bucket `b` of it calls `each(b, at,
/// cols, row, scratch)` with the entry it starts at, its `sizes[b]` entries
/// of each of `cols` and its row of `side` (`row_len` slots, clamped at
/// `side`'s length); returns the `sizes.len() + 1` bucket starts. `scratch`
/// makes each worker's scratch on the calling thread; the workers then run
/// at once, the first on the calling thread.
pub fn split_work<const C: usize, S: Send>(
    sizes: &[usize],
    workers: usize,
    mut cols: [&mut [u32]; C],
    mut side: &mut [u32],
    row_len: usize,
    mut scratch: impl FnMut(Range<usize>) -> S,
    each: impl Fn(usize, u32, [&mut [u32]; C], &mut [u32], &mut S) + Sync,
) -> Vec<u32> {
    let mut starts = vec![0u32; sizes.len() + 1];
    for (b, &size) in sizes.iter().enumerate() {
        starts[b + 1] = starts[b] + size as u32;
    }
    let (each, starts_ref, side_len) = (&each, &starts, side.len());
    let row = move |b: usize| (b * row_len).min(side_len);
    let mut jobs = Vec::with_capacity(workers);
    for range in edge_balanced_ranges(sizes, workers.max(1)) {
        if range.is_empty() {
            continue;
        }
        let len = starts_ref[range.end] - starts_ref[range.start];
        let mut cols = split(&mut cols, len as usize);
        let rows = row(range.end) - row(range.start);
        let (mut rows, tail) = std::mem::take(&mut side).split_at_mut(rows);
        side = tail;
        let mut scratch = scratch(range.clone());
        jobs.push(move || {
            for b in range {
                let here = split(&mut cols, sizes[b]);
                let (mine, tail) = std::mem::take(&mut rows).split_at_mut(row(b + 1) - row(b));
                rows = tail;
                each(b, starts_ref[b], here, mine, &mut scratch);
            }
        });
    }
    fan(jobs);
    starts
}

/// The first `at` entries of each column, leaving the rest in `cols`.
fn split<'a, const C: usize>(cols: &mut [&'a mut [u32]; C], at: usize) -> [&'a mut [u32]; C] {
    std::array::from_fn(|c| {
        let (here, rest) = std::mem::take(&mut cols[c]).split_at_mut(at);
        cols[c] = rest;
        here
    })
}

/// Runs every job at once: the first on the calling thread, the rest on
/// scoped threads, so none outlives the call (a panic in one is re-raised).
fn fan<F: FnOnce() + Send>(jobs: Vec<F>) {
    let mut jobs = jobs.into_iter();
    let Some(first) = jobs.next() else { return };
    std::thread::scope(|scope| {
        jobs.for_each(|job| drop(scope.spawn(job)));
        first();
    });
}

/// Level 1 on `w` workers: worker `k` takes ids `k * per..` of `edges` and
/// counting-sorts them by the bucket `item` gives into its own slice of one
/// buffer, carrying the record `item` makes of the edge and its id.
pub struct Buckets<R> {
    records: Vec<R>,
    /// `ends[k][b]`: where bucket `b` ends in worker `k`'s slice.
    ends: Vec<Vec<u32>>,
    per: usize,
}

impl<R: Copy + Send + Sync> Buckets<R> {
    /// Splits `edges` into `buckets` buckets; `zero` is a record of zero
    /// bits, so that the buffer starts as pages the workers fill.
    pub fn split(
        edges: &[Edge],
        w: usize,
        buckets: usize,
        zero: R,
        item: impl Fn(&Edge, u32) -> (usize, R) + Send + Sync + Copy,
    ) -> Self {
        let per = edges.len().div_ceil(w).max(1);
        let (mut records, mut ends) = (vec![zero; edges.len()], vec![vec![0u32; buckets]; w]);
        let mine = records
            .chunks_mut(per)
            .zip(edges.chunks(per))
            .zip(&mut ends);
        fan(Vec::from_iter(mine.enumerate().map(
            |(k, ((out, edges), ends))| {
                move || {
                    let item = item;
                    edges.iter().for_each(|e| ends[item(e, 0).0] += 1);
                    let mut at = 0;
                    for end in ends.iter_mut() {
                        (*end, at) = (at, at + *end);
                    }
                    for (id, e) in (k * per..).zip(edges) {
                        let (b, record) = item(e, id as u32);
                        let at = ends[b];
                        ends[b] = at + 1;
                        out[at as usize] = record;
                    }
                }
            },
        )));
        Buckets { records, ends, per }
    }

    /// Bucket `b`'s records in worker `k`'s slice.
    fn piece(&self, k: usize, b: usize) -> &[R] {
        let (ends, at) = (&self.ends[k], (k * self.per).min(self.records.len()));
        let lo = if b == 0 { 0 } else { ends[b - 1] as usize };
        &self.records[at + lo..at + ends[b] as usize]
    }

    /// Bucket `b`'s records, in id order.
    pub fn bucket(&self, b: usize) -> impl Iterator<Item = R> + '_ {
        (0..self.ends.len())
            .flat_map(move |k| self.piece(k, b))
            .copied()
    }

    /// Every bucket's entry count.
    pub fn sizes(&self) -> Vec<usize> {
        let buckets = self.ends.first().map_or(0, Vec::len);
        let size = |b| (0..self.ends.len()).map(|k| self.piece(k, b).len()).sum();
        (0..buckets).map(size).collect()
    }
}

/// Writes `g`'s edges in G-Shards order for `n_per` vertices per shard —
/// (owning shard, src, dst, id) — into `[src, dst, id]` columns (each `|E|`
/// long), and into the `p * p` window table, row-major by owning shard `j`,
/// where window `W_ij` opens; returns the `p + 1` shard starts. Runs on the
/// workers [`workers_for`] gives; every buffer is allocated on the calling
/// thread.
///
/// # Panics
/// Panics if `n_per == 0`.
pub fn shard_order(g: &Graph, n_per: u32, cols: [&mut [u32]; 3], windows: &mut [u32]) -> Vec<u32> {
    match workers_for(g.edges().len()) {
        (_lease, workers) if workers > 1 && !g.edges().is_empty() => {
            two_levels(g, n_per, cols, windows, workers)
        }
        _ => counting_passes(g, n_per, cols, windows),
    }
}

/// [`shard_order`] on one worker: three stable counting passes, least
/// significant key first — by destination from id order, by source, then by
/// owning shard into the columns — each carrying what the next one reads.
fn counting_passes(
    g: &Graph,
    n_per: u32,
    [si, di, ei]: [&mut [u32]; 3],
    offsets: &mut [u32],
) -> Vec<u32> {
    let (n, m) = (g.num_vertices(), g.edges().len());
    let (nv, per) = (n as usize, n_per as usize);
    let ps = n.div_ceil(n_per).max(1) as usize;
    // Counts sit two slots past their vertex, so a prefix sum leaves
    // `ends[v + 1]` at bucket v's start and a scatter moves it to v's
    // end: `ends[..=nv]` is then the offsets the next pass walks.
    let (mut dst_ends, mut src_ends) = (vec![0u32; nv + 2], vec![0u32; nv + 2]);
    for e in g.edges() {
        dst_ends[e.dst as usize + 2] += 1;
        src_ends[e.src as usize + 2] += 1;
    }
    for ends in [&mut dst_ends, &mut src_ends] {
        (1..ends.len()).for_each(|k| ends[k] += ends[k - 1]);
    }
    // By destination, `(src, id)` in (dst, id) order; then by source,
    // `(dst, id)` in (src, dst, id) order.
    let (mut by_dst, mut by_src) = (vec![(0u32, 0u32); m], vec![(0u32, 0u32); m]);
    for (id, e) in g.edges().iter().enumerate() {
        let c = &mut dst_ends[e.dst as usize + 1];
        by_dst[*c as usize] = (e.src, id as u32);
        *c += 1;
    }
    for (dst, bucket) in dst_ends[..=nv].windows(2).enumerate() {
        for &(src, id) in &by_dst[bucket[0] as usize..bucket[1] as usize] {
            let c = &mut src_ends[src as usize + 1];
            by_src[*c as usize] = (dst as u32, id);
            *c += 1;
        }
    }
    drop(by_dst);
    let shard_starts: Vec<u32> = (0..=ps).map(|j| dst_ends[(j * per).min(nv)]).collect();
    // By owning shard, into the columns: (shard, src, dst, id) order.
    // Window W_ij starts at shard j's cursor when the walk enters shard i.
    let mut cursor = shard_starts[..ps].to_vec();
    for (src, bucket) in src_ends[..=nv].windows(2).enumerate() {
        if src % per == 0 {
            let column = offsets.iter_mut().skip(src / per).step_by(ps);
            column.zip(&cursor).for_each(|(slot, &c)| *slot = c);
        }
        for &(dst, id) in &by_src[bucket[0] as usize..bucket[1] as usize] {
            let c = &mut cursor[(dst / n_per) as usize];
            let k = *c as usize;
            (si[k], di[k], ei[k]) = (src as u32, dst, id);
            *c += 1;
        }
    }
    shard_starts
}

/// The bits `x` takes.
fn bits(x: usize) -> u32 {
    usize::BITS - x.leading_zeros()
}

/// A level-2 entry's fine key, (src, local dst), and its shard's geometry.
#[derive(Clone, Copy)]
struct Key {
    n_per: u32,
    dst_bits: u32,
    bits: u32,
}

impl Key {
    fn of(self, r: &[u32; 3]) -> u64 {
        (u64::from(r[0]) << self.dst_bits) | u64::from(r[1])
    }
}

/// [`shard_order`] on `w > 1` workers, over at least one edge: level 1 by
/// owning shard, carrying `[src, local dst, id]`; level 2 a radix sort of
/// each shard by (src, local dst).
fn two_levels(
    g: &Graph,
    n_per: u32,
    cols: [&mut [u32]; 3],
    windows: &mut [u32],
    w: usize,
) -> Vec<u32> {
    let n = g.num_vertices() as usize;
    let ps = n.div_ceil(n_per as usize).max(1);
    let buckets = Buckets::split(g.edges(), w, ps, [0; 3], move |e, id| {
        let j = e.dst / n_per;
        (j as usize, [e.src, e.dst - j * n_per, id])
    });
    let sizes = buckets.sizes();
    let dst_bits = bits(n_per as usize - 1);
    let key = Key {
        n_per,
        dst_bits,
        bits: bits(n - 1) + dst_bits,
    };
    let scratch = |shards: Range<usize>| {
        let largest = sizes[shards].iter().copied().max().unwrap_or(0);
        let (passes, width) = digits(key.bits, largest);
        Scratch {
            bufs: [vec![[0; 3]; largest], vec![[0; 3]; largest]],
            counts: vec![0; (passes << width) as usize],
            groups: vec![0; ps],
        }
    };
    split_work(
        &sizes,
        w,
        cols,
        windows,
        ps,
        scratch,
        |j, at, cols, row, scratch| {
            sort_shard(key, j as u32, || buckets.bucket(j), at, cols, row, scratch)
        },
    )
}

/// The radix passes a `key_bits`-wide key of a `len`-entry shard takes and
/// their digit width, at most [`DIGIT_BITS`]: no digit's count table is much
/// longer than the shard it sorts. Any split of the key gives the same
/// stable order.
fn digits(key_bits: u32, len: usize) -> (u32, u32) {
    match key_bits.div_ceil(bits(len).clamp(4, DIGIT_BITS)) {
        0 => (0, 0),
        passes => (passes, key_bits.div_ceil(passes)),
    }
}

/// A level-2 worker's buffers: two for the middle radix passes, the count
/// tables of every pass, and one row's window counts.
struct Scratch {
    bufs: [Vec<[u32; 3]>; 2],
    counts: Vec<u32>,
    groups: Vec<u32>,
}

/// Level 2 for shard `j` at `base`: its entries (`records`, in id order)
/// read once to count every radix pass's digits and each source shard's
/// window, then moved by the stable LSD passes whose digit is not the same
/// throughout, the last one straight into the columns.
fn sort_shard<P: Iterator<Item = [u32; 3]>>(
    key: Key,
    j: u32,
    records: impl Fn() -> P,
    base: u32,
    [si, di, ei]: [&mut [u32]; 3],
    row: &mut [u32],
    s: &mut Scratch,
) {
    let len = si.len();
    let (passes, width) = digits(key.bits, len);
    let mask = (1u64 << width) - 1;
    let table = |pass: u32| ((pass << width) as usize)..(((pass + 1) << width) as usize);
    let (counts, groups) = (&mut s.counts[..(passes << width) as usize], &mut s.groups);
    counts.fill(0);
    groups.fill(0);
    records().for_each(|r| {
        let k = key.of(&r);
        for pass in 0..passes {
            counts[table(pass).start + (k >> (pass * width) & mask) as usize] += 1;
        }
        groups[(r[0] / key.n_per) as usize] += 1;
    });
    let mut at = base;
    for (slot, &g) in row.iter_mut().zip(groups.iter()) {
        (*slot, at) = (at, at + g);
    }
    let moves = (0..passes).filter(|&pass| !counts[table(pass)].iter().any(|&c| c as usize == len));
    let live = moves.fold(0u64, |live, pass| live | 1 << pass);
    let dst0 = j * key.n_per;
    let mut put = |at: usize, r: &[u32; 3]| (si[at], di[at], ei[at]) = (r[0], dst0 + r[1], r[2]);
    if live == 0 {
        records().enumerate().for_each(|(k, r)| put(k, &r));
        return;
    }
    let [a, b] = &mut s.bufs;
    let (mut to, mut from) = (&mut a[..], &mut b[..]);
    for pass in (0..passes).filter(|&pass| live >> pass & 1 == 1) {
        let offsets = &mut counts[table(pass)];
        let mut at = 0;
        for slot in offsets.iter_mut() {
            (*slot, at) = (at, at + *slot);
        }
        let shift = pass * width;
        let mut slot = |r: &[u32; 3]| {
            let slot = &mut offsets[(key.of(r) >> shift & mask) as usize];
            *slot += 1;
            *slot as usize - 1
        };
        // The last pass writes the columns, the others the next buffer; the
        // first reads the records, the others the last buffer.
        match (live >> pass == 1, live & ((1 << pass) - 1) == 0) {
            (true, true) => records().for_each(|r| put(slot(&r), &r)),
            (true, false) => from[..len].iter().for_each(|r| put(slot(r), r)),
            (false, true) => records().for_each(|r| to[slot(&r)] = r),
            (false, false) => from[..len].iter().for_each(|r| to[slot(r)] = *r),
        }
        std::mem::swap(&mut to, &mut from);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lease_never_holds_more_than_the_spare_cores() {
        let spare = cores() - 1;
        let first = Lease::take(usize::MAX);
        assert!(first.cores() <= spare);
        let second = Lease::take(usize::MAX);
        assert!(first.cores() + second.cores() <= spare);
        drop((first, second));
    }
}
