//! Admission control: the bounded wait queue in front of the batcher.
//!
//! Every query is either *admitted* (it will get exactly one settled
//! response at the next flush) or *shed* with a typed rejection at
//! enqueue time — the queue never silently drops work, and a full queue
//! rejects the newcomer rather than evicting an admitted query (admission
//! is a promise).

use crate::proto::Query;

/// Why a query was refused at the door.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The wait queue is at capacity.
    QueueFull,
    /// The query references a vertex outside the loaded graph.
    BadSource,
    /// A `reach` query exceeds the 64-source bitset or names no source.
    BadSourceSet,
    /// The service is draining after shutdown.
    ShuttingDown,
    /// A committed mutation is rebuilding warm layouts and the service's
    /// rebuild policy sheds rather than serving the previous epoch.
    Rebuilding,
}

impl ShedReason {
    /// Every reason, for code that reports over all of them (the `stats`
    /// line's `shed` total).
    pub const ALL: [ShedReason; 5] = [
        ShedReason::QueueFull,
        ShedReason::BadSource,
        ShedReason::BadSourceSet,
        ShedReason::ShuttingDown,
        ShedReason::Rebuilding,
    ];

    /// Wire label carried in the `rejected` response.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::BadSource => "bad-source",
            ShedReason::BadSourceSet => "bad-source-set",
            ShedReason::ShuttingDown => "shutting-down",
            ShedReason::Rebuilding => "rebuilding",
        }
    }
}

/// An admitted query with its arrival order (responses settle in arrival
/// order, whatever batch shape execution takes).
#[derive(Clone, Debug)]
pub struct Admitted {
    /// Arrival sequence number, unique per service lifetime.
    pub seq: u64,
    /// Service clock (modeled seconds) at admission — the anchor for
    /// queue-wait and latency telemetry.
    pub admit_clock: f64,
    /// The query.
    pub query: Query,
}

/// The bounded admission queue.
#[derive(Debug)]
pub struct AdmissionQueue {
    capacity: usize,
    next_seq: u64,
    pending: Vec<Admitted>,
}

impl AdmissionQueue {
    /// A queue admitting at most `capacity` queries between flushes.
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            capacity: capacity.max(1),
            next_seq: 0,
            pending: Vec::new(),
        }
    }

    /// Admits `query` (stamped with the service clock) or sheds it with a
    /// reason.
    pub fn admit(&mut self, query: Query, admit_clock: f64) -> Result<u64, ShedReason> {
        if self.pending.len() >= self.capacity {
            return Err(ShedReason::QueueFull);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push(Admitted {
            seq,
            admit_clock,
            query,
        });
        Ok(seq)
    }

    /// Takes every admitted query, in arrival order.
    pub fn drain(&mut self) -> Vec<Admitted> {
        std::mem::take(&mut self.pending)
    }

    /// Queries currently waiting.
    pub fn depth(&self) -> usize {
        self.pending.len()
    }

    /// Total queries ever admitted.
    pub fn admitted_total(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Json, QueryOp};
    use cusha_algos::TraversalKind;

    fn bfs(source: u32) -> Query {
        Query {
            id: Json::Null,
            op: QueryOp::Traversal {
                kind: TraversalKind::Bfs,
                source,
            },
            deadline_ms: None,
            want_values: false,
        }
    }

    #[test]
    fn all_covers_every_reason() {
        // Exhaustive on purpose: a new variant does not compile until it is
        // chained in here, and then the walk no longer equals `ALL`.
        fn next(r: ShedReason) -> Option<ShedReason> {
            match r {
                ShedReason::QueueFull => Some(ShedReason::BadSource),
                ShedReason::BadSource => Some(ShedReason::BadSourceSet),
                ShedReason::BadSourceSet => Some(ShedReason::ShuttingDown),
                ShedReason::ShuttingDown => Some(ShedReason::Rebuilding),
                ShedReason::Rebuilding => None,
            }
        }
        let walk: Vec<ShedReason> =
            std::iter::successors(Some(ShedReason::QueueFull), |&r| next(r)).collect();
        assert_eq!(walk, ShedReason::ALL);
    }

    #[test]
    fn oversubscription_sheds_the_newcomer() {
        let mut q = AdmissionQueue::new(2);
        assert!(q.admit(bfs(0), 0.0).is_ok());
        assert!(q.admit(bfs(1), 0.5).is_ok());
        assert_eq!(q.admit(bfs(2), 1.0), Err(ShedReason::QueueFull));
        // The admitted two are intact and in order.
        let drained = q.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].seq, 0);
        assert_eq!(drained[1].seq, 1);
        assert_eq!(drained[1].admit_clock, 0.5);
        // Draining frees capacity.
        assert!(q.admit(bfs(2), 1.0).is_ok());
        assert_eq!(q.depth(), 1);
        assert_eq!(q.admitted_total(), 3);
    }
}
