//! The event queue: a time-ordered heap with deterministic tie-breaking.
//!
//! The queue is the simulator's innermost loop — every tuple costs
//! several push/pop round-trips — so the default implementation is a
//! flat 4-ary min-heap: shallower than a binary heap (log₄ vs log₂
//! levels), with all four children of a node on one cache line of
//! entry indices. Ordering is the strict total order `(time, seq)`
//! where `seq` is the insertion sequence number, so pop order is
//! *identical* to the previous `BinaryHeap` implementation — heap shape
//! is unobservable; the queue tests check this pop for pop against a
//! `BinaryHeap` reference.

use crate::fault::FaultKind;
use tstorm_topology::SharedValues;
use tstorm_trace::SpanChain;
use tstorm_types::{ExecutorId, NodeId, SimTime, SlabHandle, SlotId, TupleId};

/// Routing/acking metadata carried by every in-flight message.
///
/// Envelopes are heap-boxed once and recycled through the engine's
/// free-list pool; the payload is a [`SharedValues`] (`Arc<[Value]>`) so
/// fan-out (one emit delivered to many consumer tasks) bumps a refcount
/// instead of deep-cloning the values per destination, and envelopes may
/// cross thread boundaries.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Tuple payload (empty for acker control messages), shared across
    /// every destination of the same emit.
    pub values: SharedValues,
    /// Producing executor.
    pub src: ExecutorId,
    /// Consuming executor.
    pub dst: ExecutorId,
    /// Destination task index within the consuming component.
    pub dst_task: u32,
    /// This edge-tuple's XOR id.
    pub edge_id: u64,
    /// The spout tuple this message is anchored to, if any (kept for
    /// traces and display even after the root's state is gone).
    pub root: Option<TupleId>,
    /// Slab handle of the anchored root's live state. `None` for
    /// unanchored messages and for `Complete` notifications, whose root
    /// state is already retired. Generation-checked on use, so a stale
    /// handle (root completed/timed out, slot reused) can never touch
    /// the wrong root.
    pub root_handle: Option<SlabHandle>,
    /// Restart epoch of the destination executor at send time; a message
    /// addressed to an older epoch was in flight when Storm killed the
    /// worker and is dropped on delivery (Immediate mode only).
    pub dst_epoch: u32,
    /// What the message is.
    pub kind: EnvelopeKind,
    /// Causal span chain from the root's emit up to (and including) the
    /// network hop that carried this message. `None` whenever span
    /// collection is disabled, so the inert path never allocates.
    pub chain: SpanChain,
    /// When the envelope entered the destination executor's input queue;
    /// the gap to service start is the queue span.
    pub delivered_at: SimTime,
    /// When the tuple left its producer (entered a pending batch or, on
    /// the unbatched path, went straight on the wire). The per-tuple
    /// network span segment covers `staged_at → delivery`, so span
    /// components keep summing to root latency exactly even when one
    /// batch envelope carries many tuples staged at different times.
    pub staged_at: SimTime,
}

/// A coalesced transfer: every tuple staged by one (source executor,
/// destination executor) pair since the batch was opened, shipped as a
/// single event-queue entry with one network `delivery_time`
/// computation.
///
/// Layout is struct-of-arrays-friendly: the per-batch scalars
/// (endpoints, byte total, age) live inline while the variable-length
/// tuple payloads sit in one contiguous `Vec<Envelope>` whose capacity
/// the engine recycles through its batch pool.
#[derive(Debug)]
pub struct BatchEnvelope {
    /// Producing executor (one per batch — batches never mix sources).
    pub src: ExecutorId,
    /// Consuming executor (one per batch — the coalescing key).
    pub dst: ExecutorId,
    /// Sum of the staged tuples' payload bytes; the wire cost of the
    /// batch is this total plus a *single* frame header.
    pub payload_bytes: u64,
    /// Producer's service-completion count when the batch was opened;
    /// the flush age guard compares against the current count.
    pub opened_at_completion: u64,
    /// The staged tuples, in staging order.
    pub tuples: Vec<Envelope>,
}

/// Message kinds: data tuples and the ack-tree control messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeKind {
    /// A data tuple between user components.
    Data,
    /// Spout → acker: registers a root with the XOR of its initial edges.
    AckerInit {
        /// XOR of the edge ids the spout emitted for this root.
        xor: u64,
    },
    /// Bolt → acker: input edge id XOR ids of anchored output edges.
    AckerAck {
        /// The XOR contribution of one processed tuple.
        xor: u64,
    },
    /// Acker → spout: the root completed (carried for traffic realism;
    /// latency is recorded when the acker zeroes the XOR).
    Complete,
}

/// A scheduled simulation event.
#[derive(Debug)]
pub enum Event {
    /// A spout executor may try to emit.
    SpoutTick(ExecutorId),
    /// A message arrives at its destination executor.
    Deliver(Box<Envelope>),
    /// A coalesced batch of messages arrives at its destination
    /// executor; every tuple inside joins the input queue at once.
    DeliverBatch(Box<BatchEnvelope>),
    /// The executor finishes its in-service message.
    ProcessDone(ExecutorId),
    /// A root tuple's processing timeout fires. Carries the root's slab
    /// handle; if the root completed in time the handle is stale and the
    /// timeout is a generation-checked no-op.
    TupleTimeout(SlabHandle),
    /// Supervisors poll for a new assignment.
    SupervisorPoll,
    /// Smooth re-assignment: locations switch to the pending assignment.
    LocationSwitch,
    /// An executor becomes available again (worker restarted/ready).
    ExecutorResume(ExecutorId),
    /// A worker slot becomes ready (initial start).
    WorkerReady(SlotId),
    /// Fault injection: the worker in this slot crashes. Recoverable
    /// failures restart in place (Storm: "its supervisor will try to
    /// restart it on the same worker node"); unrecoverable ones force
    /// Nimbus to move the executors to a free slot on another node.
    WorkerFailure {
        /// The crashing worker's slot.
        slot: SlotId,
        /// Whether the supervisor's in-place restart succeeds.
        recoverable: bool,
    },
    /// A scheduled [`FaultKind`] from a fault plan fires. Unlike
    /// [`Event::WorkerFailure`], recovery is left to the control plane:
    /// the engine only drops state and marks liveness, and the
    /// scheduler re-places the orphaned executors.
    Fault(FaultKind),
    /// A crashed node rejoins the cluster.
    NodeRestart(NodeId),
    /// A transient NIC slowdown ends.
    NicRestore(NodeId),
    /// Smooth per-node re-assignment: one node's workers finished
    /// pre-starting and that node alone switches to its pending slice.
    /// Other nodes may still be running an older assignment epoch.
    NodeLocationSwitch(NodeId),
    /// Nimbus comes back after a [`FaultKind::NimbusCrash`] window.
    NimbusRestore,
    /// A [`FaultKind::HeartbeatLoss`] window ends: the node's heartbeat
    /// stream reaches Nimbus again.
    HeartbeatRestore(NodeId),
}

struct Entry {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl Entry {
    /// Strict earliest-first total order: time, then insertion sequence.
    #[inline]
    fn before(&self, other: &Self) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

/// Fan-out of the d-ary heap. Four keeps the tree shallow while the
/// worst-case sift-down still scans only a handful of entries.
const ARITY: usize = 4;

/// A deterministic earliest-first event queue (4-ary min-heap).
#[derive(Default)]
pub struct EventQueue {
    entries: Vec<Entry>,
    next_seq: u64,
    high_water: usize,
}

impl EventQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an event at `at`.
    pub fn push(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(Entry { at, seq, event });
        self.sift_up(self.entries.len() - 1);
        self.high_water = self.high_water.max(self.entries.len());
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        if self.entries.is_empty() {
            return None;
        }
        let last = self.entries.len() - 1;
        self.entries.swap(0, last);
        let entry = self.entries.pop().expect("non-empty");
        if !self.entries.is_empty() {
            self.sift_down(0);
        }
        Some((entry.at, entry.event))
    }

    /// Time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.entries.first().map(|e| e.at)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Largest number of events ever pending at once — the queue's
    /// high-water mark, reported by the offline bench harness.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.entries[i].before(&self.entries[parent]) {
                self.entries.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.entries.len();
        loop {
            let first_child = i * ARITY + 1;
            if first_child >= len {
                break;
            }
            let mut min = first_child;
            let end = (first_child + ARITY).min(len);
            for c in first_child + 1..end {
                if self.entries[c].before(&self.entries[min]) {
                    min = c;
                }
            }
            if self.entries[min].before(&self.entries[i]) {
                self.entries.swap(i, min);
                i = min;
            } else {
                break;
            }
        }
    }
}

impl std::fmt::Debug for EventQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.entries.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;
    use tstorm_types::DetRng;

    /// The previous `std::collections::BinaryHeap`-backed queue: the
    /// pop-order reference the 4-ary heap is checked against.
    #[derive(Default)]
    struct BinaryEventQueue {
        heap: BinaryHeap<Entry>,
        next_seq: u64,
    }

    impl BinaryEventQueue {
        fn push(&mut self, at: SimTime, event: Event) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { at, seq, event });
        }

        fn pop(&mut self) -> Option<(SimTime, Event)> {
            self.heap.pop().map(|e| (e.at, e.event))
        }

        fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }
    }

    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; invert for earliest-first, with
            // the insertion sequence breaking ties deterministically.
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), Event::SupervisorPoll);
        q.push(SimTime::from_secs(1), Event::SupervisorPoll);
        q.push(SimTime::from_secs(2), Event::SupervisorPoll);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_secs())
            .collect();
        assert_eq!(times, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.push(t, Event::SpoutTick(ExecutorId::new(0)));
        q.push(t, Event::SpoutTick(ExecutorId::new(1)));
        q.push(t, Event::SpoutTick(ExecutorId::new(2)));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::SpoutTick(id) => id.index(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(5), Event::SupervisorPoll);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.high_water(), 1);
    }

    #[test]
    fn high_water_tracks_peak_not_current() {
        let mut q = EventQueue::new();
        for s in 0..10 {
            q.push(SimTime::from_secs(s), Event::SupervisorPoll);
        }
        for _ in 0..10 {
            let _ = q.pop();
        }
        assert!(q.is_empty());
        assert_eq!(q.high_water(), 10);
    }

    #[test]
    fn quaternary_heap_matches_binary_heap_pop_for_pop() {
        // Interleaved pushes and pops with heavy time ties: both heaps
        // must produce the identical (time, seq) pop sequence, because
        // the engine's determinism contract rides on it.
        let mut rng = DetRng::seed_from(0xbeef);
        let mut quad = EventQueue::new();
        let mut bin = BinaryEventQueue::default();
        let mut popped = 0usize;
        let mut pushed = 0usize;
        while pushed < 5_000 || popped < 5_000 {
            let push = pushed < 5_000 && (popped >= pushed || rng.below(3) > 0);
            if push {
                let at = SimTime::from_micros(rng.below(64) as u64);
                quad.push(at, Event::SupervisorPoll);
                bin.push(at, Event::SupervisorPoll);
                pushed += 1;
            } else {
                let a = quad.pop().map(|(t, _)| t);
                let b = bin.pop().map(|(t, _)| t);
                assert_eq!(a, b, "pop {popped} diverged");
                popped += 1;
            }
        }
        assert!(quad.is_empty() && bin.is_empty());
    }
}
