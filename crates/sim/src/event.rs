//! The event queue: a monotone radix heap with deterministic tie-breaking.
//!
//! The queue is the simulator's innermost loop: every tuple costs
//! several push/pop round-trips. A discrete-event clock never runs
//! backwards, so the queue is a radix heap (Ahuja, Mehlhorn, Orlin &
//! Tarjan, 1990) keyed on the event time alone. Bucket `b` holds the
//! entries whose highest bit differing from the last popped time is
//! bit `b`; a FIFO holds the entries at exactly that time. A pop that
//! finds the FIFO empty moves the lowest non-empty bucket's minimum into
//! the base time and redistributes that bucket into lower ones, so each
//! entry moves at most 64 times over its life and a pop costs amortised
//! O(1) whatever the depth.
//!
//! Pop order is the strict total order `(time, insertion order)`, the
//! same as the `BinaryHeap<(time, seq)>` it is checked against, with no
//! sequence number stored: entries with equal times always share a
//! bucket (the bucket is a function of the time and the base), every
//! bucket keeps insertion order, and a redistribution walks its bucket
//! in order into buckets that are empty.
//!
//! Contract: a push earlier than the last popped time panics. The
//! engine only pushes at or after its clock, which never falls behind
//! the last popped time.

use crate::fault::FaultKind;
use std::collections::VecDeque;
use tstorm_topology::SharedValues;
use tstorm_trace::SpanChain;
use tstorm_types::{ExecutorId, NodeId, SimTime, SlabHandle, TupleId};

/// Routing/acking metadata carried by every in-flight message.
///
/// Envelopes are heap-boxed once and recycled through the engine's
/// free-list pool; the payload is a [`SharedValues`] (`Arc<[Value]>`) so
/// fan-out (one emit delivered to many consumer tasks) bumps a refcount
/// instead of deep-cloning the values per destination, and envelopes may
/// cross thread boundaries.
///
/// Every in-flight tuple holds one boxed envelope, so its size is the
/// data plane's memory per tuple. It is 88 bytes (a 96-byte allocator
/// chunk): one timestamp serves both waiting intervals, and the acker
/// XOR rides in `edge_id` so [`EnvelopeKind`] is a one-byte tag.
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
    /// A data tuple's XOR edge id. For [`EnvelopeKind::AckerInit`] and
    /// [`EnvelopeKind::AckerAck`] it is the XOR the acker folds into the
    /// root; for [`EnvelopeKind::Complete`] it is 0.
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
    /// worker and is dropped on delivery.
    pub dst_epoch: u32,
    /// What the message is.
    pub kind: EnvelopeKind,
    /// Causal span chain from the root's emit up to (and including) the
    /// network hop that carried this message. `None` whenever span
    /// collection is disabled, so the inert path never allocates.
    pub chain: SpanChain,
    /// Start of the interval the envelope is waiting in. Inside a
    /// pending batch it is the staging time: the tuple's network span
    /// segment covers staging → delivery, so span components keep
    /// summing to root latency exactly even when one batch carries
    /// tuples staged at different times. From arrival on it is the time
    /// the envelope entered the destination's input queue: the gap to
    /// service start is the queue span.
    pub waiting_since: SimTime,
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

/// Message kinds: data tuples and the ack-tree control messages. The
/// XOR an acker message carries is its envelope's `edge_id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeKind {
    /// A data tuple between user components.
    Data,
    /// Spout → acker: registers a root with the XOR of its initial edges.
    AckerInit,
    /// Bolt → acker: input edge id XOR ids of anchored output edges.
    AckerAck,
    /// Acker → spout: the root completed (carried for traffic realism;
    /// latency is recorded when the acker zeroes the XOR).
    Complete,
}

/// A scheduled simulation event: 16 bytes, a tag and one word.
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
    /// An executor becomes available again (worker restarted/ready).
    ExecutorResume(ExecutorId),
    /// A scheduled [`FaultKind`] from a fault plan fires. Recovery is
    /// left to the control plane: the engine only drops state and marks
    /// liveness, and the scheduler re-places the orphaned executors.
    /// Boxed: faults are rare, and the inline kind would grow every
    /// queue entry by half.
    Fault(Box<FaultKind>),
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

/// One pending event. 24 bytes: the time and a 16-byte [`Event`].
struct Entry {
    at: SimTime,
    event: Event,
}

/// A drained bucket keeps its buffer for reuse only up to this many
/// entries; larger buffers are freed, so the queue's total capacity
/// stays proportional to its live entries after a burst.
const RETAINED_CAPACITY: usize = 1024;

/// A deterministic earliest-first event queue (monotone radix heap).
pub struct EventQueue {
    /// The entries at exactly `base`, in insertion order.
    due: VecDeque<Event>,
    /// `buckets[b]`: entries whose time's highest bit differing from
    /// `base` is bit `b`, in insertion order.
    buckets: [Vec<Entry>; 64],
    /// `mins[b]`: the earliest time in `buckets[b]` (`u64::MAX` if empty).
    mins: [u64; 64],
    /// Bit `b` set iff `buckets[b]` is non-empty.
    occupied: u64,
    /// The last popped time, in microseconds; no push may be earlier.
    base: u64,
    len: usize,
    high_water: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self {
            due: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            mins: [u64::MAX; 64],
            occupied: 0,
            base: 0,
            len: 0,
            high_water: 0,
        }
    }
}

impl EventQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an event at `at`.
    ///
    /// # Panics
    ///
    /// If `at` is earlier than the last popped time: the queue is
    /// monotone.
    #[inline]
    pub fn push(&mut self, at: SimTime, event: Event) {
        let key = at.as_micros();
        assert!(
            key >= self.base,
            "event at {at} pushed before the last popped time {}",
            SimTime::from_micros(self.base)
        );
        if key == self.base {
            self.due.push_back(event);
        } else {
            self.file(Entry { at, event });
        }
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pop_due(SimTime::MAX)
    }

    /// Pops the earliest event if it is due at or before `until`. An
    /// event that is not due leaves the queue as it was: pushes at any
    /// time from the last popped one on stay valid.
    #[inline]
    pub fn pop_due(&mut self, until: SimTime) -> Option<(SimTime, Event)> {
        if self.due.is_empty() {
            if self.occupied == 0 {
                return None;
            }
            let b = self.occupied.trailing_zeros() as usize;
            if self.mins[b] > until.as_micros() {
                return None;
            }
            // Commit the lowest bucket's minimum as the new base.
            self.base = self.mins[b];
            self.mins[b] = u64::MAX;
            self.occupied &= !(1 << b);
            if self.buckets[b].len() == 1 {
                // Its one entry is the minimum: nothing to redistribute.
                let entry = self.buckets[b].pop().expect("one entry");
                self.len -= 1;
                return Some((entry.at, entry.event));
            }
            let bucket = std::mem::take(&mut self.buckets[b]);
            self.redistribute(b, bucket);
        } else if self.base > until.as_micros() {
            return None;
        }
        let event = self
            .due
            .pop_front()
            .expect("redistribute fills the due FIFO");
        self.len -= 1;
        Some((SimTime::from_micros(self.base), event))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest number of events ever pending at once — the queue's
    /// high-water mark, reported by the offline bench harness.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Files an entry later than `base` into its bucket.
    #[inline]
    fn file(&mut self, entry: Entry) {
        let key = entry.at.as_micros();
        let b = 63 - (key ^ self.base).leading_zeros() as usize;
        self.buckets[b].push(entry);
        self.mins[b] = self.mins[b].min(key);
        self.occupied |= 1 << b;
    }

    /// Redistributes bucket `b`, taken out after its minimum became the
    /// base: its entries at the base go to the (empty) due FIFO, the
    /// rest to buckets below `b`, which are empty too. Both walks keep
    /// insertion order.
    fn redistribute(&mut self, b: usize, mut bucket: Vec<Entry>) {
        debug_assert!(self.due.is_empty());
        if self.due.capacity() > RETAINED_CAPACITY {
            self.due = VecDeque::new();
        }
        for entry in bucket.drain(..) {
            if entry.at.as_micros() == self.base {
                self.due.push_back(entry.event);
            } else {
                self.file(entry);
            }
        }
        if bucket.capacity() <= RETAINED_CAPACITY {
            self.buckets[b] = bucket;
        }
    }
}

impl std::fmt::Debug for EventQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len)
            .field("base", &SimTime::from_micros(self.base))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spout_ids(q: &mut EventQueue) -> Vec<u32> {
        std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::SpoutTick(id) => id.index(),
                _ => unreachable!(),
            })
            .collect()
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
        assert_eq!(spout_ids(&mut q), vec![0, 1, 2]);
    }

    #[test]
    fn an_event_not_due_leaves_the_base_alone() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), Event::SpoutTick(ExecutorId::new(0)));
        assert!(q.pop_due(SimTime::from_secs(5)).is_none());
        // A push between the last pop and the pending minimum is valid.
        q.push(SimTime::from_secs(5), Event::SpoutTick(ExecutorId::new(1)));
        assert_eq!(spout_ids(&mut q), vec![1, 0]);
    }

    #[test]
    fn len_and_high_water_track_pending_and_peak() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        for s in 0..10 {
            q.push(SimTime::from_secs(s), Event::SupervisorPoll);
        }
        assert_eq!(q.len(), 10);
        for _ in 0..10 {
            let _ = q.pop();
        }
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        assert_eq!(q.high_water(), 10);
    }

    #[test]
    fn drained_buffers_are_released_after_a_burst() {
        let mut q = EventQueue::new();
        let burst = 10 * RETAINED_CAPACITY as u64;
        for i in 0..burst {
            // Half the burst ties at one time, half is spread out.
            let at = 1 << 20 | if i % 2 == 0 { 0 } else { i };
            q.push(SimTime::from_micros(at), Event::SupervisorPoll);
        }
        while q.pop().is_some() {}
        q.push(SimTime::from_secs(10), Event::SupervisorPoll);
        let _ = q.pop();
        // Kept buffers hold at most RETAINED_CAPACITY slots each, and a
        // burst this narrow touches few buckets; keeping every buffer
        // would hold over 13k slots here.
        let retained = q.due.capacity() + q.buckets.iter().map(Vec::capacity).sum::<usize>();
        assert!(
            retained <= 4 * RETAINED_CAPACITY,
            "{retained} slots kept after the burst drained"
        );
    }

    /// Layout guards: the queue's and the data plane's memory per
    /// pending event and per in-flight tuple.
    #[test]
    fn event_and_envelope_stay_small() {
        assert_eq!(std::mem::size_of::<Event>(), 16);
        assert_eq!(std::mem::size_of::<Entry>(), 24);
        assert!(std::mem::size_of::<Envelope>() <= 88);
    }
}
