//! The event queue's order contract, checked pop for pop against a
//! `BinaryHeap<(time, seq)>` reference: earliest time first, and among
//! equal times, insertion order. Every event carries an id, so a pop
//! that returns the right time but the wrong one of several tied events
//! fails.
//!
//! Pushes are monotone, as the engine's are: never before the last
//! popped time. The horizons pushes are drawn from range from 4 µs,
//! where almost every push ties, to 2^40 µs, where they spread over
//! every bucket of a 64-bit key.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tstorm::sim::event::{Event, EventQueue};
use tstorm::types::{DetRng, ExecutorId, NodeId, SimTime};

/// An event that names `id`, drawn from several variants.
fn event(id: u32) -> Event {
    match id % 4 {
        0 => Event::SpoutTick(ExecutorId::new(id)),
        1 => Event::ProcessDone(ExecutorId::new(id)),
        2 => Event::ExecutorResume(ExecutorId::new(id)),
        _ => Event::NodeRestart(NodeId::new(id)),
    }
}

fn id_of(event: &Event) -> u32 {
    match event {
        Event::SpoutTick(e) | Event::ProcessDone(e) | Event::ExecutorResume(e) => e.index(),
        Event::NodeRestart(n) => n.index(),
        other => panic!("unexpected event {other:?}"),
    }
}

/// The queue under test and the reference, fed the same operations.
struct Pair {
    queue: EventQueue,
    reference: BinaryHeap<Reverse<(u64, u64, u32)>>,
    next_id: u32,
    /// The last popped time: no push may be earlier.
    floor: u64,
    pops: usize,
}

impl Pair {
    fn push(&mut self, at: u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push(SimTime::from_micros(at), event(id));
        self.reference.push(Reverse((at, u64::from(id), id)));
    }

    /// Pops from both if the reference's earliest event is due by
    /// `until`, and checks that both return the same time and event.
    fn pop_due(&mut self, until: u64) -> bool {
        let expected = match self.reference.peek() {
            Some(&Reverse((at, _, id))) if at <= until => Some((at, id)),
            _ => None,
        };
        let got = self
            .queue
            .pop_due(SimTime::from_micros(until))
            .map(|(at, e)| (at.as_micros(), id_of(&e)));
        assert_eq!(got, expected, "pop {} diverged", self.pops);
        if let Some((at, _)) = expected {
            self.reference.pop();
            self.floor = at;
            self.pops += 1;
        }
        assert_eq!(self.queue.len(), self.reference.len());
        expected.is_some()
    }
}

#[test]
fn radix_queue_matches_the_binary_heap_pop_for_pop() {
    let mut rng = DetRng::seed_from(0x5eed_0e0e);
    let mut pair = Pair {
        queue: EventQueue::new(),
        reference: BinaryHeap::new(),
        next_id: 0,
        floor: 0,
        pops: 0,
    };
    let horizons: [u64; 6] = [4, 64, 1 << 10, 1 << 20, 1 << 30, 1 << 40];
    let mut ops = 0usize;
    for round in 0..60 {
        let horizon = horizons[round % horizons.len()];
        for _ in 0..4_000 {
            ops += 1;
            match rng.below(8) {
                // Pushes: a third tie exactly at the last popped time.
                0..=2 => {
                    let offset = if rng.below(3) == 0 {
                        0
                    } else {
                        rng.next_u64() % horizon
                    };
                    pair.push(pair.floor + offset);
                }
                // Pops with no horizon.
                3..=5 => {
                    pair.pop_due(u64::MAX);
                }
                // A horizon that may fall short of the earliest event;
                // then, as the engine's control plane does between
                // `run_until` calls, push at that horizon.
                _ => {
                    let until = pair.floor + rng.next_u64() % horizon;
                    if !pair.pop_due(until) {
                        pair.push(until);
                    }
                }
            }
        }
    }
    while pair.pop_due(u64::MAX) {
        ops += 1;
    }
    assert!(ops >= 200_000, "{ops} operations");
    assert!(pair.queue.is_empty());
    assert!(pair.pops > 50_000, "{} pops", pair.pops);
}

#[test]
#[should_panic(expected = "before the last popped time")]
fn a_push_before_the_last_popped_time_panics() {
    let mut queue = EventQueue::new();
    queue.push(SimTime::from_secs(5), Event::SupervisorPoll);
    let _ = queue.pop();
    queue.push(SimTime::from_secs(4), Event::SupervisorPoll);
}
