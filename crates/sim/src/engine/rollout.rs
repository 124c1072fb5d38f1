//! Assignment rollout: the initial placement and the two ways a new
//! assignment reaches the workers, one per system mode.
//!
//! - Storm 0.8 ([`Simulation::submit_assignment`]): at the next
//!   supervisor poll every worker whose executor set changed is killed
//!   and restarted in one atomic step; its queued and in-flight tuples
//!   are lost.
//! - T-Storm ([`Simulation::apply_assignment_for_node`], Section IV-D):
//!   each supervisor applies its own node's slice when it fetches a new
//!   epoch. New workers pre-start, spouts halt until they are ready, and
//!   the node's locations switch in one step, so nothing is dropped.

use super::Simulation;
use crate::event::Event;
use std::collections::BTreeSet;
use tstorm_cluster::{Assignment, AssignmentDiff};
use tstorm_trace::TraceEvent;
use tstorm_types::{ExecutorId, NodeId, SlotId};

/// What a per-node assignment apply would change: executors moving onto
/// the node (with their target slot) and executors leaving it.
type NodeSliceChanges = (Vec<(ExecutorId, SlotId)>, Vec<ExecutorId>);

impl Simulation {
    /// Applies an assignment immediately (the initial schedule): all
    /// executors relocate, workers start after the configured startup
    /// delay, spouts begin emitting once their worker is ready.
    pub fn apply_assignment(&mut self, assignment: &Assignment) {
        let old_slots = self.current.slots_used();
        let diff = self.current.diff(assignment);
        let ready_at = self.clock + self.config.reassign.worker_startup;
        for i in 0..self.executors.len() {
            let id = ExecutorId::new(i as u32);
            let slot = assignment.slot_of(id);
            let exec = &mut self.executors[i];
            exec.location = slot;
            if slot.is_some() {
                exec.paused_until = Some(ready_at);
                self.queue.push(ready_at, Event::ExecutorResume(id));
            }
        }
        self.current = assignment.clone();
        self.note_assignment_change(&old_slots, &diff);
        self.recompute_node_stats();
        self.record_usage();
    }

    /// Submits a new assignment to Nimbus for Storm's rollout: at the
    /// next supervisor poll every worker whose executor set changed is
    /// killed and restarted in one atomic step (see
    /// [`Simulation::apply_assignment_for_node`] for T-Storm's per-node
    /// switch).
    pub fn submit_assignment(&mut self, assignment: &Assignment) {
        self.pending = Some(assignment.clone());
    }

    /// Supervisors poll: sample queue depths for the metrics registry
    /// and roll out a submitted assignment, if any.
    pub(super) fn on_supervisor_poll(&mut self) {
        self.queue.push(
            self.clock + self.config.reassign.supervisor_poll,
            Event::SupervisorPoll,
        );
        if self.observer.is_enabled() {
            // Sample queue occupancy on the supervisor grid: cheap, and
            // frequent enough to catch sustained backlog.
            let depths: Vec<(usize, usize)> = self
                .executors
                .iter()
                .enumerate()
                .map(|(i, e)| (i, e.queue.len()))
                .collect();
            self.observer.metrics(|m| {
                for (i, depth) in depths {
                    m.set_gauge(
                        "tstorm_queue_depth",
                        "Executor receive-queue depth at the last supervisor poll",
                        &[("executor", &i.to_string())],
                        depth as f64,
                    );
                }
            });
        }
        let Some(pending) = self.pending.take() else {
            return;
        };
        if pending == self.current {
            return;
        }
        self.reassignments += 1;
        self.rollout_immediate(&pending);
    }

    /// Storm 0.8 semantics: supervisors kill every worker whose executor
    /// set changed and start replacements; queued work and in-flight
    /// messages to those workers are lost (they time out and may be
    /// replayed).
    fn rollout_immediate(&mut self, new: &Assignment) {
        let old_slots = self.current.slots_used();
        let diff = self.current.diff(new);
        let ready_at = self.clock + self.config.reassign.worker_startup;
        for i in 0..self.executors.len() {
            let id = ExecutorId::new(i as u32);
            let old_slot = self.executors[i].location;
            let new_slot = new.slot_of(id);
            let affected = old_slot != new_slot
                || old_slot.is_some_and(|s| diff.changed_slots.contains(&s))
                || new_slot.is_some_and(|s| diff.changed_slots.contains(&s));
            self.executors[i].location = new_slot;
            if affected {
                if let Some(work) = self.executors[i].busy.take() {
                    // In-service work is lost with the worker.
                    self.release_cpu(work.busy_node);
                    if let Some(env) = work.env {
                        self.recycle_envelope(env);
                    }
                }
                self.drain_queue_to_pool(i);
                self.drop_pending_outbound(i);
                let e = &mut self.executors[i];
                e.epoch += 1;
                if new_slot.is_some() {
                    e.paused_until = Some(ready_at);
                    self.queue.push(ready_at, Event::ExecutorResume(id));
                }
            }
        }
        self.current = new.clone();
        self.note_assignment_change(&old_slots, &diff);
        self.recompute_node_stats();
        self.record_usage();
    }

    /// T-Storm's smooth rollout of one node (Section IV-D): applies the
    /// slice of `target` that this node's supervisor is responsible
    /// for, leaving every other node on whatever epoch it last applied.
    /// The node's new workers pre-start, every spout halts until they
    /// are ready, and the node's locations switch in one step once the
    /// startup delay elapses, so nothing in flight is dropped.
    ///
    /// The node picks up executors whose *new* slot lives on it
    /// (including executors currently unplaced or hosted elsewhere) and
    /// retires executors it currently hosts that `target` no longer
    /// places anywhere. Executors moving *off* this node to another one
    /// are left alone: the destination node's own apply collects them,
    /// so mid-rollout the cluster briefly runs a mix of epochs, as real
    /// Storm supervisors do.
    ///
    /// Returns `true` when the slice actually changed placements (which
    /// also counts as a reassignment); a no-op apply — the node was
    /// already running its slice of `target` — returns `false`.
    pub fn apply_assignment_for_node(&mut self, node: NodeId, target: &Assignment) -> bool {
        if self.node_slice_changes(node, target).is_none() {
            return false;
        }
        self.reassignments += 1;
        let switch_at = self.clock + self.config.reassign.worker_startup;
        let resume_at = switch_at + self.config.reassign.spout_halt_extra;
        for e in &mut self.executors {
            if e.is_spout && e.alive {
                e.spout_halt_until = e.spout_halt_until.max(resume_at);
            }
        }
        self.node_switching_to[node.as_usize()] = Some(target.clone());
        self.queue.push(switch_at, Event::NodeLocationSwitch(node));
        true
    }

    /// The executors a per-node apply would touch: `(incoming, retired)`
    /// — or `None` when the node already runs its slice of `target`.
    fn node_slice_changes(&self, node: NodeId, target: &Assignment) -> Option<NodeSliceChanges> {
        let mut incoming = Vec::new();
        let mut retired = Vec::new();
        for (i, e) in self.executors.iter().enumerate() {
            if !e.alive {
                continue;
            }
            let id = ExecutorId::new(i as u32);
            let new_slot = target.slot_of(id);
            match new_slot {
                Some(s) if self.cluster.node_of(s) == node => {
                    if e.location != Some(s) {
                        incoming.push((id, s));
                    }
                }
                None => {
                    if e.location.is_some_and(|s| self.cluster.node_of(s) == node) {
                        retired.push(id);
                    }
                }
                Some(_) => {} // moving to (or staying on) another node
            }
        }
        if incoming.is_empty() && retired.is_empty() {
            None
        } else {
            Some((incoming, retired))
        }
    }

    /// One node's smooth switch fires: apply its pending slice. The
    /// slice is recomputed against the *current* state so interleaved
    /// applies from other nodes (possibly of newer epochs) stay sound.
    pub(super) fn on_node_location_switch(&mut self, node: NodeId) {
        let Some(target) = self.node_switching_to[node.as_usize()].take() else {
            return;
        };
        let Some((incoming, retired)) = self.node_slice_changes(node, &target) else {
            return;
        };
        let before = self.current.clone();
        let old_slots = before.slots_used();
        for &(id, slot) in &incoming {
            self.executors[id.as_usize()].location = Some(slot);
            self.current.assign(id, slot);
        }
        for &id in &retired {
            self.executors[id.as_usize()].location = None;
            self.current.unassign(id);
        }
        let diff = before.diff(&self.current);
        self.note_assignment_change(&old_slots, &diff);
        self.recompute_node_stats();
        self.record_usage();
        // Kick the relocated executors awake under their new placement.
        for &(id, _) in &incoming {
            let i = id.as_usize();
            if self.is_available(i) {
                self.try_start(id);
                if self.executors[i].is_spout {
                    self.schedule_tick(id, self.executors[i].spout_halt_until);
                }
            }
        }
    }

    /// A restarted or freshly started worker is ready: its executor
    /// resumes service and, for a spout, emission.
    pub(super) fn on_resume(&mut self, id: ExecutorId) {
        let idx = id.as_usize();
        if let Some(t) = self.executors[idx].paused_until {
            if t <= self.clock {
                self.executors[idx].paused_until = None;
            }
        }
        self.try_start(id);
        if self.executors[idx].is_spout {
            self.schedule_tick(id, self.clock);
        }
    }

    /// Emits the worker/assignment trace events and counters for a
    /// just-applied assignment (`self.current` must already hold it).
    fn note_assignment_change(&mut self, old_slots: &BTreeSet<SlotId>, diff: &AssignmentDiff) {
        self.assignment_version += 1;
        let version = self.assignment_version;
        self.emit_trace(|| TraceEvent::AssignmentApplied {
            version,
            moved: diff.moved.len() as u64,
            added: diff.added.len() as u64,
            removed: diff.removed.len() as u64,
        });
        let new_slots = self.current.slots_used();
        for slot in new_slots.difference(old_slots) {
            let node = self.cluster.node_of(*slot).index();
            let worker = slot.index();
            self.emit_trace(|| TraceEvent::WorkerStart { node, worker });
        }
        for slot in old_slots.difference(&new_slots) {
            let node = self.cluster.node_of(*slot).index();
            let worker = slot.index();
            self.emit_trace(|| TraceEvent::WorkerStop { node, worker });
        }
        self.observer.metrics(|m| {
            m.inc_counter(
                "tstorm_assignments_applied_total",
                "Assignments applied to the cluster",
                &[],
                1,
            );
        });
        // A fault is pending recovery: the first assignment that places
        // or moves executors afterwards is the recovery placement.
        let placed = (diff.added.len() + diff.moved.len()) as u64;
        if self.recovery_fault_at.is_some() && !self.recovery_reassigned && placed > 0 {
            self.recovery_reassigned = true;
            self.emit_trace(|| TraceEvent::ExecutorsReassigned {
                version,
                count: placed,
            });
            self.observer.metrics(|m| {
                m.inc_counter(
                    "tstorm_recovery_reassignments_total",
                    "Assignments that re-placed executors after a fault",
                    &[],
                    1,
                );
            });
        }
    }
}
