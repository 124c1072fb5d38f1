//! Fault injection: scheduling a [`FaultPlan`] and applying each of its
//! events. The engine only drops state and marks liveness; re-placing
//! orphaned executors is the control plane's job.

use super::Simulation;
use crate::event::Event;
use crate::fault::{FaultKind, FaultPlan};
use tstorm_trace::TraceEvent;
use tstorm_types::{ExecutorId, NodeId, Result, SlotId, TStormError};

impl Simulation {
    /// Schedules every event of a [`FaultPlan`]. Crashes never restart
    /// in place: the engine drops the workers' state and marks node
    /// liveness, and recovery is the control plane's job (detect
    /// orphaned executors, re-run the scheduler, apply the new
    /// assignment). Node crashes with a `restart` rejoin later; NIC
    /// slowdowns, Nimbus crashes and heartbeat losses end after their
    /// duration. The plan is checked whole before anything is queued.
    ///
    /// # Errors
    ///
    /// Returns [`TStormError::InvalidConfig`] if a fault is scheduled
    /// before the current time, targets a node or node-local slot
    /// outside the cluster, or ends past the last representable
    /// [`SimTime`](tstorm_types::SimTime).
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) -> Result<()> {
        let mut scheduled = Vec::with_capacity(2 * plan.len());
        for event in plan.events() {
            if event.at < self.clock {
                return Err(TStormError::invalid_config(
                    "--fault",
                    format!(
                        "{} at {} is before the current time {}",
                        event.kind.name(),
                        event.at,
                        self.clock
                    ),
                ));
            }
            if let Some(node) = event.kind.node() {
                if node.as_usize() >= self.cluster.num_nodes() {
                    return Err(TStormError::invalid_config(
                        "--fault",
                        format!(
                            "{} targets node {node}, but the cluster has {} nodes",
                            event.kind.name(),
                            self.cluster.num_nodes()
                        ),
                    ));
                }
            }
            let restore = match event.kind {
                FaultKind::WorkerCrash { node, local_slot } => {
                    let slots = self.cluster.node(node).num_slots;
                    if local_slot >= slots {
                        return Err(TStormError::invalid_config(
                            "--fault",
                            format!("node {node} has {slots} slots, no local slot {local_slot}"),
                        ));
                    }
                    None
                }
                FaultKind::NodeCrash { node, .. } => Some(Event::NodeRestart(node)),
                FaultKind::NicSlowdown { node, .. } => Some(Event::NicRestore(node)),
                FaultKind::NimbusCrash { .. } => Some(Event::NimbusRestore),
                FaultKind::HeartbeatLoss { node, .. } => Some(Event::HeartbeatRestore(node)),
            };
            if let (Some(after), Some(restore)) = (event.kind.lasts(), restore) {
                let at = event.at.checked_add(after).ok_or_else(|| {
                    TStormError::invalid_config(
                        "--fault",
                        format!(
                            "{} at {} ends {} later, past the simulated time range",
                            event.kind.name(),
                            event.at,
                            after
                        ),
                    )
                })?;
                scheduled.push((at, restore));
            }
            scheduled.push((event.at, Event::Fault(Box::new(event.kind.clone()))));
        }
        for (at, event) in scheduled {
            self.queue.push(at, event);
        }
        Ok(())
    }

    /// True while a [`FaultKind::NimbusCrash`] window is open — the
    /// control plane must make no generation/recovery decisions.
    #[must_use]
    pub fn nimbus_down(&self) -> bool {
        self.nimbus_down
    }

    /// True while a [`FaultKind::HeartbeatLoss`] window mutes this
    /// node's heartbeat stream (the node itself keeps working).
    #[must_use]
    pub fn heartbeat_suppressed(&self, node: NodeId) -> bool {
        self.heartbeat_muted[node.as_usize()]
    }

    /// Live executors the current assignment does not place anywhere —
    /// the signal the control plane watches to detect that a crash
    /// orphaned executors and a recovery schedule is needed.
    #[must_use]
    pub fn unplaced_executors(&self) -> usize {
        self.executors
            .iter()
            .enumerate()
            .filter(|(i, e)| e.alive && self.current.slot_of(ExecutorId::new(*i as u32)).is_none())
            .count()
    }

    /// Fault-plan events fired so far.
    #[must_use]
    pub fn faults_injected(&self) -> u32 {
        self.faults_injected
    }

    /// Tuples destroyed by fault-plan crashes: queued or in service at
    /// the crash instant, plus in-flight messages dropped because the
    /// crash left their destination (or source) unplaced. Routine drops
    /// from scheduler-driven relocation stay in
    /// [`Simulation::dropped_in_flight`].
    #[must_use]
    pub fn tuples_lost(&self) -> u64 {
        self.tuples_lost
    }

    /// One fault-plan event fires. Crashes drop worker state and leave
    /// the victims unassigned — the monitoring loop notices at its next
    /// round and re-runs the scheduler against the shrunken cluster.
    pub(super) fn on_fault(&mut self, kind: &FaultKind) {
        self.faults_injected += 1;
        let node = kind.node();
        // Resolve a worker crash's slot exactly once: the `FaultInjected`
        // trace event and the crash below must name the same slot, and
        // `slots_of(..).nth(..)` is an O(slots) walk.
        let crashed_slot = match kind {
            FaultKind::WorkerCrash { node, local_slot } => Some(
                self.cluster
                    .slots_of(*node)
                    .nth(*local_slot as usize)
                    .map(|s| s.slot)
                    .expect("validated by apply_fault_plan"),
            ),
            _ => None,
        };
        let worker = crashed_slot.map(|s| s.index());
        let name = kind.name();
        self.emit_trace(|| TraceEvent::FaultInjected {
            kind: name.to_owned(),
            node: node.map(|n| n.index()),
            worker,
        });
        self.observer.metrics(|m| {
            m.inc_counter(
                "tstorm_faults_injected_total",
                "Fault-plan events fired",
                &[("kind", name)],
                1,
            );
        });
        match kind {
            FaultKind::WorkerCrash { .. } => {
                let slot = crashed_slot.expect("resolved above for the trace event");
                self.recovery_fault_at = Some(self.clock);
                self.recovery_reassigned = false;
                self.crash_slot(slot);
                self.recompute_node_stats();
                self.record_usage();
            }
            FaultKind::NodeCrash { node, .. } => {
                self.cluster.set_node_live(*node, false);
                self.recovery_fault_at = Some(self.clock);
                self.recovery_reassigned = false;
                let slots: Vec<SlotId> = self.cluster.slots_of(*node).map(|s| s.slot).collect();
                for slot in slots {
                    self.crash_slot(slot);
                }
                self.recompute_node_stats();
                self.record_usage();
            }
            FaultKind::NicSlowdown { node, factor, .. } => {
                self.network.set_slow_factor(*node, *factor);
            }
            FaultKind::NimbusCrash { .. } => {
                self.nimbus_down = true;
            }
            FaultKind::HeartbeatLoss { node, .. } => {
                self.heartbeat_muted[node.as_usize()] = true;
            }
        }
    }

    /// Kills one worker process without restarting it: its executors'
    /// queued and in-service tuples are destroyed, in-flight messages to
    /// it will be dropped on delivery (epoch mismatch), and the
    /// executors stay unassigned until a future assignment places them.
    fn crash_slot(&mut self, slot: SlotId) {
        let victims: Vec<usize> = self
            .executors
            .iter()
            .enumerate()
            .filter(|(_, e)| e.location == Some(slot))
            .map(|(i, _)| i)
            .collect();
        if victims.is_empty() {
            return; // empty slot: nothing to kill
        }
        {
            let node = self.cluster.node_of(slot).index();
            let worker = slot.index();
            self.emit_trace(|| TraceEvent::WorkerStop { node, worker });
        }
        let mut lost = 0u64;
        for i in victims {
            if let Some(work) = self.executors[i].busy.take() {
                self.release_cpu(work.busy_node);
                lost += 1;
                if let Some(env) = work.env {
                    self.recycle_envelope(env);
                }
            }
            lost += self.drain_queue_to_pool(i);
            lost += self.drop_pending_outbound(i);
            let e = &mut self.executors[i];
            e.epoch += 1;
            e.location = None;
            e.paused_until = None;
            self.current.unassign(ExecutorId::new(i as u32));
        }
        self.note_tuple_lost(lost);
    }

    /// Counts tuples destroyed by a fault — at the crash instant or
    /// dropped later because a crash left their destination unplaced.
    pub(super) fn note_tuple_lost(&mut self, n: u64) {
        self.tuples_lost += n;
        self.observer.metrics(|m| {
            m.inc_counter(
                "tstorm_tuples_lost_total",
                "Queued or in-service tuples destroyed by crashes",
                &[],
                n,
            );
        });
    }

    /// A crashed node rejoins: its slots become schedulable again. No
    /// executors move here — the next schedule generation may use it.
    pub(super) fn on_node_restart(&mut self, node: NodeId) {
        self.cluster.set_node_live(node, true);
        self.emit_trace(|| TraceEvent::FaultInjected {
            kind: "node_restart".to_owned(),
            node: Some(node.index()),
            worker: None,
        });
    }

    /// A Nimbus-crash window ends: the control plane may generate and
    /// recover again from its next decision point onwards.
    pub(super) fn on_nimbus_restore(&mut self) {
        self.nimbus_down = false;
        self.emit_trace(|| TraceEvent::FaultInjected {
            kind: "nimbus_restored".to_owned(),
            node: None,
            worker: None,
        });
    }

    /// A heartbeat-loss window ends: the node's next heartbeat reaches
    /// Nimbus again and reconciliation can begin.
    pub(super) fn on_heartbeat_restore(&mut self, node: NodeId) {
        self.heartbeat_muted[node.as_usize()] = false;
        self.emit_trace(|| TraceEvent::FaultInjected {
            kind: "heartbeat_restored".to_owned(),
            node: Some(node.index()),
            worker: None,
        });
    }

    /// A transient NIC slowdown ends.
    pub(super) fn on_nic_restore(&mut self, node: NodeId) {
        self.network.set_slow_factor(node, 1.0);
        self.emit_trace(|| TraceEvent::FaultInjected {
            kind: "nic_restored".to_owned(),
            node: Some(node.index()),
            worker: None,
        });
    }
}
