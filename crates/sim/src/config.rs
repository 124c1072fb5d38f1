//! Simulation configuration: CPU, network and re-assignment models.

use serde::{Deserialize, Serialize};
use tstorm_types::SimTime;

/// CPU contention model parameters.
///
/// Each node has capacity `C_k` MHz split into cores of
/// [`CpuConfig::core_mhz`]. An executor runs at most one core's speed;
/// when a node hosts more executors than its capacity covers, every
/// executor slows to its processor-sharing fair share. Each worker process
/// beyond the first adds a context-switch tax — the effect that made the
/// paper's `n5w10` placement worse than `n5w5` (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuConfig {
    /// Speed of one core in MHz (the paper's testbed: 2.0 GHz Xeons).
    pub core_mhz: f64,
    /// Fractional service-rate loss per extra worker on a node.
    pub context_switch_tax_per_worker: f64,
    /// Upper bound on the total context-switch tax.
    pub max_context_switch_tax: f64,
    /// Relative jitter applied to each service time (uniform ±fraction).
    pub service_jitter: f64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self {
            core_mhz: 2000.0,
            context_switch_tax_per_worker: 0.04,
            max_context_switch_tax: 0.5,
            service_jitter: 0.1,
        }
    }
}

/// Network model parameters.
///
/// Tuple hand-off cost depends on where producer and consumer executors
/// run — the heart of Observation 1:
/// intra-worker (same JVM, in-memory queue) ≪ inter-process (same node,
/// loopback + serde) ≪ inter-node (serde + NIC + wire). Nodes crowded
/// with many worker processes additionally delay delivery because the
/// receiving worker's threads wait for CPU
/// ([`NetworkConfig::recv_sched_delay_per_extra_worker`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Same-executor-queue hand-off latency (µs).
    pub intra_worker_micros: u64,
    /// Same-node, different-worker latency (µs).
    pub inter_process_micros: u64,
    /// Base cross-node latency excluding transmission (µs).
    pub inter_node_micros: u64,
    /// Shared per-node NIC bandwidth in bits/second (paper: 1 Gbps).
    pub nic_bits_per_sec: u64,
    /// Extra delivery delay per additional worker process on the
    /// *destination* node (µs) — OS scheduling of crowded worker nodes.
    pub recv_sched_delay_per_extra_worker: u64,
    /// Fixed per-message framing overhead added to payload bytes.
    pub header_bytes: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self {
            intra_worker_micros: 15,
            inter_process_micros: 120,
            inter_node_micros: 500,
            nic_bits_per_sec: 1_000_000_000,
            recv_sched_delay_per_extra_worker: 350,
            header_bytes: 32,
        }
    }
}

/// How a new assignment is rolled out when supervisors detect it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReassignMode {
    /// Storm 0.8 semantics: affected workers are killed immediately and
    /// restarted; queued and in-flight tuples to those workers are lost
    /// (they will time out and may be replayed).
    Immediate,
    /// T-Storm semantics (Section IV-D): new workers start first, old
    /// workers are shut down after a delay, spouts halt until bolts are
    /// ready, and the per-slot dispatcher routes by assignment id — no
    /// tuple loss.
    Smooth,
}

/// Re-assignment timing parameters (Sections IV-C/IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReassignConfig {
    /// Rollout semantics.
    pub mode: ReassignMode,
    /// How often supervisors check for a new assignment (paper: 10 s).
    pub supervisor_poll: SimTime,
    /// Time for a freshly started worker (JVM) to become ready.
    pub worker_startup: SimTime,
    /// Smooth mode: how long old workers linger before shutdown
    /// (paper: 20 s = 2 × the checking period).
    pub old_worker_linger: SimTime,
    /// Smooth mode: extra delay before spouts resume after the switch
    /// (paper: 10 s).
    pub spout_halt_extra: SimTime,
}

impl Default for ReassignConfig {
    fn default() -> Self {
        Self {
            mode: ReassignMode::Smooth,
            supervisor_poll: SimTime::from_secs(10),
            worker_startup: SimTime::from_secs(2),
            old_worker_linger: SimTime::from_secs(20),
            spout_halt_extra: SimTime::from_secs(10),
        }
    }
}

impl ReassignConfig {
    /// Storm-default rollout (kill and restart immediately).
    #[must_use]
    pub fn storm() -> Self {
        Self {
            mode: ReassignMode::Immediate,
            ..Self::default()
        }
    }
}

/// Top-level simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Seed for the run's deterministic RNG.
    pub seed: u64,
    /// CPU model.
    pub cpu: CpuConfig,
    /// Network model.
    pub network: NetworkConfig,
    /// Re-assignment model.
    pub reassign: ReassignConfig,
    /// How long an idle spout waits before asking its source again.
    pub spout_idle_retry: SimTime,
    /// Whether timed-out tuples are replayed from the spout.
    pub replay_failed: bool,
    /// Maximum replays per spout tuple. Storm itself never gives up
    /// (`TOPOLOGY_MAX_SPOUT_PENDING` throttles but does not drop), so
    /// the default is effectively unbounded; scenarios can lower it to
    /// bound runaway feedback. A tuple that exhausts its replays is
    /// counted permanently failed and traced as `tuple_failed`.
    pub max_replays: u32,
    /// Transfer batching threshold: outbound tuples are coalesced per
    /// (source executor, destination executor) pair into one batch
    /// envelope flushed when it holds this many tuples, when the
    /// producing executor goes idle at a service-completion boundary,
    /// or when the batch ages past `batch_size` completions. `1` (the
    /// default) disables staging entirely and takes the original
    /// per-tuple send path, preserving pre-batching semantics exactly.
    pub batch_size: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            cpu: CpuConfig::default(),
            network: NetworkConfig::default(),
            reassign: ReassignConfig::default(),
            spout_idle_retry: SimTime::from_millis(5),
            replay_failed: true,
            max_replays: u32::MAX,
            batch_size: 1,
        }
    }
}

impl SimConfig {
    /// Builder-style seed override.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style re-assignment mode override.
    #[must_use]
    pub fn with_reassign_mode(mut self, mode: ReassignMode) -> Self {
        self.reassign.mode = mode;
        self
    }

    /// Builder-style transfer-batching threshold override. A value of
    /// `0` is treated as `1` (batching disabled) by the engine.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: u32) -> Self {
        self.batch_size = batch_size;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_table_ii() {
        let c = SimConfig::default();
        assert_eq!(c.reassign.supervisor_poll, SimTime::from_secs(10));
        assert_eq!(c.reassign.old_worker_linger, SimTime::from_secs(20));
        assert_eq!(c.reassign.spout_halt_extra, SimTime::from_secs(10));
        assert_eq!(c.network.nic_bits_per_sec, 1_000_000_000);
        assert_eq!(c.reassign.mode, ReassignMode::Smooth);
    }

    #[test]
    fn replay_cap_defaults_to_unbounded() {
        // Storm replays until the tuple completes; the cap exists only
        // for scenarios that opt into bounded retries.
        let c = SimConfig::default();
        assert!(c.replay_failed);
        assert_eq!(c.max_replays, u32::MAX);
    }

    #[test]
    fn storm_reassign_is_immediate() {
        assert_eq!(ReassignConfig::storm().mode, ReassignMode::Immediate);
    }

    #[test]
    fn builders_override() {
        let c = SimConfig::default()
            .with_seed(7)
            .with_reassign_mode(ReassignMode::Immediate)
            .with_batch_size(16);
        assert_eq!(c.seed, 7);
        assert_eq!(c.reassign.mode, ReassignMode::Immediate);
        assert_eq!(c.batch_size, 16);
    }

    #[test]
    fn batching_is_off_by_default() {
        // batch_size == 1 must preserve pre-batching semantics exactly,
        // so it has to be the default.
        assert_eq!(SimConfig::default().batch_size, 1);
    }

    #[test]
    fn hop_latency_ordering_holds() {
        let n = NetworkConfig::default();
        assert!(n.intra_worker_micros < n.inter_process_micros);
        assert!(n.inter_process_micros < n.inter_node_micros);
    }
}
