//! The benchmark's workloads: each builds one `TStormSystem` from the
//! seed alone and names the virtual horizon it runs to. All three are
//! open-loop in virtual time: producers emit at a fixed simulated rate
//! whatever the wall speed.

use tstorm_cli::args::ScaleClass;
use tstorm_cli::scenario::{scale_chain_params, scale_cluster};
use tstorm_cluster::ClusterSpec;
use tstorm_core::{SystemMode, TStormConfig, TStormSystem};
use tstorm_sim::TopologyHandle;
use tstorm_topology::{ComponentSpec, Topology};
use tstorm_types::{derive_seed, Mhz, SimTime};
use tstorm_workloads::wordcount::{self, WordCountParams, WordCountState};
use tstorm_workloads::{chain, transfer};

/// Consolidation factor γ of every T-Storm workload.
const GAMMA: f64 = 1.7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WordCount,
    Scale100,
    Overload,
}

/// A submitted, started system plus what the checks and layer replays
/// need to know about it.
pub struct Setup {
    pub system: TStormSystem,
    pub topology: Topology,
    pub handle: TopologyHandle,
    /// The Word Count substrates, to check the stored counts.
    pub wordcount: Option<WordCountState>,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::WordCount, Workload::Scale100, Workload::Overload];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WordCount => "wordcount",
            Workload::Scale100 => "scale-100",
            Workload::Overload => "overload",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Virtual time the run ends at. Both T-Storm horizons lie past the
    /// first 300 s schedule generation, so Algorithm 1 and the rollout
    /// are part of the measured run.
    pub fn horizon(self) -> SimTime {
        SimTime::from_secs(match self {
            Workload::WordCount => 320,
            Workload::Scale100 => 320,
            Workload::Overload => 60,
        })
    }

    /// The system configuration, a function of the seed alone.
    pub fn config(self, seed: u64) -> TStormConfig {
        let base = TStormConfig::default().with_seed(seed).with_gamma(GAMMA);
        match self {
            Workload::Overload => {
                // A saturated 10 Mbit/s link at batch size 1, under
                // Storm's static placement.
                let mut config = base.with_mode(SystemMode::StormDefault);
                config.sim.network.nic_bits_per_sec = 10_000_000;
                config
            }
            _ => base.with_mode(SystemMode::TStorm),
        }
    }

    /// Builds, submits and starts the workload (the timed set-up).
    pub fn setup(self, seed: u64) -> Setup {
        let config = self.config(seed);
        let program_seed = derive_seed(seed, self.name(), 0);
        match self {
            Workload::WordCount => {
                let cluster = ClusterSpec::homogeneous(10, 4, Mhz::new(8000.0)).expect("cluster");
                let mut system = TStormSystem::new(cluster, config).expect("config");
                let topology = wordcount::topology(&WordCountParams::paper()).expect("topology");
                let state = WordCountState::new();
                state.attach_corpus_producer(SimTime::ZERO, 300.0);
                let handle = submit(&mut system, &topology, &mut wordcount::factory(&state));
                Setup {
                    system,
                    topology,
                    handle,
                    wordcount: Some(state),
                }
            }
            Workload::Scale100 => {
                let cluster = scale_cluster(ScaleClass::Scale100).expect("cluster");
                let mut system = TStormSystem::new(cluster, config).expect("config");
                let p = scale_chain_params(ScaleClass::Scale100);
                let topology = chain::topology(&p).expect("topology");
                let handle = submit(
                    &mut system,
                    &topology,
                    &mut chain::factory(&p, program_seed),
                );
                plain(system, topology, handle)
            }
            Workload::Overload => {
                // Two single-slot nodes: both edges cross the slow link.
                let cluster = ClusterSpec::homogeneous(2, 1, Mhz::new(8000.0)).expect("cluster");
                let mut system = TStormSystem::new(cluster, config).expect("config");
                let p = transfer::TransferParams::overload();
                let topology = transfer::topology(&p).expect("topology");
                let handle = submit(
                    &mut system,
                    &topology,
                    &mut transfer::factory(&p, program_seed),
                );
                plain(system, topology, handle)
            }
        }
    }
}

fn submit(
    system: &mut TStormSystem,
    topology: &Topology,
    factory: &mut dyn FnMut(&ComponentSpec, u32) -> tstorm_sim::ExecutorLogic,
) -> TopologyHandle {
    let handle = system.submit(topology, factory).expect("submits");
    system.start().expect("starts");
    handle
}

fn plain(system: TStormSystem, topology: Topology, handle: TopologyHandle) -> Setup {
    Setup {
        system,
        topology,
        handle,
        wordcount: None,
    }
}
