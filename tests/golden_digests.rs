//! Golden trace digests: the behaviour spec of the simulator.
//!
//! Each run streams its JSONL trace through [`JsonlWriter`] into a
//! 64-bit FNV-1a digest, without keeping the trace, and compares the
//! digest and line count with constants pinned from a reference build.
//! Any change to what is emitted, in which order, with which ids or at
//! which virtual time moves the digest.
//!
//! The constants were computed before the dense pair-counter backend
//! and the `--workers` observability lanes were removed. At that point
//! the dense backend, four lane threads, and both together gave the
//! same digests as the default serial sparse run, and the three runs
//! that mirror a `tstorm run` command gave the same digest as the
//! trace file that command writes.

use std::hash::Hasher;
use std::io::{self, Write};
use tstorm::cluster::ClusterSpec;
use tstorm::core::{SystemMode, TStormConfig, TStormSystem};
use tstorm::sim::routing::StableHasher;
use tstorm::sim::FaultPlan;
use tstorm::trace::{JsonlWriter, Observer, SharedSink};
use tstorm::types::{Mhz, SimTime};
use tstorm::workloads::throughput::{self, ThroughputParams};
use tstorm::workloads::transfer::{self, TransferParams};
use tstorm::workloads::wordcount::{self, WordCountParams, WordCountState};
use tstorm_bench::experiments::{cluster10, paper_config};

/// A `Write` that folds its bytes into a 64-bit FNV-1a digest.
#[derive(Default)]
struct Digest(StableHasher);

impl Write for Digest {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One traced run: the system is built, observed, submitted, started,
/// given its fault plan and run to the horizon, in `tstorm run`'s order.
struct Run {
    cluster: ClusterSpec,
    config: TStormConfig,
    spans: bool,
    faults: &'static [&'static str],
    until_secs: u64,
    submit: fn(&mut TStormSystem),
}

impl Run {
    /// The trace's FNV-1a digest and line count.
    fn digest(self) -> (u64, u64) {
        let mut system = TStormSystem::new(self.cluster, self.config).expect("valid config");
        let sink = SharedSink::new(JsonlWriter::new(Digest::default()));
        system.set_observer(Observer::builder().sink(Box::new(sink.handle())).build());
        if self.spans {
            system.enable_spans();
        }
        (self.submit)(&mut system);
        system.start().expect("starts");
        let plan = FaultPlan::from_specs(self.faults).expect("valid fault plan");
        system
            .simulation_mut()
            .apply_fault_plan(&plan)
            .expect("plan applies");
        system
            .run_until(SimTime::from_secs(self.until_secs))
            .expect("runs");
        sink.with(|w| (w.get_ref().0.finish64(), w.lines_written()))
    }
}

/// The configuration `tstorm run` builds from its defaults.
fn cli_config() -> TStormConfig {
    let mut config = TStormConfig::default()
        .with_mode(SystemMode::TStorm)
        .with_gamma(1.7)
        .with_seed(42)
        .with_scheduler("t-storm");
    config.heartbeat_period = SimTime::from_secs(5);
    config.fetch_jitter = 0.2;
    config
}

fn cluster_10x4() -> ClusterSpec {
    ClusterSpec::homogeneous(10, 4, Mhz::new(8000.0)).expect("valid cluster")
}

fn submit_throughput(system: &mut TStormSystem) {
    let p = ThroughputParams::paper();
    let topo = throughput::topology(&p).expect("valid");
    system
        .submit(&topo, &mut throughput::factory(&p, 42))
        .expect("submits");
}

/// `tstorm run --topology wordcount --duration 120 --seed 42 --rate 150
/// --spans`.
#[test]
fn wordcount_with_spans() {
    let run = Run {
        cluster: cluster_10x4(),
        config: cli_config(),
        spans: true,
        faults: &[],
        until_secs: 120,
        submit: |system| {
            let p = WordCountParams::paper();
            let topo = wordcount::topology(&p).expect("valid");
            let state = WordCountState::new();
            state.attach_corpus_producer(SimTime::ZERO, 150.0);
            system
                .submit(&topo, &mut wordcount::factory(&state))
                .expect("submits");
        },
    };
    assert_eq!(run.digest(), (0x7849_35d6_0d97_d8e8, 4_698_956));
}

/// `tstorm run --topology throughput --fault
/// node-crash@t=100,node=3,restart=60 --duration 300 --seed 42 --spans`:
/// crash, replay, recovery and restart.
#[test]
fn throughput_node_crash_with_restart() {
    let run = Run {
        cluster: cluster_10x4(),
        config: cli_config(),
        spans: true,
        faults: &["node-crash@t=100,node=3,restart=60"],
        until_secs: 300,
        submit: submit_throughput,
    };
    assert_eq!(run.digest(), (0x12c1_1cf3_a9cb_ae02, 8_466_835));
}

/// `tstorm run --topology throughput --fault
/// heartbeat-loss@t=100,node=2,dur=40 --fault nimbus-crash@t=200,dur=60
/// --duration 300 --seed 42`: a false-positive death declaration and a
/// nimbus outage on the control plane.
#[test]
fn heartbeat_loss_and_nimbus_crash() {
    let run = Run {
        cluster: cluster_10x4(),
        config: cli_config(),
        spans: false,
        faults: &[
            "heartbeat-loss@t=100,node=2,dur=40",
            "nimbus-crash@t=200,dur=60",
        ],
        until_secs: 300,
        submit: submit_throughput,
    };
    assert_eq!(run.digest(), (0xa1d0_5e5f_ace0_5c9c, 9_859_398));
}

/// Fig. 9: Word Count on one node under two corpus streams; the
/// overload is detected near 80 s and spread over five nodes.
#[test]
fn fig9_overload_recovery() {
    let mut config = paper_config(SystemMode::TStorm, 2.0, 42);
    config.capacity_fraction = 0.8;
    let run = Run {
        cluster: cluster10(),
        config,
        spans: false,
        faults: &[],
        until_secs: 120,
        submit: |system| {
            let p = WordCountParams::overload();
            let topo = wordcount::topology(&p).expect("valid");
            let state = WordCountState::new();
            state.attach_corpus_producer(SimTime::ZERO, 200.0);
            state.attach_corpus_producer(SimTime::ZERO, 200.0);
            system
                .submit(&topo, &mut wordcount::factory(&state))
                .expect("submits");
        },
    };
    assert_eq!(run.digest(), (0x6a70_2213_fd4b_e2ec, 10_250_684));
}

/// Transfer fan-out on a saturated 10 Mbit/s link with transfer
/// batches of 8 tuples.
#[test]
fn transfer_fan_out_batch_8() {
    let mut config = TStormConfig::default()
        .with_mode(SystemMode::StormDefault)
        .with_seed(42);
    config.sim.batch_size = 8;
    config.sim.network.nic_bits_per_sec = 10_000_000;
    let run = Run {
        cluster: ClusterSpec::homogeneous(2, 1, Mhz::new(8000.0)).expect("valid cluster"),
        config,
        spans: false,
        faults: &[],
        until_secs: 10,
        submit: |system| {
            let p = TransferParams::overload();
            let topo = transfer::topology(&p).expect("valid");
            system
                .submit(&topo, &mut transfer::factory(&p, 42))
                .expect("submits");
        },
    };
    assert_eq!(run.digest(), (0xfa04_e406_76d2_63a3, 1_985_799));
}
