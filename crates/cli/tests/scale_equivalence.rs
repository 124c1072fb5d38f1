//! Pinned pair-traffic behaviour, and conservation at scale.
//!
//! The pair-traffic store once had a dense matrix backend next to the
//! sparse map. Both gave byte-identical JSONL traces and equal report
//! scalars on every scenario, so the dense one was removed. The values
//! pinned below were computed before the removal, where the dense
//! backend produced the same ones: the word-count, fault-replay and
//! overload-recovery traces (as 64-bit FNV-1a digests) with their
//! outcome scalars, and the `pair_tuples()` window of a raw chain run.
//! The last two tests run the scale-100 preset (100 heterogeneous
//! nodes, 10,200 executors): one checks tuple conservation, the other
//! pins the schedule generated at 300 s from a traffic store of about
//! 1.57M executor pairs, with values computed before that store became
//! key-sorted columns.

use std::hash::Hasher;
use std::io::{self, Write};
use tstorm_cli::args::{RunOptions, ScaleClass};
use tstorm_cli::scenario::{run_scenario, scale_chain_params, scale_cluster, Topology};
use tstorm_cluster::ClusterSpec;
use tstorm_core::{ControlEvent, SystemMode, TStormConfig, TStormSystem};
use tstorm_sim::routing::StableHasher;
use tstorm_trace::{JsonlWriter, Observer, SharedSink};
use tstorm_types::{Mhz, SimTime};
use tstorm_workloads::chain;
use tstorm_workloads::wordcount::{self, WordCountParams, WordCountState};

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

/// The deterministic scalars of one CLI run, plus its trace digest.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    digest: u64,
    lines: u64,
    completed: u64,
    failed: u64,
    emitted: u64,
    generations: u32,
    reassignments: u32,
    overload_events: u32,
    faults_injected: u32,
    tuples_lost: u64,
    perm_failed: u64,
    pairs_observed: u64,
}

/// Runs the scenario with a JSONL trace attached and pins its outcome.
fn pinned_run(opts: &RunOptions, tag: &str) -> Pinned {
    let dir = std::env::temp_dir().join("tstorm-scale-equivalence-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(format!("{tag}.jsonl"));
    let mut opts = opts.clone();
    opts.trace = Some(path.to_string_lossy().into_owned());
    let o = run_scenario(&opts).expect("scenario runs");
    let bytes = std::fs::read(&path).expect("trace file");
    let _ = std::fs::remove_file(&path);
    let mut digest = Digest::default();
    digest.write_all(&bytes).expect("hashing never fails");
    Pinned {
        digest: digest.0.finish64(),
        lines: bytes.iter().filter(|&&b| b == b'\n').count() as u64,
        completed: o.completed,
        failed: o.failed,
        emitted: o.emitted,
        generations: o.generations,
        reassignments: o.reassignments,
        overload_events: o.overload_events,
        faults_injected: o.faults_injected,
        tuples_lost: o.tuples_lost,
        perm_failed: o.perm_failed,
        pairs_observed: o.engine.pairs_observed,
    }
}

#[test]
fn wordcount_matches_the_pinned_run() {
    let opts = RunOptions {
        topology: Topology::WordCount,
        duration_secs: 60,
        rate: 100.0,
        seed: 42,
        quiet: true,
        ..RunOptions::default()
    };
    assert_eq!(
        pinned_run(&opts, "wc"),
        Pinned {
            digest: 0x191b_dc1a_a268_745d,
            lines: 1_566_431,
            completed: 6_000,
            failed: 0,
            emitted: 6_000,
            generations: 0,
            reassignments: 0,
            overload_events: 0,
            faults_injected: 0,
            tuples_lost: 0,
            perm_failed: 0,
            pairs_observed: 117,
        }
    );
}

#[test]
fn fault_replay_matches_the_pinned_run() {
    let opts = RunOptions {
        topology: Topology::Throughput,
        duration_secs: 120,
        seed: 23,
        quiet: true,
        faults: vec![
            "node-crash@t=40,node=2,restart=40".to_owned(),
            "nic-slow@t=20,node=1,factor=4,dur=20".to_owned(),
        ],
        ..RunOptions::default()
    };
    assert_eq!(
        pinned_run(&opts, "fault"),
        Pinned {
            digest: 0x5f41_fbe2_2e4b_7656,
            lines: 2_340_370,
            completed: 66_847,
            failed: 27,
            emitted: 66_876,
            generations: 3,
            reassignments: 15,
            overload_events: 1,
            faults_injected: 2,
            tuples_lost: 52,
            perm_failed: 0,
            pairs_observed: 700,
        }
    );
}

/// The Fig. 9 overload-recovery experiment (word count squeezed into
/// one node, two concurrent corpus streams, then detected and spread),
/// run directly so the overload fast path is genuinely exercised.
#[test]
fn overload_recovery_matches_the_pinned_run() {
    let params = WordCountParams::overload();
    let topo = wordcount::topology(&params).expect("valid");
    let state = WordCountState::new();
    state.attach_corpus_producer(SimTime::ZERO, 200.0);
    state.attach_corpus_producer(SimTime::ZERO, 200.0);
    let mut config = TStormConfig::default()
        .with_mode(SystemMode::TStorm)
        .with_gamma(2.0)
        .with_seed(42);
    config.capacity_fraction = 0.8;
    let cluster = ClusterSpec::homogeneous(10, 4, Mhz::new(8000.0)).expect("valid");
    let mut system = TStormSystem::new(cluster, config).expect("valid config");
    let sink = SharedSink::new(JsonlWriter::new(Digest::default()));
    system.set_observer(Observer::builder().sink(Box::new(sink.handle())).build());

    let mut factory = wordcount::factory(&state);
    system.submit(&topo, &mut factory).expect("submits");
    system.start().expect("starts");
    system.run_until(SimTime::from_secs(120)).expect("runs");
    let sim = system.simulation();
    assert_eq!(
        (
            sink.with(|w| (w.get_ref().0.finish64(), w.lines_written())),
            system.overload_events(),
            system.generations(),
            sim.completed(),
            sim.failed(),
        ),
        ((0x6a70_2213_fd4b_e2ec, 10_250_684), 1, 1, 39_264, 0)
    );
}

#[test]
fn pair_tuples_match_the_pinned_window() {
    use tstorm_cluster::Assignment;
    use tstorm_sim::{SimConfig, Simulation};
    use tstorm_types::SlotId;
    use tstorm_workloads::chain::{self, ChainParams};

    // A raw simulation (no monitor draining the window): the full pair
    // set of the first 20 virtual seconds, row-major.
    let cluster = ClusterSpec::homogeneous(4, 2, Mhz::new(8000.0)).expect("valid");
    let mut sim = Simulation::new(cluster, SimConfig::default());
    let p = ChainParams {
        spouts: 2,
        bolt_parallelism: 3,
        ..ChainParams::fig2()
    };
    let topo = chain::topology(&p).expect("valid");
    let mut f = chain::factory(&p, 7);
    sim.submit_topology(&topo, &mut f);
    let a: Assignment = sim
        .executor_descriptors()
        .into_iter()
        .enumerate()
        .map(|(i, d)| (d.id, SlotId::new((i % 8) as u32)))
        .collect();
    sim.apply_assignment(&a);
    sim.run_until(SimTime::from_secs(20));
    let mut hasher = StableHasher::new();
    let (mut pairs, mut tuples) = (0u64, 0u64);
    for (src, dst, n) in sim.drain_counters().pair_tuples() {
        hasher.write_u32(src.index());
        hasher.write_u32(dst.index());
        hasher.write_u64(n);
        pairs += 1;
        tuples += n;
    }
    assert_eq!(
        (pairs, tuples, hasher.finish64()),
        (113, 72_024, 0xa682_fd43_7279_7658)
    );
}

#[test]
fn scale_100_conserves_tuples_and_stays_sparse() {
    let opts = RunOptions {
        scale: Some(ScaleClass::Scale100),
        duration_secs: 60,
        seed: 42,
        quiet: true,
        ..RunOptions::default()
    };
    let outcome = run_scenario(&opts).expect("scale-100 runs");
    // Conservation: every emitted tuple is completed, failed, lost to a
    // crash, permanently failed, or still in flight at cutoff — the
    // resolved counters can never exceed emissions.
    assert!(
        outcome.completed + outcome.failed + outcome.tuples_lost + outcome.perm_failed
            <= outcome.emitted,
        "resolved {} + {} + {} + {} tuples exceed {} emitted",
        outcome.completed,
        outcome.failed,
        outcome.tuples_lost,
        outcome.perm_failed,
        outcome.emitted
    );
    assert!(
        outcome.completed > 10_000,
        "the preset should move real volume, completed {}",
        outcome.completed
    );
    assert_eq!(
        outcome.report.final_nodes_used(),
        Some(100),
        "all 100 heterogeneous nodes should host executors"
    );
    // 10,200 executors: a dense matrix would hold 10,200² cells
    // (~832 MB). The sparse store must stay far below that.
    let dense_bytes = 10_200u64 * 10_200 * 8;
    assert!(
        outcome.engine.pair_state_bytes * 5 < dense_bytes,
        "sparse footprint {} must be at least 5x below dense {}",
        outcome.engine.pair_state_bytes,
        dense_bytes
    );
    assert!(
        outcome.engine.pairs_observed > 10_000,
        "a 10k-executor shuffle mesh observes many pairs, got {}",
        outcome.engine.pairs_observed
    );
}

/// Runs scale-100 under T-Storm past the first generation (300 s) and
/// pins what it published: the assignment's (executor, slot) pairs as
/// an FNV-1a digest, the estimated inter-node traffic by its bits, and
/// the tuple and event counts.
#[test]
fn scale_100_generation_matches_the_pinned_run() {
    let config = TStormConfig::default()
        .with_mode(SystemMode::TStorm)
        .with_gamma(1.7)
        .with_seed(3);
    let cluster = scale_cluster(ScaleClass::Scale100).expect("valid");
    let mut system = TStormSystem::new(cluster, config).expect("valid config");
    let p = scale_chain_params(ScaleClass::Scale100);
    let topo = chain::topology(&p).expect("valid");
    system
        .submit(&topo, &mut chain::factory(&p, 3))
        .expect("submits");
    system.start().expect("starts");
    system.run_until(SimTime::from_secs(320)).expect("runs");
    let pairs = system.monitor().db().traffic_matrix().len();
    assert!(pairs > 1_000_000, "a store of {pairs} pairs is too small");

    let published = system.schedule_store().latest().expect("a schedule");
    let mut hasher = StableHasher::new();
    for (executor, slot) in published.versioned.assignment.iter() {
        hasher.write_u32(executor.index());
        hasher.write_u32(slot.index());
    }
    let inter_node: Vec<u64> = system
        .timeline()
        .iter()
        .filter_map(|event| match event {
            ControlEvent::SchedulePublished {
                inter_node_traffic, ..
            } => Some(inter_node_traffic.to_bits()),
            _ => None,
        })
        .collect();
    let sim = system.simulation();
    assert_eq!(
        (
            published.versioned.epoch,
            hasher.finish64(),
            inter_node,
            sim.events_processed(),
            sim.emitted(),
            sim.completed(),
        ),
        (
            1,
            0x7e01_4227_3338_32bd,
            vec![0x40c5_903d_7f66_3f84],
            4_497_110,
            95_533,
            95_533
        )
    );
}
