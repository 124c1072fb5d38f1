//! End-to-end behaviour of the assembled T-Storm system vs plain Storm.

use tstorm_cluster::ClusterSpec;
use tstorm_core::{SystemMode, TStormConfig, TStormSystem};
use tstorm_types::{Mhz, SimTime};
use tstorm_workloads::throughput::{self, ThroughputParams};
use tstorm_workloads::wordcount::{self, WordCountParams, WordCountState};

fn cluster10() -> ClusterSpec {
    // The paper's testbed: 10 nodes, 4 slots each.
    ClusterSpec::homogeneous(10, 4, Mhz::new(8000.0)).expect("valid")
}

/// A fully assembled system (engine, workload logic, control plane) is
/// `Send` and can be moved to another thread mid-run.
#[test]
fn assembled_system_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<TStormSystem>();

    let p = ThroughputParams::small();
    let topo = throughput::topology(&p).expect("valid");
    let mut system =
        TStormSystem::new(cluster10(), fast_config(SystemMode::TStorm, 1.0, 5)).expect("valid");
    let mut f = throughput::factory(&p, 7);
    system.submit(&topo, &mut f).expect("submits");
    system.start().expect("starts");
    system.run_until(SimTime::from_secs(5)).expect("runs");
    let handle = std::thread::spawn(move || {
        system.run_until(SimTime::from_secs(10)).expect("runs");
        system.simulation().completed()
    });
    assert!(handle.join().expect("joins") > 0);
}

/// Shortened control periods so tests finish quickly while preserving
/// monitor < fetch < generation ordering.
fn fast_config(mode: SystemMode, gamma: f64, seed: u64) -> TStormConfig {
    let mut c = TStormConfig::default()
        .with_mode(mode)
        .with_gamma(gamma)
        .with_seed(seed);
    c.monitor_period = SimTime::from_secs(10);
    c.fetch_period = SimTime::from_secs(5);
    c.generation_period = SimTime::from_secs(60);
    c
}

fn run_throughput(mode: SystemMode, gamma: f64, until_secs: u64) -> TStormSystem {
    let p = ThroughputParams::paper();
    let topo = throughput::topology(&p).expect("valid");
    let mut system = TStormSystem::new(cluster10(), fast_config(mode, gamma, 42)).expect("valid");
    let mut f = throughput::factory(&p, 7);
    system.submit(&topo, &mut f).expect("submits");
    system.start().expect("starts");
    system
        .run_until(SimTime::from_secs(until_secs))
        .expect("runs");
    system
}

#[test]
fn storm_uses_all_nodes_and_never_reschedules() {
    let system = run_throughput(SystemMode::StormDefault, 1.0, 200);
    let report = system.report("storm");
    // "in all experiments, Storm always used all of 10 worker nodes".
    assert_eq!(report.nodes_used.last(), Some(&10));
    assert_eq!(system.generations(), 0);
    assert_eq!(system.simulation().reassignments(), 0);
    assert!(system.simulation().completed() > 10_000);
}

#[test]
fn tstorm_initial_assignment_uses_min_workers() {
    let p = ThroughputParams::paper(); // Nu = 40 on 10 nodes
    let topo = throughput::topology(&p).expect("valid");
    let mut system =
        TStormSystem::new(cluster10(), fast_config(SystemMode::TStorm, 1.0, 1)).expect("valid");
    let mut f = throughput::factory(&p, 7);
    system.submit(&topo, &mut f).expect("submits");
    system.start().expect("starts");
    // N*_w = min(40, 10) = 10 workers, one per node.
    let report = system.report("t-storm");
    assert_eq!(report.workers_used.last(), Some(&10));
    assert_eq!(report.nodes_used.last(), Some(&10));
}

#[test]
fn tstorm_reschedules_from_runtime_traffic() {
    // gamma = 1.7: the generator consolidates 10 nodes down to fewer once
    // runtime traffic is known (the paper's Fig. 5(b) move to 7 nodes).
    // At gamma = 1 the initial assignment is already near-optimal and the
    // publish hysteresis correctly suppresses a no-gain re-assignment.
    let system = run_throughput(SystemMode::TStorm, 1.7, 200);
    assert!(
        system.generations() >= 1,
        "generated {}",
        system.generations()
    );
    assert!(
        system.simulation().reassignments() >= 1,
        "reassigned {}",
        system.simulation().reassignments()
    );
    let nodes = system.report("x").nodes_used.last().copied().unwrap();
    assert!(nodes < 10, "consolidation should free nodes, used {nodes}");
    // Smooth protocol: no tuple loss across the re-assignment.
    assert_eq!(system.simulation().dropped_in_flight(), 0);
    assert_eq!(system.simulation().failed(), 0);
}

#[test]
fn tstorm_beats_storm_on_average_processing_time() {
    let storm = run_throughput(SystemMode::StormDefault, 1.0, 300);
    let tstorm = run_throughput(SystemMode::TStorm, 1.0, 300);
    let stable = SimTime::from_secs(120);
    let s = storm
        .report("storm")
        .mean_proc_time_after(stable)
        .expect("data");
    let t = tstorm
        .report("t-storm")
        .mean_proc_time_after(stable)
        .expect("data");
    assert!(
        t < s * 0.6,
        "expected a large speedup: storm {s:.3} ms vs t-storm {t:.3} ms"
    );
}

#[test]
fn larger_gamma_consolidates_nodes_without_losing_much() {
    let g1 = run_throughput(SystemMode::TStorm, 1.0, 300);
    let g6 = run_throughput(SystemMode::TStorm, 6.0, 300);
    let n1 = g1.report("g1").nodes_used.last().copied().unwrap();
    let n6 = g6.report("g6").nodes_used.last().copied().unwrap();
    assert!(
        n6 < n1,
        "gamma 6 ({n6} nodes) should use fewer than gamma 1 ({n1})"
    );
    assert!(
        n6 <= 4,
        "gamma 6 should consolidate aggressively, used {n6}"
    );
    // Consolidation must not blow up latency on this light topology.
    let stable = SimTime::from_secs(150);
    let l1 = g1.report("g1").mean_proc_time_after(stable).expect("data");
    let l6 = g6.report("g6").mean_proc_time_after(stable).expect("data");
    assert!(
        l6 < l1 * 3.0,
        "gamma 6 latency {l6:.3} ms should stay comparable to gamma 1 {l1:.3} ms"
    );
}

#[test]
fn overload_is_detected_and_recovered() {
    // Fig. 9: Word Count forced onto one worker on one node, two
    // concurrent input streams.
    let p = WordCountParams::overload();
    let topo = wordcount::topology(&p).expect("valid");
    let state = WordCountState::new();
    state.attach_corpus_producer(SimTime::ZERO, 200.0);
    state.attach_corpus_producer(SimTime::ZERO, 200.0);
    let mut config = fast_config(SystemMode::TStorm, 2.0, 5);
    config.capacity_fraction = 0.8;
    let mut system = TStormSystem::new(cluster10(), config).expect("valid");
    let mut f = wordcount::factory(&state);
    system.submit(&topo, &mut f).expect("submits");
    system.start().expect("starts");
    // Initially a single node hosts everything.
    assert_eq!(system.report("x").nodes_used.last(), Some(&1));
    system.run_until(SimTime::from_secs(400)).expect("runs");

    assert!(system.overload_events() > 0, "overload never detected");
    let nodes = system.report("x").nodes_used.last().copied().unwrap();
    assert!(nodes > 1, "recovery should add nodes, still {nodes}");
    // Latency after recovery is sane again.
    let late = system
        .report("x")
        .mean_proc_time_after(SimTime::from_secs(300))
        .expect("data after recovery");
    assert!(late < 1_000.0, "post-recovery latency {late:.1} ms");
}

#[test]
fn scheduler_hot_swap_mid_run() {
    let p = ThroughputParams::small();
    let topo = throughput::topology(&p).expect("valid");
    let mut system =
        TStormSystem::new(cluster10(), fast_config(SystemMode::TStorm, 2.0, 3)).expect("valid");
    let mut f = throughput::factory(&p, 7);
    system.submit(&topo, &mut f).expect("submits");
    system.start().expect("starts");
    system.run_until(SimTime::from_secs(100)).expect("runs");
    assert_eq!(system.scheduler_name(), "t-storm");
    system.swap_scheduler("aniello-online").expect("swaps");
    assert_eq!(system.scheduler_name(), "aniello-online");
    system.run_until(SimTime::from_secs(200)).expect("runs on");
    assert!(system.simulation().completed() > 1000);
    assert!(system.swap_scheduler("bogus").is_err());
}

#[test]
fn gamma_adjustable_on_the_fly() {
    let p = ThroughputParams::small();
    let topo = throughput::topology(&p).expect("valid");
    let mut system =
        TStormSystem::new(cluster10(), fast_config(SystemMode::TStorm, 1.0, 3)).expect("valid");
    let mut f = throughput::factory(&p, 7);
    system.submit(&topo, &mut f).expect("submits");
    system.start().expect("starts");
    assert_eq!(system.gamma(), 1.0);
    system.set_gamma(4.0).expect("sets");
    assert_eq!(system.gamma(), 4.0);
    assert!(system.set_gamma(-1.0).is_err());
    assert!(system.set_gamma(f64::NAN).is_err());
}

#[test]
fn run_before_start_is_an_error() {
    let mut system = TStormSystem::new(cluster10(), TStormConfig::default()).expect("valid");
    assert!(system.run_until(SimTime::from_secs(10)).is_err());
}

#[test]
fn transparency_same_topology_runs_under_every_scheduler() {
    // The same topology value + factory shape runs under Storm, T-Storm,
    // and both Aniello baselines without modification.
    for scheduler in [
        "t-storm",
        "aniello-online",
        "aniello-offline",
        "storm-default",
    ] {
        let p = ThroughputParams::small();
        let topo = throughput::topology(&p).expect("valid");
        let config = fast_config(SystemMode::TStorm, 2.0, 11).with_scheduler(scheduler);
        let mut system = TStormSystem::new(cluster10(), config).expect("valid");
        let mut f = throughput::factory(&p, 7);
        system.submit(&topo, &mut f).expect("submits");
        system.start().expect("starts");
        system.run_until(SimTime::from_secs(150)).expect("runs");
        assert!(
            system.simulation().completed() > 500,
            "{scheduler}: completed {}",
            system.simulation().completed()
        );
    }
}

#[test]
fn killed_topology_stops_and_frees_resources() {
    let mut system =
        TStormSystem::new(cluster10(), fast_config(SystemMode::TStorm, 2.0, 9)).expect("valid");

    let p1 = ThroughputParams::small();
    let t1 = throughput::topology(&p1).expect("valid");
    let mut f1 = throughput::factory(&p1, 1);
    let h1 = system.submit(&t1, &mut f1).expect("submits");

    let p2 = ThroughputParams::small();
    let t2 = throughput::topology(&p2).expect("valid");
    let mut f2 = throughput::factory(&p2, 2);
    let h2 = system.submit(&t2, &mut f2).expect("submits");

    system.start().expect("starts");
    system.run_until(SimTime::from_secs(60)).expect("runs");
    let before = system.simulation().completed();
    assert!(before > 1000);

    system.kill_topology(&h1);
    system.run_until(SimTime::from_secs(70)).expect("runs");
    let at_70 = system.simulation().completed();
    system.run_until(SimTime::from_secs(130)).expect("runs");
    let at_130 = system.simulation().completed();

    // Topology 2 keeps completing at roughly half the combined rate.
    let rate = (at_130 - at_70) as f64 / 60.0;
    assert!(rate > 100.0, "surviving topology rate {rate}/s");
    // Killed executors are no longer scheduled or described.
    let descs = system.simulation().executor_descriptors();
    assert!(descs.iter().all(|d| d.topology == h2.id));
    assert!(descs.iter().all(|d| !h1.executors.contains(&d.id)));
    // Its slots were freed.
    for exec in &h1.executors {
        assert!(system
            .simulation()
            .current_assignment()
            .slot_of(*exec)
            .is_none());
    }
}

#[test]
fn timeline_records_control_plane_decisions() {
    use tstorm_core::{render_timeline, ControlEvent};
    let system = run_throughput(SystemMode::TStorm, 1.7, 200);
    let timeline = system.timeline();
    assert!(
        timeline
            .iter()
            .any(|e| matches!(e, ControlEvent::SchedulePublished { .. })),
        "expected a published schedule: {timeline:?}"
    );
    assert!(
        timeline
            .iter()
            .any(|e| matches!(e, ControlEvent::ScheduleFetched { .. })),
        "expected a fetch"
    );
    // Timestamps are monotone.
    for w in timeline.windows(2) {
        assert!(w[0].at() <= w[1].at());
    }
    let rendered = render_timeline(timeline);
    assert!(rendered.contains("published"));
}

#[test]
fn timeline_records_suppressions_and_swaps() {
    use tstorm_core::ControlEvent;
    // gamma = 1: generations are computed but hysteresis suppresses them.
    let mut system = run_throughput(SystemMode::TStorm, 1.0, 150);
    assert!(
        system
            .timeline()
            .iter()
            .any(|e| matches!(e, ControlEvent::ScheduleSuppressed { .. })),
        "expected suppressed generations: {:?}",
        system.timeline()
    );
    system.swap_scheduler("t-storm-ls").expect("swaps");
    system.set_gamma(3.0).expect("sets");
    assert!(system
        .timeline()
        .iter()
        .any(|e| matches!(e, ControlEvent::SchedulerSwapped { .. })));
    assert!(system
        .timeline()
        .iter()
        .any(|e| matches!(e, ControlEvent::GammaChanged { .. })));
}

#[test]
fn rebalance_changes_worker_count_at_runtime() {
    let p = ThroughputParams::paper(); // Nu = 40 -> min(40, 10) = 10 workers
    let topo = throughput::topology(&p).expect("valid");
    let mut config = fast_config(SystemMode::TStorm, 1.0, 13);
    // Isolate the rebalance: no competing periodic generations.
    config.generation_period = tstorm_types::SimTime::from_secs(100_000);
    let mut system = TStormSystem::new(cluster10(), config).expect("valid");
    let mut f = throughput::factory(&p, 7);
    let handle = system.submit(&topo, &mut f).expect("submits");
    system.start().expect("starts");
    system.run_until(SimTime::from_secs(60)).expect("runs");
    assert_eq!(system.report("x").workers_used.last(), Some(&10));

    system.rebalance(&handle, 4).expect("rebalances");
    system.run_until(SimTime::from_secs(160)).expect("runs");
    assert_eq!(
        system.report("x").workers_used.last(),
        Some(&4),
        "rebalance should shrink to 4 workers"
    );
    // Smooth rollout: nothing lost.
    assert_eq!(system.simulation().failed(), 0);
    assert!(system.rebalance(&handle, 0).is_err());
}

#[test]
fn holt_estimator_runs_the_system_end_to_end() {
    use tstorm_core::EstimatorKind;
    let p = ThroughputParams::small();
    let topo = throughput::topology(&p).expect("valid");
    let mut config = fast_config(SystemMode::TStorm, 1.7, 21);
    config.estimator = EstimatorKind::HoltLinear { beta: 0.5 };
    let mut system = TStormSystem::new(cluster10(), config).expect("valid");
    let mut f = throughput::factory(&p, 7);
    system.submit(&topo, &mut f).expect("submits");
    system.start().expect("starts");
    system.run_until(SimTime::from_secs(150)).expect("runs");
    assert!(system.simulation().completed() > 1000);
    // Estimates exist and are positive under the alternative estimator.
    let loads = system.monitor().db().executor_loads();
    assert!(!loads.is_empty());
    assert!(loads.values().any(|l| l.get() > 0.0));
}
