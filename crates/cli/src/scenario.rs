//! Scenario construction and execution for the CLI.

use crate::args::{RunOptions, ScaleClass};
use std::fs::File;
use std::io::{BufWriter, Write};
use tstorm_cluster::ClusterSpec;
use tstorm_core::{SystemMode, TStormConfig, TStormSystem};
use tstorm_metrics::RunReport;
use tstorm_sim::FaultPlan;
use tstorm_trace::json::ObjectWriter;
use tstorm_trace::{FlightRecorder, JsonlWriter, Observer, TraceFilter};
use tstorm_types::{Mhz, Result, SimTime, TStormError};
use tstorm_workloads::chain::{self, ChainParams};
use tstorm_workloads::logstream::{self, LogStreamParams, LogStreamState};
use tstorm_workloads::throughput::{self, ThroughputParams};
use tstorm_workloads::wordcount::{self, WordCountParams, WordCountState};

/// The selectable workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// The Throughput Test topology (paper Fig. 5).
    Throughput,
    /// Word Count, stream version (paper Fig. 6).
    WordCount,
    /// Log Stream Processing (paper Fig. 8).
    LogStream,
    /// The Section III chain micro-topology.
    Chain,
}

impl Topology {
    /// Stable lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Topology::Throughput => "throughput",
            Topology::WordCount => "wordcount",
            Topology::LogStream => "logstream",
            Topology::Chain => "chain",
        }
    }
}

/// CPU speed classes (MHz) cycled over scale-preset nodes: 2, 4 and
/// 8 GHz dual-socket boxes. The mix averages out near the homogeneous
/// default, but forces the capacity constraint to discriminate.
const SCALE_CPU_CLASSES: [f64; 3] = [4000.0, 8000.0, 16000.0];

/// NIC speed classes (bits/s) cycled over scale-preset nodes: half the
/// fleet on 1 Gbps, half on 10 Gbps.
const SCALE_NIC_CLASSES: [u64; 2] = [1_000_000_000, 10_000_000_000];

/// The cluster behind a `--scale` preset: heterogeneous CPU and NIC
/// classes as first-class per-node dimensions.
///
/// # Errors
///
/// Propagates cluster validation failures.
pub fn scale_cluster(class: ScaleClass) -> Result<ClusterSpec> {
    let cpu: Vec<Mhz> = SCALE_CPU_CLASSES.iter().copied().map(Mhz::new).collect();
    ClusterSpec::heterogeneous(class.nodes(), class.slots(), &cpu, &SCALE_NIC_CLASSES)
}

/// The workload behind a `--scale` preset: a wide chain sized to ≥10k
/// executors. Spout pacing is slowed (200 ms) so tuple volume grows
/// with duration, not with executor count — the presets stress the
/// *state* hot paths (pair counters, stats DB, Algorithm 1), not raw
/// event throughput.
#[must_use]
pub fn scale_chain_params(class: ScaleClass) -> ChainParams {
    match class {
        // 64 + 10*1000 + 136 = 10,200 executors on 100 nodes.
        ScaleClass::Scale100 => ChainParams {
            spouts: 64,
            bolts: 10,
            bolt_parallelism: 1000,
            ackers: 136,
            workers: 400,
            tuple_bytes: 1024,
            emit_interval_ms: 200,
        },
        // 128 + 12*1000 + 260 = 12,388 executors on 500 nodes.
        ScaleClass::Scale500 => ChainParams {
            spouts: 128,
            bolts: 12,
            bolt_parallelism: 1000,
            ackers: 260,
            workers: 2000,
            tuple_bytes: 1024,
            emit_interval_ms: 200,
        },
    }
}

/// What one scenario run produced.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The metrics report.
    pub report: RunReport,
    /// Schedules generated / rollouts / overloads / failures.
    pub generations: u32,
    /// Supervisor rollouts.
    pub reassignments: u32,
    /// Overload fast-path activations.
    pub overload_events: u32,
    /// Timed-out tuples.
    pub failed: u64,
    /// Completed tuples.
    pub completed: u64,
    /// Spout emissions (including replays) — the conservation budget
    /// every other tuple counter must stay within.
    pub emitted: u64,
    /// Faults injected from the fault plan.
    pub faults_injected: u32,
    /// Tuples dropped (queued or in flight) by crashes.
    pub tuples_lost: u64,
    /// Tuples permanently failed after exhausting replays.
    pub perm_failed: u64,
    /// Crash recoveries the control plane triggered.
    pub recovery_events: u32,
    /// Control-plane decision log.
    pub timeline: Vec<tstorm_core::ControlEvent>,
    /// Engine hot-path statistics (pool hit rate, queue high-water).
    pub engine: tstorm_sim::EngineStats,
    /// Control-plane counters (heartbeats, fetches, epochs, death
    /// declarations, false positives).
    pub control: tstorm_core::ControlStats,
    /// Critical-path summary tables (`--spans`).
    pub spans_summary: Option<String>,
    /// Rendered scheduler decision records (`--explain`).
    pub explanations: Option<String>,
    /// Lines the flight recorder wrote (`--flight-recorder`).
    pub recorder_lines: Option<u64>,
}

/// Builds and runs one scenario per the options.
///
/// # Errors
///
/// Propagates configuration, topology and scheduling errors.
pub fn run_scenario(opts: &RunOptions) -> Result<ScenarioOutcome> {
    let cluster = match opts.scale {
        Some(class) => scale_cluster(class)?,
        None => ClusterSpec::homogeneous(opts.nodes, opts.slots, Mhz::new(8000.0))?,
    };
    let mut config = TStormConfig::default()
        .with_mode(opts.mode)
        .with_gamma(opts.gamma)
        .with_seed(opts.seed)
        .with_scheduler(&opts.scheduler);
    if let Some(cap) = opts.max_replays {
        config.sim.max_replays = cap;
    }
    config.sim.batch_size = opts.batch_size;
    config.heartbeat_period = SimTime::from_secs(opts.heartbeat_secs);
    config.fetch_jitter = opts.fetch_jitter;
    let fault_plan = FaultPlan::from_specs(&opts.faults)
        .map_err(|e| TStormError::invalid_config("--fault", e.to_string()))?;
    let mut system = TStormSystem::new(cluster, config)?;
    let observer = build_observer(opts)?;
    if observer.is_enabled() {
        system.set_observer(observer.clone());
    }
    if opts.spans {
        system.enable_spans();
    }
    // A recording is a complete black box: capture decision records
    // whenever a recorder is attached; `--explain` only controls
    // whether they are also printed.
    if opts.explain || opts.flight_recorder.is_some() {
        system.set_explain(true);
    }
    if let Some(path) = &opts.flight_recorder {
        let file = File::create(path).map_err(|e| {
            TStormError::invalid_config("--flight-recorder", format!("cannot create {path}: {e}"))
        })?;
        let mut recorder =
            FlightRecorder::new(Box::new(BufWriter::new(file)) as Box<dyn Write + Send>);
        recorder.meta(|o| {
            o.str(
                "scenario",
                opts.scale.map_or(opts.topology.name(), ScaleClass::name),
            )
            .u64("seed", opts.seed)
            .str(
                "mode",
                match opts.mode {
                    SystemMode::StormDefault => "storm",
                    SystemMode::TStorm => "t-storm",
                },
            )
            .str("scheduler", &opts.scheduler)
            .f64("gamma", opts.gamma)
            .u64("nodes", u64::from(opts.nodes))
            .u64("slots_per_node", u64::from(opts.slots))
            .u64("duration_secs", opts.duration_secs)
            .f64("rate", opts.rate)
            .str("workspace_version", env!("CARGO_PKG_VERSION"));
        });
        system.set_flight_recorder(recorder);
    }

    if let Some(class) = opts.scale {
        // A scale preset replaces the selected workload with its own
        // wide chain (the preset names the whole scenario).
        let p = scale_chain_params(class);
        let topo = chain::topology(&p)?;
        let mut f = chain::factory(&p, opts.seed);
        system.submit(&topo, &mut f)?;
    } else {
        match opts.topology {
            Topology::Throughput => {
                let p = ThroughputParams::paper();
                let topo = throughput::topology(&p)?;
                let mut f = throughput::factory(&p, opts.seed);
                system.submit(&topo, &mut f)?;
            }
            Topology::Chain => {
                let p = ChainParams::fig2();
                let topo = chain::topology(&p)?;
                let mut f = chain::factory(&p, opts.seed);
                system.submit(&topo, &mut f)?;
            }
            Topology::WordCount => {
                let p = WordCountParams::paper();
                let topo = wordcount::topology(&p)?;
                let state = WordCountState::new();
                state.attach_corpus_producer(SimTime::ZERO, opts.rate);
                let mut f = wordcount::factory(&state);
                system.submit(&topo, &mut f)?;
            }
            Topology::LogStream => {
                let p = LogStreamParams::paper();
                let topo = logstream::topology(&p)?;
                let state = LogStreamState::new();
                state.attach_log_producer(SimTime::ZERO, opts.rate, opts.seed ^ 0xa5a5);
                let mut f = logstream::factory(&state);
                system.submit(&topo, &mut f)?;
            }
        }
    }

    system.start()?;
    system.simulation_mut().apply_fault_plan(&fault_plan)?;
    system.run_until(SimTime::from_secs(opts.duration_secs))?;
    let recorder_lines = system.finish_recording();

    if observer.is_enabled() {
        observer
            .flush()
            .map_err(|e| TStormError::invalid_config("--trace", format!("flushing trace: {e}")))?;
        if let Some(path) = &opts.prom {
            let text = observer.render_prometheus().unwrap_or_default();
            let mut file = BufWriter::new(File::create(path).map_err(|e| {
                TStormError::invalid_config("--prom", format!("cannot create {path}: {e}"))
            })?);
            file.write_all(text.as_bytes())
                .and_then(|()| file.flush())
                .map_err(|e| {
                    TStormError::invalid_config("--prom", format!("writing {path}: {e}"))
                })?;
        }
    }

    let label = format!(
        "{} / {} (gamma={})",
        opts.scale.map_or(opts.topology.name(), ScaleClass::name),
        system.scheduler_name(),
        opts.gamma
    );
    Ok(ScenarioOutcome {
        report: system.report(&label),
        generations: system.generations(),
        reassignments: system.simulation().reassignments(),
        overload_events: system.overload_events(),
        failed: system.simulation().failed(),
        completed: system.simulation().completed(),
        emitted: system.simulation().emitted(),
        faults_injected: system.simulation().faults_injected(),
        tuples_lost: system.simulation().tuples_lost(),
        perm_failed: system.simulation().perm_failed(),
        recovery_events: system.recovery_events(),
        timeline: system.timeline().to_vec(),
        engine: system.simulation().engine_stats(),
        control: system.control_stats(),
        spans_summary: system
            .simulation()
            .spans()
            .map(tstorm_trace::CriticalPathCollector::render_summary),
        explanations: opts.explain.then(|| render_explanations(&system)),
        recorder_lines,
    })
}

/// Renders every captured scheduler decision record, epoch-stamped.
fn render_explanations(system: &TStormSystem) -> String {
    let mut out = String::new();
    for (epoch, at, explanation) in system.explanations() {
        out.push_str(&format!(
            "epoch {epoch} @ {:.1}s ({} placements):\n{}",
            at.as_micros() as f64 / 1e6,
            explanation.decisions.len(),
            explanation.render(),
        ));
    }
    if out.is_empty() {
        out.push_str("no scheduler decisions were recorded\n");
    }
    out
}

/// Builds the observer the options ask for: a JSONL sink for
/// `--trace`, the category filter and sampling stride, and (with
/// `--prom` alone) a metrics-only observer with no sinks. Returns a
/// disabled observer when no observability flag is set, so untraced
/// runs pay a single pointer check per potential event.
fn build_observer(opts: &RunOptions) -> Result<Observer> {
    if opts.trace.is_none() && opts.prom.is_none() {
        return Ok(Observer::disabled());
    }
    let mut builder = Observer::builder().sample(opts.trace_sample);
    if let Some(spec) = &opts.trace_filter {
        let filter = TraceFilter::parse(spec).map_err(|tok| {
            TStormError::invalid_config("--trace-filter", format!("unknown category `{tok}`"))
        })?;
        builder = builder.filter(filter);
    }
    if let Some(path) = &opts.trace {
        let file = File::create(path).map_err(|e| {
            TStormError::invalid_config("--trace", format!("cannot create {path}: {e}"))
        })?;
        builder = builder.sink(Box::new(JsonlWriter::new(BufWriter::new(file))));
    }
    if let Some(path) = &opts.prom {
        // Fail before the (possibly long) run, not after it: the file
        // is rewritten with the real metrics once the run finishes.
        File::create(path).map_err(|e| {
            TStormError::invalid_config("--prom", format!("cannot create {path}: {e}"))
        })?;
    }
    Ok(builder.build())
}

impl ScenarioOutcome {
    /// One-paragraph summary: stable-half mean, percentiles, nodes,
    /// control-plane activity.
    #[must_use]
    pub fn summary(&self, duration_secs: u64) -> String {
        let stable = SimTime::from_secs(duration_secs / 2);
        // Short runs have no full window after the stable point; fall
        // back to the whole-run mean.
        let mean = self
            .report
            .mean_proc_time_after(stable)
            .or_else(|| self.report.proc_time_ms.overall_mean())
            .map_or("n/a".to_owned(), |m| format!("{m:.3} ms"));
        let p50 = self
            .report
            .latency_quantile(0.5)
            .map_or("n/a".to_owned(), |m| format!("{m:.3} ms"));
        let p99 = self
            .report
            .latency_quantile(0.99)
            .map_or("n/a".to_owned(), |m| format!("{m:.3} ms"));
        let mut line = format!(
            "avg(stable half) {mean} | p50 {p50} | p99 {p99} | nodes {:?} | \
             completed {} | failed {} | generations {} | rollouts {} | overloads {}",
            self.report.final_nodes_used().unwrap_or(0),
            self.completed,
            self.failed,
            self.generations,
            self.reassignments,
            self.overload_events,
        );
        if self.faults_injected > 0 {
            line.push_str(&format!(
                " | faults {} (lost {}, perm-failed {}, recoveries {})",
                self.faults_injected, self.tuples_lost, self.perm_failed, self.recovery_events,
            ));
        }
        line
    }

    /// Two-line engine report for `--engine-stats`: the hot-path
    /// statistics plus the control-plane counters.
    #[must_use]
    pub fn engine_summary(&self) -> String {
        format!(
            "engine: pool hit-rate {:.1}% ({} hits, {} misses) | \
             queue high-water {} | allocations avoided {} | clock inversions {} | \
             pair-state bytes {} ({} pairs observed)\n\
             control: heartbeats {} sent, {} missed | fetches {} | \
             epochs applied {} | declared dead {} | false-positive reassignments {}",
            self.engine.pool_hit_rate() * 100.0,
            self.engine.pool_hits,
            self.engine.pool_misses,
            self.engine.queue_high_water,
            self.engine.allocations_avoided(),
            self.engine.clock_inversions,
            self.engine.pair_state_bytes,
            self.engine.pairs_observed,
            self.control.heartbeats_sent,
            self.control.heartbeats_missed,
            self.control.fetches,
            self.control.epochs_applied,
            self.control.nodes_declared_dead,
            self.control.false_positive_reassignments,
        )
    }

    /// The engine hot-path statistics as one machine-readable JSON
    /// object (`--engine-stats-json`), deterministic key order.
    #[must_use]
    pub fn engine_stats_json(&self) -> String {
        let mut o = ObjectWriter::new();
        o.u64("pool_hits", self.engine.pool_hits)
            .u64("pool_misses", self.engine.pool_misses)
            .f64("pool_hit_rate", self.engine.pool_hit_rate())
            .u64("payload_clones_avoided", self.engine.payload_clones_avoided)
            .u64("allocations_avoided", self.engine.allocations_avoided())
            .u64("queue_high_water", self.engine.queue_high_water)
            .u64("clock_inversions", self.engine.clock_inversions)
            .u64("pair_state_bytes", self.engine.pair_state_bytes)
            .u64("pairs_observed", self.engine.pairs_observed);
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::RunOptions;
    use tstorm_core::SystemMode;

    fn quick(topology: Topology) -> RunOptions {
        RunOptions {
            topology,
            duration_secs: 60,
            rate: 100.0,
            ..RunOptions::default()
        }
    }

    #[test]
    fn runs_every_topology() {
        for topo in [
            Topology::Throughput,
            Topology::Chain,
            Topology::WordCount,
            Topology::LogStream,
        ] {
            let outcome = run_scenario(&quick(topo)).expect("runs");
            assert!(outcome.completed > 100, "{topo:?}: {}", outcome.completed);
            let summary = outcome.summary(60);
            assert!(summary.contains("p99"), "{summary}");
            assert!(!summary.contains("n/a"), "{summary}");
        }
    }

    #[test]
    fn engine_stats_are_populated() {
        let outcome = run_scenario(&quick(Topology::Throughput)).expect("runs");
        assert!(
            outcome.engine.pool_hits + outcome.engine.pool_misses > 0,
            "envelopes were sent, so the pool must have been exercised"
        );
        assert!(outcome.engine.queue_high_water > 0);
        assert!(outcome.engine.payload_clones_avoided > 0);
        assert_eq!(
            outcome.engine.clock_inversions, 0,
            "a healthy run never produces an out-of-order span timestamp pair"
        );
        let line = outcome.engine_summary();
        assert!(line.contains("pool hit-rate"), "{line}");
        assert!(line.contains("queue high-water"), "{line}");
        assert!(line.contains("clock inversions"), "{line}");
        assert!(line.contains("heartbeats"), "{line}");
        let json = outcome.engine_stats_json();
        assert!(json.contains("\"clock_inversions\":0"), "{json}");
        assert!(
            outcome.control.heartbeats_sent > 0,
            "supervisors heartbeat throughout the run"
        );
    }

    #[test]
    fn heartbeat_loss_produces_false_positive_and_reconciles() {
        let opts = RunOptions {
            faults: vec!["heartbeat-loss@t=100,node=2,dur=40".to_owned()],
            duration_secs: 300,
            ..quick(Topology::Throughput)
        };
        let outcome = run_scenario(&opts).expect("runs");
        assert_eq!(outcome.faults_injected, 1);
        assert!(
            outcome.control.nodes_declared_dead >= 1,
            "muted heartbeats must cross the miss threshold"
        );
        assert!(
            outcome.control.false_positive_reassignments >= 1,
            "the healthy node was reassigned away, then reconciled: {:?}",
            outcome.control
        );
    }

    #[test]
    fn nimbus_crash_suppresses_recovery_until_restore() {
        // Nimbus is down for 30..150; a node dies at 60. Recovery must
        // be visibly suppressed during the outage and happen after it.
        let opts = RunOptions {
            faults: vec![
                "nimbus-crash@t=30,dur=120".to_owned(),
                "node-crash@t=60,node=3".to_owned(),
            ],
            duration_secs: 240,
            ..quick(Topology::Throughput)
        };
        let outcome = run_scenario(&opts).expect("runs");
        let suppressed = outcome
            .timeline
            .iter()
            .any(|e| matches!(e, tstorm_core::ControlEvent::NimbusSuppressed { .. }));
        assert!(
            suppressed,
            "recovery attempts during the outage must be logged as suppressed"
        );
        let published_in_window = outcome.timeline.iter().any(|e| {
            matches!(e, tstorm_core::ControlEvent::SchedulePublished { at, .. }
                if (SimTime::from_secs(30)..SimTime::from_secs(150)).contains(at))
        });
        assert!(!published_in_window, "no publications while Nimbus is down");
        let published_after = outcome.timeline.iter().any(|e| {
            matches!(e, tstorm_core::ControlEvent::SchedulePublished { at, .. }
                if *at >= SimTime::from_secs(150))
        });
        assert!(published_after, "recovery proceeds once Nimbus is back");
    }

    #[test]
    fn batched_run_completes_and_stays_clean() {
        let opts = RunOptions {
            batch_size: 8,
            ..quick(Topology::WordCount)
        };
        let outcome = run_scenario(&opts).expect("runs");
        assert!(outcome.completed > 100, "{}", outcome.completed);
        assert_eq!(outcome.engine.clock_inversions, 0);
    }

    #[test]
    fn storm_mode_runs() {
        let opts = RunOptions {
            mode: SystemMode::StormDefault,
            ..quick(Topology::Throughput)
        };
        let outcome = run_scenario(&opts).expect("runs");
        assert_eq!(outcome.generations, 0);
    }

    #[test]
    fn unknown_scheduler_is_an_error() {
        let opts = RunOptions {
            scheduler: "nope".to_owned(),
            ..quick(Topology::Throughput)
        };
        assert!(run_scenario(&opts).is_err());
    }

    #[test]
    fn trace_and_prom_files_are_written() {
        let dir = std::env::temp_dir().join("tstorm-cli-trace-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let trace = dir.join("trace.jsonl");
        let prom = dir.join("metrics.prom");
        let opts = RunOptions {
            trace: Some(trace.to_string_lossy().into_owned()),
            prom: Some(prom.to_string_lossy().into_owned()),
            trace_sample: 4,
            ..quick(Topology::Throughput)
        };
        let outcome = run_scenario(&opts).expect("runs");
        assert!(outcome.completed > 100);

        let jsonl = std::fs::read_to_string(&trace).expect("trace file");
        assert!(jsonl.lines().count() > 100, "trace should have many lines");
        for line in jsonl.lines().take(50) {
            let v = tstorm_trace::json::parse(line).expect("valid JSON line");
            assert!(v.get("t").is_some() && v.get("type").is_some(), "{line}");
        }

        let text = std::fs::read_to_string(&prom).expect("prom file");
        assert!(text.contains("# TYPE tstorm_tuples_completed_total counter"));
        assert!(text.contains("# TYPE tstorm_complete_latency_ms histogram"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn node_crash_recovers_and_is_reported() {
        let opts = RunOptions {
            faults: vec!["node-crash@t=120,node=0".to_owned()],
            duration_secs: 300,
            ..quick(Topology::Throughput)
        };
        let outcome = run_scenario(&opts).expect("runs");
        assert_eq!(outcome.faults_injected, 1);
        assert!(
            outcome.recovery_events >= 1,
            "control plane should have re-placed the orphaned executors"
        );
        let summary = outcome.summary(300);
        assert!(summary.contains("faults 1"), "{summary}");
    }

    #[test]
    fn fault_on_nonexistent_node_is_an_error() {
        let opts = RunOptions {
            faults: vec!["node-crash@t=10,node=99".to_owned()],
            ..quick(Topology::Throughput)
        };
        assert!(run_scenario(&opts).is_err());
    }

    #[test]
    fn topology_names_are_stable() {
        assert_eq!(Topology::Throughput.name(), "throughput");
        assert_eq!(Topology::WordCount.name(), "wordcount");
        assert_eq!(Topology::LogStream.name(), "logstream");
        assert_eq!(Topology::Chain.name(), "chain");
    }
}
