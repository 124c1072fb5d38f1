//! Output scalars of a run and the correctness checks every run must
//! pass.

use crate::workload::Setup;
use std::collections::HashMap;
use tstorm_core::TStormSystem;
use tstorm_metrics::LogHistogram;
use tstorm_monitor::StatsDb;
use tstorm_sched::{
    AssignmentQuality, ExecutorInfo, SchedParams, Scheduler, SchedulingInput, TStormScheduler,
};
use tstorm_substrates::CorpusReader;

/// The simulated outputs of one run: a function of the seed alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Scalars {
    pub events: u64,
    pub emitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub in_flight: u64,
    pub replays: u64,
    pub perm_failed: u64,
    pub tuples_lost: u64,
    pub latency_samples: u64,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    pub generations: u32,
    pub recoveries: u32,
    pub published_epoch: u64,
    pub epochs_applied: u64,
    pub queue_high_water: u64,
}

impl Scalars {
    pub fn of(system: &TStormSystem) -> Self {
        let sim = system.simulation();
        let hist = system.report("perfbench").latency_hist;
        Self {
            events: sim.events_processed(),
            emitted: sim.emitted(),
            completed: sim.completed(),
            failed: sim.failed(),
            in_flight: sim.in_flight() as u64,
            replays: sim.replays_triggered(),
            perm_failed: sim.perm_failed(),
            tuples_lost: sim.tuples_lost(),
            latency_samples: hist.count(),
            latency_p50_ms: interpolated_quantile(&hist, 0.5),
            latency_p99_ms: interpolated_quantile(&hist, 0.99),
            generations: system.generations(),
            recoveries: system.recovery_events(),
            published_epoch: system.published_epoch(),
            epochs_applied: system.control_stats().epochs_applied,
            queue_high_water: sim.engine_stats().queue_high_water,
        }
    }
}

/// The `q`-quantile of a latency histogram, interpolated geometrically
/// inside its log bucket by rank. The histogram's own
/// [`LogHistogram::quantile`] returns the bucket's upper edge, which
/// reads the same for every seed whose quantile falls in one bucket.
pub fn interpolated_quantile(hist: &LogHistogram, q: f64) -> f64 {
    let rank = q * hist.count() as f64;
    // Adjacent bucket edges differ by this factor (four per octave).
    let width = 2f64.powf(0.25);
    let mut seen = 0.0;
    for (upper, count) in hist.nonzero_buckets() {
        let count = count as f64;
        if seen + count >= rank {
            let within = ((rank - seen) / count).clamp(0.0, 1.0);
            return upper / width * width.powf(within);
        }
        seen += count;
    }
    f64::NAN
}

/// Checks one finished run. Returns one message per failed check.
pub fn run_checks(setup: &Setup, s: &Scalars) -> Vec<String> {
    let mut failures = Vec::new();
    let system = &setup.system;
    if s.emitted != s.completed + s.failed + s.in_flight {
        failures.push(format!(
            "tuple conservation: emitted {} != completed {} + failed {} + in flight {}",
            s.emitted, s.completed, s.failed, s.in_flight
        ));
    }
    let inversions = system.simulation().engine_stats().clock_inversions;
    if inversions != 0 {
        failures.push(format!("{inversions} span clock inversions"));
    }
    for (node, epoch) in system.applied_epochs() {
        if epoch > s.published_epoch {
            failures.push(format!(
                "node {node} applied epoch {epoch} past the published epoch {}",
                s.published_epoch
            ));
        }
    }
    if s.completed == 0 || s.latency_samples == 0 {
        failures.push("no tuple completed".to_owned());
    }
    if !(s.latency_p50_ms.is_finite() && s.latency_p99_ms.is_finite()) {
        failures.push("latency quantiles are not finite".to_owned());
    }
    if let Some(state) = &setup.wordcount {
        failures.extend(check_word_counts(state));
    }
    failures
}

/// Every stored word count must be a word of the corpus and at most its
/// true count over the lines read so far (tuples still in flight make
/// the store lag, never lead).
fn check_word_counts(state: &tstorm_workloads::wordcount::WordCountState) -> Vec<String> {
    let popped = state.queue.lock().expect("queue lock").popped();
    let truth: HashMap<String, u64> = CorpusReader::alice().expected_word_counts(popped);
    let store = state.store.lock().expect("store lock");
    let docs = store.collection("words");
    if docs.is_empty() {
        return vec!["the word store is empty".to_owned()];
    }
    let mut failures = Vec::new();
    for doc in docs {
        let word = doc.get("word").unwrap_or_default();
        let stored: u64 = doc.get("count").and_then(|c| c.parse().ok()).unwrap_or(0);
        match truth.get(word) {
            Some(&t) if stored > 0 && stored <= t => {}
            _ => failures.push(format!(
                "stored count {stored} of `{word}` is not within (0, {}]",
                truth.get(word).copied().unwrap_or(0)
            )),
        }
    }
    failures
}

/// The scheduling input Algorithm 1 would see at the run's end state,
/// rebuilt from the monitor's statistics, the cluster under Nimbus's
/// liveness view and the executor descriptors.
pub fn scheduling_input(setup: &Setup, capacity_fraction: f64) -> SchedulingInput {
    let system = &setup.system;
    let db: &StatsDb = system.monitor().db();
    let executors = system
        .simulation()
        .executor_descriptors()
        .into_iter()
        .map(|d| ExecutorInfo::new(d.id, d.topology, d.component, db.load_of(d.id)))
        .collect();
    let params = SchedParams::default()
        .with_gamma(system.gamma())
        .with_capacity_fraction(capacity_fraction)
        .with_workers(setup.handle.id, setup.topology.num_workers());
    let mut cluster = system.simulation().cluster().clone();
    system.nimbus().apply_liveness_view(&mut cluster);
    let edges = setup
        .topology
        .edges()
        .iter()
        .map(|e| (setup.handle.id, e.from, e.to))
        .collect();
    SchedulingInput::new(cluster, executors, db.traffic_matrix(), params)
        .with_component_edges(edges)
}

/// Checks one Algorithm 1 solve: every executor placed on a live node,
/// and no node filled past the capacity fraction unless the solve
/// recorded a relaxation.
pub fn check_solve(
    scheduler: &TStormScheduler,
    solved: &tstorm_types::Result<tstorm_cluster::Assignment>,
    input: &SchedulingInput,
) -> Vec<String> {
    let assignment = match solved {
        Ok(a) => a,
        Err(e) => return vec![format!("Algorithm 1 failed: {e}")],
    };
    let mut failures = Vec::new();
    for exec in &input.executors {
        match assignment.slot_of(exec.id) {
            None => failures.push(format!("executor {} left unplaced", exec.id)),
            Some(slot) => {
                let node = input.cluster.node_of(slot);
                if !input.cluster.is_node_live(node) {
                    failures.push(format!("executor {} placed on dead node {node}", exec.id));
                }
            }
        }
    }
    let quality = AssignmentQuality::evaluate(assignment, input);
    let cap = input.params.capacity_fraction;
    if scheduler.relaxations().is_empty() && quality.max_node_utilisation > cap + 1e-9 {
        failures.push(format!(
            "node utilisation {} exceeds the capacity fraction {cap} with no relaxation",
            quality.max_node_utilisation
        ));
    }
    failures
}

/// One full Algorithm 1 solve on the run's end state, checked.
pub fn solve_and_check(setup: &Setup, capacity_fraction: f64) -> Vec<String> {
    let input = scheduling_input(setup, capacity_fraction);
    let mut scheduler = TStormScheduler::new();
    let solved = scheduler.schedule(&input);
    check_solve(&scheduler, &solved, &input)
}
