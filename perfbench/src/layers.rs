//! Layer calls replayed on a run's end state, each timed from outside
//! through public functions of the layer's crate.

use crate::check::{self, Scalars};
use crate::workload::{Setup, Workload};
use crate::{median, quantile, Outcome};
use std::hint::black_box;
use std::time::{Duration, Instant};
use tstorm_monitor::{LoadMonitor, WindowSnapshot};
use tstorm_sched::{Scheduler, TStormScheduler};
use tstorm_sim::event::{Event, EventQueue};
use tstorm_sim::logic::BoltLogic;
use tstorm_sim::network::{HopClass, Network};
use tstorm_sim::routing::{select_tasks_into, RouteRule};
use tstorm_substrates::CorpusReader;
use tstorm_topology::Value;
use tstorm_types::{Bytes, DetRng, ExecutorId, NodeId, SimTime};
use tstorm_workloads::logic::{SplitSentenceBolt, WordCountBolt};

/// Wall time given to each micro-measurement of a hot-path call.
const CALL_BUDGET: Duration = Duration::from_millis(300);
/// Repeats of a whole-layer call (solve, matrix build, ingest).
const MIN_REPEATS: usize = 3;
const MAX_REPEATS: usize = 101;

/// Times `f` at least [`MIN_REPEATS`] times and while the repeats fit in
/// `budget`; returns each call's seconds.
fn repeat(budget: Duration, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_REPEATS || (times.len() < MAX_REPEATS && start.elapsed() < budget) {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    times
}

/// Nanoseconds per call of `batch`, which makes `calls` calls, run
/// while it fits in [`CALL_BUDGET`]; the median batch counts.
fn ns_per_call(calls: usize, mut batch: impl FnMut()) -> f64 {
    batch(); // warm caches
    median(&repeat(CALL_BUDGET, &mut batch)) * 1e9 / calls as f64
}

pub fn measure(
    w: Workload,
    seed: u64,
    s: &mut Setup,
    sliced: &Scalars,
    budget: Duration,
    out: &mut Outcome,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut rng = DetRng::seed_from(seed);

    // sim: the event queue at the workload's own high-water depth.
    let depth = sliced.queue_high_water.max(1) as usize;
    let mut queue = EventQueue::new();
    for _ in 0..depth {
        let at = SimTime::from_micros(rng.next_u64() % 60_000_000);
        queue.push(at, Event::SpoutTick(ExecutorId::new(0)));
    }
    const OPS: usize = 4096;
    let queue_ns = ns_per_call(2 * OPS, || {
        for _ in 0..OPS {
            let (at, event) = queue.pop().expect("queue holds its depth");
            let later = at + SimTime::from_micros(1 + rng.next_u64() % 1_000_000);
            queue.push(later, black_box(event));
        }
    });
    drop(queue);
    out.metric("sim.event_queue_ns_per_op", queue_ns, "ns");

    // workloads + sim routing: the corpus split into words, each word
    // fields-routed to one of the five count tasks.
    let mut corpus = CorpusReader::alice();
    let lines: Vec<Value> = (0..1000).map(|_| Value::str(corpus.next_line())).collect();
    let mut words: Vec<Value> = Vec::new();
    let mut split = SplitSentenceBolt::new();
    for line in &lines {
        split.execute(std::slice::from_ref(line), &mut |v| words.extend(v));
    }
    let mut tasks = Vec::with_capacity(4);
    let mut direct = 0;
    let routing_ns = ns_per_call(words.len(), || {
        for word in &words {
            tasks.clear();
            select_tasks_into(
                RouteRule::Fields,
                &[0],
                std::slice::from_ref(word),
                5,
                &mut rng,
                &mut direct,
                &mut tasks,
            );
            black_box(&tasks);
        }
    });
    out.metric("sim.routing_ns_per_call", routing_ns, "ns");
    let mut count = WordCountBolt::new();
    let mut emitted = 0usize;
    let bolt_ns = ns_per_call(lines.len() + words.len(), || {
        for line in &lines {
            split.execute(std::slice::from_ref(line), &mut |v| emitted += v.len());
        }
        for word in &words {
            count.execute(std::slice::from_ref(word), &mut |v| emitted += v.len());
        }
    });
    black_box(emitted);
    out.metric("workloads.bolt_ns_per_tuple", bolt_ns, "ns");

    // sim network: inter-node hops under the workload's own NIC model,
    // sent 10 µs apart between the cluster's first two nodes.
    let config = w.config(seed);
    let nodes = s.system.simulation().cluster().num_nodes();
    let mut network = Network::new(config.sim.network, nodes);
    let (a, b) = (NodeId::new(0), NodeId::new(1));
    let mut now = SimTime::ZERO;
    const SENDS: usize = 4096;
    let network_ns = ns_per_call(SENDS, || {
        for i in 0..SENDS {
            now += SimTime::from_micros(10);
            let (src, dst) = if i % 2 == 0 { (a, b) } else { (b, a) };
            black_box(network.delivery_time(now, HopClass::InterNode, Bytes::new(64), src, dst, 0));
        }
    });
    out.metric("sim.network_ns_per_call", network_ns, "ns");

    // monitor: the traffic matrix of the end state.
    let db = s.system.monitor().db();
    let matrix_ms: Vec<f64> = repeat(budget / 20, || {
        black_box(db.traffic_matrix());
    })
    .iter()
    .map(|t| t * 1e3)
    .collect();
    out.metric("monitor.traffic_matrix_ms", median(&matrix_ms), "ms");

    // sched: full Algorithm 1 solves, each by a fresh scheduler, then
    // incremental replays of the same input by the last one.
    let input = check::scheduling_input(s, config.capacity_fraction);
    let mut scheduler = TStormScheduler::new();
    let solve_ms: Vec<f64> = repeat(budget / 10, || {
        scheduler = TStormScheduler::new();
        let solved = scheduler.schedule(&input);
        failures.extend(check::check_solve(&scheduler, &solved, &input));
        if scheduler.last_solve_was_incremental() {
            failures.push("a fresh scheduler solved incrementally".to_owned());
        }
    })
    .iter()
    .map(|t| t * 1e3)
    .collect();
    let incremental_ms: Vec<f64> = repeat(budget / 20, || {
        let solved = scheduler.schedule(&input);
        failures.extend(check::check_solve(&scheduler, &solved, &input));
        if !scheduler.last_solve_was_incremental() {
            failures.push("a repeated solve of the same input was not incremental".to_owned());
        }
    })
    .iter()
    .map(|t| t * 1e3)
    .collect();

    // monitor: one real monitoring window — the one after the horizon,
    // drained from the run's counters — ingested into a monitor already
    // holding it, as each steady-state tick does.
    let period = config.monitor_period;
    s.system
        .run_until(w.horizon() + period - SimTime::from_micros(1))
        .expect("runs one more window");
    let counters = s.system.simulation_mut().drain_counters();
    let mut window = WindowSnapshot::new(period);
    for (exec, cycles) in counters.executor_cycles() {
        window.record_cpu(exec, cycles);
    }
    for (from, to, tuples) in counters.pair_tuples() {
        window.record_traffic(from, to, tuples);
    }
    let mut monitor = LoadMonitor::new(config.alpha);
    monitor.ingest(&window);
    let ingest_ms: Vec<f64> = repeat(budget / 20, || monitor.ingest(black_box(&window)))
        .iter()
        .map(|t| t * 1e3)
        .collect();
    out.metric("monitor.ingest_ms", median(&ingest_ms), "ms");

    println!(
        "sched: {} full solves, {} incremental, {} executors",
        solve_ms.len(),
        incremental_ms.len(),
        input.executors.len()
    );
    out.metric("sched.solve_ms", median(&solve_ms), "ms");
    out.metric("sched.solve_ms_max", quantile(&solve_ms, 1.0), "ms");
    out.metric("sched.solves", solve_ms.len() as f64, "count");
    out.metric("sched.incremental_solve_ms", median(&incremental_ms), "ms");
    failures.dedup();
    failures
}
