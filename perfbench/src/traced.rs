//! The traced run: per-layer numbers from outside the program.
//!
//! The workload runs three times with the same seed, observability off
//! unless stated:
//!
//! 1. untraced, as `--trace 0` runs it (one `run_until` call per
//!    monitor period, which the tests show changes no output), for the
//!    reference `run_s` and outputs;
//! 2. sliced: one `run_until` call per control instant T (every multiple
//!    of the monitor, fetch and generation periods). The call to T−1 µs
//!    is a `sim` span; the call to T is a `core` span tagged with what
//!    fell due at T. Supervisor heartbeat and fetch rounds are jittered
//!    per node, so they fall inside `sim` spans. Its outputs must equal
//!    the untraced run's;
//! 3. with spans and a flight recorder on, for the observability cost.
//!
//! Layer calls are then replayed on the sliced run's end state
//! (`layers.rs`). Spans stay in memory and are written to
//! `perfbench/out/` at the end. Span and layer times are plain wall
//! time; the two overhead ratios compare runs at reference-host speed
//! (`calibrate.rs`), each run sampling the host for itself.

use crate::calibrate::HostSpeed;
use crate::check::{self, Scalars};
use crate::workload::{Setup, Workload};
use crate::{layers, median, quantile, report_scalars, Outcome};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use tstorm_trace::FlightRecorder;
use tstorm_types::SimTime;

/// Where the span files go, relative to the checkout root.
const OUT_DIR: &str = "perfbench/out";

/// Counter readings at a span boundary.
#[derive(Clone, Copy, Default)]
struct Counters {
    events: u64,
    generations: u32,
    epochs_applied: u64,
    tuples_lost: u64,
    replays: u64,
}

impl Counters {
    fn read(s: &Setup) -> Self {
        let sim = s.system.simulation();
        Self {
            events: sim.events_processed(),
            generations: s.system.generations(),
            epochs_applied: s.system.control_stats().epochs_applied,
            tuples_lost: sim.tuples_lost(),
            replays: sim.replays_triggered(),
        }
    }

    fn delta(self, before: Self) -> Self {
        Self {
            events: self.events - before.events,
            generations: self.generations - before.generations,
            epochs_applied: self.epochs_applied - before.epochs_applied,
            tuples_lost: self.tuples_lost - before.tuples_lost,
            replays: self.replays - before.replays,
        }
    }
}

/// What fell due at a control instant.
#[derive(Clone, Copy, Default)]
struct Due {
    monitor: bool,
    fetch: bool,
    generation: bool,
}

struct Span {
    core: bool,
    /// Virtual time the span's `run_until` call ran to.
    until: SimTime,
    due: Due,
    start_ns: u64,
    end_ns: u64,
    delta: Counters,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// The control instants up to the horizon, in order, with what falls
/// due at each. Fetch and generation only exist under T-Storm.
fn control_instants(w: Workload, seed: u64) -> Vec<(SimTime, Due)> {
    let config = w.config(seed);
    let horizon = w.horizon().as_micros();
    let tstorm = config.mode == tstorm_core::SystemMode::TStorm;
    let monitor = config.monitor_period.as_micros();
    let fetch = config.fetch_period.as_micros();
    let generation = config.generation_period.as_micros();
    let mut instants: Vec<u64> = Vec::new();
    let mut periods = vec![monitor];
    if tstorm {
        periods.extend([fetch, generation]);
    }
    for p in periods {
        instants.extend((1..=horizon / p).map(|k| k * p));
    }
    instants.sort_unstable();
    instants.dedup();
    instants
        .into_iter()
        .map(|t| {
            let due = Due {
                monitor: t % monitor == 0,
                fetch: tstorm && t % fetch == 0,
                generation: tstorm && t % generation == 0,
            };
            (SimTime::from_micros(t), due)
        })
        .collect()
}

/// Runs `s` to its horizon in slices, recording one span per slice and
/// sampling the host's speed after each `core` span.
fn sliced_run(w: Workload, seed: u64, s: &mut Setup, host: &mut HostSpeed) -> Vec<Span> {
    let origin = Instant::now();
    let mut spans = Vec::new();
    let mut slice = |s: &mut Setup, until: SimTime, core: bool, due: Due| {
        let before = Counters::read(s);
        let start_ns = origin.elapsed().as_nanos() as u64;
        s.system.run_until(until).expect("runs");
        let end_ns = origin.elapsed().as_nanos() as u64;
        spans.push(Span {
            core,
            until,
            due,
            start_ns,
            end_ns,
            delta: Counters::read(s).delta(before),
        });
    };
    for (t, due) in control_instants(w, seed) {
        let just_before = SimTime::from_micros(t.as_micros() - 1);
        if just_before > s.system.simulation().now() {
            slice(s, just_before, false, Due::default());
        }
        slice(s, t, true, due);
        host.sample();
    }
    if w.horizon() > s.system.simulation().now() {
        slice(s, w.horizon(), false, Due::default());
    }
    spans
}

pub fn run(w: Workload, seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let config = w.config(seed);
    let (capacity_fraction, period) = (config.capacity_fraction, config.monitor_period);

    // Each run samples the host's speed for itself, so ratios between
    // the runs' times are calibrated too.
    let mut host = HostSpeed::default();

    // 1. Untraced reference run.
    let mut s = w.setup(seed);
    let (run_s, _) = host.run_to_horizon(&mut s.system, w.horizon(), period);
    let reference = Scalars::of(&s.system);
    report_scalars(&reference);
    out.count_run("untraced run", &check::run_checks(&s, &reference));
    drop(s);

    // 2. Sliced run.
    let mut s = w.setup(seed);
    let mark = host.mark();
    host.sample();
    let spans = sliced_run(w, seed, &mut s, &mut host);
    let sliced_scale = host.scale_since(mark);
    let sliced = Scalars::of(&s.system);
    let mut failures = check::run_checks(&s, &sliced);
    if sliced != reference {
        failures.push(format!(
            "the sliced run's outputs differ from the untraced run's: {sliced:?} vs {reference:?}"
        ));
    }
    failures.extend(check::solve_and_check(&s, capacity_fraction));
    out.count_run("sliced run", &failures);

    // 3. Observability on: spans plus a flight recorder (to a sink).
    let mut o = w.setup(seed);
    o.system.enable_spans();
    o.system
        .set_flight_recorder(FlightRecorder::new(Box::new(std::io::sink())));
    let (observed_s, _) = host.run_to_horizon(&mut o.system, w.horizon(), period);
    o.system.finish_recording();
    let observed = Scalars::of(&o.system);
    out.count_run("observed run", &check::run_checks(&o, &observed));
    drop(o);

    // Span-derived layer metrics.
    let sim_spans: Vec<&Span> = spans.iter().filter(|s| !s.core).collect();
    let core_spans: Vec<&Span> = spans.iter().filter(|s| s.core).collect();
    let sim_busy: f64 = sim_spans.iter().map(|s| s.secs()).sum();
    let sim_events: u64 = sim_spans.iter().map(|s| s.delta.events).sum();
    let core_busy: f64 = core_spans.iter().map(|s| s.secs()).sum();
    let sliced_s = sim_busy + core_busy;
    // Monitor ticks without a generation in the same slice.
    let tick_ms: Vec<f64> = core_spans
        .iter()
        .filter(|s| s.due.monitor && !s.due.generation)
        .map(|s| s.secs() * 1e3)
        .collect();
    let generation_ms: Vec<f64> = core_spans
        .iter()
        .filter(|s| s.due.generation)
        .map(|s| s.secs() * 1e3)
        .collect();
    // Mean of the last quarter of the ticks over the first quarter (at
    // least one tick each).
    let quarter = (tick_ms.len() / 4).max(1);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let tick_growth = mean(&tick_ms[tick_ms.len() - quarter..]) / mean(&tick_ms[..quarter]);
    let stats = s.system.simulation().engine_stats();

    println!(
        "{}: traced wall {sliced_s:.3} s = sim {sim_busy:.3} s + core {core_busy:.3} s \
         over {} slices ({} core); at reference speed: untraced run {run_s:.3} s, \
         observed run {observed_s:.3} s",
        w.name(),
        spans.len(),
        core_spans.len()
    );
    out.metric("sim.busy_s", sim_busy, "s");
    out.metric("sim.events", sliced.events as f64, "count");
    out.metric("sim.ns_per_event", sim_busy * 1e9 / sim_events as f64, "ns");
    out.metric(
        "sim.queue_high_water",
        sliced.queue_high_water as f64,
        "count",
    );
    out.metric(
        "sim.pair_state_bytes",
        stats.pair_state_bytes as f64,
        "bytes",
    );
    out.metric("sim.replays", sliced.replays as f64, "count");
    out.metric("sim.tuples_lost", sliced.tuples_lost as f64, "count");
    out.metric(
        "sim.tuple_fail_ratio",
        sliced.failed as f64 / sliced.emitted as f64,
        "ratio",
    );
    out.metric(
        "monitor.pairs_observed",
        stats.pairs_observed as f64,
        "count",
    );
    out.metric("core.busy_s", core_busy, "s");
    out.metric("core.tick_ms_p50", median(&tick_ms), "ms");
    out.metric("core.tick_ms_max", quantile(&tick_ms, 1.0), "ms");
    out.metric(
        "core.generation_ms",
        if generation_ms.is_empty() {
            0.0
        } else {
            median(&generation_ms)
        },
        "ms",
    );
    out.metric("core.tick_growth", tick_growth, "ratio");
    out.metric("core.epochs_applied", sliced.epochs_applied as f64, "count");
    out.metric("core.recoveries", f64::from(sliced.recoveries), "count");
    out.metric("sched.generations", f64::from(sliced.generations), "count");
    out.metric("trace.overhead_ratio", observed_s / run_s, "ratio");
    out.metric(
        "bench.trace_overhead_ratio",
        sliced_s * sliced_scale / run_s,
        "ratio",
    );

    let layer_failures = layers::measure(w, seed, &mut s, &sliced, budget, &mut out);
    out.count_run("layer replays", &layer_failures);
    write_spans(w, seed, &spans);
    out
}

/// Writes the spans as JSON lines: a root `run` span (id 0) and one
/// child per slice.
fn write_spans(w: Workload, seed: u64, spans: &[Span]) {
    let mut text = format!(
        "{{\"id\":0,\"parent\":null,\"layer\":\"run\",\"workload\":\"{}\",\"seed\":{seed},\
         \"start_ns\":0,\"end_ns\":{}}}\n",
        w.name(),
        spans.last().map_or(0, |s| s.end_ns)
    );
    for (i, s) in spans.iter().enumerate() {
        let mut due = Vec::new();
        for (on, name) in [
            (s.due.monitor, "\"monitor\""),
            (s.due.fetch, "\"fetch\""),
            (s.due.generation, "\"generation\""),
        ] {
            if on {
                due.push(name);
            }
        }
        let _ = writeln!(
            text,
            "{{\"id\":{},\"parent\":0,\"layer\":\"{}\",\"until_us\":{},\"due\":[{}],\
             \"start_ns\":{},\"end_ns\":{},\"events\":{},\"generations\":{},\
             \"epochs_applied\":{},\"tuples_lost\":{},\"replays\":{}}}",
            i + 1,
            if s.core { "core" } else { "sim" },
            s.until.as_micros(),
            due.join(","),
            s.start_ns,
            s.end_ns,
            s.delta.events,
            s.delta.generations,
            s.delta.epochs_applied,
            s.delta.tuples_lost,
            s.delta.replays
        );
    }
    let path = format!("{OUT_DIR}/spans-{}-seed{seed}.jsonl", w.name());
    match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => println!("spans written to {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}
