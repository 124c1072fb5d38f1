//! Time-to-result benchmark of the T-Storm simulator.
//!
//! ```text
//! tstorm-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the program's
//! observability off: it sets the workload up repeatedly (`setup_s`),
//! then runs it to its virtual horizon as many times as fit in
//! `--seconds` (`run_s`), checking every run's simulated outputs.
//! Both times are wall times scaled to the speed of a reference host by
//! a fixed loop timed throughout the invocation (see `calibrate.rs`).
//! `--trace 1` makes the sliced run that yields the per-layer metrics
//! (see `traced.rs`). The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod calibrate;
mod check;
mod layers;
#[cfg(test)]
mod tests;
mod traced;
mod workload;

use check::Scalars;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Workload;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one benchmark invocation.
#[derive(Default)]
pub struct Outcome {
    /// Runs of the workload made.
    pub attempted: u64,
    /// Runs that failed a correctness check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts one run, failed when any check failed, and prints why.
    pub fn count_run(&mut self, what: &str, failures: &[String]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                eprintln!("check failed ({what}): {f}");
            }
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or("--seconds takes a positive integer")?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let outcome = if args.trace {
        traced::run(args.workload, args.seed, budget)
    } else {
        end_to_end(args.workload, args.seed, budget)
    };
    print_result(&outcome);
    ExitCode::SUCCESS
}

/// Set-ups timed per invocation: at least this many, more while they
/// fit in [`SETUP_BUDGET`].
const MIN_SETUPS: usize = 9;
const MAX_SETUPS: usize = 201;
const SETUP_BUDGET: Duration = Duration::from_millis(500);

/// The untraced measurement: repeated set-ups, then repeated runs to the
/// horizon while they fit in `budget`.
fn end_to_end(w: Workload, seed: u64, budget: Duration) -> Outcome {
    let start = Instant::now();
    let mut out = Outcome::default();
    let mut host = calibrate::HostSpeed::default();
    let mark = host.mark();
    host.sample();
    let mut setup_wall = Vec::new();
    while setup_wall.len() < MIN_SETUPS
        || (setup_wall.len() < MAX_SETUPS && start.elapsed() < SETUP_BUDGET)
    {
        let t = Instant::now();
        let s = w.setup(seed);
        setup_wall.push(t.elapsed().as_secs_f64());
        drop(s);
    }
    host.sample();
    let setup_scale = host.scale_since(mark);

    let config = w.config(seed);
    let (capacity_fraction, period) = (config.capacity_fraction, config.monitor_period);
    let mut run_s = Vec::new();
    let mut run_wall = Vec::new();
    let mut first: Option<Scalars> = None;
    loop {
        let mut s = w.setup(seed);
        let (calibrated, wall) = host.run_to_horizon(&mut s.system, w.horizon(), period);
        run_s.push(calibrated);
        run_wall.push(wall);

        let scalars = Scalars::of(&s.system);
        let mut failures = check::run_checks(&s, &scalars);
        match &first {
            None => {
                // Algorithm 1 on the end state, once per invocation.
                failures.extend(check::solve_and_check(&s, capacity_fraction));
                report_scalars(&scalars);
                first = Some(scalars);
            }
            Some(f) if *f != scalars => {
                failures.push("a rerun with the same seed gave other outputs".to_owned());
            }
            Some(_) => {}
        }
        out.count_run("run", &failures);
        drop(s);
        if start.elapsed().as_secs_f64() + median(&run_wall) > budget.as_secs_f64() {
            break;
        }
    }

    let s = first.expect("at least one run");
    println!(
        "{}: {} set-ups, median {} s wall; {} runs to {} s virtual, wall s {:?}; \
         reference loop median {} ms",
        w.name(),
        setup_wall.len(),
        median(&setup_wall),
        run_wall.len(),
        w.horizon().as_secs(),
        run_wall,
        host.median_ms()
    );
    out.metric("run_s", median(&run_s), "s");
    out.metric("setup_s", median(&setup_wall) * setup_scale, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric(
        "tuple_success_ratio",
        s.completed as f64 / s.emitted as f64,
        "ratio",
    );
    out.metric("sim_latency_p50_ms", s.latency_p50_ms, "ms");
    out.metric("sim_latency_p99_ms", s.latency_p99_ms, "ms");
    out
}

/// Prints the simulated outputs a ratio or quantile is based on.
pub fn report_scalars(s: &Scalars) {
    println!(
        "outputs: events {} | emitted {} completed {} failed {} in flight {} \
         | replays {} lost {} perm-failed {} | latency samples {} | generations {} \
         recoveries {} published epoch {}",
        s.events,
        s.emitted,
        s.completed,
        s.failed,
        s.in_flight,
        s.replays,
        s.tuples_lost,
        s.perm_failed,
        s.latency_samples,
        s.generations,
        s.recoveries,
        s.published_epoch
    );
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of `values` (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The process's peak resident set (`VmHWM`), in MiB. It includes the
/// reference loop's 8.5 MiB, held for the whole invocation.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn print_result(out: &Outcome) {
    let mut failed = out.failed;
    let mut metrics = Vec::new();
    for m in &out.metrics {
        if m.value.is_finite() {
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        } else {
            eprintln!("check failed: metric {} is not a finite number", m.name);
            failed = failed.max(1);
        }
        println!("{:<28} {:>18} {}", m.name, m.value, m.unit);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        metrics.join(", ")
    );
}
