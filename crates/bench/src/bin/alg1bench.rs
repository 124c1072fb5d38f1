//! `alg1bench` — std-timer measurement of Algorithm 1's full solve
//! versus the incremental replay path, at scale.
//!
//! The binary measures with `std::time::Instant` directly: for each
//! executor count it times (a) the full solve on fresh inputs, and (b)
//! the incremental replay on load-only perturbations of a cached solve,
//! verifying on every iteration that the replay actually took the
//! incremental path and (once per size) that its assignment equals a
//! fresh full re-solve.
//!
//! ```text
//! alg1bench [--ne N[,N]...] [--nodes K] [--slots S] [--iters I]
//!           [--fraction F]
//! ```

use std::process::ExitCode;
use std::time::Instant;
use tstorm_cluster::ClusterSpec;
use tstorm_sched::{
    ExecutorInfo, SchedParams, Scheduler, SchedulingInput, TStormScheduler, TrafficMatrix,
};
use tstorm_types::{ComponentId, ExecutorId, Mhz, TopologyId};

/// A chain of `ne` executors over `nodes`×`slots_per_node` slots.
fn chain_input(ne: u32, nodes: u32, slots_per_node: u32) -> SchedulingInput {
    let cluster = ClusterSpec::homogeneous(nodes, slots_per_node, Mhz::new(8000.0)).expect("valid");
    let executors: Vec<ExecutorInfo> = (0..ne)
        .map(|i| {
            ExecutorInfo::new(
                ExecutorId::new(i),
                TopologyId::new(0),
                ComponentId::new(i % 8),
                Mhz::new(20.0),
            )
        })
        .collect();
    let mut traffic = TrafficMatrix::new();
    for i in 0..ne.saturating_sub(1) {
        traffic.set(
            ExecutorId::new(i),
            ExecutorId::new(i + 1),
            100.0 + f64::from(i),
        );
    }
    SchedulingInput::new(
        cluster,
        executors,
        traffic,
        SchedParams::default().with_gamma(2.0),
    )
}

/// Deterministically perturbs the loads of roughly `fraction` of the
/// executors (LCG-driven, seeded) — the load-only delta the monitor
/// hands the scheduler between windows.
fn perturb_loads(input: &mut SchedulingInput, seed: u64, fraction: f64) {
    let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    for e in &mut input.executors {
        if next() < fraction {
            let factor = 0.8 + 0.4 * next();
            *e = ExecutorInfo::new(
                e.id,
                e.topology,
                e.component,
                Mhz::new(e.load.get() * factor),
            );
        }
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

struct Options {
    ne: Vec<u32>,
    nodes: u32,
    slots: u32,
    iters: u32,
    fraction: f64,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        ne: vec![1_000, 5_000, 10_000],
        nodes: 100,
        slots: 4,
        iters: 9,
        fraction: 0.05,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--ne" => {
                opts.ne = value("--ne")?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<u32>()
                            .ok()
                            .filter(|n| *n > 1)
                            .ok_or_else(|| format!("--ne: `{s}` is not a valid executor count"))
                    })
                    .collect::<Result<Vec<u32>, String>>()?;
            }
            "--nodes" => {
                opts.nodes = value("--nodes")?
                    .parse()
                    .map_err(|_| "--nodes".to_owned())?
            }
            "--slots" => {
                opts.slots = value("--slots")?
                    .parse()
                    .map_err(|_| "--slots".to_owned())?
            }
            "--iters" => {
                opts.iters = value("--iters")?
                    .parse()
                    .map_err(|_| "--iters".to_owned())?
            }
            "--fraction" => {
                opts.fraction = value("--fraction")?
                    .parse()
                    .map_err(|_| "--fraction must be a number".to_owned())?;
                if !(0.0..=0.25).contains(&opts.fraction) {
                    return Err("--fraction must be within [0, 0.25] (the incremental gate)".into());
                }
            }
            "--help" | "-h" => {
                return Err(
                    "usage: alg1bench [--ne N[,N]...] [--nodes K] [--slots S] [--iters I] \
                     [--fraction F]"
                        .to_owned(),
                )
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "Algorithm 1 full solve vs incremental replay — {} nodes x {} slots, \
         {:.0}% of loads perturbed per window, median of {} iters",
        opts.nodes,
        opts.slots,
        opts.fraction * 100.0,
        opts.iters,
    );
    println!(
        "{:>10} {:>14} {:>14} {:>9}",
        "Ne", "full (ms)", "incr (ms)", "speedup"
    );
    for &ne in &opts.ne {
        // Full solve: incremental disabled, every call re-runs Algorithm 1.
        let mut full = TStormScheduler::new();
        full.set_incremental(false);
        let mut full_times = Vec::new();
        let mut input = chain_input(ne, opts.nodes, opts.slots);
        for i in 0..opts.iters {
            perturb_loads(&mut input, u64::from(i) + 1, opts.fraction);
            let t = Instant::now();
            let a = full.schedule(&input).expect("feasible");
            full_times.push(t.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(a);
        }

        // Incremental: prime the cache with one full solve, then time
        // replays over load-only perturbations.
        let mut inc = TStormScheduler::new();
        let mut input = chain_input(ne, opts.nodes, opts.slots);
        inc.schedule(&input).expect("feasible");
        let mut inc_times = Vec::new();
        for i in 0..opts.iters {
            perturb_loads(&mut input, u64::from(i) + 1, opts.fraction);
            let t = Instant::now();
            let a = inc.schedule(&input).expect("feasible");
            inc_times.push(t.elapsed().as_secs_f64() * 1e3);
            assert!(
                inc.last_solve_was_incremental(),
                "Ne={ne} iter {i}: replay fell back to a full solve"
            );
            std::hint::black_box(&a);
            if i == 0 {
                // Exactness spot-check: the replay must equal a fresh
                // full re-solve of the same input.
                let mut fresh = TStormScheduler::new();
                fresh.set_incremental(false);
                let b = fresh.schedule(&input).expect("feasible");
                assert_eq!(a, b, "Ne={ne}: incremental replay diverged from full solve");
            }
        }

        let f = median(full_times);
        let i = median(inc_times);
        println!("{ne:>10} {f:>14.3} {i:>14.3} {:>8.1}x", f / i);
    }
    ExitCode::SUCCESS
}
