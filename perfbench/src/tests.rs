//! The benchmark's own guarantees: its inputs are a function of the
//! seed alone, and the program's outputs follow them.

use crate::check::Scalars;
use crate::workload::Workload;
use tstorm_types::SimTime;

/// Runs `w` from `seed` to a short horizon; returns its outputs.
fn outputs(w: Workload, seed: u64) -> Scalars {
    let mut s = w.setup(seed);
    s.system.run_until(SimTime::from_secs(30)).expect("runs");
    Scalars::of(&s.system)
}

#[test]
fn same_seed_same_outputs_other_seed_other_outputs() {
    for w in Workload::ALL {
        let first = outputs(w, 7);
        // Another workload in between: nothing may carry over.
        let _ = outputs(Workload::ALL[(w as usize + 1) % Workload::ALL.len()], 9);
        assert_eq!(first, outputs(w, 7), "{}: same seed", w.name());
        assert_ne!(first, outputs(w, 8), "{}: other seed", w.name());
        assert!(first.completed > 0, "{}: nothing completed", w.name());
    }
}

#[test]
fn the_program_receives_only_inputs_generated_from_the_seed() {
    for w in Workload::ALL {
        let config = w.config(11);
        assert_eq!(
            config.sim.seed,
            11,
            "{}: the engine seed is the seed",
            w.name()
        );
        let a = w.setup(11);
        let b = w.setup(11);
        let descriptors = |s: &crate::workload::Setup| {
            s.system
                .simulation()
                .executor_descriptors()
                .iter()
                .map(|d| (d.id, d.topology, d.component))
                .collect::<Vec<_>>()
        };
        assert_eq!(descriptors(&a), descriptors(&b), "{}", w.name());
        assert_eq!(
            a.system.simulation().current_assignment(),
            b.system.simulation().current_assignment(),
            "{}: initial placement",
            w.name()
        );
    }
}

#[test]
fn running_in_monitor_period_slices_changes_no_output() {
    let horizon = SimTime::from_secs(60);
    for w in Workload::ALL {
        let mut whole = w.setup(3);
        whole.system.run_until(horizon).expect("runs");
        let mut sliced = w.setup(3);
        let period = w.config(3).monitor_period;
        crate::calibrate::HostSpeed::default().run_to_horizon(&mut sliced.system, horizon, period);
        assert_eq!(
            Scalars::of(&whole.system),
            Scalars::of(&sliced.system),
            "{}",
            w.name()
        );
    }
}
