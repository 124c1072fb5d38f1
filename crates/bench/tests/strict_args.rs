//! End-to-end regression tests for strict argument parsing: malformed
//! input must exit non-zero with a diagnostic, never silently fall back
//! to defaults (the old `fig5 100O` → 1000 s bug).

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> std::process::Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("binary launches")
}

#[test]
fn malformed_duration_exits_nonzero_and_names_the_value() {
    // The motivating bug: a letter O typo used to run the default
    // duration instead of erroring.
    let out = run(env!("CARGO_BIN_EXE_fig5"), &["100O"]);
    assert_eq!(out.status.code(), Some(2), "exit code for `fig5 100O`");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("100O"),
        "stderr names the bad value: {stderr}"
    );
    assert!(stderr.contains("usage:"), "stderr shows usage: {stderr}");
}

#[test]
fn malformed_seed_and_extra_args_exit_nonzero() {
    let out = run(env!("CARGO_BIN_EXE_fig2"), &["10", "4x"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(env!("CARGO_BIN_EXE_fig3"), &["10", "7", "9"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(env!("CARGO_BIN_EXE_summary"), &["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn help_exits_zero_with_usage() {
    for bin in [
        env!("CARGO_BIN_EXE_fig5"),
        env!("CARGO_BIN_EXE_baselines"),
        env!("CARGO_BIN_EXE_tables"),
        env!("CARGO_BIN_EXE_sweep"),
    ] {
        let out = run(bin, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{bin} --help");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage"), "{bin} --help prints usage");
    }
}

#[test]
fn tables_rejects_any_argument() {
    let out = run(env!("CARGO_BIN_EXE_tables"), &["extra"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn sweep_rejects_malformed_grid_flags() {
    let cases: &[&[&str]] = &[
        &["--seeds", "3O"],
        &["--gammas", "1.0,potato"],
        &["--modes", "storm,fast"],
        &["--workloads", "throughput,nope"],
        &["--threads", "0"],
        &["--duration"],
        &["--bogus"],
        &["--gammas", "1.7,1.7"], // duplicate cell labels
    ];
    for args in cases {
        let out = run(env!("CARGO_BIN_EXE_sweep"), args);
        assert_eq!(out.status.code(), Some(2), "sweep {args:?}");
        assert!(!out.stderr.is_empty(), "sweep {args:?} explains itself");
    }
}

#[test]
fn simbench_rejects_removed_flags_and_scenarios() {
    // (arguments, text stderr must contain). The `--workers` dimension
    // and the dense scale scenarios were removed; asking for them must
    // fail before anything runs or is written.
    let out_path = std::env::temp_dir().join("simbench-strict-args.json");
    let out_arg = out_path.to_string_lossy().into_owned();
    let table: [(&[&str], &str); 3] = [
        (&["--workers", "2"], "--workers"),
        (&["--scenario", "scale-100-dense"], "--scenario"),
        (&["--scenario", "scale-500-dense"], "scale-500-dense"),
    ];
    for (args, needle) in table {
        let mut argv = args.to_vec();
        argv.extend(["--out", &out_arg]);
        let out = run(env!("CARGO_BIN_EXE_simbench"), &argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "simbench {args:?}: {stderr}");
        assert!(
            stderr.contains(needle),
            "simbench {args:?} names `{needle}`: {stderr}"
        );
        assert!(!out_path.exists(), "simbench {args:?} wrote a trajectory");
    }
}
