//! End-to-end strict-argument tests for the `tstorm` binary: malformed
//! invocations must exit 2 with a diagnostic naming the bad value,
//! matching the bench binaries' convention — never silently fall back
//! to a default.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tstorm"))
        .args(args)
        .output()
        .expect("binary launches")
}

#[test]
fn malformed_and_removed_flags_exit_two_and_name_the_culprit() {
    // (arguments, text stderr must contain). `--workers` and
    // `--pair-backend` were removed; a script still passing them must
    // fail loudly rather than run something other than it asked for.
    let table: [(&[&str], &str); 6] = [
        (&["run", "--workers", "4"], "--workers"),
        (&["compare", "--workers", "2"], "--workers"),
        (&["run", "--pair-backend", "dense"], "--pair-backend"),
        // The classic letter-O typo must not silently run 10 s.
        (&["run", "--duration", "1O"], "1O"),
        (&["run", "--duration"], "requires a value"),
        // A crash time past the simulated range must not wrap its
        // restart around to before the crash.
        (
            &["run", "--fault", "node-crash@t=1e300,node=1,restart=10"],
            "node-crash@t=1e300,node=1,restart=10",
        ),
    ];
    for (args, needle) in table {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "exit code for {args:?}: {stderr}"
        );
        assert!(
            stderr.contains(needle),
            "{args:?}: stderr names `{needle}`: {stderr}"
        );
        assert!(
            stderr.contains("USAGE"),
            "{args:?}: stderr shows usage: {stderr}"
        );
    }
}

#[test]
fn unknown_flags_still_exit_two() {
    let out = run(&["run", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn valid_run_exits_zero() {
    let out = run(&[
        "run",
        "--topology",
        "wordcount",
        "--duration",
        "30",
        "--quiet",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("completed"), "summary printed: {stdout}");
}
