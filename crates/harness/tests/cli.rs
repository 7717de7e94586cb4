//! `repro` command-line robustness: bad flag values and unknown flags are
//! rejected while the arguments are parsed, with a one-line diagnosis
//! naming the flag, before any simulation runs and without reaching an
//! assertion inside the model.

use std::process::Command;

/// Runs `repro` with `args` and asserts it fails the way a bad command
/// line should: non-zero exit, `flag` named on stderr, no panic, and no
/// simulation started.
fn assert_rejected(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "repro {args:?} must exit non-zero");
    assert!(
        stderr.contains(flag),
        "repro {args:?}: stderr must name {flag}, got {stderr:?}"
    );
    assert!(
        !stderr.contains("panicked"),
        "repro {args:?} panicked: {stderr}"
    );
    assert!(
        !stdout.contains("##########") && !stdout.contains("observing"),
        "repro {args:?} started work before failing: {stdout}"
    );
}

#[test]
fn negative_trace_gbps_is_rejected() {
    assert_rejected(&["--trace-gbps", "-5", "--profile"], "--trace-gbps");
}

#[test]
fn zero_trace_gbps_is_rejected() {
    assert_rejected(&["--trace-gbps", "0", "--profile"], "--trace-gbps");
}

#[test]
fn nan_trace_gbps_is_rejected() {
    assert_rejected(&["--trace-gbps", "nan", "--profile"], "--trace-gbps");
}

#[test]
fn removed_threads_flag_is_unknown() {
    assert_rejected(&["--threads", "2", "--profile"], "--threads");
}

#[test]
fn unknown_flag_fails_before_any_experiment_runs() {
    assert_rejected(&["fig6", "--bogus"], "--bogus");
}
