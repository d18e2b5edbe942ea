//! `table5` and `table6` reject unknown flags and malformed values with
//! a usage error (exit status 2) before simulating anything, and accept
//! their documented flags.

use std::process::Command;

const TABLES: [(&str, &str); 2] = [
    ("table5", env!("CARGO_BIN_EXE_table5")),
    ("table6", env!("CARGO_BIN_EXE_table6")),
];

/// Runs each table binary with `args`, asserting a usage failure whose
/// stderr carries `reason`.
fn rejects(args: &[&str], reason: &str) {
    for (name, exe) in TABLES {
        let out = Command::new(exe).args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name} {args:?}: stderr {stderr}"
        );
        assert!(stderr.contains(reason), "{name} {args:?}: stderr {stderr}");
        assert!(
            stderr.contains(&format!("usage: {name} [--quick] [--calibrated]")),
            "{name} {args:?}: stderr {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{name} {args:?}: a rejected run prints no table"
        );
    }
}

#[test]
fn removed_shards_flag_is_a_usage_error() {
    rejects(&["--quick", "--shards", "2"], "unknown flag \"--shards\"");
}

#[test]
fn stray_argument_is_a_usage_error() {
    rejects(
        &["--quick", "calibrated"],
        "unexpected argument \"calibrated\"",
    );
}

#[test]
fn non_numeric_serve_port_is_a_usage_error() {
    rejects(
        &["--quick", "--serve-metrics", "metrics"],
        "--serve-metrics: expected a port number",
    );
}

#[test]
fn non_numeric_serve_hold_is_a_usage_error() {
    rejects(
        &["--quick", "--serve-hold", "soon"],
        "--serve-hold: expected a number of seconds",
    );
}

#[test]
fn malformed_jobs_is_a_usage_error() {
    rejects(
        &["--quick", "--jobs", "many"],
        "--jobs: expected a worker count",
    );
    rejects(&["--quick", "--jobs"], "--jobs: expected a value");
}

#[test]
fn documented_flags_are_accepted() {
    for (name, exe) in TABLES {
        let out = Command::new(exe)
            .args(["--quick", "--calibrated", "--jobs", "1", "--phase-metrics"])
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name}: stderr {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("Run 4"), "{name}: stdout {stdout}");
    }
}
