//! `scalestudy` rejects sweep configurations the epoch runner cannot
//! honour with a usage error (exit status 2), never a panic.

use std::process::Command;

/// Runs `scalestudy` with `args`, asserting a usage failure whose
/// stderr carries `reason`.
fn rejects(args: &[&str], reason: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_scalestudy"))
        .args(args)
        .output()
        .expect("spawn scalestudy");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(stderr.contains(reason), "{args:?}: stderr {stderr}");
    assert!(
        stderr.contains("usage: scalestudy"),
        "{args:?}: stderr {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{args:?}: a rejected run prints no table"
    );
}

#[test]
fn zero_shard_count_is_a_usage_error() {
    rejects(
        &["--quick", "--shards-list", "0"],
        "shard counts must be positive",
    );
}

#[test]
fn zero_block_is_a_usage_error() {
    rejects(&["--quick", "--block", "0"], "block must be positive");
}

#[test]
fn cutover_outside_the_run_is_a_usage_error() {
    rejects(
        &["--quick", "--demands", "0"],
        "cutover 16384 must happen inside the run",
    );
}
