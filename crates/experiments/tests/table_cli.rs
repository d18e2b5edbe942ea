//! Every experiment binary rejects an unknown flag, a stray argument, a
//! valued flag missing its value and a malformed `--jobs` with a usage
//! error (exit status 2) before running anything. The table below holds
//! one row per binary; the tests sweep it. `scalestudy`'s own sweep
//! checks live in `scalestudy_cli.rs`.

use std::process::{Command, Output};

/// One experiment binary: its name, its executable, and one flag of its
/// own that takes a value.
struct Binary {
    name: &'static str,
    exe: &'static str,
    valued: &'static str,
}

const fn bin(name: &'static str, exe: &'static str, valued: &'static str) -> Binary {
    Binary { name, exe, valued }
}

const BINARIES: [Binary; 11] = [
    bin("table2", env!("CARGO_BIN_EXE_table2"), "--seeds"),
    bin("table5", env!("CARGO_BIN_EXE_table5"), "--jobs"),
    bin("table6", env!("CARGO_BIN_EXE_table6"), "--jobs"),
    bin("fig7", env!("CARGO_BIN_EXE_fig7"), "--jobs"),
    bin("fig8", env!("CARGO_BIN_EXE_fig8"), "--jobs"),
    bin("ablations", env!("CARGO_BIN_EXE_ablations"), "--jobs"),
    bin("capacity", env!("CARGO_BIN_EXE_capacity"), "--jobs"),
    bin(
        "faultcampaign",
        env!("CARGO_BIN_EXE_faultcampaign"),
        "--plan",
    ),
    bin("fleetstudy", env!("CARGO_BIN_EXE_fleetstudy"), "--cell"),
    bin("scalestudy", env!("CARGO_BIN_EXE_scalestudy"), "--demands"),
    bin("all", env!("CARGO_BIN_EXE_all"), "--out"),
];

/// The binaries that take the shared `--jobs` and observability flags
/// (all but `scalestudy`).
fn observed() -> impl Iterator<Item = &'static Binary> {
    BINARIES.iter().filter(|b| b.name != "scalestudy")
}

fn by_name(name: &str) -> &'static Binary {
    BINARIES
        .iter()
        .find(|b| b.name == name)
        .expect("binary in the table")
}

/// Runs `bin` with `args` in the temp directory, so a binary that
/// wrongly accepted them could not write into the source tree.
fn run(bin: &Binary, args: &[&str]) -> Output {
    Command::new(bin.exe)
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("spawn")
}

/// Asserts `bin` rejects `args` with a usage failure whose stderr
/// carries `reason`, and prints nothing on stdout.
fn rejects(bin: &Binary, args: &[&str], reason: &str) {
    let out = run(bin, args);
    let name = bin.name;
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{name} {args:?}: stderr {stderr}"
    );
    assert!(stderr.contains(reason), "{name} {args:?}: stderr {stderr}");
    assert!(
        stderr.contains(&format!("usage: {name} [--quick]")),
        "{name} {args:?}: stderr {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{name} {args:?}: a rejected run prints nothing"
    );
}

#[test]
fn unknown_flag_is_a_usage_error() {
    for bin in &BINARIES {
        rejects(bin, &["--quick", "--bogus-flag"], "--bogus-flag");
    }
}

#[test]
fn stray_argument_is_a_usage_error() {
    for bin in &BINARIES {
        rejects(bin, &["--quick", "stray"], "stray");
    }
}

#[test]
fn valued_flag_without_value_is_a_usage_error() {
    for bin in &BINARIES {
        rejects(bin, &["--quick", bin.valued], bin.valued);
    }
}

#[test]
fn malformed_jobs_is_a_usage_error() {
    for bin in &BINARIES {
        rejects(bin, &["--quick", "--jobs", "many"], "--jobs");
    }
    for bin in observed() {
        rejects(
            bin,
            &["--quick", "--jobs", "many"],
            "--jobs: expected a worker count",
        );
        rejects(bin, &["--quick", "--jobs"], "--jobs: expected a value");
    }
}

#[test]
fn non_numeric_serve_port_is_a_usage_error() {
    for bin in observed() {
        rejects(
            bin,
            &["--quick", "--serve-metrics", "metrics"],
            "--serve-metrics: expected a port number",
        );
    }
}

#[test]
fn non_numeric_serve_hold_is_a_usage_error() {
    for bin in observed() {
        rejects(
            bin,
            &["--quick", "--serve-hold", "soon"],
            "--serve-hold: expected a number of seconds",
        );
    }
}

#[test]
fn removed_shards_flag_is_a_usage_error() {
    for name in ["table5", "table6"] {
        rejects(
            by_name(name),
            &["--quick", "--shards", "2"],
            "unknown flag \"--shards\"",
        );
    }
}

#[test]
fn removed_adaptive_flag_is_a_usage_error() {
    rejects(
        by_name("table2"),
        &["--quick", "--adaptive"],
        "unknown flag \"--adaptive\"",
    );
}

#[test]
fn unknown_plan_name_is_a_usage_error() {
    rejects(
        by_name("faultcampaign"),
        &["--quick", "--plan", "baseline", "--plan", "nosuch"],
        "--plan: unknown name \"nosuch\"; available: baseline,",
    );
}

#[test]
fn unknown_cell_name_is_a_usage_error() {
    rejects(
        by_name("fleetstudy"),
        &["--quick", "--cell", "fleet2-restart", "--cell", "typo"],
        "--cell: unknown name \"typo\"; available: fleet2-restart,",
    );
}

#[test]
fn documented_flags_are_accepted() {
    for name in ["table5", "table6"] {
        let out = run(
            by_name(name),
            &["--quick", "--calibrated", "--jobs", "1", "--phase-metrics"],
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name}: stderr {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("Run 4"), "{name}: stdout {stdout}");
    }
    // A known `--plan`/`--cell` name narrows the run to that entry.
    for (name, flag, entry, other) in [
        ("faultcampaign", "--plan", "baseline", "transport-chaos"),
        (
            "fleetstudy",
            "--cell",
            "fleet2-restart",
            "fleet4-substitute",
        ),
    ] {
        let out = run(by_name(name), &["--quick", flag, entry, "--jobs", "1"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name}: stderr {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(entry), "{name}: stdout {stdout}");
        assert!(!stdout.contains(other), "{name}: stdout {stdout}");
    }
}
