//! `bench_compare` and `perf_report` reject ambiguous command lines
//! with a usage error — exit status 2, the generated `usage:` line on
//! stderr, nothing on stdout — and `bench_compare`'s threshold cannot be
//! set to a value that switches the guard off.

use std::path::PathBuf;
use std::process::{Command, Output};

/// One binary: its name, its executable and a command line it accepts
/// (but for its absent input files).
struct Binary {
    name: &'static str,
    exe: &'static str,
    base: &'static [&'static str],
    /// The generated usage line after the binary's name, up to its
    /// first flag or operand.
    usage: &'static str,
    /// A flag that takes a number.
    number: &'static str,
    /// A valued flag and another of the binary's flags.
    pair: [&'static str; 2],
}

const BINARIES: [Binary; 2] = [
    Binary {
        name: "bench_compare",
        exe: env!("CARGO_BIN_EXE_bench_compare"),
        base: &["absent-a.json", "absent-b.json"],
        usage: "<baseline.json> <fresh.json>",
        number: "--min-ns",
        pair: ["--threshold", "--min-ns"],
    },
    Binary {
        name: "perf_report",
        exe: env!("CARGO_BIN_EXE_perf_report"),
        base: &["--full"],
        usage: "[--out DIR]",
        number: "--samples",
        pair: ["--out", "--full"],
    },
];

/// Runs `exe` in the temp directory, so a binary that wrongly accepted
/// its arguments could not write into the source tree.
fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("spawn")
}

/// Asserts `bin` rejects its base command line plus `more` with a usage
/// failure whose stderr carries `reason`.
fn rejects(bin: &Binary, more: &[&str], reason: &str) {
    let args: Vec<&str> = bin.base.iter().chain(more).copied().collect();
    let out = run(bin.exe, &args);
    let name = bin.name;
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{name} {args:?}: stderr {stderr}"
    );
    assert!(stderr.contains(reason), "{name} {args:?}: stderr {stderr}");
    assert!(
        stderr.contains(&format!("usage: {name} {}", bin.usage)),
        "{name} {args:?}: stderr {stderr}"
    );
    assert!(out.stdout.is_empty(), "{name} {args:?}: stdout not empty");
}

#[test]
fn ambiguous_command_lines_are_usage_errors() {
    for bin in &BINARIES {
        let (number, [valued, flag]) = (bin.number, bin.pair);
        rejects(bin, &["--bogus-flag"], "unknown flag \"--bogus-flag\"");
        rejects(bin, &["stray"], "unexpected argument \"stray\"");
        rejects(bin, &[number], &format!("{number}: expected a value"));
        rejects(bin, &[number, "many"], &format!("{number}: expected"));
        rejects(
            bin,
            &[number, "1", number, "x"],
            &format!("{number}: given more than once"),
        );
        rejects(
            bin,
            &[valued, flag],
            &format!("{valued}: expected a value, got the flag \"{flag}\""),
        );
    }
}

fn committed(report: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(report)
}

/// A copy of a committed `wsu-bench/1` report with every median ×100.
fn slowed_copy(report: &str) -> PathBuf {
    let text = std::fs::read_to_string(committed(report)).expect("committed report");
    let slowed: Vec<String> = text
        .lines()
        .map(|line| match line.split_once("\"median_ns\": ") {
            Some((head, tail)) => {
                let digits = tail
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(tail.len());
                let median: u64 = tail[..digits].parse().expect("median");
                format!("{head}\"median_ns\": {}{}", median * 100, &tail[digits..])
            }
            None => line.to_owned(),
        })
        .collect();
    let path = std::env::temp_dir().join(format!("slowed-{}-{report}", std::process::id()));
    std::fs::write(&path, slowed.join("\n")).expect("write slowed copy");
    path
}

#[test]
fn a_slowdown_fails_and_no_threshold_switches_the_guard_off() {
    let exe = env!("CARGO_BIN_EXE_bench_compare");
    let baseline = committed("BENCH_simcore.json");
    let slowed = slowed_copy("BENCH_simcore.json");
    let files = [
        baseline.to_str().expect("utf-8 path"),
        slowed.to_str().expect("utf-8 path"),
    ];
    let out = run(exe, &files);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a x100 slowdown fails the guard"
    );
    for bad in ["nan", "NaN", "inf", "-inf", "0", "-1", "x"] {
        let out = run(exe, &[files[0], files[1], "--threshold", bad]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--threshold {bad}: {stderr}");
        assert!(stderr.contains("--threshold: expected"), "{stderr}");
        assert!(out.stdout.is_empty(), "--threshold {bad}");
    }
    let out = run(exe, &[files[0], files[1], "--min-ns", "1e9"]);
    assert_eq!(out.status.code(), Some(2), "--min-ns takes an integer");
    std::fs::remove_file(slowed).expect("remove slowed copy");
}
