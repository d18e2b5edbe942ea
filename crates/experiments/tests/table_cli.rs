//! Every binary of this crate rejects ambiguous command lines with a
//! usage error before running anything: exit status 2, the generated
//! `usage:` line on stderr and nothing on stdout. The table below holds
//! one row per binary; the tests sweep it. `scalestudy`'s sweep checks
//! live in `scalestudy_cli.rs`, `bench_compare`'s and `perf_report`'s in
//! the wsu-bench crate's `cli.rs`.

use std::io::Read;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use wsu_experiments::suite::STEPS;

/// One binary: its name, its executable, a command line it accepts
/// and finishes quickly, and the flags its rows exercise.
struct Binary {
    name: &'static str,
    exe: &'static str,
    /// Accepted on its own, and finishes within seconds.
    base: &'static [&'static str],
    /// The generated usage line after the binary's name, up to its
    /// first flag or operand.
    usage: &'static str,
    /// A flag of the binary's that takes a value, if any.
    valued: Option<&'static str>,
    /// A flag that takes a number, if any.
    number: Option<&'static str>,
    /// A valued flag and another of the binary's flags, if it has two.
    pair: Option<[&'static str; 2]>,
}

/// An experiment binary: `--quick` first, then its own flags.
const fn experiment(name: &'static str, exe: &'static str, valued: &'static str) -> Binary {
    Binary {
        name,
        exe,
        base: &["--quick"],
        usage: "[--quick]",
        valued: Some(valued),
        number: Some("--jobs"),
        pair: Some(["--trace", "--quick"]),
    }
}

const BINARIES: [Binary; 15] = [
    experiment("table2", env!("CARGO_BIN_EXE_table2"), "--seeds"),
    experiment("table5", env!("CARGO_BIN_EXE_table5"), "--jobs"),
    experiment("table6", env!("CARGO_BIN_EXE_table6"), "--jobs"),
    experiment("fig7", env!("CARGO_BIN_EXE_fig7"), "--jobs"),
    experiment("fig8", env!("CARGO_BIN_EXE_fig8"), "--jobs"),
    experiment("ablations", env!("CARGO_BIN_EXE_ablations"), "--jobs"),
    experiment("capacity", env!("CARGO_BIN_EXE_capacity"), "--jobs"),
    experiment(
        "faultcampaign",
        env!("CARGO_BIN_EXE_faultcampaign"),
        "--plan",
    ),
    experiment("fleetstudy", env!("CARGO_BIN_EXE_fleetstudy"), "--cell"),
    Binary {
        number: Some("--demands"),
        pair: Some(["--bench-out", "--quick"]),
        ..experiment("scalestudy", env!("CARGO_BIN_EXE_scalestudy"), "--demands")
    },
    Binary {
        pair: Some(["--out", "--quick"]),
        ..experiment("all", env!("CARGO_BIN_EXE_all"), "--out")
    },
    Binary {
        name: "wsu-serve",
        exe: env!("CARGO_BIN_EXE_wsu-serve"),
        base: &["--addr", "127.0.0.1:0", "--duration", "0.1"],
        usage: "[--addr HOST:PORT]",
        valued: Some("--seed"),
        number: Some("--workers"),
        pair: Some(["--spec", "--sharded"]),
    },
    Binary {
        name: "wsu-loadgen",
        exe: env!("CARGO_BIN_EXE_wsu-loadgen"),
        // Nothing listens on port 1, so an accepted run fails at once.
        base: &["--addr", "127.0.0.1:1"],
        usage: "--addr HOST:PORT",
        valued: Some("--requests"),
        number: Some("--connections"),
        pair: Some(["--out", "--expect-server-match"]),
    },
    Binary {
        name: "wsu-analyze",
        exe: env!("CARGO_BIN_EXE_wsu-analyze"),
        base: &["absent.jsonl"],
        usage: "<trace.jsonl>",
        valued: Some("--phases"),
        number: Some("--window"),
        pair: Some(["--availability", "--window"]),
    },
    Binary {
        name: "wsu-httpget",
        exe: env!("CARGO_BIN_EXE_wsu-httpget"),
        // Nothing listens on port 1, so an accepted run fails at once.
        base: &["127.0.0.1:1", "/health"],
        usage: "<host:port> <path>",
        valued: None,
        number: None,
        pair: None,
    },
];

/// The binaries that take the shared `--jobs` and observability flags.
fn observed() -> impl Iterator<Item = &'static Binary> {
    BINARIES.iter().filter(|b| b.number == Some("--jobs"))
}

fn by_name(name: &str) -> &'static Binary {
    BINARIES
        .iter()
        .find(|b| b.name == name)
        .expect("binary in the table")
}

/// Runs `bin` with `args` in the temp directory, so a binary that
/// wrongly accepted them could not write into the source tree; one
/// that runs past a minute (a server wrongly told to serve forever) is
/// killed.
fn run(bin: &Binary, args: &[&str]) -> Output {
    let mut child = Command::new(bin.exe)
        .args(args)
        .current_dir(std::env::temp_dir())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let drain = |mut pipe: Box<dyn Read + Send>| {
        std::thread::spawn(move || {
            let mut bytes = Vec::new();
            pipe.read_to_end(&mut bytes).expect("read pipe");
            bytes
        })
    };
    let stdout = drain(Box::new(child.stdout.take().expect("stdout")));
    let stderr = drain(Box::new(child.stderr.take().expect("stderr")));
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().expect("kill");
            break child.wait().expect("wait");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    Output {
        status,
        stdout: stdout.join().expect("stdout reader"),
        stderr: stderr.join().expect("stderr reader"),
    }
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
        stderr.contains(&format!("usage: {name} {}", bin.usage)),
        "{name} {args:?}: stderr {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{name} {args:?}: a rejected run prints nothing"
    );
}

/// `bin`'s accepted base command line followed by `more`.
fn with(bin: &Binary, more: &[&'static str]) -> Vec<&'static str> {
    bin.base.iter().chain(more).copied().collect()
}

#[test]
fn unknown_flag_is_a_usage_error() {
    for bin in &BINARIES {
        rejects(bin, &with(bin, &["--bogus-flag"]), "--bogus-flag");
    }
}

#[test]
fn stray_argument_is_a_usage_error() {
    for bin in &BINARIES {
        rejects(bin, &with(bin, &["stray"]), "stray");
    }
}

#[test]
fn valued_flag_without_value_is_a_usage_error() {
    for bin in &BINARIES {
        if let Some(valued) = bin.valued {
            rejects(bin, &with(bin, &[valued]), valued);
        }
    }
}

#[test]
fn malformed_jobs_is_a_usage_error() {
    for bin in &BINARIES {
        rejects(bin, &with(bin, &["--jobs", "many"]), "--jobs");
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
fn malformed_value_is_a_usage_error() {
    for bin in &BINARIES {
        if let Some(number) = bin.number {
            rejects(
                bin,
                &with(bin, &[number, "many"]),
                &format!("{number}: expected"),
            );
        }
    }
}

#[test]
fn repeated_flag_is_a_usage_error() {
    for bin in &BINARIES {
        if let Some(number) = bin.number {
            rejects(
                bin,
                &with(bin, &[number, "1", number, "x"]),
                &format!("{number}: given more than once"),
            );
        }
    }
}

#[test]
fn value_that_is_a_flag_is_a_usage_error() {
    for bin in &BINARIES {
        if let Some([valued, flag]) = bin.pair {
            rejects(
                bin,
                &[valued, flag],
                &format!("{valued}: expected a value, got the flag \"{flag}\""),
            );
        }
    }
}

#[test]
fn analyze_reads_its_operand_not_a_flag_value() {
    let analyze = by_name("wsu-analyze");
    rejects(
        analyze,
        &["--window", "5", "t.jsonl"],
        "cannot read t.jsonl",
    );
    rejects(
        analyze,
        &["t.jsonl", "--bogus", "3"],
        "unknown flag \"--bogus\"",
    );
}

#[test]
fn out_of_range_seconds_are_usage_errors() {
    let serve = by_name("wsu-serve");
    for bad in ["inf", "1e30", "nan", "-1"] {
        rejects(
            serve,
            &["--addr", "127.0.0.1:0", "--duration", bad],
            "--duration: expected a number of seconds",
        );
    }
    for bin in observed() {
        for bad in ["-1", "1e30"] {
            rejects(
                bin,
                &["--quick", "--serve-hold", bad],
                "--serve-hold: expected a number of seconds",
            );
        }
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
fn usage_lines_are_generated_from_the_step_table() {
    for step in &STEPS {
        let out = run(by_name(step.name), &["--bogus-flag"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("usage: {}\n", step.cli().usage())),
            "{}: stderr {stderr}",
            step.name
        );
    }
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
    // A known `--plan`/`--cell` name narrows the run to that entry; the
    // flags repeat.
    for (name, flag, entry, second, other) in [
        (
            "faultcampaign",
            "--plan",
            "baseline",
            "transport-chaos",
            "false-alarm",
        ),
        (
            "fleetstudy",
            "--cell",
            "fleet2-restart",
            "fleet3-rollback",
            "fleet4-substitute",
        ),
    ] {
        let out = run(
            by_name(name),
            &["--quick", flag, entry, flag, second, "--jobs", "1"],
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name}: stderr {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(entry), "{name}: stdout {stdout}");
        assert!(stdout.contains(second), "{name}: stdout {stdout}");
        assert!(!stdout.contains(other), "{name}: stdout {stdout}");
    }
    // `--duration` bounds the serving run, `0` excepted.
    let out = run(
        by_name("wsu-serve"),
        &[
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--spec",
            "deterministic",
            "--sharded",
            "--seed",
            "7",
            "--duration",
            "0.2",
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "wsu-serve: stdout {stdout}");
    assert!(stdout.contains("served 0 demands in 0.2s"), "{stdout}");
}
