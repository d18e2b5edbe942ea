//! The workspace benchmark.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --offline --manifest-path wsubench/Cargo.toml -- \
//!     --workload repro|midsim|fleet|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload drives one part of the system (see `README.md` beside
//! this crate). With `--trace 0` it prints the end-to-end metrics, with
//! `--trace 1` the per-layer metrics; the last line of stdout is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`, and the
//! line before it the run's provenance. Both are also written to
//! `.bench_out/`, with the span trace of a traced run.

mod fleet;
mod layers;
mod midsim;
mod provenance;
mod repro;
mod run;
mod sched;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use run::Run;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["repro", "midsim", "fleet", "serve"];

/// Where results and traces are written, relative to the repository root.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed wants an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds wants a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A JSON number: non-finite values (an all-failed tail) are clamped
/// to the largest finite f64, since their failures are counted anyway.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v > 0.0 {
        format!("{}", f64::MAX)
    } else {
        format!("{}", f64::MIN)
    }
}

fn result_line(run: &Run) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.failed == 0 && run.attempted > 0,
        run.attempted.max(1),
        run.failed
    );
    for (i, m) in run.metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wsubench: {e}");
            eprintln!(
                "usage: wsubench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // The goldens are the correctness contract: without them (not run
    // from a repository root) there is nothing to check against.
    if !Path::new("results").is_dir() {
        eprintln!("wsubench: run from the repository root (no results/ here)");
        return ExitCode::from(2);
    }
    let mut run = Run::new(args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "repro" => repro::run(&mut run),
        "midsim" => midsim::run(&mut run),
        "fleet" => fleet::run(&mut run),
        "serve" => serve::run(&mut run),
        _ => unreachable!("workload names are validated by parse_args"),
    }
    if !run.traced() {
        run.metric("peak_rss_mb", provenance::peak_rss_mb(), "MB");
    }
    let fail_share = run.failed as f64 / run.attempted.max(1) as f64;
    let prov = provenance::render(&args.workload, &run, fail_share);
    let line = result_line(&run);
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{stem}.json"), format!("{prov}\n{line}\n")))
        .and_then(|()| {
            if run.traced() {
                run.tracer
                    .write_jsonl(Path::new(&format!("{stem}.trace.jsonl")))
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("wsubench: writing {stem}: {e}");
    }
    println!("{prov}");
    println!("{line}");
    ExitCode::SUCCESS
}
