//! `wsu-analyze` — offline analyzer for recorded JSONL event traces.
//!
//! Prints a summary (demands, availability, response-time percentiles,
//! span profile) to stdout. `--availability` writes the windowed
//! availability timeline as TSV, `--phases` the per-phase latency
//! breakdown; `--window` sets the timeline window width (default 60
//! virtual seconds). An unreadable trace is a usage error (exit
//! status 2); a trace that does not parse exits with status 1.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::exit;

use wsu_experiments::analyze::analyze_trace;
use wsu_experiments::cli::{Cli, Flag, Kind};

const FLAGS: [Flag; 3] = [
    Flag::new("--window", Kind::Positive, "a width").meta("SECS"),
    Flag::new("--availability", Kind::Path, "a timeline TSV path"),
    Flag::new("--phases", Kind::Path, "a phase-breakdown TSV path"),
];

/// Writes `content` to `path`, creating its directory; exits with
/// status 1 on failure.
fn write(path: &Path, content: String, what: &str) {
    let written = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => fs::create_dir_all(dir),
        _ => Ok(()),
    }
    .and_then(|()| fs::write(path, content));
    match written {
        Ok(()) => eprintln!("{what}: -> {}", path.display()),
        Err(err) => {
            eprintln!("cannot write {}: {err}", path.display());
            exit(1);
        }
    }
}

fn main() {
    let args = Cli::new("wsu-analyze", &[&FLAGS])
        .operands(&["trace.jsonl"])
        .parse_env();
    let trace_path = args.operand(0);
    let text = fs::read_to_string(trace_path)
        .unwrap_or_else(|err| args.fail(&format!("cannot read {trace_path}: {err}")));
    let analysis = match analyze_trace(&text, args.get("--window").unwrap_or(60.0)) {
        Ok(analysis) => analysis,
        Err(err) => {
            eprintln!("cannot analyze {trace_path}: {err}");
            exit(1);
        }
    };
    print!("{}", analysis.render_summary());
    if let Some(path) = args.get::<PathBuf>("--availability") {
        write(&path, analysis.availability_tsv(), "availability timeline");
    }
    if let Some(path) = args.get::<PathBuf>("--phases") {
        write(&path, analysis.phases_tsv(), "phase breakdown");
    }
}
