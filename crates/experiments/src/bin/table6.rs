//! Regenerates Table 6 (independent release failures).
//!
//! Usage: `table6 [--quick] [--calibrated] [--jobs N] [--trace PATH]
//! [--metrics PATH]` plus the shared observability flags
//! `--serve-metrics PORT`, `--serve-hold SECS` and `--phase-metrics`.
//! `--jobs` picks the replication worker-pool size without changing
//! any output. Any other argument, or a malformed value, is a usage
//! error (exit status 2).

use wsu_experiments::obs::{check_flags_from_env, jobs_from_env, ObsOptions};
use wsu_experiments::table6::run_table6_jobs;
use wsu_experiments::{DEFAULT_SEED, PAPER_REQUESTS, PAPER_TIMEOUTS};
use wsu_workload::timing::ExecTimeModel;

const USAGE: &str = "table6 [--quick] [--calibrated] [--jobs N] [--trace PATH] [--metrics PATH] \
                     [--serve-metrics PORT] [--serve-hold SECS] [--phase-metrics]";

fn main() {
    check_flags_from_env(USAGE, &[("--quick", false), ("--calibrated", false)]);
    let quick = std::env::args().any(|a| a == "--quick");
    let calibrated = std::env::args().any(|a| a == "--calibrated");
    let jobs = jobs_from_env(USAGE);
    let mut ctx = ObsOptions::from_env(USAGE).context();
    let timing = if calibrated {
        ExecTimeModel::calibrated()
    } else {
        ExecTimeModel::paper()
    };
    let requests = if quick { 2_000 } else { PAPER_REQUESTS };
    let sinks = ctx.sinks();
    let table = ctx.time("table6/simulate", || {
        run_table6_jobs(
            DEFAULT_SEED,
            requests,
            &PAPER_TIMEOUTS,
            timing,
            &sinks,
            jobs,
        )
    });
    print!("{}", table.render());
    ctx.finish().expect("write observability outputs");
}
