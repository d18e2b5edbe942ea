//! Runs the fleet study and prints the per-cell recovery table.
//!
//! Usage: `fleetstudy [--quick] [--cell NAME] [--jobs N]
//! [--trace PATH] [--metrics PATH] [--serve-metrics PORT]
//! [--serve-hold SECS] [--phase-metrics]` — `--cell` restricts the
//! matrix to the named cell (repeatable); `--quick` runs a reduced
//! demand count; `--jobs` picks the replication worker-pool size
//! (default: one per hardware thread) without changing any output;
//! `--trace`/`--metrics` write a JSONL event trace and
//! a metrics snapshot without changing the table on stdout;
//! `--serve-metrics` serves the snapshot on `/metrics` and the
//! per-cell results on `/snapshot`; `--phase-metrics` adds the
//! wall-clock `wsu_phase_seconds` gauges. Any other argument, a
//! malformed value or an unknown cell name is a usage error (exit
//! status 2).

use wsu_experiments::fleetstudy::{run_fleetstudy_jobs, standard_cells, FleetStudyConfig};
use wsu_experiments::obs::{
    check_flags_from_env, exit_usage, jobs_from_env, select_named, ObsOptions,
};
use wsu_experiments::DEFAULT_SEED;

const USAGE: &str = "fleetstudy [--quick] [--cell NAME] [--jobs N] [--trace PATH] \
                     [--metrics PATH] [--serve-metrics PORT] [--serve-hold SECS] \
                     [--phase-metrics]";

fn main() {
    check_flags_from_env(USAGE, &[("--quick", false), ("--cell", true)]);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let cells = select_named(&args, "--cell", standard_cells(), |cell| &cell.name)
        .unwrap_or_else(|e| exit_usage(USAGE, &e));
    let jobs = jobs_from_env(USAGE);
    let mut ctx = ObsOptions::from_env(USAGE).context();
    let config = if quick {
        FleetStudyConfig::quick()
    } else {
        FleetStudyConfig::paper()
    };
    let sinks = ctx.sinks();
    let table = ctx.time("fleetstudy/simulate", || {
        run_fleetstudy_jobs(&cells, &config, DEFAULT_SEED, &sinks, jobs)
    });
    print!("{}", table.render());
    ctx.publish_snapshot(&table.rows_json());
    ctx.finish().expect("write observability outputs");
}
