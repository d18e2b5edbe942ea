//! Runs the server-capacity study (extension E6): parallel vs
//! sequential dispatch under open Poisson arrivals.
//!
//! Usage: `capacity [--quick] [--jobs N] [--trace PATH] [--metrics PATH]
//! [--serve-metrics PORT] [--serve-hold SECS] [--phase-metrics]`. Any
//! other argument, or a malformed value, is a usage error (exit
//! status 2).

use wsu_experiments::capacity::{render_capacity_table, run_capacity_study_jobs};
use wsu_experiments::obs::{check_flags_from_env, jobs_from_env, ObsOptions};
use wsu_experiments::DEFAULT_SEED;
use wsu_workload::outcomes::CorrelatedOutcomes;
use wsu_workload::runs::RunSpec;
use wsu_workload::timing::ExecTimeModel;

const USAGE: &str = "capacity [--quick] [--jobs N] [--trace PATH] [--metrics PATH] \
                     [--serve-metrics PORT] [--serve-hold SECS] [--phase-metrics]";

fn main() {
    check_flags_from_env(USAGE, &[("--quick", false)]);
    let quick = std::env::args().any(|a| a == "--quick");
    let jobs = jobs_from_env(USAGE);
    let mut ctx = ObsOptions::from_env(USAGE).context();
    let demands = if quick { 3_000 } else { 20_000 };
    let gen = CorrelatedOutcomes::from_run(&RunSpec::run2());
    let results = ctx.time("capacity/study", || {
        run_capacity_study_jobs(
            &gen,
            ExecTimeModel::calibrated(),
            &[0.2, 0.4, 0.6, 0.8],
            demands,
            DEFAULT_SEED,
            jobs,
        )
    });
    print!("{}", render_capacity_table(&results));
    ctx.finish().expect("write observability outputs");
}
