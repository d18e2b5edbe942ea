//! Runs the fault-injection campaign and prints the per-plan
//! detection-coverage table.
//!
//! Usage: `faultcampaign [--quick] [--plan NAME] [--jobs N]
//! [--trace PATH] [--metrics PATH] [--serve-metrics PORT]
//! [--serve-hold SECS] [--phase-metrics]` — `--plan` restricts the
//! matrix to the named plan (repeatable); `--quick` runs a reduced
//! demand count; `--jobs` picks the replication worker-pool size
//! (default: one per hardware thread) without changing any output;
//! `--trace`/`--metrics` write a JSONL event trace and
//! a metrics snapshot without changing the table on stdout;
//! `--serve-metrics` serves the snapshot on `/metrics` and the
//! per-plan dependability snapshots on `/snapshot`;
//! `--phase-metrics` adds the wall-clock `wsu_phase_seconds` gauges.
//! Any other argument, a malformed value or an unknown plan name is a
//! usage error (exit status 2).

use wsu_experiments::campaign::{run_campaign_jobs, standard_plans, CampaignConfig};
use wsu_experiments::obs::{
    check_flags_from_env, exit_usage, jobs_from_env, select_named, ObsOptions,
};
use wsu_experiments::DEFAULT_SEED;

const USAGE: &str = "faultcampaign [--quick] [--plan NAME] [--jobs N] [--trace PATH] \
                     [--metrics PATH] [--serve-metrics PORT] [--serve-hold SECS] \
                     [--phase-metrics]";

fn main() {
    check_flags_from_env(USAGE, &[("--quick", false), ("--plan", true)]);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let specs = select_named(&args, "--plan", standard_plans(), |spec| {
        &spec.scenario.name
    })
    .unwrap_or_else(|e| exit_usage(USAGE, &e));
    let jobs = jobs_from_env(USAGE);
    let mut ctx = ObsOptions::from_env(USAGE).context();
    let config = if quick {
        CampaignConfig::quick()
    } else {
        CampaignConfig::paper()
    };
    let sinks = ctx.sinks();
    let table = ctx.time("faultcampaign/simulate", || {
        run_campaign_jobs(&specs, &config, DEFAULT_SEED, &sinks, jobs)
    });
    print!("{}", table.render());
    ctx.publish_snapshot(&table.snapshots_json());
    ctx.finish().expect("write observability outputs");
}
