//! Regenerates Fig. 7 (Scenario 1 percentile curves) as a TSV table.
//!
//! Usage: `fig7 [--quick] [--jobs N] [--trace PATH] [--metrics PATH]
//! [--serve-metrics PORT] [--serve-hold SECS] [--phase-metrics]` —
//! `--jobs N` sizes the worker pool the figure's studies fan out over
//! (default: one per hardware thread) without changing any output.
//! Any other argument, or a malformed value, is a usage error (exit
//! status 2).

use wsu_bayes::whitebox::Resolution;
use wsu_experiments::bayes_study::StudyConfig;
use wsu_experiments::figures::{run_figure, Figure};
use wsu_experiments::obs::{check_flags_from_env, jobs_from_env, ObsOptions};
use wsu_experiments::DEFAULT_SEED;

const USAGE: &str = "fig7 [--quick] [--jobs N] [--trace PATH] [--metrics PATH] \
                     [--serve-metrics PORT] [--serve-hold SECS] [--phase-metrics]";

fn main() {
    check_flags_from_env(USAGE, &[("--quick", false)]);
    let quick = std::env::args().any(|a| a == "--quick");
    let jobs = jobs_from_env(USAGE);
    let mut ctx = ObsOptions::from_env(USAGE).context();
    let config = if quick {
        StudyConfig {
            demands: 10_000,
            checkpoint_every: 500,
            resolution: Resolution {
                a_cells: 48,
                b_cells: 48,
                q_cells: 16,
            },
            adaptive: None,
            confidence: 0.99,
            target: 1e-3,
            seed: DEFAULT_SEED,
        }
    } else {
        StudyConfig::paper_scenario1(DEFAULT_SEED)
    };
    let (set, runs) = ctx.time("fig7/study", || run_figure(Figure::Seven, &config, jobs));
    ctx.record_study(&runs.perfect, "fig7/perfect");
    if let Some(omission) = &runs.omission {
        ctx.record_study(omission, "fig7/omission");
    }
    ctx.record_study(&runs.back_to_back, "fig7/back-to-back");
    print!("{}", set.to_tsv());
    ctx.finish().expect("write observability outputs");
}
