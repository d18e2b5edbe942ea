//! Regenerates Fig. 8 (Scenario 2 percentile curves) as a TSV table.
//!
//! Usage: `fig8 [--quick] [--jobs N] [--trace PATH] [--metrics PATH]`
//! plus the shared observability flags `--serve-metrics PORT`,
//! `--serve-hold SECS` and `--phase-metrics` — `--jobs N` sizes the
//! worker pool the figure's studies fan out over (default: one per
//! hardware thread) without changing any output.

use wsu_bayes::whitebox::Resolution;
use wsu_experiments::bayes_study::StudyConfig;
use wsu_experiments::figures::{run_figure, Figure};
use wsu_experiments::obs::{jobs_from_env, ObsOptions};
use wsu_experiments::DEFAULT_SEED;

const USAGE: &str = "fig8 [--quick] [--jobs N] [--trace PATH] [--metrics PATH]";

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let jobs = jobs_from_env(USAGE);
    let mut ctx = ObsOptions::from_env(USAGE).context();
    let config = if quick {
        StudyConfig {
            demands: 3_000,
            checkpoint_every: 100,
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
        StudyConfig::paper_scenario2(DEFAULT_SEED)
    };
    let (set, runs) = ctx.time("fig8/study", || run_figure(Figure::Eight, &config, jobs));
    ctx.record_study(&runs.perfect, "fig8/perfect");
    if let Some(omission) = &runs.omission {
        ctx.record_study(omission, "fig8/omission");
    }
    ctx.record_study(&runs.back_to_back, "fig8/back-to-back");
    print!("{}", set.to_tsv());
    ctx.finish().expect("write observability outputs");
}
