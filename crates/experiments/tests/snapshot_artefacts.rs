//! Snapshot tests: the committed `results/` artefacts must be exactly
//! reproducible from the current code.
//!
//! The full-scale Bayes and campaign tests are `#[ignore]`d because they
//! take minutes in a debug build; CI's perf-smoke job (and `cargo test
//! --release -p wsu-experiments -- --ignored`) runs them at release
//! speed. Tables 5 and 6 (all four variants) take seconds even in a
//! debug build, so they run unconditionally at paper scale, as do the
//! quick reduced-scale determinism checks.

use std::path::PathBuf;

use wsu_bayes::whitebox::Resolution;
use wsu_experiments::bayes_study::StudyConfig;
use wsu_experiments::campaign::{run_campaign_jobs, standard_plans, CampaignConfig};
use wsu_experiments::midsim::ObsSinks;
use wsu_experiments::table5::SimulationTable;
use wsu_experiments::{
    figures, table2, table5, table6, DEFAULT_SEED, PAPER_REQUESTS, PAPER_TIMEOUTS,
};
use wsu_simcore::par::Jobs;
use wsu_simcore::rng::MasterSeed;
use wsu_workload::timing::ExecTimeModel;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

fn paper_study1() -> StudyConfig {
    StudyConfig {
        demands: 50_000,
        checkpoint_every: 500,
        resolution: Resolution::default(),
        adaptive: None,
        confidence: 0.99,
        target: 1e-3,
        seed: DEFAULT_SEED,
    }
}

fn paper_study2() -> StudyConfig {
    StudyConfig {
        demands: 10_000,
        checkpoint_every: 100,
        resolution: Resolution::default(),
        adaptive: None,
        confidence: 0.99,
        target: 1e-3,
        seed: DEFAULT_SEED,
    }
}

#[test]
#[ignore = "full paper scale; run with --release (CI perf-smoke job)"]
fn table2_artefact_is_reproducible() {
    let golden = std::fs::read_to_string(results_dir().join("table2.txt"))
        .expect("committed results/table2.txt");
    let rendered = table2::run_table2_with(DEFAULT_SEED, &paper_study1(), &paper_study2()).render();
    assert_eq!(rendered, golden, "results/table2.txt drifted");
}

#[test]
#[ignore = "full paper scale; run with --release (CI perf-smoke job)"]
fn fig7_artefact_is_reproducible() {
    let golden = std::fs::read_to_string(results_dir().join("fig7.tsv"))
        .expect("committed results/fig7.tsv");
    let (fig7, _) = figures::run_fig7(&paper_study1());
    assert_eq!(fig7.to_tsv(), golden, "results/fig7.tsv drifted");
}

#[test]
#[ignore = "full paper scale; run with --release (CI perf-smoke job)"]
fn table2_spread_artefact_is_reproducible() {
    let golden = std::fs::read_to_string(results_dir().join("table2_spread.txt"))
        .expect("committed results/table2_spread.txt");
    // The ten seeds `all` runs: the default seed and the nine after it.
    let seeds: Vec<MasterSeed> = (0..10u64)
        .map(|i| MasterSeed::new(DEFAULT_SEED.value().wrapping_add(i)))
        .collect();
    let spread = table2::run_table2_spread(&seeds, &paper_study1(), &paper_study2());
    assert_eq!(
        table2::render_spread(&spread),
        golden,
        "results/table2_spread.txt drifted"
    );
}

#[test]
#[ignore = "full paper scale; run with --release (CI perf-smoke job)"]
fn fig8_artefact_is_reproducible() {
    let golden = std::fs::read_to_string(results_dir().join("fig8.tsv"))
        .expect("committed results/fig8.tsv");
    let (fig8, _) = figures::run_fig8(&paper_study2());
    assert_eq!(fig8.to_tsv(), golden, "results/fig8.tsv drifted");
}

#[test]
#[ignore = "full paper scale; run with --release (CI perf-smoke job)"]
fn faultcampaign_artefact_is_reproducible() {
    let golden = std::fs::read_to_string(results_dir().join("faultcampaign.txt"))
        .expect("committed results/faultcampaign.txt");
    let rendered = run_campaign_jobs(
        &standard_plans(),
        &CampaignConfig::paper(),
        DEFAULT_SEED,
        &ObsSinks::default(),
        Jobs::serial(),
    )
    .render();
    assert_eq!(rendered, golden, "results/faultcampaign.txt drifted");
}

#[test]
fn quick_faultcampaign_is_deterministic() {
    let run = || {
        run_campaign_jobs(
            &standard_plans()[..4],
            &CampaignConfig::quick(),
            DEFAULT_SEED,
            &ObsSinks::default(),
            Jobs::serial(),
        )
        .render()
    };
    assert_eq!(run(), run(), "quick campaign run is not deterministic");
}

#[test]
fn quick_table2_is_deterministic() {
    let res = Resolution {
        a_cells: 24,
        b_cells: 24,
        q_cells: 8,
    };
    let config = StudyConfig {
        demands: 2_000,
        checkpoint_every: 500,
        resolution: res,
        adaptive: None,
        confidence: 0.99,
        target: 1e-3,
        seed: DEFAULT_SEED,
    };
    let first = table2::run_table2_with(DEFAULT_SEED, &config, &config).render();
    let second = table2::run_table2_with(DEFAULT_SEED, &config, &config).render();
    assert_eq!(first, second, "quick Table 2 run is not deterministic");
}

/// The signature shared by `run_table5_jobs` and `run_table6_jobs`.
type SimulationRunner =
    fn(MasterSeed, u64, &[f64], ExecTimeModel, &ObsSinks, Jobs) -> SimulationTable;

/// Regenerates one Table 5/6 variant exactly as `all` does (paper
/// requests and timeouts, default seed) and compares it with the
/// committed `results/{file}` byte for byte.
fn assert_simulation_golden(file: &str, run: SimulationRunner, timing: ExecTimeModel) {
    let golden = std::fs::read_to_string(results_dir().join(file))
        .unwrap_or_else(|e| panic!("committed results/{file}: {e}"));
    let rendered = run(
        DEFAULT_SEED,
        PAPER_REQUESTS,
        &PAPER_TIMEOUTS,
        timing,
        &ObsSinks::default(),
        Jobs::new(2),
    )
    .render();
    assert_eq!(rendered, golden, "results/{file} drifted");
}

#[test]
fn table5_artefact_is_reproducible() {
    assert_simulation_golden(
        "table5.txt",
        table5::run_table5_jobs,
        ExecTimeModel::paper(),
    );
}

#[test]
fn table6_artefact_is_reproducible() {
    assert_simulation_golden(
        "table6.txt",
        table6::run_table6_jobs,
        ExecTimeModel::paper(),
    );
}

#[test]
fn table5_calibrated_artefact_is_reproducible() {
    assert_simulation_golden(
        "table5_calibrated.txt",
        table5::run_table5_jobs,
        ExecTimeModel::calibrated(),
    );
}

#[test]
fn table6_calibrated_artefact_is_reproducible() {
    assert_simulation_golden(
        "table6_calibrated.txt",
        table6::run_table6_jobs,
        ExecTimeModel::calibrated(),
    );
}
