//! Snapshot tests: every file `all` writes must be exactly reproducible
//! from the current code. One loop runs the step table
//! ([`wsu_experiments::suite::STEPS`]) at paper scale, exactly as `all`
//! does, and compares each step's files with the committed `results/`
//! goldens byte for byte — which also pins the step binaries' stdout,
//! since a step binary prints what `all` writes.
//!
//! The full loop is `#[ignore]`d because the Bayes steps take minutes in
//! a debug build; CI's golden artefact check (`cargo test --release -p
//! wsu-experiments --test snapshot_artefacts -- --include-ignored`) runs
//! it at release speed. Tables 5 and 6 (all four variants) take seconds
//! even in a debug build, so they also run unconditionally, as do the
//! quick reduced-scale determinism checks.

use std::path::PathBuf;

use wsu_experiments::bayes_study::StudyConfig;
use wsu_experiments::campaign::{run_campaign_jobs, standard_plans, CampaignConfig};
use wsu_experiments::midsim::ObsSinks;
use wsu_experiments::obs::ObsOptions;
use wsu_experiments::suite::{Invocation, Step, STEPS};
use wsu_experiments::{table2, DEFAULT_SEED};
use wsu_simcore::par::Jobs;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

/// Runs `invocation` of `step` at paper scale on two workers, as `all`
/// does, and compares every file it writes with the committed golden.
fn assert_goldens(step: &Step, invocation: &Invocation) {
    let common = ["--jobs".to_owned(), "2".to_owned()];
    let mut ctx = ObsOptions::default().context();
    for (file, rendered) in step.invoke(invocation, &common, &mut ctx) {
        let golden = std::fs::read_to_string(results_dir().join(file))
            .unwrap_or_else(|e| panic!("committed results/{file}: {e}"));
        assert_eq!(rendered, golden, "results/{file} drifted");
    }
}

/// The goldens of the invocation that writes `file`.
fn assert_golden(file: &str) {
    let (step, invocation) = STEPS
        .iter()
        .flat_map(|step| step.invocations.iter().map(move |inv| (step, inv)))
        .find(|(_, (_, files))| files.contains(&file))
        .expect("a step writes the file");
    assert_goldens(step, invocation);
}

#[test]
#[ignore = "full paper scale; run with --release (CI golden artefact check)"]
fn every_artefact_is_reproducible() {
    for step in &STEPS {
        for invocation in step.invocations {
            assert_goldens(step, invocation);
        }
    }
}

#[test]
fn table5_artefact_is_reproducible() {
    assert_golden("table5.txt");
}

#[test]
fn table6_artefact_is_reproducible() {
    assert_golden("table6.txt");
}

#[test]
fn table5_calibrated_artefact_is_reproducible() {
    assert_golden("table5_calibrated.txt");
}

#[test]
fn table6_calibrated_artefact_is_reproducible() {
    assert_golden("table6_calibrated.txt");
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
    let config = StudyConfig {
        demands: 2_000,
        resolution: wsu_bayes::whitebox::Resolution {
            a_cells: 24,
            b_cells: 24,
            q_cells: 8,
        },
        ..StudyConfig::quick_scenario1(DEFAULT_SEED)
    };
    let first = table2::run_table2_with(DEFAULT_SEED, &config, &config).render();
    let second = table2::run_table2_with(DEFAULT_SEED, &config, &config).render();
    assert_eq!(first, second, "quick Table 2 run is not deterministic");
}
