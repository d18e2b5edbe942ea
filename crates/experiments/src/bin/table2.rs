//! Regenerates Table 2 (duration of managed upgrade).
//!
//! Usage: `table2 [--quick] [--seeds N] [--jobs N] [--trace PATH]
//! [--metrics PATH] [--serve-metrics PORT] [--serve-hold SECS]
//! [--phase-metrics]` — `--quick` runs a reduced-scale version;
//! `--seeds N` (N ≥ 1) additionally reports the spread of every cell
//! across N seeds, the first of which is the table's own; `--jobs N`
//! sizes the worker pool the studies fan out over (default: one per
//! hardware thread) without changing any output; `--trace`/`--metrics`
//! replay every study's checkpoints into an event trace and a metrics
//! snapshot. Any other argument, or a malformed value, is a usage
//! error (exit status 2).

use wsu_bayes::whitebox::Resolution;
use wsu_experiments::bayes_study::StudyConfig;
use wsu_experiments::obs::{check_flags_from_env, exit_usage, jobs_from_args, ObsOptions};
use wsu_experiments::table2::{render_spread, run_table2_jobs, spread_of};
use wsu_experiments::DEFAULT_SEED;
use wsu_simcore::rng::MasterSeed;

const USAGE: &str = "table2 [--quick] [--seeds N] [--jobs N] [--trace PATH] [--metrics PATH] \
                     [--serve-metrics PORT] [--serve-hold SECS] [--phase-metrics]";

/// Parses `--seeds N`: `None` when absent, an error unless `N` is a
/// count of at least one.
fn seeds_from_args(args: &[String]) -> Result<Option<usize>, String> {
    let Some(i) = args.iter().position(|a| a == "--seeds") else {
        return Ok(None);
    };
    match args.get(i + 1).map(|v| v.parse::<usize>()) {
        Some(Ok(n)) if n >= 1 => Ok(Some(n)),
        Some(_) => Err(format!(
            "--seeds: expected a seed count of at least 1, got {:?}",
            args[i + 1]
        )),
        None => Err("--seeds: expected a seed count of at least 1".to_owned()),
    }
}

fn main() {
    check_flags_from_env(USAGE, &[("--quick", false), ("--seeds", true)]);
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let spread_seeds = seeds_from_args(&args).unwrap_or_else(|e| exit_usage(USAGE, &e));
    let jobs = jobs_from_args(&args).unwrap_or_else(|e| exit_usage(USAGE, &e));
    let mut ctx = ObsOptions::from_env(USAGE).context();
    let (c1, c2) = if quick {
        let res = Resolution {
            a_cells: 48,
            b_cells: 48,
            q_cells: 16,
        };
        let c1 = StudyConfig {
            demands: 10_000,
            checkpoint_every: 500,
            resolution: res,
            adaptive: None,
            confidence: 0.99,
            target: 1e-3,
            seed: DEFAULT_SEED,
        };
        (
            c1,
            StudyConfig {
                demands: 5_000,
                checkpoint_every: 100,
                ..c1
            },
        )
    } else {
        (
            StudyConfig::paper_scenario1(DEFAULT_SEED),
            StudyConfig::paper_scenario2(DEFAULT_SEED),
        )
    };
    // The table is the first seed's; a spread adds the following seeds.
    let seeds: Vec<MasterSeed> = (0..spread_seeds.unwrap_or(1) as u64)
        .map(|i| MasterSeed::new(DEFAULT_SEED.value().wrapping_add(i)))
        .collect();
    let tables = ctx.time("table2/study", || run_table2_jobs(&seeds, &c1, &c2, jobs));
    let table = &tables[0];
    for run in &table.runs {
        ctx.record_study(
            run,
            &format!("table2/s{}/{:?}", run.scenario, run.detection),
        );
    }
    println!("{}", table.render());
    if spread_seeds.is_some() {
        println!("{}", render_spread(&spread_of(&tables)));
    }
    ctx.finish().expect("write observability outputs");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn seeds_flag_parses_strictly() {
        assert_eq!(seeds_from_args(&strs(&["--quick"])), Ok(None));
        assert_eq!(
            seeds_from_args(&strs(&["--seeds", "10", "--quick"])),
            Ok(Some(10))
        );
        for bad in [
            &["--seeds", "0"][..],
            &["--seeds", "abc"],
            &["--seeds", "-2"],
            &["--seeds"],
        ] {
            let err = seeds_from_args(&strs(bad)).expect_err("malformed --seeds");
            assert!(err.starts_with("--seeds: expected a seed count"), "{err}");
        }
    }
}
