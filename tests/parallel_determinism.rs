//! The parallel replication runner must be invisible in every output:
//! tables, metric snapshots and event traces are byte-identical whatever
//! the worker-pool size, because replications merge in replication
//! order. These tests pin that contract for the simulation-backed
//! experiments and for the white-box Bayes studies of Table 2 and
//! Figs. 7/8.

use wsu_bayes::whitebox::Resolution;
use wsu_experiments::ablation::{run_abort_ablation_jobs, run_adjudicator_ablation_jobs};
use wsu_experiments::bayes_study::{StudyConfig, StudyRun};
use wsu_experiments::capacity::{render_capacity_table, run_capacity_study_jobs};
use wsu_experiments::figures::{run_fig7, run_fig8, run_figure, Figure, FigureRuns};
use wsu_experiments::midsim::ObsSinks;
use wsu_experiments::table2::{
    render_spread, run_table2_jobs, run_table2_spread, run_table2_with, spread_of, Table2,
};
use wsu_experiments::table5::run_table5_jobs;
use wsu_experiments::table6::run_table6_jobs;
use wsu_obs::{SharedRecorder, SharedRegistry, TraceEvent};
use wsu_simcore::par::Jobs;
use wsu_simcore::rng::MasterSeed;
use wsu_workload::outcomes::CorrelatedOutcomes;
use wsu_workload::runs::RunSpec;
use wsu_workload::timing::ExecTimeModel;

const SEED: MasterSeed = MasterSeed::new(0x0BAD_5EED);

/// One observed table5 run at the given worker count, returning the
/// rendered table, the metrics snapshot and the event trace.
fn observed_table5(jobs: Jobs) -> (String, String, Vec<TraceEvent>) {
    let sinks = ObsSinks {
        recorder: Some(SharedRecorder::new()),
        metrics: Some(SharedRegistry::new()),
    };
    let table = run_table5_jobs(SEED, 400, &[1.5, 3.0], ExecTimeModel::paper(), &sinks, jobs);
    (
        table.render(),
        sinks.metrics.as_ref().unwrap().render_snapshot(),
        sinks.recorder.as_ref().unwrap().snapshot(),
    )
}

#[test]
fn table5_is_jobs_invariant_across_all_outputs() {
    let (text1, prom1, trace1) = observed_table5(Jobs::serial());
    let (text4, prom4, trace4) = observed_table5(Jobs::new(4));
    assert_eq!(text1, text4, "rendered table differs with jobs=4");
    assert_eq!(prom1, prom4, "metrics snapshot differs with jobs=4");
    assert_eq!(trace1, trace4, "event trace differs with jobs=4");
    // The snapshot carries the same per-cell engine gauges the committed
    // results/table5.prom does.
    for needle in [
        "wsu_engine_events_processed",
        "wsu_engine_queue_high_water",
        "cell=\"table5/run1/t1.5\"",
        "cell=\"table5/run4/t3\"",
    ] {
        assert!(prom1.contains(needle), "snapshot missing {needle}");
    }
    assert!(!trace1.is_empty(), "trace should carry simulation events");
}

#[test]
fn table6_is_jobs_invariant() {
    let run = |jobs| {
        run_table6_jobs(
            SEED,
            400,
            &[2.0],
            ExecTimeModel::paper(),
            &ObsSinks::default(),
            jobs,
        )
        .render()
    };
    assert_eq!(run(Jobs::serial()), run(Jobs::new(4)));
}

#[test]
fn capacity_is_jobs_invariant() {
    let gen = CorrelatedOutcomes::from_run(&RunSpec::run2());
    let run = |jobs| {
        render_capacity_table(&run_capacity_study_jobs(
            &gen,
            ExecTimeModel::calibrated(),
            &[0.4, 0.8],
            400,
            SEED,
            jobs,
        ))
    };
    assert_eq!(run(Jobs::serial()), run(Jobs::new(4)));
}

#[test]
fn ablations_are_jobs_invariant() {
    let adjudicator = |jobs| {
        run_adjudicator_ablation_jobs(SEED, 400, jobs)
            .iter()
            .map(|row| format!("{row:?}"))
            .collect::<Vec<_>>()
    };
    assert_eq!(adjudicator(Jobs::serial()), adjudicator(Jobs::new(4)));

    let abort = |jobs| {
        run_abort_ablation_jobs(
            2,
            1_000,
            wsu_bayes::whitebox::Resolution {
                a_cells: 24,
                b_cells: 24,
                q_cells: 8,
            },
            SEED,
            &[1.0, 5.0],
            jobs,
        )
        .iter()
        .map(|row| format!("{row:?}"))
        .collect::<Vec<_>>()
    };
    assert_eq!(abort(Jobs::serial()), abort(Jobs::new(4)));
}

/// A quick-scale study configuration for the Bayes fan-out checks.
fn quick_study(demands: u64, checkpoint_every: u64) -> StudyConfig {
    StudyConfig {
        demands,
        checkpoint_every,
        resolution: Resolution {
            a_cells: 24,
            b_cells: 24,
            q_cells: 8,
        },
        adaptive: None,
        confidence: 0.99,
        target: 1e-3,
        seed: SEED,
    }
}

/// Every checkpoint's three percentiles, as bit patterns.
fn checkpoint_bits<'a>(runs: impl IntoIterator<Item = &'a StudyRun>) -> Vec<[u64; 3]> {
    runs.into_iter()
        .flat_map(|run| &run.checkpoints)
        .map(|c| [c.a_high.to_bits(), c.b_high.to_bits(), c.b_p90.to_bits()])
        .collect()
}

fn table_bits(tables: &[Table2]) -> Vec<[u64; 3]> {
    checkpoint_bits(tables.iter().flat_map(|t| &t.runs))
}

fn figure_bits(runs: &FigureRuns) -> Vec<[u64; 3]> {
    checkpoint_bits(
        [&runs.perfect]
            .into_iter()
            .chain(&runs.omission)
            .chain([&runs.back_to_back]),
    )
}

#[test]
fn table2_and_spread_are_jobs_invariant() {
    let (c1, c2) = (quick_study(2_000, 500), quick_study(1_000, 250));
    let seeds = [SEED, MasterSeed::new(SEED.value() + 1), MasterSeed::new(7)];
    let serial = run_table2_jobs(&seeds, &c1, &c2, Jobs::serial());
    let pooled = run_table2_jobs(&seeds, &c1, &c2, Jobs::new(4));
    assert_eq!(serial.len(), seeds.len());
    for (s, p) in serial.iter().zip(&pooled) {
        assert_eq!(s.render(), p.render(), "Table 2 render differs with jobs=4");
    }
    assert_eq!(table_bits(&serial), table_bits(&pooled));
    let spread = render_spread(&spread_of(&serial));
    assert_eq!(spread, render_spread(&spread_of(&pooled)));

    // The default-worker forms agree with the explicit serial run.
    let single = run_table2_with(SEED, &c1, &c2);
    assert_eq!(single.render(), serial[0].render());
    assert_eq!(table_bits(&[single]), table_bits(&serial[..1]));
    assert_eq!(render_spread(&run_table2_spread(&seeds, &c1, &c2)), spread);
}

#[test]
fn figures_are_jobs_invariant() {
    for (figure, config) in [
        (Figure::Seven, quick_study(2_000, 500)),
        (Figure::Eight, quick_study(1_000, 250)),
    ] {
        let (set1, runs1) = run_figure(figure, &config, Jobs::serial());
        let (set4, runs4) = run_figure(figure, &config, Jobs::new(4));
        let (set_default, runs_default) = match figure {
            Figure::Seven => run_fig7(&config),
            Figure::Eight => run_fig8(&config),
        };
        assert_eq!(
            set1.to_tsv(),
            set4.to_tsv(),
            "{figure:?} differs with jobs=4"
        );
        assert_eq!(
            set1.to_tsv(),
            set_default.to_tsv(),
            "{figure:?} default jobs"
        );
        assert_eq!(figure_bits(&runs1), figure_bits(&runs4), "{figure:?}");
        assert_eq!(
            figure_bits(&runs1),
            figure_bits(&runs_default),
            "{figure:?}"
        );
        assert_eq!(runs1.omission.is_some(), figure == Figure::Seven);
    }
}
