//! Perf-trajectory emitter: times the experiment pipelines at reduced
//! scale and writes `BENCH_experiments.json`.
//!
//! Each entry is the wall time of one experiment run — a step of the
//! step table (`wsu_experiments::suite`) run as its binary would, at
//! `--quick` scale by default and paper scale with `--full`, or one of
//! the studies behind a step; with `--samples N > 1` the run is
//! repeated and the median reported. The JSON format is documented in
//! [`wsu_bench::report`]; pair this file with `BENCH_bayes.json`
//! (`WSU_BENCH_JSON=... cargo bench --bench bench_bayes`) to track both
//! the micro ns/op and the end-to-end trajectory across commits.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use wsu_bench::report::{write_json, Entry};
use wsu_core::middleware::MiddlewareConfig;
use wsu_experiments::bayes_study::StudyConfig;
use wsu_experiments::cli::{Cli, Flag, Kind};
use wsu_experiments::midsim::{plan_run, simulate_cell};
use wsu_experiments::obs::ObsOptions;
use wsu_experiments::{ablation, suite, DEFAULT_SEED, PAPER_REQUESTS};
use wsu_simcore::par::Jobs;
use wsu_workload::outcomes::CorrelatedOutcomes;
use wsu_workload::runs::RunSpec;
use wsu_workload::timing::ExecTimeModel;

fn time_runs<F: FnMut()>(name: &str, samples: usize, mut run: F) -> Entry {
    let mut measurements: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed()
        })
        .collect();
    measurements.sort();
    let entry = Entry {
        name: name.to_string(),
        median: measurements[measurements.len() / 2],
        min: measurements[0],
        max: measurements[measurements.len() - 1],
    };
    eprintln!("{name:<40} {:?}", entry.median);
    entry
}

const FLAGS: [Flag; 3] = [
    Flag::new("--out", Kind::Path, "a directory").meta("DIR"),
    Flag::new("--samples", Kind::Count(0), "a sample count"),
    Flag::new("--full", Kind::Switch, "time paper scale"),
];

fn main() -> std::io::Result<()> {
    let args = Cli::new("perf_report", &[&FLAGS]).parse_env();
    let full = args.switch("--full");
    let out_dir = args
        .get("--out")
        .unwrap_or_else(|| PathBuf::from("results"));
    let samples = args.get("--samples").unwrap_or(1);

    // The step binaries themselves, as `--quick` (or, with `--full`,
    // paper-scale) runs, so CI wall times track the real pipelines.
    let scale = if full { "full" } else { "quick" };
    let quick: &[&str] = if full { &[] } else { &["--quick"] };
    let spread = if full { "10" } else { "3" };
    let step = |row: String, name: &str, own: &[&str]| {
        let argv = [quick, own].concat();
        time_runs(&format!("experiments/{row}"), samples, || {
            let mut ctx = ObsOptions::default().context();
            std::hint::black_box(suite::step(name).run(&argv, &mut ctx));
        })
    };
    let study1 = if full {
        StudyConfig::paper_scenario1(DEFAULT_SEED)
    } else {
        StudyConfig::quick_scenario1(DEFAULT_SEED)
    };
    let mut entries = vec![
        step(format!("table2/{scale}"), "table2", &[]),
        step(
            format!("table2_spread/{scale}"),
            "table2",
            &["--seeds", spread],
        ),
        step(format!("fig7/{scale}"), "fig7", &[]),
        step(format!("fig8/{scale}"), "fig8", &[]),
        time_runs(
            &format!("experiments/ablations_coverage/{scale}"),
            samples,
            || {
                let coverages = [0.0, 0.10, 0.25];
                std::hint::black_box(ablation::run_coverage_ablation_jobs(
                    &study1,
                    &coverages,
                    Jobs::new(1),
                ));
            },
        ),
        time_runs(
            &format!("experiments/ablations_prior/{scale}"),
            samples,
            || {
                std::hint::black_box(ablation::run_prior_ablation_jobs(&study1, Jobs::new(1)));
            },
        ),
        step(
            format!("faultcampaign/{scale}"),
            "faultcampaign",
            &["--jobs", "1"],
        ),
        step(
            format!("fleetstudy/{scale}"),
            "fleetstudy",
            &["--jobs", "1"],
        ),
    ];
    // The parallel replication runner, sequentially and with a pool of
    // four, on the same workload — the jobs=1 vs jobs=4 pair is the
    // speedup a multi-core host gets for free (on a single-core host
    // the two rows coincide, minus scheduling noise) — for Tables 5/6
    // and for the white-box Bayes studies of the Table 2 spread.
    for jobs in ["1", "4"] {
        for table in ["table5", "table6"] {
            let row = format!("{table}/{scale}/jobs{jobs}");
            entries.push(step(row, table, &["--jobs", jobs]));
        }
    }
    for jobs in ["1", "4"] {
        let row = format!("table2_spread/{scale}/jobs{jobs}");
        entries.push(step(row, "table2", &["--seeds", spread, "--jobs", jobs]));
    }

    // The two halves of one paper-scale Table 5 run, at paper scale
    // whatever `--full` says: planning its demands (once per run, shared
    // by every timeout column) and simulating one column over the plan.
    let run1 = CorrelatedOutcomes::from_run(&RunSpec::run1());
    let plan_run1 = || {
        plan_run(
            &run1,
            ExecTimeModel::paper(),
            PAPER_REQUESTS,
            DEFAULT_SEED,
            "table5/run1",
        )
    };
    entries.push(time_runs(
        &format!("experiments/midsim/plan_run/{PAPER_REQUESTS}"),
        samples,
        || {
            std::hint::black_box(plan_run1());
        },
    ));
    let plan = plan_run1();
    entries.push(time_runs(
        &format!("experiments/midsim/simulate_cell/{PAPER_REQUESTS}"),
        samples,
        || {
            std::hint::black_box(simulate_cell(
                &plan,
                MiddlewareConfig::paper(2.0),
                DEFAULT_SEED,
            ));
        },
    ));

    let path = out_dir.join("BENCH_experiments.json");
    write_json(&path, "BENCH_experiments", &entries)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
