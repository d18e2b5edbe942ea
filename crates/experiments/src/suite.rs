//! The step table: one definition per paper artefact.
//!
//! Each [`Step`] names an experiment binary, declares its own flags and
//! builds its configuration — at `--quick` or paper scale — exactly
//! once. The step binaries are a lookup in [`STEPS`] ([`step_main`]),
//! and `all` runs the same table, writing each step's output chunks to
//! its files: a step binary run with the arguments of one of its
//! [`Invocation`]s prints exactly the bytes `all` writes to that
//! invocation's files, concatenated.

use std::io::Write;

use wsu_simcore::par::Jobs;
use wsu_simcore::rng::MasterSeed;
use wsu_workload::outcomes::CorrelatedOutcomes;
use wsu_workload::runs::RunSpec;
use wsu_workload::timing::ExecTimeModel;

use crate::bayes_study::StudyConfig;
use crate::campaign::{run_campaign_jobs, standard_plans, CampaignConfig};
use crate::capacity::{render_capacity_table, run_capacity_study_jobs};
use crate::cli::{Args, Cli, Flag, Kind};
use crate::fleetstudy::{run_fleetstudy_jobs, standard_cells, FleetStudyConfig};
use crate::midsim::ObsSinks;
use crate::obs::{select_named, ObsContext, ObsOptions, OBS_FLAGS};
use crate::table5::{run_table5_jobs, SimulationTable};
use crate::table6::run_table6_jobs;
use crate::{
    ablation, figures, table2, DEFAULT_SEED, PAPER_REQUESTS, PAPER_TIMEOUTS, QUICK_REQUESTS,
};

/// `--quick`: every step binary's (and `all`'s) first flag.
pub const QUICK: Flag = Flag::new(
    "--quick",
    Kind::Switch,
    "reduced scale: seconds, not minutes",
);

/// `--jobs N`: the worker pool a step fans its independent runs over.
/// It never changes an output byte.
pub const JOBS: Flag = Flag::new("--jobs", Kind::Count(0), "a worker count");

const SEEDS: Flag = Flag::new("--seeds", Kind::Count(1), "a seed count of at least 1");
const CALIBRATED: Flag = Flag::new("--calibrated", Kind::Switch, "the calibrated timing model");
const PLAN: Flag = Flag::new("--plan", Kind::Names, "a fault-plan name");
const CELL: Flag = Flag::new("--cell", Kind::Names, "a fleet-cell name");

/// One run `all` makes of a step: the step's own arguments (`all` adds
/// its `--quick` and `--jobs`), and the files the run's output chunks
/// go to, in order.
pub type Invocation = (&'static [&'static str], &'static [&'static str]);

/// One paper artefact: its binary, flags, `all` invocations and runner.
#[derive(Debug)]
pub struct Step {
    /// The binary's name.
    pub name: &'static str,
    /// The step's own flags, besides `--quick`, `--jobs` and the
    /// observability flags.
    pub flags: &'static [Flag],
    /// How `all` runs the step.
    pub invocations: &'static [Invocation],
    /// Runs the step on its parsed arguments: one rendered chunk per
    /// output file.
    run: fn(&Args, &mut ObsContext) -> Vec<String>,
}

/// Every paper artefact, in `all`'s order.
pub static STEPS: [Step; 9] = [
    Step {
        name: "table2",
        flags: &[SEEDS],
        invocations: &[(&["--seeds", "10"], &["table2.txt", "table2_spread.txt"])],
        run: table2,
    },
    Step {
        name: "fig7",
        flags: &[],
        invocations: &[(&[], &["fig7.tsv"])],
        run: |args, ctx| figure(args, ctx, figures::Figure::Seven, "fig7", studies(args).0),
    },
    Step {
        name: "fig8",
        flags: &[],
        invocations: &[(&[], &["fig8.tsv"])],
        run: |args, ctx| figure(args, ctx, figures::Figure::Eight, "fig8", studies(args).1),
    },
    Step {
        name: "table5",
        flags: &[CALIBRATED],
        invocations: &[
            (&[], &["table5.txt"]),
            (&["--calibrated"], &["table5_calibrated.txt"]),
        ],
        run: |args, ctx| simulation(args, ctx, "table5", run_table5_jobs),
    },
    Step {
        name: "table6",
        flags: &[CALIBRATED],
        invocations: &[
            (&[], &["table6.txt"]),
            (&["--calibrated"], &["table6_calibrated.txt"]),
        ],
        run: |args, ctx| simulation(args, ctx, "table6", run_table6_jobs),
    },
    Step {
        name: "ablations",
        flags: &[],
        invocations: &[(&[], &["ablations.txt"])],
        run: ablations,
    },
    Step {
        name: "faultcampaign",
        flags: &[PLAN],
        invocations: &[(&[], &["faultcampaign.txt"])],
        run: faultcampaign,
    },
    Step {
        name: "capacity",
        flags: &[],
        invocations: &[(&[], &["capacity.txt"])],
        run: capacity,
    },
    Step {
        name: "fleetstudy",
        flags: &[CELL],
        invocations: &[(&[], &["fleetstudy.txt"])],
        run: fleetstudy,
    },
];

impl Step {
    /// The step binary's command line: `--quick`, the step's own flags,
    /// `--jobs` and the observability flags.
    pub fn cli(&self) -> Cli {
        Cli::new(self.name, &[&[QUICK], self.flags, &[JOBS], &OBS_FLAGS])
    }

    /// Runs the step on `argv`, as its binary would but without printing
    /// or writing anything: one rendered chunk per output file.
    pub fn run(&self, argv: &[&str], ctx: &mut ObsContext) -> Vec<String> {
        let args = self.cli().parse(argv).expect("the step's own flags");
        (self.run)(&args, ctx)
    }

    /// Runs `invocation` as `all` does, with `common` (`--quick`,
    /// `--jobs N`) after the invocation's own arguments: each file it
    /// writes, with its bytes.
    pub fn invoke(
        &self,
        &(own, files): &Invocation,
        common: &[String],
        ctx: &mut ObsContext,
    ) -> Vec<(&'static str, String)> {
        let argv: Vec<&str> = own
            .iter()
            .copied()
            .chain(common.iter().map(String::as_str))
            .collect();
        let chunks = self.run(&argv, ctx);
        assert_eq!(
            chunks.len(),
            files.len(),
            "{}: one chunk per file",
            self.name
        );
        files.iter().copied().zip(chunks).collect()
    }
}

/// The step named `name`.
pub fn step(name: &str) -> &'static Step {
    STEPS
        .iter()
        .find(|s| s.name == name)
        .expect("a step of the table")
}

/// The step binary `name`: parses the command line against the step's
/// flags, runs it and prints its chunks on stdout, then writes the
/// observability outputs.
pub fn step_main(name: &str) {
    let step = step(name);
    let args = step.cli().parse_env();
    let mut ctx = ObsOptions::from_args(&args).context();
    let out = (step.run)(&args, &mut ctx).concat();
    let written = std::io::stdout().lock().write_all(out.as_bytes());
    if let Err(e) = written.and_then(|()| ctx.finish()) {
        eprintln!("{name}: {e}");
        std::process::exit(1);
    }
}

/// `quick` at `--quick` scale, `paper` otherwise.
fn scale<T>(args: &Args, quick: T, paper: T) -> T {
    if args.switch("--quick") {
        quick
    } else {
        paper
    }
}

fn jobs(args: &Args) -> Jobs {
    args.get("--jobs").map_or_else(Jobs::auto, Jobs::new)
}

/// The two Bayes study configurations (Scenarios 1 and 2).
fn studies(args: &Args) -> (StudyConfig, StudyConfig) {
    let seed = DEFAULT_SEED;
    scale(
        args,
        (
            StudyConfig::quick_scenario1(seed),
            StudyConfig::quick_scenario2(seed),
        ),
        (
            StudyConfig::paper_scenario1(seed),
            StudyConfig::paper_scenario2(seed),
        ),
    )
}

/// Table 2 of the default seed; with `--seeds N`, also the spread of
/// every cell across that seed and the `N - 1` after it.
fn table2(args: &Args, ctx: &mut ObsContext) -> Vec<String> {
    let ((c1, c2), jobs, spread) = (studies(args), jobs(args), args.get::<u64>("--seeds"));
    let seeds: Vec<MasterSeed> = (0..spread.unwrap_or(1))
        .map(|i| MasterSeed::new(DEFAULT_SEED.value().wrapping_add(i)))
        .collect();
    let tables = ctx.time("table2/study", || {
        table2::run_table2_jobs(&seeds, &c1, &c2, jobs)
    });
    for run in &tables[0].runs {
        ctx.record_study(
            run,
            &format!("table2/s{}/{:?}", run.scenario, run.detection),
        );
    }
    let spread = spread.map(|_| table2::render_spread(&table2::spread_of(&tables)));
    [tables[0].render()].into_iter().chain(spread).collect()
}

fn figure(
    args: &Args,
    ctx: &mut ObsContext,
    figure: figures::Figure,
    name: &str,
    config: StudyConfig,
) -> Vec<String> {
    let jobs = jobs(args);
    let (set, runs) = ctx.time(&format!("{name}/study"), || {
        figures::run_figure(figure, &config, jobs)
    });
    ctx.record_study(&runs.perfect, &format!("{name}/perfect"));
    if let Some(omission) = &runs.omission {
        ctx.record_study(omission, &format!("{name}/omission"));
    }
    ctx.record_study(&runs.back_to_back, &format!("{name}/back-to-back"));
    vec![set.to_tsv()]
}

/// The signature shared by `run_table5_jobs` and `run_table6_jobs`.
type SimulationRunner =
    fn(MasterSeed, u64, &[f64], ExecTimeModel, &ObsSinks, Jobs) -> SimulationTable;

fn simulation(args: &Args, ctx: &mut ObsContext, name: &str, run: SimulationRunner) -> Vec<String> {
    let timing = if args.switch("--calibrated") {
        ExecTimeModel::calibrated()
    } else {
        ExecTimeModel::paper()
    };
    let (requests, jobs, sinks) = (
        scale(args, QUICK_REQUESTS, PAPER_REQUESTS),
        jobs(args),
        ctx.sinks(),
    );
    let table = ctx.time(&format!("{name}/simulate"), || {
        run(
            DEFAULT_SEED,
            requests,
            &PAPER_TIMEOUTS,
            timing,
            &sinks,
            jobs,
        )
    });
    vec![table.render()]
}

/// The six ablation studies (DESIGN.md), one table each, separated by
/// blank lines.
fn ablations(args: &Args, ctx: &mut ObsContext) -> Vec<String> {
    use ablation::*;
    let ((study, _), jobs) = (studies(args), jobs(args));
    let requests = scale(args, QUICK_REQUESTS, PAPER_REQUESTS);
    let (abort_seeds, abort_demands) = scale(args, (3, 4_000), (10, 20_000));
    let coverages = [0.0, 0.05, 0.10, 0.15, 0.25, 0.40];
    let tables = [
        ctx.time("ablations/adjudicator", || {
            render_adjudicator_table(&run_adjudicator_ablation_jobs(DEFAULT_SEED, requests, jobs))
        }),
        ctx.time("ablations/mode", || {
            render_mode_table(&run_mode_ablation_jobs(DEFAULT_SEED, requests, jobs))
        }),
        ctx.time("ablations/coverage", || {
            render_coverage_table(&run_coverage_ablation_jobs(&study, &coverages, jobs))
        }),
        ctx.time("ablations/prior", || {
            render_prior_table(&run_prior_ablation_jobs(&study, jobs))
        }),
        ctx.time("ablations/class-detection", || {
            let shares = [1.0, 0.85, 0.70, 0.50, 0.25];
            let (demands, resolution) = (study.demands, study.resolution);
            let rows =
                run_class_detection_ablation(demands, resolution, DEFAULT_SEED, 0.5, &shares);
            render_class_detection_table(&rows)
        }),
        ctx.time("ablations/abort", || {
            let ratios = [0.5, 1.0, 2.0, 5.0, 10.0];
            let rows = run_abort_ablation_jobs(
                abort_seeds,
                abort_demands,
                study.resolution,
                DEFAULT_SEED,
                &ratios,
                jobs,
            );
            render_abort_table(&rows)
        }),
    ];
    vec![tables.join("\n")]
}

/// The fault-injection campaign over every plan, or the `--plan`s.
fn faultcampaign(args: &Args, ctx: &mut ObsContext) -> Vec<String> {
    let plans = select_named(&args.names("--plan"), "--plan", standard_plans(), |plan| {
        &plan.scenario.name
    });
    let plans = plans.unwrap_or_else(|e| args.fail(&e));
    let config = scale(args, CampaignConfig::quick(), CampaignConfig::paper());
    let (jobs, sinks) = (jobs(args), ctx.sinks());
    let table = ctx.time("faultcampaign/simulate", || {
        run_campaign_jobs(&plans, &config, DEFAULT_SEED, &sinks, jobs)
    });
    ctx.publish_snapshot(&table.snapshots_json());
    vec![table.render()]
}

/// The server-capacity study (extension E6): parallel vs sequential
/// dispatch under open Poisson arrivals.
fn capacity(args: &Args, ctx: &mut ObsContext) -> Vec<String> {
    let (demands, jobs) = (scale(args, 3_000, 20_000), jobs(args));
    let gen = CorrelatedOutcomes::from_run(&RunSpec::run2());
    let rates = [0.2, 0.4, 0.6, 0.8];
    let results = ctx.time("capacity/study", || {
        let timing = ExecTimeModel::calibrated();
        run_capacity_study_jobs(&gen, timing, &rates, demands, DEFAULT_SEED, jobs)
    });
    vec![render_capacity_table(&results)]
}

/// The fleet study over every cell, or the `--cell`s.
fn fleetstudy(args: &Args, ctx: &mut ObsContext) -> Vec<String> {
    let cells = select_named(&args.names("--cell"), "--cell", standard_cells(), |cell| {
        &cell.name
    });
    let cells = cells.unwrap_or_else(|e| args.fail(&e));
    let config = scale(args, FleetStudyConfig::quick(), FleetStudyConfig::paper());
    let (jobs, sinks) = (jobs(args), ctx.sinks());
    let table = ctx.time("fleetstudy/simulate", || {
        run_fleetstudy_jobs(&cells, &config, DEFAULT_SEED, &sinks, jobs)
    });
    ctx.publish_snapshot(&table.rows_json());
    vec![table.render()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_invocation_parses_and_names_distinct_files() {
        let mut files: Vec<&str> = Vec::new();
        for step in &STEPS {
            for (own, written) in step.invocations {
                assert!(step.cli().parse(own).is_ok(), "{} {own:?}", step.name);
                files.extend(*written);
            }
        }
        let count = files.len();
        files.sort_unstable();
        files.dedup();
        assert_eq!(files.len(), count, "two invocations write one file");
    }
}
