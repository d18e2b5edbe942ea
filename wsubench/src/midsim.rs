//! `midsim`: the event-driven middleware simulations at paper scale —
//! Tables 5 and 6 (paper and calibrated timing), the fault campaign,
//! the fleet study and the capacity study — repeated in rounds until
//! the run's seconds are spent.
//!
//! Round 0 runs at the goldens' seed and must reproduce every committed
//! output byte for byte; later rounds run at seeds derived from the
//! workload seed and must keep each table's invariants.

use std::time::Instant;

use wsu_experiments::campaign::{self, CampaignConfig, CampaignTable, PlanSpec};
use wsu_experiments::capacity::{self, CapacityResult};
use wsu_experiments::fleetstudy::{self, CellSpec, FleetStudyConfig, FleetTable};
use wsu_experiments::midsim::ObsSinks;
use wsu_experiments::table5::{self, SimulationTable};
use wsu_experiments::{table6, PAPER_TIMEOUTS};
use wsu_simcore::par::Jobs;
use wsu_simcore::rng::MasterSeed;
use wsu_workload::outcomes::CorrelatedOutcomes;
use wsu_workload::runs::RunSpec;
use wsu_workload::timing::ExecTimeModel;

use crate::layers::Layers;
use crate::repro::{
    check_campaign, check_capacity, check_simulation, steps_note, LEDGER_TOLERANCE,
};
use crate::run::{master, mix, timed_setup, Run, Steps};
use crate::stats::median;
use crate::trace::Tracer;

const JOBS: usize = 2;
const REQUESTS: u64 = 10_000;
const CAPACITY_RATES: [f64; 4] = [0.2, 0.4, 0.6, 0.8];
const CAPACITY_DEMANDS: u64 = 20_000;
/// Rounds run whatever the budget (four, so a traced run has two of
/// each kind).
const MIN_ROUNDS: u64 = 4;

/// The inputs every round shares.
struct Inputs {
    plans: Vec<PlanSpec>,
    cells: Vec<CellSpec>,
    pairs: CorrelatedOutcomes,
}

fn setup(seed: MasterSeed) -> Inputs {
    let inputs = Inputs {
        plans: campaign::standard_plans(),
        cells: fleetstudy::standard_cells(),
        pairs: CorrelatedOutcomes::from_run(&RunSpec::run2()),
    };
    // Warm-up: one Table 5 through the worker pool.
    std::hint::black_box(table5::run_table5_jobs(
        seed,
        REQUESTS,
        &PAPER_TIMEOUTS,
        ExecTimeModel::paper(),
        &ObsSinks::default(),
        Jobs::new(JOBS),
    ));
    inputs
}

/// The seed of round `r`: the goldens' seed first, then seeds derived
/// from the workload seed.
fn round_seed(workload_seed: u64, r: u64) -> MasterSeed {
    if r == 0 {
        master(0)
    } else {
        MasterSeed::new(mix(master(workload_seed).value(), r))
    }
}

/// What one round produced.
struct Round {
    wall: f64,
    steps: Vec<(&'static str, f64)>,
    sims: [SimulationTable; 4],
    campaign: CampaignTable,
    fleet: FleetTable,
    capacity: Vec<CapacityResult>,
}

/// One round over the six middleware-simulation steps.
fn round(inputs: &Inputs, seed: MasterSeed, tracer: &mut Tracer) -> Round {
    let jobs = Jobs::new(JOBS);
    let sinks = ObsSinks::default();
    let mut steps = Steps::start(tracer, "midsim");
    let table = |calibrated: bool, six: bool| {
        let timing = if calibrated {
            ExecTimeModel::calibrated()
        } else {
            ExecTimeModel::paper()
        };
        let f = if six {
            table6::run_table6_jobs
        } else {
            table5::run_table5_jobs
        };
        f(seed, REQUESTS, &PAPER_TIMEOUTS, timing, &sinks, jobs)
    };
    let t5 = steps.time(tracer, "table5", || table(false, false));
    let t6 = steps.time(tracer, "table6", || table(false, true));
    let (t5c, t6c) = steps.time(tracer, "calibrated", || {
        (table(true, false), table(true, true))
    });
    let campaign = steps.time(tracer, "faultcampaign", || {
        campaign::run_campaign_jobs(&inputs.plans, &CampaignConfig::paper(), seed, &sinks, jobs)
    });
    let fleet = steps.time(tracer, "fleetstudy", || {
        fleetstudy::run_fleetstudy_jobs(
            &inputs.cells,
            &FleetStudyConfig::paper(),
            seed,
            &sinks,
            jobs,
        )
    });
    let capacity = steps.time(tracer, "capacity", || {
        capacity::run_capacity_study_jobs(
            &inputs.pairs,
            ExecTimeModel::calibrated(),
            &CAPACITY_RATES,
            CAPACITY_DEMANDS,
            seed,
            jobs,
        )
    });
    let (wall, steps) = steps.finish(tracer);
    Round {
        wall,
        steps,
        sims: [t5, t6, t5c, t6c],
        campaign,
        fleet,
        capacity,
    }
}

/// The goldens when the round ran at their seed; the invariants always.
fn check(run: &mut Run, out: &Round, golden: bool) {
    if golden {
        let names = [
            "table5.txt",
            "table6.txt",
            "table5_calibrated.txt",
            "table6_calibrated.txt",
        ];
        for (name, table) in names.iter().zip(&out.sims) {
            run.golden(name, &table.render());
        }
        run.golden("faultcampaign.txt", &out.campaign.render());
        run.golden("fleetstudy.txt", &out.fleet.render());
        run.golden(
            "capacity.txt",
            &capacity::render_capacity_table(&out.capacity),
        );
    }
    for table in &out.sims {
        check_simulation(run, table, REQUESTS);
    }
    check_campaign(run, &out.campaign, CampaignConfig::paper().demands);
    check_fleet(run, &out.fleet);
    check_capacity(
        run,
        &out.capacity,
        2 * CAPACITY_RATES.len(),
        CAPACITY_DEMANDS,
    );
}

/// Fleet study: one row per cell; recoveries never exceed incidents.
fn check_fleet(run: &mut Run, table: &FleetTable) {
    let cells = fleetstudy::standard_cells().len();
    run.check(table.rows.len() == cells, || {
        "fleet study lost cells".into()
    });
    let demands = FleetStudyConfig::paper().demands;
    for c in &table.rows {
        let ok = c.demands == demands
            && c.recovered <= c.incidents
            && c.injected.iter().map(|(_, n)| n).sum::<u64>() == c.injected_total
            && (0.0..=1.0).contains(&c.availability);
        run.check(ok, || {
            format!("fleet cell {} breaks its invariants", c.name)
        });
    }
}

/// Runs the workload: `wall_s` is the median round, `latency_us` the
/// median Table 5 step.
pub fn run(run: &mut Run) {
    let (setup_s, inputs) = timed_setup(|| setup(run.master()));
    let traced = run.traced();
    let budget = run.seconds;
    let started = Instant::now();
    // Untraced walls and steps; traced ones (traced runs alternate).
    let mut walls = Vec::new();
    let mut steps: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut traced_walls = Vec::new();
    let mut traced_steps: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut r = 0;
    while r < MIN_ROUNDS || started.elapsed().as_secs_f64() < budget {
        let traced_round = traced && r % 2 == 1;
        let out = if traced_round {
            round(&inputs, round_seed(run.seed, r), &mut run.tracer)
        } else {
            round(&inputs, round_seed(run.seed, r), &mut Tracer::new(false))
        };
        check(run, &out, r == 0);
        if traced_round {
            traced_walls.push(out.wall);
            traced_steps.push(out.steps);
        } else {
            walls.push(out.wall);
            steps.push(out.steps);
        }
        r += 1;
    }
    run.note("midsim_rounds", r);
    let median_steps = |rounds: &[Vec<(&'static str, f64)>]| -> Vec<(&'static str, f64)> {
        rounds[0]
            .iter()
            .enumerate()
            .map(|(i, (name, _))| {
                let per_round: Vec<f64> = rounds.iter().map(|s| s[i].1).collect();
                (*name, median(&per_round))
            })
            .collect()
    };
    if !traced {
        let table5 = median_steps(&steps)
            .iter()
            .find(|(name, _)| *name == "table5")
            .map_or(f64::NAN, |(_, secs)| *secs);
        run.metric("setup_s", setup_s, "s");
        run.metric("wall_s", median(&walls), "s");
        run.metric("latency_us", table5 * 1e6, "us");
        return;
    }
    run.note("steps_s", steps_note(&median_steps(&traced_steps)));
    let wall_sum: f64 = traced_walls.iter().sum();
    let step_sum: f64 = traced_steps.iter().flatten().map(|(_, s)| s).sum();
    let gap = wall_sum - step_sum;
    run.check(gap.abs() <= LEDGER_TOLERANCE * wall_sum, || {
        format!("step ledger leaves {gap:.4} s of {wall_sum:.4} s unattributed")
    });
    Layers::measure(run).report(run);
    run.metric("ledger.unattributed_share", gap / wall_sum, "share");
    run.metric(
        "trace.overhead_share",
        median(&traced_walls) / median(&walls) - 1.0,
        "share",
    );
}
