//! `repro`: the nine steps of the `all` binary at paper scale with two
//! replication workers — the whole reproduction, dominated by the
//! white-box Bayes grid (Table 2 and its ten-seed spread). It runs
//! whole passes until the run's seconds are spent, at least
//! [`MIN_PASSES`].
//!
//! At seed 0 every output must equal its committed golden byte for
//! byte; at other seeds each table's own invariants must hold. The
//! traced run also replays every visible study's checkpoint counts
//! into a fresh posterior updater, which must reproduce the recorded
//! percentiles bit for bit.

use std::time::Instant;

use wsu_bayes::counts::JointCounts;
use wsu_bayes::whitebox::{Resolution, WhiteBoxInference};
use wsu_experiments::bayes_study::{StudyConfig, StudyRun};
use wsu_experiments::campaign::{self, CampaignTable};
use wsu_experiments::capacity::{self, CapacityResult};
use wsu_experiments::figures::{self, FigureRuns};
use wsu_experiments::midsim::ObsSinks;
use wsu_experiments::table2::{self, SpreadRow, Table2};
use wsu_experiments::table5::{self, SimulationTable};
use wsu_experiments::{ablation, table6, PAPER_TIMEOUTS};
use wsu_simcore::par::Jobs;
use wsu_simcore::rng::MasterSeed;
use wsu_workload::outcomes::CorrelatedOutcomes;
use wsu_workload::runs::RunSpec;
use wsu_workload::scenario::Scenario;
use wsu_workload::timing::ExecTimeModel;

use crate::layers::Layers;
use crate::run::{timed_setup, Run, Steps};
use crate::stats::median;
use crate::trace::Tracer;

/// Replication workers, as in `all --jobs 2`.
const JOBS: usize = 2;
/// Requests per middleware-simulation cell at paper scale.
const REQUESTS: u64 = 10_000;
/// Passes run whatever the budget.
const MIN_PASSES: usize = 2;
/// Seeds of the Table 2 spread.
const SPREAD_SEEDS: u64 = 10;
/// Largest share of the pass's wall time the step ledger may leave
/// unattributed.
pub const LEDGER_TOLERANCE: f64 = 0.02;

/// The two Bayes study configurations of `all` at paper scale.
pub fn study_configs(seed: MasterSeed) -> (StudyConfig, StudyConfig) {
    let base = StudyConfig {
        demands: 50_000,
        checkpoint_every: 500,
        resolution: Resolution::default(),
        adaptive: None,
        confidence: 0.99,
        target: 1e-3,
        seed,
    };
    (
        base,
        StudyConfig {
            demands: 10_000,
            checkpoint_every: 100,
            ..base
        },
    )
}

/// Everything one pass produced.
struct Outputs {
    /// `(golden file name, rendered output)`.
    files: Vec<(&'static str, String)>,
    t2: Table2,
    spread: Vec<SpreadRow>,
    fig7: FigureRuns,
    fig8: FigureRuns,
    sims: Vec<SimulationTable>,
    campaign: CampaignTable,
    capacity: Vec<CapacityResult>,
}

/// One pass over the nine steps of `all`, in its order.
fn reproduce(seed: MasterSeed, tracer: &mut Tracer) -> (f64, Vec<(&'static str, f64)>, Outputs) {
    let (study1, study2) = study_configs(seed);
    let jobs = Jobs::new(JOBS);
    let sinks = ObsSinks::default();
    let mut files = Vec::new();
    let mut steps = Steps::start(tracer, "repro");

    let t2 = steps.time(tracer, "table2", || {
        let t2 = table2::run_table2_with(seed, &study1, &study2);
        files.push(("table2.txt", t2.render()));
        t2
    });
    let spread = steps.time(tracer, "table2_spread", || {
        let seeds: Vec<MasterSeed> = (0..SPREAD_SEEDS)
            .map(|i| MasterSeed::new(seed.value().wrapping_add(i)))
            .collect();
        let spread = table2::run_table2_spread(&seeds, &study1, &study2);
        files.push(("table2_spread.txt", table2::render_spread(&spread)));
        spread
    });
    let fig7 = steps.time(tracer, "fig7", || {
        let (series, runs) = figures::run_fig7(&study1);
        files.push(("fig7.tsv", series.to_tsv()));
        runs
    });
    let fig8 = steps.time(tracer, "fig8", || {
        let (series, runs) = figures::run_fig8(&study2);
        files.push(("fig8.tsv", series.to_tsv()));
        runs
    });
    let mut sims = Vec::new();
    let mut table = |name: &'static str, calibrated: bool, six: bool| {
        let timing = if calibrated {
            ExecTimeModel::calibrated()
        } else {
            ExecTimeModel::paper()
        };
        let run = if six {
            table6::run_table6_jobs
        } else {
            table5::run_table5_jobs
        };
        let t = run(seed, REQUESTS, &PAPER_TIMEOUTS, timing, &sinks, jobs);
        files.push((name, t.render()));
        sims.push(t);
    };
    steps.time(tracer, "table5", || table("table5.txt", false, false));
    steps.time(tracer, "table6", || table("table6.txt", false, true));
    steps.time(tracer, "calibrated", || {
        table("table5_calibrated.txt", true, false);
        table("table6_calibrated.txt", true, true);
    });
    steps.time(tracer, "ablations", || {
        let mut ab = String::new();
        ab.push_str(&ablation::render_adjudicator_table(
            &ablation::run_adjudicator_ablation_jobs(seed, REQUESTS, jobs),
        ));
        ab.push('\n');
        ab.push_str(&ablation::render_mode_table(
            &ablation::run_mode_ablation_jobs(seed, REQUESTS, jobs),
        ));
        ab.push('\n');
        ab.push_str(&ablation::render_coverage_table(
            &ablation::run_coverage_ablation_jobs(
                &study1,
                &[0.0, 0.05, 0.10, 0.15, 0.25, 0.40],
                jobs,
            ),
        ));
        ab.push('\n');
        ab.push_str(&ablation::render_prior_table(
            &ablation::run_prior_ablation_jobs(&study1, jobs),
        ));
        ab.push('\n');
        ab.push_str(&ablation::render_class_detection_table(
            &ablation::run_class_detection_ablation(
                study1.demands,
                study1.resolution,
                seed,
                0.5,
                &[1.0, 0.85, 0.70, 0.50, 0.25],
            ),
        ));
        ab.push('\n');
        ab.push_str(&ablation::render_abort_table(
            &ablation::run_abort_ablation_jobs(
                10,
                20_000,
                study1.resolution,
                seed,
                &[0.5, 1.0, 2.0, 5.0, 10.0],
                jobs,
            ),
        ));
        files.push(("ablations.txt", ab));
    });
    let campaign = steps.time(tracer, "faultcampaign", || {
        let c = campaign::run_campaign_jobs(
            &campaign::standard_plans(),
            &campaign::CampaignConfig::paper(),
            seed,
            &sinks,
            jobs,
        );
        files.push(("faultcampaign.txt", c.render()));
        c
    });
    let capacity = steps.time(tracer, "capacity", || {
        let gen = CorrelatedOutcomes::from_run(&RunSpec::run2());
        let cap = capacity::run_capacity_study_jobs(
            &gen,
            ExecTimeModel::calibrated(),
            &[0.2, 0.4, 0.6, 0.8],
            20_000,
            seed,
            jobs,
        );
        files.push(("capacity.txt", capacity::render_capacity_table(&cap)));
        cap
    });
    let (wall, times) = steps.finish(tracer);
    let outputs = Outputs {
        files,
        t2,
        spread,
        fig7,
        fig8,
        sims,
        campaign,
        capacity,
    };
    (wall, times, outputs)
}

/// The studies whose checkpoints the pass's results expose.
fn visible_studies(out: &Outputs) -> Vec<&StudyRun> {
    let mut studies: Vec<&StudyRun> = out.t2.runs.iter().collect();
    for fig in [&out.fig7, &out.fig8] {
        studies.push(&fig.perfect);
        studies.extend(fig.omission.as_ref());
        studies.push(&fig.back_to_back);
    }
    studies
}

/// The committed goldens at seed 0, each table's invariants otherwise.
fn check(run: &mut Run, out: &Outputs) {
    if run.seed == 0 {
        for (name, text) in &out.files {
            run.golden(name, text);
        }
    }
    for (name, text) in &out.files {
        run.check(!text.is_empty() && !text.contains("NaN"), || {
            format!("{name} is empty or holds NaN")
        });
    }
    check_studies(run, out);
    for table in &out.sims {
        check_simulation(run, table, REQUESTS);
    }
    check_campaign(
        run,
        &out.campaign,
        campaign::CampaignConfig::paper().demands,
    );
    check_capacity(run, &out.capacity, 8, 20_000);
}

fn check_studies(run: &mut Run, out: &Outputs) {
    run.check(out.t2.runs.len() == 6 && out.t2.rows.len() == 6, || {
        "table2 has 6 rows".into()
    });
    let (study1, study2) = study_configs(run.master());
    for s in visible_studies(out) {
        let config = if s.scenario == 1 { study1 } else { study2 };
        let ok = s.checkpoints.len() as u64 == config.demands / config.checkpoint_every
            && (0..3).all(|i| match (s.first_met[i], s.stable_met[i]) {
                (Some(first), Some(stable)) => first <= stable,
                (None, Some(_)) => false,
                _ => true,
            })
            && s.checkpoints.iter().all(|c| {
                [c.a_high, c.b_high, c.b_p90]
                    .iter()
                    .all(|p| p.is_finite() && (0.0..=1.0).contains(p))
                    && c.b_p90 <= c.b_high
            });
        run.check(ok, || {
            format!(
                "study scenario {} {:?} breaks its invariants",
                s.scenario, s.detection
            )
        });
    }
    for row in &out.spread {
        let ok = row.cells.iter().all(|c| {
            c.met.len() <= SPREAD_SEEDS as usize && c.met.windows(2).all(|w| w[0] <= w[1])
        });
        run.check(ok, || {
            format!("spread row {} breaks its invariants", row.detection)
        });
    }
}

/// Tables 5–6: every column group accounts for every request.
pub fn check_simulation(run: &mut Run, table: &SimulationTable, requests: u64) {
    let ok = table.runs.len() == 4
        && table.runs.iter().all(|r| {
            r.cells.len() == PAPER_TIMEOUTS.len()
                && r.cells.iter().all(|c| {
                    c.requests == requests
                        && [c.rel1, c.rel2, c.system].iter().all(|g| {
                            g.cr + g.eer + g.ner == g.total
                                && g.total + g.nrdt == requests
                                && g.met.is_finite()
                        })
                })
        });
    run.check(ok, || format!("{} breaks its invariants", table.title));
}

/// Fault campaign: injections add up and detection never exceeds them.
pub fn check_campaign(run: &mut Run, table: &CampaignTable, demands: u64) {
    for p in &table.rows {
        let ok = p.demands == demands
            && p.injected.iter().map(|(_, n)| n).sum::<u64>() == p.injected_total
            && p.detected <= p.injected_total
            && (0.0..=1.0).contains(&p.availability);
        run.check(ok, || {
            format!("campaign plan {} breaks its invariants", p.name)
        });
    }
}

/// Capacity study: one row per (rate, dispatch), outcomes within range.
pub fn check_capacity(run: &mut Run, rows: &[CapacityResult], cells: usize, demands: u64) {
    let ok = rows.len() == cells
        && rows.iter().all(|r| {
            r.demands == demands
                && r.correct + r.unavailable <= demands
                && r.utilisation.iter().all(|u| (0.0..=1.0).contains(u))
        });
    run.check(ok, || "capacity study breaks its invariants".into());
}

/// Set-up: the study configurations plus one white-box posterior per
/// scenario at paper resolution, updated once (the grid tables every
/// study builds first).
fn setup(seed: MasterSeed) -> (StudyConfig, StudyConfig) {
    let configs = study_configs(seed);
    for scenario in [Scenario::one(), Scenario::two()] {
        let p = scenario.priors;
        let mut updater = WhiteBoxInference::with_resolution(
            p.prior_a,
            p.prior_b,
            p.coincidence,
            configs.0.resolution,
        )
        .updater();
        updater.update_to(&JointCounts::new());
        std::hint::black_box(updater.marginal_b().percentile(0.99));
    }
    configs
}

/// Replays one study's checkpoint counts into a fresh updater at the
/// study's resolution, timing one update plus the three percentile
/// queries per checkpoint (ns). The flag is whether every recorded
/// percentile was reproduced bit for bit.
pub fn replay_study(study: &StudyRun, config: &StudyConfig) -> (bool, Vec<f64>) {
    let scenario = if study.scenario == 1 {
        Scenario::one()
    } else {
        Scenario::two()
    };
    let p = scenario.priors;
    let mut updater =
        WhiteBoxInference::with_resolution(p.prior_a, p.prior_b, p.coincidence, config.resolution)
            .updater();
    let mut identical = true;
    let mut times = Vec::with_capacity(study.checkpoints.len());
    for c in &study.checkpoints {
        let start = Instant::now();
        updater.update_to(&c.counts);
        let a_high = updater.marginal_a().percentile(config.confidence);
        let b_high = updater.marginal_b().percentile(config.confidence);
        let b_p90 = updater.marginal_b().percentile(0.90);
        times.push(start.elapsed().as_nanos() as f64);
        identical &= a_high.to_bits() == c.a_high.to_bits()
            && b_high.to_bits() == c.b_high.to_bits()
            && b_p90.to_bits() == c.b_p90.to_bits();
    }
    (identical, times)
}

/// Replays every visible study's checkpoint counts (see
/// [`replay_study`]); fails the run unless each is bit-identical.
/// Returns the checkpoints the pass ran and the median ns of one.
fn replay(run: &mut Run, out: &Outputs) -> (u64, f64) {
    let studies = visible_studies(out);
    let (config, _) = study_configs(run.master());
    let mut times = Vec::new();
    for s in &studies {
        let (identical, more) = replay_study(s, &config);
        times.extend(more);
        run.check(identical, || {
            format!(
                "replay of scenario {} {:?} is not bit-identical",
                s.scenario, s.detection
            )
        });
    }
    // Checkpoints the pass ran: the visible studies plus the spread's
    // ten re-runs of Table 2 (the ablations' studies are not visible
    // through their results and are not counted).
    let table2: u64 = out.t2.runs.iter().map(|s| s.checkpoints.len() as u64).sum();
    let visible: u64 = studies.iter().map(|s| s.checkpoints.len() as u64).sum();
    (visible + SPREAD_SEEDS * table2, median(&times))
}

/// The wall time of step `name` in a pass's ledger.
fn step_secs(steps: &[(&'static str, f64)], name: &str) -> f64 {
    steps
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(f64::NAN, |(_, s)| *s)
}

/// The ledger as a provenance note: `step=seconds` in execution order.
pub fn steps_note(steps: &[(&'static str, f64)]) -> String {
    steps
        .iter()
        .map(|(name, secs)| format!("{name}={secs:.6}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Runs the workload: `wall_s` is the median pass, `latency_us` the
/// median Table 2 step.
pub fn run(run: &mut Run) {
    let seed = run.master();
    let (setup_s, _) = timed_setup(|| setup(seed));
    if !run.traced() {
        let started = Instant::now();
        let mut walls = Vec::new();
        let mut table2 = Vec::new();
        while walls.len() < MIN_PASSES || started.elapsed().as_secs_f64() < run.seconds {
            let (wall, steps, out) = reproduce(seed, &mut Tracer::new(false));
            check(run, &out);
            walls.push(wall);
            table2.push(step_secs(&steps, "table2"));
        }
        run.note("repro_passes", walls.len());
        run.metric("setup_s", setup_s, "s");
        run.metric("wall_s", median(&walls), "s");
        run.metric("latency_us", median(&table2) * 1e6, "us");
        return;
    }
    // Traced run: an untraced pass as the overhead baseline, then the
    // traced pass the ledger comes from.
    let (base_wall, _, base_out) = reproduce(seed, &mut Tracer::new(false));
    check(run, &base_out);
    drop(base_out);
    let (wall, steps, out) = reproduce(seed, &mut run.tracer);
    check(run, &out);
    let step_sum: f64 = steps.iter().map(|(_, s)| s).sum();
    let gap = wall - step_sum;
    run.check(gap.abs() <= LEDGER_TOLERANCE * wall, || {
        format!("step ledger leaves {gap:.4} s of {wall:.4} s unattributed")
    });
    run.note("steps_s", steps_note(&steps));
    let (checkpoints, checkpoint_ns) = replay(run, &out);
    let busy_s = checkpoints as f64 * checkpoint_ns * 1e-9;
    run.note("bayes_checkpoints", checkpoints);
    run.note("bayes_checkpoint_ns", checkpoint_ns);
    run.note("bayes_share", busy_s / base_wall);
    Layers::measure(run).report(run);
    run.metric("ledger.unattributed_share", gap / wall, "share");
    run.metric("trace.overhead_share", wall / base_wall - 1.0, "share");
}
