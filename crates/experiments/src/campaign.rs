//! The fault-injection campaign: a matrix of fault plans swept over the
//! two-release managed upgrade.
//!
//! Each plan in the matrix wraps both releases in
//! [`FaultInjector`](wsu_faults::FaultInjector)s armed with a
//! [`FaultScenario`](wsu_faults::FaultScenario), runs the managed
//! upgrade to completion and reports what the monitoring subsystem's
//! detection audit made of the injected ground truth: detection
//! coverage, false-alarm rate, the switch/abort decision and system
//! availability. Plans fan out as replications via
//! [`run_replications`], so the campaign is byte-identical at any
//! `--jobs` value.

use wsu_core::manage::AbortPolicy;
use wsu_core::middleware::MiddlewareConfig;
use wsu_core::upgrade::{DetectorKind, ManagedUpgrade, UpgradeConfig, UpgradePhase};
use wsu_faults::{FaultAction, FaultClause, FaultInjector, FaultScenario, FaultTrigger};
use wsu_obs::DependabilitySnapshot;
use wsu_simcore::dist::DelayModel;
use wsu_simcore::par::Jobs;
use wsu_simcore::rng::MasterSeed;
use wsu_wstack::endpoint::SyntheticService;

use crate::midsim::ObsSinks;
use crate::replicate::run_replications;
use crate::report::TextTable;

/// Sizing knobs of a campaign run.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Demands each plan processes.
    pub demands: u64,
    /// Bayesian assessment cadence, in demands.
    pub assess_interval: u64,
    /// Inference grid resolution.
    pub resolution: wsu_bayes::whitebox::Resolution,
    /// Middleware timeout, in seconds.
    pub timeout_secs: f64,
}

impl CampaignConfig {
    /// The committed-artifact scale: 2,500 demands per plan, assessment
    /// every 250.
    pub fn paper() -> CampaignConfig {
        CampaignConfig {
            demands: 2_500,
            assess_interval: 250,
            resolution: wsu_bayes::whitebox::Resolution {
                a_cells: 48,
                b_cells: 48,
                q_cells: 16,
            },
            timeout_secs: 2.0,
        }
    }

    /// A fast scale for tests and smoke runs.
    pub fn quick() -> CampaignConfig {
        CampaignConfig {
            demands: 800,
            assess_interval: 100,
            ..CampaignConfig::paper()
        }
    }
}

/// One cell of the campaign matrix: a fault scenario and the failure
/// detector adjudicating it.
#[derive(Debug, Clone)]
pub struct PlanSpec {
    /// The two-release fault scenario.
    pub scenario: FaultScenario,
    /// The detector the monitoring subsystem scores the pair with.
    pub detector: DetectorKind,
}

impl PlanSpec {
    /// Pairs a scenario with a detector.
    pub fn new(scenario: FaultScenario, detector: DetectorKind) -> PlanSpec {
        PlanSpec { scenario, detector }
    }
}

/// The standard campaign matrix.
///
/// Eleven plans chosen so every fault kind the plan language can express
/// appears at least once, under detectors ranging from perfect to
/// omission-prone and false-alarming.
pub fn standard_plans() -> Vec<PlanSpec> {
    vec![
        // No faults at all: the audit's control group.
        PlanSpec::new(FaultScenario::new("baseline"), DetectorKind::Omission(0.15)),
        // The old release crashes for a window of demands mid-run.
        PlanSpec::new(
            FaultScenario::new("old-crash-window").old_clause(FaultClause::new(
                "crash-window",
                FaultTrigger::DemandWindow { from: 200, to: 400 },
                FaultAction::Crash,
            )),
            DetectorKind::Perfect,
        ),
        // The new release hangs past the timeout on a random 5%.
        PlanSpec::new(
            FaultScenario::new("new-hang").new_clause(FaultClause::new(
                "hang",
                FaultTrigger::Probabilistic {
                    p: 0.05,
                    stream: "new/hang".into(),
                },
                FaultAction::Hang { delay_secs: 10.0 },
            )),
            DetectorKind::Omission(0.1),
        ),
        // Deterministic evident wrong values on the old release.
        PlanSpec::new(
            FaultScenario::new("old-wrong-evident").old_clause(FaultClause::new(
                "wrong-evident",
                FaultTrigger::EveryNth { n: 7, phase: 3 },
                FaultAction::WrongValue { evident: true },
            )),
            DetectorKind::Perfect,
        ),
        // Plausible-but-wrong answers from the new release: only a
        // detector can tell.
        PlanSpec::new(
            FaultScenario::new("new-wrong-nonevident").new_clause(FaultClause::new(
                "wrong-nonevident",
                FaultTrigger::Probabilistic {
                    p: 0.08,
                    stream: "new/ner".into(),
                },
                FaultAction::WrongValue { evident: false },
            )),
            DetectorKind::Omission(0.15),
        ),
        // Latency spikes that push some responses over the timeout.
        PlanSpec::new(
            FaultScenario::new("old-latency-spike").old_clause(FaultClause::new(
                "spike",
                FaultTrigger::Probabilistic {
                    p: 0.1,
                    stream: "old/spike".into(),
                },
                FaultAction::LatencySpike { extra_secs: 1.8 },
            )),
            DetectorKind::Perfect,
        ),
        // Responses landing just past the timeout boundary.
        PlanSpec::new(
            FaultScenario::new("new-timeout-boundary").new_clause(FaultClause::new(
                "boundary",
                FaultTrigger::EveryNth { n: 11, phase: 0 },
                FaultAction::TimeoutBoundary {
                    timeout_secs: 2.0,
                    margin_secs: 0.1,
                },
            )),
            DetectorKind::Perfect,
        ),
        // Transport-level chaos: drops on the old side, duplicates and
        // corruption on the new side.
        PlanSpec::new(
            FaultScenario::new("transport-chaos")
                .old_clause(FaultClause::new(
                    "drop",
                    FaultTrigger::Probabilistic {
                        p: 0.04,
                        stream: "old/drop".into(),
                    },
                    FaultAction::DropResponse,
                ))
                .new_clause(FaultClause::new(
                    "duplicate",
                    FaultTrigger::Probabilistic {
                        p: 0.04,
                        stream: "new/dup".into(),
                    },
                    FaultAction::DuplicateRequest,
                ))
                .new_clause(FaultClause::new(
                    "corrupt",
                    FaultTrigger::Probabilistic {
                        p: 0.04,
                        stream: "new/corrupt".into(),
                    },
                    FaultAction::CorruptMessage,
                )),
            DetectorKind::Omission(0.1),
        ),
        // The old release flaps up and down through the first 600
        // demands.
        PlanSpec::new(
            FaultScenario::new("flap-old").old_clause(FaultClause::new(
                "flap",
                FaultTrigger::DemandWindow { from: 0, to: 600 },
                FaultAction::Flap { period: 50 },
            )),
            DetectorKind::Perfect,
        ),
        // Correlated crashes: both releases share one probabilistic
        // stream, so they go down on exactly the same demands.
        PlanSpec::new(
            FaultScenario::new("coincident-burst").coincident(FaultClause::new(
                "burst",
                FaultTrigger::Probabilistic {
                    p: 0.05,
                    stream: "burst".into(),
                },
                FaultAction::Crash,
            )),
            DetectorKind::BackToBackThenOmission(0.1),
        ),
        // No faults, but the detector cries wolf.
        PlanSpec::new(
            FaultScenario::new("false-alarm"),
            DetectorKind::FalseAlarm(0.05),
        ),
    ]
}

/// One plan's campaign outcome.
#[derive(Debug, Clone)]
pub struct PlanResult {
    /// Scenario name.
    pub name: String,
    /// Detector label (its `Debug` form).
    pub detector: String,
    /// Demands processed.
    pub demands: u64,
    /// Injections by fault kind, merged across both releases and sorted
    /// by kind label.
    pub injected: Vec<(String, u64)>,
    /// Total injections across both releases.
    pub injected_total: u64,
    /// Ground-truth failures the detector caught (audit true positives,
    /// both releases).
    pub detected: u64,
    /// Empirical detection coverage on the old release.
    pub coverage_old: Option<f64>,
    /// Empirical detection coverage on the new release.
    pub coverage_new: Option<f64>,
    /// Empirical false-alarm rate on the old release.
    pub false_alarm_old: Option<f64>,
    /// Empirical false-alarm rate on the new release.
    pub false_alarm_new: Option<f64>,
    /// Final upgrade phase (`transitional`, `switched@N`, `aborted@N`).
    pub outcome: String,
    /// System availability over the run.
    pub availability: f64,
    /// 99th-percentile consumer-visible response time (seconds).
    pub p99: f64,
    /// 99.9th-percentile consumer-visible response time (seconds).
    pub p999: f64,
    /// Availability of the worst completed SLO window.
    pub worst_window_availability: f64,
    /// Full windowed dependability snapshot at end of run.
    pub snapshot: DependabilitySnapshot,
}

/// The rendered campaign.
#[derive(Debug, Clone)]
pub struct CampaignTable {
    /// Display title.
    pub title: String,
    /// One row per plan, in matrix order.
    pub rows: Vec<PlanResult>,
}

fn fmt_rate(rate: Option<f64>) -> String {
    match rate {
        Some(r) => format!("{r:.3}"),
        None => "—".to_owned(),
    }
}

impl CampaignTable {
    /// Renders the per-plan detection-coverage table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(
            self.title.clone(),
            &[
                "Plan", "Detector", "Demands", "Injected", "Kinds", "Detected", "Cov(old)",
                "Cov(new)", "FA(old)", "FA(new)", "Outcome", "Avail", "p99(s)", "p999(s)",
                "WinAvail",
            ],
        );
        for row in &self.rows {
            let kinds = if row.injected.is_empty() {
                "—".to_owned()
            } else {
                row.injected
                    .iter()
                    .map(|(kind, count)| format!("{kind}:{count}"))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            table.push_row(vec![
                row.name.clone(),
                row.detector.clone(),
                row.demands.to_string(),
                row.injected_total.to_string(),
                kinds,
                row.detected.to_string(),
                fmt_rate(row.coverage_old),
                fmt_rate(row.coverage_new),
                fmt_rate(row.false_alarm_old),
                fmt_rate(row.false_alarm_new),
                row.outcome.clone(),
                format!("{:.4}", row.availability),
                format!("{:.3}", row.p99),
                format!("{:.3}", row.p999),
                format!("{:.4}", row.worst_window_availability),
            ]);
        }
        table.render()
    }

    /// The per-plan dependability snapshots as one JSON document, the
    /// body `faultcampaign --serve-metrics` publishes on `/snapshot`.
    pub fn snapshots_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"wsu-campaign-snapshot/1\",\"plans\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"plan\":\"{}\",\"snapshot\":{}}}",
                row.name,
                row.snapshot.to_json()
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Runs `specs` over a worker pool: each plan is one replication.
/// Results, traces and metrics merge in matrix order, so every output
/// is byte-identical for any `jobs`.
pub fn run_campaign_jobs(
    specs: &[PlanSpec],
    config: &CampaignConfig,
    seed: MasterSeed,
    sinks: &ObsSinks,
    jobs: Jobs,
) -> CampaignTable {
    let rows = run_replications(jobs, specs.len(), sinks, |index, local| {
        run_plan(&specs[index], config, seed, local)
    });
    CampaignTable {
        title: "Fault-injection campaign: detection coverage per plan".to_owned(),
        rows,
    }
}

/// Simulates one plan of the matrix and audits what the detector saw.
///
/// The base services are always-correct, so *every* ground-truth failure
/// in the run is injected — which is what lets the audit's true
/// positives be read as "injected faults detected".
fn run_plan(
    spec: &PlanSpec,
    config: &CampaignConfig,
    seed: MasterSeed,
    local: &ObsSinks,
) -> PlanResult {
    let name = spec.scenario.name.clone();
    let scenario_seed = {
        let mut derive = seed.stream(&format!("campaign/{name}"));
        MasterSeed::new(derive.next_u64())
    };
    // Constant execution time, safely inside the timeout: the base
    // services never fail on their own, so every ground-truth failure
    // in the run is injected (an exponential model would trip the
    // timeout on its tail and blur the audit).
    let service = |release: &str| {
        SyntheticService::builder("Composite", release)
            .exec_time(DelayModel::constant(0.5))
            .build()
    };
    let arm = |release: &str, plan: &wsu_faults::FaultPlan| {
        let mut injector = FaultInjector::new(service(release), plan.clone(), scenario_seed);
        if let Some(recorder) = &local.recorder {
            injector = injector.with_recorder(recorder.clone());
        }
        if let Some(metrics) = &local.metrics {
            injector = injector.with_metrics(metrics.clone());
        }
        injector
    };
    let old = arm("1.0", &spec.scenario.old);
    let new = arm("2.0", &spec.scenario.new);
    let old_tally = old.tally();
    let new_tally = new.tally();

    let upgrade_config = UpgradeConfig::default()
        .with_middleware(MiddlewareConfig::paper(config.timeout_secs))
        .with_detector(spec.detector)
        .with_assess_interval(config.assess_interval)
        .with_resolution(config.resolution)
        .with_abort(AbortPolicy::new(0.99));
    let mut upgrade = ManagedUpgrade::new(old, new, upgrade_config, scenario_seed);
    if let Some(recorder) = &local.recorder {
        upgrade.attach_recorder(recorder.clone());
    }
    if let Some(metrics) = &local.metrics {
        upgrade.attach_metrics(metrics);
    }
    upgrade.run_demands(config.demands);

    let mut injected: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for tally in [&old_tally, &new_tally] {
        for (kind, count) in tally.by_kind() {
            *injected.entry(kind.to_owned()).or_insert(0) += count;
        }
    }
    let audit = upgrade
        .monitor()
        .pair()
        .expect("campaign tracks the release pair")
        .audit();
    let (a, b) = (audit.release_a(), audit.release_b());
    if let Some(metrics) = &local.metrics {
        metrics.add_counter(
            "wsu_fault_detected_total",
            &[("plan", &name), ("release", "old")],
            a.true_positives,
        );
        metrics.add_counter(
            "wsu_fault_detected_total",
            &[("plan", &name), ("release", "new")],
            b.true_positives,
        );
    }
    let outcome = match upgrade.phase() {
        UpgradePhase::Transitional => "transitional".to_owned(),
        UpgradePhase::Switched { at_demand } => format!("switched@{at_demand}"),
        UpgradePhase::Aborted { at_demand } => format!("aborted@{at_demand}"),
    };
    let snapshot = upgrade.monitor().dependability_snapshot();
    PlanResult {
        name,
        detector: format!("{:?}", spec.detector),
        demands: config.demands,
        injected_total: injected.values().sum(),
        injected: injected.into_iter().collect(),
        detected: a.true_positives + b.true_positives,
        coverage_old: a.coverage(),
        coverage_new: b.coverage(),
        false_alarm_old: a.false_alarm_rate(),
        false_alarm_new: b.false_alarm_rate(),
        outcome,
        availability: upgrade.monitor().system_stats().availability(),
        p99: upgrade.monitor().response_quantiles().p99(),
        p999: upgrade.monitor().response_quantiles().p999(),
        worst_window_availability: snapshot.worst_window_availability,
        snapshot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsu_obs::{SharedRecorder, SharedRegistry};

    const SEED: MasterSeed = MasterSeed::new(0xCA_4A16);

    fn quick() -> CampaignTable {
        run_campaign_jobs(
            &standard_plans(),
            &CampaignConfig::quick(),
            SEED,
            &ObsSinks::default(),
            Jobs::serial(),
        )
    }

    #[test]
    fn baseline_has_no_injections_or_failures() {
        let table = quick();
        let baseline = &table.rows[0];
        assert_eq!(baseline.name, "baseline");
        assert_eq!(baseline.injected_total, 0);
        assert_eq!(baseline.detected, 0);
        // No true failures ever happened: coverage is undefined.
        assert_eq!(baseline.coverage_old, None);
        assert_eq!(baseline.coverage_new, None);
        assert_eq!(baseline.false_alarm_old, Some(0.0));
    }

    #[test]
    fn every_fault_kind_appears_in_the_matrix() {
        let table = quick();
        let kinds: std::collections::BTreeSet<&str> = table
            .rows
            .iter()
            .flat_map(|row| row.injected.iter().map(|(kind, _)| kind.as_str()))
            .collect();
        for kind in [
            "crash",
            "hang",
            "wrong-evident",
            "wrong-non-evident",
            "latency-spike",
            "timeout-boundary",
            "drop",
            "duplicate",
            "corrupt",
            "flap",
        ] {
            assert!(kinds.contains(kind), "matrix never injected {kind}");
        }
    }

    #[test]
    fn perfect_detector_has_full_coverage_where_failures_occurred() {
        let table = quick();
        let crash = table
            .rows
            .iter()
            .find(|row| row.name == "old-crash-window")
            .unwrap();
        assert!(crash.injected_total > 0);
        assert_eq!(crash.coverage_old, Some(1.0));
        assert_eq!(crash.false_alarm_old, Some(0.0));
    }

    #[test]
    fn false_alarm_plan_raises_alarms_without_faults() {
        let table = quick();
        let row = table.rows.iter().find(|r| r.name == "false-alarm").unwrap();
        assert_eq!(row.injected_total, 0);
        let fa = row.false_alarm_old.unwrap();
        assert!(fa > 0.01 && fa < 0.1, "false-alarm rate {fa}");
    }

    #[test]
    fn render_contains_every_plan_and_column() {
        let table = quick();
        let text = table.render();
        for row in &table.rows {
            assert!(text.contains(&row.name), "missing plan {}", row.name);
        }
        for needle in [
            "Cov(old)", "FA(new)", "Outcome", "Avail", "Detected", "p99(s)", "p999(s)", "WinAvail",
        ] {
            assert!(text.contains(needle), "missing column {needle}");
        }
    }

    #[test]
    fn tail_latency_and_window_columns_are_sane() {
        let table = quick();
        let baseline = &table.rows[0];
        // Constant 0.5 s services + dT: every response time is 0.6 s, so
        // p99 and p999 sit there (within the sketch's 1% bound) and every
        // window is fully available.
        assert!((baseline.p99 - 0.6).abs() / 0.6 <= 0.01, "{}", baseline.p99);
        assert!((baseline.p999 - 0.6).abs() / 0.6 <= 0.01);
        assert_eq!(baseline.worst_window_availability, 1.0);
        // The hang plan drags the tail out to the timeout.
        let hang = table.rows.iter().find(|r| r.name == "new-hang").unwrap();
        assert!(
            hang.p999 > baseline.p999,
            "{} vs {}",
            hang.p999,
            baseline.p999
        );
        // Coincident crashes take both releases down at once: the worst
        // window shows the dip that the lifetime average smooths over.
        let burst = table
            .rows
            .iter()
            .find(|r| r.name == "coincident-burst")
            .unwrap();
        assert!(burst.worst_window_availability < burst.availability);
    }

    #[test]
    fn snapshots_json_lists_every_plan() {
        let table = quick();
        let json = table.snapshots_json();
        assert!(json.starts_with("{\"schema\":\"wsu-campaign-snapshot/1\""));
        for row in &table.rows {
            assert!(
                json.contains(&format!("{{\"plan\":\"{}\",\"snapshot\":{{", row.name)),
                "missing {}",
                row.name
            );
        }
        // Each embedded snapshot is the monitor's own rendering.
        assert!(json.contains("\"schema\":\"wsu-snapshot/1\""));
        assert!(wsu_obs::parse_jsonl(&json).is_ok(), "snapshot JSON parses");
    }

    #[test]
    fn campaign_is_jobs_invariant_with_observability() {
        let observed = |jobs| {
            let sinks = ObsSinks {
                recorder: Some(SharedRecorder::new()),
                metrics: Some(SharedRegistry::new()),
            };
            let table = run_campaign_jobs(
                &standard_plans()[..4],
                &CampaignConfig::quick(),
                SEED,
                &sinks,
                jobs,
            );
            (
                table.render(),
                sinks.metrics.as_ref().unwrap().render_snapshot(),
                sinks.recorder.as_ref().unwrap().snapshot(),
            )
        };
        let (text1, prom1, trace1) = observed(Jobs::serial());
        let (text4, prom4, trace4) = observed(Jobs::new(4));
        assert_eq!(text1, text4, "rendered table differs with jobs=4");
        assert_eq!(prom1, prom4, "metrics snapshot differs with jobs=4");
        assert_eq!(trace1, trace4, "event trace differs with jobs=4");
        assert!(prom1.contains("wsu_fault_injected_total"), "{prom1}");
        assert!(
            trace1.iter().any(|e| e.kind() == "FaultInjected"),
            "trace carries injection events"
        );
    }

    #[test]
    fn detected_metric_matches_audit() {
        let sinks = ObsSinks {
            recorder: None,
            metrics: Some(SharedRegistry::new()),
        };
        let table = run_campaign_jobs(
            &standard_plans()[1..2], // old-crash-window
            &CampaignConfig::quick(),
            SEED,
            &sinks,
            Jobs::serial(),
        );
        let row = &table.rows[0];
        let metrics = sinks.metrics.as_ref().unwrap();
        let detected = metrics.with(|r| {
            r.counter(
                "wsu_fault_detected_total",
                &[("plan", "old-crash-window"), ("release", "old")],
            ) + r.counter(
                "wsu_fault_detected_total",
                &[("plan", "old-crash-window"), ("release", "new")],
            )
        });
        assert_eq!(detected, row.detected);
        assert!(detected > 0);
    }
}
