//! The fleet study: staged canary chains swept over a (fleet size ×
//! recovery strategy) fault matrix.
//!
//! Each cell deploys an N-release canary chain behind the weighted-fleet
//! middleware ([`wsu_core::fleet::FleetOrchestrator`]), wraps every
//! release in a [`FaultInjector`] armed with the cell's slice of a
//! [`FleetFaultScenario`], and runs the chain to completion under one of
//! the three recovery strategies (restart-in-place, demote-and-rollback,
//! substitute). The scenario is the same for every cell:
//!
//! * the **first canary** crashes for a burst of its own demands —
//!   a transient fault a restart genuinely cures;
//! * the **last stage** returns evident wrong values on every second
//!   demand — a persistent fault restarts can never cure;
//! * **every release** shares a low-probability crash clause — the
//!   correlated background noise.
//!
//! The table reports, per cell, the incidents declared, how many of
//! their recovery probes succeeded (**RecProb** = recovered/incidents),
//! the chain's lifecycle counters (promotions, rollbacks,
//! substitutions) and system availability — the fleet analogue of the
//! fault campaign's detection-coverage table. Cells fan out as
//! replications via [`run_replications`], so the rendered table, the
//! metrics snapshot and the event trace are byte-identical at any
//! `--jobs` value.

use wsu_core::composite::{CompositeEndpoint, CompositeService};
use wsu_core::fleet::{
    FleetOrchestrator, FleetPlan, ProbeRule, PromotionRule, RollbackRule, SubstitutePool,
};
use wsu_core::manage::RecoveryStrategy;
use wsu_faults::{FaultAction, FaultClause, FaultInjector, FaultTrigger, FleetFaultScenario};
use wsu_simcore::dist::DelayModel;
use wsu_simcore::par::Jobs;
use wsu_simcore::rng::MasterSeed;
use wsu_wstack::endpoint::SyntheticService;
use wsu_wstack::registry::ServiceRecord;
use wsu_wstack::wsdl::ServiceDescription;

use crate::midsim::ObsSinks;
use crate::replicate::run_replications;
use crate::report::TextTable;

/// Sizing knobs of a fleet-study run.
#[derive(Debug, Clone)]
pub struct FleetStudyConfig {
    /// Demands each cell processes.
    pub demands: u64,
    /// Canary assessment cadence, in demands.
    pub assess_interval: u64,
}

impl FleetStudyConfig {
    /// The committed-artifact scale: 4,000 demands per cell, assessment
    /// every 100.
    pub fn paper() -> FleetStudyConfig {
        FleetStudyConfig {
            demands: 4_000,
            assess_interval: 100,
        }
    }

    /// A fast scale for tests and smoke runs.
    pub fn quick() -> FleetStudyConfig {
        FleetStudyConfig {
            demands: 1_200,
            assess_interval: 50,
        }
    }
}

/// One cell of the study matrix.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Cell label (row name), e.g. `fleet3-substitute`.
    pub name: String,
    /// Releases in the chain, stable included (≥ 2).
    pub fleet: usize,
    /// The recovery strategy under test.
    pub strategy: RecoveryStrategy,
}

/// The standard matrix: fleet sizes {2, 3, 4} × the three recovery
/// strategies.
pub fn standard_cells() -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for fleet in [2usize, 3, 4] {
        for strategy in RecoveryStrategy::all() {
            cells.push(CellSpec {
                name: format!("fleet{fleet}-{}", strategy.label()),
                fleet,
                strategy,
            });
        }
    }
    cells
}

/// One cell's outcome.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Cell label.
    pub name: String,
    /// Fleet size (releases in the chain).
    pub fleet: usize,
    /// Strategy label.
    pub strategy: String,
    /// Demands processed.
    pub demands: u64,
    /// Total fault injections across all releases.
    pub injected_total: u64,
    /// Injections by fault kind, merged across releases and sorted.
    pub injected: Vec<(String, u64)>,
    /// Incidents declared.
    pub incidents: u64,
    /// Incidents whose recovery probe succeeded.
    pub recovered: u64,
    /// `recovered / incidents`; `None` when no incident was declared.
    pub recovery_probability: Option<f64>,
    /// Canary promotions.
    pub promotions: u64,
    /// Canary demotions.
    pub rollbacks: u64,
    /// Atomic substitutions bound.
    pub substitutions: u64,
    /// System availability over the run.
    pub availability: f64,
}

/// The rendered study.
#[derive(Debug, Clone)]
pub struct FleetTable {
    /// Display title.
    pub title: String,
    /// One row per cell, in matrix order.
    pub rows: Vec<CellResult>,
}

impl FleetTable {
    /// Renders the per-cell recovery table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(
            self.title.clone(),
            &[
                "Plan",
                "Fleet",
                "Strategy",
                "Demands",
                "Injected",
                "Incidents",
                "Recovered",
                "RecProb",
                "Promote",
                "Rollback",
                "Subst",
                "Avail",
            ],
        );
        for row in &self.rows {
            let rec_prob = match row.recovery_probability {
                Some(p) => format!("{p:.3}"),
                None => "—".to_owned(),
            };
            table.push_row(vec![
                row.name.clone(),
                row.fleet.to_string(),
                row.strategy.clone(),
                row.demands.to_string(),
                row.injected_total.to_string(),
                row.incidents.to_string(),
                row.recovered.to_string(),
                rec_prob,
                row.promotions.to_string(),
                row.rollbacks.to_string(),
                row.substitutions.to_string(),
                format!("{:.4}", row.availability),
            ]);
        }
        table.render()
    }

    /// The per-cell results as one JSON document, for
    /// `fleetstudy --serve-metrics`'s `/snapshot`.
    pub fn rows_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"schema\":\"wsu-fleetstudy/1\",\"cells\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let rec_prob = match row.recovery_probability {
                Some(p) => format!("{p}"),
                None => "null".to_owned(),
            };
            let _ = write!(
                out,
                "{{\"cell\":\"{}\",\"fleet\":{},\"strategy\":\"{}\",\"demands\":{},\
                 \"injected\":{},\"incidents\":{},\"recovered\":{},\
                 \"recovery_probability\":{rec_prob},\"promotions\":{},\"rollbacks\":{},\
                 \"substitutions\":{},\"availability\":{}}}",
                row.name,
                row.fleet,
                row.strategy,
                row.demands,
                row.injected_total,
                row.incidents,
                row.recovered,
                row.promotions,
                row.rollbacks,
                row.substitutions,
                row.availability,
            );
        }
        out.push_str("]}");
        out
    }
}

/// The shared fault scenario, sliced per fleet size: a transient crash
/// burst on the first canary, a persistent evident fault on the last
/// stage, a correlated low-probability crash everywhere.
fn cell_scenario(name: &str, fleet: usize) -> FleetFaultScenario {
    FleetFaultScenario::new(name, fleet)
        .release_clause(
            1,
            FaultClause::new(
                "canary-burst",
                FaultTrigger::DemandWindow { from: 40, to: 80 },
                FaultAction::Crash,
            ),
        )
        .release_clause(
            fleet - 1,
            FaultClause::new(
                "persistent-wrong",
                FaultTrigger::EveryNth { n: 2, phase: 0 },
                FaultAction::WrongValue { evident: true },
            ),
        )
        .coincident(FaultClause::new(
            "co-crash",
            FaultTrigger::Probabilistic {
                p: 0.01,
                stream: "fleet/co-crash".into(),
            },
            FaultAction::Crash,
        ))
}

/// Runs `cells` over a worker pool: each cell is one replication.
/// Results, traces and metrics merge in matrix order, so every output
/// is byte-identical for any `jobs`.
pub fn run_fleetstudy_jobs(
    cells: &[CellSpec],
    config: &FleetStudyConfig,
    seed: MasterSeed,
    sinks: &ObsSinks,
    jobs: Jobs,
) -> FleetTable {
    let rows = run_replications(jobs, cells.len(), sinks, |index, local| {
        run_cell(&cells[index], config, seed, local)
    });
    FleetTable {
        title: "Fleet study: recovery probability and availability per (fleet × strategy)"
            .to_owned(),
        rows,
    }
}

/// Simulates one cell of the matrix.
///
/// The base services are always-correct with constant execution time,
/// so every ground-truth failure in the run is injected — the same
/// discipline as the fault campaign.
fn run_cell(
    spec: &CellSpec,
    config: &FleetStudyConfig,
    seed: MasterSeed,
    local: &ObsSinks,
) -> CellResult {
    let name = spec.name.clone();
    let cell_seed = {
        let mut derive = seed.stream(&format!("fleetstudy/{name}"));
        MasterSeed::new(derive.next_u64())
    };
    let scenario = cell_scenario(&name, spec.fleet);
    let service = |release: &str| {
        SyntheticService::builder("Composite", release)
            .exec_time(DelayModel::constant(0.5))
            .build()
    };
    let arm = |release: &str, plan: &wsu_faults::FaultPlan| {
        let mut injector = FaultInjector::new(service(release), plan.clone(), cell_seed);
        if let Some(recorder) = &local.recorder {
            injector = injector.with_recorder(recorder.clone());
        }
        if let Some(metrics) = &local.metrics {
            injector = injector.with_metrics(metrics.clone());
        }
        injector
    };

    let releases: Vec<String> = (0..spec.fleet).map(|i| format!("1.{i}")).collect();
    let injectors: Vec<_> = releases
        .iter()
        .zip(&scenario.plans)
        .map(|(release, plan)| arm(release, plan))
        .collect();
    let tallies: Vec<_> = injectors.iter().map(|injector| injector.tally()).collect();

    let plan = FleetPlan {
        assess_interval: config.assess_interval,
        promotion: PromotionRule {
            target_pfd: 0.05,
            confidence: 0.8,
            min_demands: 25,
        },
        rollback: RollbackRule {
            window: 12,
            max_fault_rate: 0.4,
        },
        probe: ProbeRule {
            window: 30,
            min_availability: 0.9,
        },
        suspend_after: 5,
        ..FleetPlan::with_strategy(spec.strategy)
    };

    let mut injectors = injectors.into_iter();
    let mut orchestrator = FleetOrchestrator::new(
        injectors.next().expect("fleet has a stable release"),
        plan,
        cell_seed,
    );
    for injector in injectors {
        orchestrator.push_stage(injector);
    }
    // Stand-ins for the substitute strategy: functionally-equivalent
    // *composite* services published in the registry pool, one per
    // canary stage, bound atomically when a canary is demoted.
    if spec.strategy == RecoveryStrategy::Substitute {
        let mut pool = SubstitutePool::new();
        for stage in 1..spec.fleet {
            let stand_in_name = format!("CompositeAlt{stage}");
            let composite = CompositeService::builder(stand_in_name.clone())
                .component(
                    "backend",
                    SyntheticService::builder("Backend", "1.0")
                        .exec_time(DelayModel::constant(0.5))
                        .build(),
                )
                .build();
            pool.register(
                ServiceRecord::new(
                    &stand_in_name,
                    format!("http://standby/{stand_in_name}"),
                    "composite-equivalent",
                    ServiceDescription::new(&stand_in_name, "sub-1.0"),
                ),
                Box::new(CompositeEndpoint::new(composite, "sub-1.0")),
            );
        }
        orchestrator.set_substitutes(pool, "composite-equivalent");
    }
    if let Some(recorder) = &local.recorder {
        orchestrator.attach_recorder(recorder.clone());
    }
    if let Some(metrics) = &local.metrics {
        orchestrator.attach_metrics(metrics);
    }
    orchestrator.run_demands(config.demands);

    let mut injected: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for tally in &tallies {
        for (kind, count) in tally.by_kind() {
            *injected.entry(kind.to_owned()).or_insert(0) += count;
        }
    }
    let stats = orchestrator.stats();
    CellResult {
        name,
        fleet: spec.fleet,
        strategy: spec.strategy.label().to_owned(),
        demands: config.demands,
        injected_total: injected.values().sum(),
        injected: injected.into_iter().collect(),
        incidents: stats.incidents,
        recovered: stats.recovered,
        recovery_probability: stats.recovery_probability(),
        promotions: stats.promotions,
        rollbacks: stats.rollbacks,
        substitutions: stats.substitutions,
        availability: stats.availability(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsu_obs::{SharedRecorder, SharedRegistry};

    const SEED: MasterSeed = MasterSeed::new(0xF1EE7);

    fn quick() -> FleetTable {
        run_fleetstudy_jobs(
            &standard_cells(),
            &FleetStudyConfig::quick(),
            SEED,
            &ObsSinks::default(),
            Jobs::serial(),
        )
    }

    #[test]
    fn matrix_covers_every_fleet_size_and_strategy() {
        let cells = standard_cells();
        assert_eq!(cells.len(), 9);
        for fleet in [2usize, 3, 4] {
            for strategy in ["restart", "rollback", "substitute"] {
                assert!(
                    cells
                        .iter()
                        .any(|c| c.fleet == fleet && c.strategy.label() == strategy),
                    "missing cell fleet={fleet} strategy={strategy}"
                );
            }
        }
    }

    #[test]
    fn every_cell_suffers_and_reports_injections() {
        let table = quick();
        assert_eq!(table.rows.len(), 9);
        for row in &table.rows {
            assert!(row.injected_total > 0, "{} injected nothing", row.name);
            assert!(row.incidents > 0, "{} declared no incident", row.name);
            assert!(
                row.availability > 0.5,
                "{} availability collapsed",
                row.name
            );
        }
    }

    #[test]
    fn rollback_halts_the_chain_and_substitute_keeps_it_going() {
        let table = quick();
        for fleet in [3usize, 4] {
            let rollback = table
                .rows
                .iter()
                .find(|r| r.fleet == fleet && r.strategy == "rollback")
                .unwrap();
            let substitute = table
                .rows
                .iter()
                .find(|r| r.fleet == fleet && r.strategy == "substitute")
                .unwrap();
            assert!(rollback.rollbacks >= 1, "{rollback:?}");
            assert_eq!(rollback.substitutions, 0);
            assert!(substitute.substitutions >= 1, "{substitute:?}");
            // A substituted chain keeps promoting where a rolled-back
            // one halted.
            assert!(
                substitute.promotions >= rollback.promotions,
                "{substitute:?} vs {rollback:?}"
            );
        }
    }

    #[test]
    fn render_contains_every_cell_and_column() {
        let table = quick();
        let text = table.render();
        for row in &table.rows {
            assert!(text.contains(&row.name), "missing cell {}", row.name);
        }
        for needle in [
            "Fleet",
            "Strategy",
            "Injected",
            "Incidents",
            "Recovered",
            "RecProb",
            "Promote",
            "Rollback",
            "Subst",
            "Avail",
        ] {
            assert!(text.contains(needle), "missing column {needle}");
        }
    }

    #[test]
    fn rows_json_is_parseable_and_lists_every_cell() {
        let table = quick();
        let json = table.rows_json();
        assert!(json.starts_with("{\"schema\":\"wsu-fleetstudy/1\""));
        for row in &table.rows {
            assert!(json.contains(&format!("\"cell\":\"{}\"", row.name)));
        }
        assert!(wsu_obs::parse_jsonl(&json).is_ok(), "snapshot JSON parses");
    }

    #[test]
    fn study_is_jobs_invariant_with_observability() {
        let observed = |jobs| {
            let sinks = ObsSinks {
                recorder: Some(SharedRecorder::new()),
                metrics: Some(SharedRegistry::new()),
            };
            let table = run_fleetstudy_jobs(
                &standard_cells()[..5],
                &FleetStudyConfig::quick(),
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
        assert!(prom1.contains("wsu_fleet_weight"), "{prom1}");
        assert!(prom1.contains("wsu_fleet_incidents_total"));
    }
}
