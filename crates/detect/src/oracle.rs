//! Demand-level failure oracles.
//!
//! An oracle judges, for each demand, whether each of the two releases
//! failed. The true pair is produced by the workload generator; the oracle
//! returns the pair the assessor *records*, which is what the Bayesian
//! inference sees.

use wsu_simcore::rng::StreamRng;

/// Ground truth (or an observation) of one demand: did each release fail?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DemandOutcome {
    /// Release A (the old release) failed.
    pub a_failed: bool,
    /// Release B (the new release) failed.
    pub b_failed: bool,
}

impl DemandOutcome {
    /// Both releases succeeded.
    pub const BOTH_OK: DemandOutcome = DemandOutcome {
        a_failed: false,
        b_failed: false,
    };

    /// Both releases failed.
    pub const BOTH_FAILED: DemandOutcome = DemandOutcome {
        a_failed: true,
        b_failed: true,
    };

    /// Creates an outcome.
    pub fn new(a_failed: bool, b_failed: bool) -> DemandOutcome {
        DemandOutcome { a_failed, b_failed }
    }

    /// Returns `true` if both releases failed on this demand.
    pub fn is_coincident(self) -> bool {
        self.a_failed && self.b_failed
    }
}

/// Scores demands, possibly imperfectly.
///
/// Implementations are deterministic functions of the truth and the
/// supplied RNG stream, so experiments are reproducible.
pub trait FailureDetector {
    /// A short name for reports (e.g. `"omission(0.15)"`).
    fn name(&self) -> String;

    /// Returns the recorded outcome for a demand whose true outcome is
    /// `truth`.
    fn observe(&mut self, truth: DemandOutcome, rng: &mut StreamRng) -> DemandOutcome;
}

/// The ideal detector: records exactly the truth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfectOracle;

impl FailureDetector for PerfectOracle {
    fn name(&self) -> String {
        "perfect".to_owned()
    }

    fn observe(&mut self, truth: DemandOutcome, _rng: &mut StreamRng) -> DemandOutcome {
        truth
    }
}

/// An oracle that *misses* failures: each release's failure is recorded as
/// a success with probability `p_omit`, independently.
///
/// This is the dangerous direction — the inference becomes optimistic and
/// the switch to the new release may happen too early (Section 5.1.1.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OmissionOracle {
    p_omit: f64,
}

impl OmissionOracle {
    /// Creates an omission oracle missing each failure with probability
    /// `p_omit`.
    ///
    /// # Panics
    ///
    /// Panics if `p_omit` is outside `[0, 1]`.
    pub fn new(p_omit: f64) -> OmissionOracle {
        assert!(
            (0.0..=1.0).contains(&p_omit),
            "omission probability {p_omit} not in [0, 1]"
        );
        OmissionOracle { p_omit }
    }

    /// The omission probability.
    pub fn p_omit(self) -> f64 {
        self.p_omit
    }

    /// The paper's configuration, `P_omit = 0.15`.
    pub fn paper() -> OmissionOracle {
        OmissionOracle::new(0.15)
    }
}

impl FailureDetector for OmissionOracle {
    fn name(&self) -> String {
        format!("omission({})", self.p_omit)
    }

    fn observe(&mut self, truth: DemandOutcome, rng: &mut StreamRng) -> DemandOutcome {
        let a = truth.a_failed && !rng.bernoulli(self.p_omit);
        let b = truth.b_failed && !rng.bernoulli(self.p_omit);
        DemandOutcome::new(a, b)
    }
}

/// An oracle that raises *false alarms*: a success is recorded as a
/// failure with probability `p_false`, independently per release.
///
/// The paper excludes this from its study because its effect is merely
/// pessimistic (the switch is delayed, never premature); it is included
/// here for the coverage ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FalseAlarmOracle {
    p_false: f64,
}

impl FalseAlarmOracle {
    /// Creates a false-alarm oracle.
    ///
    /// # Panics
    ///
    /// Panics if `p_false` is outside `[0, 1]`.
    pub fn new(p_false: f64) -> FalseAlarmOracle {
        assert!(
            (0.0..=1.0).contains(&p_false),
            "false-alarm probability {p_false} not in [0, 1]"
        );
        FalseAlarmOracle { p_false }
    }

    /// The false-alarm probability.
    pub fn p_false(self) -> f64 {
        self.p_false
    }
}

impl FailureDetector for FalseAlarmOracle {
    fn name(&self) -> String {
        format!("false-alarm({})", self.p_false)
    }

    fn observe(&mut self, truth: DemandOutcome, rng: &mut StreamRng) -> DemandOutcome {
        let a = truth.a_failed || rng.bernoulli(self.p_false);
        let b = truth.b_failed || rng.bernoulli(self.p_false);
        DemandOutcome::new(a, b)
    }
}

/// Applies several detectors in sequence: the observation of one becomes
/// the "truth" seen by the next.
///
/// # Example
///
/// ```
/// use wsu_detect::oracle::{ChainDetector, FailureDetector, OmissionOracle};
/// use wsu_detect::back2back::BackToBackDetector;
/// use wsu_simcore::rng::StreamRng;
///
/// // Back-to-back comparison first, then an imperfect oracle on the rest.
/// let mut chain = ChainDetector::new()
///     .then(BackToBackDetector::pessimistic())
///     .then(OmissionOracle::new(0.1));
/// assert!(chain.name().contains("back-to-back"));
/// ```
#[derive(Default)]
pub struct ChainDetector {
    stages: Vec<Box<dyn FailureDetector>>,
}

impl ChainDetector {
    /// Creates an empty chain (acts as a perfect oracle).
    pub fn new() -> ChainDetector {
        ChainDetector { stages: Vec::new() }
    }

    /// Appends a stage.
    pub fn then(mut self, stage: impl FailureDetector + 'static) -> ChainDetector {
        self.stages.push(Box::new(stage));
        self
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Returns `true` if the chain has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

impl std::fmt::Debug for ChainDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChainDetector({})", self.name())
    }
}

impl FailureDetector for ChainDetector {
    fn name(&self) -> String {
        if self.stages.is_empty() {
            return "identity".to_owned();
        }
        self.stages
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    fn observe(&mut self, truth: DemandOutcome, rng: &mut StreamRng) -> DemandOutcome {
        let mut current = truth;
        for stage in &mut self.stages {
            current = stage.observe(current, rng);
        }
        current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_helpers() {
        assert!(DemandOutcome::BOTH_FAILED.is_coincident());
        assert!(!DemandOutcome::new(true, false).is_coincident());
    }

    #[test]
    fn perfect_oracle_is_identity() {
        let mut oracle = PerfectOracle;
        let mut rng = StreamRng::from_seed(1);
        for truth in [
            DemandOutcome::BOTH_OK,
            DemandOutcome::BOTH_FAILED,
            DemandOutcome::new(true, false),
            DemandOutcome::new(false, true),
        ] {
            assert_eq!(oracle.observe(truth, &mut rng), truth);
        }
        assert_eq!(oracle.name(), "perfect");
    }

    #[test]
    fn omission_misses_at_configured_rate() {
        let mut oracle = OmissionOracle::new(0.15);
        let mut rng = StreamRng::from_seed(2);
        let n = 100_000;
        let mut missed = 0;
        for _ in 0..n {
            let seen = oracle.observe(DemandOutcome::new(true, false), &mut rng);
            if !seen.a_failed {
                missed += 1;
            }
            // B never failed, so B must never be recorded as failed.
            assert!(!seen.b_failed);
        }
        assert!((missed as f64 / n as f64 - 0.15).abs() < 0.005);
    }

    #[test]
    fn omission_never_invents_failures() {
        let mut oracle = OmissionOracle::new(0.9);
        let mut rng = StreamRng::from_seed(3);
        for _ in 0..1000 {
            assert_eq!(
                oracle.observe(DemandOutcome::BOTH_OK, &mut rng),
                DemandOutcome::BOTH_OK
            );
        }
    }

    #[test]
    fn omission_paper_preset() {
        assert_eq!(OmissionOracle::paper().p_omit(), 0.15);
        assert_eq!(OmissionOracle::paper().name(), "omission(0.15)");
    }

    #[test]
    fn false_alarm_invents_at_configured_rate() {
        let mut oracle = FalseAlarmOracle::new(0.1);
        let mut rng = StreamRng::from_seed(4);
        let n = 100_000;
        let mut alarms = 0;
        for _ in 0..n {
            let seen = oracle.observe(DemandOutcome::BOTH_OK, &mut rng);
            if seen.a_failed {
                alarms += 1;
            }
        }
        assert!((alarms as f64 / n as f64 - 0.1).abs() < 0.005);
        assert_eq!(oracle.p_false(), 0.1);
    }

    #[test]
    fn false_alarm_never_hides_failures() {
        let mut oracle = FalseAlarmOracle::new(0.0);
        let mut rng = StreamRng::from_seed(5);
        assert_eq!(
            oracle.observe(DemandOutcome::BOTH_FAILED, &mut rng),
            DemandOutcome::BOTH_FAILED
        );
    }

    #[test]
    fn chain_composes_in_order() {
        // Omission with p=1 erases everything regardless of later stages.
        let mut chain = ChainDetector::new()
            .then(OmissionOracle::new(1.0))
            .then(FalseAlarmOracle::new(0.0));
        let mut rng = StreamRng::from_seed(6);
        assert_eq!(
            chain.observe(DemandOutcome::BOTH_FAILED, &mut rng),
            DemandOutcome::BOTH_OK
        );
        assert_eq!(chain.len(), 2);
        assert!(!chain.is_empty());
        assert_eq!(chain.name(), "omission(1) -> false-alarm(0)");
    }

    #[test]
    fn empty_chain_is_identity() {
        let mut chain = ChainDetector::new();
        let mut rng = StreamRng::from_seed(7);
        assert_eq!(
            chain.observe(DemandOutcome::BOTH_FAILED, &mut rng),
            DemandOutcome::BOTH_FAILED
        );
        assert_eq!(chain.name(), "identity");
        assert!(chain.is_empty());
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn omission_rejects_bad_probability() {
        let _ = OmissionOracle::new(1.5);
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn false_alarm_rejects_bad_probability() {
        let _ = FalseAlarmOracle::new(-0.1);
    }
}
