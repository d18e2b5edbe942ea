//! Figures 7 and 8: posterior percentiles vs number of demands.
//!
//! Fig. 7 (Scenario 1) plots, against the number of demands:
//! `Ch B: 90% percentile (perfect oracles)`, `Ch B: 99% percentile
//! (Pmiss = 0.15)`, `Ch B: 99% percentile (back-to-back testing)`,
//! `Ch B: 99% percentile (perfect oracles)` and `Ch A: 99% percentile
//! (perfect oracles)`.
//!
//! Fig. 8 (Scenario 2) plots `Ch A: 99%`, `Ch B: 90%`, `Ch B: 99%` (all
//! perfect) and `Ch B: 99% (back-to-back testing)`.
//!
//! The paper's headline observation — the ≤9% confidence-error rule —
//! corresponds to the 90%-perfect curve staying below the 99%-imperfect
//! curves; [`confidence_error_bound_holds`] checks it programmatically.

use wsu_simcore::par::Jobs;
use wsu_simcore::series::{Series, SeriesSet};
use wsu_workload::scenario::Scenario;

use crate::bayes_study::{run_studies, Curve, Detection, Study, StudyConfig, StudyRun};

/// Builds a [`Series`] from a study run's curve.
fn to_series(run: &StudyRun, curve: Curve, name: &str) -> Series {
    let mut series = Series::new(name);
    for (x, y) in run.series(curve) {
        series.push(x, y);
    }
    series
}

/// The runs underlying one figure, kept for programmatic checks.
#[derive(Debug, Clone)]
pub struct FigureRuns {
    /// Perfect-oracle run.
    pub perfect: StudyRun,
    /// Omission run (Fig. 7 only; `None` for Fig. 8).
    pub omission: Option<StudyRun>,
    /// Back-to-back run.
    pub back_to_back: StudyRun,
}

/// One of the paper's two percentile figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Fig. 7: Scenario 1, perfect, omission and back-to-back detection.
    Seven,
    /// Fig. 8: Scenario 2, perfect and back-to-back detection.
    Eight,
}

/// Fig. 7: Scenario 1 percentile curves, at the default worker count.
pub fn run_fig7(config: &StudyConfig) -> (SeriesSet, FigureRuns) {
    run_figure(Figure::Seven, config, Jobs::default())
}

/// Fig. 8: Scenario 2 percentile curves, at the default worker count.
pub fn run_fig8(config: &StudyConfig) -> (SeriesSet, FigureRuns) {
    run_figure(Figure::Eight, config, Jobs::default())
}

/// Runs a figure's studies on up to `jobs` workers; the series are
/// byte-identical whatever `jobs`.
pub fn run_figure(figure: Figure, config: &StudyConfig, jobs: Jobs) -> (SeriesSet, FigureRuns) {
    let (scenario, title) = match figure {
        Figure::Seven => (
            Scenario::one(),
            "Fig. 7 — Scenario 1: percentiles for perfect and imperfect failure detection",
        ),
        Figure::Eight => (
            Scenario::two(),
            "Fig. 8 — Scenario 2: percentiles for perfect and imperfect failure detection",
        ),
    };
    let with_omission = figure == Figure::Seven;
    let detections = [
        Some(Detection::Perfect),
        with_omission.then_some(Detection::Omission(0.15)),
        Some(Detection::BackToBack),
    ];
    let studies: Vec<Study> = detections
        .into_iter()
        .flatten()
        .map(|detection| (scenario, detection, *config))
        .collect();
    let mut done = run_studies(&studies, jobs).into_iter();
    let mut next = || done.next().expect("one run per study");
    let runs = FigureRuns {
        perfect: next(),
        omission: with_omission.then(&mut next),
        back_to_back: next(),
    };

    let (perfect, b2b) = (&runs.perfect, &runs.back_to_back);
    // Fig. 7 is the figure with an omission run.
    let curves = match &runs.omission {
        Some(omission) => vec![
            (perfect, Curve::BP90, "ChB 90% (perfect oracles)"),
            (omission, Curve::BHigh, "ChB 99% (Pmiss=0.15)"),
            (b2b, Curve::BHigh, "ChB 99% (back-to-back)"),
            (perfect, Curve::BHigh, "ChB 99% (perfect oracles)"),
            (perfect, Curve::AHigh, "ChA 99% (perfect oracles)"),
        ],
        None => vec![
            (perfect, Curve::AHigh, "ChA 99% (perfect oracles)"),
            (perfect, Curve::BP90, "ChB 90% (perfect oracles)"),
            (perfect, Curve::BHigh, "ChB 99% (perfect oracles)"),
            (b2b, Curve::BHigh, "ChB 99% (back-to-back)"),
        ],
    };
    let mut set = SeriesSet::new(title, "demands", "percentile (pfd)");
    for (run, curve, name) in curves {
        set.add(to_series(run, curve, name));
    }
    (set, runs)
}

/// The paper's confidence-error observation: the 90% percentile under
/// perfect detection stays at or below the 99% percentile under the given
/// imperfect run, over (at least) the leading fraction `up_to` of the
/// checkpoints. Returns the fraction of compared checkpoints where the
/// bound holds.
pub fn confidence_error_bound_holds(perfect: &StudyRun, imperfect: &StudyRun, up_to: f64) -> f64 {
    assert!((0.0..=1.0).contains(&up_to), "up_to must be in [0, 1]");
    let n = ((perfect.checkpoints.len() as f64) * up_to).round() as usize;
    let n = n
        .min(perfect.checkpoints.len())
        .min(imperfect.checkpoints.len());
    if n == 0 {
        return 1.0;
    }
    let mut ok = 0usize;
    for i in 0..n {
        if perfect.checkpoints[i].b_p90 <= imperfect.checkpoints[i].b_high + 1e-15 {
            ok += 1;
        }
    }
    ok as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsu_simcore::rng::MasterSeed;

    fn quick(demands: u64, every: u64) -> StudyConfig {
        StudyConfig::test(demands, every, MasterSeed::new(21))
    }

    #[test]
    fn fig7_has_five_series() {
        let (set, runs) = run_fig7(&quick(3_000, 500));
        assert_eq!(set.series().len(), 5);
        assert!(set.by_name("ChA 99% (perfect oracles)").is_some());
        assert!(runs.omission.is_some());
        // Every series spans the full checkpoint range.
        for s in set.series() {
            assert_eq!(s.len(), 6);
            assert_eq!(s.points()[0].0, 500.0);
        }
    }

    #[test]
    fn fig8_has_four_series() {
        let (set, runs) = run_fig8(&quick(2_000, 200));
        assert_eq!(set.series().len(), 4);
        assert!(runs.omission.is_none());
        assert!(set.by_name("ChB 99% (back-to-back)").is_some());
    }

    #[test]
    fn percentile_ordering_within_a_run() {
        let (_, runs) = run_fig8(&quick(2_000, 200));
        for c in &runs.perfect.checkpoints {
            assert!(c.b_p90 <= c.b_high + 1e-15);
        }
    }

    #[test]
    fn confidence_error_bound_mostly_holds_in_scenario2() {
        let (_, runs) = run_fig8(&quick(3_000, 200));
        let frac = confidence_error_bound_holds(&runs.perfect, &runs.back_to_back, 1.0);
        // The paper reports the bound holding through the decision range.
        assert!(frac > 0.8, "bound held on only {frac} of checkpoints");
    }

    #[test]
    fn tsv_rendering_is_complete() {
        let (set, _) = run_fig8(&quick(1_000, 200));
        let tsv = set.to_tsv();
        // Header + 5 data rows + title line.
        assert_eq!(tsv.lines().count(), 7);
        assert!(tsv.contains("demands"));
    }

    #[test]
    #[should_panic(expected = "up_to")]
    fn bound_check_rejects_bad_fraction() {
        let (_, runs) = run_fig8(&quick(1_000, 500));
        let _ = confidence_error_bound_holds(&runs.perfect, &runs.back_to_back, 1.5);
    }
}
