//! Grid-based 1-D posteriors with percentile and confidence queries.
//!
//! Both inference modes ultimately reduce to a discrete distribution over
//! a grid of pfd values. [`GridPosterior`] stores cell masses and answers
//! the two queries the management subsystem needs:
//!
//! * `confidence(target)` — `P(pfd ≤ target)`, paper eq. (6);
//! * `percentile(c)` — the value `T_c` with `P(pfd ≤ T_c) = c`, the
//!   percentiles plotted in Figs. 7–8.

use std::fmt;

/// Sums unnormalised weights, validating each one.
///
/// Shared by [`GridPosterior::from_weights`] and the incremental updaters
/// so both normalise with bit-identical operations.
pub(crate) fn total_weight(weights: &[f64]) -> f64 {
    weights
        .iter()
        .inspect(|w| {
            assert!(w.is_finite() && **w >= 0.0, "invalid weight {w}");
        })
        .sum()
}

/// Normalises `weights` into the preallocated `masses` buffer without
/// allocating; the division order matches [`GridPosterior::from_weights`].
///
/// # Panics
///
/// Panics if any weight is invalid or the total is not positive.
pub(crate) fn normalize_into(weights: &[f64], masses: &mut [f64]) {
    let total = total_weight(weights);
    assert!(total > 0.0, "posterior weights sum to zero");
    for (m, w) in masses.iter_mut().zip(weights) {
        *m = w / total;
    }
}

/// Mean of a cell distribution given its edges and normalised masses.
pub(crate) fn mean_of(edges: &[f64], masses: &[f64]) -> f64 {
    edges
        .windows(2)
        .zip(masses)
        .map(|(w, m)| 0.5 * (w[0] + w[1]) * m)
        .sum()
}

/// `P(X ≤ target)` with linear interpolation in the straddling cell.
pub(crate) fn confidence_of(edges: &[f64], masses: &[f64], target: f64) -> f64 {
    if target < edges[0] {
        return 0.0;
    }
    let last = *edges.last().expect("non-empty edges");
    if target >= last {
        return 1.0;
    }
    let mut acc = 0.0;
    for (i, &m) in masses.iter().enumerate() {
        let lo = edges[i];
        let hi = edges[i + 1];
        if target >= hi {
            acc += m;
        } else {
            acc += m * (target - lo) / (hi - lo);
            break;
        }
    }
    acc.clamp(0.0, 1.0)
}

/// The `c`-percentile, linearly interpolated within the straddling cell.
///
/// # Panics
///
/// Panics if `c` is outside `[0, 1]`.
pub(crate) fn percentile_of(edges: &[f64], masses: &[f64], c: f64) -> f64 {
    assert!((0.0..=1.0).contains(&c), "percentile {c} not in [0, 1]");
    if c == 0.0 {
        return edges[0];
    }
    let mut acc = 0.0;
    for (i, &m) in masses.iter().enumerate() {
        if acc + m >= c {
            let lo = edges[i];
            let hi = edges[i + 1];
            if m == 0.0 {
                return lo;
            }
            return lo + (hi - lo) * ((c - acc) / m).clamp(0.0, 1.0);
        }
        acc += m;
    }
    *edges.last().expect("non-empty edges")
}

/// The queries the management subsystem needs from any posterior shape —
/// owned grids and borrowed views alike — so switch criteria and abort
/// policies work with either.
pub trait PosteriorQueries {
    /// Posterior mean.
    fn mean(&self) -> f64;
    /// `P(X ≤ target)`, paper eq. (6).
    fn confidence(&self, target: f64) -> f64;
    /// The value `T_c` with `P(X ≤ T_c) = c`.
    fn percentile(&self, c: f64) -> f64;
}

/// A borrowed, allocation-free view of a marginal posterior: cell edges
/// plus normalised masses cached inside an incremental updater.
///
/// Answers the same queries as [`GridPosterior`] with bit-identical
/// arithmetic (both delegate to the same kernels).
#[derive(Debug, Clone, Copy)]
pub struct MarginalView<'a> {
    edges: &'a [f64],
    masses: &'a [f64],
}

impl<'a> MarginalView<'a> {
    pub(crate) fn new(edges: &'a [f64], masses: &'a [f64]) -> MarginalView<'a> {
        debug_assert_eq!(edges.len(), masses.len() + 1);
        MarginalView { edges, masses }
    }

    /// Cell boundaries, one longer than the masses.
    pub fn edges(&self) -> &'a [f64] {
        self.edges
    }

    /// Normalised cell masses.
    pub fn masses(&self) -> &'a [f64] {
        self.masses
    }

    /// Posterior mean.
    pub fn mean(&self) -> f64 {
        mean_of(self.edges, self.masses)
    }

    /// `P(X ≤ target)` with linear interpolation inside the straddling
    /// cell.
    pub fn confidence(&self, target: f64) -> f64 {
        confidence_of(self.edges, self.masses, target)
    }

    /// The `c`-percentile, linearly interpolated.
    ///
    /// # Panics
    ///
    /// Panics if `c` is outside `[0, 1]`.
    pub fn percentile(&self, c: f64) -> f64 {
        percentile_of(self.edges, self.masses, c)
    }

    /// Materialises the view into an owned [`GridPosterior`].
    ///
    /// The masses are already normalised, so this is a plain copy.
    pub fn to_posterior(&self) -> GridPosterior {
        GridPosterior::from_weights(self.edges.to_vec(), self.masses.to_vec())
    }
}

impl PosteriorQueries for MarginalView<'_> {
    fn mean(&self) -> f64 {
        MarginalView::mean(self)
    }

    fn confidence(&self, target: f64) -> f64 {
        MarginalView::confidence(self, target)
    }

    fn percentile(&self, c: f64) -> f64 {
        MarginalView::percentile(self, c)
    }
}

/// A discrete distribution over an ordered grid of values.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPosterior {
    /// Cell midpoints, strictly increasing.
    xs: Vec<f64>,
    /// Cell boundaries, length `xs.len() + 1`.
    edges: Vec<f64>,
    /// Normalised cell masses (sum to 1).
    masses: Vec<f64>,
}

impl GridPosterior {
    /// Creates a posterior from cell edges and unnormalised weights.
    ///
    /// `edges` must be strictly increasing with `edges.len() ==
    /// weights.len() + 1`; weights must be non-negative with a positive
    /// sum.
    ///
    /// # Panics
    ///
    /// Panics if the invariants above are violated.
    pub fn from_weights(edges: Vec<f64>, weights: Vec<f64>) -> GridPosterior {
        assert!(
            edges.len() == weights.len() + 1,
            "edges ({}) must be one longer than weights ({})",
            edges.len(),
            weights.len()
        );
        assert!(!weights.is_empty(), "posterior needs at least one cell");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be strictly increasing"
        );
        let total = total_weight(&weights);
        assert!(total > 0.0, "posterior weights sum to zero");
        let masses: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let xs = edges.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect();
        GridPosterior { xs, edges, masses }
    }

    /// Builds a uniform grid of `cells` cells over `[0, range]` from a
    /// weight function evaluated per cell `(lo, hi, mid) -> weight`.
    ///
    /// # Panics
    ///
    /// As for [`GridPosterior::from_weights`].
    pub fn from_fn(
        range: f64,
        cells: usize,
        mut weight: impl FnMut(f64, f64, f64) -> f64,
    ) -> GridPosterior {
        assert!(range > 0.0 && cells > 0, "invalid grid spec");
        let w = range / cells as f64;
        let edges: Vec<f64> = (0..=cells).map(|i| i as f64 * w).collect();
        let weights: Vec<f64> = (0..cells)
            .map(|i| {
                let lo = edges[i];
                let hi = edges[i + 1];
                weight(lo, hi, 0.5 * (lo + hi))
            })
            .collect();
        GridPosterior::from_weights(edges, weights)
    }

    /// Cell midpoints.
    pub fn grid(&self) -> &[f64] {
        &self.xs
    }

    /// Normalised cell masses.
    pub fn masses(&self) -> &[f64] {
        &self.masses
    }

    /// Posterior mean.
    pub fn mean(&self) -> f64 {
        mean_of(&self.edges, &self.masses)
    }

    /// `P(X ≤ target)` with linear interpolation inside the cell that
    /// straddles `target`.
    pub fn confidence(&self, target: f64) -> f64 {
        confidence_of(&self.edges, &self.masses, target)
    }

    /// The `c`-percentile: smallest `x` with `P(X ≤ x) ≥ c`, linearly
    /// interpolated within the straddling cell.
    ///
    /// # Panics
    ///
    /// Panics if `c` is outside `[0, 1]`.
    pub fn percentile(&self, c: f64) -> f64 {
        percentile_of(&self.edges, &self.masses, c)
    }
}

impl PosteriorQueries for GridPosterior {
    fn mean(&self) -> f64 {
        GridPosterior::mean(self)
    }

    fn confidence(&self, target: f64) -> f64 {
        GridPosterior::confidence(self, target)
    }

    fn percentile(&self, c: f64) -> f64 {
        GridPosterior::percentile(self, c)
    }
}

impl fmt::Display for GridPosterior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "grid posterior: {} cells on [{:.3e}, {:.3e}], mean {:.3e}",
            self.masses.len(),
            self.edges[0],
            self.edges.last().unwrap(),
            self.mean()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(cells: usize) -> GridPosterior {
        GridPosterior::from_fn(1.0, cells, |_, _, _| 1.0)
    }

    #[test]
    fn uniform_grid_mean_and_percentiles() {
        let p = uniform(100);
        assert!((p.mean() - 0.5).abs() < 1e-12);
        assert!((p.percentile(0.5) - 0.5).abs() < 1e-12);
        assert!((p.percentile(0.99) - 0.99).abs() < 1e-12);
        assert!((p.confidence(0.25) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn confidence_and_percentile_are_inverse() {
        let p = GridPosterior::from_fn(0.002, 64, |_, _, mid| (mid * 2000.0).powi(2));
        for &c in &[0.1, 0.5, 0.9, 0.99] {
            let x = p.percentile(c);
            assert!((p.confidence(x) - c).abs() < 1e-9, "c={c}");
        }
    }

    #[test]
    fn confidence_boundaries() {
        let p = uniform(10);
        assert_eq!(p.confidence(-0.1), 0.0);
        assert_eq!(p.confidence(1.0), 1.0);
        assert_eq!(p.confidence(99.0), 1.0);
        assert_eq!(p.percentile(0.0), 0.0);
        assert_eq!(p.percentile(1.0), 1.0);
    }

    #[test]
    fn point_mass_percentiles() {
        // All mass in one interior cell.
        let mut weights = vec![0.0; 10];
        weights[4] = 3.0;
        let edges: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
        let p = GridPosterior::from_weights(edges, weights);
        assert!(p.percentile(0.5) > 0.4 && p.percentile(0.5) < 0.5);
        assert_eq!(p.confidence(0.4), 0.0);
        assert_eq!(p.confidence(0.5), 1.0);
    }

    #[test]
    fn mean_of_linear_density() {
        // f(x) = 2x on [0,1] has mean 2/3.
        let p = GridPosterior::from_fn(1.0, 2000, |_, _, mid| mid);
        assert!((p.mean() - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "sum to zero")]
    fn zero_weights_rejected() {
        let _ = GridPosterior::from_fn(1.0, 4, |_, _, _| 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bad_edges_rejected() {
        let _ = GridPosterior::from_weights(vec![0.0, 0.0, 1.0], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "one longer")]
    fn mismatched_lengths_rejected() {
        let _ = GridPosterior::from_weights(vec![0.0, 1.0], vec![1.0, 1.0]);
    }

    #[test]
    fn display_is_informative() {
        let p = uniform(4);
        let text = p.to_string();
        assert!(text.contains("4 cells"));
    }
}
