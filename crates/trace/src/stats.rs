//! Distribution statistics for trace validation (Figs. 3–4).
//!
//! The paper cleans the Porto trace with Pandas and plots the travel-time
//! and travel-distance distributions, observing power-law shapes. This
//! module provides the equivalent native tooling: histograms (linear and
//! logarithmic bins), empirical CCDFs, summary percentiles, and a
//! maximum-likelihood power-law exponent fit.

/// A fixed-bin histogram over `[lo, hi)`.
///
/// # Examples
///
/// ```
/// use rideshare_trace::stats::Histogram;
/// let mut h = Histogram::linear(0.0, 10.0, 5);
/// for x in [1.0, 1.5, 7.0] {
///     h.add(x);
/// }
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.bin_counts()[0], 2);
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins on `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    #[must_use]
    pub fn linear(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(hi > lo, "hi must exceed lo");
        let w = (hi - lo) / bins as f64;
        let edges = (0..=bins).map(|i| lo + w * i as f64).collect();
        Self {
            edges,
            counts: vec![0; bins],
        }
    }

    /// Creates a histogram with `bins` logarithmically spaced bins on
    /// `[lo, hi)` — the natural binning for power-law data.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, `lo <= 0`, or `hi <= lo`.
    #[must_use]
    pub fn logarithmic(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(lo > 0.0, "log bins need positive lo");
        assert!(hi > lo, "hi must exceed lo");
        let (llo, lhi) = (lo.ln(), hi.ln());
        let w = (lhi - llo) / bins as f64;
        let edges = (0..=bins).map(|i| (llo + w * i as f64).exp()).collect();
        Self {
            edges,
            counts: vec![0; bins],
        }
    }

    /// Adds one observation; one outside `[lo, hi)` is not counted.
    pub fn add(&mut self, x: f64) {
        let lo = self.edges[0];
        let hi = *self.edges.last().expect("non-empty edges");
        if x < lo || x >= hi {
            return;
        }
        // Binary search for the bin (edges are sorted).
        let idx = match self
            .edges
            .binary_search_by(|e| e.partial_cmp(&x).expect("finite edge"))
        {
            Ok(i) => i.min(self.counts.len() - 1),
            Err(i) => i - 1,
        };
        self.counts[idx] += 1;
    }

    /// Adds every observation from the slice.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.add(x);
        }
    }

    /// Per-bin counts.
    #[must_use]
    pub fn bin_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Bin edges (`bins + 1` values).
    #[must_use]
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Number of in-range observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(bin centre, density)` pairs, normalised so densities integrate
    /// to the in-range fraction — comparable across bin widths, which is
    /// what a log-binned power-law plot needs.
    #[must_use]
    pub fn density(&self) -> Vec<(f64, f64)> {
        let total = self.count().max(1) as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let (lo, hi) = (self.edges[i], self.edges[i + 1]);
                let center = f64::midpoint(lo, hi);
                let width = hi - lo;
                (center, c as f64 / (total * width))
            })
            .collect()
    }
}

/// Empirical complementary CDF: fraction of observations `> x` at each
/// distinct observation, sorted ascending.
///
/// # Examples
///
/// ```
/// use rideshare_trace::stats::ccdf;
/// let pts = ccdf(&[1.0, 2.0, 2.0, 4.0]);
/// assert_eq!(pts[0], (1.0, 0.75));
/// assert_eq!(pts.last().copied(), Some((4.0, 0.0)));
/// ```
#[must_use]
pub fn ccdf(xs: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite observation"));
    let n = sorted.len();
    let mut out: Vec<(f64, f64)> = Vec::new();
    let mut i = 0;
    while i < n {
        let x = sorted[i];
        let mut j = i;
        while j < n && sorted[j] == x {
            j += 1;
        }
        out.push((x, (n - j) as f64 / n as f64));
        i = j;
    }
    out
}

/// Maximum-likelihood estimate of a continuous power-law exponent `α` for
/// observations with lower cutoff `xmin` (Clauset–Shalizi–Newman):
/// `α̂ = 1 + n / Σ ln(xᵢ / xmin)` over `xᵢ ≥ xmin`.
///
/// Returns `None` if fewer than 10 observations exceed `xmin`.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use rideshare_trace::{stats::fit_power_law, TruncatedPareto};
/// let d = TruncatedPareto::new(1.0, 1e6, 2.5);
/// let mut rng = StdRng::seed_from_u64(2);
/// let xs: Vec<f64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
/// let alpha = fit_power_law(&xs, 1.0).unwrap();
/// assert!((alpha - 2.5).abs() < 0.1);
/// ```
#[must_use]
pub fn fit_power_law(xs: &[f64], xmin: f64) -> Option<f64> {
    assert!(xmin > 0.0, "xmin must be positive");
    let tail: Vec<f64> = xs.iter().copied().filter(|&x| x >= xmin).collect();
    if tail.len() < 10 {
        return None;
    }
    let log_sum: f64 = tail.iter().map(|&x| (x / xmin).ln()).sum();
    if log_sum <= 0.0 {
        return None;
    }
    Some(1.0 + tail.len() as f64 / log_sum)
}

/// Summary percentiles of a sample.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum observation.
    pub max: f64,
}

/// Computes [`Summary`] statistics; returns `None` on an empty sample.
#[must_use]
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite observation"));
    let pct = |q: f64| -> f64 {
        let idx = ((sorted.len() as f64 - 1.0) * q).floor() as usize;
        sorted[idx]
    };
    Some(Summary {
        count: sorted.len(),
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        p50: pct(0.50),
        p90: pct(0.90),
        p99: pct(0.99),
        max: *sorted.last().expect("non-empty"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_histogram_binning() {
        let mut h = Histogram::linear(0.0, 10.0, 10);
        h.extend(&[0.0, 0.5, 1.0, 9.99, -1.0, 10.0, 25.0]);
        assert_eq!(h.bin_counts()[0], 2);
        assert_eq!(h.bin_counts()[1], 1);
        assert_eq!(h.bin_counts()[9], 1);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn log_histogram_covers_decades() {
        let mut h = Histogram::logarithmic(0.1, 100.0, 3);
        // Bins: [0.1,1), [1,10), [10,100).
        h.extend(&[0.5, 5.0, 50.0]);
        assert_eq!(h.bin_counts(), &[1, 1, 1]);
        let e = h.edges();
        assert!((e[1] - 1.0).abs() < 1e-9);
        assert!((e[2] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn density_integrates_to_one() {
        let mut h = Histogram::logarithmic(1.0, 100.0, 20);
        let xs: Vec<f64> = (1..1000).map(|i| 1.0 + (i as f64) * 0.099).collect();
        h.extend(&xs);
        let integral: f64 = h
            .density()
            .iter()
            .zip(h.edges().windows(2))
            .map(|((_, d), e)| d * (e[1] - e[0]))
            .sum();
        assert!((integral - 1.0).abs() < 1e-9, "integral {integral}");
    }

    #[test]
    fn ccdf_monotone_nonincreasing() {
        let pts = ccdf(&[3.0, 1.0, 2.0, 2.0, 5.0]);
        assert_eq!(pts.len(), 4);
        assert!(pts.windows(2).all(|w| w[0].1 >= w[1].1));
        assert!(pts.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(pts.last().expect("non-empty").1, 0.0);
    }

    #[test]
    fn fit_power_law_needs_data() {
        assert!(fit_power_law(&[1.0, 2.0], 1.0).is_none());
        assert!(fit_power_law(&[0.5; 100], 1.0).is_none());
    }

    #[test]
    fn summary_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&xs).unwrap();
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.max, 100.0);
        assert!(summarize(&[]).is_none());
    }
}
