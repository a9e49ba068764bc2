//! Random samplers used by the trace generator.
//!
//! Hand-rolled (inverse-CDF and Box–Muller) rather than pulled from
//! `rand_distr` to keep the dependency surface to `rand` itself.

use rand::Rng;

/// A power-law (Pareto) distribution truncated to `[xmin, xmax]`.
///
/// Density `p(x) ∝ x^(−alpha)` on the support. The paper's Figs. 3–4 report
/// that Porto trip travel times and distances "exhibit the shape following
/// the power law distribution"; this sampler reproduces those marginals.
///
/// Sampling uses the inverse CDF of the truncated distribution:
/// for `alpha ≠ 1`, `X = (xmin^(1−α) + U·(xmax^(1−α) − xmin^(1−α)))^(1/(1−α))`.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use rideshare_trace::TruncatedPareto;
///
/// let dist = TruncatedPareto::new(0.5, 30.0, 2.2);
/// let mut rng = StdRng::seed_from_u64(1);
/// let x = dist.sample(&mut rng);
/// assert!((0.5..=30.0).contains(&x));
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TruncatedPareto {
    xmin: f64,
    xmax: f64,
    alpha: f64,
    /// `xmin^(1−α)`, `xmax^(1−α)` and `1/(1−α)`: the inverse CDF's
    /// constants, fixed by the three parameters above.
    lo: f64,
    hi: f64,
    inv_exponent: f64,
}

impl TruncatedPareto {
    /// Creates the distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < xmin < xmax` and `alpha > 1` (heavier tails than
    /// `alpha = 1` have no normalisable density on an unbounded support and
    /// are not what trip-length data shows).
    #[must_use]
    pub fn new(xmin: f64, xmax: f64, alpha: f64) -> Self {
        assert!(xmin > 0.0, "xmin must be positive, got {xmin}");
        assert!(xmax > xmin, "xmax must exceed xmin");
        assert!(alpha > 1.0, "alpha must exceed 1, got {alpha}");
        let one_minus_a = 1.0 - alpha;
        Self {
            xmin,
            xmax,
            alpha,
            lo: xmin.powf(one_minus_a),
            hi: xmax.powf(one_minus_a),
            inv_exponent: 1.0 / one_minus_a,
        }
    }

    /// Lower bound of the support.
    #[must_use]
    pub const fn xmin(&self) -> f64 {
        self.xmin
    }

    /// Upper bound of the support.
    #[must_use]
    pub const fn xmax(&self) -> f64 {
        self.xmax
    }

    /// Tail exponent.
    #[must_use]
    pub const fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        let (lo, hi) = (self.lo, self.hi);
        (lo + u * (hi - lo)).powf(self.inv_exponent)
    }

    /// Analytic mean of the truncated distribution.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let a = self.alpha;
        // E[X] = ∫ x·x^(−a) / Z dx over [xmin, xmax], Z = ∫ x^(−a) dx.
        let z = (self.xmax.powf(1.0 - a) - self.xmin.powf(1.0 - a)) / (1.0 - a);
        let num = (self.xmax.powf(2.0 - a) - self.xmin.powf(2.0 - a)) / (2.0 - a);
        num / z
    }
}

/// A log-normal distribution parameterised by the mean and standard
/// deviation of the *underlying normal*.
///
/// Used for multiplicative noise (e.g. realised trip duration around the
/// distance-implied duration) and for willingness-to-pay markups.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use rideshare_trace::LogNormal;
///
/// let noise = LogNormal::new(0.0, 0.25);
/// let mut rng = StdRng::seed_from_u64(3);
/// let x = noise.sample(&mut rng);
/// assert!(x > 0.0);
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates the distribution from the underlying normal's `mu`, `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    #[must_use]
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && sigma.is_finite(), "non-finite parameter");
        assert!(sigma >= 0.0, "sigma must be non-negative, got {sigma}");
        Self { mu, sigma }
    }

    /// Draws one sample via Box–Muller.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }

    /// The distribution's median, `exp(mu)`.
    #[must_use]
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }
}

/// One standard-normal draw (Box–Muller, using both uniforms for one draw to
/// stay allocation- and state-free).
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Guard against ln(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
}

/// Samples an index from a slice of non-negative weights.
///
/// # Panics
///
/// Panics if `weights` is empty or sums to a non-positive value.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use rideshare_trace::sample_categorical;
///
/// let mut rng = StdRng::seed_from_u64(5);
/// let idx = sample_categorical(&mut rng, &[0.5, 0.3, 0.2]);
/// assert!(idx < 3);
/// ```
pub fn sample_categorical<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "empty weight vector");
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must sum to a positive value");
    let mut target = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        target -= w;
        if target <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pareto_stays_in_support() {
        let d = TruncatedPareto::new(0.5, 25.0, 2.2);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((0.5..=25.0).contains(&x), "sample {x} out of support");
        }
    }

    #[test]
    fn pareto_empirical_mean_matches_analytic() {
        let d = TruncatedPareto::new(1.0, 50.0, 2.5);
        let mut rng = StdRng::seed_from_u64(13);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let emp = sum / f64::from(n);
        let ana = d.mean();
        assert!(
            (emp - ana).abs() / ana < 0.02,
            "empirical {emp} vs analytic {ana}"
        );
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        // Median far below mean is the power-law signature.
        let d = TruncatedPareto::new(0.5, 30.0, 2.2);
        let mut rng = StdRng::seed_from_u64(17);
        let mut xs: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(mean > 1.4 * median, "mean {mean} vs median {median}");
    }

    #[test]
    #[should_panic(expected = "alpha must exceed 1")]
    fn pareto_rejects_shallow_tail() {
        let _ = TruncatedPareto::new(1.0, 2.0, 0.9);
    }

    #[test]
    #[should_panic(expected = "xmax must exceed xmin")]
    fn pareto_rejects_empty_support() {
        let _ = TruncatedPareto::new(2.0, 2.0, 2.0);
    }

    #[test]
    fn lognormal_median_and_positivity() {
        let d = LogNormal::new(1.0, 0.5);
        let mut rng = StdRng::seed_from_u64(19);
        let mut xs: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        assert!(xs.iter().all(|&x| x > 0.0));
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!(
            (median - d.median()).abs() / d.median() < 0.03,
            "median {median} vs {}",
            d.median()
        );
    }

    #[test]
    fn lognormal_zero_sigma_is_constant() {
        let d = LogNormal::new(0.7, 0.0);
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..10 {
            assert!((d.sample(&mut rng) - 0.7f64.exp()).abs() < 1e-12);
        }
    }

    #[test]
    fn categorical_respects_weights() {
        let mut rng = StdRng::seed_from_u64(29);
        let w = [0.7, 0.2, 0.1];
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[sample_categorical(&mut rng, &w)] += 1;
        }
        let f0 = counts[0] as f64 / 30_000.0;
        let f1 = counts[1] as f64 / 30_000.0;
        assert!((f0 - 0.7).abs() < 0.02, "{f0}");
        assert!((f1 - 0.2).abs() < 0.02, "{f1}");
    }

    #[test]
    fn categorical_zero_weight_never_chosen() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..1000 {
            assert_ne!(sample_categorical(&mut rng, &[1.0, 0.0, 1.0]), 1);
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(37);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}
