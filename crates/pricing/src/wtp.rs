//! Willingness-to-pay (customer valuation) model.

use rand::Rng;
use rideshare_types::Money;

/// Draws customer valuations `bₘ` as a multiplicative markup over the
/// posted price `pₘ`.
///
/// The paper's individual-rationality argument (§III-A) observes that a
/// task is only *published* when `bₘ ≥ pₘ` — customers with lower
/// valuations never enter the market — so the observable WTP distribution
/// is the price times a markup `≥ 1`. We model the markup as
/// `1 + LogNormal(μ, σ)`-distributed surplus, a standard surplus shape.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use rideshare_pricing::WtpModel;
/// use rideshare_types::Money;
///
/// let wtp = WtpModel::default();
/// let mut rng = StdRng::seed_from_u64(1);
/// let price = Money::new(10.0);
/// let b = wtp.sample(&mut rng, price);
/// assert!(b >= price); // published tasks always satisfy IR
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct WtpModel {
    mu: f64,
    sigma: f64,
}

impl WtpModel {
    /// Creates a model where the surplus fraction is `LogNormal(mu, sigma)`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma < 0` or either parameter is non-finite.
    #[must_use]
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && sigma.is_finite(), "non-finite parameter");
        assert!(sigma >= 0.0, "sigma must be non-negative");
        Self { mu, sigma }
    }

    /// Draws one valuation for a task priced at `price`.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, price: Money) -> Money {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        let normal = (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos();
        let surplus = (self.mu + self.sigma * normal).exp();
        price * (1.0 + surplus)
    }
}

impl Default for WtpModel {
    /// Median surplus ≈ 22% of the fare with moderate dispersion — consistent
    /// with consumer-surplus estimates for ride-sharing (Cramer & Krueger).
    fn default() -> Self {
        Self::new(-1.5, 0.8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn wtp_always_at_least_price() {
        let wtp = WtpModel::default();
        let mut rng = StdRng::seed_from_u64(3);
        let price = Money::new(12.0);
        for _ in 0..10_000 {
            assert!(wtp.sample(&mut rng, price) >= price);
        }
    }

    #[test]
    fn median_surplus_matches() {
        let wtp = WtpModel::new(-1.0, 0.5);
        let mut rng = StdRng::seed_from_u64(5);
        let price = Money::new(10.0);
        let mut fracs: Vec<f64> = (0..40_000)
            .map(|_| (wtp.sample(&mut rng, price) - price).as_f64() / price.as_f64())
            .collect();
        fracs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = fracs[fracs.len() / 2];
        // The surplus fraction is LogNormal(mu, sigma): median `exp(mu)`.
        let expected = (-1.0f64).exp();
        assert!(
            (median - expected).abs() / expected < 0.05,
            "median {median} vs {expected}"
        );
    }

    #[test]
    fn zero_sigma_deterministic_markup() {
        let wtp = WtpModel::new(-1.0, 0.0);
        let mut rng = StdRng::seed_from_u64(7);
        let price = Money::new(10.0);
        let expected = price * (1.0 + (-1.0f64).exp());
        for _ in 0..5 {
            assert!(wtp.sample(&mut rng, price).approx_eq(expected));
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_sigma() {
        let _ = WtpModel::new(0.0, -0.1);
    }
}
