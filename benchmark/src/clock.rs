//! How fast the machine is running right now, relative to a reference.
//!
//! On the shared two-core VM these numbers come from, the clock the cores
//! run at drifts by a quarter over tens of seconds to minutes (measured:
//! identical single-threaded work took 0.205–0.40 s, and over 10 s
//! windows its time correlated 0.95 with a pure dependent-ALU loop's).
//! Ten runs of one commit can sit wholly inside a slow phase, so their
//! median moves by more than any bound a benchmark could fix. A fixed
//! loop timed right before and after every measured interval says how
//! slow the machine was during it, and the interval is restated at the
//! reference speed. What a regression gate needs — the same code reads
//! the same number — is kept; the wall-clock values are reported beside
//! the restated ones.

use std::hint::black_box;
use std::time::Instant;

/// Length of the dependent xorshift chain one sample times.
const ITERATIONS: u64 = 7_000_000;
/// Seconds the chain takes on the reference machine: this box in its
/// usual state. Only the scale of the restated numbers hangs on it.
const REFERENCE_SECS: f64 = 0.0132;

fn chain(iterations: u64) -> f64 {
    let start = Instant::now();
    let mut x = black_box(88_172_645_463_325_252u64);
    for _ in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64()
}

/// How many times slower than the reference the machine runs right now
/// (1.0 at the reference speed; the median of three samples, so one
/// preemption does not count).
pub fn slowness() -> f64 {
    let mut samples = [chain(ITERATIONS), chain(ITERATIONS), chain(ITERATIONS)];
    samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are not NaN"));
    samples[1] / REFERENCE_SECS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chain_is_not_optimised_away() {
        // Time must grow with the iteration count, or the loop was folded.
        let short = (0..5).map(|_| chain(1_000_000)).fold(f64::MAX, f64::min);
        let long = (0..5).map(|_| chain(8_000_000)).fold(f64::MAX, f64::min);
        assert!(long > 4.0 * short, "1M took {short}s, 8M took {long}s");
    }

    #[test]
    fn slowness_is_a_positive_finite_factor() {
        let s = slowness();
        assert!(s.is_finite() && s > 0.0);
    }
}
