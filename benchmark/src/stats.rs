//! Medians, the percentile rule, and a log-linear latency histogram.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The quantiles a timing may be reported at, ascending.
const LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// The percentile rule: the highest ladder quantile not above `wanted`
/// that still has at least ten samples beyond it. A `p99` over 500
/// samples would rest on five of them, so it is reported as `p90`.
pub fn supported_quantile(samples: u64, wanted: f64) -> f64 {
    LADDER
        .iter()
        .copied()
        .filter(|&q| q <= wanted && samples as f64 * (1.0 - q) >= 10.0)
        .fold(LADDER[0], f64::max)
}

/// Sub-buckets per power of two: 32 gives ≤ 3.2% bucket width.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

/// A fixed-size log-linear histogram of `u64` values (nanoseconds here):
/// exact below 32, 32 sub-buckets per octave above. Memory is constant,
/// so per-event latencies never need a per-event array.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; ((64 - SUB_BITS as usize) + 1) * SUB as usize],
            total: 0,
        }
    }

    fn index(value: u64) -> usize {
        if value < SUB {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros();
        let shift = exp - SUB_BITS;
        (((exp - SUB_BITS + 1) as u64 * SUB) + ((value >> shift) & (SUB - 1))) as usize
    }

    /// The half-open value range `[low, high)` bucket `index` covers.
    fn bounds(index: usize) -> (u64, u64) {
        let index = index as u64;
        if index < SUB {
            return (index, index + 1);
        }
        let shift = index / SUB - 1;
        let low = (SUB + index % SUB) << shift;
        (low, low.saturating_add(1 << shift))
    }

    pub fn record(&mut self, value: u64) {
        self.counts[Self::index(value)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The value at quantile `q` in `[0, 1]`, interpolated linearly
    /// inside its bucket; 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && rank < (below + c) as f64 {
                let (low, high) = Self::bounds(i);
                let into = (rank - below as f64) / c as f64;
                return low as f64 + into * (high - low) as f64;
            }
            below += c;
        }
        Self::bounds(self.counts.len() - 1).1 as f64
    }

    /// The value at the highest supported quantile not above `wanted`
    /// (see [`supported_quantile`]).
    pub fn supported(&self, wanted: f64) -> f64 {
        self.quantile(supported_quantile(self.total, wanted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond it, p99.9 leaves 1.
        assert_eq!(supported_quantile(1000, 0.9999), 0.99);
        assert_eq!(supported_quantile(999, 0.9999), 0.9);
        assert_eq!(supported_quantile(10_000, 0.9999), 0.999);
        assert_eq!(supported_quantile(1_000_000, 0.9999), 0.9999);
        // `wanted` caps the answer even when more is supported.
        assert_eq!(supported_quantile(1_000_000, 0.99), 0.99);
        // Too few samples for anything: the median is all there is.
        assert_eq!(supported_quantile(5, 0.99), 0.5);
    }

    #[test]
    fn buckets_tile_the_value_range() {
        let mut expected_low = 0u64;
        for i in 0..400 {
            let (low, high) = Histogram::bounds(i);
            assert_eq!(low, expected_low, "bucket {i} starts where {} ended", i - 1);
            assert_eq!(Histogram::index(low), i);
            assert_eq!(Histogram::index(high - 1), i);
            expected_low = high;
        }
        assert!(Histogram::index(u64::MAX) < Histogram::new().counts.len());
    }

    #[test]
    fn quantiles_are_within_a_bucket_width() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = q * 100_000.0;
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() / exact < 0.04,
                "q={q} got {got} want {exact}"
            );
        }
    }
}
