//! Dispatch policies: how step (b) of Algorithms 3–4 picks a candidate.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rideshare_types::{DriverId, Timestamp};

/// The splitmix64 finalizer: a cheap, high-quality bit mixer used to derive
/// decision-local pseudo-random choices from candidate-set data alone.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One feasible candidate driver for an arriving task, as assembled by the
/// simulator in step (a) of Algorithms 3–4.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Candidate {
    /// The driver's announced id: the one order on drivers, which every
    /// candidate list, tie-break and matcher reads.
    pub driver: DriverId,
    /// Where the engine's fleet holds her state.
    pub(crate) slot: u32,
    /// Earliest arrival time at the task's pickup point.
    pub arrival: Timestamp,
    /// The marginal value `δₙ,ₘ` of Eq. 14: the profit added to this
    /// driver's route if she takes the task next.
    pub marginal_value: f64,
}

/// A dispatch rule choosing among the candidate drivers for a task.
///
/// Implementors are deterministic, making whole simulations reproducible.
/// Policies whose choice is a pure function of the candidate set (and a
/// seed) — [`MaxMargin`], [`NearestDriver`] — are additionally *shard-stable*: their decisions do not depend on the order
/// in which unrelated decisions interleave, which is what lets the
/// region-sharded streaming engine reproduce a sequential replay
/// byte-for-byte. [`RandomDispatch`] consumes a shared RNG stream across
/// decisions and is therefore **not** shard-stable.
pub trait DispatchPolicy {
    /// Short label used in experiment output (e.g. `"Nearest"`).
    fn name(&self) -> &'static str;

    /// Picks the index *within `candidates`* of the driver to dispatch, or
    /// `None` to reject the task. `candidates` is non-empty.
    fn choose(&mut self, candidates: &[Candidate]) -> Option<usize>;
}

/// Algorithm 3 — *Nearest Driver*: dispatch the candidate "who will arrive
/// fastest to `s̄ₘ`, if multiple, choose a random one".
///
/// The "random" tie-break is **decision-local**: the pick among tied
/// candidates is a seeded hash of the candidate set itself (arrivals,
/// marginal values, set size) rather than a draw from a shared RNG stream.
/// Identical candidate sets therefore tie-break identically no matter how
/// many unrelated decisions happened before — the property that makes the
/// policy shard-stable (a region-sharded replay interleaves decisions
/// differently than a sequential one, but every individual decision sees
/// the same candidate set, so results stay byte-identical). Candidates are
/// listed by announced driver id, a key that is the same in every shard, so
/// a shard's candidates, in order, are the sequential engine's.
#[derive(Clone, Copy, Debug)]
pub struct NearestDriver {
    seed: u64,
}

impl NearestDriver {
    /// Creates the policy with the default tie-break seed.
    #[must_use]
    pub fn new() -> Self {
        Self::with_seed(0)
    }

    /// Creates the policy with an explicit tie-break seed.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        Self { seed }
    }
}

impl Default for NearestDriver {
    fn default() -> Self {
        Self::new()
    }
}

impl DispatchPolicy for NearestDriver {
    fn name(&self) -> &'static str {
        "Nearest"
    }

    fn choose(&mut self, candidates: &[Candidate]) -> Option<usize> {
        let best = candidates.iter().map(|c| c.arrival).min()?;
        let tied = || {
            let positions = candidates.iter().enumerate();
            positions.filter(move |(_, c)| c.arrival == best)
        };
        // Decision-local pseudo-random pick: fold the candidate set's
        // relabeling-invariant data through splitmix64, counting the ties
        // on the way, then take the tie the hash names.
        let mut h = splitmix64(self.seed ^ 0xA076_1D64_78BD_642F);
        h = splitmix64(h ^ best.as_secs() as u64);
        h = splitmix64(h ^ candidates.len() as u64);
        let mut count = 0u64;
        for (_, c) in tied() {
            h = splitmix64(h ^ c.marginal_value.to_bits());
            count += 1;
        }
        tied().nth((h % count) as usize).map(|(i, _)| i)
    }
}

/// Algorithm 4 — *Maximum Marginal Value*: dispatch
/// `n* = argmax δₙ,ₘ` (Eq. 14), i.e. the driver whose route profit grows
/// the most by appending the task.
#[derive(Clone, Debug, Default)]
pub struct MaxMargin;

impl MaxMargin {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl DispatchPolicy for MaxMargin {
    fn name(&self) -> &'static str {
        "maxMargin"
    }

    fn choose(&mut self, candidates: &[Candidate]) -> Option<usize> {
        candidates
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                a.marginal_value
                    .partial_cmp(&b.marginal_value)
                    .expect("finite marginal value")
                    // Deterministic tie-break: lower driver id wins.
                    .then(b.driver.cmp(&a.driver))
            })
            .map(|(i, _)| i)
    }
}

/// A uniform-random baseline: dispatch any feasible candidate. It
/// isolates how much the *selection criterion* (rather than mere
/// feasibility filtering) contributes.
#[derive(Debug)]
pub struct RandomDispatch {
    rng: StdRng,
}

impl RandomDispatch {
    /// Creates the policy with the given seed.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl DispatchPolicy for RandomDispatch {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn choose(&mut self, candidates: &[Candidate]) -> Option<usize> {
        Some(self.rng.gen_range(0..candidates.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(driver: u32, arrival_secs: i64, margin: f64) -> Candidate {
        Candidate {
            driver: DriverId::new(driver),
            slot: driver,
            arrival: Timestamp::from_secs(arrival_secs),
            marginal_value: margin,
        }
    }

    #[test]
    fn nearest_picks_earliest_arrival() {
        let mut p = NearestDriver::new();
        let c = vec![cand(0, 500, 9.0), cand(1, 300, 1.0), cand(2, 400, 5.0)];
        assert_eq!(p.choose(&c), Some(1));
    }

    #[test]
    fn nearest_breaks_ties_validly_and_decision_locally() {
        let mut p = NearestDriver::with_seed(7);
        let c = vec![cand(0, 300, 0.0), cand(1, 300, 1.0), cand(2, 900, 0.0)];
        let pick = p.choose(&c).unwrap();
        assert!(pick == 0 || pick == 1, "tie-break must pick a minimum");
        // Decision-local: the pick depends only on the candidate set, not on
        // how many decisions this policy instance made before (the property
        // sharded replay relies on).
        for _ in 0..50 {
            let _ = p.choose(&[cand(9, 5, 1.0), cand(3, 5, 2.0)]);
        }
        assert_eq!(p.choose(&c).unwrap(), pick);
        // A fresh instance with the same seed agrees; other seeds may not.
        assert_eq!(NearestDriver::with_seed(7).choose(&c).unwrap(), pick);
        let spread: std::collections::HashSet<usize> = (0..64)
            .map(|s| NearestDriver::with_seed(s).choose(&c).unwrap())
            .collect();
        assert!(spread.len() > 1, "seed never changes the tie-break");
    }

    #[test]
    fn max_margin_picks_largest_delta() {
        let mut p = MaxMargin::new();
        let c = vec![cand(0, 100, 2.0), cand(1, 900, 7.5), cand(2, 200, -1.0)];
        assert_eq!(p.choose(&c), Some(1));
    }

    #[test]
    fn max_margin_tie_break_deterministic() {
        let mut p = MaxMargin::new();
        let c = vec![cand(5, 100, 3.0), cand(2, 200, 3.0)];
        // Equal margins → lower driver id (2) wins.
        assert_eq!(p.choose(&c), Some(1));
    }

    #[test]
    fn random_dispatch_stays_in_range() {
        let mut p = RandomDispatch::with_seed(3);
        let c = vec![cand(0, 1, 0.0), cand(1, 2, 0.0)];
        for _ in 0..100 {
            assert!(p.choose(&c).unwrap() < 2);
        }
    }

    #[test]
    fn policy_names() {
        assert_eq!(NearestDriver::new().name(), "Nearest");
        assert_eq!(MaxMargin::new().name(), "maxMargin");
        assert_eq!(RandomDispatch::with_seed(0).name(), "Random");
    }
}
