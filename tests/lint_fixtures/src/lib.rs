//! Every violating case of the source discipline (docs/INVARIANTS.md),
//! as code that the workspace's lint configuration must reject.
//!
//! Each module mirrors one rule: its lint attributes are the ones the
//! rule's tier carries in the workspace, and clippy reads the workspace's
//! own `clippy.toml` (the nearest one above this crate). A `//~` comment
//! names the lints its line must trigger; `//~[fixed-point]` ones fire
//! only under the fixed-point tier's `clippy.toml` (`crates/metrics`,
//! `crates/tsdb`).
//! `check.sh` fails when a marked lint stays silent or an unmarked one
//! fires, so the negative cases (test code, typed errors, reasoned
//! expectations) are pinned too.

/// Hash-order iteration: the collections cannot be named at all, which
/// is stricter than banning their iteration.
pub mod iter_order {
    use std::collections::BTreeMap;
    use std::collections::HashMap; //~ clippy::disallowed_types

    /// `iter()`, `for … in &m` and `keys()` over a hash map.
    pub fn iter_order_positive(pairs: &[(u32, u32)]) -> u32 {
        let m: HashMap<u32, u32> = pairs.iter().copied().collect(); //~ clippy::disallowed_types
        let mut acc = 0;
        for (k, v) in m.iter() {
            acc += k + v;
        }
        for k in &m {
            acc += k.0;
        }
        acc + m.keys().count() as u32
    }

    /// Keyed access is order-free, but the type is banned all the same.
    pub fn keyed_lookup(b: &BTreeMap<u32, u32>) -> u32 {
        let mut m: HashMap<u32, u32> = HashMap::new(); //~ clippy::disallowed_types
        *m.entry(3).or_insert(0) += 1;
        let hit = m.get(&3).copied().unwrap_or(0);
        hit + b.keys().fold(0, |acc, k| acc.max(*k))
    }

    /// The set, too.
    pub fn hash_set(bytes: &[u8]) -> usize {
        let s: std::collections::HashSet<u8> = bytes.iter().copied().collect(); //~ clippy::disallowed_types
        s.len()
    }
}

/// Wall-clock reads and sleeps.
pub mod wall_clock {
    use std::time::{Duration, Instant};

    /// `Instant::now`, `SystemTime::now` and `thread::sleep`.
    pub fn wall_clock_positive() -> u128 {
        let t0 = Instant::now(); //~ clippy::disallowed_methods
        let _ = std::time::SystemTime::now(); //~ clippy::disallowed_methods clippy::disallowed_types
        std::thread::sleep(Duration::from_millis(1)); //~ clippy::disallowed_methods
        t0.elapsed().as_nanos()
    }

    /// The clock as a function value.
    pub fn clock_as_a_value() -> fn() -> Instant {
        Instant::now //~ clippy::disallowed_methods
    }

    /// Any mention of `SystemTime`, and its clock read through the epoch.
    pub fn system_time_anywhere() -> bool {
        let t: std::time::SystemTime = std::time::UNIX_EPOCH; //~ clippy::disallowed_types
        t.elapsed().is_ok() //~ clippy::disallowed_methods
    }

    /// Event time is the sanctioned clock.
    pub fn wall_clock_negative(event_time_secs: u64, horizon: u64) -> bool {
        event_time_secs + 30 < horizon
    }

    /// A reasoned expectation silences one site.
    pub fn wall_clock_waived() {
        #[expect(
            clippy::disallowed_methods,
            reason = "paces a live tail, never feeds dispatch"
        )]
        std::thread::sleep(Duration::from_millis(1));
    }

    /// Test code has no exemption from the clock ban.
    #[cfg(test)]
    mod tests {
        #[test]
        fn a_test_reads_the_clock() {
            assert!(std::time::Instant::now().elapsed().as_secs() < 60); //~ clippy::disallowed_methods
        }
    }
}

/// Float accumulation in the fixed-point tier.
pub mod float_accum {
    #![deny(clippy::float_arithmetic)]

    /// A compound assignment, a turbofish sum and an annotated sum.
    pub fn float_accum_positive(xs: &[f64]) -> f64 {
        let mut total: f64 = 0.0;
        for x in xs {
            total += x; //~ clippy::float_arithmetic
        }
        let direct = xs.iter().copied().sum::<f64>(); //~[fixed-point] clippy::disallowed_methods
        let annotated: f64 = xs.iter().copied().sum(); //~[fixed-point] clippy::disallowed_methods
        total + direct + annotated //~ clippy::float_arithmetic
    }

    /// Integer folds are exact, but the tier bans `sum` whatever it folds.
    pub fn integer_sum(xs: &[u32]) -> u64 {
        let mut total: i128 = 0;
        for &x in xs {
            total += i128::from(x);
        }
        let n: u64 = xs.iter().map(|&x| u64::from(x)).sum(); //~[fixed-point] clippy::disallowed_methods
        total as u64 + n
    }

    /// A reasoned expectation covers a conversion helper.
    #[expect(clippy::float_arithmetic, reason = "one division, never a fold")]
    pub fn ratio(num: f64, den: f64) -> f64 {
        num / den
    }

    /// Test code may compare floats with a tolerance.
    #[cfg(test)]
    mod tests {
        #[test]
        fn a_test_subtracts_floats() {
            assert!((super::ratio(1.0, 2.0) - 0.5).abs() < 1e-12);
        }
    }
}

/// `as` casts in a binary codec; test modules included.
pub mod as_cast {
    #![deny(clippy::as_conversions)]

    /// Narrowing and widening casts alike.
    pub fn as_cast_positive(n: usize, x: u64) -> (u32, usize) {
        let narrow = n as u32; //~ clippy::as_conversions
        let wide = x as usize; //~ clippy::as_conversions
        (narrow, wide)
    }

    /// `From` and `try_from` are the sanctioned conversions.
    pub fn as_cast_negative(n: u8, x: u64) -> (u64, u32) {
        (u64::from(n), u32::try_from(x).unwrap_or(0))
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn a_test_casts() {
            assert_eq!(super::as_cast_negative(1, 2).0, 1u8 as u64); //~ clippy::as_conversions
        }
    }
}

/// Panics on the hostile-input boundary.
pub mod unwrap_panic {
    #![deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]

    /// `unwrap`, `expect` and `panic!`.
    pub fn unwrap_panic_positive(s: &str) -> u32 {
        let n: u32 = s.parse().unwrap(); //~ clippy::unwrap_used
        let m: u32 = s.parse().expect("digits"); //~ clippy::expect_used
        if n > m {
            panic!("inverted"); //~ clippy::panic
        }
        n + m
    }

    /// `unreachable!`, `todo!` and `unimplemented!`.
    pub fn other_panics(k: u8) -> u32 {
        match k {
            0 => unreachable!("zero"), //~ clippy::unreachable
            1 => todo!(),              //~ clippy::todo
            2 => unimplemented!(),     //~ clippy::unimplemented
            _ => 3,
        }
    }

    /// `unwrap_or` and `?` are the sanctioned shapes.
    pub fn typed_errors(s: &str) -> Result<u32, std::num::ParseIntError> {
        let n: u32 = s.parse().unwrap_or(0);
        let m: u32 = s.parse()?;
        Ok(n + m)
    }

    /// Test code may unwrap, expect and panic.
    #[cfg(test)]
    mod tests {
        #[test]
        fn a_test_panics() {
            let n: u32 = "3".parse().unwrap();
            let m: u32 = "4".parse().expect("digits");
            if n > m {
                panic!("inverted");
            }
        }
    }
}

/// Waivers: only a reasoned `#[expect]` that something fulfils.
pub mod waivers {
    /// An `#[allow]` fails, with or without a reason.
    #[allow(dead_code)] //~ clippy::allow_attributes clippy::allow_attributes_without_reason
    fn allowed() {}

    /// An `#[expect]` without a reason fails.
    #[expect(dead_code)] //~ clippy::allow_attributes_without_reason
    fn expected_without_reason() {}

    /// An expectation that nothing fulfils fails.
    #[expect(clippy::disallowed_methods, reason = "stale after a refactor")] //~ unfulfilled_lint_expectations
    pub fn stale() -> u32 {
        7
    }
}
