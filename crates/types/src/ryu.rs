//! The shortest decimal that reads back to a given `f64`: Ryū's `d2d`
//! (Adams, "Ryū: fast float-to-string conversion", PLDI 2018), with one
//! change so it finds the digits `core`'s `Display` prints — an exact
//! half-way tie rounds up, not to even.
//!
//! Ryū multiplies the binary significand by a 125-bit approximation of a
//! power of five and reads the decimal interval of valid outputs off the
//! high bits. Its two power tables are not written out: they are built on
//! first use from exact powers of five held in a small private bignum.

use std::cmp::Ordering;
use std::sync::OnceLock;

/// Width of the significand field of an `f64`.
const MANTISSA_BITS: u32 = 52;
/// Exponent bias of an `f64`.
const BIAS: i32 = 1023;
/// Significant bits each table entry keeps.
const POW5_BITS: u32 = 125;
/// Entries of [`Tables::pow5_inv`]: `q ≤ log10(2^969) = 291` when `e2 ≥ 0`.
const POW5_INV_LEN: usize = 292;
/// Entries of [`Tables::pow5`]: `i ≤ 1076 − 751 = 325` when `e2 < 0`.
const POW5_LEN: usize = 326;

/// The shortest decimal `digits × 10^exp` that reads back to the positive
/// finite `f64` whose bits are `bits` (sign bit clear, not zero). Of two
/// equally short decimals it is the nearer; of two equally near, the
/// larger.
pub(crate) fn shortest(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as u32;
    // Two extra bits so the interval's bounds are integers too.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-half-even reading: an even significand owns its bounds.
    let accept_bounds = m2 & 1 == 0;
    // The interval is [4·m2 − 1 − mm_shift, 4·m2 + 2] × 2^e2; its lower half
    // is narrower at a power of two.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let tables = tables();

    // Whether vm is exact, i.e. the interval's lower bound is itself a
    // short decimal. Ryū also tracks whether vr is exact, but that only
    // tells a tie, and `Display` rounds a tie up like any larger remainder.
    let mut vm_is_trailing_zeros = false;
    let (mut vr, mut vp, mut vm, e10);
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_BITS as i32 + pow5_bits(q as i32) - 1;
        let shift = -e2 + q as i32 + k;
        (vr, vp, vm) = mul_shift_all(m2, tables.pow5_inv[q as usize], shift as u32, mm_shift);
        // At most one of mp, mv and mm is a multiple of 5, and mv's own
        // fives would only tell a tie.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5_bits(i) - POW5_BITS as i32;
        let shift = q as i32 - k;
        (vr, vp, vm) = mul_shift_all(m2, tables.pow5[i as usize], shift as u32, mm_shift);
        // mm = mv − 1 − mm_shift has a trailing zero bit iff mm_shift is
        // 1; mp = mv + 2 always has one.
        if q <= 1 {
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds two candidates, then
    // round vr at the last digit dropped.
    let mut removed = 0;
    let mut last_removed_digit = 0;
    while vp / 10 > vm / 10 {
        vm_is_trailing_zeros &= vm.is_multiple_of(10);
        last_removed_digit = vr % 10;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    if vm_is_trailing_zeros {
        // The bound is in the interval and ends in zeros: drop those too.
        while vm.is_multiple_of(10) {
            last_removed_digit = vr % 10;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    // vr + 1 when vr rounds up, or sits on a bound the interval excludes.
    let on_open_bound = vr == vm && (!accept_bounds || !vm_is_trailing_zeros);
    let output = vr + u64::from(on_open_bound || last_removed_digit >= 5);
    (output, e10 + removed)
}

/// `(vr, vp, vm)`: `4·m`, `4·m + 2` and `4·m − 1 − mm_shift`, each times
/// the table entry `mul` and shifted right by `shift` (at least 64).
fn mul_shift_all(m: u64, mul: u128, shift: u32, mm_shift: u64) -> (u64, u64, u64) {
    let at = |m: u64| {
        let lo = u128::from(m) * (mul & u128::from(u64::MAX));
        let hi = u128::from(m) * (mul >> 64);
        (((lo >> 64) + hi) >> (shift - 64)) as u64
    };
    (at(4 * m), at(4 * m + 2), at(4 * m - 1 - mm_shift))
}

/// `⌈log2 5^e⌉` for `e ≥ 1` (1 at `e = 0`): the bit length of `5^e`,
/// exact for `0 ≤ e ≤ 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10 2^e⌋`, exact for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log10 5^e⌋`, exact for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn multiple_of_power_of_5(mut v: u64, p: u32) -> bool {
    let mut factor = 0;
    while v.is_multiple_of(5) && factor < p {
        v /= 5;
        factor += 1;
    }
    factor >= p
}

/// The two power-of-five tables of [`shortest`], each entry a `u128` of
/// [`POW5_BITS`] significant bits.
struct Tables {
    /// `⌊5^i · 2^(POW5_BITS − len(5^i))⌋`: the top bits of `5^i`.
    pow5: Vec<u128>,
    /// `⌊2^(len(5^i) − 1 + POW5_BITS) / 5^i⌋ + 1`: the top bits of `5^−i`,
    /// rounded up.
    pow5_inv: Vec<u128>,
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| Tables::build(POW5_BITS))
}

impl Tables {
    /// Both tables at `bits` significant bits (at most 127, so an inverse
    /// entry fits a `u128`), from the exact powers of five.
    fn build(bits: u32) -> Self {
        let mut pow5 = Vec::with_capacity(POW5_LEN);
        let mut pow5_inv = Vec::with_capacity(POW5_INV_LEN);
        let mut power = Big::pow2(0);
        for i in 0..POW5_LEN.max(POW5_INV_LEN) {
            let len = power.bit_len();
            if i < POW5_LEN {
                pow5.push(if len >= bits {
                    power.bits_from(len - bits)
                } else {
                    power.bits_from(0) << (bits - len)
                });
            }
            if i < POW5_INV_LEN {
                pow5_inv.push(power.inverse(bits) + 1);
            }
            power.mul_small(5);
        }
        Tables { pow5, pow5_inv }
    }
}

/// Limbs of [`Big`]: `5^325` has 755 bits, and a remainder in
/// [`Big::inverse`] one more.
const LIMBS: usize = 13;

/// A natural number below `2^(64·LIMBS)`, as little-endian 64-bit limbs.
/// Only what building the tables needs: times a small factor, doubling,
/// comparison, subtraction and bit extraction.
#[derive(PartialEq, Eq)]
struct Big([u64; LIMBS]);

impl Big {
    fn pow2(e: u32) -> Self {
        let mut limbs = [0; LIMBS];
        limbs[(e / 64) as usize] = 1 << (e % 64);
        Big(limbs)
    }

    fn mul_small(&mut self, k: u64) {
        let mut carry = 0;
        for limb in &mut self.0 {
            let wide = u128::from(*limb) * u128::from(k) + carry;
            *limb = wide as u64;
            carry = wide >> 64;
        }
    }

    fn double(&mut self) {
        let mut carry = 0;
        for limb in &mut self.0 {
            let next = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = next;
        }
    }

    /// `self − other`, for `other ≤ self`.
    fn sub(&mut self, other: &Big) {
        let mut borrow = false;
        for (a, &b) in self.0.iter_mut().zip(&other.0) {
            let (d, o1) = a.overflowing_sub(b);
            let (d, o2) = d.overflowing_sub(u64::from(borrow));
            *a = d;
            borrow = o1 || o2;
        }
    }

    /// Number of significant bits (0 for zero).
    fn bit_len(&self) -> u32 {
        self.0
            .iter()
            .rposition(|&limb| limb != 0)
            .map_or(0, |top| 64 * top as u32 + 64 - self.0[top].leading_zeros())
    }

    /// `⌊self / 2^lo⌋ mod 2^128`.
    fn bits_from(&self, lo: u32) -> u128 {
        let limb = |k: usize| u128::from(self.0.get(k).copied().unwrap_or(0));
        let (at, offset) = ((lo / 64) as usize, lo % 64);
        let window = limb(at) | limb(at + 1) << 64;
        if offset == 0 {
            window
        } else {
            window >> offset | limb(at + 2) << (128 - offset)
        }
    }

    /// `⌊2^(len − 1 + bits) / self⌋` where `len` is `self`'s bit length
    /// (nonzero), by binary long division: at most `2^bits`.
    fn inverse(&self, bits: u32) -> u128 {
        let mut rest = Big::pow2(self.bit_len() - 1);
        let mut quotient = 0;
        for step in 0..=bits {
            if step > 0 {
                rest.double();
            }
            quotient <<= 1;
            if rest >= *self {
                rest.sub(self);
                quotient |= 1;
            }
        }
        quotient
    }
}

impl PartialOrd for Big {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Big {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.iter().rev().cmp(other.0.iter().rev())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_length_formula_matches_the_bignum() {
        let mut power = Big::pow2(0);
        for i in 0..POW5_LEN.max(POW5_INV_LEN) {
            assert_eq!(pow5_bits(i as i32), power.bit_len() as i32, "5^{i}");
            power.mul_small(5);
        }
    }

    #[test]
    fn small_entries_hold_the_exact_power() {
        let t = tables();
        // 5^53 is the last power with at most 125 bits.
        for i in 0..=53u32 {
            let p = 5u128.pow(i);
            let len = 128 - p.leading_zeros();
            assert_eq!(t.pow5[i as usize], p << (POW5_BITS - len), "5^{i}");
            // The inverse entry is 2^(len − 1 + 125) / 5^i rounded down, plus one.
            let inv = t.pow5_inv[i as usize] - 1;
            let shift = len - 1 + POW5_BITS;
            // inv · 5^i ≤ 2^shift < (inv + 1) · 5^i, checked on 256-bit
            // products split at 2^128.
            let wide = |a: u128| mul_wide(a, p);
            let target = if shift >= 128 {
                (1u128 << (shift - 128), 0)
            } else {
                (0, 1u128 << shift)
            };
            assert!(wide(inv) <= target && target < wide(inv + 1), "1/5^{i}");
        }
    }

    /// `a · b` as `(high, low)` 128-bit halves.
    fn mul_wide(a: u128, b: u128) -> (u128, u128) {
        let mask = u128::from(u64::MAX);
        let (a0, a1, b0, b1) = (a & mask, a >> 64, b & mask, b >> 64);
        let (ll, lh, hl, hh) = (a0 * b0, a0 * b1, a1 * b0, a1 * b1);
        let mid = (ll >> 64) + (lh & mask) + (hl & mask);
        let low = (ll & mask) | (mid << 64);
        let high = hh + (lh >> 64) + (hl >> 64) + (mid >> 64);
        (high, low)
    }

    #[test]
    fn tables_agree_with_a_second_precision() {
        // Rounding down commutes with dropping more low bits, so each
        // entry at 127 bits, shifted down by two, is the entry at 125.
        let t = tables();
        let wide = Tables::build(127);
        for (i, (&fine, &coarse)) in wide.pow5.iter().zip(&t.pow5).enumerate() {
            assert_eq!(fine >> 2, coarse, "5^{i}");
        }
        for (i, (&fine, &coarse)) in wide.pow5_inv.iter().zip(&t.pow5_inv).enumerate() {
            assert_eq!((fine - 1) >> 2, coarse - 1, "5^-{i}");
        }
    }

    #[test]
    fn each_power_times_its_inverse_is_a_power_of_two() {
        // With P = ⌊5^i / 2^a⌋ and I = ⌊2^b / 5^i⌋ + 1, P · I lies within
        // 2^125 of 2^(b − a) = 2^249: a check on every entry both tables
        // hold that does not divide.
        let t = tables();
        for (i, (&p, &inv)) in t.pow5.iter().zip(&t.pow5_inv).enumerate() {
            let (high, low) = mul_wide(p, inv);
            let below = high == (1 << 121) - 1 && low > u128::MAX - (1 << 125);
            let above = high == 1 << 121 && low <= 1 << 125;
            assert!(below || above, "entry {i}: {high:#x} {low:#x}");
        }
    }
}
