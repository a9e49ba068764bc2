//! The crate's float arithmetic, in one place.
//!
//! Metrics accumulate on an i128 fixed-point grid (`FixedSum`), so a merge
//! of shards is exact in any order. `clippy::float_arithmetic` is denied in
//! the rest of the crate so that no float fold creeps back in; what floats
//! remain are the conversions onto and off the grid, the ratios the
//! figures print, and the table renderer's two display tolerances. Each
//! function is the expression its callers used to write inline, operation
//! for operation, so every result is bit for bit what it was.
#![expect(
    clippy::float_arithmetic,
    reason = "grid conversions, printed ratios and display tolerances: one operation each, never a fold"
)]

/// 2⁴⁰: ~9.1 × 10⁻¹³ resolution per addend.
const FIXED_SCALE: f64 = (1u64 << 40) as f64;

/// Projects a raw fixed-point integer (2⁻⁴⁰ grid) to `f64` units — the
/// same conversion [`StreamMetrics::revenue`](crate::StreamMetrics::revenue)
/// applies to its accumulator. Lossy for magnitudes beyond 2⁵³ grid steps,
/// which is why equality checks compare the raw integers instead.
#[must_use]
#[inline]
pub fn fixed_to_f64(raw: i128) -> f64 {
    raw as f64 / FIXED_SCALE
}

/// Rounds `x` to the nearest point of the 2⁻⁴⁰ grid, as a raw integer.
#[inline]
pub(crate) fn to_fixed(x: f64) -> i128 {
    (x * FIXED_SCALE).round() as i128
}

/// `num / den`: a rate or a mean, divided once from exact totals.
#[inline]
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    num / den
}

/// `a ≤ b + tol`.
#[inline]
pub(crate) fn at_most(a: f64, b: f64, tol: f64) -> bool {
    a <= b + tol
}

/// `|v − round(v)| < tol`: `v` prints as a whole number.
#[inline]
pub(crate) fn near_whole(v: f64, tol: f64) -> bool {
    (v - v.round()).abs() < tol
}
