//! The two integer widenings the codecs need, without `as`.
//!
//! `as` silently truncates when the target is narrower, so the codec files
//! may not use it (`docs/INVARIANTS.md`, "Lossless codecs"). Std has no
//! `From` between `usize` and the fixed-width integers because the
//! language does not fix `usize`'s width; this workspace does, below, and
//! that is what makes these two conversions total.

// Every supported target: `u32 ⊆ usize ⊆ u64`.
const _: () = assert!(usize::BITS >= 32 && usize::BITS <= 64);

/// `usize → u64`, lossless on every supported target.
#[must_use]
pub fn widen_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// `u32 → usize`, lossless on every supported target.
#[must_use]
pub fn widen_usize(n: u32) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widenings_keep_the_value_at_both_ends() {
        assert_eq!(widen_u64(0), 0);
        assert_eq!(usize::try_from(widen_u64(usize::MAX)), Ok(usize::MAX));
        assert_eq!(widen_usize(0), 0);
        assert_eq!(u32::try_from(widen_usize(u32::MAX)), Ok(u32::MAX));
    }
}
