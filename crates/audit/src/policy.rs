//! Per-crate-tier rule policies: which rules apply to which source file.
//!
//! The workspace is not uniform — a wall-clock read is a bug in a
//! dispatch engine and the whole point of a bench harness — so every
//! rule carries a tier: the set of files it audits. Paths are matched
//! on the workspace-relative, `/`-separated form.
//!
//! | Rule | Tier |
//! |---|---|
//! | `iter-order` | dispatch/metrics crates (`core`, `online`, `metrics`, `tsdb`, `geo`, `lp`) |
//! | `wall-clock` | everywhere except `crates/bench` (the measurement harness) |
//! | `float-accum` | `crates/metrics` and `crates/tsdb` (the i128 fixed-point contract) |
//! | `as-cast` | the wire/rtb/tsdb codecs (`crates/trace/src/wire.rs`, `rtb.rs`, `crates/tsdb/src/codec.rs`) |
//! | `unwrap-panic` | the hostile-input boundary (`crates/online/src/ingest.rs`, `serve.rs`, and the JSON parser `crates/types/src/json.rs`) |
//!
//! Scanned at all: `src/` of the facade and of every `crates/*` member.
//! Vendored shims, integration `tests/`, `examples/`, and benches are
//! out of scope — they are either third-party API subsets or test-tier
//! code whose panics and clocks are legitimate.

/// The crates whose dispatch or serialized output must be
/// iteration-order deterministic (ISSUE 8's dispatch/metrics tier).
const ITER_ORDER_TIER: &[&str] = &[
    "crates/core/src/",
    "crates/online/src/",
    "crates/metrics/src/",
    "crates/tsdb/src/",
    "crates/geo/src/",
    "crates/lp/src/",
];

/// Files holding the `.rtb`/wire binary codecs, where a truncating `as`
/// cast corrupts frames silently.
const AS_CAST_TIER: &[&str] = &[
    "crates/trace/src/wire.rs",
    "crates/trace/src/rtb.rs",
    "crates/tsdb/src/codec.rs",
];

/// The hostile-input boundary: feeds here are untrusted, so a panic is
/// a denial-of-service bug ([`IngestError`](../../rideshare_online/enum.IngestError.html)
/// is the contract).
const UNWRAP_TIER: &[&str] = &[
    "crates/online/src/ingest.rs",
    "crates/online/src/serve.rs",
    "crates/types/src/json.rs",
];

/// True when `rel` (workspace-relative, `/`-separated) is a source file
/// the auditor scans at all.
#[must_use]
pub fn is_scanned(rel: &str) -> bool {
    if !rel.ends_with(".rs") {
        return false;
    }
    // The facade crate (CLI + lib) and every workspace member's `src/`.
    if rel.starts_with("src/") {
        return true;
    }
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some((_, tail)) = rest.split_once('/') {
            return tail.starts_with("src/");
        }
    }
    false
}

/// The rules audited for `rel`, in canonical order. Empty for files the
/// auditor does not scan.
#[must_use]
pub fn rules_for(rel: &str) -> Vec<&'static str> {
    if !is_scanned(rel) {
        return Vec::new();
    }
    let mut rules = Vec::new();
    if ITER_ORDER_TIER.iter().any(|p| rel.starts_with(p)) {
        rules.push(crate::rules::ITER_ORDER);
    }
    if !rel.starts_with("crates/bench/") {
        rules.push(crate::rules::WALL_CLOCK);
    }
    // The fixed-point contract extends to the telemetry store: every
    // value it persists or aggregates must stay on the integer grid, so
    // a float accumulation there is the same bug as in `metrics`.
    if rel.starts_with("crates/metrics/src/") || rel.starts_with("crates/tsdb/src/") {
        rules.push(crate::rules::FLOAT_ACCUM);
    }
    if AS_CAST_TIER.contains(&rel) {
        rules.push(crate::rules::AS_CAST);
    }
    if UNWRAP_TIER.contains(&rel) {
        rules.push(crate::rules::UNWRAP_PANIC);
    }
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules;

    #[test]
    fn scanned_set_covers_sources_not_vendor_or_tests() {
        assert!(is_scanned("src/bin/rideshare/main.rs"));
        assert!(is_scanned("src/bin/rideshare/flags.rs"));
        assert!(is_scanned("src/lib.rs"));
        assert!(is_scanned("crates/core/src/market.rs"));
        assert!(is_scanned("crates/online/src/stream.rs"));
        assert!(!is_scanned("vendor/rand/src/lib.rs"));
        assert!(!is_scanned("tests/cli.rs"));
        assert!(!is_scanned("examples/serve_daemon.rs"));
        assert!(!is_scanned("crates/bench/benches/ablation_index.rs"));
        assert!(!is_scanned("crates/core/tests/x.rs"));
        assert!(!is_scanned("README.md"));
    }

    #[test]
    fn tiers_select_the_documented_rules() {
        assert!(rules_for("crates/core/src/market.rs").contains(&rules::ITER_ORDER));
        assert!(rules_for("crates/types/src/time.rs").contains(&rules::WALL_CLOCK));
        assert!(!rules_for("crates/types/src/time.rs").contains(&rules::ITER_ORDER));
        assert!(!rules_for("crates/bench/src/sweep.rs").contains(&rules::WALL_CLOCK));
        assert!(rules_for("crates/metrics/src/timeseries.rs").contains(&rules::FLOAT_ACCUM));
        assert!(!rules_for("crates/core/src/market.rs").contains(&rules::FLOAT_ACCUM));
        assert!(rules_for("crates/tsdb/src/query.rs").contains(&rules::FLOAT_ACCUM));
        assert!(rules_for("crates/tsdb/src/store.rs").contains(&rules::ITER_ORDER));
        assert!(rules_for("crates/trace/src/rtb.rs").contains(&rules::AS_CAST));
        assert!(rules_for("crates/tsdb/src/codec.rs").contains(&rules::AS_CAST));
        assert!(!rules_for("crates/tsdb/src/store.rs").contains(&rules::AS_CAST));
        assert!(!rules_for("crates/trace/src/generator.rs").contains(&rules::AS_CAST));
        assert!(rules_for("crates/online/src/ingest.rs").contains(&rules::UNWRAP_PANIC));
        assert!(rules_for("crates/types/src/json.rs").contains(&rules::UNWRAP_PANIC));
        assert!(!rules_for("crates/online/src/stream.rs").contains(&rules::UNWRAP_PANIC));
        assert!(!rules_for("crates/types/src/time.rs").contains(&rules::UNWRAP_PANIC));
    }

    #[test]
    fn unscanned_files_get_no_rules() {
        assert!(rules_for("vendor/rand/src/lib.rs").is_empty());
        assert!(rules_for("crates/core/src/market.txt").is_empty());
    }
}
