//! **rideshare-audit** — the workspace determinism & invariant auditor.
//!
//! Every engine in this workspace is cross-pinned byte-identical to its
//! siblings (replay ≡ serve ≡ sharded replay, exact metrics included).
//! That correctness story rests on source-level *determinism
//! invariants*: no hash-order iteration feeding decisions, no wall-clock
//! reads in dispatch, exact fixed-point metric accumulation, lossless
//! codec casts, typed errors on hostile-input paths. The equivalence
//! batteries catch a violation after the fact; this crate rejects it at
//! the source level, making the batteries the *second* line of defense.
//!
//! The pass is fully self-contained (no third-party dependencies, per the
//! vendored-shim policy; its one workspace edge is the dependency-free
//! `rideshare-types`, for the shared JSON escaper): a hand-rolled
//! comment/string/raw-string-aware [`lexer`], a token-pattern rule engine
//! ([`rules`]) with per-crate-tier [`policy`] selection, and canonical
//! [`report`] rendering (rustc-style human diagnostics + byte-stable
//! `rideshare-audit/1` JSON).
//!
//! Findings are silenced only by an inline waiver with a mandatory
//! reason — `// audit:allow(<rule>): <reason>` — and unused or
//! malformed waivers are findings themselves, so the ledger cannot
//! drift. `rideshare audit --check` exits non-zero unless the tree is
//! clean; the `workspace_clean` integration test enforces the same
//! baseline inside `cargo test`.
//!
//! # Examples
//!
//! ```
//! use rideshare_audit::rules::analyze_source;
//!
//! // A wall-clock read on a dispatch path is a finding…
//! let bad = "pub fn f() { let t = std::time::Instant::now(); }";
//! let analysis = analyze_source("crates/online/src/stream.rs", bad);
//! assert_eq!(analysis.findings.len(), 1);
//! assert!(!analysis.findings[0].waived);
//!
//! // …unless an explicit waiver with a reason covers the line.
//! let waived = "pub fn f() {\n    // audit:allow(wall-clock): operator display only\n    let t = std::time::Instant::now(); }";
//! let analysis = analyze_source("crates/online/src/stream.rs", waived);
//! assert!(analysis.findings.iter().all(|f| f.waived));
//! ```

pub mod lexer;
pub mod policy;
pub mod report;
pub mod rules;

use std::path::Path;

pub use report::AuditReport;
pub use rules::{Finding, Waiver};

/// A failure to read the tree being audited.
#[derive(Debug)]
pub enum AuditError {
    /// An I/O failure with the path it happened on.
    Io(String),
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Io(msg) => write!(f, "audit I/O failure: {msg}"),
        }
    }
}

impl std::error::Error for AuditError {}

/// Audits the workspace rooted at `root` (the directory holding the
/// workspace `Cargo.toml`) and returns the full report.
///
/// Files are visited in sorted path order, so the report is
/// deterministic for a given tree.
///
/// # Errors
///
/// Returns [`AuditError::Io`] if the tree cannot be walked or a scanned
/// file cannot be read.
pub fn run_audit(root: &Path) -> Result<AuditReport, AuditError> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();

    let mut report = AuditReport::default();
    for rel in files {
        if !policy::is_scanned(&rel) {
            continue;
        }
        let full = root.join(&rel);
        let src = std::fs::read_to_string(&full)
            .map_err(|e| AuditError::Io(format!("{}: {e}", full.display())))?;
        report.files_scanned += 1;
        let analysis = rules::analyze_source(&rel, &src);
        report.waivers += analysis.waivers.len();
        report.findings.extend(analysis.findings);
    }
    Ok(report)
}

/// Directories never descended into, wherever they appear.
const SKIP_DIRS: &[&str] = &["target", ".git", "vendor", ".github"];

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), AuditError> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| AuditError::Io(format!("{}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| AuditError::Io(format!("{}: {e}", dir.display())))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                // `/`-separated form regardless of host platform.
                let rel: Vec<String> = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect();
                out.push(rel.join("/"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walker_is_deterministic_and_policy_filtered() {
        // Audit this crate's own source tree rooted two levels up (the
        // workspace); the walk must succeed and visit a stable file set.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let a = run_audit(root).expect("audit walks the workspace");
        let b = run_audit(root).expect("audit walks the workspace");
        assert_eq!(a.files_scanned, b.files_scanned);
        assert_eq!(a.to_canonical_json(), b.to_canonical_json());
        assert!(a.files_scanned > 20, "the workspace has dozens of sources");
    }
}
