//! Audit report rendering: rustc-style human diagnostics and the
//! canonical `rideshare-audit/1` JSON schema.
//!
//! The JSON form follows the workspace's canonical-JSON conventions
//! (fixed key order, no timestamps, nothing machine-dependent), so a
//! report is byte-stable across runs on the same tree and diffable in
//! CI like the sweep and metrics snapshots.

use rideshare_types::json::escape;

use crate::rules::Finding;

/// The result of auditing a workspace tree.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Every finding, waived and unwaived, sorted by (path, line, col).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files the policy put in scope.
    pub files_scanned: usize,
    /// Number of well-formed waivers parsed across the tree.
    pub waivers: usize,
}

impl AuditReport {
    /// Findings not silenced by a waiver — the set that fails the build.
    pub fn unwaived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.waived)
    }

    /// Findings silenced by a waiver.
    pub fn waived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.waived)
    }

    /// True when the tree is clean: zero unwaived findings (unused and
    /// malformed waivers count as findings, so they fail too).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.unwaived().next().is_none()
    }

    /// Renders rustc-style human diagnostics plus a one-line summary.
    /// Waived findings are listed only with `verbose`.
    #[must_use]
    pub fn render_human(&self, verbose: bool) -> String {
        let mut out = String::new();
        for f in &self.findings {
            if f.waived && !verbose {
                continue;
            }
            let severity = if f.waived { "waived" } else { "error" };
            out.push_str(&format!("{severity}[{}]: {}\n", f.rule, f.message));
            out.push_str(&format!("  --> {}:{}:{}\n", f.path, f.line, f.col));
            let line_no = f.line.to_string();
            let pad = " ".repeat(line_no.len());
            out.push_str(&format!("{pad} |\n"));
            out.push_str(&format!("{line_no} | {}\n", f.excerpt));
            let caret_pad = " ".repeat(f.col.saturating_sub(1) as usize);
            out.push_str(&format!("{pad} | {caret_pad}^\n"));
            if let Some(reason) = &f.reason {
                out.push_str(&format!("{pad} = waived: {reason}\n"));
            } else {
                out.push_str(&format!(
                    "{pad} = help: fix it, or waive with `// audit:allow({}): <reason>`\n",
                    f.rule
                ));
            }
            out.push('\n');
        }
        let unwaived = self.unwaived().count();
        let waived = self.waived().count();
        out.push_str(&format!(
            "audit: {} file(s) scanned, {} finding(s) ({} unwaived, {} waived), {} waiver(s)\n",
            self.files_scanned,
            self.findings.len(),
            unwaived,
            waived,
            self.waivers,
        ));
        out
    }

    /// The canonical `rideshare-audit/1` JSON report: fixed key order,
    /// findings sorted by (path, line, col, rule), byte-stable for a
    /// given tree.
    #[must_use]
    pub fn to_canonical_json(&self) -> String {
        let mut s = String::from("{\"schema\":\"rideshare-audit/1\"");
        s.push_str(&format!(",\"files_scanned\":{}", self.files_scanned));
        s.push_str(&format!(",\"waivers\":{}", self.waivers));
        s.push_str(&format!(",\"unwaived\":{}", self.unwaived().count()));
        s.push_str(&format!(",\"waived\":{}", self.waived().count()));
        s.push_str(",\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"rule\":{},\"path\":{},\"line\":{},\"col\":{},\"waived\":{},\"message\":{},\"excerpt\":{}",
                escape(f.rule),
                escape(&f.path),
                f.line,
                f.col,
                f.waived,
                escape(&f.message),
                escape(f.excerpt.trim()),
            ));
            if let Some(reason) = &f.reason {
                s.push_str(&format!(",\"reason\":{}", escape(reason)));
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(waived: bool) -> Finding {
        Finding {
            rule: crate::rules::WALL_CLOCK,
            path: "crates/x/src/lib.rs".to_string(),
            line: 3,
            col: 9,
            message: "`Instant::now()` reads the wall clock".to_string(),
            excerpt: "let t = Instant::now();".to_string(),
            waived,
            reason: waived.then(|| "timing display only".to_string()),
        }
    }

    #[test]
    fn human_report_is_rustc_shaped() {
        let report = AuditReport {
            findings: vec![finding(false)],
            files_scanned: 1,
            waivers: 0,
        };
        let text = report.render_human(false);
        assert!(text.contains("error[wall-clock]"));
        assert!(text.contains("--> crates/x/src/lib.rs:3:9"));
        assert!(text.contains("3 | let t = Instant::now();"));
        assert!(text.contains("audit:allow(wall-clock)"));
    }

    #[test]
    fn waived_findings_hidden_unless_verbose() {
        let report = AuditReport {
            findings: vec![finding(true)],
            files_scanned: 1,
            waivers: 1,
        };
        assert!(!report.render_human(false).contains("waived[wall-clock]"));
        assert!(report.render_human(true).contains("waived[wall-clock]"));
        assert!(report.is_clean());
    }

    #[test]
    fn json_schema_and_key_order_pinned() {
        let report = AuditReport {
            findings: vec![finding(true)],
            files_scanned: 2,
            waivers: 1,
        };
        let json = report.to_canonical_json();
        assert!(json.starts_with("{\"schema\":\"rideshare-audit/1\",\"files_scanned\":2,\"waivers\":1,\"unwaived\":0,\"waived\":1,\"findings\":["));
        assert!(json.contains("\"rule\":\"wall-clock\""));
        assert!(json.contains("\"reason\":\"timing display only\""));
        assert!(json.ends_with("]}"));
    }
}
