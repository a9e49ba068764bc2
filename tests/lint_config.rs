//! The source discipline (docs/INVARIANTS.md) is lint configuration, and
//! this test keeps the configuration from vanishing silently: every tier
//! file still opens with its `#![deny(...)]`, every package still takes
//! the workspace lints, and every per-crate `clippy.toml` still repeats
//! the root file's lists (clippy reads only the nearest file).
//!
//! That the configured lints catch each violating case is shown by
//! `tests/lint_fixtures/check.sh`, which runs clippy.

use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The text of the `#![deny(...)]` attributes a file opens with, before
/// its first item.
fn denied_at_top(rel: &str) -> String {
    let mut denied = String::new();
    let mut in_deny = false;
    for line in read(rel).lines().map(str::trim) {
        if in_deny || line.starts_with("#![deny(") {
            denied.push_str(line);
            in_deny = !line.ends_with(")]");
        } else if !(line.is_empty() || line.starts_with("//") || line.starts_with("#![")) {
            break;
        }
    }
    denied
}

const AS_CAST: &[&str] = &["clippy::as_conversions"];
const PANICS: &[&str] = &[
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
];
const FLOAT: &[&str] = &["clippy::float_arithmetic"];

#[test]
fn every_tier_file_opens_with_its_lints() {
    let tiers: &[(&str, &[&[&str]])] = &[
        ("crates/trace/src/wire.rs", &[AS_CAST, PANICS]),
        ("crates/trace/src/rtb.rs", &[AS_CAST, PANICS]),
        ("crates/tsdb/src/codec.rs", &[AS_CAST, PANICS]),
        ("crates/online/src/ingest.rs", &[PANICS]),
        ("crates/online/src/serve.rs", &[PANICS]),
        ("crates/types/src/json.rs", &[PANICS]),
        ("crates/metrics/src/lib.rs", &[FLOAT]),
        ("crates/tsdb/src/lib.rs", &[FLOAT]),
    ];
    for (rel, groups) in tiers {
        let denied = denied_at_top(rel);
        for lint in groups.iter().flat_map(|g| g.iter()) {
            let listed = denied.split(['(', ',', ')']).any(|l| l.trim() == *lint);
            assert!(listed, "{rel} no longer denies {lint}: {denied}");
        }
    }
}

#[test]
fn every_package_takes_the_workspace_lints() {
    let manifest = read("Cargo.toml");
    let clippy = manifest.split("[workspace.lints.clippy]").nth(1);
    let clippy = clippy
        .and_then(|s| s.split("\n[").next())
        .unwrap_or_default();
    for lint in ["allow_attributes", "allow_attributes_without_reason"] {
        let line = format!("\n{lint} = \"deny\"\n");
        assert!(
            clippy.contains(&line),
            "[workspace.lints.clippy] no longer denies {lint}"
        );
    }
    let members = manifest
        .split("members = [")
        .nth(1)
        .and_then(|m| m.split(']').next());
    let packages = members.expect("[workspace] members").split(',');
    let packages = packages
        .map(|m| m.trim().trim_matches('"'))
        .filter(|m| !m.is_empty());
    for manifest in packages
        .map(|p| format!("{p}/Cargo.toml"))
        .chain(["Cargo.toml".into()])
    {
        let lints = read(&manifest).contains("\n[lints]\nworkspace = true\n");
        assert!(lints, "{manifest} does not take the workspace lints");
    }
}

#[test]
fn every_clippy_toml_repeats_the_root_lists() {
    let root_file = read("clippy.toml");
    for entry in [
        "allow-unwrap-in-tests = true",
        "allow-expect-in-tests = true",
        "allow-panic-in-tests = true",
        "path = \"std::collections::HashMap\"",
        "path = \"std::collections::HashSet\"",
        "path = \"std::time::SystemTime\"",
        "path = \"std::time::Instant::now\"",
        "path = \"std::time::SystemTime::now\"",
        "path = \"std::time::SystemTime::elapsed\"",
        "path = \"std::thread::sleep\"",
    ] {
        assert!(root_file.contains(entry), "clippy.toml lost `{entry}`");
    }
    // Clippy takes the nearest file above a package's manifest, so a file
    // in a package directory, or in `crates/` or `vendor/`, replaces the
    // root one. Only the fixed-point crates have one, and it holds every
    // line of the root file's settings and lists, plus the fold ban.
    for dir in ["crates", "vendor"] {
        let packages = std::fs::read_dir(root().join(dir)).expect(dir);
        let packages = packages.map(|p| p.expect(dir).path());
        for path in packages.chain([root().join(dir)]) {
            let own = ["clippy.toml", ".clippy.toml"]
                .iter()
                .any(|f| path.join(f).is_file());
            let fixed_point = path.ends_with("crates/metrics") || path.ends_with("crates/tsdb");
            assert_eq!(
                own,
                fixed_point,
                "{}: a clippy.toml only in the fixed-point tier",
                path.display()
            );
        }
    }
    for rel in ["crates/metrics/clippy.toml", "crates/tsdb/clippy.toml"] {
        let file = read(rel);
        let lines: Vec<&str> = file.lines().map(str::trim).collect();
        for line in root_file.lines().map(str::trim) {
            let setting = !(line.is_empty() || line.starts_with('#'));
            assert!(
                !setting || lines.contains(&line),
                "{rel} drops `{line}` of the root clippy.toml"
            );
        }
        for fold in ["core::iter::Iterator::sum", "core::iter::Iterator::product"] {
            assert!(
                file.contains(&format!("path = \"{fold}\"")),
                "{rel} lost {fold}"
            );
        }
    }
}
