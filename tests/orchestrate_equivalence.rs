//! Multi-process sweep ≡ single-process sweep, byte for byte.
//!
//! `rideshare orchestrate` fans the scenario × policy matrix out to N
//! `rideshare worker` *child processes* through a filesystem spool; the
//! paper's §IV decomposition argument says where a cell runs cannot
//! change what it computes. This suite pins exactly that, with real
//! subprocess workers (`CARGO_BIN_EXE_rideshare`), **exact string
//! equality on the canonical JSON, no tolerances**:
//!
//! - the merged report is byte-identical to an in-process [`run_sweep`]
//!   at worker counts {1, 2, 4},
//! - a worker killed mid-run (deterministic `--crash-once` injection)
//!   costs a requeue and a respawn but not a byte of output,
//! - a unit that fails every attempt (`--crash-on-unit`) poisons with a
//!   typed [`OrchestrateError::Poisoned`] naming it,
//! - `--resume` adopts finished results without recomputing them, and a
//!   spool is never silently reused without it.

use rideshare::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_rideshare");

fn tmp_spool(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "rideshare-orch-equiv-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The matrix under test: the four tiny catalog scenarios × two
/// policies, with the `Z_f*` bound on so the ratio column's fixed-digit
/// float round trip crosses the process boundary too.
fn matrix() -> (Vec<Scenario>, Vec<PolicySpec>) {
    (
        Scenario::tiny_catalog(),
        vec![PolicySpec::Greedy, PolicySpec::Nearest],
    )
}

fn subprocess_opts(workers: usize) -> OrchestrateOptions {
    OrchestrateOptions {
        workers,
        worker_cmd: vec![BIN.to_string(), "worker".to_string()],
        threads_per_worker: 1,
        compute_bound: true,
        poll_interval: Duration::from_millis(5),
        ..OrchestrateOptions::default()
    }
}

/// The single-process reference. The canonical form drops timing, so it
/// is byte-stable regardless of thread count or machine.
fn reference_json() -> String {
    let (scenarios, policies) = matrix();
    run_sweep(
        &scenarios,
        &policies,
        SweepOptions {
            threads: 2,
            compute_bound: true,
        },
    )
    .to_json(false)
}

#[test]
fn merged_report_is_byte_identical_across_worker_counts() {
    let (scenarios, policies) = matrix();
    let reference = reference_json();
    for workers in [1usize, 2, 4] {
        let dir = tmp_spool(&format!("w{workers}"));
        let outcome = orchestrate(&dir, &scenarios, &policies, &subprocess_opts(workers))
            .expect("orchestrate");
        assert_eq!(outcome.units, scenarios.len(), "workers={workers}");
        assert_eq!(outcome.resumed, 0, "workers={workers}");
        assert_eq!(
            outcome.report.to_json(false),
            reference,
            "workers={workers}: multi-process merge drifted from run_sweep"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn killed_worker_is_retried_without_changing_a_byte() {
    let (scenarios, policies) = matrix();
    let reference = reference_json();
    let dir = tmp_spool("crash");
    std::fs::create_dir_all(&dir).expect("create spool root");
    // Exactly one worker (the first to claim after the marker appears)
    // exits 86 mid-unit, abandoning its claim; the parent must reap it,
    // requeue the unit, and respawn a replacement.
    let marker = dir.join("crash.marker");
    let mut opts = subprocess_opts(2);
    opts.worker_extra_args = vec!["--crash-once".to_string(), marker.display().to_string()];
    let outcome = orchestrate(&dir, &scenarios, &policies, &opts).expect("orchestrate survives");
    assert!(marker.exists(), "fault injection never fired");
    assert!(outcome.requeues >= 1, "crashed claim was never requeued");
    assert!(outcome.respawns >= 1, "dead worker was never replaced");
    assert_eq!(
        outcome.report.to_json(false),
        reference,
        "a worker crash changed the merged output"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unit_failing_every_attempt_is_poisoned_with_a_typed_error() {
    let (scenarios, policies) = matrix();
    let dir = tmp_spool("poison");
    // Every worker crashes the moment it claims tiny-rides, so the unit
    // burns its whole retry budget and lands in poison/; the other
    // units still complete.
    let mut opts = subprocess_opts(1);
    opts.max_attempts = 2;
    opts.worker_extra_args = vec!["--crash-on-unit".to_string(), "tiny-rides".to_string()];
    let err = orchestrate(&dir, &scenarios, &policies, &opts).expect_err("must poison");
    match err {
        OrchestrateError::Poisoned { units } => {
            assert_eq!(units.len(), 1, "{units:?}");
            assert!(units[0].contains("tiny-rides"), "{units:?}");
        }
        other => panic!("expected Poisoned, got {other}"),
    }
    // The healthy units' results are all present: the poison pill never
    // blocked the rest of the catalog.
    let results = std::fs::read_dir(dir.join("results"))
        .expect("results dir")
        .count();
    assert_eq!(results, scenarios.len() - 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_reuses_finished_results_without_recomputation() {
    let (scenarios, policies) = matrix();
    let reference = reference_json();
    let dir = tmp_spool("resume");
    let first = orchestrate(&dir, &scenarios, &policies, &subprocess_opts(2)).expect("first run");
    assert_eq!(first.report.to_json(false), reference);

    // A finished spool is never silently reused…
    let err = orchestrate(&dir, &scenarios, &policies, &subprocess_opts(2))
        .expect_err("reuse must be refused");
    assert!(matches!(err, OrchestrateError::SpoolExists { .. }), "{err}");

    // …and resuming it adopts every finished result untouched: same
    // merged bytes, zero requeues, and the result files' mtimes prove
    // nothing was rewritten.
    let mtime = |unit: &str| {
        std::fs::metadata(dir.join("results").join(unit))
            .expect("result file")
            .modified()
            .expect("mtime")
    };
    let before: Vec<_> = (0..scenarios.len())
        .map(|i| mtime(&format!("{i:04}-{}.json", scenarios[i].name)))
        .collect();
    let mut opts = subprocess_opts(2);
    opts.resume = true;
    let second = orchestrate(&dir, &scenarios, &policies, &opts).expect("resume");
    assert_eq!(second.resumed, scenarios.len());
    assert_eq!(second.requeues, 0);
    assert_eq!(second.report.to_json(false), reference);
    let after: Vec<_> = (0..scenarios.len())
        .map(|i| mtime(&format!("{i:04}-{}.json", scenarios[i].name)))
        .collect();
    assert_eq!(before, after, "resume recomputed a finished unit");
    let _ = std::fs::remove_dir_all(&dir);
}
