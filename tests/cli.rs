//! End-to-end tests of the `rideshare` CLI binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rideshare"))
        .args(args)
        .output()
        .expect("spawn rideshare binary")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rideshare-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn generate_summary_solve_simulate_bound_pipeline() {
    let dir = tmpdir("pipeline");
    let dir_s = dir.to_str().unwrap();

    let gen = cli(&[
        "generate",
        "--tasks",
        "50",
        "--drivers",
        "6",
        "--seed",
        "11",
        "--out",
        dir_s,
    ]);
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );
    assert!(dir.join("trips.csv").exists());
    assert!(dir.join("drivers.csv").exists());

    let summary = cli(&["summary", "--dir", dir_s]);
    assert!(summary.status.success());
    let text = String::from_utf8_lossy(&summary.stdout);
    assert!(text.contains("6 drivers × 50 tasks"), "{text}");
    assert!(text.contains("GA guarantee"));

    let solve = cli(&["solve", "--dir", dir_s]);
    assert!(solve.status.success());
    assert!(String::from_utf8_lossy(&solve.stdout).contains("greedy:"));

    for policy in [
        "margin",
        "nearest",
        "maxMargin",
        "batch-3m",
        "batch-opt-3m",
        "batch-90s",
    ] {
        let sim = cli(&["simulate", "--dir", dir_s, "--policy", policy]);
        assert!(sim.status.success(), "--policy {policy}");
        assert!(String::from_utf8_lossy(&sim.stdout).contains("online: served"));
    }
    for policy in ["greedy", "random"] {
        let sim = cli(&["simulate", "--dir", dir_s, "--policy", policy]);
        assert_eq!(sim.status.code(), Some(1), "--policy {policy}");
        let err = String::from_utf8_lossy(&sim.stderr);
        assert!(err.contains("not a streaming policy"), "{err}");
    }

    let bound = cli(&["bound", "--dir", dir_s]);
    assert!(bound.status.success());
    assert!(String::from_utf8_lossy(&bound.stdout).contains("Z_f* ="));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generate_is_deterministic_in_seed() {
    let a = tmpdir("det-a");
    let b = tmpdir("det-b");
    for dir in [&a, &b] {
        let out = cli(&[
            "generate",
            "--tasks",
            "20",
            "--drivers",
            "3",
            "--seed",
            "99",
            "--out",
            dir.to_str().unwrap(),
        ]);
        assert!(out.status.success());
    }
    let ta = std::fs::read_to_string(a.join("trips.csv")).unwrap();
    let tb = std::fs::read_to_string(b.join("trips.csv")).unwrap();
    assert_eq!(ta, tb);
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}

#[test]
fn delivery_flag_changes_structure() {
    let rides = tmpdir("rides");
    let deliv = tmpdir("deliv");
    for (dir, extra) in [(&rides, None), (&deliv, Some("--delivery"))] {
        let mut args = vec![
            "generate",
            "--tasks",
            "30",
            "--drivers",
            "3",
            "--seed",
            "5",
            "--out",
            dir.to_str().unwrap(),
        ];
        if let Some(f) = extra {
            args.push(f);
        }
        assert!(cli(&args).status.success());
    }
    let a = std::fs::read_to_string(rides.join("trips.csv")).unwrap();
    let b = std::fs::read_to_string(deliv.join("trips.csv")).unwrap();
    assert_ne!(a, b, "delivery preset must produce a different workload");
    let _ = std::fs::remove_dir_all(&rides);
    let _ = std::fs::remove_dir_all(&deliv);
}

#[test]
fn bad_input_reports_errors() {
    let nothing = cli(&["solve", "--dir", "/nonexistent-rideshare-dir"]);
    assert!(!nothing.status.success());
    assert!(String::from_utf8_lossy(&nothing.stderr).contains("error:"));

    let unknown = cli(&["frobnicate"]);
    assert!(!unknown.status.success());

    let no_args = cli(&[]);
    assert!(!no_args.status.success());

    let help = cli(&["help"]);
    assert!(help.status.success());
    assert!(String::from_utf8_lossy(&help.stdout).contains("USAGE"));
}

#[test]
fn replay_records_telemetry_and_query_reads_it_back() {
    // The telemetry loop end to end at the CLI surface: replay with
    // --tsdb-dir writes a store, query filters and aggregates it.
    let dir = tmpdir("tsdb-query");
    let dir_s = dir.to_str().unwrap();
    let run = cli(&[
        "replay",
        "--tasks",
        "2000",
        "--drivers",
        "40",
        "--seed",
        "3",
        "--tsdb-dir",
        dir_s,
        "--tsdb-scenario",
        "cli-smoke",
        "--quiet-table",
    ]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(String::from_utf8_lossy(&run.stdout).contains("tsdb: recorded"));

    let table = cli(&[
        "query",
        "--tsdb",
        dir_s,
        "--filter",
        "scenario=cli-smoke,metric=profit",
    ]);
    assert!(table.status.success());
    let stdout = String::from_utf8_lossy(&table.stdout);
    assert!(stdout.contains("window"), "{stdout}");

    let canon = cli(&[
        "query",
        "--tsdb",
        dir_s,
        "--filter",
        "metric=served",
        "--canonical",
    ]);
    assert!(canon.status.success());
    let json = String::from_utf8_lossy(&canon.stdout);
    assert!(json.contains("\"schema\":\"rideshare-tsdb/1\""), "{json}");

    // --agg rate is wired end to end: the table header names the
    // projection, and the canonical JSON records it.
    let rate = cli(&[
        "query",
        "--tsdb",
        dir_s,
        "--filter",
        "scenario=cli-smoke,metric=profit",
        "--agg",
        "rate",
    ]);
    assert!(rate.status.success());
    let rate_table = String::from_utf8_lossy(&rate.stdout);
    assert!(rate_table.contains("rate"), "{rate_table}");

    let rate_canon = cli(&[
        "query",
        "--tsdb",
        dir_s,
        "--filter",
        "metric=served",
        "--agg",
        "rate",
        "--canonical",
    ]);
    assert!(rate_canon.status.success());
    let rate_json = String::from_utf8_lossy(&rate_canon.stdout);
    assert!(rate_json.contains("\"agg\":\"rate\""), "{rate_json}");
    // Canonical windows carry exact sufficient statistics, not the
    // projection, so rate output equals sum output up to the agg field.
    assert_eq!(
        rate_json.replace("\"agg\":\"rate\"", "\"agg\":\"sum\""),
        json
    );

    // An unknown projection is rejected naming the legal spellings.
    let bad_agg = cli(&["query", "--tsdb", dir_s, "--agg", "median"]);
    assert!(!bad_agg.status.success());
    assert!(String::from_utf8_lossy(&bad_agg.stderr).contains("sum|avg|rate|min|max"));

    // Error paths: querying is read-only, so a missing store directory
    // is a typed error (and must not create an empty store), and an
    // unknown label key names the legal keys.
    let missing = cli(&[
        "query",
        "--tsdb",
        "/nonexistent-rideshare-tsdb",
        "--filter",
        "metric=profit",
    ]);
    assert!(!missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stderr).contains("no store directory"));
    assert!(!PathBuf::from("/nonexistent-rideshare-tsdb").exists());

    let bad_label = cli(&["query", "--tsdb", dir_s, "--filter", "flavor=spicy"]);
    assert!(!bad_label.status.success());
    assert!(String::from_utf8_lossy(&bad_label.stderr).contains("unknown label key"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_streams_in_bounded_memory() {
    // The streaming subcommand end to end: a small synthetic stream,
    // instant and batched policies, peak-resident line included.
    for policy in ["margin", "batch-2m"] {
        let out = cli(&[
            "replay",
            "--tasks",
            "2000",
            "--drivers",
            "40",
            "--seed",
            "3",
            "--policy",
            policy,
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("served"), "{stdout}");
        assert!(stdout.contains("peak resident state"), "{stdout}");
        assert!(stdout.contains("tasks/s"), "{stdout}");
    }

    let bad = cli(&["replay", "--policy", "frobnicate"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown policy"));
}

/// Normalizes a `serve --canonical` report onto `replay --canonical`'s
/// shape: the subcommand prefix differs and serve appends one daemon-only
/// diagnostics line (events/windows/days/snapshots). Everything else —
/// the metrics table, the served/revenue/profit line, mean wait, the
/// peak-resident-state line — must match byte for byte.
fn serve_as_replay(stdout: &str) -> String {
    stdout
        .lines()
        .filter(|l| !l.contains("window(s)"))
        .map(|l| l.replacen("serve:", "replay:", 1))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn export_serve_jsonl_matches_replay_and_writes_snapshots() {
    use rideshare::metrics::{StreamMetrics, SNAPSHOT_SCHEMA};

    let dir = tmpdir("serve-jsonl");
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("events.jsonl");
    let log_s = log.to_str().unwrap().to_string();
    let snaps = dir.join("snapshots");
    let snaps_s = snaps.to_str().unwrap().to_string();
    let trace = ["--tasks", "1500", "--drivers", "30", "--seed", "7"];

    // Export the event log the daemon will ingest.
    let mut export_args = vec!["export"];
    export_args.extend_from_slice(&trace);
    export_args.extend_from_slice(&["--out", &log_s]);
    let exported = cli(&export_args);
    assert!(
        exported.status.success(),
        "{}",
        String::from_utf8_lossy(&exported.stderr)
    );
    let log_text = std::fs::read_to_string(&log).unwrap();
    assert_eq!(log_text.lines().count(), 30 + 1500 + 1, "events + EOS");

    // The drained daemon's canonical report equals replay's byte for byte.
    let served = cli(&[
        "serve",
        "--source",
        &format!("jsonl:{log_s}"),
        "--policy",
        "margin",
        "--canonical",
        "--snapshot-dir",
        &snaps_s,
    ]);
    assert!(
        served.status.success(),
        "{}",
        String::from_utf8_lossy(&served.stderr)
    );
    let serve_stdout = String::from_utf8_lossy(&served.stdout);
    assert!(serve_stdout.contains("stop: drained"), "{serve_stdout}");

    let mut replay_args = vec!["replay"];
    replay_args.extend_from_slice(&trace);
    replay_args.extend_from_slice(&["--policy", "margin", "--canonical"]);
    let replayed = cli(&replay_args);
    assert!(replayed.status.success());
    let replay_stdout = String::from_utf8_lossy(&replayed.stdout);
    assert_eq!(
        serve_as_replay(&serve_stdout),
        serve_as_replay(&replay_stdout)
    );

    // Snapshots: the schema pin holds, every file parses back exactly, and
    // the final snapshot is the fixed point of parse → re-serialize.
    let final_json = std::fs::read_to_string(snaps.join("final.json")).unwrap();
    assert!(
        final_json.starts_with(&format!("{{\"schema\":\"{SNAPSHOT_SCHEMA}\"")),
        "{final_json}"
    );
    let mut snapshot_files = 0usize;
    for entry in std::fs::read_dir(&snaps).unwrap() {
        let path = entry.unwrap().path();
        let json = std::fs::read_to_string(&path).unwrap();
        let parsed = StreamMetrics::from_canonical_json(json.trim())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            parsed.to_canonical_json(),
            json.trim(),
            "{}",
            path.display()
        );
        snapshot_files += 1;
    }
    assert!(
        snapshot_files >= 2,
        "final.json + hourly snapshots expected"
    );
    assert!(
        std::fs::read_dir(&snaps)
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().starts_with("snap-")),
        "no periodic snap-*.json written"
    );

    // Two regions on one shard: the daemon's pruning grid spans the
    // regions `--regions` names, as replay's spans the trace's.
    let regional = ["--regions", "2", "--canonical"];
    let mut export_args = vec!["export"];
    export_args.extend_from_slice(&trace);
    export_args.extend_from_slice(&["--regions", "2", "--out", &log_s]);
    assert!(cli(&export_args).status.success());
    let source = format!("jsonl:{log_s}");
    let mut serve_args = vec!["serve", "--source", &source, "--shards", "1"];
    serve_args.extend_from_slice(&regional);
    let served = cli(&serve_args);
    let mut replay_args = vec!["replay"];
    replay_args.extend_from_slice(&trace);
    replay_args.extend_from_slice(&regional);
    let replayed = cli(&replay_args);
    assert!(served.status.success() && replayed.status.success());
    let serve_stdout = String::from_utf8_lossy(&served.stdout);
    assert!(serve_stdout.contains("2 region(s) × 1 shard(s)"));
    assert_eq!(
        serve_as_replay(&serve_stdout),
        serve_as_replay(&String::from_utf8_lossy(&replayed.stdout))
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_rejects_malformed_input_with_typed_errors() {
    let dir = tmpdir("serve-bad");
    std::fs::create_dir_all(&dir).unwrap();

    // A log that goes bad mid-stream: the daemon must exit nonzero with a
    // typed ingest error, not a panic or a silent success.
    let log = dir.join("bad.jsonl");
    std::fs::write(&log, "{\"event\":\"epoch\",\"at\":60}\nnot json at all\n").unwrap();
    let bad = cli(&[
        "serve",
        "--source",
        &format!("jsonl:{}", log.to_str().unwrap()),
    ]);
    assert!(!bad.status.success());
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(stderr.contains("error: ingest:"), "{stderr}");

    // An amount outside the exact grid is refused where it enters: `1e999`
    // parses to +∞, which saturated the revenue accumulator and was
    // reported as data (exit 0, `stop: drained`). The order before it
    // still drains into a valid report.
    let order = |id: u32, publish: u32, price: &str| {
        format!(
            "{{\"event\":\"task\",\"id\":{id},\"publish\":{publish},\"origin\":[41.15,-8.63],\
             \"destination\":[41.16,-8.6],\"pickup_by\":{},\"complete_by\":{},\"duration\":600,\
             \"price\":{price},\"valuation\":36.5,\"cost\":1.8}}\n",
            publish + 900,
            publish + 4000,
        )
    };
    let feed = dir.join("inf.jsonl");
    let announce = "{\"event\":\"driver\",\"id\":0,\"source\":[41.15,-8.63],\
                    \"destination\":[41.16,-8.62],\"shift\":[0,86400],\"model\":\"hitch\"}\n";
    let lines = [announce, &order(0, 7200, "12.5"), &order(1, 7300, "1e999")];
    std::fs::write(&feed, lines.concat()).unwrap();
    let inf = cli(&[
        "serve",
        "--source",
        &format!("jsonl:{}", feed.to_str().unwrap()),
        "--canonical",
    ]);
    assert_eq!(inf.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&inf.stderr);
    assert!(
        stderr.contains("error: ingest: task 1: price out of range"),
        "{stderr}"
    );
    let report = String::from_utf8_lossy(&inf.stdout);
    assert!(report.contains("stop: ingest error"), "{report}");
    assert!(report.contains("served 1/1"), "{report}");
    assert!(report.contains("revenue 12.50"), "{report}");

    // So is an instant no day holds: a publish time near `i64::MAX` sized
    // the dense hourly table by itself and aborted the daemon (exit 134,
    // `memory allocation of 122978293824730368 bytes failed`, no report).
    let late = order(1, 7300, "12.5")
        .replace(":7300,", ":9223372036854775000,")
        .replace(":8200,", ":9223372036854775600,")
        .replace(":11300,", ":9223372036854775800,");
    let lines = [announce, &order(0, 7200, "12.5"), &late];
    std::fs::write(&feed, lines.concat()).unwrap();
    let far = cli(&[
        "serve",
        "--source",
        &format!("jsonl:{}", feed.to_str().unwrap()),
        "--canonical",
    ]);
    assert_eq!(far.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&far.stderr);
    assert!(
        stderr.contains("error: ingest: task 1: publish out of range"),
        "{stderr}"
    );
    let report = String::from_utf8_lossy(&far.stdout);
    assert!(report.contains("stop: ingest error"), "{report}");
    assert!(report.contains("served 1/1"), "{report}");

    // Bad source schemes and shard/region mismatches are caught up front.
    let scheme = cli(&["serve", "--source", "ftp://example"]);
    assert!(!scheme.status.success());
    assert!(String::from_utf8_lossy(&scheme.stderr).contains("--source"));

    let mismatch = cli(&[
        "serve",
        "--source",
        &format!("jsonl:{}", log.to_str().unwrap()),
        "--shards",
        "4",
        "--regions",
        "2",
    ]);
    assert!(!mismatch.status.success());
    assert!(String::from_utf8_lossy(&mismatch.stderr).contains("--regions"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_shard_counts_print_identical_canonical_reports() {
    // The acceptance criterion at CLI level, small scale: the same
    // regional stream at 1, 2 and 4 shards prints the same decisions and
    // metrics byte-for-byte under --canonical (the "shard(s)" diagnostics
    // line legitimately varies — per-shard peaks and retirement timing).
    let canonical = |shards: &str| {
        let out = cli(&[
            "replay",
            "--tasks",
            "3000",
            "--drivers",
            "60",
            "--seed",
            "9",
            "--regions",
            "4",
            "--shards",
            shards,
            "--canonical",
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(stdout.contains(&format!("{shards} shard(s)")), "{stdout}");
        stdout
            .lines()
            .filter(|l| !l.contains("shard(s)"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let one = canonical("1");
    assert_eq!(one, canonical("2"), "2 shards diverged from 1");
    assert_eq!(one, canonical("4"), "4 shards diverged from 1");

    let bad = cli(&["replay", "--shards", "4", "--regions", "2"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("--regions"));

    // A shard is an OS thread. A count the OS refuses used to abort the
    // process from inside `thread::scope` ("failed to initiate panic");
    // it is refused where it is parsed, before any engine is built.
    let absurd: [&[&str]; 2] = [
        &[
            "replay",
            "--tasks",
            "200",
            "--drivers",
            "20",
            "--shards",
            "70000",
            "--regions",
            "70000",
        ],
        &[
            "serve",
            "--source",
            "jsonl:/dev/null",
            "--shards",
            "40000",
            "--regions",
            "40000",
        ],
    ];
    for args in absurd {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} still ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--shards") && stderr.contains("exceeds the limit of 1024"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn misspelt_and_malformed_flags_are_refused_by_name() {
    // Each of these ran a *different experiment* without a word before the
    // flag tables: the default 100k tasks, the wall-clock report, the
    // hitch-hiking model, the default five-policy sweep.
    let snaps = tmpdir("overflow-snaps");
    let snaps_s = snaps.to_str().unwrap();
    let cases: [(&[&str], &str); 29] = [
        (
            &["replay", "--task", "2000"],
            "replay: unknown flag '--task'",
        ),
        (
            &["replay", "--cannonical"],
            "replay: unknown flag '--cannonical'",
        ),
        (
            &["replay", "--model", "bogus"],
            "replay: bad --model 'bogus' (expected hitch|hwh)",
        ),
        (
            &["replay", "--drivers", "40", "--tasks"],
            "replay: --tasks needs a value",
        ),
        (
            &["sweep", "--policy", "nearest"],
            "sweep: unknown flag '--policy'",
        ),
        (
            &["export", "--seed", "1", "--seed", "2"],
            "export: --seed given more than once",
        ),
        (&["generate", "--tasks", "5"], "generate: --out is required"),
        // The figures are rows of the same table: the retired `--rounds`
        // knob, a positional count and a bad panel are refused by name.
        (&["fig5", "--rounds", "5"], "fig5: unknown flag '--rounds'"),
        (
            &["fig5", "--quick", "--bogus"],
            "fig5: unknown flag '--bogus'",
        ),
        (
            &["fig5", "--quick", "--model", "xyz"],
            "fig5: bad --model 'xyz' (expected hitch|hwh)",
        ),
        (
            &["fig5", "--quick", "--model"],
            "fig5: --model needs a value",
        ),
        (&["fig5", "--tasks", "2000x"], "fig5: bad --tasks '2000x'"),
        (&["fig5", "--tasks", "0"], "fig5: bad --tasks '0'"),
        (&["fig5", "200"], "fig5: unknown flag '200'"),
        // Durations that overflow where they enter. Each of these ran a
        // different window (2⁶⁴ + 44 s wraps to `batch-44s`; a window that
        // fits `i64` but not `timestamp + window` dispatched instantly) or
        // reached an engine assertion (exit 101) before the bound.
        (
            &["replay", "--policy", "batch-307445734561825861m"],
            "unknown policy 'batch-307445734561825861m'",
        ),
        (
            &["replay", "--policy", "batch-9223372036854775807s"],
            "unknown policy 'batch-9223372036854775807s'",
        ),
        (
            &["replay", "--policy", "batch-opt-153722867280912930m"],
            "unknown policy 'batch-opt-153722867280912930m'",
        ),
        (
            &["replay", "--policy", "batch-527041m"],
            "unknown policy 'batch-527041m'",
        ),
        (
            &[
                "serve",
                "--source",
                "jsonl:/dev/null",
                "--day-hours",
                "2562047788015216",
            ],
            "serve: bad --day-hours '2562047788015216'",
        ),
        (
            &[
                "serve",
                "--source",
                "jsonl:/dev/null",
                "--snapshot-dir",
                snaps_s,
                "--snapshot-mins",
                "153722867280912931",
            ],
            "serve: bad --snapshot-mins '153722867280912931'",
        ),
        (
            &["replay", "--surge-window", "153722867280912931"],
            "replay: bad --surge-window '153722867280912931'",
        ),
        (
            &["export", "--surge-window", "-5"],
            "export: bad --surge-window '-5'",
        ),
        (&["sweep", "--threads", "0"], "sweep: bad --threads '0'"),
        (
            &["orchestrate", "--spool", snaps_s, "--threads", "0"],
            "orchestrate: bad --threads '0'",
        ),
        (
            &["worker", "--spool", snaps_s, "--threads", "0"],
            "worker: bad --threads '0'",
        ),
        // A range no query can have was blamed on `index.json`, and a
        // directory holding no store read as an empty one (exit 0).
        (
            &["query", "--tsdb", snaps_s, "--step", "0"],
            "query: bad --step '0'",
        ),
        (
            &["query", "--tsdb", snaps_s, "--step", "-5"],
            "query: bad --step '-5'",
        ),
        (
            &["query", "--tsdb", snaps_s, "--from", "10", "--to", "5"],
            "query: bad --to '5'",
        ),
        (
            &["query", "--tsdb", env!("CARGO_MANIFEST_DIR")],
            concat!("query: --tsdb: no store at ", env!("CARGO_MANIFEST_DIR")),
        ),
    ];
    for (args, needle) in cases {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} still ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        if args[0] == "fig5" {
            let usage = "USAGE:\n  rideshare fig5     [--tasks N] [--quick] [--model hitch|hwh]";
            assert!(stderr.contains(usage), "{args:?}: {stderr}");
        }
        if args[0] == "query" && needle.contains("bad") {
            assert!(stderr.contains("USAGE:\n  rideshare query"), "{stderr}");
        }
    }
    assert!(!snaps.exists(), "a refused run created {snaps_s}");

    // The longest window the grammar admits (366 days) still runs, and
    // holds every order to its early-flush instant.
    let longest = cli(&[
        "replay",
        "--tasks",
        "50",
        "--drivers",
        "5",
        "--policy",
        "batch-527040m",
        "--canonical",
    ]);
    assert!(longest.status.success());
    let report = String::from_utf8_lossy(&longest.stdout);
    assert!(report.contains("50 held orders"), "{report}");
}

#[test]
fn online_surfaces_share_the_sweep_policy_grammar() {
    let dir = tmpdir("policy-grammar");
    let dir_s = dir.to_str().unwrap();
    let replay = |policy: &str| {
        let out = cli(&[
            "replay",
            "--tasks",
            "2000",
            "--drivers",
            "40",
            "--seed",
            "3",
            "--policy",
            policy,
            "--canonical",
            "--tsdb-dir",
            dir_s,
            "--tsdb-scenario",
            policy,
        ]);
        assert!(
            out.status.success(),
            "{policy}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // All but the line counting the shared store's series.
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        let report: Vec<&str> = stdout.lines().filter(|l| !l.contains("tsdb:")).collect();
        report.join("\n")
    };
    // `maxMargin` is the label `sweep` itself prints; a hold window is
    // the same window however it is spelt.
    let margin = replay("margin");
    assert_eq!(margin, replay("maxMargin"));
    assert_eq!(margin, replay("maxmargin"));
    assert_eq!(replay("batch-3m"), replay("batch-180s"));

    // … and the recorded policy label is the policy's, not its spelling
    // (the scenario label tells the five runs apart).
    let list = cli(&["query", "--tsdb", dir_s, "--list"]);
    let listed = String::from_utf8_lossy(&list.stdout).to_string();
    for (spelling, label) in [
        ("margin", "margin"),
        ("maxMargin", "margin"),
        ("maxmargin", "margin"),
        ("batch-3m", "batch-3m"),
        ("batch-180s", "batch-3m"),
    ] {
        let key = format!("scenario={spelling},policy={label},");
        assert_eq!(listed.matches(&key).count(), 7, "{key}: {listed}");
    }
    assert!(listed.contains("35 series"), "{listed}");

    // The offline solver and the random baseline are sweep columns, not
    // ways to dispatch an order stream.
    for policy in ["greedy", "random"] {
        for surface in [
            &["replay"][..],
            &["serve", "--source", "jsonl:/nonexistent"],
            &["simulate", "--dir", "/nonexistent"],
        ] {
            let mut args = surface.to_vec();
            args.extend_from_slice(&["--policy", policy]);
            let out = cli(&args);
            assert_eq!(out.status.code(), Some(1), "{args:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("not a streaming policy"), "{stderr}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn closed_stdout_ends_the_run_quietly() {
    // `rideshare replay … | head -1`: the reader is gone before the report
    // is printed. `println!` would panic on the broken pipe.
    // A figure prints through the same writer.
    use std::process::Stdio;
    let runs: [&[&str]; 2] = [
        &["replay", "--tasks", "20000", "--drivers", "200"],
        &["fig3_4", "--trips", "2000"],
    ];
    for args in runs {
        let mut child = Command::new(env!("CARGO_BIN_EXE_rideshare"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn rideshare binary");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for rideshare");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(stderr.is_empty(), "{stderr}");
        assert!(out.status.success(), "{:?}", out.status);
    }
}
