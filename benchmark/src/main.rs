//! The repository's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run \
//!     [--workload NAME|all] [--seed S] [--seconds N] [--trace 0|1 | --traced] [--smoke] [--out PATH]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare A.json B.json
//! ```

mod clock;
mod compare;
mod env;
mod json;
mod pacing;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use rideshare_trace::wire::{parse_json, JsonValue};

use report::{Outcome, END_TO_END, PER_LAYER};
use workloads::{Ctx, Spec, SPECS};

const USAGE: &str = "\
usage: rideshare-benchmark run [--workload NAME|all] [--seed S] [--seconds N]
                               [--trace 0|1 | --traced] [--smoke] [--out PATH]
       rideshare-benchmark compare A.json B.json
workloads: replay-sparse replay-dense replay-batch serve-tcp serve-jsonl offline-fig5";

/// Which of the two runs an invocation makes.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// End-to-end metrics, wrappers off (`--trace 0`, the default).
    Untraced,
    /// Per-layer metrics, wrappers on (`--trace 1`).
    Traced,
    /// Both, in that order (`--traced`).
    Both,
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    mode: Mode,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: "all".into(),
        seed: 0,
        seconds: 10.0,
        mode: Mode::Untraced,
        smoke: false,
        out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |v: &str| format!("bad value '{v}' for {flag}");
        match flag.as_str() {
            "--workload" => run.workload = value()?.clone(),
            "--seed" => run.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let v = value()?;
                run.seconds = v.parse().map_err(|_| bad(v))?;
                if !(0.0..=600.0).contains(&run.seconds) {
                    return Err(bad(v));
                }
            }
            "--trace" => {
                run.mode = match value()?.as_str() {
                    "0" => Mode::Untraced,
                    "1" => Mode::Traced,
                    v => return Err(bad(v)),
                }
            }
            "--traced" => run.mode = Mode::Both,
            "--smoke" => run.smoke = true,
            "--out" => run.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    if run.workload != "all" && workloads::spec(&run.workload).is_none() {
        return Err(format!("unknown workload '{}'\n{USAGE}", run.workload));
    }
    if run.smoke {
        // The smoke run is about the checks, not the numbers.
        run.seconds = 0.0;
        run.mode = Mode::Both;
    }
    Ok(run)
}

/// `benchmark/out`, beside the manifest: everything a run writes lands
/// under it.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The arguments of a run plus a scratch directory of its own, named
/// after what runs (`name`) and this process.
fn context(run: &RunArgs, name: &str) -> Result<Ctx, String> {
    let out_dir = out_dir();
    let dir = out_dir
        .join("tmp")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(Ctx {
        seed: run.seed,
        seconds: run.seconds,
        shrink: if run.smoke { 50 } else { 1 },
        dir,
        out_dir,
    })
}

/// Runs one workload in this process, prints its metrics and the
/// contract's result line, writes the result file.
fn run_one(run: &RunArgs, spec: &Spec) -> Result<bool, String> {
    let ctx = context(run, spec.name)?;
    let measured = run_mode(run.mode, spec, &ctx);
    // The scratch directory goes whether or not the run succeeded.
    let _ = std::fs::remove_dir_all(&ctx.dir);
    let outcome = measured?;

    println!("{} (seed {}, {}):", spec.name, run.seed, spec.why);
    print!("{}", outcome.metrics.render());
    for problem in &outcome.problems {
        println!("  CHECK FAILED: {problem}");
    }
    let file = report::result_file(
        &env::Environment::capture(),
        &ctx,
        &[outcome.to_json(spec, &ctx, run.mode != Mode::Untraced)],
    );
    let path = run.out.clone().unwrap_or_else(|| {
        let suffix = if run.mode == Mode::Traced {
            "-traced"
        } else {
            ""
        };
        ctx.out_dir
            .join(format!("result-{}{suffix}.json", spec.name))
    });
    std::fs::write(&path, file).map_err(|e| format!("writing {}: {e}", path.display()))?;

    let both: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
    let table = match run.mode {
        Mode::Untraced => END_TO_END,
        Mode::Traced => PER_LAYER,
        Mode::Both => &both,
    };
    println!("{}", outcome.contract_line(table));
    Ok(outcome.correct())
}

fn run_mode(mode: Mode, spec: &Spec, ctx: &Ctx) -> Result<Outcome, String> {
    if mode == Mode::Traced {
        return workloads::run_traced(spec, ctx);
    }
    let mut outcome = workloads::run(spec, ctx)?;
    if mode == Mode::Both {
        outcome.absorb(workloads::run_traced(spec, ctx)?);
    }
    Ok(outcome)
}

/// Runs every workload, each in a child process of its own (so
/// `peak_rss_mb` is that workload's and nothing else's), one at a time,
/// and merges the children's result files.
fn run_all(run: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("resolving own binary: {e}"))?;
    let ctx = context(run, "all")?;
    let mut entries = Vec::new();
    let mut all_correct = true;
    for spec in &SPECS {
        let child_out = ctx.dir.join(format!("{}.json", spec.name));
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", spec.name])
            .args(["--seed", &run.seed.to_string()])
            .args(["--seconds", &run.seconds.to_string()])
            .arg("--out")
            .arg(&child_out);
        match run.mode {
            Mode::Untraced => {}
            Mode::Traced => drop(cmd.args(["--trace", "1"])),
            Mode::Both => drop(cmd.arg("--traced")),
        }
        if run.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("spawning {}: {e}", spec.name))?;
        all_correct &= status.success();
        let text = std::fs::read_to_string(&child_out)
            .map_err(|e| format!("{} left no result: {e}", spec.name))?;
        let doc = parse_json(&text).map_err(|e| format!("{}: {e}", child_out.display()))?;
        for entry in doc.get("workloads").and_then(JsonValue::arr).unwrap_or(&[]) {
            entries.push(json::serialize(entry));
        }
    }
    let _ = std::fs::remove_dir_all(&ctx.dir);
    let path = run
        .out
        .clone()
        .unwrap_or_else(|| ctx.out_dir.join("result.json"));
    let file = report::result_file(&env::Environment::capture(), &ctx, &entries);
    std::fs::write(&path, file).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn run_cmd(args: &[String]) -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with --release".into());
    }
    let run = parse_run(args)?;
    match workloads::spec(&run.workload) {
        Some(spec) => run_one(&run, spec),
        None => run_all(&run),
    }
}

fn compare_cmd(args: &[String]) -> Result<bool, String> {
    match args {
        [a, b] => compare::compare(
            Path::new(a),
            Path::new(b),
            &Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        ),
        _ => Err(format!("compare takes two result files\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run_cmd(rest),
        Some((cmd, rest)) if cmd == "compare" => compare_cmd(rest),
        // Hidden: the worker side of the `orchestrate` measurement.
        Some((cmd, rest)) if cmd == "spool-worker" => workloads::offline::spool_worker(rest),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
