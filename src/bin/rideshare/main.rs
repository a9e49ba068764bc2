//! `rideshare` — command-line interface to the framework.
//!
//! The eighteen subcommands, their flags and their one-line descriptions
//! are declared once, in [`flags::COMMANDS`]; `rideshare help` prints the
//! synopsis generated from that table, and each subcommand is the
//! function of its name below. In pipeline order: `generate` a synthetic
//! Porto day → `summary` / `solve` (Alg. 1) / `simulate` (Algs. 3–4,
//! batched) / `bound` (`Z_f*`) over its CSVs; `sweep` the scenario ×
//! policy matrix in-process or `orchestrate` it over `worker` child
//! processes; `replay` a day of any size through the bounded-memory
//! streaming engine, `export` the same event stream as a log, `serve` it
//! as a long-running daemon; `query` the telemetry store a `--tsdb-dir`
//! run recorded. `fig2` … `ablations` print the paper's figures: each
//! hands its flags, typed, and [`Out`] to the function of its name in
//! `rideshare::bench::figures`.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rideshare::bench::figures;
use rideshare::prelude::*;
use rideshare::trace::{drivers_from_csv, drivers_to_csv, trips_from_csv, trips_to_csv};

/// Standard output for every subcommand. A reader that went away
/// (`rideshare replay … | head -1`) ends the process quietly; the std
/// macros would panic, so `println!`/`print!` below shadow them and every
/// line the CLI prints goes through here.
struct Out;

impl std::io::Write for Out {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        quiet_on_closed_pipe(std::io::stdout().write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        quiet_on_closed_pipe(std::io::stdout().flush())
    }
}

fn quiet_on_closed_pipe<T>(result: std::io::Result<T>) -> std::io::Result<T> {
    match result {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        result => result,
    }
}

fn print_out(text: std::fmt::Arguments<'_>) {
    if let Err(e) = Out.write_fmt(text) {
        eprintln!("error: writing stdout: {e}");
        std::process::exit(1);
    }
}

macro_rules! print {
    ($($arg:tt)*) => { print_out(format_args!($($arg)*)) };
}

macro_rules! println {
    ($($arg:tt)*) => { print_out(format_args!("{}\n", format_args!($($arg)*))) };
}

mod flags;
use flags::Parsed;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((word, rest)) = args.split_first() else {
        eprintln!("{}", flags::usage());
        return ExitCode::FAILURE;
    };
    if matches!(word.as_str(), "--help" | "-h" | "help") {
        println!("{}", flags::usage());
        return ExitCode::SUCCESS;
    }
    #[cfg(feature = "stage-probe")]
    rideshare::online::probe::install_clock(&rideshare::bench::probe::WallClock);
    let result = match flags::COMMANDS.iter().find(|c| c.name == word) {
        None => Err(format!("unknown subcommand '{word}'\n{}", flags::usage())),
        Some(cmd) => match flags::parse(cmd, rest) {
            Ok(parsed) => (cmd.run)(&parsed),
            Err(e) => Err(e.into()),
        },
    };
    // Stderr, outside every canonical output.
    #[cfg(feature = "stage-probe")]
    if matches!(word.as_str(), "replay" | "serve") {
        eprintln!("{}", rideshare::online::probe::readings());
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `f`, returning its result and the wall seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    #[expect(
        clippy::disallowed_methods,
        reason = "operator-facing elapsed-time display only; --canonical drops these lines, which is exactly what the CI byte-identity diffs compare"
    )]
    let start = std::time::Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

fn positive(name: &str, value: i64) -> Result<i64, String> {
    let positive = (value > 0).then_some(value);
    positive.ok_or_else(|| format!("{name} must be positive"))
}

/// `--model`, if given.
fn driver_model(p: &Parsed<'_>) -> Result<Option<DriverModel>, String> {
    match p.value("--model") {
        None => Ok(None),
        Some("hitch") => Ok(Some(DriverModel::Hitchhiking)),
        Some("hwh") => Ok(Some(DriverModel::HomeWorkHome)),
        Some(_) => Err(p.bad("--model").into()),
    }
}

/// The synthetic day `generate`, `replay` and `export` share: the TRACE
/// flag group over the subcommand's own default `size` (tasks, drivers),
/// sliced into `regions` disjoint service regions.
fn trace_config(
    p: &Parsed<'_>,
    size: (usize, usize),
    regions: usize,
) -> Result<TraceConfig, String> {
    let model = driver_model(p)?.unwrap_or(DriverModel::Hitchhiking);
    if regions == 0 {
        return Err("--regions must be at least 1".into());
    }
    let base = if p.has("--delivery") {
        TraceConfig::porto_delivery()
    } else {
        TraceConfig::porto()
    };
    Ok(base
        .with_seed(p.parse_or("--seed", 0)?)
        .with_task_count(p.parse_or("--tasks", size.0)?)
        .with_driver_count(p.parse_or("--drivers", size.1)?, model)
        .with_regions(regions))
}

/// `--surge-window` (minutes; 0 for no surge) as the pricing options of
/// the generated feed `replay` dispatches and `export` writes
/// (`priced_events`).
fn surge_options(p: &Parsed<'_>) -> Result<MarketBuildOptions, String> {
    let surge_secs = p.span_or("--surge-window", 60, 30, 0)?;
    Ok(MarketBuildOptions {
        surge_window: (surge_secs > 0).then(|| TimeDelta::from_secs(surge_secs)),
        ..MarketBuildOptions::default()
    })
}

fn generate(p: &Parsed<'_>) -> Result<(), String> {
    let out = PathBuf::from(p.required("--out"));
    let trace = trace_config(p, (300, 40), 1)?.generate();
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let trips = ("trips.csv", trips_to_csv(&trace.trips));
    for (name, data) in [trips, ("drivers.csv", drivers_to_csv(&trace.drivers))] {
        let path = out.join(name);
        std::fs::write(&path, data).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!(
        "wrote {} trips and {} drivers to {}",
        trace.trips.len(),
        trace.drivers.len(),
        out.display()
    );
    Ok(())
}

/// The market in `--dir`, as `generate` wrote it.
fn load_market(p: &Parsed<'_>) -> Result<Market, String> {
    let dir = Path::new(p.required("--dir"));
    let read = |name: &str| -> Result<String, String> {
        let path = dir.join(name);
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))
    };
    let trace = rideshare::trace::Trace {
        trips: trips_from_csv(&read("trips.csv")?)?,
        drivers: drivers_from_csv(&read("drivers.csv")?)?,
        speed: SpeedModel::urban(),
        bbox: rideshare::geo::porto::bounding_box(),
    };
    Ok(Market::from_trace(&trace, &MarketBuildOptions::default()))
}

fn summary(p: &Parsed<'_>) -> Result<(), String> {
    println!("{}", rideshare::core::MarketSummary::of(&load_market(p)?));
    Ok(())
}

fn solve(p: &Parsed<'_>) -> Result<(), String> {
    let market = load_market(p)?;
    let out = solve_greedy(&market, Objective::Profit);
    out.assignment
        .validate(&market)
        .map_err(|e| e.to_string())?;
    let profit = out.assignment.objective_value(&market, Objective::Profit);
    println!(
        "greedy: {} tasks served by {} drivers, profit {profit}",
        out.assignment.served_count(),
        out.assignment.active_driver_count(),
    );
    let routes = out.assignment.routes().iter().enumerate();
    for (n, route) in routes.filter(|(_, route)| !route.tasks.is_empty()) {
        let ids: Vec<String> = route.tasks.iter().map(|t| t.index().to_string()).collect();
        println!("  driver#{n}: tasks [{}]", ids.join(", "));
    }
    Ok(())
}

/// `--policy` for the online surfaces (`simulate`, `replay`, `serve`):
/// the labels `PolicySpec::parse` accepts — the grammar `sweep` prints —
/// minus the two that cannot dispatch an order stream, with the form the
/// engine runs.
fn online_policy(p: &Parsed<'_>) -> Result<(PolicySpec, ShardPolicySpec), String> {
    const GRAMMAR: &str = flags::POLICY;
    let label = p.value("--policy").unwrap_or("margin");
    let policy = PolicySpec::parse(label)
        .ok_or_else(|| format!("unknown policy '{label}' ({GRAMMAR}, <W> at most 366d)"))?;
    let spec = policy
        .stream_spec()
        .ok_or_else(|| format!("policy '{label}' is not a streaming policy ({GRAMMAR})"))?;
    Ok((policy, spec))
}

fn simulate(p: &Parsed<'_>) -> Result<(), String> {
    let (_, spec) = online_policy(p)?;
    let market = load_market(p)?;
    let result = replay_market(&market, spec.holder());
    validate_online_result(&market, &result).map_err(|e| e.to_string())?;
    println!(
        "online: served {}/{} ({:.1}%), profit {}",
        result.served,
        market.num_tasks(),
        result.service_rate() * 100.0,
        result.total_profit(&market),
    );
    if let (Some(wait), Some(cands)) = (result.mean_wait_mins(), result.mean_candidates()) {
        println!(
            "        mean wait {wait:.1} min, deadhead {:.1} km, {cands:.1} candidates/dispatch",
            result.total_deadhead_km(),
        );
    }
    Ok(())
}

fn bound(p: &Parsed<'_>) -> Result<(), String> {
    let market = load_market(p)?;
    let ub = lp_upper_bound(&market, Objective::Profit, UpperBoundOptions::default())
        .map_err(|e| e.to_string())?;
    println!(
        "Z_f* = {:.2} ({} rounds, {} columns, converged: {})",
        ub.bound, ub.rounds, ub.columns, ub.converged
    );
    Ok(())
}

/// The `--scenarios` / `--policies` matrix of `sweep` and `orchestrate`,
/// parsed once so the two can never disagree about a catalog selection.
fn sweep_matrix(p: &Parsed<'_>) -> Result<(Vec<Scenario>, Vec<PolicySpec>), String> {
    let scenarios: Vec<Scenario> = match p.value("--scenarios").unwrap_or("all") {
        "all" => Scenario::catalog(),
        "tiny" => Scenario::tiny_catalog(),
        names => names
            .split(',')
            .map(|n| {
                Scenario::by_name(n.trim())
                    .ok_or_else(|| format!("unknown scenario '{n}' (try --scenarios list)"))
            })
            .collect::<Result<_, _>>()?,
    };
    let policies: Vec<PolicySpec> = match p.value("--policies") {
        None => PolicySpec::default_set(),
        Some("w-sweep") => PolicySpec::w_sweep_set(),
        Some(names) => names
            .split(',')
            .map(|n| PolicySpec::parse(n.trim()).ok_or_else(|| format!("unknown policy '{n}'")))
            .collect::<Result<_, _>>()?,
    };
    Ok((scenarios, policies))
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Writes the `--json` / `--csv` outputs of a sweep matrix.
fn write_reports(p: &Parsed<'_>, report: &SweepReport, with_timing: bool) -> Result<(), String> {
    type Render = fn(&SweepReport, bool) -> String;
    let outputs: [(&str, Render); 2] = [
        ("--json", SweepReport::to_json),
        ("--csv", SweepReport::to_csv),
    ];
    for (flag, render) in outputs {
        if let Some(path) = p.value(flag) {
            let text = render(report, with_timing);
            std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote {path}");
        }
    }
    Ok(())
}

fn sweep(p: &Parsed<'_>) -> Result<(), String> {
    if p.value("--scenarios") == Some("list") {
        for s in Scenario::catalog() {
            println!("{:<14} {}", s.name, s.summary);
        }
        return Ok(());
    }
    let (scenarios, policies) = sweep_matrix(p)?;
    let threads = p.count("--threads")?.unwrap_or_else(cores);
    let opts = SweepOptions {
        threads,
        compute_bound: !p.has("--no-bound"),
    };
    let (report, elapsed) = timed(|| run_sweep(&scenarios, &policies, opts));

    println!("{}", report.render());
    println!(
        "{} cells ({} scenarios × {} policies) on {threads} thread(s) in {elapsed:.2}s",
        report.cells.len(),
        scenarios.len(),
        policies.len(),
    );
    write_reports(p, &report, !p.has("--canonical"))
}

/// The sweep matrix fanned out over worker child processes through a
/// crash-safe spool, merged byte-identical to `sweep --canonical`.
fn orchestrate(p: &Parsed<'_>) -> Result<(), String> {
    let spool = PathBuf::from(p.required("--spool"));
    let (scenarios, policies) = sweep_matrix(p)?;
    let workers: usize = p.parse_or("--workers", 2)?;
    // Split the machine across the worker pool by default.
    let threads = p.count("--threads")?;
    let threads = threads.unwrap_or((cores() / workers.max(1)).max(1));
    let timeout_secs = positive("--timeout", p.secs_or("--timeout", 300)?)?;
    let exe = std::env::current_exe().map_err(|e| format!("resolving own binary: {e}"))?;
    let mut worker_extra_args = Vec::new();
    if p.has("--fault-crash-once") {
        // CI fault injection: exactly one worker (marker-create wins) dies
        // right after its next claim, exercising the requeue path.
        let marker = spool.join("crash.marker").display().to_string();
        worker_extra_args.extend(["--crash-once".to_string(), marker]);
    }
    let opts = OrchestrateOptions {
        workers,
        worker_cmd: vec![exe.display().to_string(), "worker".to_string()],
        worker_extra_args,
        threads_per_worker: threads,
        compute_bound: !p.has("--no-bound"),
        resume: p.has("--resume"),
        unit_timeout: std::time::Duration::from_secs(timeout_secs as u64),
        max_attempts: p.parse_or("--retries", 3)?,
        ..OrchestrateOptions::default()
    };
    let (outcome, elapsed) =
        timed(|| rideshare::bench::orchestrate(&spool, &scenarios, &policies, &opts));
    let outcome = outcome.map_err(|e| e.to_string())?;

    println!("{}", outcome.report.render());
    println!(
        "{} cells ({} scenarios × {} policies) over {workers} worker process(es), \
         {} unit(s) resumed, {} requeue(s), {} respawn(s)",
        outcome.report.cells.len(),
        scenarios.len(),
        policies.len(),
        outcome.resumed,
        outcome.requeues,
        outcome.respawns,
    );
    if !p.has("--canonical") {
        println!("        {elapsed:.2}s wall");
    }
    // The merged report carries no wall-times (workers publish the
    // canonical form), so both outputs are always canonical.
    write_reports(p, &outcome.report, false)
}

/// The child side of `orchestrate`: claims spool units until the catalog
/// is drained. An injected crash (the crash-safety tests' flags) exits
/// with code 86, leaving the claim orphaned for the parent to recover.
fn worker(p: &Parsed<'_>) -> Result<(), String> {
    let own_pid = || std::process::id().to_string();
    let opts = WorkerOptions {
        spool: PathBuf::from(p.required("--spool")),
        id: p.value("--id").map_or_else(own_pid, str::to_string),
        threads: p.count("--threads")?.unwrap_or(1),
        poll_interval: std::time::Duration::from_millis(25),
        crash_once: p.value("--crash-once").map(PathBuf::from),
        crash_on_unit: p.value("--crash-on-unit").map(str::to_string),
    };
    match run_worker(&opts).map_err(|e| e.to_string())? {
        WorkerOutcome::Drained { units_done } => {
            println!("worker: spool drained, ran {units_done} unit(s)");
            Ok(())
        }
        WorkerOutcome::CrashRequested => {
            eprintln!("worker: injected crash, abandoning claim");
            std::process::exit(86);
        }
    }
}

/// What `replay` and `serve` parse alike: the SHARDING flag group, the
/// `--policy`, and the region geometry of the day they dispatch.
struct StreamRun {
    policy: PolicySpec,
    /// The policy in its shard-stable streaming form.
    spec: ShardPolicySpec,
    shards: ShardOptions,
    /// The day's shape, sliced into the `--regions` service regions.
    geometry: TraceConfig,
    /// One region per box of `geometry`.
    partitioner: BoxPartitioner,
}

impl StreamRun {
    /// Sharding is lossless only over disjoint service regions (see
    /// ARCHITECTURE.md), so `--shards N` defaults to N regions and
    /// `--regions K` decouples the two (K ≥ N regions fold onto N shards
    /// round-robin). `geometry` builds the day's shape over K regions.
    fn parse(
        p: &Parsed<'_>,
        geometry: impl FnOnce(usize) -> Result<TraceConfig, String>,
    ) -> Result<Self, String> {
        let shards: usize = p.parse_or("--shards", 1)?;
        let regions: usize = p.parse_or("--regions", shards)?;
        if regions < shards {
            return Err(format!(
                "--regions {regions} < --shards {shards}: a shard would own no region"
            ));
        }
        // Typed zero-shard rejection — the partitioner would `% 0` otherwise.
        let options = ShardOptions::try_new(shards).map_err(|e| format!("--shards: {e}"))?;
        let (policy, spec) = online_policy(p)?;
        let geometry = geometry(regions)?;
        Ok(StreamRun {
            policy,
            spec,
            shards: options.validate(false),
            partitioner: BoxPartitioner::new(geometry.region_boxes()),
            geometry,
        })
    }

    /// The daemon `replay` and `serve` both dispatch through: the
    /// geometry's speed model, the pruning grid over its regions' union
    /// box, and the region partitioner for `--shards` N > 1
    /// ([`ServeDaemon::run`] alone picks one engine or the N shards).
    /// `cadence` brings the day length and snapshot schedule; its shard
    /// options are replaced by the run's.
    fn daemon(&self, cadence: ServeConfig) -> ServeDaemon<'_> {
        let grid = StreamOptions::default().grid(self.geometry.bounding_box());
        let config = cadence.shard_options(self.shards.stream(grid));
        let daemon = ServeDaemon::new(self.geometry.speed_model(), self.spec, config);
        daemon.with_partitioner(&self.partitioner)
    }

    /// Wraps `inner` in the telemetry recorder when `--tsdb-dir` is given:
    /// per-window deltas persist to the store (labels: `--tsdb-scenario`
    /// or the subcommand, the parsed policy, the region/shard counts) while
    /// every callback is forwarded unchanged. Otherwise a pass-through.
    fn recorder<S: StreamSink>(&self, p: &Parsed<'_>, inner: S) -> Result<TsdbRecorder<S>, String> {
        let Some(dir) = p.value("--tsdb-dir") else {
            return Ok(TsdbRecorder::passthrough(inner));
        };
        let store = TsdbStore::open(Path::new(dir)).map_err(|e| format!("tsdb: {e}"))?;
        let scenario = p.value("--tsdb-scenario").unwrap_or(p.cmd.name);
        // The label is the policy's, not its spelling: `maxMargin` ≡ `margin`
        // and `batch-180s` ≡ `batch-3m` each land in one series.
        let policy = match self.policy {
            PolicySpec::MaxMargin => "margin".to_string(),
            other => other.label(),
        };
        let labels = RunLabels::new(
            scenario,
            &policy,
            self.geometry.region_count(),
            self.shards.shards,
        );
        Ok(TsdbRecorder::new(store, labels, inner))
    }

    /// The report `replay` and `serve` print alike (the serve-equivalence
    /// CI cell diffs the two modulo the subcommand prefix).
    fn report(&self, p: &Parsed<'_>, metrics: &StreamMetrics, summary: &StreamSummary) {
        if !p.has("--quiet-table") {
            println!("{}", metrics.render());
        }
        println!(
            "{}: served {}/{} ({:.1}%), revenue {:.2}, profit {:.2}",
            p.cmd.name,
            summary.served,
            summary.tasks,
            metrics.service_rate() * 100.0,
            metrics.revenue(),
            metrics.profit(),
        );
        if let (Some(wait), Some(income)) = (
            metrics.mean_wait_mins(),
            metrics.mean_income_per_active_driver(),
        ) {
            println!(
                "        mean wait {wait:.1} min, deadhead {:.1} km, {} active drivers, \
                 {income:.2} mean income",
                metrics.total_deadhead_km(),
                metrics.active_drivers(),
            );
        }
        println!(
            "        {} region(s) × {} shard(s); peak resident state: {} held orders + {} \
             drivers ({} freed) (O(active + drivers), trace never materialised)",
            self.geometry.region_count(),
            self.shards.shards,
            summary.peak_held_tasks,
            summary.drivers,
            summary.compacted_drivers,
        );
    }
}

/// The report's tail: the wall-clock line `--canonical` drops, and one
/// line naming what a `--tsdb-dir` run persisted (stable text, so
/// recorded and unrecorded runs differ only by this line).
fn report_rate(p: &Parsed<'_>, tasks: usize, elapsed: f64, store: Option<&TsdbStore>) {
    if !p.has("--canonical") {
        let rate = tasks as f64 / elapsed.max(1e-9);
        println!("        {rate:.0} tasks/s over {elapsed:.2}s");
    }
    if let Some(store) = store {
        let (series, dir) = (store.series().count(), store.dir().display());
        println!("        tsdb: recorded {series} series to {dir}");
    }
}

fn replay(p: &Parsed<'_>) -> Result<(), String> {
    use rideshare::online::wire_to_event;
    use rideshare::trace::rtb::RtbSlice;

    let run = StreamRun::parse(p, |regions| trace_config(p, (100_000, 450), regions))?;
    // 24-hour days, no snapshots, and hooks that do nothing: the store is
    // sealed once, by `finish`, not at each day's end as `serve` seals it.
    let daemon = run.daemon(ServeConfig::new(run.shards.shards));
    let mut metrics = run.recorder(p, StreamMetrics::hourly())?;

    // One event source, either feed, through the daemon's input guard.
    // `--input FILE.rtb` replaces the generator + pricer with the log
    // `export --format bin` wrote: slurped once, decoded zero-copy, so only
    // the dispatch engine runs in the hot loop (decisions byte-identical to
    // the generated feed over the same trace — the rtb_equivalence battery
    // pins this). A decode error parks here until the engines drain.
    let input = p.value("--input");
    let rtb_data = match input {
        Some(path) => std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?,
        None => Vec::new(),
    };
    let decode_err = std::cell::RefCell::new(None);
    let events: Box<dyn Iterator<Item = StreamEvent> + '_> = match input {
        Some(path) => {
            let mut slice = RtbSlice::new(&rtb_data).map_err(|e| format!("{path}: {e}"))?;
            let parked = &decode_err;
            Box::new(std::iter::from_fn(move || match slice.next() {
                Ok(wire) => wire.and_then(wire_to_event),
                Err(e) => {
                    *parked.borrow_mut() = Some(e);
                    None
                }
            }))
        }
        None => Box::new(priced_events(run.geometry.stream(), &surge_options(p)?)),
    };
    let (outcome, elapsed) = timed(|| {
        let mut source = IterSource::new(events);
        daemon.run(&mut source, &mut metrics, |_, _| {}, |_, _| {})
    });
    // Flush + dismantle the recorder before any error leaves, as `serve`
    // does: a feed that fails part-way still leaves a store indexing what
    // it recorded. A latched recording error fails the run *after*
    // dispatch completed, like a snapshot write error.
    let finished = metrics.finish();
    if let Some(e) = decode_err.into_inner() {
        return Err(format!("{}: {e}", input.unwrap_or_default()));
    }
    if let Some(e) = outcome.error {
        return Err(format!("ingest: {e}"));
    }
    let (tsdb_store, metrics) = finished.map_err(|e| format!("tsdb: {e}"))?;
    let summary = &outcome.report.summary;
    run.report(p, &metrics, summary);
    report_rate(p, summary.tasks, elapsed, tsdb_store.as_ref());
    Ok(())
}

fn export(p: &Parsed<'_>) -> Result<(), String> {
    use rideshare::online::event_to_wire;
    use rideshare::trace::{rtb, wire};

    let config = trace_config(p, (100_000, 450), p.parse_or("--regions", 1)?)?;
    // A line format, or (`None`) the fixed-width binary `.rtb` record
    // stream replay can consume directly.
    let to_line: Option<fn(&wire::WireEvent) -> String> = match p.value("--format") {
        None | Some("jsonl") => Some(wire::to_json_line),
        Some("csv") => Some(wire::to_csv_line),
        Some("bin") => None,
        Some(_) => return Err(p.bad("--format").into()),
    };
    // The same feed `replay` dispatches, leaving as a log instead of
    // entering an engine, so a daemon ingesting it decides exactly what
    // `replay` decides.
    let mut count = 0usize;
    let events = priced_events(config.stream(), &surge_options(p)?)
        .inspect(|_| count += 1)
        .map(|event| event_to_wire(&event));

    let sink: Box<dyn std::io::Write> = match p.value("--out") {
        Some(path) => {
            Box::new(std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?)
        }
        None => Box::new(Out),
    };
    let mut out = std::io::BufWriter::new(sink);
    let io_err = |e: std::io::Error| format!("writing event log: {e}");
    match to_line {
        Some(to_line) => {
            for event in events.chain([wire::WireEvent::Eos]) {
                writeln!(out, "{}", to_line(&event)).map_err(io_err)?;
            }
            out.flush().map_err(io_err)?;
        }
        None => {
            let mut writer = rtb::RtbWriter::new(out).map_err(io_err)?;
            for event in events {
                writer.write_event(&event).map_err(io_err)?;
            }
            writer.finish().map_err(io_err)?;
        }
    }
    if let Some(path) = p.value("--out") {
        println!("wrote {count} events (+ end-of-stream) to {path}");
    }
    Ok(())
}

fn serve(p: &Parsed<'_>) -> Result<(), String> {
    // The daemon has no trace in hand: `--regions K` reconstructs the
    // region geometry `replay` slices the trace by, so the pruning grid
    // spans the same K regions and the partition (and thus every
    // decision) matches.
    let run = StreamRun::parse(p, |regions| Ok(TraceConfig::porto().with_regions(regions)))?;
    let day_secs = p.span_or("--day-hours", 3600, 24, 1)?;
    let snapshot_secs = p.span_or("--snapshot-mins", 60, 60, 1)?;
    let snapshot_dir = p.value("--snapshot-dir").map(Path::new);
    if let Some(dir) = snapshot_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }

    let mut cadence =
        ServeConfig::new(run.shards.shards).day_length(TimeDelta::from_secs(day_secs));
    if snapshot_dir.is_some() {
        cadence = cadence.snapshot_every(TimeDelta::from_secs(snapshot_secs));
    }
    let daemon = run.daemon(cadence);

    let open_file = |path: &str, format| -> Result<Box<dyn IngestSource>, String> {
        let file = FileSource::open(Path::new(path), format);
        let file = file.map_err(|e| format!("opening {path}: {e}"))?;
        Ok(Box::new(file.follow(p.has("--follow"))))
    };
    let mut source = match p.required("--source").split_once(':') {
        Some(("jsonl", path)) => open_file(path, IngestFormat::Jsonl)?,
        Some(("csv", path)) => open_file(path, IngestFormat::Csv)?,
        Some(("tcp", addr)) => {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
            // Stderr, so canonical stdout diffs stay clean.
            let bound = listener.local_addr().map_err(|e| e.to_string())?;
            eprintln!("serve: listening on {bound}");
            let (conn, peer) = listener.accept().map_err(|e| format!("accepting: {e}"))?;
            eprintln!("serve: ingesting from {peer}");
            Box::new(TcpSource::from_stream(conn))
        }
        _ => return Err(p.bad("--source").into()),
    };

    let mut sink = run.recorder(p, MetricsJournal::hourly())?;
    // Both hooks write files; a RefCell keeps the shared "first write
    // error" without making the helper uniquely borrowed by one closure.
    let write_err: std::cell::RefCell<Option<String>> = std::cell::RefCell::new(None);
    let write_snapshot = |name: String, json: String| {
        let Some(dir) = snapshot_dir else { return };
        let path = dir.join(name);
        if let Err(e) = std::fs::write(&path, json + "\n") {
            let e = format!("writing {}: {e}", path.display());
            write_err.borrow_mut().get_or_insert(e);
        }
    };
    let (outcome, elapsed) = timed(|| {
        daemon.run(
            source.as_mut(),
            &mut sink,
            |p, sink: &mut TsdbRecorder<MetricsJournal>| {
                let json = sink.inner().cumulative().to_canonical_json();
                write_snapshot(format!("snap-{:05}.json", p.seq), json);
            },
            |d, sink: &mut TsdbRecorder<MetricsJournal>| {
                let closed = sink.inner_mut().roll_day();
                write_snapshot(format!("day-{:05}.json", d.day), closed.to_canonical_json());
                // Day rollover is the store's durability boundary: seal open
                // chunks and rewrite the index, so a killed daemon keeps
                // every closed day. Errors latch like snapshot write errors.
                if let Err(e) = sink.flush_store() {
                    write_err.borrow_mut().get_or_insert(format!("tsdb: {e}"));
                }
            },
        )
    });
    let report = &outcome.report;
    let (tsdb_store, journal) = sink.finish().map_err(|e| format!("tsdb: {e}"))?;
    let metrics = journal.cumulative();
    write_snapshot("final.json".to_string(), metrics.to_canonical_json());

    run.report(p, metrics, &report.summary);
    println!(
        "        {} event(s), {} window(s), {} day(s) rolled, {} snapshot(s); stop: {}",
        report.events,
        report.windows,
        report.days,
        report.snapshots,
        match report.stop {
            ServeStop::Drained => "drained",
            ServeStop::Shutdown => "shutdown",
            ServeStop::Error => "ingest error",
        },
    );
    report_rate(p, report.summary.tasks, elapsed, tsdb_store.as_ref());
    if let Some(e) = write_err.into_inner() {
        return Err(e);
    }
    outcome
        .error
        .map_or(Ok(()), |e| Err(format!("ingest: {e}")))
}

/// Range queries over a recorded telemetry store.
fn query(p: &Parsed<'_>) -> Result<(), String> {
    // A range no query can have is refused as the flag it is, before
    // `run_query` reports it as a damaged index.
    let (from, to) = (p.secs_or("--from", i64::MIN)?, p.secs_or("--to", i64::MAX)?);
    let step = p.secs_or("--step", 3600)?;
    if step < 1 {
        return Err(p.bad("--step").into());
    }
    if to < from {
        return Err(p.bad("--to").into());
    }
    let dir = Path::new(p.required("--tsdb"));
    // Querying is read-only: a directory that holds no store is an error,
    // not an invitation to create an empty one (which `open` would do).
    if !dir.join("index.json").is_file() {
        let what = if dir.is_dir() {
            "store"
        } else {
            "store directory"
        };
        return Err(format!("query: --tsdb: no {what} at {}", dir.display()));
    }
    let store = TsdbStore::open(dir).map_err(|e| format!("tsdb: {e}"))?;

    if p.has("--list") {
        let row = |id: &str, samples: &str, first: &str, last: &str, series: &str| {
            println!("{id:>5} | {samples:>8} | {first:>10} | {last:>10} | {series}");
        };
        row("id", "samples", "first", "last", "series");
        let mut total: u64 = 0;
        for (key, info) in store.series() {
            let time = |t: Option<i64>| t.map_or_else(|| "-".to_string(), |t| t.to_string());
            let (id, samples) = (info.id.to_string(), info.samples.to_string());
            let (first, last) = (time(info.first_t), time(info.last_t));
            row(&id, &samples, &first, &last, &key.canonical());
            total += info.samples;
        }
        println!("{} series, {total} samples", store.series().count());
        return Ok(());
    }

    let filter = p.value("--filter").map_or(Ok(LabelFilter::any()), |s| {
        LabelFilter::parse(s).map_err(|e| format!("--filter: {e}"))
    })?;
    let agg = p.value("--agg").map_or(Some(Agg::Sum), Agg::parse);
    let agg = agg.ok_or_else(|| p.bad("--agg"))?;
    // The default range is the whole store: pre-epoch samples (bucket 0
    // absorbs pre-epoch publishes, so rejections can land at negative
    // stream time) must count, or query totals drift from the
    // accumulator totals the equivalence battery pins them to.
    let q = RangeQuery {
        filter,
        from,
        to,
        step,
    };
    let result = run_query(&store, &q).map_err(|e| format!("query: {e}"))?;
    if p.has("--canonical") {
        print!("{}", rideshare::tsdb::to_canonical_json(&q, agg, &result));
    } else {
        print!("{}", rideshare::tsdb::query::render_table(&q, agg, &result));
        let filter = match q.filter.canonical() {
            f if f.is_empty() => f,
            f => format!(" (filter {f})"),
        };
        println!("query: {} series merged{filter}", result.matched.len());
    }
    Ok(())
}

/// A figure's error as a subcommand's: its own (`ErrorKind::Other`, such
/// as an exact solve that failed) as it is, anything else as the stdout
/// write that failed (a closed pipe never gets here: [`Out`] has ended
/// the process by then).
fn figure(printed: std::io::Result<()>) -> Result<(), String> {
    printed.map_err(|e| match e.kind() {
        std::io::ErrorKind::Other => e.to_string(),
        _ => format!("writing stdout: {e}"),
    })
}

fn fig2(p: &Parsed<'_>) -> Result<(), String> {
    figure(figures::fig2(&mut Out, p.count("--depth")?.unwrap_or(6)))
}

fn fig3_4(p: &Parsed<'_>) -> Result<(), String> {
    let trips = p.count("--trips")?.unwrap_or(20_000);
    figure(figures::fig3_4(&mut Out, trips))
}

fn fig5(p: &Parsed<'_>) -> Result<(), String> {
    let (tasks, model) = (p.count("--tasks")?, driver_model(p)?);
    figure(figures::fig5(&mut Out, tasks, p.has("--quick"), model))
}

fn fig6_9(p: &Parsed<'_>) -> Result<(), String> {
    let tasks = p.count("--tasks")?;
    figure(figures::fig6_9(&mut Out, tasks, p.has("--quick")))
}

fn small_scale(p: &Parsed<'_>) -> Result<(), String> {
    let seeds = p.count("--seeds")?.unwrap_or(5);
    figure(figures::small_scale(&mut Out, seeds))
}

fn ablations(p: &Parsed<'_>) -> Result<(), String> {
    figure(figures::ablations(&mut Out, p.has("--quick")))
}
