//! The six workloads, their frozen sizes, and what they share: the Porto
//! trace family, the input files, and the set-up → timed-passes loop.

pub mod offline;
pub mod replay;
pub mod serve;

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use rideshare_core::{Driver, MarketBuildOptions, StreamPricer};
use rideshare_online::{event_to_wire, StreamEvent};
use rideshare_trace::wire::{self, WireEvent};
use rideshare_trace::{rtb, DriverModel, TraceConfig};
use rideshare_types::TimeDelta;

use crate::clock;
use crate::report::{Metrics, Outcome};
use crate::stats::median;

/// One workload: why it exists and how large it is. Sizes are frozen —
/// changing one starts a new ledger.
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub tasks: usize,
    pub drivers: usize,
    pub regions: usize,
    pub policy: &'static str,
}

pub const SPECS: [Spec; 6] = [
    Spec {
        name: "replay-sparse",
        why: "BENCH_7 regime, full pipeline: 1M tasks x 450 drivers x 4 regions, 0.4% served; generation + pricing dominate, the engine only rejects",
        tasks: 1_000_000,
        drivers: 450,
        regions: 4,
        policy: "margin",
    },
    Spec {
        name: "replay-dense",
        why: ".rtb-fed 60k tasks x 6k drivers, most orders served: candidates, policy and commit dominate and generation is absent",
        tasks: 60_000,
        drivers: 6_000,
        regions: 1,
        policy: "margin",
    },
    Spec {
        name: "replay-batch",
        why: ".rtb-fed 25k tasks x 2.5k drivers under batch-3m: same engine and candidate code, orders held and decided per window",
        tasks: 25_000,
        drivers: 2_500,
        regions: 1,
        policy: "batch-3m",
    },
    Spec {
        name: "serve-tcp",
        why: "250k-task sparse trace as binary frames over loopback TCP into the daemon with tsdb recorder and snapshots: ingest, guard, sink and tsdb dominate",
        tasks: 250_000,
        drivers: 450,
        regions: 4,
        policy: "margin",
    },
    Spec {
        name: "serve-jsonl",
        why: "the serve-tcp events as a JSONL file through FileSource into the same daemon: the text parser dominates, so ingest differences stand alone",
        tasks: 250_000,
        drivers: 450,
        regions: 4,
        policy: "margin",
    },
    Spec {
        name: "offline-fig5",
        why: "paper Fig. 5 row: run_sweep with the LP bound over 1000 tasks x {20,40,60,80} drivers; Z_f* column generation dominates, online layers are idle",
        tasks: 1_000,
        drivers: 80,
        regions: 1,
        policy: "default-set",
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// What one invocation was asked to do.
pub struct Ctx {
    pub seed: u64,
    /// How long the timed passes run, seconds.
    pub seconds: f64,
    /// Divides every size: 1, or 50 under `--smoke`.
    pub shrink: usize,
    /// This run's scratch directory (inputs, stores, snapshots).
    pub dir: PathBuf,
    /// Where span files go.
    pub out_dir: PathBuf,
}

impl Ctx {
    pub fn tasks(&self, spec: &Spec) -> usize {
        (spec.tasks / self.shrink).max(20)
    }

    pub fn drivers(&self, spec: &Spec) -> usize {
        (spec.drivers / self.shrink).max(4)
    }

    /// The Porto trace every streaming workload draws from: hitchhiking
    /// drivers, seeded by `--seed`.
    pub fn trace(&self, spec: &Spec) -> TraceConfig {
        let config = TraceConfig::porto()
            .with_seed(self.seed)
            .with_task_count(self.tasks(spec))
            .with_driver_count(self.drivers(spec), DriverModel::Hitchhiking);
        if spec.regions > 1 {
            config.with_regions(spec.regions)
        } else {
            config
        }
    }
}

pub fn run(spec: &Spec, ctx: &Ctx) -> Result<Outcome, String> {
    match spec.name {
        "replay-sparse" | "replay-dense" | "replay-batch" => replay::run(spec, ctx),
        "serve-tcp" | "serve-jsonl" => serve::run(spec, ctx),
        _ => offline::run(spec, ctx),
    }
}

pub fn run_traced(spec: &Spec, ctx: &Ctx) -> Result<Outcome, String> {
    match spec.name {
        "replay-sparse" | "replay-dense" | "replay-batch" => replay::run_traced(spec, ctx),
        "serve-tcp" | "serve-jsonl" => serve::run_traced(spec, ctx),
        _ => offline::run_traced(spec, ctx),
    }
}

/// Market options of every streaming workload: 30-minute rolling surge.
pub fn build_options() -> MarketBuildOptions {
    MarketBuildOptions {
        surge_window: Some(TimeDelta::from_mins(30)),
        ..MarketBuildOptions::default()
    }
}

/// Runs the generator → pricer pipeline `export` and `replay` share and
/// hands each event to `emit`, drivers first. Nothing is materialised.
pub fn for_each_event(
    config: &TraceConfig,
    mut emit: impl FnMut(&StreamEvent) -> io::Result<()>,
) -> io::Result<u64> {
    let stream = config.stream();
    let mut pricer = StreamPricer::new(
        &build_options(),
        stream.bounding_box(),
        stream.speed(),
        stream.drivers(),
    );
    let mut events = 0;
    for shift in stream.drivers() {
        emit(&StreamEvent::DriverOnline(Driver::from(shift)))?;
        events += 1;
    }
    for trip in stream {
        emit(&StreamEvent::TaskPublished(pricer.price(&trip)))?;
        events += 1;
    }
    Ok(events)
}

fn create(path: &Path) -> io::Result<BufWriter<File>> {
    Ok(BufWriter::with_capacity(1 << 16, File::create(path)?))
}

/// Streams the trace into a `.rtb` file, as `export --format bin` does.
pub fn write_rtb(config: &TraceConfig, path: &Path) -> io::Result<u64> {
    let mut writer = rtb::RtbWriter::new(create(path)?)?;
    let events = for_each_event(config, |e| writer.write_event(&event_to_wire(e)))?;
    let (mut file, _) = writer.finish()?;
    file.flush()?;
    Ok(events)
}

/// Streams the trace into a file of `u32`-length-prefixed frames ending
/// in an end-of-stream frame: the bytes a TCP producer would send.
pub fn write_frames(config: &TraceConfig, path: &Path) -> io::Result<u64> {
    let mut file = create(path)?;
    let events = for_each_event(config, |e| {
        file.write_all(&wire::encode_frame(&event_to_wire(e)))
    })?;
    file.write_all(&wire::encode_frame(&WireEvent::Eos))?;
    file.flush()?;
    Ok(events)
}

/// Streams the trace into a JSONL event log, as `export` does.
pub fn write_jsonl(config: &TraceConfig, path: &Path) -> io::Result<u64> {
    let mut file = create(path)?;
    let events = for_each_event(config, |e| {
        writeln!(file, "{}", wire::to_json_line(&event_to_wire(e)))
    })?;
    writeln!(file, "{}", wire::to_json_line(&WireEvent::Eos))?;
    file.flush()?;
    Ok(events)
}

/// One timed pass: the work it did (orders decided — the numerator of
/// `tasks_per_s`), how long it took, how many operations it attempted and
/// how many of those failed, and a value every pass must reproduce.
pub struct Pass<F> {
    pub tasks: u64,
    pub secs: f64,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: F,
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Timed passes per run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// What [`measure`] found.
pub struct Measured<I, F> {
    pub input: I,
    pub fingerprint: F,
}

/// The shape every untraced run has: set-up (build the inputs, then one
/// warm-up pass) repeated [`SETUP_REPS`] times, then timed passes until
/// `--seconds` have gone by. Fills in `tasks_per_s` (median over passes),
/// `setup_s` (median over repetitions), attempts and failures; every pass
/// must reproduce the warm-up pass's fingerprint.
///
/// Both metrics are restated at the reference machine speed: every timed
/// interval is divided by the mean of [`clock::slowness`] sampled right
/// before and right after it. The wall-clock medians go into the result
/// file beside them.
pub fn measure<I, F: PartialEq>(
    ctx: &Ctx,
    outcome: &mut Outcome,
    mut setup: impl FnMut() -> Result<I, String>,
    mut pass: impl FnMut(&I) -> Result<Pass<F>, String>,
) -> Result<Measured<I, F>, String> {
    let mut slowness = vec![clock::slowness()];
    // The machine's slowness over the interval that just ended.
    let during = |slowness: &mut Vec<f64>| {
        let before = slowness[slowness.len() - 1];
        slowness.push(clock::slowness());
        (before + slowness[slowness.len() - 1]) / 2.0
    };

    let (mut setup_secs, mut setup_wall) = (Vec::new(), Vec::new());
    let mut warm = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let input = setup()?;
        let first = pass(&input)?;
        let secs = start.elapsed().as_secs_f64();
        setup_wall.push(secs);
        setup_secs.push(secs / during(&mut slowness));
        warm = Some((input, first));
    }
    let (input, warm) = warm.expect("SETUP_REPS > 0");

    let (mut rates, mut wall_rates) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while rates.len() < MIN_PASSES || started.elapsed().as_secs_f64() < ctx.seconds {
        let p = pass(&input)?;
        outcome.attempted += p.attempted;
        outcome.failed += p.failed;
        if p.fingerprint != warm.fingerprint {
            outcome.failed += p.attempted - p.failed;
            outcome.problems.push(format!(
                "pass {} did not reproduce the warm-up pass's result",
                rates.len()
            ));
        }
        let rate = p.tasks as f64 / p.secs;
        wall_rates.push(rate);
        rates.push(rate * during(&mut slowness));
    }
    outcome.metrics.put("tasks_per_s", median(&rates));
    outcome.metrics.put("setup_s", median(&setup_secs));
    outcome.info("passes", rates.len().to_string());
    outcome.info("wall_tasks_per_s", format!("{:.1}", median(&wall_rates)));
    outcome.info("wall_setup_s", format!("{:.4}", median(&setup_wall)));
    outcome.info("machine_slowness", format!("{:.4}", median(&slowness)));
    let rounded: Vec<String> = wall_rates.iter().map(|r| format!("{r:.0}")).collect();
    outcome.info("pass_wall_tasks_per_s", rounded.join(" "));
    Ok(Measured {
        input,
        fingerprint: warm.fingerprint,
    })
}

/// Shorthand for turning any displayable error into the `String` the
/// workloads report.
pub fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// The process's peak resident set so far. A traced run reads it right
/// after its untraced passes: from then on the tracer's spans and the
/// extra measurements' buffers are memory the system itself never uses.
pub fn peak_rss(metrics: &mut Metrics) {
    if let Some(rss) = crate::env::peak_rss_mb() {
        metrics.put("peak_rss_mb", rss);
    }
}

/// How much slower the wrappers made the pass.
pub fn overhead_share(metrics: &mut Metrics, untraced_secs: f64, traced_secs: f64) {
    metrics.put(
        "trace_overhead_share",
        (traced_secs - untraced_secs) / traced_secs,
    );
}
