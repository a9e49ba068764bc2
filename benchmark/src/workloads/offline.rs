//! `offline-fig5`: the paper's Fig. 5 row — every policy's profit against
//! the LP bound `Z_f*` at 1000 tasks and a ladder of driver counts — as
//! one `run_sweep` call. Column generation for `Z_f*` is nearly all of it.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use rideshare_bench::{
    orchestrate, run_sweep, run_worker, OrchestrateOptions, PolicySpec, Scenario, ScenarioKind,
    SweepOptions, SweepReport, WorkerOptions, WorkerOutcome,
};
use rideshare_core::{
    components_upper_bound, disjoint_components, MarketBuildOptions, Objective, UpperBoundOptions,
};
use rideshare_trace::{DriverModel, TraceConfig};

use super::{err, measure, overhead_share, peak_rss, Ctx, Pass, Spec};
use crate::report::Outcome;
use crate::spans::{Busy, Tracer};

/// Driver counts of the four scenarios. Column count — and with it the
/// bound's cost — grows faster than linearly in drivers, so the ladder
/// stops below 100.
const LADDER: [(&str, usize); 4] = [
    ("fig5-n20", 20),
    ("fig5-n40", 40),
    ("fig5-n60", 60),
    ("fig5-n80", 80),
];

fn scenarios(spec: &Spec, ctx: &Ctx) -> Vec<Scenario> {
    LADDER
        .iter()
        .map(|&(name, drivers)| Scenario {
            name,
            summary: "Fig. 5 sweep point (hitchhiking drivers)",
            kind: ScenarioKind::Trace {
                config: Box::new(
                    TraceConfig::porto()
                        .with_seed(1907)
                        .with_task_count(ctx.tasks(spec))
                        .with_driver_count((drivers / ctx.shrink).max(4), DriverModel::Hitchhiking),
                ),
                build: MarketBuildOptions {
                    wtp_seed: ctx.seed,
                    ..MarketBuildOptions::default()
                },
                days: 1,
            },
        })
        .collect()
}

const SWEEP: SweepOptions = SweepOptions {
    threads: 1,
    compute_bound: true,
};

/// One sweep as a pass: an operation is a cell; a cell fails when the
/// offline greedy beats the bound that is supposed to dominate it.
fn sweep_pass(scenarios: &[Scenario]) -> (SweepReport, Pass<String>) {
    let start = Instant::now();
    let report = run_sweep(scenarios, &PolicySpec::default_set(), SWEEP);
    let secs = start.elapsed().as_secs_f64();
    let failed = report
        .cells
        .iter()
        .filter(|c| c.policy == "greedy" && c.ratio.is_some_and(|r| r > 1.0 + 1e-6))
        .count();
    let pass = Pass {
        tasks: report.cells.iter().map(|c| c.tasks as u64).sum(),
        secs,
        attempted: report.cells.len() as u64,
        failed: failed as u64,
        fingerprint: report.to_json(false),
    };
    (report, pass)
}

pub fn run(spec: &Spec, ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    measure(
        ctx,
        &mut outcome,
        || Ok(scenarios(spec, ctx)),
        |scenarios| Ok(sweep_pass(scenarios).1),
    )?;
    Ok(outcome)
}

pub fn run_traced(spec: &Spec, ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let scenarios = scenarios(spec, ctx);
    let (_, untraced) = sweep_pass(&scenarios);
    peak_rss(&mut outcome.metrics);
    // No wrapper reaches inside `run_sweep`: the traced pass is the same
    // call, read cell by cell, so the overhead is run-to-run noise.
    let (report, traced) = sweep_pass(&scenarios);
    outcome.check(traced.fingerprint == untraced.fingerprint, || {
        "two sweeps of the same scenarios differ".into()
    });
    outcome.attempted = traced.attempted;
    outcome.failed = traced.failed;
    overhead_share(&mut outcome.metrics, untraced.secs, traced.secs);
    let metrics = &mut outcome.metrics;
    metrics.put("bench.sweep.wall_s", traced.secs);
    let cell_ms = |greedy: bool| -> f64 {
        report
            .cells
            .iter()
            .filter(|c| (c.policy == "greedy") == greedy)
            .map(|c| c.wall_ms)
            .sum()
    };
    metrics.put("core.greedy.solve_ms", cell_ms(true));
    metrics.put("online.simulator.cell_ms_sum", cell_ms(false));

    // What the sweep does before its cells, called directly: build each
    // market, split it, bound it.
    let mut tracer = Tracer::new(1);
    let (mut build, mut bound) = (Busy::default(), Busy::default());
    let (mut rounds, mut columns, mut converged) = (0usize, 0usize, true);
    for (id, scenario) in scenarios.iter().enumerate() {
        let start = Instant::now();
        let market = scenario.build_market();
        let built = Instant::now();
        let components = disjoint_components(&market);
        let result = components_upper_bound(
            &components,
            Objective::Profit,
            UpperBoundOptions::default(),
            1,
        )
        .map_err(err("column generation"))?;
        let end = Instant::now();
        build.add(built - start);
        bound.add(end - built);
        rounds += result.rounds;
        columns += result.columns;
        converged &= result.converged;
        let root = tracer.span("scenario", id as u64, start, end, None);
        tracer.span("core.market.build", id as u64, start, built, Some(root));
        tracer.span("core.upper_bound", id as u64, built, end, Some(root));
    }
    outcome.check(converged, || {
        "Z_f* column generation did not converge".into()
    });
    let metrics = &mut outcome.metrics;
    metrics.put("core.market.build_ms", build.ms());
    metrics.put("core.upper_bound.ms", bound.ms());
    metrics.put("core.upper_bound.rounds", rounds as f64);
    metrics.put("core.upper_bound.columns", columns as f64);
    metrics.put(
        "core.upper_bound.ms_per_round",
        bound.ms() / rounds.max(1) as f64,
    );
    // The bound was timed here, the cells inside the sweep: its share is
    // of what the two account for together, and how much of the sweep's
    // own wall time that is says how well the two executions agree.
    let attributed_ms = build.ms() + bound.ms() + cell_ms(true) + cell_ms(false);
    metrics.put("core.upper_bound.share", bound.ms() / attributed_ms);
    metrics.put(
        "trace.attributed_share",
        attributed_ms / (traced.secs * 1e3),
    );

    report_spool_overhead(&mut outcome, ctx)?;
    tracer
        .write_json(
            &ctx.out_dir.join(format!("trace-{}.json", spec.name)),
            spec.name,
        )
        .map_err(err("writing spans"))?;
    Ok(outcome)
}

/// `orchestrate` with one worker process against an in-process
/// `run_sweep` of the same catalog (less porto-large, whose bound alone
/// is half a minute): what the spool, the claims and the process
/// boundary cost. The worker is this binary's own `spool-worker`.
fn report_spool_overhead(outcome: &mut Outcome, ctx: &Ctx) -> Result<(), String> {
    let catalog: Vec<Scenario> = Scenario::catalog()
        .into_iter()
        .filter(|s| s.name != "porto-large")
        .collect();
    let policies = PolicySpec::default_set();
    let start = Instant::now();
    let in_process = run_sweep(&catalog, &policies, SWEEP);
    let in_process_ms = start.elapsed().as_secs_f64() * 1e3;

    let exe = std::env::current_exe().map_err(err("resolving own binary"))?;
    let options = OrchestrateOptions {
        workers: 1,
        worker_cmd: vec![exe.display().to_string(), "spool-worker".into()],
        threads_per_worker: 1,
        ..OrchestrateOptions::default()
    };
    let start = Instant::now();
    let spooled = orchestrate(&ctx.dir.join("spool"), &catalog, &policies, &options)
        .map_err(err("orchestrate"))?;
    let spooled_ms = start.elapsed().as_secs_f64() * 1e3;
    outcome.check(
        spooled.report.to_json(false) == in_process.to_json(false),
        || "orchestrated sweep differs from the in-process sweep".into(),
    );
    outcome.metrics.put(
        "bench.distrib.spool_overhead_ms",
        spooled_ms - in_process_ms,
    );
    outcome
        .metrics
        .put("bench.distrib.units", spooled.units as f64);
    Ok(())
}

/// `spool-worker --spool DIR --id ID --threads N`: the child side of
/// [`report_spool_overhead`].
pub fn spool_worker(args: &[String]) -> Result<bool, String> {
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("spool-worker needs {flag}"))
    };
    let options = WorkerOptions {
        spool: PathBuf::from(value("--spool")?),
        id: value("--id")?.clone(),
        threads: value("--threads")?
            .parse()
            .map_err(err("spool-worker --threads"))?,
        poll_interval: Duration::from_millis(25),
        crash_once: None,
        crash_on_unit: None,
    };
    match run_worker(&options).map_err(err("spool worker"))? {
        WorkerOutcome::Drained { .. } => Ok(true),
        WorkerOutcome::CrashRequested => Ok(false),
    }
}
