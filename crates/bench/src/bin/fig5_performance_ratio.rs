//! Figure 5 — performance ratio of Greedy / maxMargin / Nearest against
//! the LP upper bound `Z_f*`, for both driver working models.
//!
//! The paper selects 1000 task records from one day and sweeps the number
//! of available drivers from 20 to 300; the left panel uses the
//! "hitchhiking" model, the right panel "home-work-home". The performance
//! ratio reported here is `algorithm profit / Z_f*` (∈ [0, 1], higher is
//! better; the paper plots the same comparison with the axes in its own
//! orientation).
//!
//! Every sweep point is a [`Scenario`] and the figure is one [`run_sweep`]
//! over them — the call `rideshare sweep` makes and the ledger's
//! `offline-fig5` workload times: `Z_f*` per disjoint component, points
//! side by side on all cores. On some home-work-home points (all three
//! `--quick` ones) column generation stops at its round cap; their
//! denominator is then the Lagrangian fallback — a valid upper bound a
//! fraction of a percent above `Z_f*` (`UpperBoundResult::converged` is
//! false there).
//!
//! Usage: `cargo run --release -p rideshare-bench --bin
//!         fig5_performance_ratio -- [tasks] [--quick] [--model hitch|hwh]`
//!
//! `--quick` shrinks the sweep for smoke-testing; `--model` runs one panel
//! only.

use rideshare_bench::args::BinUsage;
use rideshare_bench::{
    outln, run_sweep, PolicySpec, Scenario, ScenarioKind, SweepOptions, DRIVER_SWEEP,
    PAPER_TASK_COUNT,
};
use rideshare_core::MarketBuildOptions;
use rideshare_metrics::{render_series, Series};
use rideshare_trace::{DriverModel, TraceConfig};

const USAGE: BinUsage = BinUsage {
    bin: "fig5_performance_ratio",
    counts: &["tasks"],
    switches: &["--quick"],
    keys: &[("--model", "hitch|hwh")],
};

/// The paper's three algorithms, in legend order.
const ALGORITHMS: [(&str, PolicySpec); 3] = [
    ("Greedy", PolicySpec::Greedy),
    ("maxMargin", PolicySpec::MaxMargin),
    ("Nearest", PolicySpec::Nearest),
];

fn main() {
    let args = USAGE.from_env();
    let quick = args.switch("--quick");
    let tasks = args
        .count(0)
        .unwrap_or(if quick { 200 } else { PAPER_TASK_COUNT });
    let sweep: &[usize] = if quick { &[20, 60, 150] } else { &DRIVER_SWEEP };
    let models: &[DriverModel] = match args.value("--model") {
        None => &[DriverModel::Hitchhiking, DriverModel::HomeWorkHome],
        Some("hitch") => &[DriverModel::Hitchhiking],
        Some("hwh") => &[DriverModel::HomeWorkHome],
        Some(other) => USAGE.refuse(&format!(
            "bad value '{other}' for --model (expected hitch|hwh)"
        )),
    };

    // Panel-major, so the report's cells come back in printing order.
    let points: Vec<Scenario> = models
        .iter()
        .flat_map(|&model| {
            sweep.iter().map(move |&drivers| Scenario {
                name: "fig5",
                summary: "Fig. 5 sweep point",
                kind: ScenarioKind::Trace {
                    config: Box::new(
                        TraceConfig::porto()
                            .with_seed(1907)
                            .with_task_count(tasks)
                            .with_driver_count(drivers, model),
                    ),
                    build: MarketBuildOptions::default(),
                    days: 1,
                },
            })
        })
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    eprintln!(
        "sweeping {} points × {} algorithms on {threads} thread(s)…",
        points.len(),
        ALGORITHMS.len()
    );
    let report = run_sweep(
        &points,
        &ALGORITHMS.map(|(_, policy)| policy),
        SweepOptions {
            threads,
            compute_bound: true,
        },
    );

    // One cell per (point, algorithm), point-major.
    let mut rows = report.cells.chunks(ALGORITHMS.len());
    for model in models {
        outln!(
            "== Fig. 5 ({}) — performance ratio vs Z_f*, {tasks} tasks ==",
            model.label()
        );
        let mut series = ALGORITHMS.map(|(legend, _)| Series::new(legend));
        for (&drivers, row) in sweep.iter().zip(&mut rows) {
            for (curve, cell) in series.iter_mut().zip(row) {
                // A worthless market (`Z_f* = 0`) has no ratio: plot 1.
                curve.push(drivers as f64, cell.ratio.unwrap_or(1.0));
            }
        }
        outln!("{}", render_series("drivers", &series));
    }
    outln!("expected shape: Greedy ≥ maxMargin ≥ Nearest; hitchhiking ≥ home-work-home.");
}
