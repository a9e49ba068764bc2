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
//! Usage: `rideshare fig5 [--tasks N] [--quick] [--model hitch|hwh]`
//!
//! `--quick` shrinks the sweep for smoke-testing; `--model` runs one panel
//! only.

use std::io::{self, Write};

use rideshare_core::MarketBuildOptions;
use rideshare_metrics::{render_series, Series};
use rideshare_trace::{DriverModel, TraceConfig};

use super::{sweep_shape, ALGORITHMS};
use crate::{run_sweep, Scenario, ScenarioKind, SweepOptions};

/// Prints Fig. 5: `tasks` orders per point (the paper's 1000 by default,
/// 200 under `quick`), one panel per driver model or `model`'s alone.
/// Progress goes to stderr.
///
/// # Errors
///
/// Only what writing to `out` returns.
pub fn fig5(
    out: &mut dyn Write,
    tasks: Option<usize>,
    quick: bool,
    model: Option<DriverModel>,
) -> io::Result<()> {
    let (tasks, sweep) = sweep_shape(tasks, quick);
    let both = [DriverModel::Hitchhiking, DriverModel::HomeWorkHome];
    let models: &[DriverModel] = model.as_ref().map_or(&both, std::slice::from_ref);

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
        writeln!(
            out,
            "== Fig. 5 ({}) — performance ratio vs Z_f*, {tasks} tasks ==",
            model.label()
        )?;
        let mut series = ALGORITHMS.map(|(legend, _)| Series::new(legend));
        for (&drivers, row) in sweep.iter().zip(&mut rows) {
            for (curve, cell) in series.iter_mut().zip(row) {
                // A worthless market (`Z_f* = 0`) has no ratio: plot 1.
                curve.push(drivers as f64, cell.ratio.unwrap_or(1.0));
            }
        }
        writeln!(out, "{}", render_series("drivers", &series))?;
    }
    writeln!(
        out,
        "expected shape: Greedy ≥ maxMargin ≥ Nearest; hitchhiking ≥ home-work-home."
    )
}
