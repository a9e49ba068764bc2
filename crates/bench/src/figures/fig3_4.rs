//! Figures 3 & 4 — travel-time and travel-distance distributions.
//!
//! The paper plots the marginal distributions of trip travel time (Fig. 3)
//! and travel distance (Fig. 4) of the Porto trace and observes that both
//! "exhibit the shape following the power law distribution". This figure
//! generates the synthetic trace, prints log-binned densities for both
//! marginals, and reports the maximum-likelihood power-law exponent so the
//! shape claim can be checked quantitatively.
//!
//! Usage: `rideshare fig3_4 [--trips N]`

use std::io::{self, Write};

use rideshare_metrics::render_table;
use rideshare_trace::stats::{ccdf, fit_power_law, summarize, Histogram};
use rideshare_trace::{DriverModel, TraceConfig};

/// Prints Figs. 3 and 4 over a synthetic trace of `trips` trips.
///
/// # Errors
///
/// Only what writing to `out` returns.
pub fn fig3_4(out: &mut dyn Write, trips: usize) -> io::Result<()> {
    let trace = TraceConfig::porto()
        .with_seed(1907)
        .with_task_count(trips)
        .with_driver_count(442, DriverModel::HomeWorkHome)
        .generate();

    let times_min: Vec<f64> = trace
        .trips
        .iter()
        .map(|t| t.duration.as_mins_f64())
        .collect();
    let dists_km: Vec<f64> = trace.trips.iter().map(|t| t.distance_km).collect();

    print_figure(
        out,
        "Fig. 3 — travel time distribution (minutes)",
        &times_min,
        1.0,
    )?;
    writeln!(out)?;
    print_figure(
        out,
        "Fig. 4 — travel distance distribution (km)",
        &dists_km,
        1.0,
    )
}

fn print_figure(out: &mut dyn Write, title: &str, xs: &[f64], fit_xmin: f64) -> io::Result<()> {
    writeln!(out, "== {title} ==")?;
    let s = summarize(xs).expect("non-empty sample");
    writeln!(
        out,
        "n = {}   mean = {:.2}   p50 = {:.2}   p90 = {:.2}   p99 = {:.2}   max = {:.2}",
        s.count, s.mean, s.p50, s.p90, s.p99, s.max
    )?;
    match fit_power_law(xs, fit_xmin) {
        Some(alpha) => writeln!(
            out,
            "power-law MLE exponent (x ≥ {fit_xmin}): α̂ = {alpha:.3}"
        )?,
        None => writeln!(out, "power-law fit: insufficient tail data")?,
    }

    let max = xs.iter().copied().fold(f64::MIN, f64::max);
    let mut hist = Histogram::logarithmic(fit_xmin.max(0.1), max + 1.0, 12);
    hist.extend(xs);
    let rows: Vec<Vec<String>> = hist
        .density()
        .iter()
        .zip(hist.edges().windows(2))
        .map(|((center, dens), edge)| {
            vec![
                format!("[{:.2}, {:.2})", edge[0], edge[1]),
                format!("{center:.2}"),
                format!("{dens:.5}"),
            ]
        })
        .collect();
    writeln!(
        out,
        "{}",
        render_table(&["bin", "center", "density"], &rows)
    )?;

    // A handful of CCDF anchor points for the log-log tail plot.
    let tail = ccdf(xs);
    let picks = [0.5, 0.1, 0.01];
    for p in picks {
        if let Some((x, _)) = tail.iter().find(|(_, frac)| *frac <= p) {
            writeln!(out, "CCDF: P(X > {x:.2}) ≈ {p}")?;
        }
    }
    Ok(())
}
