//! Figures 3 & 4 — travel-time and travel-distance distributions.
//!
//! The paper plots the marginal distributions of trip travel time (Fig. 3)
//! and travel distance (Fig. 4) of the Porto trace and observes that both
//! "exhibit the shape following the power law distribution". This binary
//! generates the synthetic trace, prints log-binned densities for both
//! marginals, and reports the maximum-likelihood power-law exponent so the
//! shape claim can be checked quantitatively.
//!
//! Usage: `cargo run --release -p rideshare-bench --bin
//!         fig3_4_distributions -- [trips]`

use rideshare_bench::args::BinUsage;
use rideshare_bench::outln;
use rideshare_metrics::render_table;
use rideshare_trace::stats::{ccdf, fit_power_law, summarize, Histogram};
use rideshare_trace::{DriverModel, TraceConfig};

const USAGE: BinUsage = BinUsage {
    bin: "fig3_4_distributions",
    counts: &["trips"],
    switches: &[],
    keys: &[],
};

fn main() {
    let trips = USAGE.from_env().count(0).unwrap_or(20_000);

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
        "Fig. 3 — travel time distribution (minutes)",
        &times_min,
        1.0,
    );
    outln!();
    print_figure("Fig. 4 — travel distance distribution (km)", &dists_km, 1.0);
}

fn print_figure(title: &str, xs: &[f64], fit_xmin: f64) {
    outln!("== {title} ==");
    let s = summarize(xs).expect("non-empty sample");
    outln!(
        "n = {}   mean = {:.2}   p50 = {:.2}   p90 = {:.2}   p99 = {:.2}   max = {:.2}",
        s.count,
        s.mean,
        s.p50,
        s.p90,
        s.p99,
        s.max
    );
    match fit_power_law(xs, fit_xmin) {
        Some(alpha) => outln!("power-law MLE exponent (x ≥ {fit_xmin}): α̂ = {alpha:.3}"),
        None => outln!("power-law fit: insufficient tail data"),
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
    outln!("{}", render_table(&["bin", "center", "density"], &rows));

    // A handful of CCDF anchor points for the log-log tail plot.
    let tail = ccdf(xs);
    let picks = [0.5, 0.1, 0.01];
    for p in picks {
        if let Some((x, _)) = tail.iter().find(|(_, frac)| *frac <= p) {
            outln!("CCDF: P(X > {x:.2}) ≈ {p}");
        }
    }
}
