//! Figure 2 / Lemma 3 — tightness of the 1/(D+1) approximation ratio.
//!
//! Builds the geometric adversarial family of §IV-B for a sweep of
//! diameters `D`, runs GA and the exact solver on each instance, and
//! reports the achieved ratio against the theoretical `1/(D+1)` floor.
//!
//! Usage: `rideshare fig2 [--depth D]`

use std::io::{self, Write};

use rideshare_core::tightness::fig2_instance;
use rideshare_core::{solve_exact, solve_greedy, Objective};
use rideshare_metrics::render_table;

/// Prints the Fig. 2 table for diameters `1..=max_d`.
///
/// # Errors
///
/// What writing to `out` returns, and an [`io::ErrorKind::Other`] naming
/// the depth whose exact solve failed or did not prove its optimum.
pub fn fig2(out: &mut dyn Write, max_d: usize) -> io::Result<()> {
    let epsilon = 0.02;

    writeln!(
        out,
        "== Fig. 2 — tightness of GA's 1/(D+1) ratio (ε = {epsilon}) =="
    )?;
    let mut rows = Vec::new();
    for d in 1..=max_d {
        let inst = fig2_instance(d, epsilon);
        let ga = solve_greedy(&inst.market, Objective::Profit);
        let ga_profit = ga
            .assignment
            .objective_value(&inst.market, Objective::Profit)
            .as_f64();
        let exact = solve_exact(&inst.market, Objective::Profit)
            .map_err(|e| io::Error::other(format!("fig2: D = {d}: {e}")))?;
        if !exact.proven_optimal {
            let reason = format!("fig2: D = {d}: optimum not proven within the node budget");
            return Err(io::Error::other(reason));
        }
        let opt = exact.objective_value;
        let ratio = ga_profit / opt;
        rows.push(vec![
            d.to_string(),
            format!("{ga_profit:.4}"),
            format!("{opt:.4}"),
            format!("{ratio:.4}"),
            format!("{:.4}", 1.0 / (d as f64 + 1.0)),
        ]);
    }
    writeln!(
        out,
        "{}",
        render_table(&["D", "GA profit", "OPT", "ratio", "1/(D+1)"], &rows)
    )?;
    writeln!(
        out,
        "expected shape: ratio tracks 1/(D+1) from above as ε → 0."
    )
}
