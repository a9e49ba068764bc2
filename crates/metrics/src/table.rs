//! Plain-text tables and series for experiment output.

/// A named data series: `(x, y)` points, e.g. performance ratio over the
/// number of drivers.
#[derive(Clone, PartialEq, Debug)]
pub struct Series {
    /// Curve label (e.g. `"Greedy"`).
    pub label: String,
    /// `(x, y)` points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Returns `true` if `y` never decreases along the series.
    #[must_use]
    pub fn is_non_decreasing(&self) -> bool {
        self.points.windows(2).all(|w| w[0].1 <= w[1].1 + 1e-12)
    }
}

/// Renders an aligned plain-text table.
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
///
/// # Examples
///
/// ```
/// use rideshare_metrics::render_table;
/// let out = render_table(
///     &["drivers", "ratio"],
///     &[vec!["20".into(), "0.71".into()], vec!["300".into(), "0.89".into()]],
/// );
/// assert!(out.contains("drivers"));
/// assert!(out.lines().count() == 4); // header + rule + 2 rows
/// ```
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for (i, r) in rows.iter().enumerate() {
        assert_eq!(
            r.len(),
            headers.len(),
            "row {i} has {} cells for {} headers",
            r.len(),
            headers.len()
        );
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (w, cell) in widths.iter_mut().zip(r) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|h| (*h).to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for r in rows {
        out.push_str(&fmt_row(r, &widths));
        out.push('\n');
    }
    out
}

/// Renders one or more series as a table with a shared x column — the
/// printable form of a paper figure.
///
/// All series must be sampled at the same x values.
///
/// # Panics
///
/// Panics if the series have differing x grids.
#[must_use]
pub fn render_series(x_label: &str, series: &[Series]) -> String {
    if series.is_empty() {
        return String::new();
    }
    let xs: Vec<f64> = series[0].points.iter().map(|p| p.0).collect();
    for s in series {
        let sx: Vec<f64> = s.points.iter().map(|p| p.0).collect();
        assert_eq!(sx, xs, "series '{}' has a different x grid", s.label);
    }
    let labels: Vec<&str> = series.iter().map(|s| s.label.as_str()).collect();
    let mut headers = vec![x_label];
    headers.extend(labels);
    let rows: Vec<Vec<String>> = xs
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let mut row = vec![format_num(x)];
            row.extend(series.iter().map(|s| format_num(s.points[i].1)));
            row
        })
        .collect();
    render_table(&headers, &rows)
}

/// Renders a row × column matrix (e.g. scenario × policy) as an aligned
/// table: the first column holds `row_labels` under the `corner` header,
/// the remaining columns hold `cells`.
///
/// # Panics
///
/// Panics if `cells` is not `row_labels.len()` rows of
/// `col_labels.len()` cells each.
///
/// # Examples
///
/// ```
/// use rideshare_metrics::render_pivot;
/// let out = render_pivot(
///     "scenario",
///     &["porto-day", "delivery"],
///     &["greedy", "nearest"],
///     &[vec!["91.2".into(), "55.0".into()], vec!["40.1".into(), "22.9".into()]],
/// );
/// assert!(out.contains("porto-day"));
/// assert_eq!(out.lines().count(), 4); // header + rule + 2 rows
/// ```
#[must_use]
pub fn render_pivot(
    corner: &str,
    row_labels: &[&str],
    col_labels: &[&str],
    cells: &[Vec<String>],
) -> String {
    assert_eq!(
        cells.len(),
        row_labels.len(),
        "{} cell rows for {} row labels",
        cells.len(),
        row_labels.len()
    );
    let mut headers = vec![corner];
    headers.extend(col_labels);
    let rows: Vec<Vec<String>> = row_labels
        .iter()
        .zip(cells)
        .map(|(label, row)| {
            let mut r = vec![(*label).to_string()];
            r.extend(row.iter().cloned());
            r
        })
        .collect();
    render_table(&headers, &rows)
}

fn format_num(v: f64) -> String {
    if (v - v.round()).abs() < 1e-9 && v.abs() < 1e9 {
        format!("{}", v.round() as i64)
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_monotonicity_helpers() {
        let mut up = Series::new("up");
        up.push(1.0, 1.0);
        up.push(2.0, 2.0);
        assert!(up.is_non_decreasing());
        let mut down = Series::new("down");
        down.push(1.0, 2.0);
        down.push(2.0, 1.0);
        assert!(!down.is_non_decreasing());
    }

    #[test]
    fn table_alignment() {
        let out = render_table(
            &["n", "value"],
            &[
                vec!["5".into(), "1.5".into()],
                vec!["500".into(), "12.25".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows same width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row 0 has")]
    fn mismatched_row_rejected() {
        let _ = render_table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn pivot_prefixes_row_labels() {
        let out = render_pivot(
            "scenario",
            &["a", "b"],
            &["p1", "p2"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("scenario") && lines[0].contains("p2"));
        assert!(lines[2].contains('a') && lines[2].contains('2'));
    }

    #[test]
    #[should_panic(expected = "cell rows for")]
    fn pivot_row_count_mismatch_rejected() {
        let _ = render_pivot("x", &["a"], &["p"], &[]);
    }

    #[test]
    fn series_rendering() {
        let mut a = Series::new("Greedy");
        a.push(20.0, 0.7111);
        a.push(40.0, 0.75);
        let mut b = Series::new("Nearest");
        b.push(20.0, 0.55);
        b.push(40.0, 0.6);
        let out = render_series("drivers", &[a, b]);
        assert!(out.contains("Greedy"));
        assert!(out.contains("0.7111"));
        assert!(out.contains("20"));
        assert_eq!(out.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "different x grid")]
    fn series_grid_mismatch_rejected() {
        let mut a = Series::new("a");
        a.push(1.0, 1.0);
        let mut b = Series::new("b");
        b.push(2.0, 1.0);
        let _ = render_series("x", &[a, b]);
    }

    #[test]
    fn integer_formatting() {
        assert_eq!(format_num(20.0), "20");
        assert_eq!(format_num(0.5), "0.5000");
    }
}
