//! `compare A.json B.json`: B against A, per end-to-end metric and
//! workload, against the bounds `BENCHMARK.json` fixes. This is the tool
//! behind the repeatability criterion (two sets of runs of one commit)
//! and behind later parent-versus-change runs.

use std::path::Path;

use rideshare_trace::wire::{parse_json, JsonValue};

struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn load(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds(benchmark_json: &Path) -> Result<Vec<Bound>, String> {
    let doc = load(benchmark_json)?;
    let list = doc
        .get("end_to_end")
        .and_then(JsonValue::arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(JsonValue::as_str);
            Some(Bound {
                name: text("name")?.to_string(),
                higher_is_better: text("better")? == "higher",
                bound: m.get("bound")?.num()?.parse().ok()?,
            })
        })
        .collect::<Option<Vec<Bound>>>()
        .ok_or_else(|| "malformed end_to_end entry in BENCHMARK.json".to_string())
}

/// `(workload name, metric name → value)` for every workload of a result.
fn workloads(doc: &JsonValue) -> Vec<(String, Vec<(String, f64)>)> {
    let Some(list) = doc.get("workloads").and_then(JsonValue::arr) else {
        return Vec::new();
    };
    list.iter()
        .filter_map(|w| {
            let name = w.get("name")?.as_str()?.to_string();
            let JsonValue::Obj(fields) = w.get("metrics")? else {
                return None;
            };
            let metrics = fields
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.num()?.parse().ok()?)))
                .collect();
            Some((name, metrics))
        })
        .collect()
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// better).
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Prints the comparison; `Ok(true)` when every end-to-end metric of
/// every workload both files hold is within its bound.
pub fn compare(a: &Path, b: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let bounds = bounds(benchmark_json)?;
    let (a_doc, b_doc) = (load(a)?, load(b)?);
    let b_workloads = workloads(&b_doc);
    let mut within = true;
    let mut compared = 0;
    print!("{:<16}", "workload");
    for bound in &bounds {
        print!(
            " {:>28}",
            format!("{} (≤{:.0}%)", bound.name, bound.bound * 100.0)
        );
    }
    println!();
    for (name, a_metrics) in workloads(&a_doc) {
        let Some((_, b_metrics)) = b_workloads.iter().find(|(n, _)| *n == name) else {
            continue;
        };
        print!("{name:<16}");
        let value = |metrics: &[(String, f64)], key: &str| {
            metrics.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
        };
        for bound in &bounds {
            match (
                value(&a_metrics, &bound.name),
                value(b_metrics, &bound.name),
            ) {
                (Some(av), Some(bv)) if av != 0.0 => {
                    let worse = worse_by(av, bv, bound.higher_is_better);
                    let out = worse > bound.bound;
                    within &= !out;
                    compared += 1;
                    let flag = if out { " OUT" } else { "" };
                    print!(" {:>28}", format!("{:+.2}% worse{flag}", worse * 100.0));
                }
                _ => print!(" {:>28}", "-"),
            }
        }
        println!();
        // Layer metrics carry no bound: listed for attribution only.
        for (key, av) in &a_metrics {
            if bounds.iter().any(|bound| bound.name == *key) || *av == 0.0 {
                continue;
            }
            if let Some(bv) = value(b_metrics, key) {
                println!(
                    "    {key:<44} {av:>16.4} → {bv:>16.4} ({:+.2}%)",
                    (bv - av) / av * 100.0
                );
            }
        }
    }
    if compared == 0 {
        return Err("the two results share no workload with end-to-end metrics".into());
    }
    println!(
        "{}",
        if within {
            "every end-to-end metric is within its bound"
        } else {
            "at least one end-to-end metric is out of bounds"
        }
    );
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_respects_direction() {
        // Throughput falling 10% is 10% worse; latency rising 10% likewise.
        assert!((worse_by(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!(worse_by(100.0, 110.0, true) < 0.0);
    }
}
