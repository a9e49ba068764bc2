//! Metric names and units, one workload's outcome, and the result JSON.
//!
//! The two tables here are the binary's half of `BENCHMARK.json`; a unit
//! test keeps them equal to the committed file.

use std::fmt::Write as _;

use crate::env::Environment;
use crate::json::{number, quote};
use crate::workloads::{Ctx, Spec};

/// What a user of the system sees, on every workload. Decision latency,
/// query time and peak memory are measured too, but only the traced run
/// reports them: see "Demoted metrics" in the README.
pub const END_TO_END: &[(&str, &str)] = &[("tasks_per_s", "1/s"), ("setup_s", "s")];

/// One layer each, from the traced run. A workload that never enters a
/// layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The whole process, then the whole traced pass.
    ("peak_rss_mb", "MB"),
    ("trace_overhead_share", "share"),
    ("trace.attributed_share", "share"),
    // trace.stream → core.streaming: generation and pricing.
    ("trace.stream.build_ms", "ms"),
    ("trace.stream.next_ns_per_trip", "ns"),
    ("trace.stream.peak_buffered", "count"),
    ("trace.stream.share", "share"),
    ("core.pricer.price_ns_per_task", "ns"),
    ("core.pricer.share", "share"),
    // trace.rtb: the fixed-width binary trace.
    ("trace.rtb.encode_ns_per_event", "ns"),
    ("trace.rtb.slice_decode_ns_per_event", "ns"),
    ("trace.rtb.file_decode_ns_per_event", "ns"),
    ("trace.rtb.bytes_per_event", "B"),
    ("trace.rtb.share", "share"),
    // trace.wire: frames, JSONL, CSV.
    ("trace.wire.frame_encode_ns_per_event", "ns"),
    ("trace.wire.frame_decode_ns_per_event", "ns"),
    ("trace.wire.jsonl_encode_ns_per_event", "ns"),
    ("trace.wire.jsonl_decode_ns_per_event", "ns"),
    ("trace.wire.csv_decode_ns_per_event", "ns"),
    ("trace.wire.frame_bytes_per_event", "B"),
    ("trace.wire.jsonl_bytes_per_event", "B"),
    ("trace.wire.csv_bytes_per_event", "B"),
    // online.ingest: sources and the admission guard.
    ("online.ingest.tcp_next_event_ns", "ns"),
    ("online.ingest.file_next_event_ns", "ns"),
    ("online.ingest.tcp_wait_ns", "ns"),
    ("online.ingest.wire_to_event_ns", "ns"),
    ("online.ingest.guard_admit_ns_per_event", "ns"),
    ("online.ingest.errors", "count"),
    ("online.ingest.share", "share"),
    // online.stream: the engine itself (push minus sink).
    ("online.stream.push_driver_ns", "ns"),
    ("online.stream.push_task_ns_p50", "ns"),
    ("online.stream.push_task_ns_p99", "ns"),
    ("online.stream.finish_ms", "ms"),
    ("online.stream.peak_resident", "count"),
    ("online.stream.compacted_drivers", "count"),
    ("online.stream.candidates_per_served", "count"),
    ("online.stream.served_share", "share"),
    ("online.stream.sparse_rtb_tasks_per_s", "1/s"),
    ("online.stream.self_share", "share"),
    // online.batch: windowed decisions.
    ("online.batch.windows", "count"),
    ("online.batch.tasks_per_window", "count"),
    ("online.batch.window_close_ns_p50", "ns"),
    ("online.batch.window_close_ns_p99", "ns"),
    ("online.batch.opt_tasks_per_s", "1/s"),
    // online.shard: counts only (see README).
    ("online.shard.cpu_s", "s"),
    ("online.shard.wall_s", "s"),
    ("online.shard.events_per_shard_max_over_mean", "ratio"),
    ("online.shard.equals_sequential", "count"),
    // online.serve: the daemon under blast and paced load.
    ("online.serve.events", "count"),
    ("online.serve.windows", "count"),
    ("online.serve.snapshots", "count"),
    ("online.serve.snapshot_hook_ns", "ns"),
    ("decision_latency_p50_us", "us"),
    ("decision_latency_p99_us", "us"),
    ("online.serve.latency_p999_us", "us"),
    ("online.serve.latency_p99_us_at_100k", "us"),
    ("online.serve.latency_p99_us_at_800k", "us"),
    ("online.serve.latency_samples", "count"),
    ("online.serve.loadgen_late_p99_us", "us"),
    ("query_ms", "ms"),
    // metrics: the accumulators behind the sink.
    ("metrics.sink.dispatched_ns", "ns"),
    ("metrics.sink.rejected_ns", "ns"),
    ("metrics.sink.window_closed_ns", "ns"),
    ("metrics.snapshot.to_json_ms", "ms"),
    ("metrics.snapshot.from_json_ms", "ms"),
    ("metrics.merge_ns", "ns"),
    ("metrics.share", "share"),
    // tsdb: recorder, store, codec, query.
    ("tsdb.recorder.window_closed_ns", "ns"),
    ("tsdb.recorder.overhead_share", "share"),
    ("tsdb.store.append_ns_per_sample", "ns"),
    ("tsdb.store.flush_ms", "ms"),
    ("tsdb.store.open_ms", "ms"),
    ("tsdb.store.bytes_total", "B"),
    ("tsdb.store.bytes_per_sample", "B"),
    ("tsdb.codec.encode_ns_per_sample", "ns"),
    ("tsdb.codec.decode_ns_per_sample", "ns"),
    ("tsdb.query.whole_range_ms", "ms"),
    ("tsdb.query.stepped_1h_ms", "ms"),
    ("tsdb.query.samples_scanned", "count"),
    // core / lp / bench: the offline side.
    ("core.market.build_ms", "ms"),
    ("core.greedy.solve_ms", "ms"),
    ("core.upper_bound.ms", "ms"),
    ("core.upper_bound.rounds", "count"),
    ("core.upper_bound.columns", "count"),
    ("core.upper_bound.ms_per_round", "ms"),
    ("core.upper_bound.share", "share"),
    ("online.simulator.cell_ms_sum", "ms"),
    ("bench.sweep.wall_s", "s"),
    ("bench.distrib.spool_overhead_ms", "ms"),
    ("bench.distrib.units", "count"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's tables"))
}

/// Measured values by metric name, in the order they were put.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records `value` under `name`; a later value replaces an earlier
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if `name` is in neither table: every metric printed is one
    /// `BENCHMARK.json` declares.
    pub fn put(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` over `table`, 0 for a
    /// metric this run did not measure.
    pub fn to_json(&self, table: &[(&str, &str)]) -> String {
        let mut out = String::from("{");
        for (i, (name, unit)) in table.iter().enumerate() {
            let _ = write!(
                out,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if i == 0 { "" } else { ", " },
                quote(name),
                number(self.get(name).unwrap_or(0.0)),
                quote(unit)
            );
        }
        out.push('}');
        out
    }

    /// One aligned `name value unit` line per measured metric.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.0 {
            let _ = writeln!(out, "  {name:<44} {value:>16.4} {}", unit_of(name));
        }
        out
    }
}

/// What one workload's run found.
#[derive(Default)]
pub struct Outcome {
    /// Operations (orders; sweep cells for `offline-fig5`) the timed
    /// passes attempted, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that disagreed.
    pub problems: Vec<String>,
    pub metrics: Metrics,
    info: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Records a fact about the run (pass count, rate, …) for the result
    /// file.
    pub fn info(&mut self, key: &'static str, value: String) {
        self.info.push((key, value));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Folds a traced outcome into the untraced one (`run --traced`).
    pub fn absorb(&mut self, traced: Outcome) {
        self.problems.extend(traced.problems);
        for (name, value) in traced.metrics.0 {
            self.metrics.put(name, value);
        }
        self.info.extend(traced.info);
    }

    /// The line the builder's contract asks for: exactly `correct`,
    /// `attempted`, `failed` and the metrics of `table`.
    pub fn contract_line(&self, table: &[(&str, &str)]) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics.to_json(table)
        )
    }

    /// This workload's entry in a result file.
    pub fn to_json(&self, spec: &Spec, ctx: &Ctx, traced: bool) -> String {
        let table: Vec<(&str, &str)> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter(|(name, _)| self.metrics.get(name).is_some())
            .copied()
            .collect();
        let mut info = String::new();
        for (key, value) in &self.info {
            let _ = write!(info, ", {}: {}", quote(key), quote(value));
        }
        let problems: Vec<String> = self.problems.iter().map(|p| quote(p)).collect();
        format!(
            "{{\"name\": {}, \"traced\": {traced}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"sizes\": {{\"tasks\": {}, \"drivers\": {}, \"regions\": {}}}, \"policy\": {}, \"load\": \"closed\"{info}, \
             \"problems\": [{}], \"metrics\": {}}}",
            quote(spec.name),
            self.correct(),
            self.attempted,
            self.failed,
            ctx.tasks(spec),
            ctx.drivers(spec),
            spec.regions,
            quote(spec.policy),
            problems.join(", "),
            self.metrics.to_json(&table)
        )
    }
}

/// A whole result file: the environment block, the run's arguments, and
/// one entry per workload (already rendered).
pub fn result_file(env: &Environment, ctx: &Ctx, workloads: &[String]) -> String {
    format!(
        "{{\"schema\": \"rideshare-benchmark/1\", \"env\": {}, \"seed\": {}, \"seconds\": {}, \"shrink\": {},\n \"workloads\": [\n  {}\n ]}}\n",
        env.to_json(),
        ctx.seed,
        number(ctx.seconds),
        ctx.shrink,
        workloads.join(",\n  ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rideshare_trace::wire::parse_json;

    fn declared(doc: &rideshare_trace::wire::JsonValue, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(|v| v.as_str())
                        .expect("string")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn table(rows: &[(&str, &str)]) -> Vec<(String, String)> {
        rows.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
        assert_eq!(declared(&doc, "end_to_end"), table(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), table(PER_LAYER));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(|v| v.arr())
            .expect("workloads")
            .iter()
            .map(|w| {
                let field = |k| {
                    w.get(k)
                        .and_then(|v| v.as_str())
                        .expect("string")
                        .to_string()
                };
                (field("name"), field("why"))
            })
            .collect();
        let specs: Vec<(String, String)> = crate::workloads::SPECS
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(workloads, specs);
    }

    #[test]
    fn contract_line_has_every_metric_of_its_table_and_nothing_else() {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        outcome.metrics.put("tasks_per_s", 1234.5);
        outcome.metrics.put("query_ms", 1.0);
        let line = outcome.contract_line(END_TO_END);
        let doc = parse_json(&line).expect("one JSON object");
        let metrics = doc.get("metrics").expect("metrics");
        for (name, _) in END_TO_END {
            assert!(metrics.get(name).is_some(), "{name} missing");
        }
        assert!(metrics.get("query_ms").is_none());
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
    }
}
