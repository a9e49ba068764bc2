//! The traced run's bookkeeping: exact busy counters for every event and
//! full spans for a deterministic 1-in-N sample of them.
//!
//! All of this lives in the benchmark: spans are recorded around the
//! calls *into* each layer, never inside one.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Calls made into a layer and the wall time spent inside them.
#[derive(Clone, Copy, Debug, Default)]
pub struct Busy {
    pub count: u64,
    pub ns: u64,
}

impl Busy {
    pub fn add(&mut self, spent: Duration) {
        self.count += 1;
        self.ns += spent.as_nanos() as u64;
    }

    /// Mean nanoseconds per call; 0 when the layer was never called.
    pub fn ns_per_call(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / self.count as f64
        }
    }

    pub fn ms(&self) -> f64 {
        self.ns as f64 / 1e6
    }
}

/// One recorded interval. `id` is shared by every span of one event;
/// `parent` indexes the span that caused this one.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Self time of each span: its duration minus the part its direct
/// children cover (children of one parent never overlap here — each
/// layer is entered from one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    own
}

/// In-memory span store for the sampled events.
pub struct Tracer {
    epoch: Instant,
    every: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// Keeps spans for events whose id is a multiple of `every`.
    pub fn new(every: u64) -> Self {
        Tracer {
            epoch: Instant::now(),
            every: every.max(1),
            spans: Vec::new(),
        }
    }

    pub fn sampled(&self, id: u64) -> bool {
        id.is_multiple_of(self.every)
    }

    /// Records a span and returns its index (for use as a `parent`).
    pub fn span(
        &mut self,
        name: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
            parent,
        });
        self.spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let own = self_times(&self.spans);
        let mut out = format!(
            "{{\"workload\":\"{workload}\",\"sample_every\":{},\"spans\":[\n",
            self.every
        );
        for (i, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"self_ns\":{}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.id,
                s.start_ns,
                s.end_ns,
                parent,
                own
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            id: 7,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("event", 0, 100, None),
            span("push", 10, 90, Some(0)),
            span("sink", 20, 50, Some(1)),
            span("sink", 60, 70, Some(1)),
        ];
        // event: 100 - 80; push: 80 - (30 + 10); sinks: their own length.
        assert_eq!(self_times(&spans), vec![20, 40, 30, 10]);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn grandchildren_are_not_subtracted_from_grandparents() {
        let spans = [
            span("a", 0, 10, None),
            span("b", 0, 10, Some(0)),
            span("c", 0, 10, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![0, 0, 10]);
    }

    #[test]
    fn sampling_is_a_fixed_stride() {
        let tracer = Tracer::new(4);
        let kept: Vec<u64> = (0..10).filter(|&i| tracer.sampled(i)).collect();
        assert_eq!(kept, vec![0, 4, 8]);
    }
}
