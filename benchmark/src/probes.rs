//! Wrappers around the two public seams of the engine — [`IngestSource`]
//! on the way in, [`StreamSink`] on the way out — that time the calls
//! passing through them. Used by the traced run only; the untraced run
//! hands the engine the bare source and sink.

use std::cell::Cell;
use std::time::Instant;

use rideshare_core::{Driver, Task};
use rideshare_online::{DispatchEvent, IngestError, IngestSource, StreamEvent, StreamSink};
use rideshare_types::Timestamp;

use crate::pacing::Schedule;
use crate::spans::Busy;
use crate::stats::Histogram;

/// What a [`TimedSource`] tells the [`TimedSink`] at the other end of the
/// daemon: how many events have been yielded (the last one is the
/// *trigger* of whatever decision fires next — the sequential daemon
/// pulls and pushes on one thread, so this is exact) and whether that
/// trigger is one of the sampled events whose spans are kept.
pub struct Trigger {
    yielded: Cell<u64>,
    sampled: Cell<bool>,
    sample_every: u64,
}

impl Trigger {
    pub fn new(sample_every: u64) -> Self {
        Trigger {
            yielded: Cell::new(0),
            sampled: Cell::new(false),
            sample_every: sample_every.max(1),
        }
    }

    /// Index of the last event yielded (0 before any).
    pub fn index(&self) -> u64 {
        self.yielded.get().saturating_sub(1)
    }
}

/// What a [`TimedSource`] counted.
#[derive(Default)]
pub struct SourceProbe {
    pub busy: Busy,
    pub errors: u64,
    pub calls: Vec<SampledCall>,
}

/// One sampled `next_event` call: which event it yielded, when it ran,
/// and when the daemon came back for the next event — the end of
/// everything this event caused.
pub struct SampledCall {
    pub id: u64,
    pub start: Instant,
    pub end: Instant,
    pub next_start: Option<Instant>,
}

/// Times every `next_event` call and keeps the [`Trigger`] current.
pub struct TimedSource<'c, S> {
    inner: S,
    trigger: &'c Trigger,
    probe: SourceProbe,
}

impl<'c, S: IngestSource> TimedSource<'c, S> {
    pub fn new(inner: S, trigger: &'c Trigger) -> Self {
        TimedSource {
            inner,
            trigger,
            probe: SourceProbe::default(),
        }
    }

    /// Drops the source (closing its transport) and keeps the counters.
    pub fn into_probe(self) -> SourceProbe {
        self.probe
    }
}

impl<S: IngestSource> IngestSource for TimedSource<'_, S> {
    fn next_event(&mut self) -> Result<Option<StreamEvent>, IngestError> {
        let start = Instant::now();
        if let Some(last) = self.probe.calls.last_mut() {
            last.next_start.get_or_insert(start);
        }
        let event = self.inner.next_event();
        let end = Instant::now();
        self.probe.busy.add(end - start);
        match &event {
            Ok(Some(_)) => {
                let index = self.trigger.yielded.get();
                self.trigger.yielded.set(index + 1);
                let sampled = index.is_multiple_of(self.trigger.sample_every);
                self.trigger.sampled.set(sampled);
                if sampled {
                    self.probe.calls.push(SampledCall {
                        id: index,
                        start,
                        end,
                        next_start: None,
                    });
                }
            }
            Ok(None) => self.trigger.sampled.set(false),
            Err(_) => self.probe.errors += 1,
        }
        event
    }
}

/// Decision latency against an open-loop schedule: from when the
/// triggering event was *due* to be sent to the callback it caused.
pub struct LatencyProbe {
    pub schedule: Schedule,
    pub ns: Histogram,
}

/// Times every sink callback (so `push` time minus this is the engine's
/// own) and counts what flowed out.
pub struct TimedSink<'c, S> {
    inner: S,
    pub driver_online: Busy,
    pub dispatched: Busy,
    pub rejected: Busy,
    pub window_closed: Busy,
    /// Σ candidate-set sizes over dispatched orders.
    pub candidates: u64,
    /// Set by `window_closed`; the caller clears it around a `push` to
    /// learn whether that push closed a window.
    pub window_fired: bool,
    /// While set — or while the trigger is a sampled event — every
    /// callback's name and interval is kept in `calls`.
    pub record_calls: bool,
    pub calls: Vec<(&'static str, Instant, Instant)>,
    trigger: Option<&'c Trigger>,
    pub latency: Option<LatencyProbe>,
}

impl<'c, S: StreamSink> TimedSink<'c, S> {
    pub fn new(inner: S) -> Self {
        TimedSink {
            inner,
            driver_online: Busy::default(),
            dispatched: Busy::default(),
            rejected: Busy::default(),
            window_closed: Busy::default(),
            candidates: 0,
            window_fired: false,
            record_calls: false,
            calls: Vec::new(),
            trigger: None,
            latency: None,
        }
    }

    /// Ties the sink to the source at the other end of a daemon.
    pub fn with_trigger(mut self, trigger: &'c Trigger) -> Self {
        self.trigger = Some(trigger);
        self
    }

    /// Measures decision latency against `schedule` (needs a trigger).
    pub fn with_latency(mut self, schedule: Schedule) -> Self {
        self.latency = Some(LatencyProbe {
            schedule,
            ns: Histogram::new(),
        });
        self
    }

    fn decided(&mut self, at: Instant) {
        if let (Some(probe), Some(trigger)) = (&mut self.latency, self.trigger) {
            let due = probe.schedule.due(trigger.index());
            probe
                .ns
                .record(at.saturating_duration_since(due).as_nanos() as u64);
        }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Nanoseconds spent inside all callbacks.
    pub fn total_ns(&self) -> u64 {
        self.driver_online.ns + self.dispatched.ns + self.rejected.ns + self.window_closed.ns
    }

    fn called(&mut self, name: &'static str, start: Instant) -> std::time::Duration {
        let end = Instant::now();
        if self.record_calls || self.trigger.is_some_and(|t| t.sampled.get()) {
            self.calls.push((name, start, end));
        }
        end - start
    }
}

impl<S: StreamSink> StreamSink for TimedSink<'_, S> {
    fn driver_online(&mut self, driver: &Driver) {
        let start = Instant::now();
        self.inner.driver_online(driver);
        let spent = self.called("sink.driver_online", start);
        self.driver_online.add(spent);
    }

    fn dispatched(&mut self, task: &Task, event: &DispatchEvent) {
        let start = Instant::now();
        self.decided(start);
        self.inner.dispatched(task, event);
        self.candidates += event.candidates as u64;
        let spent = self.called("sink.dispatched", start);
        self.dispatched.add(spent);
    }

    fn rejected(&mut self, task: &Task, decision_time: Timestamp) {
        let start = Instant::now();
        self.decided(start);
        // Fully qualified: `StreamMetrics` has an inherent `rejected`.
        StreamSink::rejected(&mut self.inner, task, decision_time);
        let spent = self.called("sink.rejected", start);
        self.rejected.add(spent);
    }

    fn window_closed(&mut self, end: Timestamp) {
        let start = Instant::now();
        self.inner.window_closed(end);
        self.window_fired = true;
        let spent = self.called("sink.window_closed", start);
        self.window_closed.add(spent);
    }
}
