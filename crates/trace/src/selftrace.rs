//! Self-tracing: turn `dlperf-obs` recorder flushes into [`Trace`] values
//! this crate's own analysis pipeline ([`crate::event_tree`],
//! [`crate::extract`], [`crate::breakdown`]) can ingest — the paper's
//! trace-mining machinery pointed at the performance model itself.
//!
//! [`ChromeTraceSink`] maps a flushed span forest onto the Kineto-like
//! event dialect [`Trace::from_json`] parses, one `Trace` per recording
//! thread (the event-tree builder assumes the top-level ops of a trace are
//! sorted and non-overlapping, which holds per thread but not across
//! threads of a parallel sweep):
//!
//! * depth-0 span → [`EventCat::Op`] (the `op_key` is the span name);
//! * nested span → [`EventCat::Runtime`] inside its enclosing op, with the
//!   span id as correlation id;
//! * a [`SpanKind::Work`] span additionally emits an [`EventCat::Kernel`]
//!   event carrying the same correlation id and duration, so
//!   `EventTree::device_time_us` attributes the *work* time of each op and
//!   the host/device breakdown of the model's own execution falls out of
//!   the ordinary analysis. A depth-0 work span emits all three events
//!   (its own op plus the launch pair inside it).

use std::sync::Mutex;

use dlperf_obs::{Snapshot, SpanKind, SpanRecord};

use crate::events::{EventCat, Trace, TraceEvent};

/// An `obs::Sink` that accumulates recorder flushes as parseable traces.
///
/// Install with [`ChromeTraceSink::install`], run instrumented code with
/// the recorder enabled, call `dlperf_obs::flush()`, then collect
/// [`ChromeTraceSink::traces`] (one per recording thread, per flush).
///
/// ## Quickstart
///
/// ```
/// use dlperf_trace::selftrace::ChromeTraceSink;
/// use dlperf_trace::event_tree::EventTree;
///
/// let sink = ChromeTraceSink::install("self", "host");
/// dlperf_obs::enable();
/// {
///     let _walk = dlperf_obs::span("predict", dlperf_obs::SpanKind::Phase);
///     drop(dlperf_obs::span("walk", dlperf_obs::SpanKind::Work));
/// }
/// dlperf_obs::disable();
/// dlperf_obs::flush();
/// dlperf_obs::clear_sinks();
/// for trace in sink.traces() {
///     let reparsed = dlperf_trace::Trace::from_json(&trace.to_json()).unwrap();
///     let tree = EventTree::build(&reparsed);
///     assert!(tree.total_device_time_us() > 0.0);
/// }
/// ```
#[derive(Debug)]
pub struct ChromeTraceSink {
    workload: String,
    device: String,
    traces: Mutex<Vec<Trace>>,
}

impl ChromeTraceSink {
    /// Creates a sink labelled with a workload/device pair (free-form; they
    /// become the `Trace` header fields).
    pub fn new(workload: impl Into<String>, device: impl Into<String>) -> std::sync::Arc<Self> {
        std::sync::Arc::new(ChromeTraceSink {
            workload: workload.into(),
            device: device.into(),
            traces: Mutex::new(Vec::new()),
        })
    }

    /// Creates the sink and installs a forwarding handle into the global
    /// recorder. The caller keeps the returned `Arc` to read results;
    /// `dlperf_obs::clear_sinks()` drops the recorder's handle.
    pub fn install(workload: impl Into<String>, device: impl Into<String>) -> std::sync::Arc<Self> {
        let sink = Self::new(workload, device);
        struct Fwd(std::sync::Arc<ChromeTraceSink>);
        impl dlperf_obs::Sink for Fwd {
            fn consume(&self, snapshot: &Snapshot) {
                self.0.consume(snapshot);
            }
        }
        dlperf_obs::install_sink(Box::new(Fwd(std::sync::Arc::clone(&sink))));
        sink
    }

    /// The traces accumulated so far (one per recording thread per flush
    /// that carried spans), in (flush, thread-ordinal) order.
    pub fn traces(&self) -> Vec<Trace> {
        self.traces
            .lock()
            .expect("self-trace buffer poisoned")
            .clone()
    }

    /// Serializes every accumulated trace as a JSON array; each element is
    /// individually parseable by [`Trace::from_json`].
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.traces()).expect("trace serialization cannot fail")
    }

    /// Writes [`ChromeTraceSink::to_json`] to a file.
    ///
    /// # Errors
    /// Propagates the underlying I/O error.
    pub fn write_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Parses a JSON array produced by [`ChromeTraceSink::to_json`] back
    /// into traces (the round-trip used by the self-trace tests and CI
    /// artifact checks).
    ///
    /// # Errors
    /// [`crate::TraceLoadError`] when the array or any element is
    /// malformed or carries invalid timing content.
    pub fn parse_json(s: &str) -> Result<Vec<Trace>, crate::TraceLoadError> {
        let docs: Vec<Trace> = serde_json::from_str(s)?;
        for t in &docs {
            t.validate()?;
            t.check_duplicate_correlations()?;
        }
        Ok(docs)
    }
}

impl dlperf_obs::Sink for ChromeTraceSink {
    fn consume(&self, snapshot: &Snapshot) {
        let mut fresh = traces_from_spans(&snapshot.spans, &self.workload, &self.device);
        self.traces
            .lock()
            .expect("self-trace buffer poisoned")
            .append(&mut fresh);
    }
}

/// Converts one flush's span forest into per-thread [`Trace`]s.
///
/// Public so tests and tools can convert snapshots they collected without
/// installing a sink.
pub fn traces_from_spans(spans: &[SpanRecord], workload: &str, device: &str) -> Vec<Trace> {
    let mut threads: Vec<u32> = spans.iter().map(|s| s.thread).collect();
    threads.sort_unstable();
    threads.dedup();

    let mut traces = Vec::new();
    for thread in threads {
        let mut mine: Vec<&SpanRecord> = spans.iter().filter(|s| s.thread == thread).collect();
        mine.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));

        // Roots are spans whose parent did not record on this thread (the
        // parent may still be open, or predate `enable()`): treat those as
        // top-level ops too, so a flush mid-run stays parseable.
        let recorded: std::collections::HashSet<u64> = mine.iter().map(|s| s.id).collect();
        let mut events = Vec::new();
        let mut op_index = 0usize;
        for span in &mine {
            let is_root = span.parent == 0 || !recorded.contains(&span.parent);
            if is_root {
                events.push(TraceEvent {
                    name: span.name.to_string(),
                    cat: EventCat::Op,
                    ts_us: span.start_us,
                    dur_us: span.dur_us,
                    stream: 0,
                    op_index,
                    correlation: 0,
                    op_key: span.name.to_string(),
                });
                op_index += 1;
            }
            // Nested spans become runtime calls inside the enclosing op; a
            // root work span launches "inside itself" so its device side
            // still attributes to its own op.
            if !is_root || span.kind == SpanKind::Work {
                events.push(TraceEvent {
                    name: span.name.to_string(),
                    cat: EventCat::Runtime,
                    ts_us: span.start_us,
                    dur_us: span.dur_us,
                    stream: 0,
                    op_index: op_index.saturating_sub(1),
                    correlation: span.id,
                    op_key: span.name.to_string(),
                });
            }
            if span.kind == SpanKind::Work {
                events.push(TraceEvent {
                    name: span.name.to_string(),
                    cat: EventCat::Kernel,
                    ts_us: span.start_us,
                    dur_us: span.dur_us,
                    stream: thread as usize,
                    op_index: op_index.saturating_sub(1),
                    correlation: span.id,
                    op_key: String::new(),
                });
            }
        }
        if events.is_empty() {
            continue;
        }
        let span_us = events.iter().map(TraceEvent::end_us).fold(0.0, f64::max);
        traces.push(Trace {
            workload: workload.to_string(),
            device: format!("{device}/t{thread}"),
            events,
            span_us,
        });
    }
    traces
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_tree::EventTree;

    fn rec(
        id: u64,
        parent: u64,
        thread: u32,
        name: &str,
        kind: SpanKind,
        start: f64,
        dur: f64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            thread,
            name: name.to_string().into(),
            kind,
            start_us: start,
            dur_us: dur,
        }
    }

    #[test]
    fn span_forest_maps_to_parseable_per_thread_traces() {
        let spans = vec![
            rec(1, 0, 0, "prepare", SpanKind::Phase, 0.0, 10.0),
            rec(2, 1, 0, "lower", SpanKind::Work, 2.0, 5.0),
            rec(3, 0, 0, "price", SpanKind::Phase, 10.0, 30.0),
            rec(4, 3, 0, "walk", SpanKind::Work, 12.0, 20.0),
            rec(5, 0, 1, "scenario", SpanKind::Work, 1.0, 9.0),
        ];
        let traces = traces_from_spans(&spans, "w", "host");
        assert_eq!(traces.len(), 2, "one trace per thread");

        for t in &traces {
            let back = Trace::from_json(&t.to_json()).expect("self-trace parses");
            let tree = EventTree::build(&back);
            assert!(!tree.ops.is_empty());
        }

        // Thread 0: two top-level ops; the nested work span's duration is
        // attributed as device time of the enclosing op.
        let t0 = &traces[0];
        let tree = EventTree::build(t0);
        assert_eq!(tree.ops.len(), 2);
        assert_eq!(tree.ops[0].op.name, "prepare");
        assert_eq!(tree.ops[0].launches.len(), 1);
        assert!((tree.ops[0].device_time_us() - 5.0).abs() < 1e-9);
        assert!((tree.ops[1].device_time_us() - 20.0).abs() < 1e-9);

        // Thread 1: a root work span attributes to itself.
        let t1 = &traces[1];
        let tree1 = EventTree::build(t1);
        assert_eq!(tree1.ops.len(), 1);
        assert!((tree1.ops[0].device_time_us() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn orphan_nested_span_degrades_to_top_level_op() {
        // Parent id 99 never recorded (e.g. still open at flush): the
        // child must still surface as a top-level op, not vanish.
        let spans = vec![rec(2, 99, 0, "child", SpanKind::Phase, 1.0, 2.0)];
        let traces = traces_from_spans(&spans, "w", "host");
        assert_eq!(traces.len(), 1);
        let tree = EventTree::build(&traces[0]);
        assert_eq!(tree.ops.len(), 1);
        assert_eq!(tree.ops[0].op.name, "child");
    }

    #[test]
    fn json_array_roundtrip() {
        let spans = vec![
            rec(1, 0, 0, "a", SpanKind::Work, 0.0, 4.0),
            rec(2, 0, 1, "b", SpanKind::Phase, 0.0, 3.0),
        ];
        let sink = ChromeTraceSink::new("w", "host");
        use dlperf_obs::Sink as _;
        sink.consume(&Snapshot {
            spans,
            counters: Vec::new(),
        });
        let json = sink.to_json();
        let back = ChromeTraceSink::parse_json(&json).expect("round-trips");
        assert_eq!(back.len(), 2);
        assert_eq!(
            back[0].events.len(),
            3,
            "root work span emits op+runtime+kernel"
        );
    }
}
