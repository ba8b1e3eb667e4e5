//! Kineto-like trace containers: flattened events with timestamps.

use serde::{Deserialize, Serialize};

/// Category of a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventCat {
    /// A host-side operator call (`cpu_op` in Kineto traces).
    Op,
    /// A CUDA runtime call, e.g. `cudaLaunchKernel` (`cuda_runtime`).
    Runtime,
    /// A device kernel execution (`kernel`).
    Kernel,
}

/// One flattened trace event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Event name (op name, runtime function, or kernel name).
    pub name: String,
    /// Category.
    pub cat: EventCat,
    /// Start timestamp in microseconds from iteration start.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Stream the event ran on (kernels) or was issued from (0 for host).
    pub stream: usize,
    /// Index of the graph node this event belongs to.
    pub op_index: usize,
    /// Correlates a `Runtime` launch with the `Kernel` it launched.
    pub correlation: u64,
    /// Op-type key used for overhead bookkeeping (empty for kernels).
    pub op_key: String,
}

impl TraceEvent {
    /// End timestamp.
    pub fn end_us(&self) -> f64 {
        self.ts_us + self.dur_us
    }
}

/// Why a serialized trace artifact (trace file or overhead database) could
/// not be loaded. Trace files are *untrusted input* — they may come from
/// disk, other tools, or other machines — so loading validates content
/// instead of letting NaNs or negative durations flow into the engine.
#[derive(Debug)]
pub enum TraceLoadError {
    /// The JSON itself failed to parse.
    Parse(serde_json::Error),
    /// The JSON parsed, but carries values the analysis cannot safely use
    /// (non-finite timestamps, negative durations, …).
    Invalid(String),
    /// Two events of the same category reuse one nonzero correlation id,
    /// so launch→kernel attribution would be ambiguous. Strict loads
    /// ([`Trace::from_json`]) reject the trace; the lenient
    /// [`crate::ingest`] scanner keeps the last occurrence and counts the
    /// earlier ones.
    DuplicateCorrelation {
        /// The category both events carry.
        cat: EventCat,
        /// The reused correlation id.
        correlation: u64,
        /// Event index of the first occurrence.
        first: usize,
        /// Event index of the duplicate.
        second: usize,
    },
}

impl std::fmt::Display for TraceLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceLoadError::Parse(e) => write!(f, "trace artifact is not valid JSON: {e}"),
            TraceLoadError::Invalid(why) => write!(f, "trace artifact rejected: {why}"),
            TraceLoadError::DuplicateCorrelation {
                cat,
                correlation,
                first,
                second,
            } => write!(
                f,
                "trace artifact rejected: events {first} and {second} (both {cat:?}) \
                 reuse correlation id {correlation}"
            ),
        }
    }
}

impl std::error::Error for TraceLoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceLoadError::Parse(e) => Some(e),
            TraceLoadError::Invalid(_) | TraceLoadError::DuplicateCorrelation { .. } => None,
        }
    }
}

impl From<serde_json::Error> for TraceLoadError {
    fn from(e: serde_json::Error) -> Self {
        TraceLoadError::Parse(e)
    }
}

/// A trace of one training iteration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    /// Workload name.
    pub workload: String,
    /// Device name.
    pub device: String,
    /// Flattened events.
    pub events: Vec<TraceEvent>,
    /// Iteration wall-clock span in microseconds.
    pub span_us: f64,
}

impl Trace {
    /// Events of one category, in timestamp order.
    pub fn of_cat(&self, cat: EventCat) -> Vec<&TraceEvent> {
        let mut evs: Vec<&TraceEvent> = self.events.iter().filter(|e| e.cat == cat).collect();
        evs.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
        evs
    }

    /// Serializes to JSON (the trace-file format of the analysis track).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace serialization cannot fail")
    }

    /// Deserializes from JSON, rejecting traces whose timing content would
    /// poison downstream analysis. This is the *strict* load: a trace that
    /// reuses a nonzero correlation id within one event category is
    /// rejected rather than silently attributing two launches (or two
    /// kernels) to one id. Fleet corpora that must tolerate such traces go
    /// through the lenient scanner ([`crate::ingest::ingest_str`] /
    /// [`crate::ingest::ingest_file`]), which resolves duplicates
    /// last-wins and counts them.
    ///
    /// # Errors
    /// [`TraceLoadError::Parse`] for malformed JSON; [`TraceLoadError::Invalid`]
    /// for parsed traces with non-finite timestamps, negative durations, or a
    /// non-finite span; [`TraceLoadError::DuplicateCorrelation`] for a reused
    /// correlation id.
    pub fn from_json(s: &str) -> Result<Self, TraceLoadError> {
        let t: Trace = serde_json::from_str(s)?;
        t.validate()?;
        t.check_duplicate_correlations()?;
        Ok(t)
    }

    /// Strict half of the duplicate-correlation contract: errors on the
    /// first `(category, nonzero correlation id)` pair that appears twice.
    /// A `Runtime` launch and the `Kernel` it launched legitimately share
    /// one id — only a reuse *within* a category is ambiguous.
    ///
    /// # Errors
    /// [`TraceLoadError::DuplicateCorrelation`] naming both occurrences.
    pub fn check_duplicate_correlations(&self) -> Result<(), TraceLoadError> {
        let mut seen: std::collections::HashMap<(EventCat, u64), usize> =
            std::collections::HashMap::new();
        for (i, ev) in self.events.iter().enumerate() {
            if ev.correlation == 0 {
                continue;
            }
            if let Some(&first) = seen.get(&(ev.cat, ev.correlation)) {
                return Err(TraceLoadError::DuplicateCorrelation {
                    cat: ev.cat,
                    correlation: ev.correlation,
                    first,
                    second: i,
                });
            }
            seen.insert((ev.cat, ev.correlation), i);
        }
        Ok(())
    }

    /// Checks that every timing field is usable by the analysis machinery.
    pub fn validate(&self) -> Result<(), TraceLoadError> {
        if !self.span_us.is_finite() || self.span_us < 0.0 {
            return Err(TraceLoadError::Invalid(format!(
                "trace span must be finite and non-negative, got {}",
                self.span_us
            )));
        }
        for (i, ev) in self.events.iter().enumerate() {
            if !ev.ts_us.is_finite() {
                return Err(TraceLoadError::Invalid(format!(
                    "event {i} (`{}`) has non-finite timestamp {}",
                    ev.name, ev.ts_us
                )));
            }
            if !ev.dur_us.is_finite() || ev.dur_us < 0.0 {
                return Err(TraceLoadError::Invalid(format!(
                    "event {i} (`{}`) has invalid duration {}",
                    ev.name, ev.dur_us
                )));
            }
        }
        Ok(())
    }

    /// Exports the trace in the Chrome trace-event format, loadable in
    /// `chrome://tracing` or Perfetto — host ops and runtime calls on a
    /// "CPU" track, kernels on one track per stream, launches connected to
    /// their kernels via flow ids.
    pub fn to_chrome_json(&self) -> String {
        use serde_json::json;
        let mut events = Vec::with_capacity(self.events.len() + 2);
        events.push(json!({
            "name": "process_name", "ph": "M", "pid": 0,
            "args": {"name": format!("{} on {}", self.workload, self.device)}
        }));
        for ev in &self.events {
            let (tid, cat) = match ev.cat {
                EventCat::Op => (0, "cpu_op"),
                EventCat::Runtime => (0, "cuda_runtime"),
                EventCat::Kernel => (100 + ev.stream as i64, "kernel"),
            };
            let mut obj = json!({
                "name": ev.name, "cat": cat, "ph": "X",
                "ts": ev.ts_us, "dur": ev.dur_us,
                "pid": 0, "tid": tid,
                "args": {"op_index": ev.op_index, "correlation": ev.correlation},
            });
            if ev.cat == EventCat::Kernel && ev.correlation != 0 {
                obj["args"]["flow"] = json!(ev.correlation);
            }
            events.push(obj);
        }
        serde_json::to_string(&json!({"traceEvents": events, "displayTimeUnit": "ms"}))
            .expect("chrome trace serialization cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, cat: EventCat, ts: f64, dur: f64) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            cat,
            ts_us: ts,
            dur_us: dur,
            stream: 0,
            op_index: 0,
            correlation: 0,
            op_key: String::new(),
        }
    }

    #[test]
    fn cat_filter_sorts_by_time() {
        let t = Trace {
            workload: "w".into(),
            device: "d".into(),
            events: vec![
                ev("b", EventCat::Kernel, 5.0, 1.0),
                ev("a", EventCat::Kernel, 1.0, 1.0),
                ev("op", EventCat::Op, 0.0, 10.0),
            ],
            span_us: 10.0,
        };
        let ks = t.of_cat(EventCat::Kernel);
        assert_eq!(ks.len(), 2);
        assert_eq!(ks[0].name, "a");
    }

    #[test]
    fn json_roundtrip() {
        let t = Trace {
            workload: "w".into(),
            device: "d".into(),
            events: vec![ev("x", EventCat::Runtime, 0.0, 9.5)],
            span_us: 9.5,
        };
        let back = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(back.events.len(), 1);
        assert_eq!(back.events[0].end_us(), 9.5);
    }

    #[test]
    fn malformed_json_is_a_parse_error_not_a_panic() {
        match Trace::from_json("{ not json") {
            Err(TraceLoadError::Parse(_)) => {}
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn poisoned_timing_content_is_rejected() {
        let t = Trace {
            workload: "w".into(),
            device: "d".into(),
            events: vec![ev("bad", EventCat::Kernel, 1.0, -3.0)],
            span_us: 10.0,
        };
        match Trace::from_json(&t.to_json()) {
            Err(TraceLoadError::Invalid(why)) => {
                assert!(why.contains("bad"), "error should name the event: {why}")
            }
            other => panic!("expected Invalid error, got {other:?}"),
        }
    }

    #[test]
    fn strict_load_rejects_duplicate_correlation_within_category() {
        let mut a = ev("launch", EventCat::Runtime, 0.0, 1.0);
        a.correlation = 7;
        let mut b = ev("launch", EventCat::Runtime, 2.0, 1.0);
        b.correlation = 7;
        let t = Trace {
            workload: "w".into(),
            device: "d".into(),
            events: vec![a, b],
            span_us: 3.0,
        };
        match Trace::from_json(&t.to_json()) {
            Err(TraceLoadError::DuplicateCorrelation {
                cat,
                correlation,
                first,
                second,
            }) => {
                assert_eq!(cat, EventCat::Runtime);
                assert_eq!(correlation, 7);
                assert_eq!((first, second), (0, 1));
            }
            other => panic!("expected DuplicateCorrelation, got {other:?}"),
        }
    }

    #[test]
    fn runtime_kernel_pair_sharing_an_id_is_not_a_duplicate() {
        let mut launch = ev("launch", EventCat::Runtime, 0.0, 1.0);
        launch.correlation = 9;
        let mut kernel = ev("k", EventCat::Kernel, 1.0, 2.0);
        kernel.correlation = 9;
        let t = Trace {
            workload: "w".into(),
            device: "d".into(),
            events: vec![launch, kernel],
            span_us: 3.0,
        };
        assert!(Trace::from_json(&t.to_json()).is_ok());
    }

    #[test]
    fn chrome_export_is_valid_json_with_all_events() {
        let t = Trace {
            workload: "w".into(),
            device: "V100".into(),
            events: vec![
                ev("aten::relu", EventCat::Op, 0.0, 10.0),
                ev("cudaLaunchKernel", EventCat::Runtime, 2.0, 9.0),
                ev("elementwise_kernel", EventCat::Kernel, 8.0, 3.0),
            ],
            span_us: 12.0,
        };
        let chrome: serde_json::Value = serde_json::from_str(&t.to_chrome_json()).unwrap();
        let events = chrome["traceEvents"].as_array().unwrap();
        // 3 trace events + 1 process-name metadata record.
        assert_eq!(events.len(), 4);
        assert!(events
            .iter()
            .any(|e| e["cat"] == "kernel" && e["tid"] == 100));
    }
}
