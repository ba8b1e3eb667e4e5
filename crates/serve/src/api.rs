//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One [`Request`] per line in, one [`Response`] per line out, matched by
//! `id`. The same shapes travel over stdin/stdout, TCP, and Unix sockets;
//! [`crate::Server::submit_json`] is the single entry point all three
//! transports share, so every transport gets identical admission,
//! deadline, and error behavior.
//!
//! Hostile input is screened *before* the JSON parser sees it
//! ([`prescreen`]): a 10 MB line of `[[[[…` is a cheap 400, rejected at
//! this protocol's nesting cap without a parse.

use dlperf_trace::screen;
use serde::{Deserialize, Serialize};

/// Longest request line the server will parse, in bytes.
pub const MAX_LINE_BYTES: usize = 256 * 1024;
/// Deepest container nesting the server will parse.
pub const MAX_JSON_DEPTH: usize = 64;
/// Largest per-request deadline honored, in milliseconds (one day).
/// Client deadlines are clamped here rather than fed to `Duration`
/// arithmetic raw: `Duration::from_secs_f64` panics on values that
/// overflow it, and a deadline is a bound, not a trusted input.
pub const MAX_DEADLINE_MS: f64 = 86_400_000.0;

/// One request envelope.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed back in the response.
    pub id: u64,
    /// What to do.
    pub op: Op,
}

/// The operations the server understands.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Op {
    /// Price one `(model, batch, device)` configuration.
    Predict(PredictQuery),
    /// Rank candidate configurations against an objective.
    Recommend(RecommendQuery),
    /// Search the unified what-if space for the top-k optimizations.
    Optimize(OptimizeQuery),
    /// Server counters and cache statistics.
    Stats,
    /// Liveness probe.
    Ping,
}

/// A single-prediction query.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictQuery {
    /// Model name from the catalog (`dlperf_models::zoo::MODEL_NAMES`).
    pub model: String,
    /// Batch size to price.
    pub batch: u64,
    /// Device name (accepts the `DeviceSpec::by_name` aliases).
    pub device: String,
    /// Per-request deadline; the server default applies when absent.
    pub deadline_ms: Option<f64>,
}

/// What the recommender should optimize for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Lowest predicted per-batch time.
    Latency,
    /// Highest predicted samples per second.
    Throughput,
}

/// A configuration-search query: which `(device, batch, sharding)` should
/// I train on, given latency bounds and an objective?
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecommendQuery {
    /// Model name from the catalog.
    pub model: String,
    /// Candidate batch sizes; empty means a default ladder.
    pub batches: Vec<u64>,
    /// Candidate device names; empty means every device the server holds.
    pub devices: Vec<String>,
    /// Upper bound on predicted per-batch latency, when set.
    pub max_latency_ms: Option<f64>,
    /// DLRM sharding world sizes to evaluate (ignored for non-DLRM
    /// models); empty skips the sharding axis.
    pub world_sizes: Vec<usize>,
    /// Parallelism strategies for the multi-GPU axis (`"hybrid"`, `"dp"`,
    /// `"mp"`, `"pp"`); absent or empty means hybrid only. Only used with
    /// `world_sizes`. Unknown names are a typed `NotFound` error.
    pub strategies: Option<Vec<String>>,
    /// Interconnect topologies to price collectives on (`"auto"`,
    /// `"nvlink"`, `"pcie"`, `"ib<N>x<G>"`); absent or empty means the
    /// device-derived default. Unknown names price conservatively and the
    /// candidate is labeled degraded — never silently dropped.
    pub topologies: Option<Vec<String>>,
    /// Ranking objective.
    pub objective: Objective,
    /// Per-request deadline; the server default applies when absent.
    pub deadline_ms: Option<f64>,
}

/// An optimization-search query: which combination of graph rewrites,
/// batch changes, and device moves buys back the most iteration time?
/// Served by the same beam / branch-and-bound search as the offline
/// `dlperf_core::OptimizationSearch`, so an admitted answer is bitwise
/// identical to running that search offline on the same inputs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptimizeQuery {
    /// Model name from the catalog.
    pub model: String,
    /// Batch size the search starts from (the baseline configuration).
    pub batch: u64,
    /// Device names forming the device axis; the first is the baseline
    /// device. Absent or empty means every device the server holds,
    /// sorted by name.
    pub devices: Option<Vec<String>>,
    /// Batch sizes `ResizeBatch` moves may target; absent or empty skips
    /// the batch-resize axis.
    pub batches: Option<Vec<u64>>,
    /// Beam width (candidates expanded per depth); server default 8.
    pub beam_width: Option<usize>,
    /// Maximum moves composed on one path; server default 2.
    pub max_depth: Option<usize>,
    /// Entries in the ranked answer; server default 10.
    pub top_k: Option<usize>,
    /// Per-request deadline; the server default applies when absent.
    pub deadline_ms: Option<f64>,
}

/// One ranked optimization in an [`OptimizationBody`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptimizationEntry {
    /// Human-readable move list, e.g. `"fuse embedding bags [on P100]"`.
    pub description: String,
    /// Predicted end-to-end iteration time (µs).
    pub e2e_us: f64,
    /// `baseline − e2e`: microseconds bought back per iteration.
    pub delta_us: f64,
    /// `baseline / e2e` (> 1 = faster than baseline).
    pub speedup: f64,
    /// Lower edge of the one-sigma confidence band (µs), when the pricing
    /// device's kernel models kept calibration error statistics.
    pub ci_low_us: Option<f64>,
    /// Upper edge of the one-sigma confidence band (µs).
    pub ci_high_us: Option<f64>,
    /// Whether the incremental predictor served this evaluation without a
    /// full-walk fallback.
    pub incremental: bool,
}

/// The optimization search's answer: ranked "optimizations worth doing".
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptimizationBody {
    /// Predicted time of the unmodified baseline (µs).
    pub baseline_e2e_us: f64,
    /// Top-k candidates, fastest predicted time first.
    pub ranked: Vec<OptimizationEntry>,
    /// Candidates priced.
    pub evals: u64,
    /// Candidates cut by the branch-and-bound bound.
    pub prunes: u64,
    /// Fraction of evaluations served by the incremental predictor.
    pub incremental_frac: f64,
}

/// One response envelope.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Response {
    /// The request's correlation id (0 when the request was unparseable).
    pub id: u64,
    /// The outcome.
    pub body: Body,
}

/// Response payloads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Body {
    /// A priced configuration.
    Prediction(PredictionBody),
    /// A ranked configuration search.
    Recommendation(RecommendationBody),
    /// A ranked optimization search.
    Optimization(OptimizationBody),
    /// Server counters.
    Stats(StatsBody),
    /// Liveness answer.
    Pong,
    /// Any failure, including sheds and deadline misses.
    Error(ErrorBody),
}

/// A priced configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictionBody {
    /// Predicted E2E per-batch time (µs).
    pub e2e_us: f64,
    /// Predicted GPU active time (µs).
    pub active_us: f64,
    /// Final CPU clock (µs).
    pub cpu_us: f64,
    /// Final GPU clock (µs).
    pub gpu_us: f64,
    /// Predicted GPU utilization.
    pub utilization: f64,
    /// Kernels priced by the roofline fallback rather than a calibrated
    /// model.
    pub degraded_kernels: usize,
    /// `"calibrated"`, or `"degraded"` when the circuit breaker answered
    /// from the roofline twin (or any kernel lacked a calibrated model).
    pub confidence: String,
}

/// One candidate configuration in a recommendation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConfigChoice {
    /// Device name.
    pub device: String,
    /// Batch size.
    pub batch: u64,
    /// Sharding-plan label (e.g. `"w4/round_robin"`) when the candidate
    /// is a multi-GPU plan; absent for single-GPU candidates.
    pub sharding: Option<String>,
    /// Predicted per-batch time (µs).
    pub e2e_us: f64,
    /// Predicted training throughput.
    pub samples_per_sec: f64,
    /// Why this candidate ranks where it does.
    pub reasoning: String,
}

/// A candidate the recommender ruled out.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RejectedConfig {
    /// Device name.
    pub device: String,
    /// Batch size.
    pub batch: u64,
    /// Why it was rejected (memory, latency bound, build failure).
    pub reason: String,
}

/// The recommender's answer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecommendationBody {
    /// The top-ranked feasible configuration, when any exists.
    pub recommended: Option<ConfigChoice>,
    /// Every feasible configuration, best first.
    pub ranked: Vec<ConfigChoice>,
    /// Every infeasible configuration with its reason.
    pub rejected: Vec<RejectedConfig>,
}

/// Server counters, cache statistics, and breaker state.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StatsBody {
    /// Requests admitted past the queue.
    pub admitted: u64,
    /// Requests answered (any body, including errors).
    pub completed: u64,
    /// Requests shed because the queue was full.
    pub shed_queue: u64,
    /// Requests shed because estimated wait exceeded the latency budget.
    pub shed_latency: u64,
    /// Requests whose deadline expired (queued or mid-walk).
    pub deadline_expired: u64,
    /// Worker panics contained by the per-request isolation boundary.
    pub panics: u64,
    /// Answers served by the degraded roofline twin while the breaker was
    /// open.
    pub degraded_answers: u64,
    /// Times the circuit breaker tripped open.
    pub breaker_trips: u64,
    /// Requests rejected as malformed or referencing unknown names.
    pub rejected: u64,
    /// Current admission-queue depth.
    pub queue_depth: u64,
    /// Memo-cache hits across the server's full-fidelity caches.
    pub memo_hits: u64,
    /// Memo-cache misses.
    pub memo_misses: u64,
    /// Memo-cache entries currently resident.
    pub memo_entries: u64,
    /// Memo-cache evictions under the capacity cap.
    pub memo_evictions: u64,
    /// Prepared-graph entries currently resident (all models).
    pub prepared_entries: u64,
    /// Prepared-graph evictions under the capacity cap.
    pub prepared_evictions: u64,
    /// `"closed"`, `"open"`, or `"half-open"`.
    pub breaker: String,
}

/// Machine-readable failure classes, HTTP-flavored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// Malformed request (bad JSON, zero batch, hostile input).
    BadRequest,
    /// Unknown model or device name.
    NotFound,
    /// Load-shed by admission control; retry later.
    Shed,
    /// The request's deadline expired before an answer was ready.
    DeadlineExceeded,
    /// A server-side failure (contained panic, lowering error).
    Internal,
}

impl ErrorCode {
    /// The HTTP-alike numeric code.
    pub fn as_u16(self) -> u16 {
        match self {
            ErrorCode::BadRequest => 400,
            ErrorCode::NotFound => 404,
            ErrorCode::Shed => 429,
            ErrorCode::DeadlineExceeded => 504,
            ErrorCode::Internal => 500,
        }
    }

    /// The stable string kind clients switch on.
    pub fn kind(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::NotFound => "not-found",
            ErrorCode::Shed => "shed",
            ErrorCode::DeadlineExceeded => "deadline",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A typed failure payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Numeric code (400/404/429/504/500).
    pub code: u16,
    /// Stable kind string (`"shed"`, `"deadline"`, …).
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorBody {
    /// A typed error body.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ErrorBody { code: code.as_u16(), kind: code.kind().to_string(), message: message.into() }
    }
}

impl Body {
    /// Shorthand for an error body.
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Self {
        Body::Error(ErrorBody::new(code, message))
    }
}

/// Rejects hostile request lines before the JSON parser runs: over-long
/// lines, container nesting past [`MAX_JSON_DEPTH`] (tighter than the
/// vendored reader's own cap), and interior NUL/control garbage that no valid
/// request contains.
///
/// The implementation is the shared [`dlperf_trace::screen`] helper also
/// used by the trace-corpus ingest scanner; the wire constants above are
/// this protocol's and are unchanged.
///
/// # Errors
/// A static reason string suitable for a 400 response.
pub fn prescreen(line: &str) -> Result<(), &'static str> {
    screen::prescreen_line(
        line,
        &screen::ScreenLimits { max_line_bytes: MAX_LINE_BYTES, max_json_depth: MAX_JSON_DEPTH },
    )
}

/// Outcome of one [`read_bounded_line`] call (the shared
/// [`dlperf_trace::screen::LineRead`], re-exported so existing
/// `serve::api::LineRead` callers keep compiling).
pub use dlperf_trace::screen::LineRead;

/// Reads one protocol line while never buffering more than
/// [`MAX_LINE_BYTES`] + 1 bytes, whatever the peer sends. This is the
/// transport-side half of the hostile-input screen: [`prescreen`] checks
/// a line it is handed, but only a capped read keeps a newline-less
/// multi-gigabyte stream from exhausting memory before that check runs.
/// Delegates to the shared [`dlperf_trace::screen`] reader with this
/// protocol's cap.
///
/// # Errors
/// Propagates transport I/O errors; non-UTF-8 lines surface as
/// `InvalidData`, matching what `BufRead::lines` would have produced.
pub fn read_bounded_line<R: std::io::BufRead>(reader: &mut R) -> std::io::Result<LineRead> {
    screen::read_bounded_line(reader, MAX_LINE_BYTES)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn request_and_response_round_trip_as_json() {
        let req = Request {
            id: 7,
            op: Op::Predict(PredictQuery {
                model: "dlrm-default".into(),
                batch: 2048,
                device: "v100".into(),
                deadline_ms: Some(250.0),
            }),
        };
        let line = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(back.id, 7);
        match back.op {
            Op::Predict(q) => {
                assert_eq!(q.model, "dlrm-default");
                assert_eq!(q.batch, 2048);
                assert_eq!(q.deadline_ms, Some(250.0));
            }
            other => panic!("wrong op: {other:?}"),
        }

        let resp = Response { id: 7, body: Body::error(ErrorCode::Shed, "queue full") };
        let line = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        match back.body {
            Body::Error(e) => {
                assert_eq!(e.code, 429);
                assert_eq!(e.kind, "shed");
            }
            other => panic!("wrong body: {other:?}"),
        }
    }

    #[test]
    fn optional_fields_default_when_absent() {
        let line = r#"{"id": 1, "op": {"Predict": {"model": "dcn", "batch": 64, "device": "t4"}}}"#;
        let req: Request = serde_json::from_str(line).unwrap();
        match req.op {
            Op::Predict(q) => assert_eq!(q.deadline_ms, None),
            other => panic!("wrong op: {other:?}"),
        }
    }

    #[test]
    fn bounded_read_survives_an_oversized_line_and_resumes() {
        // A 3x-over-cap line, then a valid line: the oversized one is
        // reported (and drained) without ever materializing in full, and
        // the stream stays usable.
        let mut data = vec![b'x'; MAX_LINE_BYTES * 3];
        data.push(b'\n');
        data.extend_from_slice(b"{\"id\":1}\r\n");
        let mut reader = std::io::BufReader::with_capacity(4096, &data[..]);
        assert!(matches!(read_bounded_line(&mut reader).unwrap(), LineRead::Oversized));
        match read_bounded_line(&mut reader).unwrap() {
            LineRead::Line(line) => assert_eq!(line, "{\"id\":1}"),
            other => panic!("expected the next line, got {other:?}"),
        }
        assert!(matches!(read_bounded_line(&mut reader).unwrap(), LineRead::Eof));
    }

    #[test]
    fn bounded_read_handles_caps_and_unterminated_tails() {
        // Exactly at the cap: accepted (prescreen allows len == cap).
        let mut data = vec![b'y'; MAX_LINE_BYTES];
        data.push(b'\n');
        let mut reader = std::io::BufReader::new(&data[..]);
        match read_bounded_line(&mut reader).unwrap() {
            LineRead::Line(line) => assert_eq!(line.len(), MAX_LINE_BYTES),
            other => panic!("expected a line at the cap, got {other:?}"),
        }
        // One byte over, never newline-terminated: oversized, then EOF.
        let data = vec![b'z'; MAX_LINE_BYTES + 1];
        let mut reader = std::io::BufReader::new(&data[..]);
        assert!(matches!(read_bounded_line(&mut reader).unwrap(), LineRead::Oversized));
        assert!(matches!(read_bounded_line(&mut reader).unwrap(), LineRead::Eof));
        // A final line without a trailing newline still parses.
        let mut reader = std::io::BufReader::new(&b"ping"[..]);
        match read_bounded_line(&mut reader).unwrap() {
            LineRead::Line(line) => assert_eq!(line, "ping"),
            other => panic!("expected the tail line, got {other:?}"),
        }
    }

    #[test]
    fn prescreen_rejects_hostile_lines() {
        assert!(prescreen(&"x".repeat(MAX_LINE_BYTES + 1)).is_err());
        assert!(prescreen(&"[".repeat(MAX_JSON_DEPTH + 1)).is_err());
        assert!(prescreen("{\"id\"\0}").is_err());
        // Brackets inside strings do not count toward depth.
        let quoted = format!("{{\"s\": \"{}\"}}", "[".repeat(MAX_JSON_DEPTH * 2));
        assert!(prescreen(&quoted).is_ok());
        assert!(prescreen(r#"{"id": 1, "op": "Ping"}"#).is_ok());
    }
}
