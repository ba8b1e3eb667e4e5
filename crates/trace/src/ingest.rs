//! Streaming, bounded-memory ingestion of Chrome-trace corpora.
//!
//! Fleet trace corpora are hostile input in the same sense as
//! `dlperf-serve`'s wire protocol: files arrive truncated by crashed
//! jobs, bit-rotted, with events duplicated, reordered, or interleaved
//! with garbage. The strict loaders ([`Trace::from_json`],
//! `ChromeTraceSink::parse_json`) fail the whole artifact on the first
//! bad byte, which is the right contract for artifacts *this* repo
//! wrote, and the wrong one for calibration that must run unattended
//! over thousands of external files.
//!
//! This module is robust by construction:
//!
//! * **Bounded memory.** A file is scanned incrementally through a fixed
//!   read buffer plus three capped dynamic buffers (trace metadata,
//!   current event, current key). The scanner never holds a whole file;
//!   [`IngestLimits::scan_buffer_cap`] is the hard ceiling on dynamic
//!   buffer bytes and [`FileReport::peak_buffer_bytes`] is the measured
//!   high-water mark that tests assert against it.
//! * **Typed per-event results.** Each event either parses, or is
//!   rejected with a reason ([`SkipCounts`]): malformed bytes, over the
//!   per-event cap, invalid timing, a duplicate correlation id
//!   (last-wins: the final occurrence survives in its own position and
//!   the earlier ones are counted), or an out-of-order `Op` timestamp.
//! * **Skip budgets.** Rejected events are skipped and counted up to
//!   [`IngestLimits::skip_budget`] per file; past the budget the *file*
//!   is quarantined ([`FileReject::SkipBudgetExhausted`]), never the
//!   corpus.
//! * **Quarantine, not crash.** Structural failures (truncation, depth
//!   bombs, NUL framing, byte caps, I/O errors) quarantine the file with
//!   a typed [`FileReject`]; the per-file [`FileReport`]s aggregate into
//!   a [`QuarantineReport`] so every bad event and file is accounted
//!   for.
//!
//! The scanner accepts the two on-disk dialects this repo produces: a
//! single [`Trace`] object ([`Trace::to_json`]) or a JSON array of them
//! (`ChromeTraceSink::to_json`). Corpus-level fan-out, checkpointing,
//! and calibration live in `dlperf-core`'s `ingest` module; this module
//! is the per-file substrate.

use std::collections::HashMap;
use std::io::Read;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::events::{EventCat, Trace, TraceEvent};
use crate::screen::{JsonCursor, Lex};

/// Hard resource caps the scanner enforces on every file. These are the
/// trace-side analogue of serve's `MAX_LINE_BYTES` / `MAX_JSON_DEPTH`:
/// they bound what hostile input can make the process hold, not what
/// well-formed input is expected to need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestLimits {
    /// Most bytes read from one file before it is quarantined
    /// [`FileReject::TooLarge`].
    pub max_file_bytes: u64,
    /// Most bytes buffered for one event; larger events are rejected
    /// as oversized without ever being held in full.
    pub max_event_bytes: usize,
    /// Most bytes of non-event trace metadata (workload, device, span)
    /// buffered; past this the file is structurally quarantined.
    pub max_meta_bytes: usize,
    /// Deepest container nesting tolerated. Inside an event, deeper
    /// input poisons that event (malformed); outside, it quarantines
    /// the file.
    pub max_json_depth: usize,
    /// Events that may be rejected-and-skipped per file before the file
    /// itself is quarantined.
    pub skip_budget: u64,
}

impl Default for IngestLimits {
    fn default() -> Self {
        Self {
            max_file_bytes: 64 * 1024 * 1024,
            max_event_bytes: 64 * 1024,
            max_meta_bytes: 64 * 1024,
            max_json_depth: 64,
            skip_budget: 64,
        }
    }
}

impl IngestLimits {
    /// Hard ceiling on the scanner's dynamic buffer bytes for one file:
    /// metadata buffer + current-event buffer + the (16-byte) key
    /// buffer. [`FileReport::peak_buffer_bytes`] never exceeds this —
    /// the bounded-memory property tests assert it.
    pub fn scan_buffer_cap(&self) -> usize {
        self.max_meta_bytes + self.max_event_bytes + KEY_BUF_CAP
    }
}

/// Per-reason counts of events rejected and skipped in one file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SkipCounts {
    /// Bytes that were not a parseable event object (including NUL or
    /// depth-bomb poisoned elements and interleaved garbage).
    pub malformed: u64,
    /// Events over [`IngestLimits::max_event_bytes`].
    pub oversized: u64,
    /// Events with non-finite timestamps or negative/non-finite
    /// durations.
    pub invalid_timing: u64,
    /// Earlier occurrences dropped by last-wins correlation dedup
    /// (same category, same nonzero id — the lenient-load semantics).
    pub duplicate_correlation: u64,
    /// `Op` events whose start timestamp ran backwards relative to an
    /// already-accepted `Op` (the engine emits ops in non-decreasing
    /// start order; a violation means reordering corrupted the file).
    pub out_of_order_op: u64,
}

impl SkipCounts {
    /// Total events skipped, across all reasons.
    pub fn total(&self) -> u64 {
        self.malformed
            + self.oversized
            + self.invalid_timing
            + self.duplicate_correlation
            + self.out_of_order_op
    }

    /// Adds another file's counts into this aggregate.
    pub fn merge(&mut self, other: &SkipCounts) {
        self.malformed += other.malformed;
        self.oversized += other.oversized;
        self.invalid_timing += other.invalid_timing;
        self.duplicate_correlation += other.duplicate_correlation;
        self.out_of_order_op += other.out_of_order_op;
    }
}

/// Why one event was rejected (and, within budget, skipped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventReject {
    Malformed,
    Oversized,
    InvalidTiming,
    DuplicateCorrelation,
    OutOfOrderOp,
}

/// Why a whole file was quarantined. Quarantine is always file-scoped:
/// one bad file never fails the corpus.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FileReject {
    /// The file could not be read.
    Io(String),
    /// The file exceeded [`IngestLimits::max_file_bytes`].
    TooLarge,
    /// The file's framing is broken outside any single event: not a
    /// trace object/array, truncated mid-object, nesting or metadata
    /// byte caps exceeded, NUL framing bytes, or unparseable metadata.
    Structure(String),
    /// More events were rejected than [`IngestLimits::skip_budget`]
    /// allows; the file is too corrupt to trust its survivors.
    SkipBudgetExhausted,
    /// Ingestion of the file panicked (recorded by the corpus driver's
    /// `catch_unwind` isolation, never by the scanner itself).
    Panic(String),
}

impl std::fmt::Display for FileReject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileReject::Io(e) => write!(f, "I/O error: {e}"),
            FileReject::TooLarge => write!(f, "file exceeds byte cap"),
            FileReject::Structure(why) => write!(f, "broken structure: {why}"),
            FileReject::SkipBudgetExhausted => write!(f, "event skip budget exhausted"),
            FileReject::Panic(msg) => write!(f, "ingestion panicked: {msg}"),
        }
    }
}

/// Outcome class of one file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FileStatus {
    /// Every event parsed and survived validation.
    Clean,
    /// Some events were skipped (within budget); survivors are intact.
    Degraded,
    /// The file contributed nothing; see the reject reason.
    Quarantined(FileReject),
}

/// What happened to one file, in full: accepted/skipped accounting plus
/// the measured buffer high-water mark (the bounded-memory witness).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileReport {
    /// File path or synthetic label.
    pub label: String,
    /// Clean / degraded / quarantined outcome.
    pub status: FileStatus,
    /// Traces recovered from the file (0 when quarantined).
    pub traces: u64,
    /// Events accepted into those traces (0 when quarantined).
    pub events_accepted: u64,
    /// Events rejected and skipped, by reason. Kept even for
    /// quarantined files so every bad event stays accounted for.
    pub skips: SkipCounts,
    /// Total bytes consumed from the file.
    pub bytes_read: u64,
    /// High-water mark of the scanner's dynamic buffers, in bytes.
    /// Always ≤ [`IngestLimits::scan_buffer_cap`].
    pub peak_buffer_bytes: u64,
}

impl FileReport {
    /// Whether the file was quarantined.
    pub fn is_quarantined(&self) -> bool {
        matches!(self.status, FileStatus::Quarantined(_))
    }
}

/// Corpus-level roll-up of per-file outcomes: the artifact the chaos CI
/// job publishes, and the accounting the acceptance tests audit.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineReport {
    /// One report per ingested file, in corpus order.
    pub files: Vec<FileReport>,
}

impl QuarantineReport {
    /// Adds one file's report.
    pub fn push(&mut self, report: FileReport) {
        self.files.push(report);
    }

    /// Files that ingested with zero skips.
    pub fn clean_files(&self) -> usize {
        self.files
            .iter()
            .filter(|f| f.status == FileStatus::Clean)
            .count()
    }

    /// Files that ingested with some events skipped.
    pub fn degraded_files(&self) -> usize {
        self.files
            .iter()
            .filter(|f| f.status == FileStatus::Degraded)
            .count()
    }

    /// Files quarantined outright.
    pub fn quarantined_files(&self) -> usize {
        self.files.iter().filter(|f| f.is_quarantined()).count()
    }

    /// Total events accepted across the corpus.
    pub fn events_accepted(&self) -> u64 {
        self.files.iter().map(|f| f.events_accepted).sum()
    }

    /// Total events skipped across the corpus, by reason.
    pub fn skips(&self) -> SkipCounts {
        let mut total = SkipCounts::default();
        for f in &self.files {
            total.merge(&f.skips);
        }
        total
    }

    /// Largest per-file dynamic-buffer high-water mark seen.
    pub fn peak_buffer_bytes(&self) -> u64 {
        self.files
            .iter()
            .map(|f| f.peak_buffer_bytes)
            .max()
            .unwrap_or(0)
    }

    /// One-line human summary for logs and CI job output.
    pub fn summary(&self) -> String {
        format!(
            "{} files ({} clean, {} degraded, {} quarantined); \
             {} events accepted, {} skipped; peak scan buffer {} B",
            self.files.len(),
            self.clean_files(),
            self.degraded_files(),
            self.quarantined_files(),
            self.events_accepted(),
            self.skips().total(),
            self.peak_buffer_bytes(),
        )
    }

    /// Serializes the report (the CI artifact format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("quarantine report serialization cannot fail")
    }
}

/// Result of ingesting one file: the recovered traces plus the full
/// accounting. Quarantined files recover no traces.
#[derive(Debug, Clone)]
pub struct FileIngest {
    /// Traces recovered from the file (empty when quarantined).
    pub traces: Vec<Trace>,
    /// Accounting for the file.
    pub report: FileReport,
}

const KEY_BUF_CAP: usize = 16;
const READ_CHUNK: usize = 8 * 1024;

/// Scanner mode within one trace object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Buffering non-event metadata bytes, watching for the
    /// `"events"` key at depth 1.
    Meta,
    /// Saw `"events":`; waiting for the array opener.
    AwaitEvents,
    /// Inside the events array, accumulating one element at a time.
    Elems,
    /// The object closed.
    Done,
}

/// Incremental scanner for one `{...}` trace object; holds at most
/// `scan_buffer_cap` dynamic bytes regardless of input. The events array
/// is never buffered: each element is parsed (or rejected) as soon as
/// its closing byte arrives, and the metadata buffer is spliced around
/// an empty array for the final serde parse.
///
/// Structural bytes go through [`feed`](Self::feed) one at a time.
/// Inside an event element, [`feed_run`](Self::feed_run) first takes the
/// whole run of bytes that cannot change scanner state (in a string,
/// anything but `"` and `\`; outside one, anything but `"[]{},` and NUL)
/// with one copy, so skips, quarantines, caps and the buffer high-water
/// mark are exactly those of the byte-at-a-time path.
struct TraceScanner<'a> {
    limits: &'a IngestLimits,
    cursor: JsonCursor,
    mode: Mode,
    meta_buf: Vec<u8>,
    ev_buf: Vec<u8>,
    in_element: bool,
    expect_separator: bool,
    ev_is_container: bool,
    ev_poisoned: bool,
    ev_oversized: bool,
    elems_depth: usize,
    key_buf: Vec<u8>,
    capturing_key: bool,
    pending_events_key: bool,
    events: Vec<Option<TraceEvent>>,
    corr_seen: HashMap<(EventCat, u64), usize>,
    max_op_ts: f64,
    skips: SkipCounts,
    budget_left: u64,
    peak_buffer: usize,
}

impl<'a> TraceScanner<'a> {
    fn new(limits: &'a IngestLimits, budget_left: u64) -> Self {
        Self {
            limits,
            cursor: JsonCursor::new(),
            mode: Mode::Meta,
            meta_buf: Vec::new(),
            ev_buf: Vec::new(),
            in_element: false,
            expect_separator: false,
            ev_is_container: false,
            ev_poisoned: false,
            ev_oversized: false,
            elems_depth: 0,
            key_buf: Vec::new(),
            capturing_key: false,
            pending_events_key: false,
            events: Vec::new(),
            corr_seen: HashMap::new(),
            max_op_ts: f64::NEG_INFINITY,
            skips: SkipCounts::default(),
            budget_left,
            peak_buffer: 0,
        }
    }

    fn note_peak(&mut self) {
        let live = self.meta_buf.len() + self.ev_buf.len() + self.key_buf.len();
        self.peak_buffer = self.peak_buffer.max(live);
    }

    fn push_meta(&mut self, b: u8) -> Result<(), FileReject> {
        if self.meta_buf.len() >= self.limits.max_meta_bytes {
            return Err(FileReject::Structure(
                "trace metadata exceeds byte cap".into(),
            ));
        }
        self.meta_buf.push(b);
        self.note_peak();
        Ok(())
    }

    /// Charges one rejected event against the skip budget.
    fn consume_budget(&mut self, why: EventReject) -> Result<(), FileReject> {
        match why {
            EventReject::Malformed => self.skips.malformed += 1,
            EventReject::Oversized => self.skips.oversized += 1,
            EventReject::InvalidTiming => self.skips.invalid_timing += 1,
            EventReject::DuplicateCorrelation => self.skips.duplicate_correlation += 1,
            EventReject::OutOfOrderOp => self.skips.out_of_order_op += 1,
        }
        if self.budget_left == 0 {
            return Err(FileReject::SkipBudgetExhausted);
        }
        self.budget_left -= 1;
        Ok(())
    }

    /// Classifies and either accepts or (budget permitting) skips the
    /// element accumulated in `ev_buf`.
    fn complete_element(&mut self) -> Result<(), FileReject> {
        let poisoned = std::mem::take(&mut self.ev_poisoned);
        let oversized = std::mem::take(&mut self.ev_oversized);
        self.in_element = false;
        self.ev_is_container = false;
        // Parse, then clear: the buffer keeps its capacity for the next
        // event.
        let parsed = (!poisoned && !oversized)
            .then(|| std::str::from_utf8(&self.ev_buf).ok())
            .flatten()
            .and_then(|s| serde_json::from_str::<TraceEvent>(s).ok());
        self.ev_buf.clear();

        if oversized {
            return self.consume_budget(EventReject::Oversized);
        }
        if poisoned {
            return self.consume_budget(EventReject::Malformed);
        }
        let Some(ev) = parsed else {
            return self.consume_budget(EventReject::Malformed);
        };
        if !ev.ts_us.is_finite() || !ev.dur_us.is_finite() || ev.dur_us < 0.0 {
            return self.consume_budget(EventReject::InvalidTiming);
        }
        if ev.cat == EventCat::Op {
            if ev.ts_us < self.max_op_ts {
                return self.consume_budget(EventReject::OutOfOrderOp);
            }
            self.max_op_ts = ev.ts_us;
        }
        if ev.correlation != 0 {
            let key = (ev.cat, ev.correlation);
            if let Some(&prev) = self.corr_seen.get(&key) {
                // Last-wins: tombstone the earlier occurrence and keep
                // this one in its own position, counting the drop.
                self.events[prev] = None;
                self.consume_budget(EventReject::DuplicateCorrelation)?;
            }
            self.corr_seen.insert(key, self.events.len());
        }
        self.events.push(Some(ev));
        Ok(())
    }

    /// Consumes the leading run of `bytes` that cannot change scanner
    /// state, cut at [`IngestLimits::max_event_bytes`], and returns its
    /// length: 0 when the next byte needs [`feed`](Self::feed). The run
    /// is buffered with one copy and one high-water-mark update, or
    /// dropped when the event is already poisoned or oversized, as the
    /// per-byte path would.
    fn feed_run(&mut self, bytes: &[u8]) -> usize {
        if self.mode != Mode::Elems || !self.in_element || self.cursor.escaped() {
            return 0;
        }
        let stop = if self.cursor.in_string() {
            bytes.iter().position(|&b| b == b'"' || b == b'\\')
        } else {
            bytes
                .iter()
                .position(|&b| matches!(b, b'"' | b'[' | b']' | b'{' | b'}' | b',' | 0))
        };
        let run = stop.unwrap_or(bytes.len());
        if self.ev_poisoned || self.ev_oversized {
            return run;
        }
        let take = run.min(
            self.limits
                .max_event_bytes
                .saturating_sub(self.ev_buf.len()),
        );
        if take > 0 {
            self.ev_buf.extend_from_slice(&bytes[..take]);
            self.note_peak();
        }
        take
    }

    /// Advances the scanner by one byte.
    fn feed(&mut self, b: u8) -> Result<(), FileReject> {
        let was_in_string = self.cursor.in_string();
        let lex = self.cursor.step(b);
        match self.mode {
            Mode::Meta => self.feed_meta(b, lex, was_in_string),
            Mode::AwaitEvents => self.feed_await_events(b, lex),
            Mode::Elems => self.feed_elems(b, lex),
            Mode::Done => Err(FileReject::Structure(
                "bytes after trace object closed".into(),
            )),
        }
    }

    fn feed_meta(&mut self, b: u8, lex: Lex, was_in_string: bool) -> Result<(), FileReject> {
        self.push_meta(b)?;
        match lex {
            Lex::Str => {
                if !was_in_string && self.cursor.in_string() {
                    // Opening quote: a new depth-1 string may be a key.
                    self.pending_events_key = false;
                    self.capturing_key = self.cursor.depth() == 1;
                    self.key_buf.clear();
                } else if was_in_string && self.cursor.in_string() {
                    if self.capturing_key {
                        if self.key_buf.len() < KEY_BUF_CAP {
                            self.key_buf.push(b);
                        } else {
                            // Too long to be "events"; stop buffering.
                            self.capturing_key = false;
                        }
                    }
                } else if self.capturing_key {
                    // Closing quote.
                    self.pending_events_key = self.key_buf == b"events";
                    self.capturing_key = false;
                }
            }
            Lex::Open => {
                self.pending_events_key = false;
                if self.cursor.depth() > self.limits.max_json_depth {
                    return Err(FileReject::Structure("nesting exceeds depth cap".into()));
                }
            }
            Lex::Close => {
                self.pending_events_key = false;
                if self.cursor.depth() == 0 {
                    self.mode = Mode::Done;
                }
            }
            Lex::Plain => {
                if b == 0 {
                    return Err(FileReject::Structure("NUL byte outside any string".into()));
                }
                if b == b':' && self.pending_events_key && self.cursor.depth() == 1 {
                    self.pending_events_key = false;
                    self.mode = Mode::AwaitEvents;
                } else if !b.is_ascii_whitespace() {
                    self.pending_events_key = false;
                }
            }
        }
        Ok(())
    }

    fn feed_await_events(&mut self, b: u8, lex: Lex) -> Result<(), FileReject> {
        match lex {
            Lex::Plain if b.is_ascii_whitespace() => self.push_meta(b),
            Lex::Open if b == b'[' => {
                self.push_meta(b)?;
                self.elems_depth = self.cursor.depth();
                self.mode = Mode::Elems;
                Ok(())
            }
            _ => Err(FileReject::Structure("events value is not an array".into())),
        }
    }

    fn feed_elems(&mut self, b: u8, lex: Lex) -> Result<(), FileReject> {
        let depth = self.cursor.depth();
        if !self.in_element {
            // Between elements: whitespace, the array closer, or the
            // first byte of a new element.
            match lex {
                Lex::Plain if b.is_ascii_whitespace() => return Ok(()),
                Lex::Close if depth == self.elems_depth - 1 => {
                    // `]` — the events array closed with no element
                    // pending; resume metadata with an empty array
                    // spliced in.
                    self.push_meta(b)?;
                    self.mode = Mode::Meta;
                    return Ok(());
                }
                Lex::Plain if b == b',' && depth == self.elems_depth => {
                    if self.expect_separator {
                        // Separator after a completed container element.
                        self.expect_separator = false;
                        return Ok(());
                    }
                    // `[,` or `,,`: an empty element slot.
                    return self.consume_budget(EventReject::Malformed);
                }
                _ => {
                    // A missing separator (`}{`) is the element's own
                    // problem; salvage both sides.
                    self.expect_separator = false;
                    self.in_element = true;
                    self.ev_is_container = lex == Lex::Open;
                }
            }
        }
        // Inside an element (possibly its first byte, just marked).
        if lex == Lex::Open && depth > self.limits.max_json_depth {
            // Depth bombs inside an element poison the element, not
            // the file: stop buffering and reject at the boundary.
            self.ev_poisoned = true;
            self.ev_buf.clear();
        }
        if lex == Lex::Plain && b == 0 {
            self.ev_poisoned = true;
            self.ev_buf.clear();
        }

        // Boundary checks before accumulating the byte.
        let array_closer = lex == Lex::Close && depth == self.elems_depth - 1;
        let container_end = self.ev_is_container && lex == Lex::Close && depth == self.elems_depth;
        let scalar_end =
            !self.ev_is_container && lex == Lex::Plain && b == b',' && depth == self.elems_depth;

        if array_closer {
            // `]` while a (scalar) element is pending: finish it, then
            // close the array.
            self.complete_element()?;
            self.push_meta(b)?;
            self.mode = Mode::Meta;
            return Ok(());
        }
        if scalar_end {
            return self.complete_element();
        }

        if !self.ev_poisoned && !self.ev_oversized {
            if self.ev_buf.len() >= self.limits.max_event_bytes {
                self.ev_oversized = true;
                self.ev_buf.clear();
            } else {
                self.ev_buf.push(b);
                self.note_peak();
            }
        }
        if container_end {
            self.expect_separator = true;
            return self.complete_element();
        }
        Ok(())
    }

    /// Consumes the scanner after [`Mode::Done`], producing the trace.
    fn finish(self) -> Result<(Trace, SkipCounts, u64, usize), FileReject> {
        debug_assert_eq!(self.mode, Mode::Done);
        let meta = std::str::from_utf8(&self.meta_buf)
            .map_err(|_| FileReject::Structure("trace metadata is not UTF-8".into()))?;
        let mut trace: Trace = serde_json::from_str(meta)
            .map_err(|e| FileReject::Structure(format!("trace metadata rejected: {e}")))?;
        trace
            .validate()
            .map_err(|e| FileReject::Structure(format!("trace metadata rejected: {e}")))?;
        trace.events = self.events.into_iter().flatten().collect();
        Ok((trace, self.skips, self.budget_left, self.peak_buffer))
    }
}

/// Driver state across a whole file (single object or array-of-traces).
enum Drive<'a> {
    Begin,
    Single(TraceScanner<'a>),
    ArrayAwait,
    ArrayElem(TraceScanner<'a>),
    ArrayAfter,
    End,
}

/// Ingests one file's bytes from any reader. Never panics on any input,
/// never holds more than a fixed read chunk plus
/// [`IngestLimits::scan_buffer_cap`] dynamic bytes, and accounts for
/// every event it could not accept.
///
/// Each read chunk is consumed a run at a time inside event elements and
/// a byte at a time elsewhere; the result does not depend on how the
/// reader splits the file into reads.
pub fn ingest_reader<R: Read>(mut reader: R, label: &str, limits: &IngestLimits) -> FileIngest {
    let mut traces: Vec<Trace> = Vec::new();
    let mut skips = SkipCounts::default();
    let mut budget_left = limits.skip_budget;
    let mut peak_buffer: usize = 0;
    let mut bytes_read: u64 = 0;
    let mut state = Drive::Begin;
    let mut buf = [0u8; READ_CHUNK];

    let is_ws = |b: u8| matches!(b, b' ' | b'\t' | b'\r' | b'\n');

    let failure: Option<FileReject> = 'scan: loop {
        let n = match reader.read(&mut buf) {
            Ok(0) => break 'scan None,
            Ok(n) => n,
            Err(e) => break 'scan Some(FileReject::Io(e.to_string())),
        };
        bytes_read += n as u64;
        if bytes_read > limits.max_file_bytes {
            break 'scan Some(FileReject::TooLarge);
        }
        let mut i = 0;
        while i < n {
            if let Drive::Single(scanner) | Drive::ArrayElem(scanner) = &mut state {
                // A run always ends at a byte that needs the per-byte
                // path, or at the end of the chunk.
                i += scanner.feed_run(&buf[i..n]);
                if i == n {
                    break;
                }
            }
            let b = buf[i];
            i += 1;
            // Each byte is routed to the per-trace scanner or handled
            // as array framing; any typed failure quarantines the file.
            let next = match state {
                Drive::Begin => {
                    if is_ws(b) {
                        continue;
                    }
                    match b {
                        b'{' => {
                            let mut scanner = TraceScanner::new(limits, budget_left);
                            if let Err(e) = scanner.feed(b) {
                                break 'scan Some(e);
                            }
                            Drive::Single(scanner)
                        }
                        b'[' => Drive::ArrayAwait,
                        _ => {
                            break 'scan Some(FileReject::Structure(
                                "file does not start a trace object or array".into(),
                            ))
                        }
                    }
                }
                Drive::Single(ref mut scanner) | Drive::ArrayElem(ref mut scanner) => {
                    if let Err(e) = scanner.feed(b) {
                        break 'scan Some(e);
                    }
                    if scanner.mode != Mode::Done {
                        continue;
                    }
                    let (done, single) = match std::mem::replace(&mut state, Drive::Begin) {
                        Drive::Single(s) => (s, true),
                        Drive::ArrayElem(s) => (s, false),
                        _ => unreachable!("only scanner states reach here"),
                    };
                    match done.finish() {
                        Ok((trace, s, b_left, peak)) => {
                            traces.push(trace);
                            skips.merge(&s);
                            budget_left = b_left;
                            peak_buffer = peak_buffer.max(peak);
                        }
                        Err(e) => break 'scan Some(e),
                    }
                    if single {
                        Drive::End
                    } else {
                        Drive::ArrayAfter
                    }
                }
                Drive::ArrayAwait => {
                    if is_ws(b) {
                        continue;
                    }
                    match b {
                        b'{' => {
                            let mut scanner = TraceScanner::new(limits, budget_left);
                            if let Err(e) = scanner.feed(b) {
                                break 'scan Some(e);
                            }
                            Drive::ArrayElem(scanner)
                        }
                        b']' => Drive::End,
                        _ => {
                            break 'scan Some(FileReject::Structure(
                                "array element is not a trace object".into(),
                            ))
                        }
                    }
                }
                Drive::ArrayAfter => {
                    if is_ws(b) {
                        continue;
                    }
                    match b {
                        b',' => Drive::ArrayAwait,
                        b']' => Drive::End,
                        _ => {
                            break 'scan Some(FileReject::Structure(
                                "unexpected byte between array elements".into(),
                            ))
                        }
                    }
                }
                Drive::End => {
                    if is_ws(b) {
                        continue;
                    }
                    break 'scan Some(FileReject::Structure("trailing bytes after trace".into()));
                }
            };
            state = next;
        }
    };

    let failure = failure.or_else(|| match state {
        Drive::End => None,
        _ => Some(FileReject::Structure("truncated file".into())),
    });

    // Quarantined files contribute nothing; the skip counts survive so
    // the corpus report still accounts for what was seen going bad.
    let (traces, status, events_accepted) = match failure {
        Some(reject) => (Vec::new(), FileStatus::Quarantined(reject), 0),
        None => {
            let accepted: u64 = traces.iter().map(|t| t.events.len() as u64).sum();
            let status = if skips.total() == 0 {
                FileStatus::Clean
            } else {
                FileStatus::Degraded
            };
            (traces, status, accepted)
        }
    };

    let report = FileReport {
        label: label.to_string(),
        status,
        traces: traces.len() as u64,
        events_accepted,
        skips,
        bytes_read,
        peak_buffer_bytes: peak_buffer as u64,
    };
    record_file(&report);
    FileIngest { traces, report }
}

/// Ingests one file from disk. I/O failures quarantine the file rather
/// than erroring: the corpus must survive unreadable members.
pub fn ingest_file(path: &Path, limits: &IngestLimits) -> FileIngest {
    let label = path.display().to_string();
    match std::fs::File::open(path) {
        Ok(f) => ingest_reader(std::io::BufReader::new(f), &label, limits),
        Err(e) => {
            let report = FileReport {
                label,
                status: FileStatus::Quarantined(FileReject::Io(e.to_string())),
                traces: 0,
                events_accepted: 0,
                skips: SkipCounts::default(),
                bytes_read: 0,
                peak_buffer_bytes: 0,
            };
            record_file(&report);
            FileIngest {
                traces: Vec::new(),
                report,
            }
        }
    }
}

/// Ingests an in-memory document (tests and fault-injection harnesses).
pub fn ingest_str(doc: &str, label: &str, limits: &IngestLimits) -> FileIngest {
    ingest_reader(doc.as_bytes(), label, limits)
}

/// Process-wide ingest counters, surfaced through `dlperf-obs`.
struct IngestCounters {
    _group: std::sync::Arc<dlperf_obs::CounterGroup>,
    files_clean: dlperf_obs::CounterHandle,
    files_degraded: dlperf_obs::CounterHandle,
    files_quarantined: dlperf_obs::CounterHandle,
    events_accepted: dlperf_obs::CounterHandle,
    events_skipped: dlperf_obs::CounterHandle,
}

fn ingest_counters() -> &'static IngestCounters {
    static G: std::sync::OnceLock<IngestCounters> = std::sync::OnceLock::new();
    G.get_or_init(|| {
        let group = dlperf_obs::CounterGroup::register(
            "trace.ingest",
            &[
                "files_clean",
                "files_degraded",
                "files_quarantined",
                "events_accepted",
                "events_skipped",
            ],
        );
        IngestCounters {
            files_clean: group.handle("files_clean"),
            files_degraded: group.handle("files_degraded"),
            files_quarantined: group.handle("files_quarantined"),
            events_accepted: group.handle("events_accepted"),
            events_skipped: group.handle("events_skipped"),
            _group: group,
        }
    })
}

/// Mirrors one file outcome into the ingest counters.
fn record_file(report: &FileReport) {
    let c = ingest_counters();
    match report.status {
        FileStatus::Clean => c.files_clean.incr(),
        FileStatus::Degraded => c.files_degraded.incr(),
        FileStatus::Quarantined(_) => c.files_quarantined.incr(),
    }
    c.events_accepted.add(report.events_accepted);
    c.events_skipped.add(report.skips.total());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventCat;

    fn ev(name: &str, cat: EventCat, ts: f64, corr: u64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            cat,
            ts_us: ts,
            dur_us: 1.0,
            stream: 0,
            op_index: 0,
            correlation: corr,
            op_key: String::new(),
        }
    }

    fn sample_trace() -> Trace {
        Trace {
            workload: "w".into(),
            device: "d".into(),
            events: vec![
                ev("op_a", EventCat::Op, 0.0, 0),
                ev("launch", EventCat::Runtime, 1.0, 1),
                ev("k_kernel", EventCat::Kernel, 2.0, 1),
                ev("op_b", EventCat::Op, 3.0, 0),
            ],
            span_us: 10.0,
        }
    }

    #[test]
    fn clean_single_object_matches_strict_load() {
        let t = sample_trace();
        let json = t.to_json();
        let out = ingest_str(&json, "t", &IngestLimits::default());
        assert_eq!(out.report.status, FileStatus::Clean);
        assert_eq!(out.traces.len(), 1);
        let strict = Trace::from_json(&json).unwrap();
        assert_eq!(out.traces[0].events, strict.events);
        assert_eq!(out.traces[0].workload, strict.workload);
        assert_eq!(out.traces[0].span_us.to_bits(), strict.span_us.to_bits());
        assert_eq!(out.report.events_accepted, 4);
        assert_eq!(out.report.skips.total(), 0);
    }

    #[test]
    fn clean_array_matches_parse_json() {
        let a = sample_trace();
        let mut b = sample_trace();
        b.workload = "w2".into();
        let json = format!("[{},{}]", a.to_json(), b.to_json());
        let out = ingest_str(&json, "arr", &IngestLimits::default());
        assert_eq!(out.report.status, FileStatus::Clean);
        let strict = crate::ChromeTraceSink::parse_json(&json).unwrap();
        assert_eq!(out.traces.len(), strict.len());
        for (got, want) in out.traces.iter().zip(&strict) {
            assert_eq!(got.events, want.events);
            assert_eq!(got.workload, want.workload);
        }
    }

    #[test]
    fn empty_array_is_clean_and_empty() {
        let out = ingest_str(" [ ] ", "e", &IngestLimits::default());
        assert_eq!(out.report.status, FileStatus::Clean);
        assert!(out.traces.is_empty());
    }

    #[test]
    fn interleaved_garbage_skips_but_keeps_intact_events() {
        let t = sample_trace();
        let json = t.to_json();
        // Splice a garbage element between events.
        let needle = "},{";
        let pos = json.find(needle).unwrap();
        let mangled = format!(
            "{}}},not json at all,{{{}",
            &json[..pos],
            &json[pos + needle.len()..]
        );
        let out = ingest_str(&mangled, "g", &IngestLimits::default());
        assert_eq!(out.report.status, FileStatus::Degraded);
        assert_eq!(out.report.skips.malformed, 1);
        assert_eq!(out.report.events_accepted, 4, "intact events all survive");
    }

    #[test]
    fn duplicate_correlation_is_last_wins_and_counted() {
        let mut t = sample_trace();
        t.events.push(ev("launch_again", EventCat::Runtime, 5.0, 1));
        let out = ingest_str(&t.to_json(), "dup", &IngestLimits::default());
        assert_eq!(out.report.status, FileStatus::Degraded);
        assert_eq!(out.report.skips.duplicate_correlation, 1);
        let names: Vec<&str> = out.traces[0]
            .events
            .iter()
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(
            names,
            ["op_a", "k_kernel", "op_b", "launch_again"],
            "earlier occurrence tombstoned; the last keeps its own position"
        );
    }

    #[test]
    fn out_of_order_op_is_skipped() {
        let mut t = sample_trace();
        t.events.push(ev("op_backwards", EventCat::Op, 0.5, 0));
        let out = ingest_str(&t.to_json(), "ooo", &IngestLimits::default());
        assert_eq!(out.report.status, FileStatus::Degraded);
        assert_eq!(out.report.skips.out_of_order_op, 1);
        assert_eq!(out.report.events_accepted, 4);
    }

    #[test]
    fn invalid_timing_is_skipped() {
        let t = sample_trace();
        let json = t.to_json().replace("\"ts_us\":3", "\"ts_us\":null");
        let out = ingest_str(&json, "nan", &IngestLimits::default());
        assert_eq!(out.report.status, FileStatus::Degraded);
        // serde can't parse null into f64 → malformed rather than
        // invalid-timing; a negative duration exercises the other path.
        assert_eq!(out.report.skips.total(), 1);
        let json = t.to_json().replace("\"dur_us\":1", "\"dur_us\":-1");
        let out = ingest_str(&json, "neg", &IngestLimits::default());
        assert_eq!(out.report.skips.invalid_timing, 4);
    }

    #[test]
    fn oversized_event_is_skipped_without_buffering() {
        let limits = IngestLimits {
            max_event_bytes: 256,
            ..IngestLimits::default()
        };
        let mut t = sample_trace();
        t.events[1].name = "x".repeat(4096);
        let out = ingest_str(&t.to_json(), "big", &limits);
        assert_eq!(out.report.status, FileStatus::Degraded);
        assert_eq!(out.report.skips.oversized, 1);
        assert_eq!(out.report.events_accepted, 3);
        assert!(out.report.peak_buffer_bytes <= limits.scan_buffer_cap() as u64);
    }

    #[test]
    fn skip_budget_exhaustion_quarantines_the_file() {
        let limits = IngestLimits {
            skip_budget: 2,
            ..IngestLimits::default()
        };
        let t = sample_trace();
        let json = t.to_json().replace("\"dur_us\":1", "\"dur_us\":-1");
        let out = ingest_str(&json, "corrupt", &limits);
        assert_eq!(
            out.report.status,
            FileStatus::Quarantined(FileReject::SkipBudgetExhausted)
        );
        assert!(out.traces.is_empty());
        assert_eq!(out.report.events_accepted, 0);
    }

    #[test]
    fn truncated_file_is_quarantined_as_structure() {
        let json = sample_trace().to_json();
        let cut = &json[..json.len() / 2];
        let out = ingest_str(cut, "trunc", &IngestLimits::default());
        assert!(matches!(
            out.report.status,
            FileStatus::Quarantined(FileReject::Structure(_))
        ));
    }

    #[test]
    fn depth_bomb_outside_events_is_quarantined_inside_is_poisoned() {
        let limits = IngestLimits {
            max_json_depth: 8,
            ..IngestLimits::default()
        };
        let bomb = "[".repeat(64);
        let out = ingest_str(&format!("{{\"deep\":{bomb}"), "bomb", &limits);
        assert!(matches!(
            out.report.status,
            FileStatus::Quarantined(FileReject::Structure(_))
        ));
        // Inside an element: the element dies, the file survives.
        let mut t = sample_trace();
        t.events.truncate(2);
        let json = t.to_json();
        let needle = "},{";
        let pos = json.find(needle).unwrap();
        let mangled = format!(
            "{}}},{},{{{}",
            &json[..pos],
            "[".repeat(64) + &"]".repeat(64),
            &json[pos + needle.len()..]
        );
        let out = ingest_str(&mangled, "bomb-in", &limits);
        assert_eq!(out.report.status, FileStatus::Degraded);
        assert_eq!(out.report.skips.malformed, 1);
        assert_eq!(out.report.events_accepted, 2);
    }

    #[test]
    fn file_byte_cap_quarantines() {
        let limits = IngestLimits {
            max_file_bytes: 64,
            ..IngestLimits::default()
        };
        let out = ingest_str(&sample_trace().to_json(), "huge", &limits);
        assert_eq!(
            out.report.status,
            FileStatus::Quarantined(FileReject::TooLarge)
        );
    }

    #[test]
    fn peak_buffer_stays_under_cap_even_for_newline_free_garbage() {
        let limits = IngestLimits {
            max_event_bytes: 512,
            max_meta_bytes: 512,
            ..IngestLimits::default()
        };
        // A giant single-line "file" that is all one malformed element.
        let doc = format!("{{\"events\":[{}]}}", "9".repeat(100_000));
        let out = ingest_str(&doc, "line", &limits);
        assert!(out.report.peak_buffer_bytes <= limits.scan_buffer_cap() as u64);
    }

    #[test]
    fn quarantine_report_aggregates_and_serializes() {
        let mut report = QuarantineReport::default();
        let clean = ingest_str(&sample_trace().to_json(), "a", &IngestLimits::default());
        report.push(clean.report);
        let bad = ingest_str("nonsense", "b", &IngestLimits::default());
        report.push(bad.report);
        assert_eq!(report.clean_files(), 1);
        assert_eq!(report.quarantined_files(), 1);
        assert_eq!(report.events_accepted(), 4);
        let back: QuarantineReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(back, report);
        assert!(report.summary().contains("2 files"));
    }
}
