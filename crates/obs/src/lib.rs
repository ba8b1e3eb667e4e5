//! # dlperf-obs
//!
//! The unified observability core of the workspace: one zero-dependency,
//! thread-safe recorder that every layer (`core`, `kernels`, `distrib`,
//! `runtime`, `trace`, `faults`) emits through, instead of the ad-hoc stat
//! structs each crate used to keep privately.
//!
//! Two kinds of signal, with different determinism contracts:
//!
//! * **Spans** — hierarchical wall-clock intervals (RAII guards over a
//!   monotonic epoch, nested via a thread-local stack). Span *timings* are
//!   wall-clock and therefore non-deterministic by design; they exist for
//!   self-profiling, never as model inputs. Spans cost nothing while the
//!   recorder is disabled: creating a guard is one relaxed atomic load, and
//!   any closure building the span name is never called.
//! * **Counters** — monotone `u64` event counts ([`Counter`] /
//!   [`CounterGroup`]). Counters are *always on* (they are the data the
//!   public stats views are built over) and bitwise-deterministic for a
//!   deterministic workload: they count events, never measure time, and are
//!   excluded from golden-snapshot inputs.
//!
//! Recorded spans and counter snapshots flow to pluggable [`Sink`]s on
//! [`flush`]. The `dlperf-trace` crate ships a `ChromeTraceSink` that turns
//! a flush into the same trace dialect its own analysis pipeline parses, so
//! the performance model can profile itself.
//!
//! The `noop` cargo feature compiles the span machinery out entirely:
//! [`enable`] becomes a no-op and [`enabled`] a constant `false`, letting
//! the optimizer delete instrumentation sites. Counters still count.
//!
//! ## Example
//!
//! ```
//! use dlperf_obs as obs;
//!
//! obs::enable();
//! {
//!     let _outer = obs::span("analyze", obs::SpanKind::Phase);
//!     let _inner = obs::span("walk", obs::SpanKind::Work);
//! } // guards record on drop
//! let snap = obs::flush();
//! assert_eq!(snap.spans.len(), 2);
//! obs::disable();
//! ```

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

/// What a span represents, which decides how sinks render it.
///
/// `Phase` spans are bookkeeping intervals (a calibration, a prepare step,
/// a supervisor attempt). `Work` spans are units of priced work (a
/// critical-path walk, one sweep scenario): a trace sink emits a device-side
/// event for them so the self-trace gets a host/device breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Host-side orchestration interval.
    Phase,
    /// A unit of actual prediction work.
    Work,
}

/// One finished span, as delivered to sinks.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for a root span.
    pub parent: u64,
    /// Recording-thread ordinal (assigned on each thread's first span).
    pub thread: u32,
    /// Span name: borrowed for [`span`]'s static names, owned for
    /// [`span_with`]'s built ones.
    pub name: Cow<'static, str>,
    /// Phase or Work.
    pub kind: SpanKind,
    /// Start, microseconds since the recorder epoch (monotonic clock).
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

impl SpanRecord {
    /// End timestamp.
    pub fn end_us(&self) -> f64 {
        self.start_us + self.dur_us
    }
}

/// One counter's value at flush time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Owning group name.
    pub group: String,
    /// Counter name within the group.
    pub name: &'static str,
    /// Current value.
    pub value: u64,
}

/// Everything a [`flush`] hands to sinks: the drained spans plus a snapshot
/// of every live counter group, sorted by (group, counter) name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Finished spans since the previous flush, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Counter values at flush time (cumulative, not deltas).
    pub counters: Vec<CounterSnapshot>,
}

/// A destination for flushed snapshots.
pub trait Sink: Send + Sync {
    /// Receives one flushed snapshot.
    fn consume(&self, snapshot: &Snapshot);
}

/// A single cache-line-padded atomic event counter.
///
/// Padding keeps two counters owned by different threads (e.g. memo-cache
/// hits bumped by sweep workers) off the same cache line.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Counter { v: AtomicU64::new(0) }
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }

    /// Resets to zero (for per-run stats views that clear between runs).
    pub fn reset(&self) {
        self.v.store(0, Ordering::Relaxed);
    }
}

/// A named set of counters owned by one component instance (a memo cache,
/// a registry, a supervisor). Creating a group registers it with the global
/// recorder via a weak reference, so flushes export whatever groups are
/// still alive without keeping dead instances around.
#[derive(Debug)]
pub struct CounterGroup {
    name: String,
    counters: Vec<(&'static str, Counter)>,
}

impl CounterGroup {
    /// Creates and globally registers a group with the given counters.
    pub fn register(name: impl Into<String>, counter_names: &[&'static str]) -> Arc<CounterGroup> {
        let group = Arc::new(CounterGroup {
            name: name.into(),
            counters: counter_names.iter().map(|&n| (n, Counter::new())).collect(),
        });
        let mut reg = recorder().groups.lock().expect("obs group registry poisoned");
        reg.push(Arc::downgrade(&group));
        // Opportunistically prune groups whose owners dropped.
        reg.retain(|w| w.strong_count() > 0);
        group
    }

    /// The group name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A cheap handle to one counter for hot-path increments.
    ///
    /// # Panics
    /// Panics if `name` was not in the list passed to [`register`] — a
    /// programming error at the instrumentation site.
    ///
    /// [`register`]: CounterGroup::register
    pub fn handle(self: &Arc<Self>, name: &'static str) -> CounterHandle {
        let idx = self
            .counters
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("counter `{name}` not registered in group `{}`", self.name));
        CounterHandle { group: Arc::clone(self), idx }
    }

    /// Current value of a counter, 0 for unknown names.
    pub fn value(&self, name: &'static str) -> u64 {
        self.counters.iter().find(|(n, _)| *n == name).map(|(_, c)| c.get()).unwrap_or(0)
    }

    /// Snapshot of every counter in this group.
    pub fn snapshot(&self) -> Vec<CounterSnapshot> {
        self.counters
            .iter()
            .map(|(n, c)| CounterSnapshot { group: self.name.clone(), name: n, value: c.get() })
            .collect()
    }
}

/// Hot-path handle to one counter inside a [`CounterGroup`].
#[derive(Debug, Clone)]
pub struct CounterHandle {
    group: Arc<CounterGroup>,
    idx: usize,
}

impl CounterHandle {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.group.counters[self.idx].1.add(n);
    }

    /// Adds 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.group.counters[self.idx].1.get()
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.group.counters[self.idx].1.reset()
    }
}

struct Recorder {
    enabled: AtomicBool,
    epoch: Instant,
    next_span_id: AtomicU64,
    next_thread: AtomicU32,
    spans: Mutex<Vec<SpanRecord>>,
    groups: Mutex<Vec<Weak<CounterGroup>>>,
    sinks: Mutex<Vec<Box<dyn Sink>>>,
}

fn recorder() -> &'static Recorder {
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(|| Recorder {
        enabled: AtomicBool::new(false),
        epoch: Instant::now(),
        next_span_id: AtomicU64::new(1),
        next_thread: AtomicU32::new(0),
        spans: Mutex::new(Vec::new()),
        groups: Mutex::new(Vec::new()),
        sinks: Mutex::new(Vec::new()),
    })
}

thread_local! {
    /// Per-thread (ordinal, open-span-id stack). Ordinal u32::MAX = unassigned.
    static THREAD_CTX: RefCell<(u32, Vec<u64>)> = const { RefCell::new((u32::MAX, Vec::new())) };
}

/// Turns span recording on. No-op under the `noop` feature.
pub fn enable() {
    if cfg!(feature = "noop") {
        return;
    }
    recorder().enabled.store(true, Ordering::Release);
}

/// Turns span recording off. Guards already open become inert only for
/// future spans; open guards still record on drop.
pub fn disable() {
    recorder().enabled.store(false, Ordering::Release);
}

/// Whether spans are currently recorded. Constant `false` under `noop`.
#[inline]
pub fn enabled() -> bool {
    if cfg!(feature = "noop") {
        return false;
    }
    recorder().enabled.load(Ordering::Relaxed)
}

/// Installs a sink; every subsequent [`flush`] feeds it.
pub fn install_sink(sink: Box<dyn Sink>) {
    recorder().sinks.lock().expect("obs sink registry poisoned").push(sink);
}

/// Removes every installed sink (tests and examples that scope a sink's
/// lifetime call this when done).
pub fn clear_sinks() {
    recorder().sinks.lock().expect("obs sink registry poisoned").clear();
}

/// Drains finished spans, snapshots live counter groups, feeds every
/// installed sink, and returns the snapshot.
pub fn flush() -> Snapshot {
    let rec = recorder();
    let spans = {
        let mut buf = rec.spans.lock().expect("obs span buffer poisoned");
        // The next round of spans gets this round's capacity up front, so
        // recording does not regrow the buffer span by span.
        let capacity = buf.capacity();
        std::mem::replace(&mut *buf, Vec::with_capacity(capacity))
    };
    let mut counters = Vec::new();
    {
        let mut groups = rec.groups.lock().expect("obs group registry poisoned");
        groups.retain(|w| w.strong_count() > 0);
        for g in groups.iter().filter_map(Weak::upgrade) {
            counters.extend(g.snapshot());
        }
    }
    counters.sort_by(|a, b| (a.group.as_str(), a.name).cmp(&(b.group.as_str(), b.name)));
    let snapshot = Snapshot { spans, counters };
    for sink in rec.sinks.lock().expect("obs sink registry poisoned").iter() {
        sink.consume(&snapshot);
    }
    snapshot
}

/// Starts a span with a static name. When the recorder is disabled this is
/// a single relaxed atomic load returning an inert guard; when enabled the
/// name is borrowed, never copied.
#[inline]
pub fn span(name: &'static str, kind: SpanKind) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    start_span(Cow::Borrowed(name), kind)
}

/// Starts a span whose name is built lazily — the closure only runs when
/// the recorder is enabled, so dynamic labels cost nothing when disabled.
#[inline]
pub fn span_with<F: FnOnce() -> String>(kind: SpanKind, make_name: F) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    start_span(Cow::Owned(make_name()), kind)
}

fn start_span(name: Cow<'static, str>, kind: SpanKind) -> SpanGuard {
    let rec = recorder();
    let id = rec.next_span_id.fetch_add(1, Ordering::Relaxed);
    let (thread, parent) = THREAD_CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        if ctx.0 == u32::MAX {
            ctx.0 = rec.next_thread.fetch_add(1, Ordering::Relaxed);
        }
        let parent = ctx.1.last().copied().unwrap_or(0);
        ctx.1.push(id);
        (ctx.0, parent)
    });
    let start_us = rec.epoch.elapsed().as_secs_f64() * 1e6;
    SpanGuard(Some(ActiveSpan { id, parent, thread, name, kind, start_us }))
}

#[derive(Debug)]
struct ActiveSpan {
    id: u64,
    parent: u64,
    thread: u32,
    name: Cow<'static, str>,
    kind: SpanKind,
    start_us: f64,
}

/// RAII guard: the span is recorded when the guard drops.
#[derive(Debug)]
#[must_use = "a span guard records on drop; binding it to _ ends the span immediately"]
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    /// Whether this guard records anything (false when the recorder was
    /// disabled at creation).
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else { return };
        let rec = recorder();
        let dur_us = (rec.epoch.elapsed().as_secs_f64() * 1e6 - active.start_us).max(0.0);
        THREAD_CTX.with(|ctx| {
            let stack = &mut ctx.borrow_mut().1;
            // RAII makes this a pop from the top; tolerate out-of-order
            // drops of moved guards by removing wherever the id sits.
            if let Some(pos) = stack.iter().rposition(|&sid| sid == active.id) {
                stack.remove(pos);
            }
        });
        rec.spans.lock().expect("obs span buffer poisoned").push(SpanRecord {
            id: active.id,
            parent: active.parent,
            thread: active.thread,
            name: active.name,
            kind: active.kind,
            start_us: active.start_us,
            dur_us,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorder is global; tests that toggle it serialize here.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_record_nothing_and_build_no_name() {
        let _l = TEST_LOCK.lock().unwrap();
        disable();
        let _ = flush();
        let g = span_with(SpanKind::Phase, || panic!("name closure must not run"));
        assert!(!g.is_recording());
        drop(g);
        assert!(flush().spans.is_empty());
    }

    #[test]
    fn nesting_and_parentage_are_recorded() {
        let _l = TEST_LOCK.lock().unwrap();
        disable();
        let _ = flush();
        enable();
        {
            let _outer = span("outer", SpanKind::Phase);
            let _inner = span("inner", SpanKind::Work);
        }
        disable();
        let snap = flush();
        assert_eq!(snap.spans.len(), 2);
        // Inner drops (and records) first.
        let inner = &snap.spans[0];
        let outer = &snap.spans[1];
        assert_eq!(inner.name, "inner");
        assert!(matches!(inner.name, Cow::Borrowed(_)), "a static name is not copied");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.thread, outer.thread);
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.end_us() <= outer.end_us() + 1e-9);
    }

    #[test]
    fn sibling_spans_share_a_parent_and_do_not_overlap() {
        let _l = TEST_LOCK.lock().unwrap();
        disable();
        let _ = flush();
        enable();
        {
            let _root = span("root", SpanKind::Phase);
            drop(span("a", SpanKind::Work));
            drop(span("b", SpanKind::Work));
        }
        disable();
        let snap = flush();
        let root = snap.spans.iter().find(|s| s.name == "root").unwrap();
        let a = snap.spans.iter().find(|s| s.name == "a").unwrap();
        let b = snap.spans.iter().find(|s| s.name == "b").unwrap();
        assert_eq!(a.parent, root.id);
        assert_eq!(b.parent, root.id);
        assert!(a.end_us() <= b.start_us + 1e-9, "siblings are sequential");
    }

    #[test]
    fn counters_count_while_spans_are_disabled() {
        let group = CounterGroup::register("test.counters", &["hits", "misses"]);
        let hits = group.handle("hits");
        hits.add(3);
        hits.incr();
        assert_eq!(group.value("hits"), 4);
        assert_eq!(group.value("misses"), 0);
        let snap = group.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap.iter().any(|c| c.name == "hits" && c.value == 4));
    }

    #[test]
    fn flush_exports_live_groups_sorted_and_drops_dead_ones() {
        let _l = TEST_LOCK.lock().unwrap();
        let keep = CounterGroup::register("zz.keep", &["n"]);
        keep.handle("n").add(7);
        {
            let dead = CounterGroup::register("aa.dead", &["n"]);
            dead.handle("n").incr();
        }
        let snap = flush();
        assert!(snap.counters.iter().any(|c| c.group == "zz.keep" && c.value == 7));
        assert!(!snap.counters.iter().any(|c| c.group == "aa.dead"));
        let zz: Vec<_> = snap.counters.iter().map(|c| c.group.clone()).collect();
        let mut sorted = zz.clone();
        sorted.sort();
        assert_eq!(zz, sorted, "counter export is name-sorted");
    }

    #[test]
    fn threads_get_distinct_ordinals() {
        let _l = TEST_LOCK.lock().unwrap();
        disable();
        let _ = flush();
        enable();
        drop(span("main-thread", SpanKind::Phase));
        std::thread::spawn(|| drop(span("worker", SpanKind::Phase)))
            .join()
            .unwrap();
        disable();
        let snap = flush();
        let m = snap.spans.iter().find(|s| s.name == "main-thread").unwrap();
        let w = snap.spans.iter().find(|s| s.name == "worker").unwrap();
        assert_ne!(m.thread, w.thread);
    }

    struct CollectSink(Mutex<usize>);
    impl Sink for CollectSink {
        fn consume(&self, snapshot: &Snapshot) {
            *self.0.lock().unwrap() += snapshot.spans.len();
        }
    }

    #[test]
    fn sinks_receive_flushes() {
        let _l = TEST_LOCK.lock().unwrap();
        disable();
        let _ = flush();
        clear_sinks();
        let sink = Arc::new(CollectSink(Mutex::new(0)));
        struct Fwd(Arc<CollectSink>);
        impl Sink for Fwd {
            fn consume(&self, s: &Snapshot) {
                self.0.consume(s)
            }
        }
        install_sink(Box::new(Fwd(Arc::clone(&sink))));
        enable();
        drop(span("x", SpanKind::Work));
        disable();
        let _ = flush();
        clear_sinks();
        assert_eq!(*sink.0.lock().unwrap(), 1);
    }
}
