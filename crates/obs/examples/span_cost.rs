//! Prints the recorder's per-span cost, enabled vs disabled — the numbers
//! behind the overhead budget the bench gate enforces (`obs_overhead_pct`
//! in `BENCH_sweep.json`).
//!
//! Spans are timed in batches of 1,000 with an untimed flush between
//! batches, as a sweep flushes between runs, so the figures are the
//! steady-state cost of a span and not of growing one huge span buffer.
//!
//! Run with `cargo run --release -p dlperf-obs --example span_cost`.

use std::time::Instant;

const BATCHES: u32 = 100;
const BATCH: u32 = 1_000;

/// Mean ns per call of `f` over `BATCHES` batches, flushing between them.
fn ns_per_span(mut f: impl FnMut(u32)) -> f64 {
    let mut total_ns = 0u128;
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for i in 0..BATCH {
            f(i);
        }
        total_ns += t0.elapsed().as_nanos();
        dlperf_obs::flush();
    }
    total_ns as f64 / f64::from(BATCHES * BATCH)
}

fn main() {
    dlperf_obs::enable();
    for _ in 0..BATCH {
        drop(dlperf_obs::span("warm", dlperf_obs::SpanKind::Work));
    }
    dlperf_obs::flush();

    let static_ns =
        ns_per_span(|_| drop(dlperf_obs::span("static-name", dlperf_obs::SpanKind::Work)));
    let with_ns = ns_per_span(|i| {
        drop(dlperf_obs::span_with(dlperf_obs::SpanKind::Work, || {
            format!("scenario:{i}")
        }))
    });

    dlperf_obs::disable();
    let off_ns = ns_per_span(|i| {
        drop(dlperf_obs::span_with(dlperf_obs::SpanKind::Work, || {
            format!("scenario:{i}")
        }))
    });

    println!("enabled, static name:    {static_ns:>7.0} ns/span");
    println!("enabled, formatted name: {with_ns:>7.0} ns/span");
    println!("disabled:                {off_ns:>7.1} ns/span (name closure never runs)");
}
