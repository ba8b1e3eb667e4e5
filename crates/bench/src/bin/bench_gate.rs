//! CI bench-regression gate.
//!
//! Compares a freshly generated bench JSON against the committed baseline
//! and exits non-zero when a gated metric regressed beyond the tolerance:
//!
//! ```text
//! bench_gate <baseline.json> <fresh.json> [tolerance]
//! ```
//!
//! Gated keys, three polarity classes:
//!
//! * `speedup` and `memo_speedup` — floored against the baseline, but
//!   only when the `sweep_threads` context matches between the two
//!   documents (a ratio measured at one worker count diffed against a
//!   baseline measured at another is a confound, and is skipped with a
//!   notice instead of compared).
//! * `obs_overhead_pct` — capped at an absolute budget: the recorder may
//!   not slow the steady-state sweep by more than 3%.
//! * `batched_speedup` and `parallel_efficiency_t{2,4,8}` — absolute
//!   floors independent of any baseline. Batched kernel-model inference
//!   must beat scalar by ≥ 1.15× on every run (0.889 once shipped
//!   unnoticed while this key was echoed-only), and the thread-scaling
//!   curve must retain a minimum parallel efficiency at each worker count
//!   the host can actually run (the bench only emits
//!   `parallel_efficiency_t{N}` for N ≤ host cores; missing keys are
//!   skipped, so small hosts still pass).
//!
//! A key missing from either document is skipped, so the gate keeps
//! working across baselines that predate a metric.
//!
//! `incremental_speedup` is recorded but not gated here: the bench itself
//! hard-asserts the incremental path is ≥2× and bitwise identical on
//! every run (that assertion, not this diff, is the regression
//! protection).

use std::process::ExitCode;

const GATED_KEYS: [&str; 2] = ["speedup", "memo_speedup"];
/// Run-configuration keys that must match before the baseline-relative
/// keys are compared at all.
const GUARD_KEYS: [&str; 1] = ["sweep_threads"];
const CEILINGS: [(&str, f64); 1] = [("obs_overhead_pct", 3.0)];
/// Absolute minimums a fresh run must clear regardless of baseline. The
/// efficiency floors are deliberately below the typical curve (a 4-core
/// runner usually lands t2 ≈ 0.6–0.9, t4 ≈ 0.4–0.7): they catch the
/// failure mode where added synchronization makes extra workers pure
/// overhead, not ordinary scheduler noise.
const FLOORS: [(&str, f64); 5] = [
    ("batched_speedup", 1.15),
    ("parallel_efficiency_t2", 0.35),
    ("parallel_efficiency_t4", 0.20),
    ("parallel_efficiency_t8", 0.10),
    // The optimization search's inner loop must be carried by the
    // incremental predictor, not full-walk fallbacks.
    ("search_incremental_frac", 0.5),
];
/// Run-configuration keys echoed (never gated) so the log records the
/// threading context the gated ratios were measured under, plus the
/// trace-ingestion throughput/footprint keys from `BENCH_ingest.json`
/// and the α–β collective-model evaluation throughput from
/// `BENCH_sweep.json` (echoed for the same reason: wall-clock and RSS
/// on shared runners are too noisy to floor — the invariants those
/// numbers ride on are asserted by tests, not this diff).
const CONTEXT_KEYS: [&str; 13] = [
    "search_evals_per_sec",
    "sweep_threads",
    "effective_threads",
    "host_threads",
    "speedup_t2",
    "speedup_t4",
    "speedup_t8",
    "ingest_events_per_sec",
    "ingest_peak_buffer_bytes",
    "ingest_peak_rss_kib",
    "ingest_wall_ms",
    "comms_evals_per_sec",
    "comms_eval_ms",
];
const DEFAULT_TOLERANCE: f64 = 0.10;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (Some(baseline_path), Some(fresh_path)) = (args.get(1), args.get(2)) else {
        eprintln!("usage: bench_gate <baseline.json> <fresh.json> [tolerance]");
        return ExitCode::from(2);
    };
    let tolerance: f64 = match args.get(3) {
        Some(t) => match t.parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("bench_gate: tolerance `{t}` is not a number");
                return ExitCode::from(2);
            }
        },
        None => DEFAULT_TOLERANCE,
    };
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("bench_gate: cannot read {path}: {e}");
            None
        }
    };
    let (Some(baseline), Some(fresh)) = (read(baseline_path), read(fresh_path)) else {
        return ExitCode::from(2);
    };
    let regression =
        dlperf_bench::check_regression(&baseline, &fresh, &GATED_KEYS, tolerance, &GUARD_KEYS);
    let ceilings = dlperf_bench::check_ceilings(&fresh, &CEILINGS);
    let floors = dlperf_bench::check_floors(&fresh, &FLOORS);
    let context = dlperf_bench::context_report(&baseline, &fresh, &CONTEXT_KEYS);
    match (regression, ceilings, floors) {
        (Ok(report), Ok(ceiling_report), Ok(floor_report)) => {
            println!("bench gate passed ({:.0}% tolerance):", tolerance * 100.0);
            for line in report.into_iter().chain(ceiling_report).chain(floor_report) {
                println!("  {line}");
            }
            println!("context:");
            for line in &context {
                println!("  {line}");
            }
            ExitCode::SUCCESS
        }
        (regression, ceilings, floors) => {
            eprintln!("bench gate FAILED ({:.0}% tolerance):", tolerance * 100.0);
            for line in [regression, ceilings, floors]
                .into_iter()
                .flat_map(|r| match r {
                    Ok(lines) | Err(lines) => lines,
                })
            {
                eprintln!("  {line}");
            }
            eprintln!("context:");
            for line in &context {
                eprintln!("  {line}");
            }
            ExitCode::FAILURE
        }
    }
}
