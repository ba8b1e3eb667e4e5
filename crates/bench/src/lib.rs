//! Shared machinery for the experiment harness.
//!
//! Every bench target regenerates one table or figure of the paper's
//! evaluation section, printing the same rows/series the paper reports.
//! Calibration effort defaults to `Full` (paper-scale sweeps); set
//! `DLPERF_EFFORT=quick` for a fast smoke run of the whole harness.
//!
//! The Fig. 9 evaluation (three devices × three workloads × four batch
//! sizes) is recomputed by every target that reports it, so its rows always
//! come from the current models.

use dlperf_core::baselines;
use dlperf_core::pipeline::Pipeline;
use dlperf_core::report::PredictionRow;
use dlperf_gpusim::DeviceSpec;
use dlperf_graph::Graph;
use dlperf_kernels::CalibrationEffort;
use dlperf_models::DlrmConfig;
use dlperf_trace::engine::ExecutionEngine;

/// Calibration effort from the `DLPERF_EFFORT` environment variable
/// (`quick` → Quick, anything else → Full).
pub fn effort() -> CalibrationEffort {
    match std::env::var("DLPERF_EFFORT").as_deref() {
        Ok("quick") | Ok("QUICK") => CalibrationEffort::Quick,
        _ => CalibrationEffort::Full,
    }
}

/// Iterations used when measuring ground truth (paper: 100-iteration trace
/// files; quick mode uses fewer).
pub fn measure_iters() -> usize {
    match effort() {
        CalibrationEffort::Quick => 15,
        CalibrationEffort::Full => 100,
    }
}

/// Measures (non-profiled) mean E2E and mean active time of a graph.
pub fn measure_graph(device: &DeviceSpec, graph: &Graph, seed: u64) -> (f64, f64) {
    let mut engine = ExecutionEngine::new(device.clone(), seed);
    engine.set_profiling(false);
    let runs = engine.run_iterations(graph, measure_iters()).expect("workload executes");
    let e2e = runs.iter().map(|r| r.e2e_us).sum::<f64>() / runs.len() as f64;
    let active = runs.iter().map(|r| r.active_us()).sum::<f64>() / runs.len() as f64;
    (e2e, active)
}

/// The batch sizes of the Fig. 7/8/9 evaluations.
pub const BATCH_SIZES: [u64; 4] = [256, 512, 1024, 2048];

/// The full Fig. 9 evaluation: per (device × workload × batch) rows with
/// measured/predicted E2E and active times plus baselines.
pub fn e2e_evaluation() -> Vec<PredictionRow> {
    let effort = effort();
    let mut rows = Vec::new();
    for device in DeviceSpec::paper_devices() {
        eprintln!("== calibrating + evaluating on {} ==", device.name);
        let registry =
            dlperf_kernels::ModelRegistry::calibrate(&device, effort, 0x5151);
        for &batch in &BATCH_SIZES {
            let graphs: Vec<Graph> =
                DlrmConfig::paper_configs(batch).iter().map(|c| c.build()).collect();
            let pipeline = Pipeline::analyze_with_registry(
                &device,
                &graphs,
                registry.clone(),
                measure_iters(),
                batch,
            );
            for (wi, g) in graphs.iter().enumerate() {
                let (measured_e2e, measured_active) =
                    measure_graph(&device, g, batch ^ 0x51 ^ ((wi as u64 + 1) << 16));
                let individual = pipeline.predict_individual(g).expect("lowers");
                let shared = pipeline.predict(g).expect("lowers");
                let kernel_only =
                    baselines::kernel_only(g, pipeline.predictor().registry()).expect("lowers");
                rows.push(PredictionRow {
                    workload: g.name.clone(),
                    device: device.name.clone(),
                    batch,
                    measured_e2e_us: measured_e2e,
                    measured_active_us: measured_active,
                    pred_e2e_us: individual.e2e_us,
                    pred_shared_e2e_us: shared.e2e_us,
                    pred_active_us: individual.active_us,
                    kernel_only_us: kernel_only,
                });
            }
        }
    }
    rows
}

/// Prints a horizontal rule with a title.
pub fn header(title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

/// Per-side wall-clock statistics from [`interleave_ms`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SideTiming {
    /// Fastest round — the side's actual cost with scheduler noise removed.
    pub best_ms: f64,
    /// Median round — robust central tendency for ratio metrics, so one
    /// lucky round on either side cannot flip a comparison.
    pub median_ms: f64,
}

/// Interleaved measurement harness: runs every side once per round, for
/// `reps` rounds, and reports each side's best and median wall-clock.
///
/// Interleaving is the point — on a shared box a scheduling hiccup lands
/// on one *round*, not on one whole side, so comparing medians (ratios) or
/// bests (costs) across sides measures the paths' actual cost difference
/// rather than which side ran during the hiccup. This is the harness every
/// speedup/overhead number in the bench suite goes through; one-shot
/// timing is what produced physically impossible numbers like a negative
/// recorder overhead in earlier baselines.
pub fn interleave_ms(reps: usize, sides: &mut [&mut dyn FnMut()]) -> Vec<SideTiming> {
    assert!(reps > 0, "at least one round");
    let mut samples = vec![Vec::with_capacity(reps); sides.len()];
    for _ in 0..reps {
        for (side, times) in sides.iter_mut().zip(&mut samples) {
            let t0 = std::time::Instant::now();
            side();
            times.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    samples
        .into_iter()
        .map(|times| SideTiming { best_ms: best(&times), median_ms: median(times) })
        .collect()
}

/// Minimum of a non-empty sample set.
fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of a non-empty sample set (mean of the middle pair when even).
pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Compares a freshly generated bench JSON against a committed baseline:
/// for every listed key present in **both** documents, the fresh value must
/// not fall more than `tolerance` (fractional, e.g. 0.10) below the
/// baseline. Keys absent from either side are skipped, so newly added
/// metrics do not fail against historical baselines, and retired metrics do
/// not block fresh runs. Values may be JSON numbers or stringified numbers
/// (the bench emitters write strings).
///
/// `guard_keys` makes the diff like-for-like: when any guard key (run
/// configuration such as `sweep_threads`) differs between the two
/// documents, every gated key is skipped with a notice instead of being
/// compared — a speedup measured at one worker count floored against a
/// baseline measured at another is a confound, not a regression. A guard
/// key absent from exactly one side also counts as a difference (the run
/// configuration cannot be confirmed equal); absent from both is no
/// information and the comparison proceeds.
///
/// Returns the per-key report lines on success, the failures otherwise.
///
/// # Errors
/// Returns the failure lines when any gated metric regressed beyond
/// `tolerance`, or when either document fails to parse.
pub fn check_regression(
    baseline_json: &str,
    fresh_json: &str,
    keys: &[&str],
    tolerance: f64,
    guard_keys: &[&str],
) -> Result<Vec<String>, Vec<String>> {
    let parse = |name: &str, doc: &str| {
        serde::value::parse(doc).map_err(|e| vec![format!("{name}: unparseable JSON: {e}")])
    };
    let baseline = parse("baseline", baseline_json)?;
    let fresh = parse("fresh", fresh_json)?;
    let text = |doc: &serde::Value, key: &str| -> Option<String> {
        let v = doc.get(key)?;
        v.as_str().map(str::to_string).or_else(|| v.as_f64().map(|n| format!("{n}")))
    };
    if let Some(guard) = guard_keys
        .iter()
        .find(|&&k| text(&baseline, k) != text(&fresh, k))
    {
        let show = |v: Option<String>| v.unwrap_or_else(|| "absent".into());
        let why = format!(
            "context `{guard}` changed: baseline {}, fresh {}",
            show(text(&baseline, guard)),
            show(text(&fresh, guard)),
        );
        return Ok(keys
            .iter()
            .map(|key| format!("{key}: gate skipped ({why})"))
            .collect());
    }
    let number = |doc: &serde::Value, key: &str| -> Option<f64> {
        let v = doc.get(key)?;
        v.as_f64().or_else(|| v.as_str()?.trim().parse().ok())
    };
    let mut report = Vec::new();
    let mut failures = Vec::new();
    for &key in keys {
        let (Some(base), Some(new)) = (number(&baseline, key), number(&fresh, key)) else {
            report.push(format!("{key}: skipped (missing on one side)"));
            continue;
        };
        let floor = base * (1.0 - tolerance);
        let line = format!(
            "{key}: baseline {base:.3}, fresh {new:.3}, floor {floor:.3} ({:+.1}%)",
            (new / base - 1.0) * 100.0
        );
        if new < floor {
            failures.push(format!("REGRESSION {line}"));
        } else {
            report.push(format!("ok {line}"));
        }
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        failures.extend(report);
        Err(failures)
    }
}

/// Checks absolute ceilings on a fresh bench JSON: for every `(key, max)`
/// pair whose key is present, the fresh value must not exceed `max`. Keys
/// absent from the document are skipped (reported), so the gate keeps
/// working on bench files that predate a metric. Values may be JSON numbers
/// or stringified numbers, like [`check_regression`].
///
/// This is the overhead-budget side of the gate: ratios like `speedup` are
/// floored against a baseline, costs like the recorder's
/// `obs_overhead_pct` are capped against a fixed budget.
///
/// # Errors
/// Returns the failure lines when any metric exceeds its ceiling, or when
/// the document fails to parse.
pub fn check_ceilings(
    fresh_json: &str,
    ceilings: &[(&str, f64)],
) -> Result<Vec<String>, Vec<String>> {
    let fresh = serde::value::parse(fresh_json)
        .map_err(|e| vec![format!("fresh: unparseable JSON: {e}")])?;
    let number = |doc: &serde::Value, key: &str| -> Option<f64> {
        let v = doc.get(key)?;
        v.as_f64().or_else(|| v.as_str()?.trim().parse().ok())
    };
    let mut report = Vec::new();
    let mut failures = Vec::new();
    for &(key, max) in ceilings {
        let Some(value) = number(&fresh, key) else {
            report.push(format!("{key}: skipped (missing)"));
            continue;
        };
        let line = format!("{key}: {value:.3}, ceiling {max:.3}");
        if value > max {
            failures.push(format!("OVER BUDGET {line}"));
        } else {
            report.push(format!("ok {line}"));
        }
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        failures.extend(report);
        Err(failures)
    }
}

/// Checks absolute floors on a fresh bench JSON: for every `(key, min)`
/// pair whose key is present, the fresh value must not fall below `min`.
/// Keys absent from the document are skipped (reported), so the gate keeps
/// working on hosts that cannot produce a metric — e.g.
/// `parallel_efficiency_t4` is only emitted when the host has ≥ 4 cores.
/// Values may be JSON numbers or stringified numbers, like
/// [`check_regression`].
///
/// This is the benefit-floor side of the gate, independent of any
/// baseline: ratios that justify a code path's existence (`batched_speedup`,
/// the per-thread parallel efficiencies) must clear an absolute bar on
/// every run, so the path can never silently regress below its scalar or
/// sequential alternative the way a baseline-relative diff would allow by
/// ratcheting downward.
///
/// # Errors
/// Returns the failure lines when any metric falls below its floor, or
/// when the document fails to parse.
pub fn check_floors(
    fresh_json: &str,
    floors: &[(&str, f64)],
) -> Result<Vec<String>, Vec<String>> {
    let fresh = serde::value::parse(fresh_json)
        .map_err(|e| vec![format!("fresh: unparseable JSON: {e}")])?;
    let number = |doc: &serde::Value, key: &str| -> Option<f64> {
        let v = doc.get(key)?;
        v.as_f64().or_else(|| v.as_str()?.trim().parse().ok())
    };
    let mut report = Vec::new();
    let mut failures = Vec::new();
    for &(key, min) in floors {
        let Some(value) = number(&fresh, key) else {
            report.push(format!("{key}: skipped (missing)"));
            continue;
        };
        let line = format!("{key}: {value:.3}, floor {min:.3}");
        if value < min {
            failures.push(format!("BELOW FLOOR {line}"));
        } else {
            report.push(format!("ok {line}"));
        }
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        failures.extend(report);
        Err(failures)
    }
}

/// Reports non-gated context keys from both bench documents — run
/// configuration like `sweep_threads` that explains *why* the gated ratios
/// moved without ever failing the gate itself. A threading change between
/// baseline and fresh (e.g. a runner with different core counts) shows up
/// here as `baseline 1, fresh 4`, flagged `CHANGED` so the log reader sees
/// the confound next to the gated numbers.
///
/// Unparseable documents and missing keys degrade to report lines, never
/// errors: context must not be able to fail CI.
pub fn context_report(baseline_json: &str, fresh_json: &str, keys: &[&str]) -> Vec<String> {
    let baseline = serde::value::parse(baseline_json).ok();
    let fresh = serde::value::parse(fresh_json).ok();
    let text = |doc: &Option<serde::Value>, key: &str| -> Option<String> {
        let v = doc.as_ref()?.get(key)?;
        v.as_str().map(str::to_string).or_else(|| v.as_f64().map(|n| format!("{n}")))
    };
    keys.iter()
        .map(|&key| {
            match (text(&baseline, key), text(&fresh, key)) {
                (Some(b), Some(f)) if b == f => format!("{key}: {f}"),
                (Some(b), Some(f)) => format!("{key}: CHANGED baseline {b}, fresh {f}"),
                (None, Some(f)) => format!("{key}: fresh {f} (absent in baseline)"),
                (Some(b), None) => format!("{key}: baseline {b} (absent in fresh)"),
                (None, None) => format!("{key}: absent"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn regression_gate_flags_only_drops_beyond_tolerance() {
        let baseline = r#"{"speedup":"2.0","memo_speedup":"3.0","other":"x"}"#;
        let ok_fresh = r#"{"speedup":"1.9","memo_speedup":"9.9"}"#;
        let keys = ["speedup", "memo_speedup", "incremental_speedup"];
        let report =
            super::check_regression(baseline, ok_fresh, &keys, 0.10, &[]).expect("within");
        assert!(report.iter().any(|l| l.contains("incremental_speedup: skipped")));

        let bad_fresh = r#"{"speedup":"1.7","memo_speedup":"3.0"}"#;
        let failures =
            super::check_regression(baseline, bad_fresh, &keys, 0.10, &[]).unwrap_err();
        assert!(failures[0].contains("REGRESSION speedup"), "{failures:?}");

        assert!(super::check_regression("not json", ok_fresh, &keys, 0.1, &[]).is_err());
    }

    #[test]
    fn regression_gate_skips_when_context_guard_differs() {
        // A would-be regression (1.7 < 2.0 floor) measured under a different
        // thread count is a confound, not a failure: every gated key is
        // skipped with the guard named in the notice.
        let baseline = r#"{"speedup":"2.0","sweep_threads":"1"}"#;
        let fresh = r#"{"speedup":"1.7","sweep_threads":"4"}"#;
        let keys = ["speedup"];
        let guards = ["sweep_threads"];
        let report =
            super::check_regression(baseline, fresh, &keys, 0.10, &guards).expect("skipped");
        assert!(
            report[0].contains("gate skipped")
                && report[0].contains("sweep_threads")
                && report[0].contains("baseline 1, fresh 4"),
            "{report:?}"
        );

        // A guard key missing on one side cannot confirm like-for-like.
        let old = r#"{"speedup":"2.0"}"#;
        let report =
            super::check_regression(old, fresh, &keys, 0.10, &guards).expect("skipped");
        assert!(report[0].contains("baseline absent, fresh 4"), "{report:?}");

        // Matching guards still gate, and guards absent from both sides
        // carry no information, so the comparison proceeds (and fails).
        let same = r#"{"speedup":"1.7","sweep_threads":"1"}"#;
        let failures =
            super::check_regression(baseline, same, &keys, 0.10, &guards).unwrap_err();
        assert!(failures[0].contains("REGRESSION speedup"), "{failures:?}");
        assert!(super::check_regression(old, r#"{"speedup":"1.7"}"#, &keys, 0.10, &guards)
            .is_err());
    }

    #[test]
    fn floor_gate_requires_minimums_and_skips_missing_keys() {
        let floors = [("batched_speedup", 1.15), ("parallel_efficiency_t4", 0.25)];
        let ok = r#"{"batched_speedup":"1.31"}"#;
        let report = super::check_floors(ok, &floors).expect("above floor");
        assert!(report.iter().any(|l| l.contains("ok batched_speedup")));
        assert!(report.iter().any(|l| l.contains("parallel_efficiency_t4: skipped")));

        let under = r#"{"batched_speedup":"0.889"}"#;
        let failures = super::check_floors(under, &floors).unwrap_err();
        assert!(failures[0].contains("BELOW FLOOR batched_speedup"), "{failures:?}");

        assert!(super::check_floors("not json", &floors).is_err());
    }

    #[test]
    fn interleave_harness_reports_best_and_median_per_side() {
        let mut fast_calls = 0usize;
        let mut slow_calls = 0usize;
        let mut fast = || fast_calls += 1;
        let mut slow = || {
            slow_calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(2));
        };
        let timings = super::interleave_ms(5, &mut [&mut fast, &mut slow]);
        assert_eq!((fast_calls, slow_calls), (5, 5));
        assert_eq!(timings.len(), 2);
        for t in &timings {
            assert!(t.best_ms <= t.median_ms, "{t:?}");
        }
        assert!(timings[1].median_ms > timings[0].median_ms, "{timings:?}");

        assert_eq!(super::median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(super::median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn ceiling_gate_caps_costs_and_skips_missing_keys() {
        let ceilings = [("obs_overhead_pct", 3.0), ("not_there", 1.0)];
        let ok = r#"{"obs_overhead_pct":"1.2"}"#;
        let report = super::check_ceilings(ok, &ceilings).expect("under budget");
        assert!(report.iter().any(|l| l.contains("ok obs_overhead_pct")));
        assert!(report.iter().any(|l| l.contains("not_there: skipped")));

        let over = r#"{"obs_overhead_pct":"4.7"}"#;
        let failures = super::check_ceilings(over, &ceilings).unwrap_err();
        assert!(failures[0].contains("OVER BUDGET obs_overhead_pct"), "{failures:?}");

        assert!(super::check_ceilings("not json", &ceilings).is_err());
    }

    #[test]
    fn context_report_surfaces_changes_but_cannot_fail() {
        let baseline = r#"{"sweep_threads":"1","host_threads":"8"}"#;
        let fresh = r#"{"sweep_threads":"4","effective_threads":"4"}"#;
        let keys = ["sweep_threads", "host_threads", "effective_threads", "nope"];
        let lines = super::context_report(baseline, fresh, &keys);
        assert_eq!(lines.len(), keys.len());
        assert!(lines[0].contains("CHANGED baseline 1, fresh 4"), "{lines:?}");
        assert!(lines[1].contains("absent in fresh"), "{lines:?}");
        assert!(lines[2].contains("absent in baseline"), "{lines:?}");
        assert!(lines[3].contains("absent"), "{lines:?}");

        // Identical values print once, and garbage documents degrade to
        // "absent" lines rather than panics or errors.
        let same = super::context_report(baseline, baseline, &["sweep_threads"]);
        assert_eq!(same, ["sweep_threads: 1"]);
        assert_eq!(super::context_report("not json", "{}", &["k"]), ["k: absent"]);
    }
}
