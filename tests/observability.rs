//! The observability contract, end to end:
//!
//! * **Self-trace round-trip** — a sweep recorded through
//!   [`ChromeTraceSink`] serializes to the same JSON dialect the `trace`
//!   crate parses; re-parsing and rebuilding the event tree recovers the
//!   sweep's own phase/work structure with durations intact. The model
//!   profiles itself with its own trace-mining machinery.
//! * **Recorder transparency** — enabling the recorder (spans buffered,
//!   sink installed) changes no prediction bit anywhere in the stack:
//!   full Algorithm 1 walk, incremental re-prediction, and the 8-thread
//!   memoized sweep all produce bitwise-identical results recorder-on vs
//!   recorder-off, across randomized scenario axes.
//!
//! The recorder is process-global, so every test serializes on one lock
//! and drains the span buffer before releasing it.

use std::sync::{Mutex, MutexGuard, OnceLock};

use dlrm_perf_model::core::incremental::IncrementalPredictor;
use dlrm_perf_model::core::pipeline::Pipeline;
use dlrm_perf_model::core::predictor::{Prediction, WalkScratch};
use dlrm_perf_model::core::sweep::{ScenarioMatrix, SweepEngine, SweepOutcome};
use dlrm_perf_model::gpusim::DeviceSpec;
use dlrm_perf_model::graph::Graph;
use dlrm_perf_model::kernels::CalibrationEffort;
use dlrm_perf_model::models::DlrmConfig;
use dlrm_perf_model::obs;
use dlrm_perf_model::trace::event_tree::EventTree;
use dlrm_perf_model::trace::{ChromeTraceSink, EventCat, Trace};
use proptest::prelude::*;

/// Serializes recorder-touching tests (the recorder is process-global).
fn recorder_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Resets global recorder state between tests: spans drained, sinks gone.
fn reset_recorder() {
    obs::disable();
    obs::clear_sinks();
    obs::flush();
}

/// One shared calibration (the expensive part).
fn base() -> &'static (Pipeline, Graph) {
    static BASE: OnceLock<(Pipeline, Graph)> = OnceLock::new();
    BASE.get_or_init(|| {
        let g = DlrmConfig {
            rows_per_table: vec![150_000; 4],
            ..DlrmConfig::default_config(512)
        }
        .build();
        let pipe = Pipeline::analyze(
            &DeviceSpec::v100(),
            std::slice::from_ref(&g),
            CalibrationEffort::Quick,
            8,
            43,
        );
        (pipe, g)
    })
}

fn scenarios() -> Vec<dlrm_perf_model::core::sweep::Scenario> {
    ScenarioMatrix::new()
        .device("v100", 0)
        .batches(&[256, 512, 1024])
        .variant("base", Vec::new())
        .variant(
            "fused",
            vec![dlrm_perf_model::core::sweep::GraphMutation::FuseEmbeddingBags],
        )
        .build()
}

/// Full bitwise fingerprint of an outcome: labels, prediction bits, errors.
fn fingerprint(o: &SweepOutcome) -> Vec<(String, Option<u64>, Option<String>)> {
    o.results
        .iter()
        .map(|r| {
            let r = r.as_ref().expect("complete run");
            (
                r.label.clone(),
                r.prediction.as_ref().map(|p| p.e2e_us.to_bits()),
                r.error.clone(),
            )
        })
        .collect()
}

/// All observable bits of a prediction.
fn bits(p: &Prediction) -> [u64; 5] {
    [
        p.e2e_us.to_bits(),
        p.active_us.to_bits(),
        p.cpu_us.to_bits(),
        p.gpu_us.to_bits(),
        p.degraded_kernels as u64,
    ]
}

#[test]
fn self_trace_round_trips_through_the_trace_pipeline() {
    let _guard = recorder_lock();
    reset_recorder();
    let (pipe, g) = base();
    let engine = SweepEngine::new(vec![pipe.clone()]).with_threads(2);

    let sink = ChromeTraceSink::install("self-sweep", "host");
    obs::enable();
    let outcome = engine.run(g, &scenarios());
    obs::disable();
    obs::flush();
    obs::clear_sinks();
    assert!(!outcome.cancelled);

    // The sink's traces survive a full JSON round-trip through the same
    // parser that reads external profiler traces.
    let json = sink.to_json();
    let reparsed = ChromeTraceSink::parse_json(&json).expect("self-trace JSON parses");
    let originals = sink.traces();
    assert!(
        !originals.is_empty(),
        "sweep must record at least one thread"
    );
    assert_eq!(reparsed.len(), originals.len());

    for (orig, back) in originals.iter().zip(&reparsed) {
        assert_eq!(orig.events.len(), back.events.len());
        for (a, b) in orig.events.iter().zip(&back.events) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.cat, b.cat);
            let tol = 1e-6 * a.dur_us.abs().max(1.0);
            assert!(
                (a.dur_us - b.dur_us).abs() <= tol,
                "duration drifted: {a:?} vs {b:?}"
            );
            assert!((a.ts_us - b.ts_us).abs() <= 1e-6 * a.ts_us.abs().max(1.0));
        }
    }

    // The event tree recovers the sweep's structure: the coordinating
    // thread carries the `sweep.run` phase, worker threads carry one
    // scenario op per priced scenario, and every scenario op attributes
    // device (work) time from its nested walk spans.
    let all_ops: Vec<String> = reparsed
        .iter()
        .flat_map(|t| t.of_cat(EventCat::Op))
        .map(|e| e.op_key.clone())
        .collect();
    assert!(
        all_ops.iter().any(|k| k == "sweep.run"),
        "missing sweep.run phase in {all_ops:?}"
    );
    // A scenario priced on the coordinating thread nests under `sweep.run`
    // (a Runtime event); one priced on a worker thread is a top-level op.
    // Either way every scenario label must appear exactly once.
    let mut scenario_labels: Vec<String> = reparsed
        .iter()
        .flat_map(|t| t.events.iter())
        .filter(|e| e.cat != EventCat::Kernel && e.name.starts_with("scenario:"))
        .map(|e| e.name.clone())
        .collect();
    scenario_labels.sort();
    scenario_labels.dedup();
    assert_eq!(
        scenario_labels.len(),
        scenarios().len(),
        "one span per priced scenario"
    );

    let mut device_time = 0.0;
    for t in &reparsed {
        let tree = EventTree::build(t);
        assert!(!tree.ops.is_empty());
        for op in &tree.ops {
            if op.op.op_key.starts_with("scenario:") {
                assert!(
                    !op.launches.is_empty(),
                    "scenario op `{}` lost its nested spans",
                    op.op.op_key
                );
                // Nesting survives: every launch lies inside its op's span.
                for l in &op.launches {
                    assert!(l.runtime.ts_us >= op.op.ts_us - 1e-9);
                    assert!(l.runtime.end_us() <= op.op.end_us() + 1e-9);
                }
            }
        }
        device_time += tree.total_device_time_us();
    }
    assert!(device_time > 0.0, "work spans must attribute device time");
}

#[test]
fn self_trace_files_round_trip_from_disk() {
    let _guard = recorder_lock();
    reset_recorder();
    let (pipe, g) = base();
    let engine = SweepEngine::new(vec![pipe.clone()]).with_threads(1);

    let sink = ChromeTraceSink::install("self-sweep", "host");
    obs::enable();
    let _ = engine.run_sequential(g, &scenarios());
    obs::disable();
    obs::flush();
    obs::clear_sinks();

    let dir = std::env::temp_dir().join("dlperf-selftrace-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("selftrace.json");
    sink.write_json(&path).unwrap();
    let loaded = ChromeTraceSink::parse_json(&std::fs::read_to_string(&path).unwrap())
        .expect("file round-trips");
    assert_eq!(loaded.len(), sink.traces().len());
    // Each element is individually a valid Trace document too.
    for t in &loaded {
        let again = Trace::from_json(&t.to_json()).expect("single-trace parse");
        assert_eq!(again.events.len(), t.events.len());
    }
    std::fs::remove_file(path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Enabling the recorder (spans + sink) flips no prediction bit in the
    /// full walk, the incremental walk, or the 8-thread memoized sweep.
    #[test]
    fn recorder_never_changes_prediction_bits(
        batch in (0usize..4).prop_map(|i| [128u64, 256, 512, 1024][i]),
        fuse in (0u8..2).prop_map(|b| b == 1),
    ) {
        let _guard = recorder_lock();
        reset_recorder();
        let (pipe, g) = base();

        let mut variant = g.clone();
        dlrm_perf_model::graph::transform::resize_batch(&mut variant, batch).unwrap();
        if fuse {
            let _ = dlrm_perf_model::graph::transform::fuse_embedding_bags(&mut variant);
        }

        let inc = IncrementalPredictor::new(pipe.predictor().clone(), g.clone()).unwrap();
        let matrix = ScenarioMatrix::new()
            .device("v100", 0)
            .batches(&[batch, 2 * batch])
            .build();

        // Recorder off: the reference bits.
        let full_off = bits(&pipe.predict(&variant).unwrap());
        let (inc_p, _) = inc.repredict_scratch(&variant, None, &mut WalkScratch::new()).unwrap();
        let inc_off = bits(&inc_p);
        let sweep_off = fingerprint(
            &SweepEngine::new(vec![pipe.clone()]).with_threads_exact(8).run(g, &matrix),
        );

        // Recorder on, sink installed: same bits, exactly.
        let _sink = ChromeTraceSink::install("invariance", "host");
        obs::enable();
        let full_on = bits(&pipe.predict(&variant).unwrap());
        let (inc_p, _) = inc.repredict_scratch(&variant, None, &mut WalkScratch::new()).unwrap();
        let inc_on = bits(&inc_p);
        let sweep_on = fingerprint(
            &SweepEngine::new(vec![pipe.clone()]).with_threads_exact(8).run(g, &matrix),
        );
        obs::disable();
        obs::flush();
        obs::clear_sinks();

        prop_assert_eq!(full_off, full_on);
        prop_assert_eq!(inc_off, inc_on);
        prop_assert_eq!(sweep_off, sweep_on);
    }
}
