//! Differential-accuracy suite: the predictor stack vs the `gpusim`
//! oracle.
//!
//! Two layers of ground truth, mirroring the paper's evaluation:
//!
//! * **Per-kernel-family** (Table IV): a calibrated [`ModelRegistry`]
//!   against the noiseless analytic kernel times of [`Gpu`], over a fixed
//!   zoo of kernel shapes chosen *off* the microbenchmark grids so the
//!   models must interpolate. GMAE per family under a pinned threshold.
//! * **End-to-end** (Table V): [`Pipeline::predict`] against the
//!   [`ExecutionEngine`]'s measured iteration time over a fixed workload
//!   zoo, geometric-mean relative error under a pinned threshold.
//!
//! Thresholds are pinned from measured Quick-effort behaviour with margin
//! (roughly 1.5× the observed value at the time of pinning): a regression
//! that doubles any family's error fails loudly, while calibration noise
//! across seeds does not flake. Everything here is seeded and
//! deterministic.

use dlrm_perf_model::core::pipeline::Pipeline;
use dlrm_perf_model::gpusim::{DeviceSpec, Gpu, KernelSpec, MemcpyKind};
use dlrm_perf_model::kernels::{CalibrationEffort, ErrorStats, ModelRegistry};
use dlrm_perf_model::models::DlrmConfig;
use dlrm_perf_model::trace::engine::ExecutionEngine;

/// Off-grid kernel shapes per family, with the family's pinned GMAE
/// threshold.
fn family_zoo() -> Vec<(&'static str, f64, Vec<KernelSpec>)> {
    let gemm = vec![
        KernelSpec::gemm(96, 192, 384),
        KernelSpec::gemm(640, 320, 160),
        KernelSpec::gemm(1100, 1100, 1100),
        KernelSpec::Gemm {
            m: 48,
            n: 2000,
            k: 72,
            batch: 1,
        },
        KernelSpec::Gemm {
            m: 384,
            n: 384,
            k: 384,
            batch: 12,
        },
        KernelSpec::gemm(3000, 750, 96),
    ];
    let el_f = vec![
        KernelSpec::embedding_forward(384, 120_000, 6, 24, 48),
        KernelSpec::embedding_forward(1536, 900_000, 10, 80, 64),
        KernelSpec::embedding_forward(96, 40_000, 3, 16, 32),
        KernelSpec::embedding_forward(768, 300_000, 12, 48, 96),
    ];
    let el_b = vec![
        KernelSpec::embedding_backward(384, 120_000, 6, 24, 48),
        KernelSpec::embedding_backward(1536, 900_000, 10, 80, 64),
        KernelSpec::embedding_backward(768, 300_000, 12, 48, 96),
    ];
    let memcpy = vec![
        KernelSpec::memcpy_d2d(48 * 1024),
        KernelSpec::memcpy_d2d(7 * 1024 * 1024),
        KernelSpec::memcpy_h2d(640 * 1024),
        KernelSpec::Memcpy {
            bytes: 3 * 1024 * 1024,
            kind: MemcpyKind::DeviceToHost,
        },
    ];
    let elementwise = vec![
        KernelSpec::Elementwise {
            elems: 96_000,
            flops_per_elem: 1.0,
            bytes_per_elem: 8.0,
        },
        KernelSpec::Elementwise {
            elems: 1_500_000,
            flops_per_elem: 2.0,
            bytes_per_elem: 12.0,
        },
        KernelSpec::Elementwise {
            elems: 24_000_000,
            flops_per_elem: 4.0,
            bytes_per_elem: 8.0,
        },
    ];
    let shuffle = vec![
        KernelSpec::Concat { bytes: 900 * 1024 },
        KernelSpec::Transpose {
            batch: 384,
            rows: 24,
            cols: 48,
        },
        KernelSpec::TrilForward { batch: 1536, n: 27 },
        KernelSpec::TrilBackward { batch: 1536, n: 27 },
    ];
    // Pinned 2026-08 from Quick-effort seed-4242 measurements: GEMM 0.096,
    // EL-F 0.022, EL-B 0.002, memcpy 0.028, elementwise 0.031, shuffle
    // 0.026 — thresholds ~1.5–2x those values.
    vec![
        ("GEMM", 0.15, gemm),
        ("EL-F", 0.05, el_f),
        ("EL-B", 0.02, el_b),
        ("memcpy", 0.06, memcpy),
        ("elementwise", 0.06, elementwise),
        ("shuffle", 0.06, shuffle),
    ]
}

#[test]
fn kernel_family_gmae_under_pinned_thresholds() {
    let device = DeviceSpec::v100();
    let registry = ModelRegistry::calibrate(&device, CalibrationEffort::Quick, 4242);
    let gpu = Gpu::noiseless(device);
    let mut report = String::new();
    let mut failed = false;
    for (name, threshold, specs) in family_zoo() {
        let pred: Vec<f64> = specs
            .iter()
            .map(|k| registry.try_predict(k).unwrap())
            .collect();
        let actual: Vec<f64> = specs.iter().map(|k| gpu.kernel_time_noiseless(k)).collect();
        let stats = ErrorStats::try_from_pairs(&pred, &actual).expect("positive oracle times");
        report.push_str(&format!(
            "{name}: gmae {:.3} mean {:.3} (threshold {threshold})\n",
            stats.gmae, stats.mean
        ));
        if stats.gmae >= threshold {
            failed = true;
        }
    }
    println!("{report}");
    assert!(!failed, "per-family GMAE over threshold:\n{report}");
}

/// The E2E workload zoo: the paper-flavoured DLRM configs shrunk to test
/// scale, across the batch regimes where host overheads matter most.
fn workload_zoo() -> Vec<dlrm_perf_model::graph::Graph> {
    vec![
        DlrmConfig {
            rows_per_table: vec![500_000; 4],
            ..DlrmConfig::default_config(256)
        }
        .build(),
        DlrmConfig {
            rows_per_table: vec![500_000; 4],
            ..DlrmConfig::default_config(2048)
        }
        .build(),
        DlrmConfig {
            rows_per_table: vec![80_000; 6],
            ..DlrmConfig::ddp_config(512)
        }
        .build(),
        DlrmConfig {
            rows_per_table: vec![100_000; 8],
            ..DlrmConfig::mlperf_config(1024)
        }
        .build(),
    ]
}

#[test]
fn e2e_geomean_error_under_pinned_threshold() {
    // Pinned 2026-08: measured geomean 0.030 at these seeds; 2.5x margin.
    const E2E_GEOMEAN_THRESHOLD: f64 = 0.08;
    let device = DeviceSpec::v100();
    let zoo = workload_zoo();
    let pipeline = Pipeline::analyze(&device, &zoo, CalibrationEffort::Quick, 20, 1234);
    let mut errs = Vec::new();
    let mut report = String::new();
    for g in &zoo {
        let mut engine = ExecutionEngine::new(device.clone(), 77);
        engine.set_profiling(false);
        let measured = engine.measure_e2e(g, 12).expect("executes");
        let pred = pipeline.predict_individual(g).expect("lowers").e2e_us;
        let err = ((pred - measured) / measured).abs();
        report.push_str(&format!(
            "{}: pred {pred:.0} vs measured {measured:.0} -> {:.1}%\n",
            g.name,
            err * 100.0
        ));
        errs.push(err.max(1e-6));
    }
    let geomean = (errs.iter().map(|e| e.ln()).sum::<f64>() / errs.len() as f64).exp();
    println!("{report}geomean {geomean:.3}");
    assert!(
        geomean < E2E_GEOMEAN_THRESHOLD,
        "E2E geomean {geomean:.3} over pinned {E2E_GEOMEAN_THRESHOLD}:\n{report}"
    );
}

#[test]
fn memoized_prediction_is_differentially_identical() {
    // The accuracy suite pins thresholds against the *uncached* path; this
    // guard makes those numbers transfer to the sweep engine verbatim by
    // checking the memoized path is bitwise the same prediction.
    use dlrm_perf_model::core::WalkScratch;
    use dlrm_perf_model::kernels::MemoCache;
    let device = DeviceSpec::v100();
    let zoo = workload_zoo();
    let pipeline = Pipeline::analyze(&device, &zoo, CalibrationEffort::Quick, 8, 55);
    let cache = MemoCache::new();
    let mut scratch = WalkScratch::new();
    for g in &zoo {
        let plain = pipeline.predict(g).expect("lowers");
        let memo = pipeline
            .predict_memoized_scratch(g, &cache, &mut scratch)
            .expect("lowers");
        assert_eq!(
            plain.e2e_us.to_bits(),
            memo.e2e_us.to_bits(),
            "{}: cached prediction diverged",
            g.name
        );
        assert_eq!(plain.active_us.to_bits(), memo.active_us.to_bits());
    }
    assert!(
        cache.stats().hits > 0,
        "second pass over the zoo should hit"
    );
}
