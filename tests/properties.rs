//! Property-based tests on the simulator, graph, and predictor invariants.

use dlrm_perf_model::gpusim::{DeviceSpec, Gpu, KernelSpec};
use dlrm_perf_model::graph::transform::resize_batch;
use dlrm_perf_model::models::DlrmConfig;
use dlrm_perf_model::trace::engine::ExecutionEngine;
use proptest::prelude::*;

fn devices() -> impl Strategy<Value = DeviceSpec> {
    prop_oneof![
        Just(DeviceSpec::v100()),
        Just(DeviceSpec::p100()),
        Just(DeviceSpec::titan_xp()),
    ]
}

fn kernels() -> impl Strategy<Value = KernelSpec> {
    prop_oneof![
        (1u64..4096, 1u64..4096, 1u64..4096).prop_map(|(m, n, k)| KernelSpec::gemm(m, n, k)),
        (1u64..64, 1u64..512, 1u64..512, 1u64..512)
            .prop_map(|(b, m, n, k)| KernelSpec::bmm(b, m, n, k)),
        (1u64..4096, 1u64..5_000_000, 1u64..32, 1u64..100, 1u64..256)
            .prop_map(|(b, e, t, l, d)| KernelSpec::embedding_forward(b, e, t, l, d)),
        (1u64..4096, 1u64..5_000_000, 1u64..32, 1u64..100, 1u64..256)
            .prop_map(|(b, e, t, l, d)| KernelSpec::embedding_backward(b, e, t, l, d)),
        (1u64..(1 << 28)).prop_map(KernelSpec::memcpy_d2d),
        (1u64..(1 << 28)).prop_map(|b| KernelSpec::Concat { bytes: b }),
        (1u64..2048, 1u64..512, 1u64..512).prop_map(|(b, r, c)| KernelSpec::Transpose {
            batch: b,
            rows: r,
            cols: c
        }),
        (1u64..4096, 2u64..128).prop_map(|(b, n)| KernelSpec::TrilForward { batch: b, n }),
        (1u64..4096, 2u64..128).prop_map(|(b, n)| KernelSpec::TrilBackward { batch: b, n }),
        (1u64..(1 << 24), 0u32..16, 1u32..5).prop_map(|(e, f, by)| KernelSpec::Elementwise {
            elems: e,
            flops_per_elem: f as f64,
            bytes_per_elem: by as f64 * 4.0,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every kernel on every device has a finite, positive, deterministic
    /// simulated time.
    #[test]
    fn kernel_times_positive_and_deterministic(dev in devices(), k in kernels()) {
        let gpu = Gpu::noiseless(dev);
        let t1 = gpu.kernel_time_noiseless(&k);
        let t2 = gpu.kernel_time_noiseless(&k);
        prop_assert!(t1.is_finite() && t1 > 0.0);
        prop_assert_eq!(t1, t2);
    }

    /// Measurement noise is bounded: 100 noisy samples stay within a
    /// generous band of the analytic time.
    #[test]
    fn noise_stays_bounded(k in kernels()) {
        let dev = DeviceSpec::v100();
        let noiseless = Gpu::noiseless(dev.clone()).kernel_time_noiseless(&k);
        let mut gpu = Gpu::with_seed(dev, 9);
        for _ in 0..100 {
            let t = gpu.kernel_time(&k);
            prop_assert!(t > 0.0);
            prop_assert!((t - noiseless).abs() < 0.25 * noiseless + 2.0,
                "sample {} vs analytic {}", t, noiseless);
        }
    }

    /// GEMM time is monotone (within a tolerance for tile-quantization
    /// cliffs) when all dimensions double.
    #[test]
    fn gemm_doubling_never_speeds_up(m in 16u64..1024, n in 16u64..1024, k in 16u64..1024) {
        let gpu = Gpu::noiseless(DeviceSpec::v100());
        let t1 = gpu.kernel_time_noiseless(&KernelSpec::gemm(m, n, k));
        let t2 = gpu.kernel_time_noiseless(&KernelSpec::gemm(2 * m, 2 * n, 2 * k));
        prop_assert!(t2 > t1, "doubling all dims must cost more: {} -> {}", t1, t2);
    }

    /// Resize round-trips: resizing to B' and back to B restores shapes.
    #[test]
    fn resize_round_trip(b1 in 1u64..4096, b2 in 1u64..4096) {
        let mut g = DlrmConfig {
            rows_per_table: vec![10_000; 2],
            ..DlrmConfig::default_config(b1)
        }.build();
        let snapshot: Vec<Vec<u64>> = g.tensors().map(|(_, t)| t.shape.clone()).collect();
        resize_batch(&mut g, b2).unwrap();
        resize_batch(&mut g, b1).unwrap();
        let restored: Vec<Vec<u64>> = g.tensors().map(|(_, t)| t.shape.clone()).collect();
        prop_assert_eq!(snapshot, restored);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Engine invariants hold for arbitrary batch sizes and seeds: E2E ≥
    /// max(cpu, gpu-last), active ≤ span, utilization in (0, 1].
    #[test]
    fn engine_invariants(batch in 16u64..1024, seed in 0u64..1000) {
        let g = DlrmConfig {
            rows_per_table: vec![20_000; 2],
            ..DlrmConfig::default_config(batch)
        }.build();
        let mut engine = ExecutionEngine::new(DeviceSpec::titan_xp(), seed);
        let r = engine.run(&g).unwrap();
        prop_assert!(r.e2e_us >= r.cpu_us);
        prop_assert!(r.e2e_us >= r.gpu_last_us);
        prop_assert!(r.active_us() <= r.e2e_us + 1e-9);
        let u = r.utilization();
        prop_assert!(u > 0.0 && u <= 1.0);
        // Trace events are consistent: kernels lie within the span.
        for ev in &r.trace.events {
            prop_assert!(ev.ts_us >= 0.0);
            prop_assert!(ev.end_us() <= r.e2e_us + 1e-6);
        }
    }
}
