//! Criterion microbenchmarks of the library itself: the paper notes the
//! performance model "runs fast and usually finishes a single E2E
//! prediction in a few seconds" — ours should be far below that.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use dlperf_core::pipeline::Pipeline;
use dlperf_gpusim::{DeviceSpec, Gpu, KernelSpec};
use dlperf_kernels::CalibrationEffort;
use dlperf_models::{cv, DlrmConfig};
use dlperf_trace::engine::ExecutionEngine;

fn bench_prediction(c: &mut Criterion) {
    let graph = DlrmConfig::default_config(2048).build();
    let pipeline = Pipeline::analyze(
        &DeviceSpec::v100(),
        std::slice::from_ref(&graph),
        CalibrationEffort::Quick,
        10,
        1,
    );
    c.bench_function("e2e_predict_dlrm_default", |b| {
        b.iter(|| pipeline.predict(black_box(&graph)).unwrap())
    });

    let resnet = cv::resnet50(32);
    c.bench_function("e2e_predict_resnet50", |b| {
        b.iter(|| pipeline.predict(black_box(&resnet)).unwrap())
    });
}

fn bench_engine(c: &mut Criterion) {
    let graph = DlrmConfig::default_config(2048).build();
    c.bench_function("engine_run_dlrm_default", |b| {
        let mut engine = ExecutionEngine::new(DeviceSpec::v100(), 3);
        b.iter(|| engine.run(black_box(&graph)).unwrap())
    });
}

fn bench_simulator(c: &mut Criterion) {
    let gpu = Gpu::noiseless(DeviceSpec::v100());
    let gemm = KernelSpec::gemm(2048, 1024, 1024);
    c.bench_function("gpusim_gemm_time", |b| {
        b.iter(|| gpu.kernel_time_noiseless(black_box(&gemm)))
    });
    let el = KernelSpec::embedding_forward(2048, 1_000_000, 8, 10, 64);
    c.bench_function("gpusim_embedding_time", |b| {
        b.iter(|| gpu.kernel_time_noiseless(black_box(&el)))
    });
}

fn bench_graph_build(c: &mut Criterion) {
    c.bench_function("build_dlrm_default_graph", |b| {
        b.iter(|| DlrmConfig::default_config(black_box(2048)).build())
    });
    c.bench_function("build_resnet50_graph", |b| {
        b.iter(|| cv::resnet50(black_box(32)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_prediction, bench_engine, bench_simulator, bench_graph_build
}
criterion_main!(benches);
