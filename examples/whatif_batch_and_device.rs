//! What-if analysis (§V-A / intro questions 1–2): how do batch size and a
//! GPU upgrade change DLRM's per-batch time — answered purely from the
//! execution graph, never re-running the model.
//!
//! The full batch × device matrix runs through the parallel sweep engine
//! with memoized kernel models; the run is bitwise identical to a
//! sequential uncached sweep, just faster (both are run and compared).
//!
//! Run with `cargo run --release --example whatif_batch_and_device`.
//!
//! Set `DLPERF_SELF_TRACE=/path/to/selftrace.json` to record the sweep
//! through the `dlperf-obs` recorder and write a self-trace the `trace`
//! crate can re-ingest (the model profiling itself); a short host/device
//! breakdown of the recording is printed at the end.

use dlrm_perf_model::core::pipeline::Pipeline;
use dlrm_perf_model::core::sweep::{GraphMutation, ScenarioMatrix, SweepEngine};
use dlrm_perf_model::gpusim::DeviceSpec;
use dlrm_perf_model::kernels::CalibrationEffort;
use dlrm_perf_model::models::DlrmConfig;
use dlrm_perf_model::obs;
use dlrm_perf_model::trace::event_tree::EventTree;
use dlrm_perf_model::trace::ChromeTraceSink;

fn main() {
    let self_trace = std::env::var("DLPERF_SELF_TRACE").ok();
    let sink = self_trace.as_ref().map(|_| {
        let sink = ChromeTraceSink::install("whatif_batch_and_device", "host");
        obs::enable();
        sink
    });

    let graph = DlrmConfig::default_config(1024).build();
    let batches = [128u64, 256, 512, 1024, 2048, 4096];
    let devices = DeviceSpec::paper_devices();

    // One calibrated pipeline per candidate GPU.
    let pipelines: Vec<Pipeline> = devices
        .iter()
        .map(|dev| {
            println!("calibrating {} ...", dev.name);
            Pipeline::analyze(
                dev,
                std::slice::from_ref(&graph),
                CalibrationEffort::Quick,
                15,
                11,
            )
        })
        .collect();

    let mut matrix = ScenarioMatrix::new();
    for (i, dev) in devices.iter().enumerate() {
        matrix = matrix.device(&dev.name, i);
    }
    // Two graph variants per cell: as-captured, and with every movable op
    // hoisted as early as dependencies allow (the §V-A reordering what-if).
    // The hoist is an expensive transform; scenarios differing only in
    // device share its prepared graph inside the engine.
    let scenarios = matrix
        .batches(&batches)
        .variant("base", vec![])
        .variant("hoisted", vec![GraphMutation::HoistAll])
        .build();

    // Reference: one thread, no memo cache — then the engine as shipped.
    let sequential = SweepEngine::new(pipelines.clone())
        .with_cache(false)
        .run_sequential(&graph, &scenarios);
    let parallel = SweepEngine::new(pipelines)
        .with_threads(4)
        .run(&graph, &scenarios);

    println!("\n== Batch × device × variant what-if matrix (per-batch E2E time) ==");
    println!(
        "{:>34} {:>12} {:>14} {:>8}",
        "scenario", "e2e/us", "us-per-sample", "util"
    );
    for (s, r) in scenarios.iter().zip(parallel.expect_complete()) {
        let p = r.expect_prediction();
        let b: u64 = s
            .label
            .split("/b")
            .nth(1)
            .and_then(|t| t.split('/').next())
            .and_then(|t| t.parse().ok())
            .unwrap_or(1);
        println!(
            "{:>34} {:>12.0} {:>14.3} {:>7.0}%",
            s.label,
            p.e2e_us,
            p.e2e_us / b as f64,
            p.utilization() * 100.0
        );
    }

    let identical = scenarios.iter().enumerate().all(|(i, _)| {
        let a = sequential.results[i].as_ref().unwrap();
        let b = parallel.results[i].as_ref().unwrap();
        a.prediction.as_ref().map(|p| p.e2e_us.to_bits())
            == b.prediction.as_ref().map(|p| p.e2e_us.to_bits())
    });
    let stats = parallel.cache.as_ref().expect("cache enabled");
    println!("\n== Sweep engine ==");
    println!("scenarios:        {}", scenarios.len());
    println!("bitwise identical to sequential uncached: {identical}");
    // Only the entry count: the hit/miss split of a parallel run depends
    // on how workers race to the same absent key (each counts a miss).
    println!(
        "cache:            {} entries (distinct kernel queries)",
        stats.entries
    );
    println!(
        "wall clock:       {:.1} ms parallel+cached vs {:.1} ms sequential uncached ({:.2}x)",
        parallel.wall_ms,
        sequential.wall_ms,
        sequential.wall_ms / parallel.wall_ms
    );
    println!("\nNote how the faster GPU helps less at low utilization: the CPU");
    println!("overheads, not the kernels, are the bottleneck the model exposes.");

    if let (Some(path), Some(sink)) = (self_trace, sink) {
        obs::disable();
        let snapshot = obs::flush();
        obs::clear_sinks();
        sink.write_json(&path).expect("self-trace written");

        // Re-ingest the trace we just wrote through the ordinary analysis
        // pipeline: the model's own run, mined like a profiler trace.
        let traces = ChromeTraceSink::parse_json(
            &std::fs::read_to_string(&path).expect("self-trace readable"),
        )
        .expect("self-trace parses");
        let mut ops = 0usize;
        let mut host_us = 0.0;
        let mut device_us = 0.0;
        for t in &traces {
            let tree = EventTree::build(t);
            ops += tree.ops.len();
            host_us += t.span_us;
            device_us += tree.total_device_time_us();
        }
        println!("\n== Self-trace ({path}) ==");
        println!("threads recorded: {}", traces.len());
        println!("top-level ops:    {ops}");
        println!("host span:        {host_us:.0} us  (sum over threads)");
        println!("work attributed:  {device_us:.0} us");
        let walks = snapshot
            .counters
            .iter()
            .find(|c| c.group == "core.walk" && c.name == "walks")
            .map_or(0, |c| c.value);
        println!("walk count:       {walks}");
    }
}
