//! Bottleneck hunting: where does DLRM's device idle time come from, and
//! what do fusion + reordering buy? Combines the idle-gap attribution, the
//! run comparison, and the reorder what-if — the "identify bottlenecks"
//! workflow of the paper's introduction.
//!
//! Run with `cargo run --release --example bottleneck_analysis`.

use dlrm_perf_model::core::pipeline::Pipeline;
use dlrm_perf_model::core::sweep::{GraphMutation, Scenario, SweepEngine};
use dlrm_perf_model::gpusim::DeviceSpec;
use dlrm_perf_model::graph::transform::fuse_embedding_bags;
use dlrm_perf_model::kernels::CalibrationEffort;
use dlrm_perf_model::models::DlrmConfig;
use dlrm_perf_model::trace::engine::ExecutionEngine;
use dlrm_perf_model::trace::{compare, gaps};

fn main() {
    let device = DeviceSpec::v100();
    let unfused = DlrmConfig {
        rows_per_table: vec![200_000; 12],
        ..DlrmConfig::default_config(512)
    }
    .with_batched_embedding(false)
    .build();

    // 1. Measure and attribute idle time.
    let mut engine = ExecutionEngine::new(device.clone(), 2);
    engine.set_profiling(false);
    let before = engine.run(&unfused).expect("executes");
    let report = gaps::attribute_idle(&before, 1.0);
    println!(
        "== {} @512: {:.0} us/iter, {:.0} us idle ==",
        unfused.name, before.e2e_us, report.total_idle_us
    );
    println!("ops causing the most device idle time:");
    for (op, idle) in report.per_op.iter().take(5) {
        println!("  {op:30} {idle:8.1} us");
    }

    // 2. The worklist points at the embedding bags: fuse them and diff.
    let mut fused = unfused.clone();
    fuse_embedding_bags(&mut fused).expect("fusable");
    let after = engine.run(&fused).expect("executes");
    let cmp = compare::compare(&before, &after);
    println!(
        "\n== after embedding-bag fusion: {:.2}x faster ==",
        cmp.speedup()
    );
    println!("largest per-op device-time changes:");
    for d in cmp.deltas.iter().take(5) {
        println!(
            "  {:30} {:>8.1} -> {:>8.1} us  (x{} -> x{})",
            d.op_key, d.before_us, d.after_us, d.count.0, d.count.1
        );
    }

    // 3. Reordering what-if on the fused graph, priced by the model alone.
    let pipeline = Pipeline::analyze(
        &device,
        std::slice::from_ref(&fused),
        CalibrationEffort::Quick,
        15,
        4,
    );
    let scenarios = [
        Scenario::new("base", 0),
        Scenario::new("hoisted", 0).with(GraphMutation::HoistAll),
    ];
    let outcome = SweepEngine::new(vec![pipeline]).run(&fused, &scenarios);
    let results = outcome.expect_complete();
    let (base, hoisted) = (
        results[0].expect_prediction(),
        results[1].expect_prediction(),
    );
    println!(
        "\n== reorder what-if (hoist ops to their earliest legal slot) ==\npredicted: {:.0} -> {:.0} us ({:+.2}%)",
        base.e2e_us,
        hoisted.e2e_us,
        (hoisted.e2e_us - base.e2e_us) / base.e2e_us * 100.0
    );
    println!("\nAll three analyses used the same captured execution graph.");
}
