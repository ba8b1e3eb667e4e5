//! Chaos sweep: how gracefully does the simulated cluster — and the
//! prediction stack above it — degrade as fault intensity rises from a
//! healthy fleet to full chaos (stragglers, thermal throttling, host
//! jitter, and flaky collectives all at once)? And when the faults target
//! the *workers themselves* (kills, panics), does the supervised runtime
//! contain them without changing a single result bit?
//!
//! Every fallible call propagates a typed error; nothing in this example
//! panics on bad input.
//!
//! Run with `cargo run --release --example chaos_resilience`.

use std::error::Error;

use dlrm_perf_model::core::pipeline::Pipeline;
use dlrm_perf_model::distrib::{DistributedDlrm, MultiGpuEngine, ShardingPlan};
use dlrm_perf_model::faults::{FaultInjector, FaultPlan};
use dlrm_perf_model::gpusim::DeviceSpec;
use dlrm_perf_model::graph::{Graph, OpKind, TensorMeta};
use dlrm_perf_model::kernels::{CalibrationEffort, ModelRegistry};
use dlrm_perf_model::models::DlrmConfig;
use dlrm_perf_model::runtime::{Supervisor, SupervisorConfig};

fn main() -> Result<(), Box<dyn Error>> {
    let device = DeviceSpec::v100();
    let cfg = DlrmConfig::default_config(2048);
    let plan = ShardingPlan::round_robin(cfg.rows_per_table.len(), 4);
    let job = DistributedDlrm::new(cfg, plan)?;

    // 1. Fault-intensity sweep over the lockstep cluster engine, with a
    //    retry deadline so flaky collectives degrade instead of stalling.
    println!("== chaos sweep: hybrid-parallel DLRM @2048 on 4x V100 ==");
    println!(
        "{:>9} {:>12} {:>10} {:>8} {:>10} {:>7}",
        "intensity", "e2e (us)", "comm (us)", "retries", "+retry us", "drops"
    );
    let mut healthy_e2e = 0.0;
    for intensity in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let mut engine =
            MultiGpuEngine::with_faults(device.clone(), 42, FaultPlan::chaos(1337, intensity));
        engine.set_retry_deadline_us(Some(5_000.0));
        // Average a few lockstep iterations so retry noise settles.
        let iters = 4;
        let mut e2e = 0.0;
        let mut comm = 0.0;
        let mut retries = 0;
        let mut added = 0.0;
        let mut drops = 0;
        let mut notes = Vec::new();
        for _ in 0..iters {
            let r = engine.run(&job)?;
            e2e += r.e2e_us / iters as f64;
            comm += r.comm_us.iter().sum::<f64>() / iters as f64;
            retries += r.collective_retries;
            added += r.retry_added_us;
            drops += r.dropped_collectives.iter().filter(|d| **d).count();
            if notes.is_empty() {
                notes = r.degradation;
            }
        }
        if intensity == 0.0 {
            healthy_e2e = e2e;
        }
        println!(
            "{:>9.2} {:>12.0} {:>10.0} {:>8} {:>10.0} {:>7}",
            intensity, e2e, comm, retries, added, drops
        );
        for note in notes.iter().take(3) {
            println!("          | {note}");
        }
    }
    let mut engine = MultiGpuEngine::with_faults(device.clone(), 42, FaultPlan::chaos(1337, 1.0));
    let wild = engine.run(&job)?;
    println!(
        "full-chaos / healthy e2e ratio: {:.2}x\n",
        wild.e2e_us / healthy_e2e
    );

    // 2. Missing kernel models: predictions carry on, tagged Degraded.
    println!("== graceful degradation: empty model registry ==");
    let workloads = vec![DlrmConfig::default_config(512).build()];
    let (pipe, _) = Pipeline::analyze_resilient_with_registry(
        &device,
        &workloads,
        ModelRegistry::empty(device.clone()),
        10,
        7,
    )?;
    let p = pipe.predict(&workloads[0])?;
    println!(
        "{}: {:.0} us/batch with {} kernels priced by datasheet roofline (fully calibrated: {})\n",
        workloads[0].name,
        p.e2e_us,
        p.degraded_kernels,
        p.is_fully_calibrated()
    );

    // 3. One malformed workload among N: skipped and named, not fatal.
    println!("== resilient pipeline: malformed workload among healthy ones ==");
    let mut poisoned = Graph::new("poisoned-graph");
    let x = poisoned.add_tensor(TensorMeta::activation(&[32, 32]));
    let y = poisoned.add_tensor(TensorMeta::activation(&[32, 32]));
    poisoned.add_op(OpKind::AddMm, vec![x], vec![y]); // AddMm needs 3 inputs
    let mixed = vec![
        DlrmConfig::default_config(256).build(),
        poisoned,
        DlrmConfig::ddp_config(256).build(),
    ];
    let (pipe, report) =
        Pipeline::analyze_resilient(&device, &mixed, CalibrationEffort::Quick, 10, 7)?;
    println!("{}", report.summary());
    for name in pipe.workloads() {
        println!("  analyzed: {name}");
    }

    // 4. Worker-level chaos under the supervisor: the fault plan kills and
    //    panics analysis workers mid-run, the supervisor restarts them from
    //    checkpoints, and the finished pipeline is bitwise identical to an
    //    undisturbed one.
    println!("\n== supervised analysis under worker chaos (kills + panics) ==");
    let calm = vec![
        DlrmConfig::default_config(256).build(),
        DlrmConfig::ddp_config(256).build(),
        DlrmConfig::default_config(512).build(),
    ];
    let mut quiet = Supervisor::new(SupervisorConfig::default());
    let (res, _) =
        Pipeline::analyze_supervised(&device, &calm, CalibrationEffort::Quick, 10, 7, &mut quiet);
    let (pipe_quiet, _) = res?;

    let mut chaotic = Supervisor::new(SupervisorConfig::default());
    chaotic.set_fault_injector(FaultInjector::new(
        // Plan seed 2 draws a kill and then a panic across this run's
        // (step, attempt) sites — two injected faults, both survived.
        FaultPlan::healthy(2).with_worker_faults(0.2, 0.2, 0.0),
    ));
    let (res, run) = Pipeline::analyze_supervised(
        &device,
        &calm,
        CalibrationEffort::Quick,
        10,
        7,
        &mut chaotic,
    );
    let (pipe_chaos, _) = res?;
    println!("{}", run.summary());
    for r in &run.restarts {
        println!(
            "  restart #{}: at step {}, cause: {}",
            r.attempt, r.at_step, r.cause
        );
    }
    let a = pipe_quiet.predict(&calm[0])?;
    let b = pipe_chaos.predict(&calm[0])?;
    println!(
        "prediction with {} injected fault(s): {:.2} us vs quiet {:.2} us — bitwise equal: {}",
        run.injected_faults,
        b.e2e_us,
        a.e2e_us,
        a.e2e_us.to_bits() == b.e2e_us.to_bits()
    );
    Ok(())
}
