//! **Figure 9** — E2E per-batch training-time prediction of the three DLRM
//! models (Table III configs) on three GPUs, across batch sizes: prediction
//! error of GPU active time, of the full E2E model, and of the
//! `kernel_only` baseline, next to the measured iteration time.
//!
//! Expected shape: active and E2E errors in the single-digit to low-teens
//! band; `kernel_only` error tracking `1 − utilization` and shrinking as
//! batch size grows; E2E mildly underestimating.

use dlperf_bench::{e2e_evaluation, header};

fn main() {
    header("Figure 9: E2E per-batch prediction of 3 DLRM models x 3 GPUs");
    println!("(Table III configs: DLRM_default, DLRM_MLPerf, DLRM_DDP)\n");

    let rows = e2e_evaluation();
    let mut devices: Vec<String> = rows.iter().map(|r| r.device.clone()).collect();
    devices.dedup();

    for device in devices {
        println!("--- {device} ---");
        println!(
            "{:14} {:>6} {:>11} | {:>8} {:>8} {:>12} | {:>6}",
            "workload", "batch", "measured/us", "active", "total", "kernel_only", "util"
        );
        for r in rows.iter().filter(|r| r.device == device) {
            println!(
                "{:14} {:>6} {:>11.0} | {:>7.2}% {:>7.2}% {:>11.2}% | {:>5.0}%",
                r.workload,
                r.batch,
                r.measured_e2e_us,
                r.active_error() * 100.0,
                r.e2e_error() * 100.0,
                r.kernel_only_error() * 100.0,
                r.utilization() * 100.0
            );
        }
        println!();
    }

    // The headline trend: kernel_only error vs utilization.
    let mut by_batch: Vec<(u64, f64, f64)> = Vec::new();
    for &b in &dlperf_bench::BATCH_SIZES {
        let rs: Vec<_> = rows.iter().filter(|r| r.batch == b).collect();
        let ko = rs.iter().map(|r| r.kernel_only_error()).sum::<f64>() / rs.len() as f64;
        let util = rs.iter().map(|r| r.utilization()).sum::<f64>() / rs.len() as f64;
        by_batch.push((b, ko, util));
    }
    println!("kernel_only error vs utilization (mean over workloads/devices):");
    for (b, ko, util) in by_batch {
        println!(
            "  batch {b:>5}: utilization {:5.1}%  kernel_only error {:5.1}%",
            util * 100.0,
            ko * 100.0
        );
    }
    println!("\nThe gap between E2E and kernel_only shrinks as batch size (and thus");
    println!("utilization) grows — the model degenerates toward kernel_only, as the");
    println!("paper describes.");
}
