//! **Table V** — statistics (geomean / min / max) of the active-time and
//! E2E-time prediction errors across the three platforms, for individual
//! and shared overhead databases.
//!
//! Expected shape: active error < E2E error < shared-E2E error, with the
//! shared penalty only a few points (the paper: 4.61% / 7.96% / 10.15%
//! geomeans, shared costing +2.19%).

use dlperf_bench::{e2e_evaluation, header};
use dlperf_core::report::{ErrorSummary, PredictionRow};

fn main() {
    header("Table V: active / E2E / shared-E2E error statistics across platforms");
    let rows = e2e_evaluation();
    let mut devices: Vec<String> = rows.iter().map(|r| r.device.clone()).collect();
    devices.dedup();

    println!(
        "{:12} | {:^22} | {}",
        "",
        "Overall",
        devices.iter().map(|d| format!("{d:^22}")).collect::<Vec<_>>().join(" | ")
    );
    println!(
        "{:12} | {:>6} {:>6} {:>6}  | then the same triple per device",
        "metric",
        "geo",
        "min",
        "max",
    );

    type Metric = fn(&PredictionRow) -> f64;
    let metrics: [(&str, Metric); 3] = [
        ("Active", PredictionRow::active_error),
        ("E2E", PredictionRow::e2e_error),
        ("Shared E2E", PredictionRow::shared_e2e_error),
    ];
    let mut geos = Vec::new();
    for (name, metric) in metrics {
        let overall = ErrorSummary::over(&rows, None, metric).expect("rows present");
        geos.push(overall.geomean);
        print!("{name:12} | {overall}");
        for d in &devices {
            let s = ErrorSummary::over(&rows, Some(d), metric).expect("device rows");
            print!(" | {s}");
        }
        println!();
    }

    println!(
        "\nshared-overhead penalty: {:+.2} percentage points over individual",
        (geos[2] - geos[1]) * 100.0
    );
    println!("(the paper reports +2.19%; a small penalty means one shared overhead");
    println!("database suffices for large-scale prediction.)");
}
