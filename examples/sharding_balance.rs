//! Embedding-table sharding load balance (§V-A c): given the 26 Criteo
//! tables and four devices, compare three sharding schemes by *predicted*
//! per-device embedding time — the multi-GPU planning use case the paper
//! describes, evaluated without any hardware.
//!
//! Run with `cargo run --release --example sharding_balance`.

use dlrm_perf_model::distrib::{imbalance, ShardingPlan};
use dlrm_perf_model::gpusim::DeviceSpec;
use dlrm_perf_model::kernels::{CalibrationEffort, ModelRegistry};
use dlrm_perf_model::models::criteo::KAGGLE_TABLE_ROWS;

fn main() {
    let device = DeviceSpec::v100();
    println!("calibrating kernel models for {} ...", device.name);
    let registry = ModelRegistry::calibrate(&device, CalibrationEffort::Quick, 23);

    let (shards, batch, lookups, dim) = (4usize, 2048u64, 1u64, 32u64);
    let tables = KAGGLE_TABLE_ROWS;

    let schemes = [
        (
            "round-robin",
            ShardingPlan::round_robin(tables.len(), shards),
        ),
        (
            "LPT by rows",
            ShardingPlan::greedy_lpt(&tables, shards).expect("tables and shards"),
        ),
        (
            "LPT by predicted cost",
            ShardingPlan::greedy_by_predicted_cost(&registry, &tables, shards, batch, lookups, dim)
                .expect("tables and shards"),
        ),
    ];

    println!(
        "\n{:22} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "scheme", "gpu0/us", "gpu1/us", "gpu2/us", "gpu3/us", "imbalance"
    );
    for (name, plan) in schemes {
        let costs = plan
            .shard_costs(&registry, &tables, batch, lookups, dim)
            .expect("all tables");
        println!(
            "{:22} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.3}",
            name,
            costs[0],
            costs[1],
            costs[2],
            costs[3],
            imbalance(&costs)
        );
    }
    println!("\nBalancing by raw row count is misleading: lookup cost is dominated");
    println!("by B x L x D traffic per table, which the kernel model prices correctly.");
}
