//! `dlperf` — command-line front end to the performance model.
//!
//! ```text
//! dlperf devices
//! dlperf calibrate  --device v100 --out v100.assets.json [--effort quick|full]
//! dlperf predict    --model dlrm-default --batch 2048 [--device v100] [--assets FILE]
//! dlperf breakdown  --model dlrm-mlperf  --batch 2048 [--device v100]
//! dlperf memory     --model dlrm-mlperf  --batch 2048
//! dlperf trace      --model dlrm-ddp     --batch 512 --out trace.json
//! dlperf shard      --gpus 4 --batch 2048
//! ```

use std::collections::HashMap;
use std::num::{NonZeroU64, NonZeroUsize};
use std::process::ExitCode;
use std::str::FromStr;

use dlrm_perf_model::core::pipeline::Pipeline;
use dlrm_perf_model::distrib::{imbalance, ShardingPlan};
use dlrm_perf_model::gpusim::DeviceSpec;
use dlrm_perf_model::graph::{memory, Graph};
use dlrm_perf_model::kernels::{CalibrationEffort, ModelRegistry, RegistryBundle};
use dlrm_perf_model::models::criteo::KAGGLE_TABLE_ROWS;
use dlrm_perf_model::trace::breakdown::DeviceBreakdown;
use dlrm_perf_model::trace::engine::ExecutionEngine;

/// Parsed `--key value` options.
struct Opts(HashMap<String, String>);

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got `{a}`"))?;
            let val = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), val.clone());
        }
        Ok(Opts(map))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required --{key}"))
    }

    fn parsed<T: FromStr>(&self, key: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.required(key)?
            .parse()
            .map_err(|e| format!("invalid --{key}: {e}"))
    }

    fn batch(&self) -> Result<u64, String> {
        self.parsed("batch").map(NonZeroU64::get)
    }

    fn gpus(&self) -> Result<usize, String> {
        self.parsed("gpus").map(NonZeroUsize::get)
    }

    fn device(&self) -> Result<DeviceSpec, String> {
        let name = self.get("device").unwrap_or("v100");
        DeviceSpec::by_name(name).ok_or_else(|| format!("unknown device `{name}`"))
    }

    fn effort(&self) -> CalibrationEffort {
        match self.get("effort") {
            Some("full") | Some("FULL") => CalibrationEffort::Full,
            _ => CalibrationEffort::Quick,
        }
    }
}

fn build_model(name: &str, batch: u64) -> Result<Graph, String> {
    dlrm_perf_model::models::zoo::build(name, batch)
}

fn registry_for(opts: &Opts, device: &DeviceSpec) -> Result<ModelRegistry, String> {
    if let Some(path) = opts.get("assets") {
        let bundle = RegistryBundle::load(path).map_err(|e| format!("cannot load assets: {e}"))?;
        if bundle.device.name != device.name {
            return Err(format!(
                "assets calibrated for {} but --device is {}",
                bundle.device.name, device.name
            ));
        }
        Ok(bundle.into_registry())
    } else {
        eprintln!("calibrating {} ({:?}) ...", device.name, opts.effort());
        Ok(ModelRegistry::calibrate(device, opts.effort(), 42))
    }
}

fn cmd_devices() -> Result<(), String> {
    println!(
        "{:12} {:>5} {:>10} {:>10} {:>8} {:>8} {:>10}",
        "device", "SMs", "GFLOP/s", "DRAM GB/s", "L2 MB", "mem GB", "link GB/s"
    );
    for d in DeviceSpec::paper_devices() {
        println!(
            "{:12} {:>5} {:>10.0} {:>10.1} {:>8.1} {:>8.0} {:>10.0}",
            d.name,
            d.sm_count,
            d.fp32_gflops,
            d.dram_bw_gbs,
            d.l2_size_bytes as f64 / 1048576.0,
            d.memory_bytes as f64 / (1u64 << 30) as f64,
            d.interconnect_bw_gbs
        );
    }
    Ok(())
}

fn cmd_calibrate(opts: &Opts) -> Result<(), String> {
    let device = opts.device()?;
    let out = opts.required("out")?;
    eprintln!("calibrating {} ({:?}) ...", device.name, opts.effort());
    let bundle = ModelRegistry::calibrate_bundle(&device, opts.effort(), 42);
    bundle
        .save(out)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("assets written to {out}");
    Ok(())
}

fn cmd_predict(opts: &Opts) -> Result<(), String> {
    let device = opts.device()?;
    let batch = opts.batch()?;
    let graph = build_model(opts.required("model")?, batch)?;
    let registry = registry_for(opts, &device)?;
    // Overheads: extract from a short profiled run of this workload.
    let mut engine = ExecutionEngine::new(device.clone(), 1);
    let runs = engine
        .run_iterations(&graph, 20)
        .map_err(|e| e.to_string())?;
    let traces: Vec<_> = runs.into_iter().map(|r| r.trace).collect();
    let overheads = dlrm_perf_model::trace::OverheadStats::extract(&traces, true);
    let pipeline = Pipeline::from_assets(device, registry, overheads);
    let p = pipeline.predict(&graph).map_err(|e| e.to_string())?;
    println!("workload        : {}", graph.name);
    println!("batch size      : {batch}");
    println!(
        "predicted e2e   : {:.1} us/batch ({:.3} ms)",
        p.e2e_us,
        p.e2e_us / 1e3
    );
    println!("  gpu active    : {:.1} us", p.active_us);
    println!("  gpu clock     : {:.1} us", p.gpu_us);
    println!("  cpu clock     : {:.1} us", p.cpu_us);
    println!("  utilization   : {:.1}%", p.utilization() * 100.0);
    Ok(())
}

fn cmd_breakdown(opts: &Opts) -> Result<(), String> {
    let device = opts.device()?;
    let graph = build_model(opts.required("model")?, opts.batch()?)?;
    let mut engine = ExecutionEngine::new(device, 1);
    engine.set_profiling(false);
    let run = engine.run(&graph).map_err(|e| e.to_string())?;
    let b = DeviceBreakdown::from_run(&run);
    println!(
        "{} — total {:.0} us, utilization {:.1}%",
        b.workload,
        b.total_us,
        b.utilization() * 100.0
    );
    for (label, share) in b.stacked_rows(12) {
        println!(
            "{:32} {:5.1}%  {}",
            label,
            share * 100.0,
            "#".repeat((share * 60.0) as usize)
        );
    }
    Ok(())
}

fn cmd_memory(opts: &Opts) -> Result<(), String> {
    let graph = build_model(opts.required("model")?, opts.batch()?)?;
    let r = memory::estimate(&graph);
    println!("workload          : {}", graph.name);
    println!("parameters        : {:.2} GB", r.weight_bytes as f64 / 1e9);
    println!(
        "peak activations  : {:.2} GB (at node {})",
        r.peak_activation_bytes as f64 / 1e9,
        r.peak_node
    );
    println!("peak total        : {:.2} GB", r.peak_bytes() as f64 / 1e9);
    for d in DeviceSpec::paper_devices() {
        println!(
            "  fits {:12}: {}",
            d.name,
            if r.fits(d.memory_bytes, 0.1) {
                "yes"
            } else {
                "NO"
            }
        );
    }
    Ok(())
}

fn cmd_trace(opts: &Opts) -> Result<(), String> {
    let device = opts.device()?;
    let graph = build_model(opts.required("model")?, opts.batch()?)?;
    let out = opts.required("out")?;
    let mut engine = ExecutionEngine::new(device, 1);
    let run = engine.run(&graph).map_err(|e| e.to_string())?;
    std::fs::write(out, run.trace.to_chrome_json())
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "chrome trace with {} events written to {out} (open in chrome://tracing)",
        run.trace.events.len()
    );
    Ok(())
}

fn cmd_inspect(opts: &Opts) -> Result<(), String> {
    let graph = build_model(opts.required("model")?, opts.batch()?)?;
    let s = dlrm_perf_model::graph::stats::summarize(&graph).map_err(|e| e.to_string())?;
    println!("workload            : {}", graph.name);
    println!(
        "ops                 : {} ({} launch kernels)",
        s.node_count, s.device_op_count
    );
    println!("kernels             : {}", s.kernel_count);
    println!("flops / iteration   : {:.2} GFLOP", s.total_flops / 1e9);
    println!("traffic / iteration : {:.2} GB", s.total_bytes / 1e9);
    println!(
        "arithmetic intensity: {:.2} FLOP/byte",
        s.arithmetic_intensity()
    );
    println!("top op types:");
    for (op, n) in s.op_histogram.iter().take(10) {
        println!("  {op:34} x{n}");
    }
    Ok(())
}

fn cmd_gaps(opts: &Opts) -> Result<(), String> {
    let device = opts.device()?;
    let graph = build_model(opts.required("model")?, opts.batch()?)?;
    let mut engine = ExecutionEngine::new(device, 1);
    engine.set_profiling(false);
    let run = engine.run(&graph).map_err(|e| e.to_string())?;
    let report = dlrm_perf_model::trace::gaps::attribute_idle(&run, 1.0);
    println!(
        "{}: {:.0} us idle across {} gaps (>= 1 us); worst offenders:",
        graph.name,
        report.total_idle_us,
        report.gaps.len()
    );
    for (op, idle) in report.per_op.iter().take(10) {
        println!("  {op:34} {idle:8.1} us idle caused");
    }
    Ok(())
}

fn cmd_shard(opts: &Opts) -> Result<(), String> {
    let gpus = opts.gpus()?;
    let batch = opts.batch()?;
    let device = opts.device()?;
    let registry = registry_for(opts, &device)?;
    let tables = KAGGLE_TABLE_ROWS;
    let schemes = [
        ("round-robin", ShardingPlan::round_robin(tables.len(), gpus)),
        (
            "LPT by rows",
            ShardingPlan::greedy_lpt(&tables, gpus).map_err(|e| e.to_string())?,
        ),
        (
            "LPT by predicted cost",
            ShardingPlan::greedy_by_predicted_cost(&registry, &tables, gpus, batch, 1, 32)
                .map_err(|e| e.to_string())?,
        ),
    ];
    println!("{:24} {:>10}", "scheme", "imbalance");
    for (name, plan) in schemes {
        let costs = plan
            .shard_costs(&registry, &tables, batch, 1, 32)
            .map_err(|e| e.to_string())?;
        println!("{name:24} {:>10.3}", imbalance(&costs));
    }
    Ok(())
}

const USAGE: &str = "usage: dlperf <devices|calibrate|predict|breakdown|memory|trace|shard|inspect|gaps> [--option value]...
  devices                                        list the device catalog
  calibrate --device D --out FILE [--effort E]   calibrate + save kernel models
  predict   --model M --batch N [--device D] [--assets FILE]
  breakdown --model M --batch N [--device D]
  memory    --model M --batch N
  trace     --model M --batch N --out FILE [--device D]
  shard     --gpus G --batch N [--device D]
  inspect   --model M --batch N                  graph statistics
  gaps      --model M --batch N [--device D]     idle-gap attribution
models: dlrm-default dlrm-mlperf dlrm-ddp dlrm-default-infer dcn wide-deep
        resnet50 inception transformer
devices: v100 titan-xp p100";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match Opts::parse(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "devices" => cmd_devices(),
        "calibrate" => cmd_calibrate(&opts),
        "predict" => cmd_predict(&opts),
        "breakdown" => cmd_breakdown(&opts),
        "memory" => cmd_memory(&opts),
        "trace" => cmd_trace(&opts),
        "shard" => cmd_shard(&opts),
        "inspect" => cmd_inspect(&opts),
        "gaps" => cmd_gaps(&opts),
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strv(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn opts_parse_pairs() {
        let o = Opts::parse(&strv(&["--model", "dlrm-ddp", "--batch", "512"])).unwrap();
        assert_eq!(o.get("model"), Some("dlrm-ddp"));
        assert_eq!(o.batch().unwrap(), 512);
    }

    #[test]
    fn opts_reject_missing_value() {
        assert!(Opts::parse(&strv(&["--model"])).is_err());
        assert!(Opts::parse(&strv(&["model", "x"])).is_err());
    }

    #[test]
    fn model_names_resolve() {
        for m in [
            "dlrm-default",
            "dlrm-mlperf",
            "dlrm-ddp",
            "dlrm-default-infer",
            "dcn",
            "wide-deep",
            "resnet50",
            "inception",
            "transformer",
        ] {
            assert!(build_model(m, 64).is_ok(), "model {m}");
        }
        assert!(build_model("bert", 64).is_err());
    }

    #[test]
    fn zero_batch_and_gpus_fail_before_calibration() {
        // An error, not a panic, and before `shard` starts calibrating.
        for args in [
            &["--model", "dlrm-default", "--batch", "0"][..],
            &["--gpus", "0", "--batch", "2048"],
            &["--gpus", "2", "--batch", "0"],
        ] {
            let o = Opts::parse(&strv(args)).unwrap();
            let err = if o.get("gpus").is_some() {
                cmd_shard(&o)
            } else {
                cmd_predict(&o)
            };
            assert!(
                err.unwrap_err().contains("number would be zero"),
                "{args:?}"
            );
        }
    }

    #[test]
    fn default_device_is_v100() {
        let o = Opts::parse(&[]).unwrap();
        assert_eq!(o.device().unwrap().name, "Tesla V100");
    }
}
