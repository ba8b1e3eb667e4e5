//! **Table IV** — execution-time prediction error (GMAE / mean / std) for
//! each dominating kernel, per GPU.
//!
//! Expected shape: every kernel family under ~10–12% GMAE; the plain
//! embedding-lookup model unstable on small tables but good on large ones
//! (`E > 100k`); the hit-rate-enhanced model stable across all sizes;
//! errors correlated across the three devices.

use dlperf_bench::{effort, header};
use dlperf_gpusim::{DeviceSpec, KernelFamily, KernelSpec};
use dlperf_kernels::heuristic::{EmbeddingModel, EmbeddingModelKind};
use dlperf_kernels::microbench::{self, Microbenchmark, Sample};
use dlperf_kernels::{ErrorStats, ModelRegistry};

fn eval_pairs(samples: &[Sample], predict: impl Fn(&KernelSpec) -> f64) -> ErrorStats {
    let preds: Vec<f64> = samples.iter().map(|s| predict(&s.kernel)).collect();
    let actual: Vec<f64> = samples.iter().map(|s| s.time_us).collect();
    ErrorStats::try_from_pairs(&preds, &actual).expect("evaluation samples are well-formed")
}

fn is_large(k: &KernelSpec) -> bool {
    matches!(
        k,
        KernelSpec::EmbeddingForward { e, .. } | KernelSpec::EmbeddingBackward { e, .. }
            if *e > 100_000
    )
}

fn main() {
    header("Table IV: kernel-model prediction error per dominating kernel, per GPU");
    let effort = effort();
    let n_eval = 300;

    println!(
        "{:10} {:12} | {:^24} | {:^24} | {:^24}",
        "approach", "kernel", "V100", "TITAN Xp", "P100"
    );
    println!(
        "{:10} {:12} | {:>7} {:>7} {:>7}  | {:>7} {:>7} {:>7}  | {:>7} {:>7} {:>7}",
        "", "", "GMAE", "mean", "std", "GMAE", "mean", "std", "GMAE", "mean", "std"
    );

    // Collect per-device assets first (calibration is the slow part).
    struct DeviceAssets {
        registry: ModelRegistry,
        plain_f: EmbeddingModel,
        plain_b: EmbeddingModel,
        enh_f: EmbeddingModel,
        el_f: Vec<Sample>,
        el_b: Vec<Sample>,
        concat: Vec<Sample>,
        memcpy: Vec<Sample>,
        gemm: Vec<Sample>,
        transpose: Vec<Sample>,
        tril_f: Vec<Sample>,
        tril_b: Vec<Sample>,
    }

    let assets: Vec<DeviceAssets> = DeviceSpec::paper_devices()
        .into_iter()
        .map(|dev| {
            eprintln!("calibrating {} ...", dev.name);
            let registry = ModelRegistry::calibrate(&dev, effort, 101);
            let mut mb = Microbenchmark::new(&dev, 999, 15);
            let mem = mb.measure(&microbench::memory_specs(n_eval, 5001));
            let (concat, memcpy): (Vec<Sample>, Vec<Sample>) = mem
                .into_iter()
                .filter(|s| {
                    matches!(
                        s.kernel.family(),
                        KernelFamily::Concat | KernelFamily::Memcpy
                    )
                })
                .partition(|s| s.kernel.family() == KernelFamily::Concat);
            DeviceAssets {
                plain_f: EmbeddingModel::new(&dev, EmbeddingModelKind::Plain),
                plain_b: EmbeddingModel::new(&dev, EmbeddingModelKind::Plain),
                enh_f: EmbeddingModel::new(&dev, EmbeddingModelKind::Enhanced),
                el_f: mb.measure(&microbench::embedding_specs(n_eval, false, 5002)),
                el_b: mb.measure(&microbench::embedding_specs(n_eval, true, 5003)),
                concat,
                memcpy,
                gemm: mb.measure(&microbench::gemm_specs(n_eval, 5004)),
                transpose: mb.measure(&microbench::transpose_specs(n_eval, 5005)),
                tril_f: mb.measure(&microbench::tril_specs(n_eval, false, 5006)),
                tril_b: mb.measure(&microbench::tril_specs(n_eval, true, 5007)),
                registry,
            }
        })
        .collect();

    let print_row = |approach: &str, kernel: &str, per_dev: Vec<ErrorStats>| {
        print!("{approach:10} {kernel:12} |");
        for s in per_dev {
            print!(
                " {:>6.2}% {:>6.2}% {:>6.2}% |",
                s.gmae * 100.0,
                s.mean * 100.0,
                s.std * 100.0
            );
        }
        println!();
    };

    let large = |xs: &[Sample]| -> Vec<Sample> {
        xs.iter().filter(|s| is_large(&s.kernel)).cloned().collect()
    };

    // Heuristic rows.
    print_row(
        "Heuristic",
        "EL-F",
        assets
            .iter()
            .map(|a| eval_pairs(&a.el_f, |k| a.plain_f.predict(k)))
            .collect(),
    );
    print_row(
        "",
        "EL-FL",
        assets
            .iter()
            .map(|a| eval_pairs(&large(&a.el_f), |k| a.plain_f.predict(k)))
            .collect(),
    );
    print_row(
        "",
        "EL-FH",
        assets
            .iter()
            .map(|a| eval_pairs(&a.el_f, |k| a.enh_f.predict(k)))
            .collect(),
    );
    print_row(
        "",
        "EL-FHL",
        assets
            .iter()
            .map(|a| eval_pairs(&large(&a.el_f), |k| a.enh_f.predict(k)))
            .collect(),
    );
    print_row(
        "",
        "EL-B",
        assets
            .iter()
            .map(|a| eval_pairs(&a.el_b, |k| a.plain_b.predict(k)))
            .collect(),
    );
    print_row(
        "",
        "EL-BL",
        assets
            .iter()
            .map(|a| eval_pairs(&large(&a.el_b), |k| a.plain_b.predict(k)))
            .collect(),
    );
    print_row(
        "",
        "EL-BH",
        assets
            .iter()
            .map(|a| eval_pairs(&a.el_b, |k| a.registry.try_predict(k).unwrap()))
            .collect(),
    );
    print_row(
        "",
        "EL-BHL",
        assets
            .iter()
            .map(|a| eval_pairs(&large(&a.el_b), |k| a.registry.try_predict(k).unwrap()))
            .collect(),
    );
    print_row(
        "",
        "concat",
        assets
            .iter()
            .map(|a| eval_pairs(&a.concat, |k| a.registry.try_predict(k).unwrap()))
            .collect(),
    );
    print_row(
        "",
        "memcpy",
        assets
            .iter()
            .map(|a| eval_pairs(&a.memcpy, |k| a.registry.try_predict(k).unwrap()))
            .collect(),
    );
    // ML-based rows.
    print_row(
        "ML-based",
        "GEMM",
        assets
            .iter()
            .map(|a| eval_pairs(&a.gemm, |k| a.registry.try_predict(k).unwrap()))
            .collect(),
    );
    print_row(
        "",
        "transpose",
        assets
            .iter()
            .map(|a| eval_pairs(&a.transpose, |k| a.registry.try_predict(k).unwrap()))
            .collect(),
    );
    print_row(
        "",
        "tril-F",
        assets
            .iter()
            .map(|a| eval_pairs(&a.tril_f, |k| a.registry.try_predict(k).unwrap()))
            .collect(),
    );
    print_row(
        "",
        "tril-B",
        assets
            .iter()
            .map(|a| eval_pairs(&a.tril_b, |k| a.registry.try_predict(k).unwrap()))
            .collect(),
    );

    println!("\nEL rows: F/B forward/backward, H with hit-rate estimation, L restricted");
    println!("to tables with E > 100k. The enhanced model stabilizes small tables;");
    println!("the plain model is only reliable on large ones (paper's conclusion).");
}
