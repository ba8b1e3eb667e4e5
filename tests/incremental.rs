//! Property tests for incremental re-prediction and batched inference.
//!
//! Two bitwise contracts pinned here:
//!
//! * `IncrementalPredictor::repredict_scratch` is bit-for-bit identical to a fresh
//!   full Algorithm 1 walk on **every** `Prediction` field, across random
//!   mutation sequences (resize / fuse / replace / reorder) — whatever mix
//!   of prefix reuse, dirty recompute, suffix splice, or full fallback the
//!   diff produces.
//! * Batched kernel-model evaluation (one packed MLP forward pass per
//!   family) matches per-kernel scalar evaluation bit for bit, for every
//!   kernel family the registry knows.

use std::sync::OnceLock;

use dlrm_perf_model::core::incremental::IncrementalPredictor;
use dlrm_perf_model::core::pipeline::Pipeline;
use dlrm_perf_model::core::predictor::{Prediction, WalkScratch};
use dlrm_perf_model::gpusim::{DeviceSpec, KernelSpec};
use dlrm_perf_model::graph::transform::{
    fuse_embedding_bags, hoist_earliest, replace_op, resize_batch,
};
use dlrm_perf_model::graph::{Graph, NodeId, OpKind};
use dlrm_perf_model::kernels::{CalibrationEffort, MemoCache, ModelRegistry};
use dlrm_perf_model::models::DlrmConfig;
use proptest::prelude::*;

/// One shared calibration + checkpointed baseline (the expensive part).
fn base() -> &'static (Pipeline, Graph, IncrementalPredictor) {
    static BASE: OnceLock<(Pipeline, Graph, IncrementalPredictor)> = OnceLock::new();
    BASE.get_or_init(|| {
        let g = DlrmConfig {
            rows_per_table: vec![150_000; 4],
            ..DlrmConfig::default_config(512)
        }
        .build();
        let pipe = Pipeline::analyze(
            &DeviceSpec::v100(),
            std::slice::from_ref(&g),
            CalibrationEffort::Quick,
            8,
            37,
        );
        let inc = IncrementalPredictor::new(pipe.predictor().clone(), g.clone())
            .expect("baseline graph lowers");
        (pipe, g, inc)
    })
}

/// All observable bits of a prediction.
fn bits(p: &Prediction) -> [u64; 5] {
    [
        p.e2e_us.to_bits(),
        p.active_us.to_bits(),
        p.cpu_us.to_bits(),
        p.gpu_us.to_bits(),
        p.degraded_kernels as u64,
    ]
}

/// Applies one encoded mutation; infeasible ones (immovable node, repeated
/// fuse) are no-ops, like the sweep engine's lenient hoist path.
fn apply(g: &mut Graph, kind: u8, idx: usize) {
    let n = g.node_count();
    match kind % 4 {
        0 => {
            const BATCHES: [u64; 6] = [64, 128, 256, 512, 1024, 2048];
            let _ = resize_batch(g, BATCHES[idx % BATCHES.len()]);
        }
        1 => {
            let _ = fuse_embedding_bags(g);
        }
        2 => {
            let id = g.nodes()[idx % n].id;
            let _ = hoist_earliest(g, id);
        }
        _ => {
            let op = if idx.is_multiple_of(2) {
                OpKind::Sigmoid
            } else {
                OpKind::Relu
            };
            let _ = replace_op(g, NodeId(idx % n), op, "prop-swap");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole contract: after ANY mutation sequence, incremental
    /// re-prediction from the fixed baseline equals a fresh full walk on
    /// every field's bit pattern — with and without a memo cache.
    #[test]
    fn repredict_is_bitwise_identical_to_full_walk(
        muts in proptest::collection::vec((0u8..4, 0usize..4096), 1..5),
    ) {
        let (pipe, g, inc) = base();
        let mut mutated = g.clone();
        // One scratch reused across every mutation in the sequence — the
        // sweep engine's steady-state shape, so splice-back, dirty walks,
        // and full fallbacks all run on recycled buffers here.
        let mut scratch = WalkScratch::new();
        for &(kind, idx) in &muts {
            apply(&mut mutated, kind, idx);

            let full = pipe.predictor().predict(&mutated).expect("full walk lowers");
            let (fast, stats) = inc
                .repredict_scratch(&mutated, None, &mut WalkScratch::new())
                .expect("repredict lowers");
            prop_assert_eq!(bits(&fast), bits(&full), "uncached diverged: {:?}", stats);

            let cache = MemoCache::new();
            let (memo, _) = inc
                .repredict_scratch(&mutated, Some(&cache), &mut WalkScratch::new())
                .expect("repredict lowers");
            prop_assert_eq!(bits(&memo), bits(&full), "memoized diverged");

            let (scratched, _) = inc
                .repredict_scratch(&mutated, None, &mut scratch)
                .expect("repredict lowers");
            prop_assert_eq!(bits(&scratched), bits(&full), "scratch-backed diverged");
        }
    }

    /// An arena-backed splice-back (mutate, undo, repredict on a reused
    /// scratch) returns the baseline's exact bits, and repeating it in
    /// steady state never allocates.
    #[test]
    fn scratch_splice_back_is_bitwise_and_allocation_free(node_seed in 0usize..4096) {
        let (pipe, g, inc) = base();
        let mid = NodeId(node_seed % g.node_count());
        let original = g.node(mid).expect("node exists").op;
        let swapped = if original == OpKind::Relu { OpKind::Sigmoid } else { OpKind::Relu };

        let mut mutated = g.clone();
        replace_op(&mut mutated, mid, swapped, "swap").expect("replace");

        let mut scratch = WalkScratch::new();
        // Warm the scratch on the dirty graph, then splice back.
        let full = pipe.predictor().predict(&mutated).expect("full walk lowers");
        let (dirty, _) = inc
            .repredict_scratch(&mutated, None, &mut scratch)
            .expect("repredict lowers");
        prop_assert_eq!(bits(&dirty), bits(&full));

        let (back, stats) = inc.repredict_scratch(g, None, &mut scratch).expect("repredict");
        prop_assert!(stats.spliced, "identical graph must splice: {:?}", stats);
        prop_assert_eq!(bits(&back), bits(&inc.baseline_prediction()));

        let warm = scratch.arena_stats();
        for _ in 0..3 {
            let (again, _) =
                inc.repredict_scratch(&mutated, None, &mut scratch).expect("repredict");
            prop_assert_eq!(bits(&again), bits(&full));
        }
        let steady = scratch.arena_stats();
        prop_assert_eq!(steady.misses, warm.misses, "steady state must not allocate");
        prop_assert!(steady.takes > warm.takes);
    }

    /// Mutating and then exactly undoing a replacement reconverges to the
    /// baseline via the splice path, not merely to equal bits.
    #[test]
    fn undone_mutation_splices_back_to_baseline(node_seed in 0usize..4096) {
        let (_, g, inc) = base();
        let mid = NodeId(node_seed % g.node_count());
        let original = g.node(mid).expect("node exists").op;
        let swapped = if original == OpKind::Relu { OpKind::Sigmoid } else { OpKind::Relu };
        let name = g.node(mid).expect("node exists").name.clone();

        let mut mutated = g.clone();
        replace_op(&mut mutated, mid, swapped, "swap").expect("replace");
        replace_op(&mut mutated, mid, original, name).expect("restore");
        let (p, stats) = inc
            .repredict_scratch(&mutated, None, &mut WalkScratch::new())
            .expect("repredict lowers");
        prop_assert!(stats.spliced, "identical graph must splice: {:?}", stats);
        prop_assert_eq!(bits(&p), bits(&inc.baseline_prediction()));
    }
}

/// One representative spec list per kernel family (duplicates included to
/// exercise in-batch memo behaviour upstream).
fn family_specs() -> Vec<Vec<KernelSpec>> {
    vec![
        vec![
            KernelSpec::gemm(512, 256, 128),
            KernelSpec::Gemm {
                m: 64,
                n: 2048,
                k: 64,
                batch: 8,
            },
            KernelSpec::gemm(512, 256, 128),
            KernelSpec::Gemm {
                m: 31,
                n: 33,
                k: 7,
                batch: 1,
            },
        ],
        vec![
            KernelSpec::EmbeddingForward {
                b: 512,
                e: 100_000,
                t: 4,
                l: 32,
                d: 64,
                rows_per_block: 32,
            },
            KernelSpec::EmbeddingForward {
                b: 128,
                e: 50_000,
                t: 8,
                l: 1,
                d: 128,
                rows_per_block: 16,
            },
        ],
        vec![KernelSpec::EmbeddingBackward {
            b: 512,
            e: 100_000,
            t: 4,
            l: 32,
            d: 64,
            rows_per_block: 32,
        }],
        vec![
            KernelSpec::Concat { bytes: 1 << 20 },
            KernelSpec::Concat { bytes: 77 },
        ],
        vec![
            KernelSpec::memcpy_d2d(1 << 22),
            KernelSpec::memcpy_d2d(4096),
        ],
        vec![
            KernelSpec::Transpose {
                batch: 8,
                rows: 64,
                cols: 64,
            },
            KernelSpec::Transpose {
                batch: 8,
                rows: 64,
                cols: 63,
            },
        ],
        vec![KernelSpec::TrilForward { batch: 256, n: 27 }],
        vec![KernelSpec::TrilBackward { batch: 256, n: 27 }],
        vec![
            KernelSpec::Elementwise {
                elems: 1 << 20,
                flops_per_elem: 2.0,
                bytes_per_elem: 8.0,
            },
            KernelSpec::Elementwise {
                elems: 333,
                flops_per_elem: 1.0,
                bytes_per_elem: 12.0,
            },
        ],
        vec![KernelSpec::Conv2d {
            batch: 8,
            c_in: 16,
            h: 32,
            w: 32,
            c_out: 32,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        }],
    ]
}

/// Batched family evaluation is bitwise identical to scalar evaluation for
/// every family, including a mixed-family batch in arbitrary order.
#[test]
fn batched_inference_matches_scalar_on_all_kernel_families() {
    let registry = ModelRegistry::calibrate(&DeviceSpec::v100(), CalibrationEffort::Quick, 11);
    let mut mixed: Vec<KernelSpec> = Vec::new();
    for specs in family_specs() {
        let scalar: Vec<(u64, _)> = specs
            .iter()
            .map(|k| {
                let (t, c) = registry.predict_with_confidence(k);
                (t.to_bits(), c)
            })
            .collect();
        let batched: Vec<(u64, _)> = registry
            .predict_batch_with_confidence(&specs)
            .into_iter()
            .map(|(t, c)| (t.to_bits(), c))
            .collect();
        assert_eq!(scalar, batched, "family of {:?} diverged", specs[0]);
        // Interleave: families alternate so the grouped evaluation must
        // re-scatter results into input order.
        for (i, s) in specs.into_iter().enumerate() {
            mixed.insert((i * 7) % (mixed.len() + 1), s);
        }
    }
    let scalar: Vec<u64> = mixed
        .iter()
        .map(|k| registry.predict_with_confidence(k).0.to_bits())
        .collect();
    let batched: Vec<u64> = registry
        .predict_batch_with_confidence(&mixed)
        .into_iter()
        .map(|(t, _)| t.to_bits())
        .collect();
    assert_eq!(scalar, batched, "mixed-family batch diverged");
}
