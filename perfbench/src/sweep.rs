//! `sweep`: repeated independent one-shot what-if sweeps, the
//! capacity-planning path. Every sweep builds a fresh `SweepEngine`, so
//! its memo caches and prepared-graph store start cold, as they do for a
//! user's one-shot sweep: this workload writes the caches that
//! `serve-plan` reads.
//!
//! Each seeded matrix mixes two kinds of scenario in fixed proportion:
//! batch resizes, fusion and hoisting, which change most of the graph and
//! so need full walks; and single-op mutations (`ReplaceOp`, `HoistNode`),
//! which the incremental predictor splices against its baseline.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dlperf_core::pipeline::Pipeline;
use dlperf_core::predictor::WalkScratch;
use dlperf_core::{
    prepare_graph, GraphMutation, IncrementalPredictor, Prediction, Scenario, SweepEngine,
    SweepOutcome,
};
use dlperf_gpusim::{DeviceSpec, KernelFamily, KernelSpec};
use dlperf_graph::lower::lower_graph;
use dlperf_graph::{Graph, OpKind};
use dlperf_kernels::MemoCache;
use dlperf_models::DlrmConfig;

use crate::common::{
    calibrated_pipelines, family_span, simulated_gmae_pct, Outcome, Recorder, Rng,
};
use crate::stats::median;
use crate::Config;

/// Batch of the base graph every sweep mutates.
const BASE_BATCH: u64 = 512;
const DEVICES: [&str; 2] = ["v100", "p100"];
const BATCHES: [u64; 10] = [128, 256, 384, 640, 768, 1024, 1536, 2048, 3072, 4096];
/// Distinct matrices per run; sweeps cycle through them. A hundred, so
/// the 90th percentile of per-matrix latency has ten samples beyond it.
const MATRICES: usize = 100;
/// Scenarios per matrix needing a full walk, and single-op scenarios.
const FULL_WALK: usize = 8;
const SINGLE_OP: usize = 24;
/// Matrices replayed per traced round.
const TRACED_MATRICES: usize = 1;
/// The accuracy subset: every `GMAE_STRIDE`-th scenario of a matrix
/// drawn from a fixed seed, not the run's.
const GMAE_SEED: u64 = 0x6A3E;
const GMAE_STRIDE: usize = 4;

/// Matrix `index` of the seeded family over `base`: [`FULL_WALK`]
/// scenarios whose mutations rewrite most of the graph and [`SINGLE_OP`]
/// one-node mutations, shuffled, with devices drawn per scenario.
pub fn scenario_matrix(seed: u64, index: usize, base: &Graph) -> Vec<Scenario> {
    let mut rng = Rng::new(seed, 0x5EE9 ^ ((index as u64) << 8));
    let nodes = base.nodes();
    // An op swap needs a node with tensors to carry over; positions stay
    // off the first and last node so the baseline keeps a prefix and a
    // suffix to reuse.
    let swappable: Vec<usize> = (1..nodes.len() - 1)
        .filter(|&i| !nodes[i].inputs.is_empty() && !nodes[i].outputs.is_empty())
        .collect();
    let mut out = Vec::with_capacity(FULL_WALK + SINGLE_OP);
    for i in 0..FULL_WALK {
        let b = *rng.pick(&BATCHES);
        let muts = match i % 8 {
            0..=3 => vec![GraphMutation::ResizeBatch(b)],
            4 => vec![
                GraphMutation::ResizeBatch(b),
                GraphMutation::FuseEmbeddingBags,
            ],
            5 => vec![GraphMutation::FuseEmbeddingBags],
            6 => vec![GraphMutation::ResizeBatch(b), GraphMutation::HoistAll],
            _ => vec![GraphMutation::HoistAll],
        };
        out.push(scenario(format!("full{i}"), rng.below(DEVICES.len()), muts));
    }
    for i in 0..SINGLE_OP {
        let m = if i % 3 == 2 {
            GraphMutation::HoistNode(1 + rng.below(nodes.len() - 2))
        } else {
            let node = *rng.pick(&swappable);
            GraphMutation::ReplaceOp {
                node,
                op: *rng.pick(&[OpKind::Relu, OpKind::Sigmoid]),
            }
        };
        out.push(scenario(
            format!("one{i}"),
            rng.below(DEVICES.len()),
            vec![m],
        ));
    }
    rng.shuffle(&mut out);
    out
}

fn scenario(label: String, device: usize, mutations: Vec<GraphMutation>) -> Scenario {
    let mut s = Scenario::new(format!("{label}/d{device}"), device);
    s.mutations = mutations;
    s
}

fn is_single_op(s: &Scenario) -> bool {
    matches!(
        s.mutations.as_slice(),
        [GraphMutation::ReplaceOp { .. }] | [GraphMutation::HoistNode(_)]
    )
}

/// Bits of each scenario's answer (`None` for a failed scenario).
fn fingerprint(o: &SweepOutcome) -> Vec<Option<[u64; 4]>> {
    o.results
        .iter()
        .map(|r| {
            let p = r.as_ref()?.prediction.as_ref()?;
            Some([
                p.e2e_us.to_bits(),
                p.active_us.to_bits(),
                p.cpu_us.to_bits(),
                p.gpu_us.to_bits(),
            ])
        })
        .collect()
}

/// The default DLRM with per-table embedding bags, so that fusing them
/// is a legal what-if.
pub fn base_graph() -> Graph {
    DlrmConfig {
        batched_embedding: false,
        ..DlrmConfig::default_config(BASE_BATCH)
    }
    .build()
}

struct Setup {
    pipelines: Vec<Pipeline>,
    base: Graph,
}

fn setup(cfg: &Config, rec: &mut Recorder) -> Result<Setup, String> {
    let base = rec.span("models.build", base_graph);
    let devices: Vec<DeviceSpec> = DEVICES
        .iter()
        .map(|d| DeviceSpec::by_name(d).ok_or_else(|| format!("unknown device {d}")))
        .collect::<Result<_, _>>()?;
    let pipelines = calibrated_pipelines(&devices, std::slice::from_ref(&base), cfg.workers, rec);
    Ok(Setup { pipelines, base })
}

impl Setup {
    fn engine(&self, workers: usize) -> SweepEngine {
        SweepEngine::new(self.pipelines.clone()).with_threads(workers)
    }
}

/// Untraced run: end-to-end metrics. An operation is one scenario; the
/// latency is that of one whole sweep of a matrix, what a user waits for.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut setups_s = Vec::new();
    let mut state = None;
    for k in 0..cfg.setups {
        let t0 = cfg.setup_start(k);
        state = Some(setup(cfg, &mut Recorder::new(false))?);
        setups_s.push(t0.elapsed().as_secs_f64());
    }
    let s = state.expect("at least one set-up");
    let matrices: Vec<Vec<Scenario>> = (0..MATRICES)
        .map(|i| scenario_matrix(cfg.seed, i, &s.base))
        .collect();

    // Each matrix is swept several times, spread across the run; its
    // latency is the mean of its sweeps. On a shared host whose speed
    // changes in phases of about a second, a single sweep's time says
    // which phase it met, while the mean over the run does not.
    let deadline = Instant::now() + Duration::from_secs(cfg.seconds);
    let mut per_matrix = vec![(0.0f64, 0usize); MATRICES];
    let mut scenarios = 0usize;
    let mut runs: Vec<(usize, Vec<Option<[u64; 4]>>)> = Vec::new();
    while runs.len() < MATRICES || Instant::now() < deadline {
        let i = runs.len() % MATRICES;
        let engine = s.engine(cfg.workers);
        let t0 = Instant::now();
        let outcome = engine.run(&s.base, &matrices[i]);
        per_matrix[i].0 += t0.elapsed().as_secs_f64();
        per_matrix[i].1 += 1;
        scenarios += matrices[i].len();
        runs.push((i, fingerprint(&outcome)));
    }
    let timed_s: f64 = per_matrix.iter().map(|(secs, _)| secs).sum();
    let latency_ms: Vec<f64> = per_matrix
        .iter()
        .map(|&(secs, n)| secs * 1e3 / n as f64)
        .collect();

    // Output check: every parallel sweep must price every scenario and
    // match the sequential reference on the same matrix bit for bit.
    let mut out = Outcome::default();
    let mut reference = Vec::with_capacity(MATRICES);
    for m in &matrices {
        let seq = s.engine(1).run_sequential(&s.base, m);
        for r in seq.results.iter().flatten() {
            if let Some(e) = &r.error {
                out.notes.push(format!("failed: scenario {}: {e}", r.label));
            }
        }
        reference.push(fingerprint(&seq));
    }
    for (i, fp) in &runs {
        for (got, want) in fp.iter().zip(&reference[*i]) {
            out.attempted += 1;
            if got.is_none() || got != want {
                out.failed += 1;
            }
        }
    }
    if out.failed > 0 {
        out.notes.push(format!(
            "failed: {} scenarios unpriced or not bitwise equal to run_sequential",
            out.failed
        ));
    }

    let subset: Vec<Scenario> = scenario_matrix(GMAE_SEED, 0, &s.base)
        .into_iter()
        .step_by(GMAE_STRIDE)
        .collect();
    let priced = s.engine(1).run_sequential(&s.base, &subset);
    let mut pairs = Vec::new();
    for (sc, r) in subset.iter().zip(&priced.results) {
        let p = r
            .as_ref()
            .and_then(|r| r.prediction.as_ref())
            .ok_or_else(|| format!("accuracy scenario {} failed to price", sc.label))?;
        let g = prepare_graph(&s.base, &sc.mutations).map_err(|e| e.to_string())?;
        pairs.push((s.pipelines[sc.device].device().clone(), g, p.e2e_us));
    }
    let gmae = simulated_gmae_pct(&pairs)?;

    let single = matrices
        .iter()
        .flatten()
        .filter(|sc| is_single_op(sc))
        .count();
    out.notes.push(format!(
        "sweeps {}, scenarios per sweep {}, single-op share {:.3}",
        runs.len(),
        matrices[0].len(),
        single as f64 / matrices.iter().map(Vec::len).sum::<usize>() as f64
    ));
    out.push("setup_s", median(&setups_s), "s", setups_s.len());
    out.push("ops_per_s", scenarios as f64 / timed_s, "1/s", runs.len());
    crate::push_latency(&mut out, &latency_ms)?;
    out.push("gmae_pct", gmae, "%", pairs.len());
    Ok(out)
}

/// One graph priced layer by layer: lowering, every kernel evaluated by
/// its family's model, then the memoized critical-path walk.
pub fn replay_price(
    p: &Pipeline,
    g: &Graph,
    cache: &MemoCache,
    scratch: &mut WalkScratch,
    rec: &mut Recorder,
) -> Result<Prediction, String> {
    let nodes = g.node_count() as f64;
    let lowered = rec
        .span_n("graph.lower", nodes, || lower_graph(g))
        .map_err(|e| e.to_string())?;
    let mut by_family: BTreeMap<KernelFamily, Vec<KernelSpec>> = BTreeMap::new();
    for k in lowered.into_iter().flat_map(|(_, ks)| ks) {
        by_family.entry(k.family()).or_default().push(k);
    }
    let registry = p.predictor().registry();
    for (family, specs) in &by_family {
        let priced = rec.span_n(family_span(*family), specs.len() as f64, || {
            registry.predict_batch_with_confidence(specs)
        });
        std::hint::black_box(priced);
    }
    rec.span_n("predictor.walk", nodes, || {
        p.predict_memoized_scratch(g, cache, scratch)
    })
    .map_err(|e| e.to_string())
}

/// Traced run: per-layer metrics.
pub fn run_traced(cfg: &Config) -> Result<Outcome, String> {
    let mut setup_rec = Recorder::new(true);
    let s = setup(cfg, &mut setup_rec)?;
    let matrices: Vec<Vec<Scenario>> = (0..TRACED_MATRICES)
        .map(|i| scenario_matrix(cfg.seed, i, &s.base))
        .collect();

    let mut rec = Recorder::new(false);
    let mut out = Outcome::default();
    let mut rounds = crate::Rounds::default();
    let mut efficiencies = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(cfg.seconds);
    while rounds.count() == 0 || Instant::now() < deadline {
        let round = rounds.count();
        for (i, m) in matrices.iter().enumerate() {
            for on in crate::Rounds::order(i + round) {
                rec.set_on(on);
                let t0 = Instant::now();
                let r = replay_sweep(&s, m, cfg.workers, &mut rec)?;
                rounds.add(on, t0.elapsed().as_secs_f64());
                if !on {
                    continue;
                }
                out.attempted += m.len() as u64;
                out.failed += r.mismatched as u64;
                efficiencies.push(r.fanout_efficiency);
                if round == 0 && i == 0 {
                    let lookups = r.memo_hits + r.memo_misses;
                    out.push(
                        "kernels.memo_hit_ratio",
                        r.memo_hits as f64 / lookups.max(1) as f64,
                        "ratio",
                        lookups as usize,
                    );
                    out.push("kernels.memo_misses", r.memo_misses as f64, "count", 1);
                    out.push(
                        "sweep.prepared_hit_ratio",
                        r.prepared_hit_ratio,
                        "ratio",
                        m.len(),
                    );
                    out.push(
                        "incremental.reused_nodes",
                        r.reused as f64,
                        "count",
                        m.len(),
                    );
                    out.push(
                        "incremental.recomputed_nodes",
                        r.recomputed as f64,
                        "count",
                        m.len(),
                    );
                    out.push("incremental.spliced_frac", r.spliced_frac, "ratio", m.len());
                }
            }
        }
        rounds.close();
    }
    if out.failed > 0 {
        out.notes.push(format!(
            "failed: {} scenarios differ between run and run_sequential",
            out.failed
        ));
    }
    out.push(
        "sweep.fanout_efficiency",
        median(&efficiencies),
        "ratio",
        efficiencies.len(),
    );
    crate::report_layers(&mut out, &setup_rec, &rec, &rounds);
    Ok(out)
}

struct SweepReplay {
    mismatched: usize,
    fanout_efficiency: f64,
    prepared_hit_ratio: f64,
    memo_hits: u64,
    memo_misses: u64,
    reused: usize,
    recomputed: usize,
    spliced_frac: f64,
}

/// One matrix: the engine's parallel run against a sequential run (the
/// fan-out layer), then every scenario priced layer by layer on cold
/// caches, single-op scenarios also through the incremental predictor.
fn replay_sweep(
    s: &Setup,
    m: &[Scenario],
    workers: usize,
    rec: &mut Recorder,
) -> Result<SweepReplay, String> {
    let par = s.engine(workers);
    let (par_out, par_s) = rec.timed("sweep.run", || par.run(&s.base, m));
    let seq = s.engine(1);
    let (seq_out, seq_s) = rec.timed("sweep.run_sequential", || seq.run_sequential(&s.base, m));
    let seq_fp = fingerprint(&seq_out);
    let mismatched = fingerprint(&par_out)
        .iter()
        .zip(&seq_fp)
        .filter(|(a, b)| a.is_none() || a != b)
        .count();
    let memo = seq.cache_stats();
    let incr = seq_out.incremental.unwrap_or_default();

    let caches: Vec<MemoCache> = s.pipelines.iter().map(|_| MemoCache::new()).collect();
    let mut scratch = WalkScratch::new();
    let mut baselines: Vec<Option<IncrementalPredictor>> =
        s.pipelines.iter().map(|_| None).collect();
    for sc in m {
        let p = &s.pipelines[sc.device];
        let cache = &caches[sc.device];
        let g = rec
            .span("graph.prepare", || prepare_graph(&s.base, &sc.mutations))
            .map_err(|e| e.to_string())?;
        replay_price(p, &g, cache, &mut scratch, rec)?;
        if !is_single_op(sc) {
            continue;
        }
        if baselines[sc.device].is_none() {
            let b = rec
                .span("incremental.baseline", || {
                    IncrementalPredictor::with_cache(p.predictor().clone(), s.base.clone(), cache)
                })
                .map_err(|e| e.to_string())?;
            baselines[sc.device] = Some(b);
        }
        let b = baselines[sc.device].as_ref().expect("built above");
        rec.span("incremental.repredict", || {
            b.repredict_scratch(&g, Some(cache), &mut scratch)
        })
        .map_err(|e| e.to_string())?;
    }

    let threads = par_out.threads.max(1) as f64;
    Ok(SweepReplay {
        mismatched,
        fanout_efficiency: match (par_s, seq_s) {
            (Some(p), Some(q)) => q / (p * threads),
            _ => 0.0,
        },
        prepared_hit_ratio: 1.0 - par.prepared_store().stats().misses as f64 / m.len() as f64,
        memo_hits: memo.hits,
        memo_misses: memo.misses,
        reused: incr.reused_nodes,
        recomputed: incr.recomputed_nodes,
        spliced_frac: incr.spliced as f64 / incr.scenarios.max(1) as f64,
    })
}
