//! `serve-plan`: the co-design questions users put to the server —
//! "which configuration?" (`Recommend`) and "which optimization?"
//! (`Optimize`) — as wire-form lines sent through `Server::submit_json` by
//! one closed-loop client.
//!
//! The stream is built from ten request templates per block, each block
//! shuffled by the seed; the seed also draws batches, device order,
//! objectives, strategy order and topologies. Six templates (plain
//! `Recommend`s and shallow `Optimize`s) carry 2 to 4 ms of pricing and
//! four (`Recommend` over the multi-GPU axis) carry 40 to 80 ms. The
//! server's watchdog rounds each reply up to the end of a 5 ms slice (see
//! the README), so the first group lands in one slice: the median falls
//! inside it and the 90th percentile inside the second group whatever the
//! seed and the host's speed. The per-model batch set (12) is larger than
//! the server's prepared-graph capacity (8), so the store both hits and
//! evicts. A warm-up pass over every (model, batch, device) fills the
//! server's memo caches before timing.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dlperf_core::pipeline::Pipeline;
use dlperf_core::predictor::WalkScratch;
use dlperf_core::{
    prepare_graph, GraphMoves, GraphMutation, NoExtra, OptimizationReport, OptimizationSearch,
    SearchConfig,
};
use dlperf_distrib::{CommModel, Topology};
use dlperf_gpusim::{CollectiveKind, CollectiveSpec, DeviceSpec};
use dlperf_graph::Graph;
use dlperf_kernels::MemoCache;
use dlperf_serve::{
    Body, Objective, Op, OptimizeQuery, RecommendQuery, Request, Response, Server, ServerConfig,
};

use crate::common::{
    build_models, calibrated_pipelines, simulated_gmae_pct, Outcome, Recorder, Rng,
};
use crate::stats::{highest_reportable, median, percentile};
use crate::{Config, Rounds};

/// The catalog models served.
pub const MODELS: [&str; 3] = ["dlrm-default", "dcn", "wide-deep"];
/// The devices served.
pub const DEVICES: [&str; 2] = ["v100", "p100"];
/// Batch sizes requests draw from; more than [`PREPARED_CAPACITY`].
pub const BATCHES: [u64; 12] = [
    128, 192, 256, 384, 512, 640, 768, 1024, 1536, 2048, 3072, 4096,
];
/// The server's per-model prepared-graph capacity.
pub const PREPARED_CAPACITY: usize = 8;
/// Batch the catalog models are built at (requests resize from here).
const BASE_BATCH: u64 = 512;
/// Requests per generated block; one of each template.
const BLOCK: usize = 10;
/// Requests generated per run; the timed loop cycles if it runs out.
const STREAM_LEN: usize = 4000;
/// Requests per traced round.
const TRACED_REQUESTS: usize = 40;
/// `Ping`s in the traced run's fixed-cost burst.
const PING_BURST: usize = 200;
/// One in this many `Optimize` answers is re-derived offline in an
/// untraced run.
const OPTIMIZE_SAMPLE_ONE_IN: u64 = 4;
/// Batches of the accuracy subset, priced on every model and device.
const GMAE_BATCHES: [u64; 2] = [256, 1024];

/// The three axes of the sharded `Recommend`.
const STRATEGIES: [&str; 4] = ["hybrid", "dp", "mp", "pp"];
const TOPOLOGIES: [&str; 2] = ["nvlink", "pcie"];
const WORLD_SIZES: [usize; 2] = [2, 4];

/// Distinct batches drawn without replacement.
fn batches(rng: &mut Rng, k: usize) -> Vec<u64> {
    let mut all = BATCHES.to_vec();
    rng.shuffle(&mut all);
    all.truncate(k);
    all
}

fn devices(rng: &mut Rng, k: usize) -> Vec<String> {
    let mut all: Vec<String> = DEVICES.iter().map(|d| d.to_string()).collect();
    rng.shuffle(&mut all);
    all.truncate(k);
    all
}

fn recommend(
    model: &str,
    batches: Vec<u64>,
    devices: Vec<String>,
    rng: &mut Rng,
) -> RecommendQuery {
    RecommendQuery {
        model: model.into(),
        batches,
        devices,
        max_latency_ms: None,
        world_sizes: Vec::new(),
        strategies: None,
        topologies: None,
        objective: *rng.pick(&[Objective::Latency, Objective::Throughput]),
        deadline_ms: None,
    }
}

fn optimize(model: &str, depth: usize, beam_width: usize, rng: &mut Rng) -> Op {
    Op::Optimize(OptimizeQuery {
        model: model.into(),
        batch: *rng.pick(&BATCHES),
        devices: Some(devices(rng, DEVICES.len())),
        batches: Some(batches(rng, 2)),
        beam_width: Some(beam_width),
        max_depth: Some(depth),
        top_k: Some(5),
        deadline_ms: None,
    })
}

/// DLRM over two batches, both devices, every strategy at each world
/// size, on one topology.
fn sharded(rng: &mut Rng) -> Op {
    let mut strategies = STRATEGIES.map(String::from).to_vec();
    rng.shuffle(&mut strategies);
    let mut q = recommend(
        "dlrm-default",
        batches(rng, 2),
        devices(rng, DEVICES.len()),
        rng,
    );
    q.world_sizes = WORLD_SIZES.to_vec();
    q.strategies = Some(strategies);
    q.topologies = Some(vec![rng.pick(&TOPOLOGIES).to_string()]);
    Op::Recommend(q)
}

/// Template `t` of a block, with its seeded parameters.
fn template(t: usize, rng: &mut Rng) -> Op {
    match t {
        // 2 to 4 ms of pricing each: one 5 ms watchdog slice.
        0..=2 => Op::Recommend(recommend(
            MODELS[t],
            batches(rng, BATCHES.len()),
            devices(rng, DEVICES.len()),
            rng,
        )),
        3 => optimize("dcn", 2, 8, rng),
        4 => optimize("dlrm-default", 1, 4, rng),
        5 => optimize("wide-deep", 1, 4, rng),
        // 40 to 80 ms each: the tail.
        _ => sharded(rng),
    }
}

/// The seeded request stream, `n` wire-form lines.
pub fn request_stream(seed: u64, n: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, 0x5E7E);
    let mut lines = Vec::with_capacity(n);
    while lines.len() < n {
        let mut order: Vec<usize> = (0..BLOCK).collect();
        rng.shuffle(&mut order);
        for t in order {
            let id = lines.len() as u64 + 1;
            let req = Request {
                id,
                op: template(t, &mut rng),
            };
            lines.push(serde_json::to_string(&req).expect("requests serialize"));
        }
    }
    lines.truncate(n);
    lines
}

/// Requests that price every (model, batch, device) once, filling the
/// server's memo caches.
fn warmup_requests() -> Vec<String> {
    MODELS
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let mut q = recommend(m, BATCHES.to_vec(), Vec::new(), &mut Rng::new(0, 0));
            q.objective = Objective::Throughput;
            let req = Request {
                id: 1_000_000 + i as u64,
                op: Op::Recommend(q),
            };
            serde_json::to_string(&req).expect("requests serialize")
        })
        .collect()
}

/// A started server plus what the offline replays need.
struct Setup {
    server: Server,
    /// Pipelines by canonical device name, as the server holds them.
    pipelines: BTreeMap<String, Pipeline>,
    /// Catalog graphs at [`BASE_BATCH`], by model name.
    bases: BTreeMap<String, Graph>,
    /// The warm-up answers, by model.
    warmup: Vec<(String, Response)>,
}

fn setup(cfg: &Config, rec: &mut Recorder) -> Result<Setup, String> {
    let graphs = build_models(&MODELS, BASE_BATCH, rec);
    let devices: Vec<DeviceSpec> = DEVICES
        .iter()
        .map(|d| DeviceSpec::by_name(d).ok_or_else(|| format!("unknown device {d}")))
        .collect::<Result<_, _>>()?;
    let pipelines = calibrated_pipelines(&devices, &graphs, cfg.workers, rec);
    let by_name: BTreeMap<String, Pipeline> = pipelines
        .iter()
        .map(|p| (p.device().name.clone(), p.clone()))
        .collect();
    let server = Server::start(
        pipelines,
        &MODELS,
        ServerConfig {
            workers: cfg.workers,
            prepared_capacity: PREPARED_CAPACITY,
            base_batch: BASE_BATCH,
            ..ServerConfig::default()
        },
        None,
    )?;
    let mut warmup = Vec::new();
    for (model, line) in MODELS.iter().zip(warmup_requests()) {
        let resp = server.submit_json(&line);
        warmup.push((model.to_string(), check_response(&line, &resp)?));
    }
    let bases = MODELS.iter().map(|m| m.to_string()).zip(graphs).collect();
    Ok(Setup {
        server,
        pipelines: by_name,
        bases,
        warmup,
    })
}

/// The served answer, unless it is an error body, the wrong body for its
/// op, or empty.
fn check_response(line: &str, resp: &str) -> Result<Response, String> {
    let req: Request = serde_json::from_str(line).map_err(|e| format!("bad request line: {e}"))?;
    let resp: Response =
        serde_json::from_str(resp).map_err(|e| format!("unparseable response: {e}"))?;
    let ok = match (&req.op, &resp.body) {
        (Op::Recommend(_), Body::Recommendation(r)) => {
            r.recommended.is_some() && !r.ranked.is_empty()
        }
        (Op::Optimize(_), Body::Optimization(o)) => !o.ranked.is_empty(),
        (Op::Ping, Body::Pong) => true,
        _ => false,
    };
    if ok && resp.id == req.id {
        Ok(resp)
    } else {
        Err(format!("request {} answered with {:?}", req.id, resp.body))
    }
}

impl Setup {
    /// The offline search the server runs for `q`: same pipelines, same
    /// graph, same knobs (the stream sets every knob the server clamps).
    fn offline_optimize(&self, q: &OptimizeQuery) -> Result<OptimizationReport, String> {
        let pipelines = self.device_pipelines(q.devices.as_deref().unwrap_or_default())?;
        let base = self.graph(&q.model, q.batch)?;
        OptimizationSearch::<NoExtra>::new(&pipelines)
            .with_config(SearchConfig {
                beam_width: q.beam_width.unwrap_or(8),
                max_depth: q.max_depth.unwrap_or(2),
                top_k: q.top_k.unwrap_or(10),
                ..SearchConfig::default()
            })
            .with_graph_moves(GraphMoves {
                batches: q.batches.clone().unwrap_or_default(),
                ..GraphMoves::default()
            })
            .run(&base)
            .map_err(|e| format!("offline search failed: {e}"))
    }

    /// Pipelines for device names, canonicalized and deduplicated in
    /// first-occurrence order like the server does.
    fn device_pipelines(&self, names: &[String]) -> Result<Vec<Pipeline>, String> {
        let mut out: Vec<Pipeline> = Vec::new();
        for n in names {
            let canonical = DeviceSpec::by_name(n)
                .ok_or_else(|| format!("unknown device {n}"))?
                .name;
            if out.iter().all(|p| p.device().name != canonical) {
                out.push(self.pipelines[&canonical].clone());
            }
        }
        Ok(out)
    }

    fn graph(&self, model: &str, batch: u64) -> Result<Graph, String> {
        prepare_graph(&self.bases[model], &[GraphMutation::ResizeBatch(batch)])
            .map_err(|e| format!("graph preparation failed: {e}"))
    }

    /// Accuracy of the served answers: the warm-up `Recommend` prices of
    /// the fixed subset against simulated execution.
    fn gmae_pct(&self) -> Result<(f64, usize), String> {
        let mut items = Vec::new();
        for (model, resp) in &self.warmup {
            let Body::Recommendation(r) = &resp.body else {
                return Err(format!("warm-up for {model} is not a recommendation"));
            };
            for c in r.ranked.iter().filter(|c| GMAE_BATCHES.contains(&c.batch)) {
                let device = DeviceSpec::by_name(&c.device)
                    .ok_or_else(|| format!("unknown device {}", c.device))?;
                items.push((device, self.graph(model, c.batch)?, c.e2e_us));
            }
        }
        Ok((simulated_gmae_pct(&items)?, items.len()))
    }
}

/// Whether a served `Optimize` answer is bitwise equal to the offline run.
fn same_answer(served: &Response, offline: &OptimizationReport) -> bool {
    let Body::Optimization(b) = &served.body else {
        return false;
    };
    b.baseline_e2e_us.to_bits() == offline.baseline_e2e_us.to_bits()
        && b.evals == offline.evals as u64
        && b.prunes == offline.prunes as u64
        && b.incremental_frac.to_bits() == offline.incremental_frac().to_bits()
        && b.ranked.len() == offline.ranked.len()
        && b.ranked.iter().zip(&offline.ranked).all(|(s, o)| {
            s.description == o.description
                && s.e2e_us.to_bits() == o.e2e_us.to_bits()
                && s.delta_us.to_bits() == o.delta_us.to_bits()
                && s.incremental == o.incremental
        })
}

fn sample_for_check(seed: u64, index: usize) -> bool {
    Rng::new(seed, 0xC4EC ^ index as u64).next() % OPTIMIZE_SAMPLE_ONE_IN == 0
}

/// Untraced run: end-to-end metrics. An operation is one request.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let stream = request_stream(cfg.seed, STREAM_LEN);
    let mut setups_s = Vec::new();
    let mut state = None;
    for k in 0..cfg.setups {
        let t0 = cfg.setup_start(k);
        state = Some(setup(cfg, &mut Recorder::new(false))?);
        setups_s.push(t0.elapsed().as_secs_f64());
    }
    let s = state.expect("at least one set-up");

    let deadline = Instant::now() + Duration::from_secs(cfg.seconds);
    let mut latencies_ms = Vec::new();
    let mut answers: Vec<String> = Vec::new();
    while answers.len() < crate::MIN_OPS || Instant::now() < deadline {
        let line = &stream[answers.len() % stream.len()];
        let t0 = Instant::now();
        let resp = s.server.submit_json(line);
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        answers.push(resp);
    }

    let mut out = Outcome {
        attempted: answers.len() as u64,
        ..Outcome::default()
    };
    let mut checked = 0usize;
    for (i, resp) in answers.iter().enumerate() {
        let line = &stream[i % stream.len()];
        let served = match check_response(line, resp) {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("failed: {e}"));
                continue;
            }
        };
        let req: Request = serde_json::from_str(line).expect("checked above");
        if let Op::Optimize(q) = &req.op {
            if sample_for_check(cfg.seed, i) {
                checked += 1;
                if !same_answer(&served, &s.offline_optimize(q)?) {
                    out.failed += 1;
                    out.notes
                        .push(format!("failed: Optimize {} differs from offline", req.id));
                }
            }
        }
    }
    let (gmae, gmae_n) = s.gmae_pct()?;

    // Latency by request kind: which templates land in which 5 ms slot.
    let mut by_kind: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (i, ms) in latencies_ms.iter().enumerate() {
        let req: Request = serde_json::from_str(&stream[i % stream.len()]).expect("valid line");
        let kind = match &req.op {
            Op::Recommend(q) if q.world_sizes.is_empty() => format!("recommend/{}", q.model),
            Op::Recommend(q) => format!("recommend-sharded/{}", q.model),
            Op::Optimize(q) => format!("optimize/{}/depth{}", q.model, q.max_depth.unwrap_or(0)),
            _ => "other".into(),
        };
        by_kind.entry(kind).or_default().push(*ms);
    }
    for (kind, xs) in &by_kind {
        let [q1, q2, q3] = if xs.len() >= 2 {
            crate::stats::quartiles(xs)
        } else {
            [xs[0]; 3]
        };
        let (min, max) = xs
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        out.notes.push(format!(
            "latency {kind:<36} n {:>5} min {min:.3} quartiles ms {q1:.3} {q2:.3} {q3:.3} max {max:.3}",
            xs.len()
        ));
    }

    let n = latencies_ms.len();
    let total_s: f64 = latencies_ms.iter().sum::<f64>() / 1e3;
    out.notes.push(format!(
        "requests {n}, Optimize answers checked offline {checked}"
    ));
    out.push("setup_s", median(&setups_s), "s", setups_s.len());
    out.push("ops_per_s", n as f64 / total_s, "1/s", n);
    crate::push_latency(&mut out, &latencies_ms)?;
    out.push("gmae_pct", gmae, "%", gmae_n);
    Ok(out)
}

/// Samples the traced rounds collect beside the spans.
#[derive(Default)]
struct Traced {
    /// Per `Optimize`: served time minus the offline search time (ms).
    overhead_ms: Vec<f64>,
    /// Per `Optimize`: the offline search's evals, prunes and
    /// incremental fraction.
    search: Vec<(usize, usize, f64)>,
}

/// One request through the layers: the served call, then the same
/// question answered offline through each layer's public functions.
/// Returns whether an `Optimize` answer matched the offline search.
fn replay_request(
    s: &Setup,
    line: &str,
    rec: &mut Recorder,
    caches: &BTreeMap<String, MemoCache>,
    scratch: &mut WalkScratch,
    traced: &mut Traced,
) -> Result<bool, String> {
    let req = rec.span("serve.parse", || {
        dlperf_serve::api::prescreen(line)
            .map_err(|e| e.to_string())
            .and_then(|()| serde_json::from_str::<Request>(line).map_err(|e| e.to_string()))
    })?;
    let (resp_line, submit_s) = rec.timed("serve.submit", || s.server.submit_json(line));
    let resp = check_response(line, &resp_line)?;
    rec.span("serve.encode", || {
        serde_json::to_string(&resp).map_err(|e| e.to_string())
    })?;
    match &req.op {
        Op::Optimize(q) => {
            let (offline, search_s) = rec.timed("search", || s.offline_optimize(q));
            let offline = offline?;
            if let (Some(sub), Some(se)) = (submit_s, search_s) {
                traced.overhead_ms.push((sub - se) * 1e3);
                traced
                    .search
                    .push((offline.evals, offline.prunes, offline.incremental_frac()));
            }
            Ok(same_answer(&resp, &offline))
        }
        Op::Recommend(q) => {
            for p in &s.device_pipelines(&q.devices)? {
                let cache = &caches[&p.device().name];
                for &b in &q.batches {
                    let g = rec.span("graph.prepare", || s.graph(&q.model, b))?;
                    crate::sweep::replay_price(p, &g, cache, scratch, rec)?;
                }
                if !q.world_sizes.is_empty() {
                    replay_collectives(p.device(), q, rec);
                }
            }
            Ok(true)
        }
        _ => Ok(true),
    }
}

/// The α–β collective model over the request's topologies and world
/// sizes: the three collectives a sharded DLRM step issues, at a ladder
/// of message sizes.
fn replay_collectives(device: &DeviceSpec, q: &RecommendQuery, rec: &mut Recorder) {
    let topologies = q.topologies.clone().unwrap_or_default();
    let models: Vec<CommModel> = topologies
        .iter()
        .flat_map(|t| q.world_sizes.iter().map(move |&w| (t, w)))
        .map(|(t, w)| CommModel::new(Topology::from_name(t, device, w)))
        .collect();
    let kinds = [
        CollectiveKind::AllReduce,
        CollectiveKind::AllToAll,
        CollectiveKind::AllGather,
    ];
    let sizes = 10..26u32;
    let evals = (models.len() * kinds.len() * sizes.len()) as f64;
    let total = rec.span_n("distrib.collective", evals, || {
        let mut acc = 0.0;
        for m in &models {
            let world = m.topology().world() as u32;
            for kind in kinds {
                for shift in sizes.clone() {
                    let spec = CollectiveSpec {
                        kind,
                        bytes_per_rank: 1 << shift,
                        world,
                    };
                    acc += m.collective_time(&spec);
                }
            }
        }
        acc
    });
    std::hint::black_box(total);
}

/// Traced run: per-layer metrics.
pub fn run_traced(cfg: &Config) -> Result<Outcome, String> {
    let stream = request_stream(cfg.seed, TRACED_REQUESTS);
    let mut setup_rec = Recorder::new(true);
    let s = setup(cfg, &mut setup_rec)?;
    let stats_before = s.server.stats();
    let caches: BTreeMap<String, MemoCache> = s
        .pipelines
        .keys()
        .map(|k| (k.clone(), MemoCache::new()))
        .collect();
    let mut scratch = WalkScratch::new();

    let mut rec = Recorder::new(false);
    let mut traced = Traced::default();
    let mut out = Outcome::default();
    let mut rounds = Rounds::default();
    let deadline = Instant::now() + Duration::from_secs(cfg.seconds);
    while rounds.count() == 0 || Instant::now() < deadline {
        let round = rounds.count();
        for (i, line) in stream.iter().enumerate() {
            for on in Rounds::order(i + round) {
                rec.set_on(on);
                let t0 = Instant::now();
                let ok = replay_request(&s, line, &mut rec, &caches, &mut scratch, &mut traced)?;
                rounds.add(on, t0.elapsed().as_secs_f64());
                if on {
                    out.attempted += 1;
                    if !ok {
                        out.failed += 1;
                        out.notes
                            .push(format!("failed: traced request {i} differs from offline"));
                    }
                }
            }
        }
        if round == 0 {
            let after = s.server.stats();
            let hits = after.memo_hits - stats_before.memo_hits;
            let misses = after.memo_misses - stats_before.memo_misses;
            let lookups = hits + misses;
            out.push(
                "kernels.memo_hit_ratio",
                hits as f64 / lookups.max(1) as f64,
                "ratio",
                lookups as usize,
            );
            out.push("kernels.memo_misses", misses as f64, "count", 1);
            let n = traced.search.len();
            let evals: usize = traced.search.iter().map(|x| x.0).sum();
            let prunes: usize = traced.search.iter().map(|x| x.1).sum();
            let frac: f64 = traced.search.iter().map(|x| x.2).sum();
            out.push("search.evals", evals as f64, "count", n);
            out.push("search.prunes", prunes as f64, "count", n);
            out.push(
                "search.incremental_frac",
                frac / n.max(1) as f64,
                "ratio",
                n,
            );
        }
        rounds.close();
    }

    // The fixed cost of admission and hand-off, with no pricing behind it.
    let ping = serde_json::to_string(&Request {
        id: 7,
        op: Op::Ping,
    })
    .expect("ping serializes");
    let mut ping_ms = Vec::with_capacity(PING_BURST);
    for _ in 0..PING_BURST {
        let t0 = Instant::now();
        let resp = s.server.submit_json(&ping);
        ping_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        check_response(&ping, &resp)?;
    }
    out.push("serve.ping_ms_p50", median(&ping_ms), "ms", ping_ms.len());

    let o = &traced.overhead_ms;
    if o.is_empty() {
        return Err("traced stream holds no Optimize request".into());
    }
    out.push("serve.overhead_ms_p50", percentile(o, 50.0), "ms", o.len());
    out.push("serve.overhead_ms_p90", percentile(o, 90.0), "ms", o.len());
    let stalled = o.iter().filter(|&&x| x > 1.0).count();
    out.push(
        "serve.stall_frac",
        stalled as f64 / o.len() as f64,
        "ratio",
        o.len(),
    );
    if highest_reportable(o.len(), &[50.0, 90.0]).is_none_or(|p| p < 90.0) {
        out.notes.push(format!(
            "serve.overhead_ms_p90 rests on {} samples, fewer than ten beyond it",
            o.len()
        ));
    }
    crate::report_layers(&mut out, &setup_rec, &rec, &rounds);
    Ok(out)
}
