//! **Sweep engine** — throughput of the parallel what-if sweep, with the
//! memo cache's and the incremental predictor's contributions broken out,
//! emitting `BENCH_sweep.json`.
//!
//! Part 1 (the PR-3 reference triplet, incremental path off so the numbers
//! stay comparable across baselines):
//!
//! * `seq_uncached` — one thread, memo cache off: the naive baseline.
//! * `seq_cached` — one thread, cold memo cache: memoization alone.
//! * `par_cached` — exactly 4 threads, cold memo cache: the engine as
//!   shipped. Pinned (not capped at the host) so `sweep_threads` — the
//!   gate's like-for-like guard key — reads 4 on every host and the
//!   committed baseline stays comparable across runners.
//!
//! The headline `speedup` is `seq_uncached / par_cached`. Every ratio here
//! goes through `dlperf_bench::interleave_ms`: per-round side-by-side
//! timing with medians for ratios and bests for costs, because one-shot
//! timing is how a negative recorder overhead once shipped.
//!
//! Part 1b: the thread-scaling curve — the full matrix at exactly 1/2/4/8
//! workers emitting `speedup_t{N}` for every N and
//! `parallel_efficiency_t{N}` (= speedup/N) only for N the host can run
//! without oversubscribing; the CI gate floors the efficiencies.
//!
//! Part 2 (additions since), all runs bitwise identical by assertion:
//!
//! * `incremental_speedup` — a single-op-mutation scenario matrix priced
//!   sequentially with the incremental predictor off vs on, in steady
//!   state (interleaved warm rounds of the same engines, caches and
//!   prepared graphs warm): dirty-frontier re-prediction against
//!   per-device baselines must beat re-walking every graph by ≥ 2×.
//! * `batched_speedup` — per-kernel scalar MLP inference vs one batched
//!   forward pass per family over the same spec list.
//! * `obs_overhead_pct` — the steady-state sweep with the `dlperf-obs`
//!   recorder enabled (spans buffered, no sink) vs disabled; the CI gate
//!   caps this at a few percent.

use std::collections::BTreeMap;
use std::time::Instant;

use dlperf_bench::{header, interleave_ms};
use dlperf_core::pipeline::Pipeline;
use dlperf_core::search::{GraphMoves, NoExtra, OptimizationSearch, SearchConfig};
use dlperf_core::sweep::{GraphMutation, Scenario, ScenarioMatrix, SweepEngine, SweepOutcome};
use dlperf_distrib::{CommModel, Topology};
use dlperf_gpusim::{CollectiveKind, CollectiveSpec, DeviceSpec, KernelSpec};
use dlperf_graph::OpKind;
use dlperf_kernels::ModelRegistry;
use dlperf_models::DlrmConfig;

fn fingerprint(o: &SweepOutcome) -> Vec<Option<u64>> {
    o.expect_complete()
        .iter()
        .map(|r| r.prediction.as_ref().map(|p| p.e2e_us.to_bits()))
        .collect()
}

/// Worker count of the headline parallel run and of the committed
/// baseline's `sweep_threads` guard key.
const SWEEP_THREADS: usize = 4;
/// The thread-scaling curve's worker counts.
const THREAD_CURVE: [usize; 4] = [1, 2, 4, 8];

fn main() {
    header("Sweep engine: parallel what-if matrix with memoized kernel models");
    let base = DlrmConfig {
        rows_per_table: vec![200_000; 8],
        batched_embedding: false,
        ..DlrmConfig::default_config(512)
    }
    .build();

    let effort = dlperf_bench::effort();
    let pipelines: Vec<Pipeline> = DeviceSpec::paper_devices()
        .iter()
        .map(|d| {
            let registry = ModelRegistry::calibrate(d, effort, 71);
            Pipeline::analyze_with_registry(d, std::slice::from_ref(&base), registry, 10, 71)
        })
        .collect();

    let scenarios = ScenarioMatrix::new()
        .device("V100", 0)
        .device("TITANXp", 1)
        .device("P100", 2)
        .batches(&[128, 256, 512, 1024, 2048, 4096])
        .variant("base", vec![])
        .variant("fused", vec![GraphMutation::FuseEmbeddingBags])
        .variant("hoisted", vec![GraphMutation::HoistAll])
        .build();
    println!("{} scenarios, {} pipelines\n", scenarios.len(), 3);

    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // The reference triplet runs with the incremental path off so
    // `speedup` / `memo_speedup` measure the same machinery as earlier
    // baselines of this file. Worker count is pinned exactly (see the
    // module docs) so `sweep_threads` matches across every host that
    // regenerates the baseline. Each call builds a fresh engine: the
    // cached sides measure memoization from cold, not a warm cache.
    let run = |threads: usize, cache: bool| -> SweepOutcome {
        SweepEngine::new(pipelines.clone())
            .with_threads_exact(threads)
            .with_cache(cache)
            .with_incremental(false)
            .run(&base, &scenarios)
    };

    const TRIPLET_REPS: usize = 7;
    let (mut fp_uncached, mut fp_cached, mut fp_par) = (Vec::new(), Vec::new(), Vec::new());
    let mut par_cache_stats = None;
    let mut side_uncached = || fp_uncached = fingerprint(&run(1, false));
    let mut side_cached = || fp_cached = fingerprint(&run(1, true));
    let mut side_par = || {
        let out = run(SWEEP_THREADS, true);
        fp_par = fingerprint(&out);
        par_cache_stats = out.cache;
    };
    let triplet = interleave_ms(
        TRIPLET_REPS,
        &mut [&mut side_uncached, &mut side_cached, &mut side_par],
    );
    let (seq_uncached_ms, seq_cached_ms, par_cached_ms) = (
        triplet[0].median_ms,
        triplet[1].median_ms,
        triplet[2].median_ms,
    );
    let effective_threads = SWEEP_THREADS;

    assert_eq!(
        fp_uncached, fp_par,
        "parallel+cached sweep must be bitwise identical to sequential uncached"
    );
    assert_eq!(fp_uncached, fp_cached);

    let stats = par_cache_stats.expect("cache enabled");
    let memo_speedup = seq_uncached_ms / seq_cached_ms;
    let speedup = seq_uncached_ms / par_cached_ms;

    println!("median of {TRIPLET_REPS} interleaved rounds:");
    println!("{:>28} {:>10} {:>9}", "run", "wall/ms", "speedup");
    println!(
        "{:>28} {:>10.1} {:>8.2}x",
        "sequential, no cache", seq_uncached_ms, 1.0
    );
    println!(
        "{:>28} {:>10.1} {:>8.2}x",
        "sequential, memo cache", seq_cached_ms, memo_speedup
    );
    println!(
        "{:>28} {:>10.1} {:>8.2}x",
        format!("{effective_threads} threads, memo cache"),
        par_cached_ms,
        speedup
    );
    println!("\ncache: {stats}");
    println!("host threads: {host_threads} (pinned sweep workers: {effective_threads})");

    // ---- Part 1b: thread-scaling curve.
    //
    // The full matrix at exactly 1/2/4/8 workers, cold caches each round,
    // all sides interleaved. `speedup_t{N}` (vs the 1-worker side) is
    // recorded for every N; `parallel_efficiency_t{N}` = speedup/N only
    // for N the host can actually run in parallel — efficiency measured on
    // oversubscribed workers is scheduler behaviour, not a property of the
    // engine, so smaller hosts omit the key and the CI floor gate skips it.
    const CURVE_REPS: usize = 5;
    let mut curve_fps: Vec<Vec<Option<u64>>> = vec![Vec::new(); THREAD_CURVE.len()];
    let run_ref = &run;
    let mut curve_sides: Vec<Box<dyn FnMut() + '_>> = curve_fps
        .iter_mut()
        .zip(THREAD_CURVE)
        .map(|(fp, n)| {
            Box::new(move || *fp = fingerprint(&run_ref(n, true))) as Box<dyn FnMut() + '_>
        })
        .collect();
    let mut side_refs: Vec<&mut dyn FnMut()> = curve_sides
        .iter_mut()
        .map(|b| &mut **b as &mut dyn FnMut())
        .collect();
    let curve = interleave_ms(CURVE_REPS, &mut side_refs);
    drop(side_refs);
    drop(curve_sides);
    for (n, fp) in THREAD_CURVE.iter().zip(&curve_fps) {
        assert_eq!(
            &fp_uncached, fp,
            "thread curve at {n} workers must be bitwise identical to the reference"
        );
    }

    println!("\nthread-scaling curve (median of {CURVE_REPS} interleaved rounds):");
    println!(
        "{:>8} {:>10} {:>9} {:>11}",
        "threads", "wall/ms", "speedup", "efficiency"
    );
    let mut curve_keys: Vec<(String, String)> = Vec::new();
    for (i, &n) in THREAD_CURVE.iter().enumerate() {
        let ms = curve[i].median_ms;
        let sp = curve[0].median_ms / ms;
        curve_keys.push((format!("t{n}_ms"), format!("{ms:.3}")));
        curve_keys.push((format!("speedup_t{n}"), format!("{sp:.3}")));
        if n <= host_threads {
            let eff = sp / n as f64;
            curve_keys.push((format!("parallel_efficiency_t{n}"), format!("{eff:.4}")));
            println!("{n:>8} {ms:>10.1} {sp:>8.2}x {eff:>11.2}");
        } else {
            println!("{n:>8} {ms:>10.1} {sp:>8.2}x {:>11}", "(oversub)");
        }
    }

    // ---- Part 2a: incremental re-prediction on a single-op-mutation matrix.
    //
    // The canonical interactive what-if: many scenarios, each one op away
    // from the shared baseline, priced on every device. With the
    // incremental path on, each device walks the base graph once and every
    // scenario recomputes only its dirty frontier.
    let n = base.node_count();
    let mut single_op: Vec<Scenario> = Vec::new();
    for (d, name) in [(0usize, "V100"), (1, "TITANXp"), (2, "P100")] {
        single_op.push(Scenario::new(format!("{name}/base"), d));
        for i in 0..16 {
            let pos = 1 + i * (n - 2) / 16;
            single_op.push(Scenario::new(format!("{name}/swap{pos}"), d).with(
                GraphMutation::ReplaceOp {
                    node: pos,
                    op: OpKind::Sigmoid,
                },
            ));
        }
        for i in 0..4 {
            let pos = 2 + i * (n - 3) / 4;
            single_op.push(
                Scenario::new(format!("{name}/hoist{pos}"), d).with(GraphMutation::HoistNode(pos)),
            );
        }
    }

    // Each engine pays its one-time costs on a cold run (memo-cache fill,
    // prepared-graph store, baseline checkpoints); the steady state an
    // interactive what-if session lives in is then measured as interleaved
    // warm rounds, medians per side. Every run must be bitwise identical;
    // the headline speedup is the steady-state ratio.
    const STEADY_REPS: usize = 20;
    let engine_single = |incremental: bool| {
        SweepEngine::new(pipelines.clone())
            .with_threads_exact(1)
            .with_cache(true)
            .with_incremental(incremental)
    };
    let (eng_off, eng_on) = (engine_single(false), engine_single(true));
    let cold = |eng: &SweepEngine| {
        let t0 = Instant::now();
        let mut out = eng.run(&base, &single_op);
        out.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        out
    };
    let off_cold = cold(&eng_off);
    let on_cold = cold(&eng_on);
    let (mut incr_off, mut incr_on) = (None, None);
    let mut off_side = || incr_off = Some(eng_off.run(&base, &single_op));
    let mut on_side = || incr_on = Some(eng_on.run(&base, &single_op));
    let steady = interleave_ms(STEADY_REPS, &mut [&mut off_side, &mut on_side]);
    let (incr_off_ms, incr_on_ms) = (steady[0].median_ms, steady[1].median_ms);
    let (incr_off, incr_on) = (incr_off.expect("ran"), incr_on.expect("ran"));
    for (name, out) in [
        ("off/warm", &incr_off),
        ("on/cold", &on_cold),
        ("on/warm", &incr_on),
    ] {
        assert_eq!(
            fingerprint(&off_cold),
            fingerprint(out),
            "incremental re-prediction must be bitwise identical to the full walk ({name})"
        );
    }
    let incremental_speedup = incr_off_ms / incr_on_ms;
    let incr = incr_on.incremental.expect("incremental summary present");

    println!(
        "\nsingle-op matrix: {} scenarios (median of {STEADY_REPS} steady-state rounds)",
        single_op.len()
    );
    println!(
        "{:>28} {:>10.1} {:>8.2}x",
        "full re-walk per scenario", incr_off_ms, 1.0
    );
    println!(
        "{:>28} {:>10.1} {:>8.2}x",
        "incremental re-prediction", incr_on_ms, incremental_speedup
    );
    println!(
        "  cold runs: full {:.1} ms, incremental {:.1} ms ({:.2}x)",
        off_cold.wall_ms,
        on_cold.wall_ms,
        off_cold.wall_ms / on_cold.wall_ms
    );
    println!(
        "  reused {} nodes, recomputed {}, spliced {}/{} scenarios, {} full fallbacks",
        incr.reused_nodes, incr.recomputed_nodes, incr.spliced, incr.scenarios, incr.full_fallbacks
    );
    assert!(
        incremental_speedup >= 2.0,
        "incremental path must be at least 2x over the memoized full walk, got {incremental_speedup:.2}x"
    );

    // ---- Part 2b: batched vs scalar kernel-model inference.
    let registry = pipelines[0].predictor().registry();
    let specs: Vec<KernelSpec> = (0..512u64)
        .map(|i| KernelSpec::Gemm {
            m: 32 + (i % 29) * 31,
            n: 32 + (i % 23) * 37,
            k: 32 + (i % 17) * 41,
            batch: 1 + i % 3,
        })
        .collect();
    // Warm both paths first: the batched side lazily builds each model's
    // inference plan on first use, and that one-time cost must not land in
    // the timed region.
    for k in &specs {
        std::hint::black_box(registry.predict_with_confidence(k).0);
    }
    std::hint::black_box(registry.predict_batch_with_confidence(&specs));
    // Interleaved best-of: each side's fastest round is its actual cost
    // with scheduler noise removed (this is the harness the rest of the
    // file reuses). This ratio is floor-gated at 1.15× in CI, so it uses
    // bests, the most stable statistic for a sub-millisecond microbench.
    const REPS: usize = 20;
    let mut scalar_bits: Vec<u64> = Vec::new();
    let mut batch_bits: Vec<u64> = Vec::new();
    let mut scalar_side = || {
        scalar_bits = specs
            .iter()
            .map(|k| registry.predict_with_confidence(k).0.to_bits())
            .collect();
    };
    let mut batched_side = || {
        batch_bits = registry
            .predict_batch_with_confidence(&specs)
            .into_iter()
            .map(|(t, _)| t.to_bits())
            .collect();
    };
    let sides = interleave_ms(REPS, &mut [&mut scalar_side, &mut batched_side]);
    let (scalar_ms, batched_ms) = (sides[0].best_ms, sides[1].best_ms);
    assert_eq!(
        scalar_bits, batch_bits,
        "batched inference must match scalar bit for bit"
    );
    let batched_speedup = scalar_ms / batched_ms;
    println!(
        "\nbatched MLP inference over {} GEMM specs: scalar {scalar_ms:.2} ms, batched \
         {batched_ms:.2} ms ({batched_speedup:.2}x), bitwise identical",
        specs.len()
    );

    // ---- Part 2c: observability overhead.
    //
    // The recorder's enabled-path budget: the full scenario matrix on a
    // warm sequential cached engine, spans recording (no sink — sinks only
    // pay at flush) vs the recorder disabled. Interleaved rounds like the
    // rest of the file, but the statistic is the *median* per side: this
    // is a near-zero difference between two ~equal costs, and best-of is
    // not robust there — whichever side's minimum got luckier wins, which
    // is how a physically impossible `obs_overhead_pct: -1.069` shipped in
    // an earlier baseline. The flush between rounds stays outside both
    // timed regions (sinks only pay at flush). (The fully spliced
    // single-op matrix would be a denominator of a few µs per scenario — a
    // span-cost microbench, not a sweep; the matrix here does one real
    // memoized walk per scenario, which is what the recorder's budget is
    // relative to in every real sweep.)
    let obs_engine = SweepEngine::new(pipelines.clone())
        .with_threads_exact(1)
        .with_cache(true);
    // Warm: memo cache, prepared-graph store, baselines.
    let warm = obs_engine.run(&base, &scenarios);
    let reference = fingerprint(&warm);
    let mut off_samples = Vec::with_capacity(REPS);
    let mut on_samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        dlperf_obs::disable();
        let t0 = Instant::now();
        let out = obs_engine.run(&base, &scenarios);
        off_samples.push(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(reference, fingerprint(&out));

        dlperf_obs::enable();
        let t0 = Instant::now();
        let out = obs_engine.run(&base, &scenarios);
        on_samples.push(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            reference,
            fingerprint(&out),
            "recorder must not change prediction bits"
        );
        dlperf_obs::disable();
        dlperf_obs::flush(); // drain the span buffer between rounds
    }
    let off_ms = dlperf_bench::median(off_samples);
    let on_ms = dlperf_bench::median(on_samples);
    let obs_overhead_pct = (on_ms / off_ms - 1.0) * 100.0;
    println!(
        "\nrecorder overhead on the steady-state sweep: off {off_ms:.2} ms, on {on_ms:.2} ms \
         ({obs_overhead_pct:+.2}%), bitwise identical"
    );

    // ---- Part 2d: α–β collective-model evaluation throughput.
    //
    // Every topology-axis sweep cell prices three collectives through
    // `CommModel`; this measures how many such closed-form evaluations a
    // second the model sustains across the full catalog. Echoed by the CI
    // gate as context, never gated — the α–β forms are arithmetic, and a
    // wall-clock floor on shared runners would only ever fire on noise.
    let comm_models: Vec<CommModel> = [2usize, 4, 8]
        .iter()
        .flat_map(|&w| Topology::catalog(w).into_iter().map(CommModel::new))
        .collect();
    let comm_specs: Vec<CollectiveSpec> = (0..256u64)
        .map(|i| CollectiveSpec {
            kind: match i % 3 {
                0 => CollectiveKind::AllReduce,
                1 => CollectiveKind::AllToAll,
                _ => CollectiveKind::AllGather,
            },
            bytes_per_rank: 1 << (10 + i % 17),
            world: 0, // patched per model below
        })
        .collect();
    let mut comms_ms = f64::INFINITY;
    let mut comm_evals = 0usize;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let mut acc = 0.0f64;
        let mut n = 0usize;
        for model in &comm_models {
            let world = model.topology().world() as u32;
            for s in &comm_specs {
                acc += model.collective_time(&CollectiveSpec { world, ..*s });
                n += 1;
            }
        }
        std::hint::black_box(acc);
        comm_evals = n;
        comms_ms = comms_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    let comms_evals_per_sec = comm_evals as f64 / (comms_ms / 1e3);
    println!(
        "\ncollective model: {} α–β evaluations over {} catalog topologies in {comms_ms:.2} ms \
         ({:.2}M evals/s)",
        comm_evals,
        comm_models.len(),
        comms_evals_per_sec / 1e6
    );

    // ---- Part 2e: arena-backed walk state in steady state.
    //
    // The scratch pool's proof of reuse, recorded where the gate log can
    // see it: an uncached sequential engine (cache off, so every scenario
    // actually walks through batched inference and the arena) run
    // repeatedly. After the warm-up run, further runs must serve every
    // buffer request from the arena without a single miss — `misses` flat
    // while `takes` climbs is the allocation-free steady state the
    // sweep/incremental hot path promises.
    let arena_engine = SweepEngine::new(pipelines.clone())
        .with_threads_exact(1)
        .with_cache(false);
    arena_engine.run(&base, &scenarios);
    let warm_arena = arena_engine.scratch_stats();
    arena_engine.run(&base, &scenarios);
    arena_engine.run(&base, &scenarios);
    let steady_arena = arena_engine.scratch_stats();
    assert!(
        steady_arena.takes > warm_arena.takes,
        "steady-state runs must go through the arena"
    );
    assert_eq!(
        steady_arena.misses, warm_arena.misses,
        "steady-state sweep iterations must not allocate arena buffers"
    );
    println!(
        "\narena steady state: {} takes, {} misses (flat after warm-up), high water {} f64s, \
         {} pooled buffers",
        steady_arena.takes, steady_arena.misses, steady_arena.high_water_f64s, steady_arena.pooled
    );

    // ---- Part 2f: the unified optimization search.
    //
    // The beam / branch-and-bound search over graph + device moves, with
    // the incremental predictor as its inner loop. Two keys for the gate:
    // `search_evals_per_sec` (context: how many candidates a second the
    // search prices) and `search_incremental_frac` (floored at 0.5 in CI:
    // the incremental path must carry the search, not fall back to full
    // walks). The parallel run must match the 1-thread reference bit for
    // bit — the same determinism contract the sweep triplet pins above.
    let search_fingerprint = |r: &dlperf_core::OptimizationReport| -> Vec<(String, u64)> {
        r.ranked
            .iter()
            .map(|sc| (sc.description.clone(), sc.e2e_us.to_bits()))
            .collect()
    };
    let run_search = |threads: usize| {
        OptimizationSearch::<NoExtra>::new(&pipelines)
            .with_config(SearchConfig {
                threads,
                ..SearchConfig::default()
            })
            .with_graph_moves(GraphMoves {
                batches: vec![256, 1024, 2048],
                ..GraphMoves::default()
            })
            .run(&base)
            .expect("search runs")
    };
    let reference_report = run_search(1);
    let mut search_report = None;
    let mut search_ms = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        let r = run_search(SWEEP_THREADS);
        search_ms = search_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        search_report = Some(r);
    }
    let search_report = search_report.expect("ran");
    assert_eq!(
        search_fingerprint(&reference_report),
        search_fingerprint(&search_report),
        "parallel search must be bitwise identical to the 1-thread reference"
    );
    let search_evals_per_sec = search_report.evals as f64 / (search_ms / 1e3);
    let search_incremental_frac = search_report.incremental_frac();
    println!(
        "\noptimization search: {} evals, {} prunes in {search_ms:.1} ms \
         ({search_evals_per_sec:.0} evals/s), incremental fraction {search_incremental_frac:.3}, \
         best: {}",
        search_report.evals,
        search_report.prunes,
        search_report
            .ranked
            .first()
            .map(|sc| sc.description.as_str())
            .unwrap_or("none")
    );

    let mut doc: BTreeMap<String, String> = BTreeMap::new();
    doc.insert("scenarios".into(), scenarios.len().to_string());
    doc.insert("sweep_threads".into(), effective_threads.to_string());
    doc.insert("effective_threads".into(), effective_threads.to_string());
    doc.insert("host_threads".into(), host_threads.to_string());
    doc.insert("seq_uncached_ms".into(), format!("{seq_uncached_ms:.3}"));
    doc.insert("seq_cached_ms".into(), format!("{seq_cached_ms:.3}"));
    doc.insert("par_cached_ms".into(), format!("{par_cached_ms:.3}"));
    for (k, v) in curve_keys {
        doc.insert(k, v);
    }
    doc.insert("arena_takes".into(), steady_arena.takes.to_string());
    doc.insert("arena_misses".into(), steady_arena.misses.to_string());
    doc.insert(
        "arena_high_water_f64s".into(),
        steady_arena.high_water_f64s.to_string(),
    );
    doc.insert(
        "arena_pooled_buffers".into(),
        steady_arena.pooled.to_string(),
    );
    doc.insert("memo_speedup".into(), format!("{memo_speedup:.3}"));
    doc.insert("speedup".into(), format!("{speedup:.3}"));
    doc.insert("cache_hits".into(), stats.hits.to_string());
    doc.insert("cache_misses".into(), stats.misses.to_string());
    doc.insert("cache_hit_rate".into(), format!("{:.4}", stats.hit_rate()));
    doc.insert("bitwise_identical".into(), "true".into());
    doc.insert("single_op_scenarios".into(), single_op.len().to_string());
    doc.insert(
        "incr_off_cold_ms".into(),
        format!("{:.3}", off_cold.wall_ms),
    );
    doc.insert("incr_on_cold_ms".into(), format!("{:.3}", on_cold.wall_ms));
    doc.insert("incr_off_ms".into(), format!("{incr_off_ms:.3}"));
    doc.insert("incr_on_ms".into(), format!("{incr_on_ms:.3}"));
    doc.insert(
        "incremental_speedup".into(),
        format!("{incremental_speedup:.3}"),
    );
    doc.insert("incremental_spliced".into(), incr.spliced.to_string());
    doc.insert(
        "incremental_reused_nodes".into(),
        incr.reused_nodes.to_string(),
    );
    doc.insert(
        "incremental_recomputed_nodes".into(),
        incr.recomputed_nodes.to_string(),
    );
    doc.insert("batched_speedup".into(), format!("{batched_speedup:.3}"));
    doc.insert("obs_off_ms".into(), format!("{off_ms:.3}"));
    doc.insert("obs_on_ms".into(), format!("{on_ms:.3}"));
    doc.insert("obs_overhead_pct".into(), format!("{obs_overhead_pct:.3}"));
    doc.insert("comms_evals".into(), comm_evals.to_string());
    doc.insert("comms_eval_ms".into(), format!("{comms_ms:.3}"));
    doc.insert(
        "comms_evals_per_sec".into(),
        format!("{comms_evals_per_sec:.0}"),
    );
    doc.insert("search_evals".into(), search_report.evals.to_string());
    doc.insert("search_ms".into(), format!("{search_ms:.3}"));
    doc.insert(
        "search_evals_per_sec".into(),
        format!("{search_evals_per_sec:.0}"),
    );
    doc.insert(
        "search_incremental_frac".into(),
        format!("{search_incremental_frac:.4}"),
    );

    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sweep.json");
    std::fs::write(&path, serde_json::to_string(&doc).expect("serializes"))
        .expect("write BENCH_sweep.json");
    println!("\nwrote {}", path.canonicalize().unwrap_or(path).display());
}
