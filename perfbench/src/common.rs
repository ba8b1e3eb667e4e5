//! Pieces every workload shares: the span recorder of traced runs, metric
//! and outcome types, host facts, the seeded generator, and calibrated
//! pipeline set-up.

use std::collections::BTreeMap;
use std::time::Instant;

use dlperf_core::pipeline::Pipeline;
use dlperf_gpusim::{DeviceSpec, KernelFamily};
use dlperf_graph::Graph;
use dlperf_kernels::{CalibrationEffort, ModelRegistry};

/// Seed of the kernel-model calibration and overhead analysis. Fixed, so
/// every run prices with the same models; `--seed` varies only the
/// workload inputs.
pub const CALIBRATION_SEED: u64 = 7;
/// Profiled iterations per workload in the overhead analysis.
pub const ANALYSIS_ITERS: usize = 3;

/// SplitMix64: the benchmark's only source of input randomness, so a seed
/// fixes every generated request, scenario and trace byte.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream; `stream` separates the streams
    /// drawn from one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A uniform draw from `xs`.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 for a layer the workload never runs).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

/// What one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Free-form facts printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric::new(name, value, unit, samples));
    }
}

/// Time spent in one layer of a traced run.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    /// Seconds per unit of work, one entry per call.
    pub per_unit_s: Vec<f64>,
    /// Total seconds across calls.
    pub total_s: f64,
    /// Units of work across calls (nodes, kernels, evaluations, ...).
    pub units: f64,
}

impl Layer {
    /// Median seconds per unit across calls.
    pub fn median_per_unit_s(&self) -> f64 {
        crate::stats::median(&self.per_unit_s)
    }
}

/// The traced run's span recorder. Spans are recorded only from this
/// benchmark's own code, around calls into each layer's public functions,
/// and are kept in memory until the run reports. Every span is a leaf
/// (no recorded span encloses another), so the layers' total time can be
/// compared directly with the traced wall time.
#[derive(Debug, Default)]
pub struct Recorder {
    on: bool,
    layers: BTreeMap<&'static str, Layer>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            layers: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f` inside a span of `units` units of work.
    pub fn span_n<R>(&mut self, name: &'static str, units: f64, f: impl FnOnce() -> R) -> R {
        self.timed_n(name, units, f).0
    }

    /// [`Recorder::span_n`] of one unit.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.timed_n(name, 1.0, f).0
    }

    /// Runs `f` inside a span and also returns the span's duration in
    /// seconds (`None` when the recorder is off: an untraced call is not
    /// timed at all).
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Option<f64>) {
        self.timed_n(name, 1.0, f)
    }

    fn timed_n<R>(
        &mut self,
        name: &'static str,
        units: f64,
        f: impl FnOnce() -> R,
    ) -> (R, Option<f64>) {
        if !self.on {
            return (f(), None);
        }
        let t0 = Instant::now();
        let r = f();
        let secs = t0.elapsed().as_secs_f64();
        self.add(name, secs, units);
        (r, Some(secs))
    }

    /// Records a span timed elsewhere (e.g. inside a store callback).
    pub fn add(&mut self, name: &'static str, secs: f64, units: f64) {
        if !self.on {
            return;
        }
        let layer = self.layers.entry(name).or_default();
        layer.per_unit_s.push(secs / units.max(1e-12));
        layer.total_s += secs;
        layer.units += units;
    }

    pub fn layer(&self, name: &str) -> Option<&Layer> {
        self.layers.get(name)
    }

    /// Total seconds inside recorded spans.
    pub fn covered_s(&self) -> f64 {
        self.layers.values().map(|l| l.total_s).sum()
    }

    /// One line per layer: calls, total and median per unit.
    pub fn table(&self) -> Vec<String> {
        self.layers
            .iter()
            .map(|(name, l)| {
                let spread = if l.per_unit_s.len() >= 2 {
                    format!("{:.3}", crate::stats::iqr_over_median(&l.per_unit_s))
                } else {
                    "n/a".into()
                };
                format!(
                    "layer {name:<28} calls {:>6} total_s {:>10.6} median_per_unit_s {:.3e} iqr/median {spread}",
                    l.per_unit_s.len(),
                    l.total_s,
                    l.median_per_unit_s()
                )
            })
            .collect()
    }
}

/// Span name of one kernel family's model evaluations.
pub fn family_span(f: KernelFamily) -> &'static str {
    match f {
        KernelFamily::Gemm => "kernels.gemm",
        KernelFamily::EmbeddingForward => "kernels.el_f",
        KernelFamily::EmbeddingBackward => "kernels.el_b",
        KernelFamily::Concat => "kernels.concat",
        KernelFamily::Memcpy => "kernels.memcpy",
        KernelFamily::Transpose => "kernels.transpose",
        KernelFamily::TrilForward => "kernels.tril_f",
        KernelFamily::TrilBackward => "kernels.tril_b",
        KernelFamily::Elementwise => "kernels.elementwise",
        KernelFamily::Conv2d => "kernels.conv2d",
    }
}

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident set size in MiB (Linux `VmHWM`).
///
/// # Errors
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Calibrates one pipeline per device (kernel models, then the overhead
/// analysis over `workloads`), one device per thread on up to `threads`
/// threads. Records `pipeline.calibrate` and `pipeline.overheads` spans
/// per device.
pub fn calibrated_pipelines(
    devices: &[DeviceSpec],
    workloads: &[Graph],
    threads: usize,
    rec: &mut Recorder,
) -> Vec<Pipeline> {
    let build = |d: &DeviceSpec| {
        let t0 = Instant::now();
        let registry = ModelRegistry::calibrate(d, CalibrationEffort::Quick, CALIBRATION_SEED);
        let calibrate_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let p = Pipeline::analyze_with_registry(
            d,
            workloads,
            registry,
            ANALYSIS_ITERS,
            CALIBRATION_SEED,
        );
        (p, calibrate_s, t1.elapsed().as_secs_f64())
    };
    let mut built = Vec::with_capacity(devices.len());
    for group in devices.chunks(threads.max(1)) {
        std::thread::scope(|s| {
            let handles: Vec<_> = group.iter().map(|d| s.spawn(|| build(d))).collect();
            for h in handles {
                built.push(h.join().expect("pipeline calibration thread panicked"));
            }
        });
    }
    built
        .into_iter()
        .map(|(p, calibrate_s, overheads_s)| {
            rec.add("pipeline.calibrate", calibrate_s, 1.0);
            rec.add("pipeline.overheads", overheads_s, 1.0);
            p
        })
        .collect()
}

/// Simulated iterations behind each ground-truth time.
const TRUTH_ITERS: usize = 10;

/// Geometric-mean relative error, in percent, of predicted per-iteration
/// times against the simulated execution of the same graphs on the same
/// devices. Each item is `(device, graph, predicted µs)`; simulator seeds
/// are fixed by position, so the result is deterministic.
///
/// # Errors
/// When the simulator rejects a graph.
pub fn simulated_gmae_pct(items: &[(DeviceSpec, Graph, f64)]) -> Result<f64, String> {
    if items.is_empty() {
        return Err("accuracy check needs at least one prediction".into());
    }
    let mut log_sum = 0.0;
    for (i, (device, graph, predicted)) in items.iter().enumerate() {
        let mut engine = dlperf_trace::ExecutionEngine::new(device.clone(), 0x7E57 + i as u64);
        engine.set_profiling(false);
        let runs = engine
            .run_iterations(graph, TRUTH_ITERS)
            .map_err(|e| format!("simulating {}: {e}", graph.name))?;
        let truth = runs.iter().map(|r| r.e2e_us).sum::<f64>() / runs.len() as f64;
        log_sum += ((predicted - truth).abs() / truth).max(1e-9).ln();
    }
    Ok((log_sum / items.len() as f64).exp() * 100.0)
}

/// Builds catalog models, recording one `models.build` span each.
pub fn build_models(names: &[&str], batch: u64, rec: &mut Recorder) -> Vec<Graph> {
    names
        .iter()
        .map(|name| {
            rec.span("models.build", || {
                dlperf_models::zoo::build(name, batch).expect("catalog model names are valid")
            })
        })
        .collect()
}
