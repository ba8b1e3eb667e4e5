//! The repository's benchmark: three long workloads over the dlperf
//! library, each a single seeded process using at most `nproc` threads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-plan|sweep|ingest> --seed <n> --seconds <n> --trace <0|1> \
//!     [--workers <n>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing and the
//! `dlperf-obs` recorder off. `--trace 1` is a separate run that replays
//! the workload layer by layer, spans recorded only by this benchmark
//! around calls into each layer's public functions, and reports the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. See
//! `perfbench/README.md` for what each workload loads and why.

mod common;
mod ingest;
mod serve_plan;
mod stats;
mod sweep;

use std::process::ExitCode;
use std::time::Instant;

use common::{Outcome, Recorder};

/// End-to-end metrics, reported by every workload, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("gmae_pct", "%"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of a traced run, with their units. A workload that
/// never enters a layer reports it as 0 from 0 samples.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("pipeline.calibrate_s", "s"),
    ("pipeline.overheads_s", "s"),
    ("models.build_ms", "ms"),
    ("graph.prepare_us", "us"),
    ("graph.lower_us_per_node", "us"),
    ("kernels.gemm.eval_ns", "ns"),
    ("kernels.el_f.eval_ns", "ns"),
    ("kernels.el_b.eval_ns", "ns"),
    ("kernels.concat.eval_ns", "ns"),
    ("kernels.memcpy.eval_ns", "ns"),
    ("kernels.transpose.eval_ns", "ns"),
    ("kernels.tril_f.eval_ns", "ns"),
    ("kernels.tril_b.eval_ns", "ns"),
    ("kernels.elementwise.eval_ns", "ns"),
    ("kernels.conv2d.eval_ns", "ns"),
    ("kernels.memo_hit_ratio", "ratio"),
    ("kernels.memo_misses", "count"),
    ("predictor.walk_ns_per_node", "ns"),
    ("incremental.repredict_us", "us"),
    ("incremental.reused_nodes", "count"),
    ("incremental.recomputed_nodes", "count"),
    ("incremental.spliced_frac", "ratio"),
    ("sweep.fanout_efficiency", "ratio"),
    ("sweep.prepared_hit_ratio", "ratio"),
    ("search.ms", "ms"),
    ("search.evals", "count"),
    ("search.prunes", "count"),
    ("search.incremental_frac", "ratio"),
    ("distrib.collective_ns", "ns"),
    ("serve.parse_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.ping_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.overhead_ms_p90", "ms"),
    ("serve.stall_frac", "ratio"),
    ("trace.ingest_events_per_s", "1/s"),
    ("trace.skipped_events", "count"),
    ("trace.quarantined_files", "count"),
    ("runtime.checkpoint_ms", "ms"),
    ("runtime.checkpoint_bytes", "bytes"),
    ("ingest.fit_ms", "ms"),
    ("layers.residual_frac", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Layer metrics read straight off a recorded span: (metric, span, scale
/// from seconds per unit, whether the span is recorded during set-up).
const SPAN_METRICS: [(&str, &str, f64, bool); 23] = [
    ("pipeline.calibrate_s", "pipeline.calibrate", 1.0, true),
    ("pipeline.overheads_s", "pipeline.overheads", 1.0, true),
    ("models.build_ms", "models.build", 1e3, true),
    ("graph.prepare_us", "graph.prepare", 1e6, false),
    ("graph.lower_us_per_node", "graph.lower", 1e6, false),
    ("kernels.gemm.eval_ns", "kernels.gemm", 1e9, false),
    ("kernels.el_f.eval_ns", "kernels.el_f", 1e9, false),
    ("kernels.el_b.eval_ns", "kernels.el_b", 1e9, false),
    ("kernels.concat.eval_ns", "kernels.concat", 1e9, false),
    ("kernels.memcpy.eval_ns", "kernels.memcpy", 1e9, false),
    ("kernels.transpose.eval_ns", "kernels.transpose", 1e9, false),
    ("kernels.tril_f.eval_ns", "kernels.tril_f", 1e9, false),
    ("kernels.tril_b.eval_ns", "kernels.tril_b", 1e9, false),
    (
        "kernels.elementwise.eval_ns",
        "kernels.elementwise",
        1e9,
        false,
    ),
    ("kernels.conv2d.eval_ns", "kernels.conv2d", 1e9, false),
    ("predictor.walk_ns_per_node", "predictor.walk", 1e9, false),
    (
        "incremental.repredict_us",
        "incremental.repredict",
        1e6,
        false,
    ),
    ("search.ms", "search", 1e3, false),
    ("distrib.collective_ns", "distrib.collective", 1e9, false),
    ("serve.parse_us", "serve.parse", 1e6, false),
    ("serve.encode_us", "serve.encode", 1e6, false),
    ("runtime.checkpoint_ms", "runtime.checkpoint", 1e3, false),
    ("ingest.fit_ms", "ingest.fit", 1e3, false),
];

/// Fewest operations a timed phase ends with, so the 90th percentile
/// always has ten samples beyond it.
pub const MIN_OPS: usize = 100;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServePlan,
    Sweep,
    Ingest,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ServePlan, Workload::Sweep, Workload::Ingest];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePlan => "serve-plan",
            Workload::Sweep => "sweep",
            Workload::Ingest => "ingest",
        }
    }
}

/// One invocation's settings.
#[derive(Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Server, sweep and ingest workers alike; never more than `nproc`.
    pub workers: usize,
    pub setups: usize,
    started: Instant,
}

impl Config {
    /// When set-up `k` started: the first counts from process start.
    pub fn setup_start(&self, k: usize) -> Instant {
        if k == 0 {
            self.started
        } else {
            Instant::now()
        }
    }
}

fn parse_args(args: &[String], started: Instant, nproc: usize) -> Result<Config, String> {
    let mut flags = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--workers" => flag.as_str(),
            other => return Err(format!("unknown argument `{other}`")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        flags.insert(key, value.clone());
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} must be a whole number"))
    };
    let name = get("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name.as_str())
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let workers = match flags.get("--workers") {
        None => nproc,
        Some(_) => usize::try_from(num("--workers")?).map_err(|_| "--workers too large")?,
    };
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Config {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
        workers,
        setups: SETUPS,
        started,
    })
}

/// Untraced and traced passes over the same work, interleaved: the
/// ratio of their times is the tracing overhead.
#[derive(Debug, Default)]
pub struct Rounds {
    off_s: f64,
    on_s: f64,
    round_off: f64,
    round_on: f64,
    ratios: Vec<f64>,
}

impl Rounds {
    /// Which side runs first for item `k`: alternating, so neither side
    /// always meets the caches the other warmed.
    pub fn order(k: usize) -> [bool; 2] {
        if k % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        }
    }

    pub fn add(&mut self, traced: bool, secs: f64) {
        if traced {
            self.round_on += secs;
        } else {
            self.round_off += secs;
        }
    }

    /// Ends a round.
    pub fn close(&mut self) {
        self.ratios.push(self.round_on / self.round_off);
        self.on_s += self.round_on;
        self.off_s += self.round_off;
        self.round_on = 0.0;
        self.round_off = 0.0;
    }

    pub fn count(&self) -> usize {
        self.ratios.len()
    }
}

/// Adds `latency_p50_ms` and `latency_p90_ms`, refusing a p90 with fewer
/// than ten samples beyond it.
pub fn push_latency(out: &mut Outcome, samples_ms: &[f64]) -> Result<(), String> {
    let n = samples_ms.len();
    let tail = stats::highest_reportable(n, &[50.0, 90.0, 99.0, 99.9]);
    if tail.is_none_or(|p| p < 90.0) {
        return Err(format!(
            "{n} operations leave fewer than ten samples beyond p90"
        ));
    }
    let [q1, q2, q3] = stats::quartiles(samples_ms);
    out.notes
        .push(format!("latency quartiles ms {q1:.6} {q2:.6} {q3:.6}"));
    out.push(
        "latency_p50_ms",
        stats::percentile(samples_ms, 50.0),
        "ms",
        n,
    );
    out.push(
        "latency_p90_ms",
        stats::percentile(samples_ms, 90.0),
        "ms",
        n,
    );
    if let Some(p) = tail.filter(|&p| p > 90.0) {
        out.notes.push(format!(
            "highest reportable latency percentile p{p}: {:.4} ms",
            stats::percentile(samples_ms, p)
        ));
    }
    Ok(())
}

/// Adds the span-derived layer metrics, the share of traced wall time no
/// span covers, and the tracing overhead.
pub fn report_layers(out: &mut Outcome, setup: &Recorder, rec: &Recorder, rounds: &Rounds) {
    for (metric, span, scale, in_setup) in SPAN_METRICS {
        let source = if in_setup { setup } else { rec };
        if let Some(l) = source.layer(span) {
            let unit = unit_of(&PER_LAYER, metric).expect("span metrics are declared");
            out.push(
                metric,
                l.median_per_unit_s() * scale,
                unit,
                l.per_unit_s.len(),
            );
        }
    }
    let covered = rec.covered_s();
    out.push(
        "layers.residual_frac",
        1.0 - covered / rounds.on_s,
        "ratio",
        rounds.count(),
    );
    let overhead = (stats::median(&rounds.ratios) - 1.0) * 100.0;
    out.push("trace.overhead_pct", overhead, "%", rounds.count());
    out.notes.push(format!(
        "traced wall {:.6} s, layer spans {covered:.6} s, residual {:.6} s; untraced wall {:.6} s over {} rounds",
        rounds.on_s,
        rounds.on_s - covered,
        rounds.off_s,
        rounds.count()
    ));
    out.notes.extend(setup.table());
    out.notes.extend(rec.table());
}

fn unit_of(list: &[(&str, &'static str)], name: &str) -> Option<&'static str> {
    list.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// The result line: every declared metric, in declared order.
fn result_line(
    out: &Outcome,
    declared: &[(&str, &'static str)],
    fill_absent: bool,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let (value, got_unit) = match out.metrics.iter().find(|m| m.name == name) {
            Some(m) => (m.value, m.unit),
            None if fill_absent => (0.0, unit),
            None => return Err(format!("metric {name} was not measured")),
        };
        if got_unit != unit {
            return Err(format!(
                "metric {name} measured in {got_unit}, declared in {unit}"
            ));
        }
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let nproc = common::nproc();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args, started, nproc) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The honesty rule: no number from an oversubscribed host.
    if cfg.workers > nproc {
        eprintln!(
            "perfbench: refusing {} workers on a host with {nproc} cores",
            cfg.workers
        );
        return ExitCode::from(2);
    }
    dlperf_obs::disable();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"workers\": {{\"server\": {w}, \"sweep\": {w}, \"ingest\": {w}}}, \"client\": \"1 closed-loop\", \
         \"profile\": \"{profile}\"}}}}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        w = cfg.workers,
    );

    let outcome = match (cfg.workload, cfg.trace) {
        (Workload::ServePlan, false) => serve_plan::run(&cfg),
        (Workload::ServePlan, true) => serve_plan::run_traced(&cfg),
        (Workload::Sweep, false) => sweep::run(&cfg),
        (Workload::Sweep, true) => sweep::run_traced(&cfg),
        (Workload::Ingest, false) => ingest::run(&cfg),
        (Workload::Ingest, true) => ingest::run_traced(&cfg),
    };
    let mut out = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let line = if cfg.trace {
        result_line(&out, &PER_LAYER, true)
    } else {
        match common::peak_rss_mib() {
            Ok(mib) => {
                out.push("peak_rss_mib", mib, "MiB", 1);
                result_line(&out, &END_TO_END, false)
            }
            Err(e) => Err(e),
        }
    };
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.metrics {
        println!(
            "# metric {:<30} {:>16.6} {:<6} samples {}",
            m.name, m.value, m.unit, m.samples
        );
    }
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_workers_default_to_nproc() {
        let cfg = parse_args(
            &args("--workload sweep --seed 3 --seconds 10 --trace 1"),
            Instant::now(),
            4,
        )
        .expect("valid arguments");
        assert_eq!(
            (cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.workers),
            (Workload::Sweep, 3, 10, true, 4)
        );
        for bad in [
            "--workload sweep --seed 3 --seconds 10",
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload sweep --seed x --seconds 10 --trace 0",
            "--workload sweep --seed 3 --seconds 10 --trace 2",
            "--workload sweep --seed 3 --seconds 0 --trace 0",
            "--workload sweep --seed 3 --seconds 10 --trace 0 --workers 0",
            "--workload sweep --seed 3 --seconds 10 --trace 0 --bogus 1",
        ] {
            assert!(
                parse_args(&args(bad), Instant::now(), 4).is_err(),
                "accepted `{bad}`"
            );
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let stream = |seed| serve_plan::request_stream(seed, 200).join("\n");
        assert_eq!(stream(11), stream(11));
        assert_ne!(stream(11), stream(12));

        let base = sweep::base_graph();
        let matrix = |seed| {
            (0..3)
                .map(|i| {
                    serde_json::to_string(&sweep::scenario_matrix(seed, i, &base))
                        .expect("serializes")
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(matrix(11), matrix(11));
        assert_ne!(matrix(11), matrix(12));
        assert_ne!(matrix(11)[0], matrix(11)[1], "matrices of one run differ");

        assert_eq!(ingest::corpus(11), ingest::corpus(11));
        assert_ne!(ingest::corpus(11), ingest::corpus(12));
        assert_eq!(ingest::jobs(11), ingest::jobs(11));
        assert_ne!(ingest::jobs(11), ingest::jobs(12));
    }

    #[test]
    fn result_line_holds_every_declared_metric_or_refuses() {
        let mut out = Outcome {
            attempted: 5,
            failed: 0,
            ..Outcome::default()
        };
        for (name, unit) in END_TO_END {
            out.push(name, 1.25, unit, 1);
        }
        let line = result_line(&out, &END_TO_END, false).expect("complete");
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"gmae_pct\": {\"value\": 1.25, \"unit\": \"%\"}"));
        out.metrics.pop();
        assert!(result_line(&out, &END_TO_END, false).is_err());
        assert!(result_line(&out, &PER_LAYER, true)
            .expect("filled")
            .contains("\"trace.overhead_pct\""));
    }

    #[test]
    fn benchmark_json_declares_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            doc[key]
                .as_array()
                .unwrap_or_else(|| panic!("{key} is not a list"))
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().expect("name").to_string(),
                        m["unit"].as_str().unwrap_or("").to_string(),
                    )
                })
                .collect()
        };
        let declared = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), declared(&END_TO_END));
        assert_eq!(list("per_layer"), declared(&PER_LAYER));
        let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    }
}
