//! Fault-tolerant trace-corpus ingestion, built for kill/resume
//! verification: generate a deterministic corpus (a fixed fraction of
//! files mangled by the trace fault injector), ingest it under a
//! supervisor with file-backed checkpoints and injected per-file worker
//! panics, and write a digest of everything the ingestion recovered.
//! Run it to completion once, then run it again while SIGKILLing the
//! process mid-corpus a few times, resume, and diff the two digests —
//! they must be byte-identical. The `trace-chaos` CI job does exactly
//! that.
//!
//! ```text
//! cargo run --release --example ingest_corpus -- \
//!     --dir /tmp/ingest-corpus --checkpoint /tmp/ingest.ckpt \
//!     --out /tmp/ingest.digest --quarantine /tmp/quarantine.json \
//!     [--files 48] [--events 220] [--step-delay-ms 200] [--bench BENCH_ingest.json]
//! ```
//!
//! The corpus is regenerated from its seed on every invocation (same
//! seed, same bytes), so a killed-and-restarted run reads the exact
//! corpus the dead run left behind. `--quarantine` receives the
//! per-file accounting as JSON (the CI artifact); `--bench` receives
//! echoed throughput/peak-RSS context in the `BENCH_*.json` key format.

use std::collections::BTreeMap;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dlrm_perf_model::core::{CalibrationPolicy, CorpusIngestJob, TraceCalibration};
use dlrm_perf_model::faults::{FaultInjector, FaultPlan, TraceFaultPlan};
use dlrm_perf_model::gpusim::KernelFamily;
use dlrm_perf_model::runtime::{
    FileStore, JobContext, JobError, ResumableJob, StepOutcome, Supervisor, SupervisorConfig,
};
use dlrm_perf_model::trace::ingest::IngestLimits;
use dlrm_perf_model::trace::{EventCat, Trace, TraceEvent};

/// Families the synthetic corpus draws from, with reference durations
/// the calibration fit is computed against.
const FAMILIES: [(KernelFamily, f64); 4] = [
    (KernelFamily::Gemm, 40.0),
    (KernelFamily::Memcpy, 12.0),
    (KernelFamily::Elementwise, 6.0),
    (KernelFamily::Concat, 9.0),
];

/// Scale the synthetic durations carry over the reference — what the
/// calibration fit should recover despite the corpus corruption.
const TRUE_SCALE: f64 = 1.17;

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A deterministic synthetic iteration trace (same construction as the
/// `tests/ingest.rs` acceptance corpus).
fn synthetic_trace(file: u64, part: u64, n_events: usize) -> Trace {
    let mut rng = file
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(part.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1);
    let mut events = Vec::with_capacity(n_events);
    let mut corr = 0u64;
    for i in 0..n_events {
        let ts = i as f64 * 2.0;
        let ev = match i % 3 {
            0 => TraceEvent {
                name: "addmm".into(),
                cat: EventCat::Op,
                ts_us: ts,
                dur_us: 1.5,
                stream: 0,
                op_index: i / 3,
                correlation: 0,
                op_key: "AddMm".into(),
            },
            1 => {
                corr = (file << 32) | (part << 24) | (i as u64 + 1);
                TraceEvent {
                    name: "cudaLaunchKernel".into(),
                    cat: EventCat::Runtime,
                    ts_us: ts,
                    dur_us: 0.8,
                    stream: 0,
                    op_index: i / 3,
                    correlation: corr,
                    op_key: String::new(),
                }
            }
            _ => {
                let draw = xorshift(&mut rng);
                let (family, base_us) = FAMILIES[(draw % 4) as usize];
                let noise = 0.9 + 0.2 * ((draw >> 16) % 1000) as f64 / 1000.0;
                TraceEvent {
                    name: format!("{family}_kernel"),
                    cat: EventCat::Kernel,
                    ts_us: ts,
                    dur_us: base_us * TRUE_SCALE * noise,
                    stream: 7,
                    op_index: i / 3,
                    correlation: corr,
                    op_key: String::new(),
                }
            }
        };
        events.push(ev);
    }
    Trace {
        workload: format!("synth-{file}-{part}"),
        device: "simdev".into(),
        events,
        span_us: n_events as f64 * 2.0 + 10.0,
    }
}

/// Writes the deterministic corpus: every fourth file a two-trace JSON
/// array, the rest single objects, ~40% of files mangled by the trace
/// fault injector. Returns the file paths and how many were mangled.
fn write_corpus(
    dir: &Path,
    n_files: usize,
    events_per_file: usize,
    seed: u64,
) -> std::io::Result<(Vec<PathBuf>, usize)> {
    std::fs::create_dir_all(dir)?;
    let mangler = FaultInjector::new(FaultPlan::healthy(seed).with_trace_faults(TraceFaultPlan {
        truncate_prob: 0.08,
        bitflip_prob: 0.08,
        duplicate_prob: 0.08,
        reorder_prob: 0.08,
        garbage_prob: 0.08,
    }));
    let mut paths = Vec::new();
    let mut mangled = 0usize;
    for file in 0..n_files as u64 {
        let doc = if file.is_multiple_of(4) {
            let half = events_per_file / 2;
            let a = synthetic_trace(file, 0, half);
            let b = synthetic_trace(file, 1, events_per_file - half);
            format!("[{},{}]", a.to_json(), b.to_json())
        } else {
            synthetic_trace(file, 0, events_per_file).to_json()
        };
        let mut bytes = doc.into_bytes();
        if mangler
            .mangle_trace_bytes(0xC0_FFEE, file, &mut bytes)
            .is_some()
        {
            mangled += 1;
        }
        let path = dir.join(format!("iter-{file:03}.trace.json"));
        std::fs::write(&path, &bytes)?;
        paths.push(path);
    }
    Ok((paths, mangled))
}

/// Wraps a job with an artificial per-step delay so an external SIGKILL
/// has a window to land between checkpoints.
struct Throttled<J> {
    inner: J,
    delay: Duration,
}

impl<J: ResumableJob> ResumableJob for Throttled<J> {
    type State = J::State;
    type Output = J::Output;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initial_state(&self) -> Self::State {
        self.inner.initial_state()
    }

    fn step(&self, state: &mut Self::State, ctx: &JobContext) -> Result<StepOutcome, JobError> {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        self.inner.step(state, ctx)
    }

    fn finish(&self, state: Self::State) -> Self::Output {
        self.inner.finish(state)
    }
}

fn flag(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Peak resident set size of this process in KiB (Linux `VmHWM`;
/// 0 where /proc is unavailable).
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

fn main() -> Result<(), Box<dyn Error>> {
    let dir = PathBuf::from(flag("--dir").unwrap_or_else(|| "/tmp/dlperf-ingest-corpus".into()));
    let checkpoint = flag("--checkpoint").unwrap_or_else(|| "/tmp/ingest-corpus.ckpt".into());
    let out = flag("--out").unwrap_or_else(|| "/tmp/ingest-corpus.digest".into());
    let quarantine = flag("--quarantine");
    let bench = flag("--bench");
    let n_files: usize = flag("--files")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(48);
    let events: usize = flag("--events")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(220);
    let seed: u64 = flag("--seed")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(0xDEAD_BEEF);
    let delay = Duration::from_millis(
        flag("--step-delay-ms")
            .map(|v| v.parse())
            .transpose()?
            .unwrap_or(0),
    );

    let (paths, mangled) = write_corpus(&dir, n_files, events, seed)?;
    eprintln!(
        "corpus: {n_files} files ({mangled} mangled) under {}",
        dir.display()
    );

    let job = CorpusIngestJob::new(paths, IngestLimits::default())
        .with_threads(4)
        .with_chunk(4)
        .with_fault_injector(FaultInjector::new(
            FaultPlan::healthy(seed ^ 0xF00D).with_worker_faults(0.10, 0.0, 0.0),
        ));
    let mut sup = Supervisor::with_store(
        SupervisorConfig::default(),
        Box::new(FileStore::new(&checkpoint)),
    );
    let started = Instant::now();
    let (result, report) = sup.run(&Throttled { inner: job, delay });
    let ingest = result?;
    let wall = started.elapsed();
    eprintln!("{}", report.summary());
    eprintln!("{}", ingest.report.summary());

    // Digest: every bit of the recovered corpus. A resumed run must
    // reproduce this file byte for byte.
    let mut digest = format!("corpus {:016x}\n", ingest.digest);
    for (family, durs) in &ingest.samples {
        digest.push_str(&format!("family {family} n={}\n", durs.len()));
        for d in durs {
            digest.push_str(&format!("  {:016x}\n", d.to_bits()));
        }
    }
    let reference: BTreeMap<KernelFamily, f64> = FAMILIES.into_iter().collect();
    let cal = TraceCalibration::fit(&ingest.samples, &reference, &CalibrationPolicy::default());
    for fit in &cal.fits {
        digest.push_str(&format!(
            "fit {} scale={:016x} samples={} rejected={} {:?}\n",
            fit.family,
            fit.scale.to_bits(),
            fit.samples,
            fit.rejected_outliers,
            fit.confidence
        ));
    }
    std::fs::write(&out, &digest)?;
    eprintln!("digest written to {out}");

    if let Some(path) = quarantine {
        std::fs::write(&path, ingest.report.to_json())?;
        eprintln!("quarantine report written to {path}");
    }

    // Echoed context for the bench gate: throughput and memory are
    // recorded so CI logs explain the run, never gated (wall-clock on
    // shared runners is too noisy to floor).
    if let Some(path) = bench {
        let accepted = ingest.report.events_accepted();
        let mut doc: BTreeMap<String, String> = BTreeMap::new();
        doc.insert("ingest_files".into(), ingest.report.files.len().to_string());
        doc.insert("ingest_files_mangled".into(), mangled.to_string());
        doc.insert(
            "ingest_files_quarantined".into(),
            ingest.report.quarantined_files().to_string(),
        );
        doc.insert("ingest_events_accepted".into(), accepted.to_string());
        doc.insert(
            "ingest_events_skipped".into(),
            ingest.skips().total().to_string(),
        );
        doc.insert(
            "ingest_wall_ms".into(),
            format!("{:.3}", wall.as_secs_f64() * 1e3),
        );
        doc.insert(
            "ingest_events_per_sec".into(),
            format!("{:.0}", accepted as f64 / wall.as_secs_f64().max(1e-9)),
        );
        doc.insert(
            "ingest_peak_buffer_bytes".into(),
            ingest.report.peak_buffer_bytes().to_string(),
        );
        doc.insert("ingest_peak_rss_kib".into(), peak_rss_kib().to_string());
        std::fs::write(&path, serde_json::to_string(&doc)?)?;
        eprintln!("bench context written to {path}");
    }
    Ok(())
}
