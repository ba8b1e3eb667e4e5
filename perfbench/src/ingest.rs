//! `ingest`: supervised ingestion of a seeded synthetic trace corpus with
//! file checkpoints, a fixed share of files mangled by the trace fault
//! injector, and the calibration fit over what survives. Each pass ingests
//! one of a hundred seeded jobs, each a selection of corpus files. It runs the
//! trace, runtime and `core::ingest` layers, which no other workload
//! touches, and prices nothing: a change to the walk or to kernel
//! evaluation must leave it unchanged.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dlperf_core::{
    collect_family_samples, CalibrationPolicy, CorpusIngest, CorpusIngestJob, TraceCalibration,
};
use dlperf_faults::{FaultInjector, FaultPlan, TraceFaultPlan};
use dlperf_gpusim::KernelFamily;
use dlperf_runtime::{
    CheckpointStore, FileStore, MemoryStore, SnapshotError, Supervisor, SupervisorConfig,
};
use dlperf_trace::ingest::{ingest_file, ingest_str, IngestLimits, QuarantineReport};
use dlperf_trace::{EventCat, Trace, TraceEvent};

use crate::common::{Outcome, Recorder, Rng};
use crate::stats::median;
use crate::{Config, Rounds};

/// Corpus shape: files, events per file, and how many files are mangled.
const FILES: usize = 64;
const EVENTS_PER_FILE: usize = 450;
const MANGLED: usize = 16;
/// Distinct jobs per run, each a seeded selection of [`JOB_FILES`] corpus
/// files, and files per supervisor step (one checkpoint each).
const JOBS: usize = 100;
const JOB_FILES: usize = 8;
const CHUNK: usize = 2;
/// Kernel families in the corpus, with the reference durations (µs) the
/// calibration fit compares observations against.
const FAMILIES: [(KernelFamily, f64); 5] = [
    (KernelFamily::Gemm, 40.0),
    (KernelFamily::EmbeddingForward, 25.0),
    (KernelFamily::Memcpy, 12.0),
    (KernelFamily::Concat, 9.0),
    (KernelFamily::Elementwise, 6.0),
];
/// How much slower than the reference the corpus runs: the scale the fit
/// should recover.
const TRUE_SCALE: f64 = 1.17;
/// Corpus of the accuracy check: a fixed seed, not the run's.
const GMAE_SEED: u64 = 0x1A6E;
/// Where corpora and checkpoints live, relative to the working directory.
const SCRATCH_DIR: &str = ".perfbench_tmp";

/// One synthetic iteration trace: (op, launch, kernel) triples with
/// seeded kernel families and ±10% duration noise around the scaled
/// reference.
fn synthetic_trace(rng: &mut Rng, file: usize, part: usize, n_events: usize) -> Trace {
    let mut events = Vec::with_capacity(n_events);
    let mut corr = 0u64;
    for i in 0..n_events {
        let ts_us = i as f64 * 2.0;
        let op_index = i / 3;
        let ev = match i % 3 {
            0 => TraceEvent {
                name: "addmm".into(),
                cat: EventCat::Op,
                ts_us,
                dur_us: 1.5,
                stream: 0,
                op_index,
                correlation: 0,
                op_key: "AddMm".into(),
            },
            1 => {
                corr = ((file as u64) << 32) | ((part as u64) << 24) | (i as u64 + 1);
                TraceEvent {
                    name: "cudaLaunchKernel".into(),
                    cat: EventCat::Runtime,
                    ts_us,
                    dur_us: 0.8,
                    stream: 0,
                    op_index,
                    correlation: corr,
                    op_key: String::new(),
                }
            }
            _ => {
                let (family, reference_us) = *rng.pick(&FAMILIES);
                let noise = 0.9 + 0.2 * rng.unit();
                TraceEvent {
                    name: format!("{family}_kernel"),
                    cat: EventCat::Kernel,
                    ts_us,
                    dur_us: reference_us * TRUE_SCALE * noise,
                    stream: 7,
                    op_index,
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

/// The seeded corpus as `(file name, bytes)`: every fourth file a
/// two-trace array, the rest single traces, and exactly [`MANGLED`]
/// seeded files corrupted by the trace fault injector.
pub fn corpus(seed: u64) -> Vec<(String, Vec<u8>)> {
    let mut rng = Rng::new(seed, 0x7ACE);
    let mut order: Vec<usize> = (0..FILES).collect();
    rng.shuffle(&mut order);
    let mangled = &order[..MANGLED];
    // Fault kinds share the whole probability mass, so every selected
    // file is mangled one way or another.
    let mangler = FaultInjector::new(FaultPlan::healthy(seed).with_trace_faults(TraceFaultPlan {
        truncate_prob: 0.2,
        bitflip_prob: 0.2,
        duplicate_prob: 0.2,
        reorder_prob: 0.2,
        garbage_prob: 0.2,
    }));
    (0..FILES)
        .map(|file| {
            let doc = if file % 4 == 0 {
                let half = EVENTS_PER_FILE / 2;
                let a = synthetic_trace(&mut rng, file, 0, half);
                let b = synthetic_trace(&mut rng, file, 1, EVENTS_PER_FILE - half);
                format!("[{},{}]", a.to_json(), b.to_json())
            } else {
                synthetic_trace(&mut rng, file, 0, EVENTS_PER_FILE).to_json()
            };
            let mut bytes = doc.into_bytes();
            if mangled.contains(&file) {
                mangler.mangle_trace_bytes(seed, file as u64, &mut bytes);
            }
            (format!("iter-{file:03}.trace.json"), bytes)
        })
        .collect()
}

/// The seeded jobs: for each, the indices of its corpus files.
pub fn jobs(seed: u64) -> Vec<Vec<usize>> {
    let mut rng = Rng::new(seed, 0x10B5);
    (0..JOBS)
        .map(|_| {
            let mut files: Vec<usize> = (0..FILES).collect();
            rng.shuffle(&mut files);
            files.truncate(JOB_FILES);
            files
        })
        .collect()
}

fn reference_medians() -> BTreeMap<KernelFamily, f64> {
    FAMILIES.into_iter().collect()
}

/// A corpus on disk, removed again when dropped.
struct Setup {
    dir: PathBuf,
    paths: Vec<PathBuf>,
    /// Per job, its files and the 1-thread reference pass every timed
    /// pass of the job must reproduce.
    jobs: Vec<Job>,
}

struct Job {
    paths: Vec<PathBuf>,
    digest: u64,
    report: QuarantineReport,
}

impl Drop for Setup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Fails while another run still has its corpus there.
        let _ = std::fs::remove_dir(SCRATCH_DIR);
    }
}

impl Setup {
    fn checkpoint(&self) -> PathBuf {
        self.dir.join("ingest.ckpt")
    }
}

impl Job {
    fn job(&self, workers: usize) -> CorpusIngestJob {
        CorpusIngestJob::new(self.paths.clone(), IngestLimits::default())
            .with_threads(workers)
            .with_chunk(CHUNK)
    }
}

fn setup(cfg: &Config) -> Result<Setup, String> {
    // The process id keeps concurrent runs apart; the fixed width keeps
    // checkpoint sizes independent of it.
    let dir = Path::new(SCRATCH_DIR).join(format!("ingest-{:010}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut s = Setup {
        dir,
        paths: Vec::new(),
        jobs: Vec::new(),
    };
    for (name, bytes) in corpus(cfg.seed) {
        let path = s.dir.join(name);
        std::fs::write(&path, bytes)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        s.paths.push(path);
    }
    for files in jobs(cfg.seed) {
        let mut job = Job {
            paths: files.iter().map(|&f| s.paths[f].clone()).collect(),
            digest: 0,
            report: QuarantineReport::default(),
        };
        let mut sup =
            Supervisor::with_store(SupervisorConfig::default(), Box::new(MemoryStore::new()));
        let reference = supervise(&mut sup, &job.job(1))?;
        job.digest = reference.digest;
        job.report = reference.report;
        s.jobs.push(job);
    }
    Ok(s)
}

fn supervise(sup: &mut Supervisor, job: &CorpusIngestJob) -> Result<CorpusIngest, String> {
    let (result, report) = sup.run(job);
    result.map_err(|e| format!("supervised ingest failed: {e:?} ({})", report.summary()))
}

/// One timed pass over a job: supervised ingestion with file checkpoints,
/// then the calibration fit. Returns the ingest and whether it reproduced
/// the job's reference pass.
fn pass(
    job: &Job,
    workers: usize,
    store: Box<dyn CheckpointStore>,
) -> Result<(CorpusIngest, bool), String> {
    let mut sup = Supervisor::with_store(SupervisorConfig::default(), store);
    let ingest = supervise(&mut sup, &job.job(workers))?;
    let fit = TraceCalibration::fit(
        &ingest.samples,
        &reference_medians(),
        &CalibrationPolicy::default(),
    );
    std::hint::black_box(fit);
    let same = ingest.digest == job.digest && ingest.report == job.report;
    Ok((ingest, same))
}

/// Accuracy of the calibration: the geometric-mean relative error of the
/// fitted per-family scales against the scale the corpus was generated
/// with, on the fixed accuracy corpus. Deterministic.
fn gmae_pct() -> Result<(f64, usize), String> {
    let mut samples: BTreeMap<KernelFamily, Vec<f64>> = BTreeMap::new();
    for (name, bytes) in corpus(GMAE_SEED) {
        let doc = String::from_utf8_lossy(&bytes);
        for trace in &ingest_str(&doc, &name, &IngestLimits::default()).traces {
            collect_family_samples(trace, &mut samples);
        }
    }
    let fit = TraceCalibration::fit(
        &samples,
        &reference_medians(),
        &CalibrationPolicy::default(),
    );
    let scales = fit.scale_factors();
    if scales.is_empty() {
        return Err("calibration fit is degraded for every family".into());
    }
    let log_sum: f64 = scales
        .iter()
        .map(|(_, scale)| ((scale - TRUE_SCALE).abs() / TRUE_SCALE).max(1e-9).ln())
        .sum();
    Ok(((log_sum / scales.len() as f64).exp() * 100.0, scales.len()))
}

/// Untraced run: end-to-end metrics. An operation is one accepted event;
/// the latency is that of one job's pass.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut setups_s = Vec::new();
    let mut state = None;
    for k in 0..cfg.setups {
        let t0 = cfg.setup_start(k);
        // Remove the previous corpus before writing the next.
        drop(state.take());
        state = Some(setup(cfg)?);
        setups_s.push(t0.elapsed().as_secs_f64());
    }
    let s = state.expect("at least one set-up");

    // Each job runs several times, spread across the run; its latency is
    // the mean of its passes, for the reason `sweep` gives.
    let deadline = Instant::now() + Duration::from_secs(cfg.seconds);
    let mut per_job = vec![(0.0f64, 0usize); JOBS];
    let mut accepted = 0u64;
    let mut out = Outcome::default();
    while (out.attempted as usize) < JOBS || Instant::now() < deadline {
        let i = out.attempted as usize % JOBS;
        let t0 = Instant::now();
        let (ingest, same) = pass(
            &s.jobs[i],
            cfg.workers,
            Box::new(FileStore::new(s.checkpoint())),
        )?;
        per_job[i].0 += t0.elapsed().as_secs_f64();
        per_job[i].1 += 1;
        accepted += ingest.report.events_accepted();
        out.attempted += 1;
        if !same {
            out.failed += 1;
            out.notes.push(format!(
                "failed: pass {} differs from the 1-thread reference",
                out.attempted
            ));
        }
    }
    let timed_s: f64 = per_job.iter().map(|(secs, _)| secs).sum();
    let latency_ms: Vec<f64> = per_job
        .iter()
        .map(|&(secs, n)| secs * 1e3 / n as f64)
        .collect();
    let (gmae, gmae_n) = gmae_pct()?;
    let quarantined: usize = s.jobs.iter().map(|j| j.report.quarantined_files()).sum();
    out.notes.push(format!(
        "passes {}, jobs {JOBS} of {JOB_FILES} files ({quarantined} quarantined files across jobs), events accepted {accepted}",
        out.attempted
    ));
    out.push("setup_s", median(&setups_s), "s", setups_s.len());
    out.push(
        "ops_per_s",
        accepted as f64 / timed_s,
        "1/s",
        out.attempted as usize,
    );
    crate::push_latency(&mut out, &latency_ms)?;
    out.push("gmae_pct", gmae, "%", gmae_n);
    Ok(out)
}

/// A [`FileStore`] that also logs each save's duration and size, so the
/// traced run can attribute checkpoint time inside a supervised run.
struct LoggedStore {
    inner: FileStore,
    saves: Arc<Mutex<Vec<(f64, usize)>>>,
}

impl CheckpointStore for LoggedStore {
    fn save(&mut self, sealed: &str) -> Result<(), SnapshotError> {
        let t0 = Instant::now();
        self.inner.save(sealed)?;
        let secs = t0.elapsed().as_secs_f64();
        self.saves
            .lock()
            .expect("save log poisoned")
            .push((secs, sealed.len()));
        Ok(())
    }

    fn load(&self) -> Result<Option<String>, SnapshotError> {
        self.inner.load()
    }

    fn clear(&mut self) -> Result<(), SnapshotError> {
        self.inner.clear()
    }
}

/// Counts one traced pass produced.
struct PassCounts {
    same: bool,
    checkpoint_bytes: usize,
    skipped: u64,
    quarantined: usize,
}

/// One pass through the layers: the supervised run (its checkpoint saves
/// split out), each of the job's files scanned again on its own, and the
/// fit.
fn replay_pass(
    s: &Setup,
    job: &Job,
    workers: usize,
    rec: &mut Recorder,
) -> Result<PassCounts, String> {
    let saves = Arc::new(Mutex::new(Vec::new()));
    let store = LoggedStore {
        inner: FileStore::new(s.checkpoint()),
        saves: saves.clone(),
    };
    let t0 = Instant::now();
    let (ingest, same) = pass(job, workers, Box::new(store))?;
    let total = t0.elapsed().as_secs_f64();
    let saves = saves.lock().expect("save log poisoned").clone();
    let saved_s: f64 = saves.iter().map(|(secs, _)| secs).sum();
    rec.add("runtime.supervise", total - saved_s, 1.0);
    for (secs, _) in &saves {
        rec.add("runtime.checkpoint", *secs, 1.0);
    }

    let (mut skipped, mut quarantined) = (0, 0);
    let limits = IngestLimits::default();
    for path in &job.paths {
        // Timed by hand: the span's unit of work, accepted events, is
        // known only once the scan returns.
        let t0 = Instant::now();
        let file = ingest_file(path, &limits);
        rec.add(
            "trace.ingest",
            t0.elapsed().as_secs_f64(),
            file.report.events_accepted as f64,
        );
        skipped += file.report.skips.total();
        quarantined += usize::from(file.report.is_quarantined());
    }
    let fit = rec.span("ingest.fit", || {
        TraceCalibration::fit(
            &ingest.samples,
            &reference_medians(),
            &CalibrationPolicy::default(),
        )
    });
    std::hint::black_box(fit);
    Ok(PassCounts {
        same,
        checkpoint_bytes: saves.iter().map(|(_, b)| b).sum(),
        skipped,
        quarantined,
    })
}

/// Traced run: per-layer metrics.
pub fn run_traced(cfg: &Config) -> Result<Outcome, String> {
    let s = setup(cfg)?;
    let mut rec = Recorder::new(false);
    let mut out = Outcome::default();
    let mut rounds = Rounds::default();
    let deadline = Instant::now() + Duration::from_secs(cfg.seconds);
    let (mut skipped, mut quarantined, mut checkpoint_bytes) = (0, 0, 0);
    while rounds.count() == 0 || Instant::now() < deadline {
        let round = rounds.count();
        for (i, job) in s.jobs.iter().enumerate() {
            for on in Rounds::order(i + round) {
                rec.set_on(on);
                let t0 = Instant::now();
                let c = replay_pass(&s, job, cfg.workers, &mut rec)?;
                rounds.add(on, t0.elapsed().as_secs_f64());
                if !on {
                    continue;
                }
                out.attempted += 1;
                if !c.same {
                    out.failed += 1;
                    out.notes.push(format!(
                        "failed: traced pass of job {i} differs from the 1-thread reference"
                    ));
                }
                if round == 0 {
                    skipped += c.skipped;
                    quarantined += c.quarantined;
                    checkpoint_bytes += c.checkpoint_bytes;
                }
            }
        }
        rounds.close();
    }
    let files = JOBS * JOB_FILES;
    out.push("trace.skipped_events", skipped as f64, "count", files);
    out.push(
        "trace.quarantined_files",
        quarantined as f64,
        "count",
        files,
    );
    out.push(
        "runtime.checkpoint_bytes",
        checkpoint_bytes as f64,
        "bytes",
        JOBS,
    );
    if let Some(l) = rec.layer("trace.ingest") {
        out.push(
            "trace.ingest_events_per_s",
            l.units / l.total_s,
            "1/s",
            l.per_unit_s.len(),
        );
    }
    crate::report_layers(&mut out, &Recorder::new(false), &rec, &rounds);
    Ok(out)
}
