//! Fleet-scale trace-ingestion integration tests: the acceptance
//! criteria of the fault-tolerant corpus pipeline.
//!
//! Contracts exercised end to end:
//! 1. **Fidelity** — a clean trace file ingested through the streaming
//!    scanner is bitwise identical to the strict `Trace::from_json` /
//!    `ChromeTraceSink::parse_json` load path.
//! 2. **Robustness** — corpora mangled by the trace fault injector
//!    (truncation, bit rot, duplication, reordering, garbage) always
//!    produce a quarantine entry or intact surviving events; the
//!    scanner never panics and its dynamic buffers never exceed the
//!    configured hard cap, no matter how large the file.
//! 3. **Resumability** — a corpus ingestion SIGKILLed mid-run and
//!    resumed from its snapshot file by a fresh supervisor produces a
//!    bitwise-identical digest, report, and sample set.
//! 4. **Robust calibration** — scale factors fitted from a partly
//!    corrupt corpus match the offline fit over the clean subset within
//!    a pinned tolerance, and thin-sample families come out
//!    `Confidence::Degraded`, never silently applied.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

use dlperf_core::{
    collect_family_samples, CalibrationPolicy, CorpusIngest, CorpusIngestJob, TraceCalibration,
};
use dlperf_faults::{FaultInjector, FaultPlan, TraceFaultPlan};
use dlperf_gpusim::KernelFamily;
use dlperf_kernels::Confidence;
use dlperf_runtime::{
    FileStore, JobContext, JobError, ResumableJob, StepOutcome, Supervisor, SupervisorConfig,
    SupervisorError,
};
use dlperf_trace::ingest::{ingest_str, FileReject, FileStatus, IngestLimits};
use dlperf_trace::{ChromeTraceSink, EventCat, Trace, TraceEvent, TraceLoadError};
use proptest::prelude::*;

/// Kernel families the synthetic corpus draws from, with their
/// reference (uncalibrated) durations in microseconds.
const FAMILIES: [(KernelFamily, f64); 4] = [
    (KernelFamily::Gemm, 40.0),
    (KernelFamily::Memcpy, 12.0),
    (KernelFamily::Elementwise, 6.0),
    (KernelFamily::Concat, 9.0),
];

/// Ground-truth scale the synthetic "observed" durations carry over the
/// reference ones — what calibration should recover.
const TRUE_SCALE: f64 = 1.17;

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A deterministic synthetic iteration trace: Op / Runtime / Kernel
/// events in non-decreasing timestamp order, runtime launches paired
/// with their kernels by correlation id, kernel durations drawn per
/// family at `TRUE_SCALE` times the reference with ±10% noise.
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

/// Serialized file contents for corpus slot `file`: every fourth file
/// is a two-trace JSON array (the `ChromeTraceSink::to_json` shape),
/// the rest single trace objects. `extra` events are appended to the
/// last trace. Returns the bytes and the number of events written.
fn corpus_file(file: u64, events_per_file: usize, extra: &[TraceEvent]) -> (String, usize) {
    let written = events_per_file + extra.len();
    if file.is_multiple_of(4) {
        let half = events_per_file / 2;
        let a = synthetic_trace(file, 0, half);
        let mut b = synthetic_trace(file, 1, events_per_file - half);
        b.events.extend_from_slice(extra);
        (format!("[{},{}]", a.to_json(), b.to_json()), written)
    } else {
        let mut t = synthetic_trace(file, 0, events_per_file);
        t.events.extend_from_slice(extra);
        (t.to_json(), written)
    }
}

/// Writes an `n_files`-file corpus under `dir`, mangling files through
/// `injector` when given (file 0 is never mangled so the thin-family
/// samples it carries always survive). Returns the file paths, the
/// per-file written event counts, and the indices that were mangled.
fn write_corpus(
    dir: &Path,
    n_files: usize,
    events_per_file: usize,
    injector: Option<&FaultInjector>,
    corpus_key: u64,
) -> (Vec<PathBuf>, Vec<usize>, Vec<usize>) {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).unwrap();
    let mut paths = Vec::new();
    let mut written = Vec::new();
    let mut mangled = Vec::new();
    // The thin-family carrier: three conv2d kernels corpus-wide (in
    // the never-mangled file 0), far below `CalibrationPolicy::min_samples`.
    let thin: Vec<TraceEvent> = (0..3)
        .map(|k| TraceEvent {
            name: "conv2d_kernel".into(),
            cat: EventCat::Kernel,
            ts_us: 900.0 + k as f64,
            dur_us: 33.0,
            stream: 7,
            op_index: 0,
            correlation: 0,
            op_key: String::new(),
        })
        .collect();
    for file in 0..n_files {
        let extra: &[TraceEvent] = if file == 0 { &thin } else { &[] };
        let (doc, events) = corpus_file(file as u64, events_per_file, extra);
        let mut bytes = doc.into_bytes();
        if file > 0 {
            if let Some(inj) = injector {
                if inj
                    .mangle_trace_bytes(corpus_key, file as u64, &mut bytes)
                    .is_some()
                {
                    mangled.push(file);
                }
            }
        }
        let path = dir.join(format!("iter-{file:03}.trace.json"));
        std::fs::write(&path, &bytes).unwrap();
        paths.push(path);
        written.push(events);
    }
    (paths, written, mangled)
}

/// The mixed-fault mangling plan: every fault kind live, expected
/// mangle rate 40% of files.
fn mixed_fault_plan() -> TraceFaultPlan {
    TraceFaultPlan {
        truncate_prob: 0.08,
        bitflip_prob: 0.08,
        duplicate_prob: 0.08,
        reorder_prob: 0.08,
        garbage_prob: 0.08,
    }
}

fn temp_corpus_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dlperf-ingest-itest-{name}"))
}

/// Wraps a job so that its `kill_step`-th step is killed `kills` times
/// before being allowed through (same harness as the runtime tests).
struct KillAt<J> {
    inner: J,
    kill_step: u64,
    kills: AtomicU32,
}

impl<J> KillAt<J> {
    fn new(inner: J, kill_step: u64, kills: u32) -> Self {
        KillAt {
            inner,
            kill_step,
            kills: AtomicU32::new(kills),
        }
    }
}

impl<J: ResumableJob> ResumableJob for KillAt<J> {
    type State = J::State;
    type Output = J::Output;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initial_state(&self) -> Self::State {
        self.inner.initial_state()
    }

    fn step(&self, state: &mut Self::State, ctx: &JobContext) -> Result<StepOutcome, JobError> {
        if ctx.step == self.kill_step
            && self
                .kills
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |k| k.checked_sub(1))
                .is_ok()
        {
            return Err(JobError::Killed);
        }
        self.inner.step(state, ctx)
    }

    fn finish(&self, state: Self::State) -> Self::Output {
        self.inner.finish(state)
    }
}

/// Everything in a corpus result that must be bitwise-stable across a
/// kill-and-resume: the digest, the per-file reports, and every sample
/// bit.
fn fingerprint(ingest: &CorpusIngest) -> (u64, String, Vec<(String, Vec<u64>)>) {
    let samples = ingest
        .samples
        .iter()
        .map(|(f, durs)| (f.to_string(), durs.iter().map(|d| d.to_bits()).collect()))
        .collect();
    (ingest.digest, ingest.report.to_json(), samples)
}

// ---------------------------------------------------------------------
// 1. Fidelity: streaming scanner == strict load, bit for bit.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn clean_single_trace_ingest_matches_strict_load(file in 0u64..1_000_000, n in 1usize..60) {
        let trace = synthetic_trace(file, 0, n);
        let doc = trace.to_json();
        let strict = Trace::from_json(&doc).expect("synthetic traces are strictly valid");

        let limits = IngestLimits::default();
        let ingest = ingest_str(&doc, "t", &limits);
        prop_assert_eq!(&ingest.report.status, &FileStatus::Clean);
        prop_assert_eq!(ingest.traces.len(), 1);
        prop_assert_eq!(ingest.report.events_accepted, n as u64);
        prop_assert_eq!(ingest.report.skips.total(), 0);
        prop_assert!(ingest.report.peak_buffer_bytes <= limits.scan_buffer_cap() as u64);
        // Bitwise identity, not approximate: the streamed trace
        // re-serializes to the exact strict-load bytes.
        prop_assert_eq!(ingest.traces[0].to_json(), strict.to_json());
    }

    #[test]
    fn clean_trace_array_ingest_matches_parse_json(file in 0u64..1_000_000, n in 2usize..60) {
        let a = synthetic_trace(file, 0, n / 2);
        let b = synthetic_trace(file, 1, n - n / 2);
        let doc = format!("[{},{}]", a.to_json(), b.to_json());
        let parsed = ChromeTraceSink::parse_json(&doc).expect("synthetic array parses");

        let ingest = ingest_str(&doc, "t", &IngestLimits::default());
        prop_assert_eq!(&ingest.report.status, &FileStatus::Clean);
        prop_assert_eq!(ingest.traces.len(), parsed.len());
        for (scanned, strict) in ingest.traces.iter().zip(&parsed) {
            prop_assert_eq!(scanned.to_json(), strict.to_json());
        }
    }
}

// ---------------------------------------------------------------------
// 2. Robustness: mangled input never panics, never over-buffers, and
//    either quarantines or keeps only intact events.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Structural faults (no bit rot): any event the scanner accepts
    /// must be byte-identical to one the writer produced — corruption
    /// may only remove or quarantine, never invent or alter.
    #[test]
    fn structurally_mangled_files_quarantine_or_keep_intact_events(
        seed in 0u64..1_000_000,
        file in 1u64..64,
        n in 6usize..40,
    ) {
        let plan = TraceFaultPlan {
            truncate_prob: 0.24,
            bitflip_prob: 0.0,
            duplicate_prob: 0.24,
            reorder_prob: 0.24,
            garbage_prob: 0.24,
        };
        let injector = FaultInjector::new(FaultPlan::healthy(seed).with_trace_faults(plan));
        let original = synthetic_trace(file, 0, n);
        let mut bytes = original.to_json().into_bytes();
        injector.mangle_trace_bytes(0xC0_FFEE, file, &mut bytes);

        let limits = IngestLimits::default();
        let ingest = ingest_str(&String::from_utf8_lossy(&bytes), "t", &limits);
        prop_assert!(ingest.report.peak_buffer_bytes <= limits.scan_buffer_cap() as u64);
        match &ingest.report.status {
            FileStatus::Quarantined(_) => {
                prop_assert_eq!(ingest.traces.len(), 0);
                prop_assert_eq!(ingest.report.events_accepted, 0);
            }
            FileStatus::Clean | FileStatus::Degraded => {
                let accepted: u64 =
                    ingest.traces.iter().map(|t| t.events.len() as u64).sum();
                prop_assert_eq!(accepted, ingest.report.events_accepted);
                for t in &ingest.traces {
                    for ev in &t.events {
                        prop_assert!(
                            original.events.contains(ev),
                            "scanner accepted an event the writer never produced: {:?}",
                            ev
                        );
                    }
                }
            }
        }
    }

    /// Full mixed plan, bit rot included: the only unconditional
    /// guarantees are no panic, bounded buffers, and consistent
    /// accounting between traces and report.
    #[test]
    fn bit_rotted_files_never_panic_and_stay_bounded(
        seed in 0u64..1_000_000,
        file in 1u64..64,
        n in 6usize..40,
    ) {
        let plan = TraceFaultPlan {
            truncate_prob: 0.0,
            bitflip_prob: 1.0,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            garbage_prob: 0.0,
        };
        let injector = FaultInjector::new(FaultPlan::healthy(seed).with_trace_faults(plan));
        let original = synthetic_trace(file, 0, n);
        let mut bytes = original.to_json().into_bytes();
        injector.mangle_trace_bytes(0xC0_FFEE, file, &mut bytes);

        let limits = IngestLimits::default();
        let ingest = ingest_str(&String::from_utf8_lossy(&bytes), "t", &limits);
        prop_assert!(ingest.report.peak_buffer_bytes <= limits.scan_buffer_cap() as u64);
        let accepted: u64 = ingest.traces.iter().map(|t| t.events.len() as u64).sum();
        prop_assert_eq!(accepted, ingest.report.events_accepted);
        if ingest.report.is_quarantined() {
            prop_assert_eq!(accepted, 0);
        }
        for t in &ingest.traces {
            t.validate().expect("accepted events always carry valid timing");
        }
    }
}

/// The duplicate-correlation contract across the two load paths: the
/// strict loader rejects with a typed error naming both occurrences,
/// the ingest scanner resolves last-wins and counts the drop.
#[test]
fn duplicate_correlations_reject_strictly_and_resolve_leniently() {
    let mut trace = synthetic_trace(3, 0, 9);
    // Re-issue event 1's (Runtime) correlation id on a later Runtime
    // event with a distinguishable name.
    let dup_id = trace.events[1].correlation;
    trace.events[7].cat = EventCat::Runtime;
    trace.events[7].correlation = dup_id;
    trace.events[7].name = "cudaLaunchKernel-replayed".into();
    let doc = trace.to_json();

    match Trace::from_json(&doc) {
        Err(TraceLoadError::DuplicateCorrelation {
            cat,
            correlation,
            first,
            second,
        }) => {
            assert_eq!(cat, EventCat::Runtime);
            assert_eq!(correlation, dup_id);
            assert_eq!((first, second), (1, 7));
        }
        other => panic!("strict load must reject the duplicate, got {other:?}"),
    }

    let ingest = ingest_str(&doc, "t", &IngestLimits::default());
    assert_eq!(ingest.report.status, FileStatus::Degraded);
    assert_eq!(ingest.report.skips.duplicate_correlation, 1);
    assert_eq!(ingest.report.events_accepted, 8);
    let survivors = &ingest.traces[0].events;
    assert!(
        survivors
            .iter()
            .any(|e| e.name == "cudaLaunchKernel-replayed"),
        "last occurrence wins"
    );
    assert_eq!(
        survivors.iter().filter(|e| e.correlation == dup_id).count(),
        2,
        "the replayed launch and its kernel (cross-category) both survive"
    );
}

// ---------------------------------------------------------------------
// 3. The acceptance corpus: 10k events, ≥20% of files faulted, injected
//    per-file panics, bounded memory, full accounting, SIGKILL-resume.
// ---------------------------------------------------------------------

const CORPUS_FILES: usize = 40;
const EVENTS_PER_FILE: usize = 250;

/// Builds the acceptance corpus on disk and the job that ingests it
/// (worker panics injected at ~12% of files).
fn acceptance_setup(dir_name: &str) -> (CorpusIngestJob, Vec<usize>, Vec<usize>) {
    let dir = temp_corpus_dir(dir_name);
    let mangler =
        FaultInjector::new(FaultPlan::healthy(0xDEAD_BEEF).with_trace_faults(mixed_fault_plan()));
    let (paths, written, mangled) = write_corpus(
        &dir,
        CORPUS_FILES,
        EVENTS_PER_FILE,
        Some(&mangler),
        0xC0_FFEE,
    );
    assert!(
        mangled.len() * 5 >= CORPUS_FILES,
        "acceptance corpus needs ≥20% faulted files, got {}/{CORPUS_FILES}",
        mangled.len()
    );
    let job = CorpusIngestJob::new(paths, IngestLimits::default())
        .with_threads(4)
        .with_chunk(6)
        .with_fault_injector(FaultInjector::new(
            FaultPlan::healthy(0xFEED_F00D).with_worker_faults(0.12, 0.0, 0.0),
        ));
    (job, written, mangled)
}

fn run_uninterrupted(job: &CorpusIngestJob) -> CorpusIngest {
    let mut sup = Supervisor::new(SupervisorConfig::default());
    let (res, _) = sup.run(job);
    res.expect("corpus ingestion completes")
}

#[test]
fn acceptance_corpus_ingests_with_bounded_memory_and_full_accounting() {
    let (job, written, mangled) = acceptance_setup("acceptance");
    let ingest = run_uninterrupted(&job);
    let report = &ingest.report;

    // Every file accounted for, exactly once, in corpus order.
    assert_eq!(report.files.len(), CORPUS_FILES);
    assert_eq!(
        report.clean_files() + report.degraded_files() + report.quarantined_files(),
        CORPUS_FILES
    );

    // Bounded memory, the hard cap: no file's scan buffers ever grew
    // past the configured ceiling — and the high-water mark is a tiny
    // fraction of the ~40 KiB files, so nothing was buffered whole.
    let cap = IngestLimits::default().scan_buffer_cap() as u64;
    assert!(report.peak_buffer_bytes() <= cap);
    assert!(
        report.peak_buffer_bytes() < 4096,
        "streaming scan must not buffer whole files: peak {} B",
        report.peak_buffer_bytes()
    );

    // The worker-fault plan must actually have panicked somewhere, and
    // every panic must be accounted as a quarantined file, not a lost
    // corpus.
    let panicked: Vec<usize> = report
        .files
        .iter()
        .enumerate()
        .filter(|(_, f)| matches!(&f.status, FileStatus::Quarantined(FileReject::Panic(_))))
        .map(|(i, _)| i)
        .collect();
    assert!(
        !panicked.is_empty(),
        "panic injection at 12% must hit at least one of 40 files"
    );

    // Full accounting: files that were neither mangled nor panicked
    // ingest clean with every written event accepted; mangled files are
    // quarantined or carry a skip/accept balance that never exceeds
    // what was written (+1 for the duplication fault).
    for (i, file) in report.files.iter().enumerate() {
        let budget = written[i] as u64 + 1;
        assert!(
            file.events_accepted + file.skips.total() <= budget,
            "file {i} accounts {} events against {} written",
            file.events_accepted + file.skips.total(),
            budget
        );
        if panicked.contains(&i) {
            continue;
        }
        if !mangled.contains(&i) {
            assert_eq!(
                file.status,
                FileStatus::Clean,
                "unmangled file {i} must be clean"
            );
            assert_eq!(file.events_accepted, written[i] as u64);
            assert_eq!(file.skips.total(), 0);
        } else if file.is_quarantined() {
            assert_eq!(file.events_accepted, 0);
        }
    }

    // The corpus carried 10k+ events; most must survive the chaos.
    let total_written: u64 = written.iter().map(|&w| w as u64).sum();
    assert!(total_written >= 10_000);
    assert!(
        report.events_accepted() > total_written / 2,
        "chaos at this intensity must not destroy the corpus: {} of {total_written}",
        report.events_accepted()
    );
}

#[test]
fn sigkill_mid_corpus_resumes_bitwise_identically() {
    let (job, _, _) = acceptance_setup("resume");
    let expected = fingerprint(&run_uninterrupted(&job));

    let dir = temp_corpus_dir("resume-ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("corpus.ckpt.json");
    std::fs::remove_file(&ckpt).ok();

    // Run A dies for good (restart budget zero) mid-corpus, leaving a
    // snapshot file — the in-process stand-in for a SIGKILL.
    let cfg = SupervisorConfig {
        max_restarts: 0,
        ..SupervisorConfig::default()
    };
    let mut sup_a = Supervisor::with_store(cfg, Box::new(FileStore::new(&ckpt)));
    let (job_a, _, _) = acceptance_setup("resume");
    let (res_a, report_a) = sup_a.run(&KillAt::new(job_a, 3, 1));
    match res_a {
        Err(SupervisorError::RestartBudgetExhausted { .. }) => {}
        other => panic!("expected RestartBudgetExhausted, got {other:?}"),
    }
    assert_eq!(report_a.steps_completed, 3);
    assert!(ckpt.exists(), "snapshot must survive the dead run");

    // A fresh supervisor — a new process, in effect — picks the
    // snapshot up and finishes the corpus.
    let (job_b, _, _) = acceptance_setup("resume");
    let mut sup_b =
        Supervisor::with_store(SupervisorConfig::default(), Box::new(FileStore::new(&ckpt)));
    let (res_b, report_b) = sup_b.run(&job_b);
    let resumed = fingerprint(&res_b.expect("resumed ingestion completes"));
    assert_eq!(report_b.resumed_from_step, Some(3));
    assert_eq!(
        resumed, expected,
        "kill-and-resume must not move a single bit"
    );
    assert!(!ckpt.exists(), "snapshot is cleared after success");
}

// ---------------------------------------------------------------------
// 4. Robust calibration over a partly corrupt corpus.
// ---------------------------------------------------------------------

#[test]
fn corpus_calibration_matches_offline_clean_fit_and_degrades_thin_families() {
    let (job, _, mangled) = acceptance_setup("calibration");
    let ingest = run_uninterrupted(&job);

    // Offline fit: strictly parse the files that were never mangled —
    // the clean subset an operator could audit by hand.
    let mut offline = BTreeMap::new();
    for (i, path) in job.files().iter().enumerate() {
        if mangled.contains(&i) {
            continue;
        }
        let doc = std::fs::read_to_string(path).unwrap();
        let traces = if doc.trim_start().starts_with('[') {
            ChromeTraceSink::parse_json(&doc).unwrap()
        } else {
            vec![Trace::from_json(&doc).unwrap()]
        };
        for t in &traces {
            collect_family_samples(t, &mut offline);
        }
    }

    let reference: BTreeMap<KernelFamily, f64> = FAMILIES.into_iter().collect();
    let policy = CalibrationPolicy::default();
    let corpus_cal = TraceCalibration::fit(&ingest.samples, &reference, &policy);
    let offline_cal = TraceCalibration::fit(&offline, &reference, &policy);

    for (family, _) in FAMILIES {
        let corpus_fit = corpus_cal.fits.iter().find(|f| f.family == family).unwrap();
        let offline_fit = offline_cal
            .fits
            .iter()
            .find(|f| f.family == family)
            .unwrap();
        assert_eq!(corpus_fit.confidence, Confidence::Calibrated, "{family}");
        assert_eq!(offline_fit.confidence, Confidence::Calibrated, "{family}");
        // Pinned tolerance: the robust corpus fit may not drift more
        // than 5% from the offline clean fit, and both must recover the
        // ground-truth scale within 10%.
        let drift = (corpus_fit.scale - offline_fit.scale).abs() / offline_fit.scale;
        assert!(
            drift <= 0.05,
            "{family}: corpus fit {} drifted {drift:.3} from offline fit {}",
            corpus_fit.scale,
            offline_fit.scale
        );
        assert!(
            (corpus_fit.scale - TRUE_SCALE).abs() / TRUE_SCALE <= 0.10,
            "{family}: fitted {} vs true {TRUE_SCALE}",
            corpus_fit.scale
        );
    }

    // The three-sample conv2d family must come out degraded and stay
    // out of the applied factors.
    let mut reference_with_thin = reference.clone();
    reference_with_thin.insert(KernelFamily::Conv2d, 30.0);
    let with_thin = TraceCalibration::fit(&ingest.samples, &reference_with_thin, &policy);
    let thin = with_thin
        .fits
        .iter()
        .find(|f| f.family == KernelFamily::Conv2d)
        .unwrap();
    assert_eq!(thin.confidence, Confidence::Degraded);
    assert_eq!(thin.scale, 1.0);
    assert!(with_thin
        .scale_factors()
        .iter()
        .all(|(family, _)| *family != KernelFamily::Conv2d));
}

/// The acceptance corpus's digest, captured before the JSON writer and
/// the run-at-a-time scanner replaced the value-tree renderer and the
/// byte-at-a-time scanner. Every file digest hashes its recovered traces'
/// JSON, so this pins the scanner's output and the writer's bytes at once.
const ACCEPTANCE_DIGEST: &str = "2b572ada0c23e859";

/// The acceptance corpus's quarantine report, corpus directory written
/// as `<corpus>`, captured before the pull JSON reader replaced the
/// value-tree decoder. It carries every skip count and every rejection
/// reason.
const ACCEPTANCE_REPORT: &str = "tests/golden/json/acceptance_quarantine_report.json";

#[test]
fn acceptance_corpus_digest_is_pinned() {
    let (job, _, _) = acceptance_setup("digest-pin");
    let ingest = run_uninterrupted(&job);
    assert_eq!(format!("{:016x}", ingest.digest), ACCEPTANCE_DIGEST);
    let dir = temp_corpus_dir("digest-pin").display().to_string();
    let report = ingest.report.to_json().replace(&dir, "<corpus>");
    let frozen =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(ACCEPTANCE_REPORT))
            .expect("frozen acceptance report");
    assert_eq!(report, frozen);
}
