//! Corpus-scale trace ingestion and robust trace calibration.
//!
//! The fleet half of ROADMAP item 4: `dlperf_trace::ingest` makes one
//! file safe to read; this module makes *thousands* of files safe to
//! process unattended. [`CorpusIngestJob`] fans files out over
//! [`crate::sweep::par_map`] with per-file `catch_unwind` panic
//! isolation, checkpoints its progress through
//! [`dlperf_runtime::ResumableJob`] (so a SIGKILL mid-corpus resumes
//! bitwise-identically), and reduces every file to per-family kernel
//! duration samples the moment it is scanned — raw traces are dropped
//! immediately, keeping corpus memory proportional to the *samples*,
//! not the files.
//!
//! On top sits [`TraceCalibration`]: a Habitat-style transfer fit that
//! turns observed per-family durations into multiplicative scale
//! factors over a reference prediction, using robust statistics
//! (median-of-samples with MAD outlier rejection) so a handful of
//! corrupt durations cannot skew the fit. Families whose surviving
//! sample count is thin are tagged [`Confidence::Degraded`] and kept
//! out of [`TraceCalibration::scale_factors`], never silently applied.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use dlperf_faults::{site_key, FaultInjector};
use dlperf_gpusim::KernelFamily;
use dlperf_kernels::{Confidence, ModelRegistry};
use dlperf_runtime::{
    fnv1a64, panic_message, CancellationToken, JobContext, JobError, QuietPanicGuard, ResumableJob,
    StepOutcome,
};
use dlperf_trace::ingest::{
    ingest_file, FileReject, FileReport, FileStatus, IngestLimits, QuarantineReport, SkipCounts,
};
use dlperf_trace::{EventCat, Trace};

/// Extracts per-family kernel duration samples from one trace, in event
/// order. Kernel events are named `<family label>_kernel` by the
/// engine; events whose label no model family claims are counted, not
/// dropped silently. Shared by the corpus job and the offline fit the
/// acceptance tests compare against.
pub fn collect_family_samples(
    trace: &Trace,
    samples: &mut BTreeMap<KernelFamily, Vec<f64>>,
) -> u64 {
    let mut unattributed = 0;
    for ev in &trace.events {
        if ev.cat != EventCat::Kernel {
            continue;
        }
        let family = ev
            .name
            .strip_suffix("_kernel")
            .and_then(KernelFamily::parse_label);
        match family {
            Some(f) => samples.entry(f).or_default().push(ev.dur_us),
            None => unattributed += 1,
        }
    }
    unattributed
}

/// Checkpointable progress of a corpus ingestion.
///
/// Everything here must survive a JSON round-trip *bitwise*: durations
/// are stored as `f64` (Rust's float formatting is shortest-round-trip
/// exact) and per-file digests as fixed-width hex strings, because the
/// vendored JSON layer carries all numbers as `f64` and would corrupt
/// raw 64-bit hashes above 2^53.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusIngestState {
    /// Index of the next unprocessed file.
    pub next: u64,
    /// Per-file outcomes, in corpus order.
    pub reports: Vec<FileReport>,
    /// Kernel duration samples keyed by family *label* (JSON object
    /// keys must be strings), each in file-then-event order.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Kernel events whose name matched no known family.
    pub unattributed_kernels: u64,
    /// Per-file content digests (hex), folded into the corpus digest.
    pub file_digests: Vec<String>,
}

/// Final product of a corpus ingestion.
#[derive(Debug, Clone)]
pub struct CorpusIngest {
    /// Per-file accounting: every skipped event and quarantined file.
    pub report: QuarantineReport,
    /// Observed kernel durations per family, in corpus order.
    pub samples: BTreeMap<KernelFamily, Vec<f64>>,
    /// Kernel events whose name matched no known family.
    pub unattributed_kernels: u64,
    /// Digest over every file's recovered content, in corpus order.
    /// Equal digests mean bitwise-equal ingestion — the property the
    /// SIGKILL-resume chaos job asserts.
    pub digest: u64,
}

impl CorpusIngest {
    /// Total events skipped across the corpus, by reason.
    pub fn skips(&self) -> SkipCounts {
        self.report.skips()
    }
}

/// A resumable, panic-isolated, fault-injectable corpus ingestion job.
///
/// Each step ingests one chunk of files in parallel and appends the
/// results to the checkpointable state; the supervisor may snapshot
/// after any step and a resumed run continues file-for-file where the
/// killed one stopped. Files are sorted at construction so the corpus
/// order (and therefore the digest) is independent of directory
/// enumeration order.
pub struct CorpusIngestJob {
    files: Vec<PathBuf>,
    limits: IngestLimits,
    threads: usize,
    chunk: usize,
    injector: Option<FaultInjector>,
}

impl CorpusIngestJob {
    /// A job over `files` with default parallelism (4) and chunking (8
    /// files per checkpoint step).
    pub fn new(mut files: Vec<PathBuf>, limits: IngestLimits) -> Self {
        files.sort();
        CorpusIngestJob {
            files,
            limits,
            threads: 4,
            chunk: 8,
            injector: None,
        }
    }

    /// Sets worker-thread parallelism within a step (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets files per checkpoint step (builder style).
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        assert!(chunk >= 1, "chunk must be at least 1 file");
        self.chunk = chunk;
        self
    }

    /// Installs a fault injector whose worker-fault model fires inside
    /// the per-file worker closure (site `trace-ingest-file`, keyed by
    /// file index): any selected fault panics the worker there, and the
    /// job's `catch_unwind` isolation quarantines that file as
    /// [`FileReject::Panic`] instead of losing the corpus (builder
    /// style).
    pub fn with_fault_injector(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// The sorted corpus file list.
    pub fn files(&self) -> &[PathBuf] {
        &self.files
    }

    fn ingest_one(
        &self,
        index: usize,
        path: &Path,
    ) -> (FileReport, Vec<(String, f64)>, u64, String) {
        let quiet = QuietPanicGuard::engage();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(inj) = &self.injector {
                if inj
                    .worker_fault(site_key("trace-ingest-file"), index as u64, 1)
                    .is_some()
                {
                    panic!("injected trace-ingest fault");
                }
            }
            ingest_file(path, &self.limits)
        }));
        drop(quiet);
        match outcome {
            Ok(ingest) => {
                let mut samples = Vec::new();
                let mut unattributed = 0;
                let mut canon = String::new();
                for trace in &ingest.traces {
                    let mut by_family = BTreeMap::new();
                    unattributed += collect_family_samples(trace, &mut by_family);
                    for (family, durs) in by_family {
                        for d in durs {
                            samples.push((family.to_string(), d));
                        }
                    }
                    // The bytes of `Trace::to_json`, written in place.
                    trace.write_json(&mut serde::JsonWriter::compact(&mut canon));
                    canon.push('\n');
                }
                let digest = format!("{:016x}", fnv1a64(canon.as_bytes()));
                (ingest.report, samples, unattributed, digest)
            }
            Err(payload) => {
                let report = FileReport {
                    label: path.display().to_string(),
                    status: FileStatus::Quarantined(FileReject::Panic(panic_message(&*payload))),
                    traces: 0,
                    events_accepted: 0,
                    skips: SkipCounts::default(),
                    bytes_read: 0,
                    peak_buffer_bytes: 0,
                };
                (report, Vec::new(), 0, format!("{:016x}", fnv1a64(b"panic")))
            }
        }
    }
}

impl ResumableJob for CorpusIngestJob {
    type State = CorpusIngestState;
    type Output = CorpusIngest;

    fn name(&self) -> &str {
        "trace-corpus-ingest"
    }

    fn initial_state(&self) -> CorpusIngestState {
        CorpusIngestState {
            next: 0,
            reports: Vec::new(),
            samples: BTreeMap::new(),
            unattributed_kernels: 0,
            file_digests: Vec::new(),
        }
    }

    fn step(
        &self,
        state: &mut CorpusIngestState,
        ctx: &JobContext,
    ) -> Result<StepOutcome, JobError> {
        ctx.check_cancelled()?;
        let start = state.next as usize;
        if start >= self.files.len() {
            return Ok(StepOutcome::Done);
        }
        let end = (start + self.chunk).min(self.files.len());
        let chunk = &self.files[start..end];
        // The chunk runs to completion or not at all: cancellation is
        // checked at step boundaries so a checkpointed state never
        // contains a half-ingested chunk.
        let token = CancellationToken::new();
        let results = crate::sweep::par_map(self.threads, &token, chunk, |i, path| {
            self.ingest_one(start + i, path)
        });
        for result in results {
            let (report, samples, unattributed, digest) =
                result.expect("uncancelled par_map fills every slot");
            state.reports.push(report);
            for (label, dur) in samples {
                state.samples.entry(label).or_default().push(dur);
            }
            state.unattributed_kernels += unattributed;
            state.file_digests.push(digest);
        }
        state.next = end as u64;
        ctx.check_cancelled()?;
        if end == self.files.len() {
            Ok(StepOutcome::Done)
        } else {
            Ok(StepOutcome::Continue)
        }
    }

    fn finish(&self, state: CorpusIngestState) -> CorpusIngest {
        let mut report = QuarantineReport::default();
        for file in state.reports {
            report.push(file);
        }
        let mut samples = BTreeMap::new();
        for (label, durs) in state.samples {
            match KernelFamily::parse_label(&label) {
                Some(family) => {
                    samples.insert(family, durs);
                }
                None => unreachable!("only parseable family labels are recorded"),
            }
        }
        let digest = fnv1a64(state.file_digests.join("\n").as_bytes());
        CorpusIngest {
            report,
            samples,
            unattributed_kernels: state.unattributed_kernels,
            digest,
        }
    }
}

/// Knobs of the robust per-family fit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CalibrationPolicy {
    /// Fewest surviving samples for a fit to be trusted
    /// ([`Confidence::Calibrated`]); thinner families are tagged
    /// [`Confidence::Degraded`] and excluded from the scale factors.
    pub min_samples: usize,
    /// Outlier rejection width: samples farther than
    /// `mad_k × 1.4826 × MAD` from the median are rejected. 1.4826
    /// scales the MAD to a Gaussian σ estimate.
    pub mad_k: f64,
}

impl Default for CalibrationPolicy {
    fn default() -> Self {
        CalibrationPolicy {
            min_samples: 8,
            mad_k: 3.5,
        }
    }
}

/// One family's trace fit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilyFit {
    /// The kernel family.
    pub family: KernelFamily,
    /// Multiplicative correction: observed median over reference
    /// median. 1.0 when the fit is degraded.
    pub scale: f64,
    /// Median of the surviving observed durations (µs).
    pub observed_median_us: f64,
    /// The reference duration the observation is compared against (µs).
    pub reference_median_us: f64,
    /// Samples surviving outlier rejection.
    pub samples: usize,
    /// Samples rejected as outliers.
    pub rejected_outliers: usize,
    /// Whether the fit is trustworthy enough to apply.
    pub confidence: Confidence,
}

/// Per-family scale factors fitted from an ingested corpus.
#[derive(Debug, Clone, Default)]
pub struct TraceCalibration {
    /// One fit per family that had both observations and a reference.
    pub fits: Vec<FamilyFit>,
}

/// Median of a non-empty sample set (average of the middle two for even
/// counts), ordering by `total_cmp` so NaNs cannot panic the sort.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

impl TraceCalibration {
    /// Fits one scale factor per family present in both `observed` and
    /// `reference`. Non-finite observations are dropped up front; MAD
    /// outlier rejection is skipped when the MAD is zero (all-equal
    /// samples reject nothing). A family whose surviving count is below
    /// [`CalibrationPolicy::min_samples`], or whose reference or fitted
    /// scale is unusable, is tagged [`Confidence::Degraded`] with scale
    /// 1.0.
    pub fn fit(
        observed: &BTreeMap<KernelFamily, Vec<f64>>,
        reference: &BTreeMap<KernelFamily, f64>,
        policy: &CalibrationPolicy,
    ) -> Self {
        let mut fits = Vec::new();
        for (&family, durs) in observed {
            let Some(&reference_median) = reference.get(&family) else {
                continue;
            };
            let mut clean: Vec<f64> = durs.iter().copied().filter(|d| d.is_finite()).collect();
            if clean.is_empty() {
                fits.push(FamilyFit {
                    family,
                    scale: 1.0,
                    observed_median_us: f64::NAN,
                    reference_median_us: reference_median,
                    samples: 0,
                    rejected_outliers: 0,
                    confidence: Confidence::Degraded,
                });
                continue;
            }
            let med = median(&mut clean);
            let mut deviations: Vec<f64> = clean.iter().map(|d| (d - med).abs()).collect();
            let mad = median(&mut deviations);
            let (mut surviving, rejected): (Vec<f64>, Vec<f64>) = if mad > 0.0 {
                let cutoff = policy.mad_k * 1.4826 * mad;
                clean.into_iter().partition(|d| (d - med).abs() <= cutoff)
            } else {
                (clean, Vec::new())
            };
            let observed_median = median(&mut surviving);
            let scale = observed_median / reference_median;
            let trustworthy = surviving.len() >= policy.min_samples
                && reference_median.is_finite()
                && reference_median > 0.0
                && scale.is_finite()
                && scale > 0.0;
            fits.push(FamilyFit {
                family,
                scale: if trustworthy { scale } else { 1.0 },
                observed_median_us: observed_median,
                reference_median_us: reference_median,
                samples: surviving.len(),
                rejected_outliers: rejected.len(),
                confidence: if trustworthy {
                    Confidence::Calibrated
                } else {
                    Confidence::Degraded
                },
            });
        }
        TraceCalibration { fits }
    }

    /// The applicable factors: calibrated fits only.
    pub fn scale_factors(&self) -> Vec<(KernelFamily, f64)> {
        self.fits
            .iter()
            .filter(|f| f.confidence == Confidence::Calibrated)
            .map(|f| (f.family, f.scale))
            .collect()
    }

    /// Families whose fit was too thin or unusable to apply.
    pub fn degraded_families(&self) -> Vec<KernelFamily> {
        self.fits
            .iter()
            .filter(|f| f.confidence == Confidence::Degraded)
            .map(|f| f.family)
            .collect()
    }

    /// Rewraps `registry` with the calibrated scale factors (degraded
    /// families left untouched).
    pub fn apply(&self, registry: &ModelRegistry) -> ModelRegistry {
        registry.with_scale_factors(&self.scale_factors())
    }
}

/// Median per family of a sample map — the usual way to build the
/// `reference` argument of [`TraceCalibration::fit`] from a reference
/// device's own traces or predictions.
pub fn family_medians(samples: &BTreeMap<KernelFamily, Vec<f64>>) -> BTreeMap<KernelFamily, f64> {
    samples
        .iter()
        .filter(|(_, durs)| !durs.is_empty())
        .map(|(&family, durs)| {
            let mut clean: Vec<f64> = durs.clone();
            (family, median(&mut clean))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(family: KernelFamily, durs: &[f64]) -> BTreeMap<KernelFamily, Vec<f64>> {
        let mut m = BTreeMap::new();
        m.insert(family, durs.to_vec());
        m
    }

    #[test]
    fn median_handles_odd_even_and_nan() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        // NaNs sort to an end under total_cmp; the call must not panic.
        let _ = median(&mut [f64::NAN, 1.0, 2.0]);
    }

    #[test]
    fn fit_recovers_a_clean_scale_factor() {
        let samples: Vec<f64> = (0..32).map(|i| 20.0 + (i % 5) as f64).collect();
        let observed = obs(KernelFamily::Gemm, &samples);
        let reference = family_medians(&obs(KernelFamily::Gemm, &[11.0; 9]));
        let cal = TraceCalibration::fit(&observed, &reference, &CalibrationPolicy::default());
        assert_eq!(cal.fits.len(), 1);
        let fit = &cal.fits[0];
        assert_eq!(fit.confidence, Confidence::Calibrated);
        assert_eq!(fit.reference_median_us, 11.0);
        assert_eq!(fit.scale, fit.observed_median_us / 11.0);
        assert_eq!(cal.scale_factors(), vec![(KernelFamily::Gemm, fit.scale)]);
    }

    #[test]
    fn outliers_are_rejected_by_mad() {
        let mut samples: Vec<f64> = (0..20).map(|i| 9.5 + 0.05 * i as f64).collect();
        samples.push(10_000.0); // a corrupt duration
        let observed = obs(KernelFamily::Memcpy, &samples);
        let reference = family_medians(&obs(KernelFamily::Memcpy, &[10.0; 9]));
        let cal = TraceCalibration::fit(&observed, &reference, &CalibrationPolicy::default());
        let fit = &cal.fits[0];
        assert_eq!(
            fit.rejected_outliers, 1,
            "only the corrupt sample is rejected"
        );
        assert!(
            (fit.scale - 1.0).abs() < 0.05,
            "outlier must not skew the fit: {}",
            fit.scale
        );
    }

    #[test]
    fn thin_families_are_degraded_and_not_applied() {
        let observed = obs(KernelFamily::Concat, &[5.0, 5.5, 6.0]); // below min_samples
        let reference = family_medians(&obs(KernelFamily::Concat, &[5.0; 9]));
        let cal = TraceCalibration::fit(&observed, &reference, &CalibrationPolicy::default());
        assert_eq!(cal.fits[0].confidence, Confidence::Degraded);
        assert_eq!(cal.fits[0].scale, 1.0);
        assert!(cal.scale_factors().is_empty());
        assert_eq!(cal.degraded_families(), vec![KernelFamily::Concat]);
    }

    #[test]
    fn families_without_reference_are_skipped() {
        let observed = obs(KernelFamily::Conv2d, &[1.0; 16]);
        let cal = TraceCalibration::fit(&observed, &BTreeMap::new(), &CalibrationPolicy::default());
        assert!(cal.fits.is_empty());
    }

    #[test]
    fn nonfinite_observations_never_produce_a_fit_panic() {
        let observed = obs(KernelFamily::Gemm, &[f64::NAN, f64::INFINITY]);
        let reference = family_medians(&obs(KernelFamily::Gemm, &[10.0; 9]));
        let cal = TraceCalibration::fit(&observed, &reference, &CalibrationPolicy::default());
        assert_eq!(cal.fits[0].confidence, Confidence::Degraded);
        assert_eq!(cal.fits[0].samples, 0);
    }
}
