//! Persistence of calibrated kernel-model assets.
//!
//! Calibration (microbenchmarks + training) is the expensive half of the
//! pipeline; the paper's workflow stores its assets — kernel models and
//! overhead databases — so that "subsequent DLRM models simply go through
//! the Prediction Track". [`RegistryBundle`] is the serializable form of a
//! calibrated [`ModelRegistry`]: save it once per device, reload in
//! milliseconds. It holds what prediction reads and nothing else: the
//! analytic models' parameters, and each ML model's layer weights and
//! biases with its preprocessing. No training state (gradients, forward
//! caches) is persisted. Bundles written while layers still carried
//! `grad_w` and `grad_b` load unchanged, because the reader skips
//! unknown keys.
//!
//! Saved bundles are untrusted input when they come back: files get
//! truncated by interrupted copies, hand-edited, or produced by an older
//! build. Bundles therefore travel inside the `dlperf-runtime` snapshot
//! envelope — schema name, format version, FNV-1a payload checksum — and
//! [`RegistryBundle::from_json`] refuses anything that does not verify,
//! with a typed [`PersistError`] saying exactly what was wrong.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use dlperf_gpusim::{DeviceSpec, KernelFamily};
use dlperf_runtime::SnapshotError;

use crate::heuristic::embedding::EmbeddingModel;
use crate::heuristic::roofline::RooflineModel;
use crate::mlbased::MlKernelModel;
use crate::registry::ModelRegistry;

/// Schema name bundles are sealed under.
pub const BUNDLE_SCHEMA: &str = "dlperf.registry-bundle";
/// Current bundle format version. Version 1 was the bare (envelope-less)
/// JSON written before checksums existed; see
/// [`RegistryBundle::from_json`] for how it is still accepted.
pub const BUNDLE_VERSION: u32 = 2;

/// Why a bundle could not be saved or loaded.
#[derive(Debug)]
pub enum PersistError {
    /// The file failed schema/version/checksum verification or did not
    /// parse (truncation, corruption, incompatible build).
    Snapshot(SnapshotError),
    /// Reading or writing the bundle file failed.
    Io(std::io::Error),
    /// The bundle was produced under a different lane-reduction width than
    /// this build's contract ([`dlperf_nn::LANES`]); its models would not
    /// reproduce their validation bits here.
    LaneWidth {
        /// Width recorded in the bundle.
        found: usize,
        /// Width this build's contract requires.
        expected: usize,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Snapshot(e) => write!(f, "bundle rejected: {e}"),
            PersistError::Io(e) => write!(f, "bundle I/O failed: {e}"),
            PersistError::LaneWidth { found, expected } => write!(
                f,
                "bundle rejected: lane width {found} does not match this \
                 build's accumulation contract (W={expected})"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Snapshot(e) => Some(e),
            PersistError::Io(e) => Some(e),
            PersistError::LaneWidth { .. } => None,
        }
    }
}

impl From<SnapshotError> for PersistError {
    fn from(e: SnapshotError) -> Self {
        PersistError::Snapshot(e)
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// A serializable snapshot of every model a calibrated registry holds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegistryBundle {
    /// Lane width of the `dlperf-nn` accumulation contract
    /// ([`dlperf_nn::LANES`], DESIGN.md §9.3) the bundle's MLP weights were
    /// trained and validated under. Frozen into every new bundle so a build
    /// whose contract width differs refuses the checkpoint instead of
    /// silently producing different bits. `0` marks bundles written before
    /// the lane contract existed; they still verify (the stored weights are
    /// raw parameters, and the pre-contract serial order is what the W=4
    /// contract was derived from — see DESIGN.md §9.3).
    #[serde(default)]
    pub lane_width: usize,
    /// The device the bundle was calibrated for.
    pub device: DeviceSpec,
    /// Roofline for memcpy / concat / element-wise.
    pub roofline: RooflineModel,
    /// Embedding-lookup forward model.
    pub embedding_forward: EmbeddingModel,
    /// Embedding-lookup backward model.
    pub embedding_backward: EmbeddingModel,
    /// ML models for the opaque kernels.
    pub gemm: MlKernelModel,
    /// Batched transpose.
    pub transpose: MlKernelModel,
    /// `tril` forward.
    pub tril_forward: MlKernelModel,
    /// `tril` backward.
    pub tril_backward: MlKernelModel,
    /// Convolution (for the CV-model experiments).
    pub conv: MlKernelModel,
}

impl RegistryBundle {
    /// Assembles a working [`ModelRegistry`] from the bundle.
    pub fn into_registry(self) -> ModelRegistry {
        let mut reg = ModelRegistry::empty(self.device);
        let roofline = Arc::new(self.roofline);
        reg.insert(KernelFamily::Memcpy, roofline.clone());
        reg.insert(KernelFamily::Concat, roofline.clone());
        reg.insert(KernelFamily::Elementwise, roofline);
        reg.insert(
            KernelFamily::EmbeddingForward,
            Arc::new(self.embedding_forward),
        );
        reg.insert(
            KernelFamily::EmbeddingBackward,
            Arc::new(self.embedding_backward),
        );
        reg.insert(KernelFamily::Gemm, Arc::new(self.gemm));
        reg.insert(KernelFamily::Transpose, Arc::new(self.transpose));
        reg.insert(KernelFamily::TrilForward, Arc::new(self.tril_forward));
        reg.insert(KernelFamily::TrilBackward, Arc::new(self.tril_backward));
        reg.insert(KernelFamily::Conv2d, Arc::new(self.conv));
        reg
    }

    /// Serializes the bundle into a sealed, checksummed envelope.
    pub fn to_json(&self) -> String {
        dlperf_runtime::seal(BUNDLE_SCHEMA, BUNDLE_VERSION, self)
            .expect("bundle serialization cannot fail")
    }

    /// Deserializes a bundle, verifying schema, version, and checksum.
    ///
    /// Version-1 files (bare JSON written before the envelope existed) are
    /// still accepted: anything that is valid JSON but not an envelope is
    /// retried as a legacy bare bundle.
    ///
    /// # Errors
    /// A typed [`PersistError::Snapshot`] naming the failure: parse error
    /// (truncated file), schema mismatch (not a bundle), version mismatch
    /// (incompatible build), or checksum mismatch (corruption).
    pub fn from_json(s: &str) -> Result<Self, PersistError> {
        let bundle: RegistryBundle = match dlperf_runtime::open(BUNDLE_SCHEMA, BUNDLE_VERSION, s) {
            Ok(bundle) => bundle,
            // A legacy bare bundle parses as JSON but has no envelope
            // fields; only that specific shape falls through.
            Err(SnapshotError::Parse(_)) => {
                serde_json::from_str(s).map_err(|e| PersistError::from(SnapshotError::Parse(e)))?
            }
            Err(e) => return Err(e.into()),
        };
        // Pre-contract bundles (lane_width 0, the serde default) still
        // verify; anything else must match this build's contract width.
        if bundle.lane_width != 0 && bundle.lane_width != dlperf_nn::LANES {
            return Err(PersistError::LaneWidth {
                found: bundle.lane_width,
                expected: dlperf_nn::LANES,
            });
        }
        Ok(bundle)
    }

    /// Saves the sealed bundle to a file, atomically (temp file + rename),
    /// so an interrupted save never leaves a truncated bundle behind.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), PersistError> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Loads and verifies a bundle from a file.
    ///
    /// # Errors
    /// [`PersistError::Io`] if the file cannot be read,
    /// [`PersistError::Snapshot`] if it fails verification.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, PersistError> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::CalibrationEffort;
    use dlperf_gpusim::KernelSpec;

    #[test]
    fn bundle_round_trips_and_predicts_identically() {
        let dev = DeviceSpec::v100();
        let bundle = ModelRegistry::calibrate_bundle(&dev, CalibrationEffort::Quick, 5);
        let json = bundle.to_json();
        let reloaded = RegistryBundle::from_json(&json).unwrap();

        let a = bundle.into_registry();
        let b = reloaded.into_registry();
        for k in [
            KernelSpec::gemm(1024, 512, 256),
            KernelSpec::embedding_forward(512, 100_000, 8, 10, 64),
            KernelSpec::memcpy_d2d(4 << 20),
            KernelSpec::Transpose {
                batch: 512,
                rows: 9,
                cols: 64,
            },
            KernelSpec::TrilForward { batch: 512, n: 9 },
        ] {
            assert_eq!(
                a.try_predict(&k).unwrap(),
                b.try_predict(&k).unwrap(),
                "mismatch on {k:?}"
            );
        }
    }

    #[test]
    fn bundle_saves_and_loads_from_disk() {
        let dev = DeviceSpec::p100();
        let bundle = ModelRegistry::calibrate_bundle(&dev, CalibrationEffort::Quick, 6);
        let dir = std::env::temp_dir().join("dlperf-bundle-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p100.json");
        bundle.save(&path).unwrap();
        let loaded = RegistryBundle::load(&path).unwrap();
        assert_eq!(loaded.device.name, "Tesla P100");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_bundle_is_a_typed_error() {
        let bundle =
            ModelRegistry::calibrate_bundle(&DeviceSpec::v100(), CalibrationEffort::Quick, 5);
        let json = bundle.to_json();
        match RegistryBundle::from_json(&json[..json.len() / 3]) {
            Err(PersistError::Snapshot(SnapshotError::Parse(_))) => {}
            other => panic!("expected Snapshot(Parse), got {other:?}"),
        }
    }

    #[test]
    fn corrupted_bundle_fails_the_checksum() {
        let bundle =
            ModelRegistry::calibrate_bundle(&DeviceSpec::v100(), CalibrationEffort::Quick, 5);
        let json = bundle.to_json();
        // Damage the payload without breaking the JSON structure.
        let corrupted = json.replacen("Tesla V100", "Tesla X100", 1);
        assert_ne!(json, corrupted, "corruption must land");
        match RegistryBundle::from_json(&corrupted) {
            Err(PersistError::Snapshot(SnapshotError::ChecksumMismatch { .. })) => {}
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_is_rejected_with_the_found_version() {
        let bundle =
            ModelRegistry::calibrate_bundle(&DeviceSpec::v100(), CalibrationEffort::Quick, 5);
        let json = bundle.to_json();
        let future = json.replacen(
            &format!("\"version\":{BUNDLE_VERSION}"),
            &format!("\"version\":{}", BUNDLE_VERSION + 1),
            1,
        );
        assert_ne!(json, future);
        match RegistryBundle::from_json(&future) {
            Err(PersistError::Snapshot(SnapshotError::VersionMismatch { found, .. })) => {
                assert_eq!(found, BUNDLE_VERSION + 1);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn foreign_lane_width_is_rejected_legacy_zero_accepted() {
        let bundle =
            ModelRegistry::calibrate_bundle(&DeviceSpec::v100(), CalibrationEffort::Quick, 5);
        assert_eq!(bundle.lane_width, dlperf_nn::LANES);

        // A bundle sealed under a different contract width must not load.
        let mut foreign = bundle.clone();
        foreign.lane_width = dlperf_nn::LANES * 2;
        match RegistryBundle::from_json(&foreign.to_json()) {
            Err(PersistError::LaneWidth { found, expected }) => {
                assert_eq!(found, dlperf_nn::LANES * 2);
                assert_eq!(expected, dlperf_nn::LANES);
            }
            other => panic!("expected LaneWidth rejection, got {other:?}"),
        }

        // Pre-contract bundles (no lane_width field → serde default 0)
        // still verify.
        let mut legacy = bundle;
        legacy.lane_width = 0;
        let loaded = RegistryBundle::from_json(&legacy.to_json()).expect("legacy width accepted");
        assert_eq!(loaded.lane_width, 0);
    }

    #[test]
    fn legacy_bare_bundle_still_loads() {
        let bundle =
            ModelRegistry::calibrate_bundle(&DeviceSpec::v100(), CalibrationEffort::Quick, 5);
        // What `to_json` produced before the envelope existed.
        let legacy = serde_json::to_string(&bundle).unwrap();
        let loaded = RegistryBundle::from_json(&legacy).expect("legacy bundles remain readable");
        assert_eq!(loaded.device.name, bundle.device.name);
    }

    #[test]
    fn missing_lane_width_decodes_to_legacy_zero() {
        let bundle =
            ModelRegistry::calibrate_bundle(&DeviceSpec::v100(), CalibrationEffort::Quick, 5);
        let bare = serde_json::to_string(&bundle).unwrap();
        let keyless = bare.replacen(&format!("\"lane_width\":{},", dlperf_nn::LANES), "", 1);
        assert!(!keyless.contains("lane_width"), "the key must be gone");
        let loaded = RegistryBundle::from_json(&keyless).expect("a keyless bundle loads");
        assert_eq!(loaded.lane_width, 0);
    }
}
