//! Frozen calibrations: the serialized `RegistryBundle` of every catalog
//! device, fitted at `Quick` effort, pinned by an FNV-1a digest of its JSON
//! text.
//!
//! The bundle carries every trained weight and bias of the five MLP kernel
//! models and nothing of their training state, so any change to the order
//! of floating-point work in training (the lane-reduction contract,
//! DESIGN.md §9.3), in the optimizer, in early stopping or in the
//! microbenchmark sweeps flips a digest. A mismatch is never fixed by
//! updating the table here: an intended change to what calibration learns
//! must say so and re-freeze the digests together with the goldens it
//! moves.
//!
//! The `Full`-effort check is `#[ignore]`d because it trains paper-scale
//! nets (about 25 s in a release build on 2 cores); run it with
//! `cargo test --release --test calibrated_bundles -- --ignored`.

use dlrm_perf_model::gpusim::DeviceSpec;
use dlrm_perf_model::kernels::{CalibrationEffort, ModelRegistry};
use dlrm_perf_model::runtime::fnv1a64;

const SEED: u64 = 7;

fn digest(device: &str, effort: CalibrationEffort) -> String {
    let dev = DeviceSpec::by_name(device).expect("catalog device");
    let bundle = ModelRegistry::calibrate_bundle(&dev, effort, SEED);
    let json = serde_json::to_string(&bundle).expect("bundle serializes");
    for key in ["\"grad_w\"", "\"grad_b\"", "\"input_cache\""] {
        assert!(!json.contains(key), "{key} persisted in the {device} bundle");
    }
    format!("{:016x}", fnv1a64(json.as_bytes()))
}

#[test]
fn quick_bundles_are_frozen_for_every_catalog_device() {
    const FROZEN: [(&str, &str); 5] = [
        ("v100", "3c9cce14b3f42490"),
        ("p100", "7c3d0aea9209a717"),
        ("titan_xp", "d089d21a5c516be4"),
        ("a100", "fd4763e29e4160ba"),
        ("t4", "b26d4c4206eeef35"),
    ];
    let got: Vec<(&str, String)> = FROZEN
        .iter()
        .map(|&(dev, _)| (dev, digest(dev, CalibrationEffort::Quick)))
        .collect();
    let want: Vec<(&str, String)> = FROZEN.iter().map(|&(d, h)| (d, h.to_string())).collect();
    assert_eq!(got, want, "a Quick calibration changed bitwise");
}

#[test]
#[ignore = "paper-scale training; run with --release -- --ignored"]
fn full_bundle_is_frozen_for_v100() {
    assert_eq!(digest("v100", CalibrationEffort::Full), "fb4eb4ec2beb3560");
}
