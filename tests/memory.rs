//! Memory-footprint integration: reproduce the paper's experimental-setup
//! decision — *DLRM_MLPerf* with sparse feature size 128 does NOT fit the
//! TITAN Xp / P100, so the paper reduced it to 32.

use dlrm_perf_model::gpusim::DeviceSpec;
use dlrm_perf_model::graph::memory;
use dlrm_perf_model::models::DlrmConfig;

/// The MLPerf config at its original sparse feature size of 128 (bottom MLP
/// widened back accordingly).
fn mlperf_dim128(batch: u64) -> DlrmConfig {
    DlrmConfig {
        bottom_mlp: vec![13, 512, 256, 128],
        embedding_dim: 128,
        ..DlrmConfig::mlperf_config(batch)
    }
}

#[test]
fn mlperf_dim128_does_not_fit_titan_xp() {
    let report = memory::estimate(&mlperf_dim128(2048).build());
    let titan = DeviceSpec::titan_xp();
    // 26 Criteo tables ~34M rows x 128 floats ≈ 17 GB of embeddings alone.
    assert!(
        report.weight_bytes > 12 * (1 << 30),
        "weights {} B",
        report.weight_bytes
    );
    assert!(
        !report.fits(titan.memory_bytes, 0.1),
        "dim-128 MLPerf must NOT fit 12 GB"
    );
}

#[test]
fn mlperf_dim32_fits_all_paper_devices() {
    let report = memory::estimate(&DlrmConfig::mlperf_config(2048).build());
    for dev in DeviceSpec::paper_devices() {
        assert!(
            report.fits(dev.memory_bytes, 0.1),
            "dim-32 MLPerf should fit {} ({} B peak)",
            dev.name,
            report.peak_bytes()
        );
    }
}

#[test]
fn activation_memory_scales_with_batch() {
    let small = memory::estimate(&DlrmConfig::default_config(256).build());
    let large = memory::estimate(&DlrmConfig::default_config(4096).build());
    // Weights identical; activations ~16x.
    assert_eq!(small.weight_bytes, large.weight_bytes);
    let ratio = large.peak_activation_bytes as f64 / small.peak_activation_bytes as f64;
    assert!(
        (8.0..=24.0).contains(&ratio),
        "activation scaling ratio {ratio} out of expected band"
    );
}

#[test]
fn occupancy_curve_covers_every_node() {
    let g = DlrmConfig::default_config(512).build();
    let r = memory::estimate(&g);
    assert_eq!(r.occupancy.len(), g.node_count());
    assert_eq!(
        r.occupancy.iter().copied().max(),
        Some(r.peak_activation_bytes)
    );
}
