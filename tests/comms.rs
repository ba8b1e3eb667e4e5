//! Differential-accuracy suite for the α–β communication model.
//!
//! `CommModel` prices collectives with closed-form α–β (latency–bandwidth)
//! expressions; `Topology::oracle_time_algo` runs the same schedule through
//! the `gpusim` link-level simulator (BFS routing, per-link congestion
//! sharing). This suite diffs the two over the full topology catalog and a
//! message-size ladder, pinning the per-collective GMAE — the paper's
//! accuracy metric — under fixed thresholds, so any drift in either layer
//! (a changed schedule, a broken congestion model, a misplaced launch
//! overhead) fails loudly with the offending cells printed.
//!
//! The property layer checks the shape of the model rather than its
//! values: collective time is monotone in message size, never improved by
//! losing link bandwidth, and finite/positive on every catalog topology.

use dlrm_perf_model::distrib::{CommModel, Topology};
use dlrm_perf_model::gpusim::{CollectiveKind, CollectiveSpec};
use proptest::prelude::*;

/// Message-size ladder: latency-bound 4 KiB up to bandwidth-bound 64 MiB.
const SIZES: [u64; 6] = [4 << 10, 64 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20];

/// World sizes the catalog is diffed at.
const WORLDS: [usize; 3] = [2, 4, 8];

const KINDS: [CollectiveKind; 3] = [
    CollectiveKind::AllReduce,
    CollectiveKind::AllToAll,
    CollectiveKind::AllGather,
];

fn spec(kind: CollectiveKind, bytes: u64, world: usize) -> CollectiveSpec {
    CollectiveSpec {
        kind,
        bytes_per_rank: bytes,
        world: world as u32,
    }
}

/// Geometric mean absolute error of `(model, oracle)` pairs: the
/// exponential of the mean |log ratio|, minus one. 0.10 reads "10% off on
/// a typical cell".
fn gmae(pairs: &[(f64, f64)]) -> f64 {
    assert!(!pairs.is_empty());
    let sum: f64 = pairs.iter().map(|(m, o)| (m / o).ln().abs()).sum();
    (sum / pairs.len() as f64).exp() - 1.0
}

/// All `(model, oracle)` pairs for one collective kind across the catalog
/// and the size ladder. The oracle simulates the same algorithm the model
/// selected, so the diff isolates the α–β approximation itself.
fn diff_pairs(kind: CollectiveKind) -> Vec<(String, f64, f64)> {
    let mut out = Vec::new();
    for world in WORLDS {
        for topo in Topology::catalog(world) {
            let model = CommModel::new(topo.clone());
            for bytes in SIZES {
                let s = spec(kind, bytes, world);
                let est = model.estimate(&s);
                let oracle = topo.oracle_time_algo(&s, est.algo);
                assert!(
                    est.time_us.is_finite() && est.time_us > 0.0,
                    "{}/{kind}/{bytes}B: non-finite model time",
                    topo.label()
                );
                assert!(oracle.is_finite() && oracle > 0.0);
                out.push((format!("{}/{bytes}B", topo.label()), est.time_us, oracle));
            }
        }
    }
    out
}

/// Pins the GMAE of one collective under `bound`, printing every cell on
/// failure so the offending topology is identifiable from the test log.
fn assert_gmae(kind: CollectiveKind, bound: f64) {
    let cells = diff_pairs(kind);
    let pairs: Vec<(f64, f64)> = cells.iter().map(|(_, m, o)| (*m, *o)).collect();
    let err = gmae(&pairs);
    assert!(
        err < bound,
        "{kind} GMAE {err:.4} breached the pinned bound {bound}; cells:\n{}",
        cells
            .iter()
            .map(|(l, m, o)| format!(
                "  {l}: model {m:.2}us oracle {o:.2}us ({:+.1}%)",
                (m / o - 1.0) * 100.0
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

// The pinned bounds. Measured GMAE at pin time (see `print_gmae_table`,
// run with `--nocapture`) was < 0.0001 on every collective — the closed
// forms reproduce the oracle's schedules near-exactly on the whole
// catalog. The pins sit at 5%, far above measurement but far below any
// structural disagreement (a changed schedule or a broken congestion
// model lands at tens of percent).

#[test]
fn all_reduce_gmae_is_pinned() {
    assert_gmae(CollectiveKind::AllReduce, 0.05);
}

#[test]
fn all_to_all_gmae_is_pinned() {
    assert_gmae(CollectiveKind::AllToAll, 0.05);
}

#[test]
fn all_gather_gmae_is_pinned() {
    assert_gmae(CollectiveKind::AllGather, 0.05);
}

/// Not an assertion: prints the per-collective GMAE table so bounds can be
/// re-measured when the model legitimately changes.
#[test]
fn print_gmae_table() {
    for kind in KINDS {
        let cells = diff_pairs(kind);
        let pairs: Vec<(f64, f64)> = cells.iter().map(|(_, m, o)| (*m, *o)).collect();
        let worst = cells
            .iter()
            .max_by(|a, b| {
                let ra = (a.1 / a.2).ln().abs();
                let rb = (b.1 / b.2).ln().abs();
                ra.partial_cmp(&rb).unwrap()
            })
            .unwrap();
        println!(
            "{kind}: GMAE {:.4} over {} cells; worst {} ({:+.1}%)",
            gmae(&pairs),
            pairs.len(),
            worst.0,
            (worst.1 / worst.2 - 1.0) * 100.0
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// More bytes never finish sooner, on any catalog topology.
    #[test]
    fn collective_time_is_monotone_in_message_size(
        world_idx in 0usize..WORLDS.len(),
        topo_idx in 0usize..4,
        kind_idx in 0usize..KINDS.len(),
        lo in 1u64..(1 << 24),
        extra in 0u64..(1 << 24),
    ) {
        let world = WORLDS[world_idx];
        let catalog = Topology::catalog(world);
        let topo = &catalog[topo_idx % catalog.len()];
        let kind = KINDS[kind_idx];
        let model = CommModel::new(topo.clone());
        let t_lo = model.collective_time(&spec(kind, lo, world));
        let t_hi = model.collective_time(&spec(kind, lo + extra, world));
        prop_assert!(
            t_hi >= t_lo,
            "{}/{kind}: {lo}B -> {:.3}us but {}B -> {:.3}us",
            topo.label(), t_lo, lo + extra, t_hi
        );
    }

    /// Losing link bandwidth never speeds a collective up.
    #[test]
    fn collective_time_is_non_increasing_in_bandwidth(
        world_idx in 0usize..WORLDS.len(),
        topo_idx in 0usize..4,
        kind_idx in 0usize..KINDS.len(),
        bytes in 1u64..(1 << 26),
        factor in 0.05f64..1.0,
    ) {
        let world = WORLDS[world_idx];
        let catalog = Topology::catalog(world);
        let topo = &catalog[topo_idx % catalog.len()];
        let kind = KINDS[kind_idx];
        let s = spec(kind, bytes, world);
        let full = CommModel::new(topo.clone()).collective_time(&s);
        let cut = CommModel::new(topo.scaled_bandwidth(factor)).collective_time(&s);
        prop_assert!(
            cut >= full,
            "{}/{kind}/{bytes}B: x{factor:.2} bandwidth {:.3}us < full {:.3}us",
            topo.label(), cut, full
        );
    }

    /// Every catalog topology prices every collective finitely, and the
    /// oracle agrees within an order of magnitude — the coarse containment
    /// that keeps the GMAE pins meaningful (a pin over a set that silently
    /// lost a topology would still pass).
    #[test]
    fn every_catalog_topology_stays_near_its_oracle(
        world in 2usize..=8,
        kind_idx in 0usize..KINDS.len(),
        size_idx in 0usize..SIZES.len(),
    ) {
        let kind = KINDS[kind_idx];
        let s = spec(kind, SIZES[size_idx], world);
        for topo in Topology::catalog(world) {
            let model = CommModel::new(topo.clone());
            let est = model.estimate(&s);
            let oracle = topo.oracle_time_algo(&s, est.algo);
            prop_assert!(est.time_us.is_finite() && est.time_us > 0.0);
            let ratio = est.time_us / oracle;
            prop_assert!(
                (0.1..=10.0).contains(&ratio),
                "{}/{kind}/{}B: model {:.3}us vs oracle {:.3}us",
                topo.label(), SIZES[size_idx], est.time_us, oracle
            );
        }
    }
}
