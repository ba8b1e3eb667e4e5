//! The closed-form α–β communication cost model over a [`Topology`].
//!
//! Every collective is priced as *steps × (α + chunk/β)*: α aggregates the
//! per-hop link latencies of the worst transfer of a step, β is the
//! bottleneck per-direction bandwidth after congestion sharing (a PCIe
//! root complex crossed by both GPUs of a switch, a node uplink shared by
//! every GPU of the node). The closed forms mirror the schedules the
//! `gpusim` link-level oracle executes — ring reduce-scatter/all-gather,
//! binomial tree, hierarchical leader rings, pairwise all-to-all rounds —
//! so the differential suite in `tests/comms.rs` can pin the model's
//! per-collective GMAE against [`Topology::oracle_time_algo`] the way
//! `tests/accuracy.rs` pins kernel models against the kernel simulator.
//!
//! All evaluations are pure functions of `(topology, spec)`: bitwise
//! deterministic at any thread count, cache-independent, and free of
//! global state beyond monotonic observability counters.

use dlperf_gpusim::interconnect::CollectiveAlgo;
use dlperf_gpusim::{CollectiveKind, CollectiveSpec, LinkSpec};

use crate::topology::{Topology, TopologyShape};

/// One priced collective: the chosen algorithm and its α–β time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveEstimate {
    /// Closed-form time (µs), launch overhead included.
    pub time_us: f64,
    /// The schedule the model selected.
    pub algo: CollectiveAlgo,
    /// Whether the underlying topology is a degraded fallback.
    pub degraded: bool,
}

/// Process-wide α–β model counters: evaluations and degraded-topology
/// evaluations across every [`CommModel`] instance.
struct CommCounters {
    _group: std::sync::Arc<dlperf_obs::CounterGroup>,
    evaluations: dlperf_obs::CounterHandle,
    degraded_evals: dlperf_obs::CounterHandle,
    link_faults: dlperf_obs::CounterHandle,
}

fn comm_counters() -> &'static CommCounters {
    static G: std::sync::OnceLock<CommCounters> = std::sync::OnceLock::new();
    G.get_or_init(|| {
        let group = dlperf_obs::CounterGroup::register(
            "distrib.comms",
            &["evaluations", "degraded_evals", "link_faults"],
        );
        CommCounters {
            evaluations: group.handle("evaluations"),
            degraded_evals: group.handle("degraded_evals"),
            link_faults: group.handle("link_faults"),
            _group: group,
        }
    })
}

/// Prices collective `idx` (`spec`, 0-based) on `topology` with every
/// link's bandwidth scaled by `factor` — latency unchanged, the α–β
/// semantics of a flapping or downtrained wire — and records the link
/// fault. Returns the degraded time in µs and the note that names it.
pub(crate) fn degraded_link(
    topology: &Topology,
    spec: &CollectiveSpec,
    idx: usize,
    factor: f64,
) -> (f64, String) {
    comm_counters().link_faults.incr();
    let us = CommModel::new(topology.scaled_bandwidth(factor)).collective_time(spec);
    let note = format!(
        "C{} {} link degraded ×{factor:.2} bandwidth",
        idx + 1,
        spec.kind
    );
    (us, note)
}

/// The α–β cost model, bound to one topology.
#[derive(Debug, Clone, PartialEq)]
pub struct CommModel {
    topology: Topology,
}

/// Worst-case single-transfer α–β parameters for one shape, derived once
/// per evaluation: `intra` covers rank-adjacent links, `cross` covers
/// transfers through the shared fabric (root complex or IB core).
struct ShapeParams {
    /// Per-step latency of an intra-island transfer (µs).
    intra_lat: f64,
    /// Bottleneck bandwidth of an intra-island transfer (bytes/µs).
    intra_bw: f64,
    /// Per-step latency of a fabric-crossing transfer (µs).
    cross_lat: f64,
    /// Bottleneck bandwidth of a fabric-crossing transfer (bytes/µs).
    cross_bw: f64,
}

impl CommModel {
    /// Binds the model to `topology`.
    pub fn new(topology: Topology) -> Self {
        CommModel { topology }
    }

    /// The natural model for a homogeneous cluster of `device`s (see
    /// [`Topology::for_device`]).
    ///
    /// # Panics
    /// Panics if `world` is zero.
    pub fn for_device(device: &dlperf_gpusim::DeviceSpec, world: usize) -> Self {
        Self::new(Topology::for_device(device, world))
    }

    /// The bound topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    fn params(&self) -> ShapeParams {
        let links = self.topology.rank_links();
        let max_lat = links.iter().map(|l| l.latency_us).fold(0.0, f64::max);
        let min_bw = links
            .iter()
            .map(LinkSpec::bytes_per_us)
            .fold(f64::INFINITY, f64::min);
        match self.topology.shape() {
            TopologyShape::Mesh => ShapeParams {
                intra_lat: max_lat,
                intra_bw: min_bw,
                cross_lat: max_lat,
                cross_bw: min_bw,
            },
            // GPU→switch→root→switch→GPU: four hops of the bottleneck
            // link; switch-local peers take the two-hop short path.
            TopologyShape::PcieTree => ShapeParams {
                intra_lat: 2.0 * max_lat,
                intra_bw: min_bw,
                cross_lat: 4.0 * max_lat,
                cross_bw: min_bw,
            },
            // GPU→node-switch→core→node-switch→GPU: two intra hops plus
            // two uplink hops; the uplink bounds the crossing bandwidth.
            TopologyShape::Hierarchical { inter, .. } => {
                let inter = inter.scaled(self.topology.bandwidth_scale());
                ShapeParams {
                    intra_lat: 2.0 * max_lat,
                    intra_bw: min_bw,
                    cross_lat: 2.0 * max_lat + 2.0 * inter.latency_us,
                    cross_bw: min_bw.min(inter.bytes_per_us()),
                }
            }
        }
    }

    /// Closed-form α–β time (µs) of `spec` under `algo`, launch overhead
    /// included. Zero when the world is one or the payload empty (nothing
    /// crosses a wire, so nothing launches).
    ///
    /// # Panics
    /// Panics if `spec.world` does not match the topology.
    pub fn time_algo(&self, spec: &CollectiveSpec, algo: CollectiveAlgo) -> f64 {
        assert_eq!(
            spec.world as usize,
            self.topology.world(),
            "collective world must match the topology"
        );
        let w = self.topology.world();
        if w <= 1 || spec.bytes_per_rank == 0 {
            return 0.0;
        }
        comm_counters().evaluations.incr();
        if self.topology.degraded().is_some() {
            comm_counters().degraded_evals.incr();
        }
        let p = self.params();
        let bytes = spec.bytes_per_rank as f64;
        let chunk = bytes / w as f64;
        let wire = match spec.kind {
            CollectiveKind::AllReduce => match algo {
                CollectiveAlgo::Ring => 2.0 * (w - 1) as f64 * self.ring_step(&p, chunk),
                CollectiveAlgo::Tree => self.tree_allreduce(&p, bytes),
                CollectiveAlgo::Hierarchical { groups }
                    if groups > 0 && groups < w && w.is_multiple_of(groups) =>
                {
                    self.hierarchical_allreduce(&p, bytes, groups)
                }
                CollectiveAlgo::Hierarchical { .. } => {
                    2.0 * (w - 1) as f64 * self.ring_step(&p, chunk)
                }
            },
            CollectiveKind::AllGather => (w - 1) as f64 * self.ring_step(&p, chunk),
            CollectiveKind::AllToAll => self.all_to_all(&p, chunk),
        };
        wire + self.topology.launch_us()
    }

    /// The worst transfer of one ring step with `chunk` bytes: on a ring
    /// over rank order at least one transfer crosses the shared fabric
    /// whenever islands exist, and per-direction link loads stay at one,
    /// so the crossing pair's α–β is the step.
    fn ring_step(&self, p: &ShapeParams, chunk: f64) -> f64 {
        let w = self.topology.world();
        let crossing = match self.topology.shape() {
            TopologyShape::Mesh => false,
            // Two GPUs under one switch never leave it.
            TopologyShape::PcieTree => w > 2,
            TopologyShape::Hierarchical { nodes, .. } => *nodes > 1,
        };
        if crossing {
            p.cross_lat + chunk / p.cross_bw.max(1e-9)
        } else {
            p.intra_lat + chunk / p.intra_bw.max(1e-9)
        }
    }

    /// Pairwise all-to-all: `w−1` rounds of `chunk`-sized sends to rank
    /// `(i+r) mod w`. Rounds whose destinations leave the local island
    /// share the island's uplink; the closed form counts the sharers per
    /// round exactly as the oracle's router does.
    fn all_to_all(&self, p: &ShapeParams, chunk: f64) -> f64 {
        let w = self.topology.world();
        match self.topology.shape() {
            TopologyShape::Mesh => (w - 1) as f64 * (p.cross_lat + chunk / p.cross_bw.max(1e-9)),
            TopologyShape::PcieTree => {
                if w <= 2 {
                    return p.intra_lat + chunk / p.intra_bw.max(1e-9);
                }
                // Round 1 and round w−1 send each switch's odd (resp.
                // even) GPU across the root alone; every other round sends
                // both GPUs of a switch through its uplink.
                (1..w)
                    .map(|r| {
                        let load = if r == 1 || r == w - 1 { 1.0 } else { 2.0 };
                        p.cross_lat + load * chunk / p.cross_bw.max(1e-9)
                    })
                    .sum()
            }
            TopologyShape::Hierarchical {
                nodes,
                gpus_per_node,
                ..
            } => {
                let (m, g) = (*nodes, *gpus_per_node);
                if m <= 1 {
                    return (w - 1) as f64 * (p.intra_lat + chunk / p.intra_bw.max(1e-9));
                }
                (1..w)
                    .map(|r| {
                        // Of a node's g ranks, those whose destination
                        // stays in-node avoid the uplink: the shifted
                        // destination block overlaps the node by g−(r mod g)
                        // ranks when ⌊r/g⌋ wraps to zero and by r mod g
                        // when it wraps to m−1.
                        let (q, k) = (r % g, r / g);
                        let same = if k == 0 { g - q } else { 0 }
                            + if (k + 1) % m == 0 && q > 0 { q } else { 0 };
                        let inter_load = (g - same.min(g)) as f64;
                        if inter_load == 0.0 {
                            p.intra_lat + chunk / p.intra_bw.max(1e-9)
                        } else {
                            let uplink = inter_load * chunk / p.cross_bw.max(1e-9);
                            p.cross_lat + uplink.max(chunk / p.intra_bw.max(1e-9))
                        }
                    })
                    .sum()
            }
        }
    }

    /// Binomial-tree all-reduce: `⌈log₂ w⌉` reduce levels of full-payload
    /// transfers plus the mirror broadcast. On trees and hierarchies only
    /// the first level(s) stay island-local.
    fn tree_allreduce(&self, p: &ShapeParams, bytes: f64) -> f64 {
        let w = self.topology.world();
        let local_levels = match self.topology.shape() {
            TopologyShape::Mesh => usize::MAX,
            TopologyShape::PcieTree => 1,
            TopologyShape::Hierarchical { gpus_per_node, .. } => {
                // Levels with span < g stay inside the node.
                (usize::BITS - (*gpus_per_node).leading_zeros()) as usize - 1
            }
        };
        let mut total = 0.0;
        let mut span = 1usize;
        let mut level = 0usize;
        while span < w {
            total += if level < local_levels {
                p.intra_lat + bytes / p.intra_bw.max(1e-9)
            } else {
                p.cross_lat + bytes / p.cross_bw.max(1e-9)
            };
            span *= 2;
            level += 1;
        }
        2.0 * total
    }

    /// Hierarchical all-reduce: per-node ring reduce-scatter, leader ring
    /// across nodes on the scattered payload, per-node all-gather.
    fn hierarchical_allreduce(&self, p: &ShapeParams, bytes: f64, g: usize) -> f64 {
        let m = self.topology.world() / g;
        let mut total = 0.0;
        if g > 1 {
            total +=
                2.0 * (g - 1) as f64 * (p.intra_lat + (bytes / g as f64) / p.intra_bw.max(1e-9));
        }
        if m > 1 {
            total += 2.0
                * (m - 1) as f64
                * (p.cross_lat + (bytes / (g * m) as f64) / p.cross_bw.max(1e-9));
        }
        total
    }

    /// The all-reduce schedule the model selects for `spec`: the variant
    /// with the lowest closed-form time, tie-broken Ring → Tree →
    /// Hierarchical so the choice is deterministic. Non-all-reduce kinds
    /// always get Ring (the variants price identically there).
    pub fn allreduce_algo(&self, spec: &CollectiveSpec) -> CollectiveAlgo {
        if spec.kind != CollectiveKind::AllReduce {
            return CollectiveAlgo::Ring;
        }
        let mut candidates = vec![CollectiveAlgo::Ring, CollectiveAlgo::Tree];
        if let TopologyShape::Hierarchical {
            nodes,
            gpus_per_node,
            ..
        } = self.topology.shape()
        {
            if *nodes > 1 && *gpus_per_node > 1 {
                candidates.push(CollectiveAlgo::Hierarchical {
                    groups: *gpus_per_node,
                });
            }
        }
        candidates
            .into_iter()
            .min_by(|a, b| {
                self.time_algo(spec, *a)
                    .partial_cmp(&self.time_algo(spec, *b))
                    .expect("collective times are finite")
            })
            .expect("candidate list is non-empty")
    }

    /// Best-variant closed-form time (µs) of `spec`.
    ///
    /// # Panics
    /// Panics if `spec.world` does not match the topology.
    pub fn collective_time(&self, spec: &CollectiveSpec) -> f64 {
        self.time_algo(spec, self.allreduce_algo(spec))
    }

    /// Best-variant estimate with the chosen schedule and degradation
    /// flag attached.
    ///
    /// # Panics
    /// Panics if `spec.world` does not match the topology.
    pub fn estimate(&self, spec: &CollectiveSpec) -> CollectiveEstimate {
        let algo = self.allreduce_algo(spec);
        CollectiveEstimate {
            time_us: self.time_algo(spec, algo),
            algo,
            degraded: self.topology.degraded().is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlperf_gpusim::DeviceSpec;

    fn spec(kind: CollectiveKind, bytes: u64, world: u32) -> CollectiveSpec {
        CollectiveSpec {
            kind,
            bytes_per_rank: bytes,
            world,
        }
    }

    #[test]
    fn mesh_closed_form_matches_oracle_exactly() {
        // Full meshes have no congestion: closed form and oracle agree to
        // float precision for the ring schedules.
        let t = Topology::nvlink_mesh(&DeviceSpec::v100(), 4);
        let m = CommModel::new(t.clone());
        for kind in [
            CollectiveKind::AllReduce,
            CollectiveKind::AllToAll,
            CollectiveKind::AllGather,
        ] {
            let s = spec(kind, 64 << 20, 4);
            let model = m.time_algo(&s, CollectiveAlgo::Ring);
            let oracle = t.oracle_time_algo(&s, CollectiveAlgo::Ring);
            assert!(
                (model - oracle).abs() / oracle < 1e-9,
                "{kind}: model {model} vs oracle {oracle}"
            );
        }
    }

    #[test]
    fn small_payload_prefers_tree_large_prefers_ring() {
        let m = CommModel::new(Topology::nvlink_mesh(&DeviceSpec::v100(), 8));
        let small = m.allreduce_algo(&spec(CollectiveKind::AllReduce, 4 << 10, 8));
        let large = m.allreduce_algo(&spec(CollectiveKind::AllReduce, 256 << 20, 8));
        assert_eq!(
            small,
            CollectiveAlgo::Tree,
            "tiny payloads are latency-bound"
        );
        assert_eq!(
            large,
            CollectiveAlgo::Ring,
            "large payloads are bandwidth-bound"
        );
    }

    #[test]
    fn hierarchy_prefers_hierarchical_allreduce_for_large_payloads() {
        let m = CommModel::new(Topology::multi_node_ib(&DeviceSpec::v100(), 2, 4));
        let s = spec(CollectiveKind::AllReduce, 256 << 20, 8);
        let algo = m.allreduce_algo(&s);
        assert_eq!(algo, CollectiveAlgo::Hierarchical { groups: 4 });
        // And the choice is never worse than plain ring.
        assert!(m.time_algo(&s, algo) <= m.time_algo(&s, CollectiveAlgo::Ring));
    }

    #[test]
    fn zero_world_or_payload_is_free() {
        let m = CommModel::new(Topology::nvlink_mesh(&DeviceSpec::v100(), 1));
        assert_eq!(
            m.collective_time(&spec(CollectiveKind::AllReduce, 1 << 20, 1)),
            0.0
        );
        let m4 = CommModel::new(Topology::nvlink_mesh(&DeviceSpec::v100(), 4));
        assert_eq!(
            m4.collective_time(&spec(CollectiveKind::AllToAll, 0, 4)),
            0.0
        );
    }

    #[test]
    fn degraded_topology_still_prices_and_flags() {
        let t = Topology::from_name("warp-drive", &DeviceSpec::v100(), 4);
        let m = CommModel::new(t);
        let e = m.estimate(&spec(CollectiveKind::AllReduce, 16 << 20, 4));
        assert!(e.degraded);
        assert!(e.time_us.is_finite() && e.time_us > 0.0);
    }

    #[test]
    fn pcie_tree_all_to_all_tracks_oracle_congestion() {
        let t = Topology::pcie_tree(&DeviceSpec::titan_xp(), 8);
        let m = CommModel::new(t.clone());
        let s = spec(CollectiveKind::AllToAll, 32 << 20, 8);
        let model = m.collective_time(&s);
        let oracle = t.oracle_time(&s);
        let err = (model - oracle).abs() / oracle;
        assert!(
            err < 0.1,
            "tree a2a err {:.1}% (model {model} vs oracle {oracle})",
            err * 100.0
        );
    }
}
