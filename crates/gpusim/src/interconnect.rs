//! Link-level interconnect modeling: α–β link specs and a step-by-step
//! collective oracle over an explicit link graph.
//!
//! A single per-device bandwidth number cannot price a collective on a
//! real multi-GPU platform, because real platforms are *graphs*:
//! NVLink meshes, PCIe trees that funnel peer traffic through switches and
//! a root complex, and multi-node clusters whose node uplinks are shared by
//! every GPU in the node. This module provides
//!
//! * [`LinkSpec`] — one physical link as an (α, β) pair: per-hop latency
//!   and per-direction bandwidth;
//! * [`LinkGraph`] — an explicit undirected link graph over GPU endpoints
//!   plus internal switch nodes, with canonical constructors for the three
//!   platform shapes (full mesh, PCIe tree, hierarchical multi-node);
//! * [`LinkGraph::simulate`] — the **oracle**: it schedules the standard
//!   collective algorithms step by step, routes every transfer over the
//!   graph, charges each link's per-direction congestion, and sums the
//!   per-step critical path.
//!
//! The oracle is deliberately *not* closed-form. The α–β model in
//! `dlperf-distrib` approximates it analytically, and the differential test
//! layer (`tests/comms.rs`) pins the approximation error per collective and
//! topology family — the same discipline `tests/accuracy.rs` applies to
//! kernel models against the kernel simulator.

use serde::{Deserialize, Serialize};

use crate::collective::{CollectiveKind, CollectiveSpec};
use crate::device::DeviceSpec;

/// α–β parameters of one physical link: `α` = per-hop latency (µs),
/// `β` = per-direction bandwidth (GB/s).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Per-direction link bandwidth in GB/s.
    pub bw_gbs: f64,
    /// Per-hop latency in microseconds.
    pub latency_us: f64,
}

impl LinkSpec {
    /// The GPU-to-GPU link a device ships with (NVLink for the Teslas,
    /// PCIe peer-to-peer for TITAN Xp / T4).
    pub fn of(device: &DeviceSpec) -> Self {
        LinkSpec {
            bw_gbs: device.interconnect_bw_gbs,
            latency_us: device.interconnect_latency_us,
        }
    }

    /// An InfiniBand HDR-class node uplink: 25 GB/s per direction, ~2 µs
    /// per hop (NIC + switch traversal).
    pub fn ib_hdr() -> Self {
        LinkSpec {
            bw_gbs: 25.0,
            latency_us: 2.0,
        }
    }

    /// Bandwidth in bytes/µs.
    pub fn bytes_per_us(&self) -> f64 {
        self.bw_gbs * 1e3
    }

    /// This link with bandwidth scaled by `factor` (latency unchanged).
    ///
    /// # Panics
    /// Panics if `factor` is not positive and finite.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "bandwidth factor must be positive"
        );
        LinkSpec {
            bw_gbs: self.bw_gbs * factor,
            latency_us: self.latency_us,
        }
    }

    /// The slower of two links: min bandwidth, max latency. This is the
    /// effective wire between heterogeneous endpoints.
    pub fn bottleneck(&self, other: &LinkSpec) -> Self {
        LinkSpec {
            bw_gbs: self.bw_gbs.min(other.bw_gbs),
            latency_us: self.latency_us.max(other.latency_us),
        }
    }
}

/// One undirected link between two graph nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// First endpoint (node index).
    pub a: usize,
    /// Second endpoint (node index).
    pub b: usize,
    /// The link's α–β parameters.
    pub spec: LinkSpec,
}

/// An explicit interconnect graph: GPU endpoints `0..world` plus internal
/// switch/bridge nodes, joined by α–β links.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkGraph {
    /// Total node count (GPUs first, then switches).
    nodes: usize,
    /// GPU endpoint count; endpoints are node ids `0..world`.
    world: usize,
    /// Undirected links.
    links: Vec<Link>,
}

impl LinkGraph {
    /// A fully connected mesh of `world` GPUs (the NVLink shape: every
    /// pair has a direct link).
    ///
    /// # Panics
    /// Panics if `world` is zero.
    pub fn full_mesh(world: usize, link: LinkSpec) -> Self {
        assert!(world > 0, "link graph needs at least one GPU");
        let mut links = Vec::new();
        for a in 0..world {
            for b in (a + 1)..world {
                links.push(Link { a, b, spec: link });
            }
        }
        LinkGraph {
            nodes: world,
            world,
            links,
        }
    }

    /// A fully connected mesh over heterogeneous endpoints: the link
    /// between two GPUs is the [`LinkSpec::bottleneck`] of their specs.
    ///
    /// # Panics
    /// Panics if `links` is empty.
    pub fn heterogeneous_mesh(links: &[LinkSpec]) -> Self {
        assert!(!links.is_empty(), "link graph needs at least one GPU");
        let world = links.len();
        let mut out = Vec::new();
        for a in 0..world {
            for b in (a + 1)..world {
                out.push(Link {
                    a,
                    b,
                    spec: links[a].bottleneck(&links[b]),
                });
            }
        }
        LinkGraph {
            nodes: world,
            world,
            links: out,
        }
    }

    /// A PCIe tree: GPUs pair up under leaf switches, leaf switches hang
    /// off the root complex. Peer traffic between GPUs under one switch
    /// stays local; everything else funnels through the root and congests.
    ///
    /// # Panics
    /// Panics if `world` is zero.
    pub fn pcie_tree(world: usize, link: LinkSpec) -> Self {
        assert!(world > 0, "link graph needs at least one GPU");
        let switches = world.div_ceil(2);
        let root = world + switches;
        let mut links = Vec::new();
        for g in 0..world {
            links.push(Link {
                a: g,
                b: world + g / 2,
                spec: link,
            });
        }
        for s in 0..switches {
            links.push(Link {
                a: world + s,
                b: root,
                spec: link,
            });
        }
        LinkGraph {
            nodes: root + 1,
            world,
            links,
        }
    }

    /// A multi-node hierarchy: each node's GPUs share an intra-node switch
    /// (NVLink-class), each node switch uplinks to one core switch over
    /// `inter` (InfiniBand-class). Inter-node traffic from all GPUs of a
    /// node shares that node's single uplink.
    ///
    /// # Panics
    /// Panics if `nodes` or `gpus_per_node` is zero.
    pub fn hierarchical(
        nodes: usize,
        gpus_per_node: usize,
        intra: LinkSpec,
        inter: LinkSpec,
    ) -> Self {
        assert!(
            nodes > 0 && gpus_per_node > 0,
            "hierarchy needs nodes and GPUs"
        );
        let world = nodes * gpus_per_node;
        let core = world + nodes;
        let mut links = Vec::new();
        for g in 0..world {
            links.push(Link {
                a: g,
                b: world + g / gpus_per_node,
                spec: intra,
            });
        }
        for n in 0..nodes {
            links.push(Link {
                a: world + n,
                b: core,
                spec: inter,
            });
        }
        LinkGraph {
            nodes: core + 1,
            world,
            links,
        }
    }

    /// Like [`LinkGraph::hierarchical`], with per-GPU intra-node links —
    /// the heterogeneous-fleet shape (e.g. one NVLink node, one PCIe node).
    ///
    /// # Panics
    /// Panics if `intra.len()` is not a positive multiple of
    /// `gpus_per_node`.
    pub fn hierarchical_heterogeneous(
        intra: &[LinkSpec],
        gpus_per_node: usize,
        inter: LinkSpec,
    ) -> Self {
        assert!(
            gpus_per_node > 0 && !intra.is_empty() && intra.len().is_multiple_of(gpus_per_node),
            "per-GPU links must fill whole nodes"
        );
        let world = intra.len();
        let nodes = world / gpus_per_node;
        let core = world + nodes;
        let mut links = Vec::new();
        for (g, spec) in intra.iter().enumerate() {
            links.push(Link {
                a: g,
                b: world + g / gpus_per_node,
                spec: *spec,
            });
        }
        for n in 0..nodes {
            links.push(Link {
                a: world + n,
                b: core,
                spec: inter,
            });
        }
        LinkGraph {
            nodes: core + 1,
            world,
            links,
        }
    }

    /// GPU endpoint count.
    pub fn world(&self) -> usize {
        self.world
    }

    /// The links of the graph.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Returns the graph with every link's bandwidth scaled by `factor`.
    ///
    /// # Panics
    /// Panics if `factor` is not positive and finite.
    pub fn scaled_bandwidth(&self, factor: f64) -> Self {
        let mut g = self.clone();
        for l in &mut g.links {
            l.spec = l.spec.scaled(factor);
        }
        g
    }

    /// Shortest path from `src` to `dst` as a sequence of link indices
    /// (BFS, deterministic tie-break by node index). `None` when the
    /// endpoints are disconnected.
    fn route(&self, src: usize, dst: usize) -> Option<Vec<usize>> {
        if src == dst {
            return Some(Vec::new());
        }
        let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.nodes];
        for (i, l) in self.links.iter().enumerate() {
            adj[l.a].push((l.b, i));
            adj[l.b].push((l.a, i));
        }
        for nbrs in &mut adj {
            nbrs.sort_unstable();
        }
        let mut prev: Vec<Option<(usize, usize)>> = vec![None; self.nodes];
        let mut queue = std::collections::VecDeque::from([src]);
        let mut seen = vec![false; self.nodes];
        seen[src] = true;
        while let Some(u) = queue.pop_front() {
            if u == dst {
                break;
            }
            for &(v, li) in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    prev[v] = Some((u, li));
                    queue.push_back(v);
                }
            }
        }
        if !seen[dst] {
            return None;
        }
        let mut path = Vec::new();
        let mut at = dst;
        while at != src {
            let (p, li) = prev[at].expect("walked from src");
            path.push(li);
            at = p;
        }
        path.reverse();
        Some(path)
    }

    /// Wall time (µs) of one *step*: a set of simultaneous point-to-point
    /// transfers `(src, dst, bytes)`. Each transfer is routed over the
    /// graph; a link crossed by `k` same-direction transfers gives each of
    /// them `β / k`; a transfer's rate is its worst crossed link; the step
    /// takes as long as its slowest transfer (lockstep, as NCCL schedules
    /// rounds). Unroutable transfers are skipped — the caller decides what
    /// degraded means.
    fn step_time(&self, transfers: &[(usize, usize, f64)]) -> f64 {
        // Directed load per link: (link index, a->b?) -> count.
        let mut load = vec![[0u32; 2]; self.links.len()];
        let mut routed: Vec<(Vec<usize>, f64, usize)> = Vec::new();
        for &(src, dst, bytes) in transfers {
            if src == dst || bytes <= 0.0 {
                continue;
            }
            let Some(path) = self.route(src, dst) else {
                continue;
            };
            let mut at = src;
            for &li in &path {
                let l = &self.links[li];
                let fwd = l.a == at;
                load[li][usize::from(!fwd)] += 1;
                at = if fwd { l.b } else { l.a };
            }
            routed.push((path, bytes, src));
        }
        let mut worst = 0.0f64;
        for (path, bytes, src) in &routed {
            let mut at = *src;
            let mut latency = 0.0;
            let mut rate = f64::INFINITY;
            for &li in path {
                let l = &self.links[li];
                let fwd = l.a == at;
                let shares = f64::from(load[li][usize::from(!fwd)].max(1));
                latency += l.spec.latency_us;
                rate = rate.min(l.spec.bytes_per_us() / shares);
                at = if fwd { l.b } else { l.a };
            }
            worst = worst.max(latency + bytes / rate.max(1e-9));
        }
        worst
    }

    /// The oracle: simulated wire time (µs) of `spec` over this graph,
    /// scheduling the standard algorithms step by step.
    ///
    /// * `AllReduce` — ring reduce-scatter + ring all-gather over the GPU
    ///   endpoints in index order: `2(w−1)` steps of `bytes/w` chunks.
    /// * `AllGather` — the ring all-gather half alone: `w−1` steps.
    /// * `AllToAll` — `w−1` rounds; in round `r` rank `i` sends its
    ///   `bytes/w` slice to rank `(i+r) mod w`.
    ///
    /// Pure wire time: launch overhead is a per-platform constant the
    /// layers above add symmetrically.
    ///
    /// # Panics
    /// Panics if `spec.world` is zero or does not match the graph.
    pub fn simulate(&self, spec: &CollectiveSpec) -> f64 {
        self.simulate_algo(spec, CollectiveAlgo::Ring)
    }

    /// Like [`LinkGraph::simulate`], scheduling the requested all-reduce
    /// variant. The variant applies to `AllReduce` only: all-to-all is
    /// always pairwise rounds and all-gather always a ring, so for those
    /// kinds every variant prices identically. A hierarchical request
    /// whose group size does not divide the world falls back to the ring
    /// schedule (degraded, not wrong).
    ///
    /// # Panics
    /// Panics if `spec.world` is zero or does not match the graph.
    pub fn simulate_algo(&self, spec: &CollectiveSpec, algo: CollectiveAlgo) -> f64 {
        assert!(spec.world > 0, "collective needs at least one rank");
        assert_eq!(
            spec.world as usize, self.world,
            "collective world must match the graph"
        );
        let w = self.world;
        if w == 1 {
            return 0.0;
        }
        let bytes = spec.bytes_per_rank as f64;
        let chunk = bytes / w as f64;
        let ring: Vec<(usize, usize, f64)> = (0..w).map(|i| (i, (i + 1) % w, chunk)).collect();
        match spec.kind {
            CollectiveKind::AllReduce => match algo {
                CollectiveAlgo::Ring => 2.0 * (w - 1) as f64 * self.step_time(&ring),
                CollectiveAlgo::Tree => self.tree_allreduce(bytes),
                CollectiveAlgo::Hierarchical { groups }
                    if groups > 0 && groups < w && w.is_multiple_of(groups) =>
                {
                    self.hierarchical_allreduce(bytes, groups)
                }
                CollectiveAlgo::Hierarchical { .. } => 2.0 * (w - 1) as f64 * self.step_time(&ring),
            },
            CollectiveKind::AllGather => (w - 1) as f64 * self.step_time(&ring),
            CollectiveKind::AllToAll => (1..w)
                .map(|r| {
                    let round: Vec<(usize, usize, f64)> =
                        (0..w).map(|i| (i, (i + r) % w, chunk)).collect();
                    self.step_time(&round)
                })
                .sum(),
        }
    }

    /// Binomial-tree all-reduce: reduce up the tree (`⌈log₂ w⌉` levels of
    /// full-payload transfers), then broadcast back down (mirror levels,
    /// same per-level times by link symmetry).
    fn tree_allreduce(&self, bytes: f64) -> f64 {
        let w = self.world;
        let mut total = 0.0;
        let mut span = 1usize;
        while span < w {
            let level: Vec<(usize, usize, f64)> = (0..w)
                .step_by(span * 2)
                .filter(|&i| i + span < w)
                .map(|i| (i + span, i, bytes))
                .collect();
            total += self.step_time(&level);
            span *= 2;
        }
        2.0 * total
    }

    /// Hierarchical all-reduce over `groups`-sized nodes: ring
    /// reduce-scatter inside each node, ring all-reduce over the node
    /// leaders (rank `n·g`), ring all-gather back inside each node.
    fn hierarchical_allreduce(&self, bytes: f64, g: usize) -> f64 {
        let w = self.world;
        let m = w / g;
        let mut total = 0.0;
        if g > 1 {
            let intra: Vec<(usize, usize, f64)> = (0..w)
                .map(|i| {
                    let (n, j) = (i / g, i % g);
                    (i, n * g + (j + 1) % g, bytes / g as f64)
                })
                .collect();
            // Reduce-scatter + final all-gather: 2(g−1) intra steps.
            total += 2.0 * (g - 1) as f64 * self.step_time(&intra);
        }
        if m > 1 {
            let leaders: Vec<(usize, usize, f64)> = (0..m)
                .map(|n| (n * g, ((n + 1) % m) * g, bytes / (g * m) as f64))
                .collect();
            total += 2.0 * (m - 1) as f64 * self.step_time(&leaders);
        }
        total
    }
}

/// Which all-reduce schedule to run (see [`LinkGraph::simulate_algo`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollectiveAlgo {
    /// Ring reduce-scatter + all-gather (bandwidth-optimal).
    Ring,
    /// Binomial tree (latency-optimal for small payloads).
    Tree,
    /// Per-node rings with a leader ring across nodes (uplink-friendly).
    Hierarchical {
        /// GPUs per node.
        groups: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: CollectiveKind, bytes: u64, world: u32) -> CollectiveSpec {
        CollectiveSpec {
            kind,
            bytes_per_rank: bytes,
            world,
        }
    }

    #[test]
    fn mesh_ring_matches_alpha_beta_exactly() {
        // On a full mesh every ring transfer has its own link: the oracle
        // must equal the closed form 2(w−1)(α + bytes/(wβ)) exactly.
        let link = LinkSpec {
            bw_gbs: 100.0,
            latency_us: 2.0,
        };
        let g = LinkGraph::full_mesh(4, link);
        let bytes = 64u64 << 20;
        let t = g.simulate(&spec(CollectiveKind::AllReduce, bytes, 4));
        let closed = 2.0 * 3.0 * (2.0 + (bytes as f64 / 4.0) / link.bytes_per_us());
        assert!((t - closed).abs() < 1e-6, "{t} vs {closed}");
    }

    #[test]
    fn pcie_tree_congests_all_to_all() {
        let link = LinkSpec {
            bw_gbs: 11.0,
            latency_us: 9.0,
        };
        let mesh = LinkGraph::full_mesh(8, link);
        let tree = LinkGraph::pcie_tree(8, link);
        let s = spec(CollectiveKind::AllToAll, 32 << 20, 8);
        let tm = mesh.simulate(&s);
        let tt = tree.simulate(&s);
        assert!(
            tt > 1.5 * tm,
            "tree {tt} should congest well past mesh {tm}"
        );
    }

    #[test]
    fn hierarchy_bottlenecks_on_the_uplink() {
        let intra = LinkSpec {
            bw_gbs: 130.0,
            latency_us: 5.0,
        };
        let g = LinkGraph::hierarchical(2, 4, intra, LinkSpec::ib_hdr());
        let one_node = LinkGraph::full_mesh(8, intra);
        let s = spec(CollectiveKind::AllReduce, 64 << 20, 8);
        assert!(g.simulate(&s) > one_node.simulate(&s));
    }

    #[test]
    fn monotone_in_bytes_and_bandwidth() {
        let g = LinkGraph::pcie_tree(
            4,
            LinkSpec {
                bw_gbs: 11.0,
                latency_us: 9.0,
            },
        );
        let t1 = g.simulate(&spec(CollectiveKind::AllReduce, 1 << 20, 4));
        let t2 = g.simulate(&spec(CollectiveKind::AllReduce, 1 << 24, 4));
        assert!(t2 > t1);
        let faster = g.scaled_bandwidth(2.0);
        let t3 = faster.simulate(&spec(CollectiveKind::AllReduce, 1 << 24, 4));
        assert!(t3 < t2);
    }

    #[test]
    fn single_rank_is_free() {
        let g = LinkGraph::full_mesh(
            1,
            LinkSpec {
                bw_gbs: 100.0,
                latency_us: 1.0,
            },
        );
        assert_eq!(
            g.simulate(&spec(CollectiveKind::AllReduce, 1 << 20, 1)),
            0.0
        );
    }

    #[test]
    fn heterogeneous_mesh_uses_bottleneck_links() {
        let fast = LinkSpec {
            bw_gbs: 130.0,
            latency_us: 5.0,
        };
        let slow = LinkSpec {
            bw_gbs: 11.0,
            latency_us: 9.0,
        };
        let hetero = LinkGraph::heterogeneous_mesh(&[fast, fast, slow, slow]);
        let all_fast = LinkGraph::full_mesh(4, fast);
        let s = spec(CollectiveKind::AllReduce, 32 << 20, 4);
        assert!(hetero.simulate(&s) > all_fast.simulate(&s));
    }

    #[test]
    #[should_panic(expected = "must match the graph")]
    fn world_mismatch_panics() {
        let g = LinkGraph::full_mesh(
            4,
            LinkSpec {
                bw_gbs: 100.0,
                latency_us: 1.0,
            },
        );
        g.simulate(&spec(CollectiveKind::AllReduce, 1, 8));
    }
}
