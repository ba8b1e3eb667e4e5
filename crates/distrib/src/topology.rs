//! Explicit multi-GPU interconnect topologies composed from the `gpusim`
//! device catalog.
//!
//! A [`Topology`] assigns every rank a [`DeviceSpec`] and a platform shape
//! — NVLink mesh, PCIe tree, or multi-node hierarchy with an InfiniBand
//! core — including heterogeneous fleets where nodes (or individual ranks)
//! carry different GPUs. It is the single source of truth both sides of
//! the communication model consume:
//!
//! * [`crate::comms`] evaluates the closed-form α–β cost model over it;
//! * [`Topology::oracle_time`] runs the `gpusim` link-level oracle over
//!   the equivalent [`LinkGraph`], which the differential test layer diffs
//!   the α–β model against.
//!
//! Unknown topology names never fail: [`Topology::from_name`] falls back
//! to the most conservative known shape (a PCIe tree over the device's
//! link) and labels the result degraded — degraded, not wrong.

use dlperf_gpusim::interconnect::CollectiveAlgo;
use dlperf_gpusim::{CollectiveSpec, DeviceSpec, LinkGraph, LinkSpec};

/// The platform shape of a topology.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyShape {
    /// Every pair of GPUs has a direct link (NVLink-style).
    Mesh,
    /// GPUs pair up under PCIe switches below one root complex.
    PcieTree,
    /// `nodes × gpus_per_node` hierarchy: intra-node links per GPU, one
    /// shared uplink per node into an InfiniBand core switch.
    Hierarchical {
        /// Node count.
        nodes: usize,
        /// GPUs per node.
        gpus_per_node: usize,
        /// The per-node uplink spec.
        inter: LinkSpec,
    },
}

/// An explicit interconnect topology: one device per rank plus the
/// platform shape joining them.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    label: String,
    devices: Vec<DeviceSpec>,
    shape: TopologyShape,
    /// Uniform bandwidth multiplier on every link (what-if and fault axes).
    bw_scale: f64,
    degraded: Option<String>,
}

impl Topology {
    /// A homogeneous NVLink-style full mesh of `world` devices.
    ///
    /// # Panics
    /// Panics if `world` is zero.
    pub fn nvlink_mesh(device: &DeviceSpec, world: usize) -> Self {
        assert!(world > 0, "topology needs at least one rank");
        Topology {
            label: format!("nvlink-mesh-w{world}"),
            devices: vec![device.clone(); world],
            shape: TopologyShape::Mesh,
            bw_scale: 1.0,
            degraded: None,
        }
    }

    /// A homogeneous PCIe tree of `world` devices.
    ///
    /// # Panics
    /// Panics if `world` is zero.
    pub fn pcie_tree(device: &DeviceSpec, world: usize) -> Self {
        assert!(world > 0, "topology needs at least one rank");
        Topology {
            label: format!("pcie-tree-w{world}"),
            devices: vec![device.clone(); world],
            shape: TopologyShape::PcieTree,
            bw_scale: 1.0,
            degraded: None,
        }
    }

    /// A homogeneous multi-node hierarchy over an InfiniBand HDR core.
    ///
    /// # Panics
    /// Panics if `nodes` or `gpus_per_node` is zero.
    pub fn multi_node_ib(device: &DeviceSpec, nodes: usize, gpus_per_node: usize) -> Self {
        assert!(
            nodes > 0 && gpus_per_node > 0,
            "hierarchy needs nodes and GPUs"
        );
        Topology {
            label: format!("ib-{nodes}x{gpus_per_node}"),
            devices: vec![device.clone(); nodes * gpus_per_node],
            shape: TopologyShape::Hierarchical {
                nodes,
                gpus_per_node,
                inter: LinkSpec::ib_hdr(),
            },
            bw_scale: 1.0,
            degraded: None,
        }
    }

    /// A heterogeneous full-mesh fleet: one device per rank; each pairwise
    /// link is the bottleneck of the two endpoints' links.
    ///
    /// # Panics
    /// Panics if `devices` is empty.
    pub fn heterogeneous_mesh(devices: Vec<DeviceSpec>) -> Self {
        assert!(!devices.is_empty(), "topology needs at least one rank");
        Topology {
            label: format!("hetero-mesh-w{}", devices.len()),
            devices,
            shape: TopologyShape::Mesh,
            bw_scale: 1.0,
            degraded: None,
        }
    }

    /// A heterogeneous multi-node hierarchy: `devices` filled node by node
    /// (`gpus_per_node` per node) over an InfiniBand HDR core — e.g. one
    /// V100 node plus one P100 node.
    ///
    /// # Panics
    /// Panics if `devices.len()` is not a positive multiple of
    /// `gpus_per_node`.
    pub fn multi_node_ib_heterogeneous(devices: Vec<DeviceSpec>, gpus_per_node: usize) -> Self {
        assert!(
            gpus_per_node > 0 && !devices.is_empty() && devices.len().is_multiple_of(gpus_per_node),
            "devices must fill whole nodes"
        );
        let nodes = devices.len() / gpus_per_node;
        Topology {
            label: format!("hetero-ib-{nodes}x{gpus_per_node}"),
            devices,
            shape: TopologyShape::Hierarchical {
                nodes,
                gpus_per_node,
                inter: LinkSpec::ib_hdr(),
            },
            bw_scale: 1.0,
            degraded: None,
        }
    }

    /// The natural single-node topology for a device: an NVLink mesh for
    /// NVLink-class parts, a PCIe tree otherwise. This is what every
    /// topology-unaware call site gets, so flat-model behavior upgrades in
    /// place.
    ///
    /// # Panics
    /// Panics if `world` is zero.
    pub fn for_device(device: &DeviceSpec, world: usize) -> Self {
        if device.has_nvlink() {
            Self::nvlink_mesh(device, world)
        } else {
            Self::pcie_tree(device, world)
        }
    }

    /// Resolves a topology by name for `world` ranks of `device`:
    /// `"auto"`, `"nvlink"`/`"mesh"`, `"pcie"`/`"tree"`, or `"ib<N>x<G>"`
    /// (e.g. `"ib2x4"`). Matching is case-insensitive.
    ///
    /// Unknown names, and hierarchies whose `N×G` does not equal `world`,
    /// fall back to the most conservative shape (PCIe tree) with a
    /// degraded marker instead of failing — a sweep over topology names
    /// always prices every cell.
    ///
    /// # Panics
    /// Panics if `world` is zero.
    pub fn from_name(name: &str, device: &DeviceSpec, world: usize) -> Self {
        assert!(world > 0, "topology needs at least one rank");
        let lower = name.to_ascii_lowercase();
        if lower == "auto" {
            return Self::for_device(device, world);
        }
        if lower == "nvlink" || lower == "mesh" {
            return Self::nvlink_mesh(device, world);
        }
        if lower == "pcie" || lower == "tree" {
            return Self::pcie_tree(device, world);
        }
        if let Some(rest) = lower.strip_prefix("ib") {
            if let Some((n, g)) = rest.split_once('x') {
                if let (Ok(n), Ok(g)) = (n.parse::<usize>(), g.parse::<usize>()) {
                    if n > 0 && g > 0 && n * g == world {
                        return Self::multi_node_ib(device, n, g);
                    }
                    let mut t = Self::pcie_tree(device, world);
                    t.label = format!("{lower}-degraded-w{world}");
                    t.degraded = Some(format!(
                        "topology `{name}` is {n}x{g} but world is {world}; \
                         modeled as a PCIe tree (conservative)"
                    ));
                    return t;
                }
            }
        }
        let mut t = Self::pcie_tree(device, world);
        t.label = format!("unknown-degraded-w{world}");
        t.degraded = Some(format!(
            "unknown topology `{name}`; modeled as a PCIe tree (conservative)"
        ));
        t
    }

    /// The canonical topology catalog at `world` ranks, used by the
    /// differential test layer: NVLink mesh (V100), PCIe tree (TITAN Xp),
    /// a 2-node IB hierarchy when `world` splits evenly, and a
    /// heterogeneous V100/P100 mesh.
    ///
    /// # Panics
    /// Panics if `world` is zero.
    pub fn catalog(world: usize) -> Vec<Topology> {
        assert!(world > 0, "topology needs at least one rank");
        let mut out = vec![
            Self::nvlink_mesh(&DeviceSpec::v100(), world),
            Self::pcie_tree(&DeviceSpec::titan_xp(), world),
        ];
        if world >= 2 && world.is_multiple_of(2) {
            out.push(Self::multi_node_ib(&DeviceSpec::v100(), 2, world / 2));
        }
        let half = world.div_ceil(2);
        let mut fleet = vec![DeviceSpec::v100(); half];
        fleet.extend(vec![DeviceSpec::p100(); world - half]);
        out.push(Self::heterogeneous_mesh(fleet));
        out
    }

    /// Display label, unique per shape and world within the catalog.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Rank count.
    pub fn world(&self) -> usize {
        self.devices.len()
    }

    /// The per-rank devices.
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.devices
    }

    /// The platform shape.
    pub fn shape(&self) -> &TopologyShape {
        &self.shape
    }

    /// The degradation note, when this topology is a conservative fallback.
    pub fn degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// The uniform bandwidth multiplier applied to every link.
    pub fn bandwidth_scale(&self) -> f64 {
        self.bw_scale
    }

    /// This topology with every link's bandwidth scaled by `factor`
    /// (composes multiplicatively with any existing scale).
    ///
    /// # Panics
    /// Panics if `factor` is not positive and finite.
    pub fn scaled_bandwidth(&self, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "bandwidth factor must be positive"
        );
        let mut t = self.clone();
        t.bw_scale *= factor;
        t
    }

    /// Per-rank link specs with the bandwidth scale applied.
    pub(crate) fn rank_links(&self) -> Vec<LinkSpec> {
        self.devices
            .iter()
            .map(|d| d.link().scaled(self.bw_scale))
            .collect()
    }

    /// Collective launch overhead (µs): the slowest participating device
    /// bounds the fleet, exactly as the straggler bounds the payload.
    pub fn launch_us(&self) -> f64 {
        self.devices
            .iter()
            .map(|d| d.kernel_start_us)
            .fold(0.0, f64::max)
    }

    /// The equivalent link-level graph the `gpusim` oracle simulates.
    pub fn link_graph(&self) -> LinkGraph {
        let links = self.rank_links();
        match &self.shape {
            TopologyShape::Mesh => LinkGraph::heterogeneous_mesh(&links),
            // The tree's shared fabric runs at the slowest rank's link: one
            // slow card on the bus drags every hop, which is how mixed PCIe
            // fleets behave.
            TopologyShape::PcieTree => {
                let bottleneck = links
                    .iter()
                    .skip(1)
                    .fold(links[0], |acc, l| acc.bottleneck(l));
                LinkGraph::pcie_tree(self.world(), bottleneck)
            }
            TopologyShape::Hierarchical {
                gpus_per_node,
                inter,
                ..
            } => LinkGraph::hierarchical_heterogeneous(
                &links,
                *gpus_per_node,
                inter.scaled(self.bw_scale),
            ),
        }
    }

    /// Link-level oracle time (µs) for `spec` under `algo`, including the
    /// launch overhead — the ground truth the α–β model is diffed against.
    ///
    /// # Panics
    /// Panics if `spec.world` does not match the topology.
    pub fn oracle_time_algo(&self, spec: &CollectiveSpec, algo: CollectiveAlgo) -> f64 {
        assert_eq!(
            spec.world as usize,
            self.world(),
            "collective world must match the topology"
        );
        if self.world() <= 1 || spec.bytes_per_rank == 0 {
            return 0.0;
        }
        self.link_graph().simulate_algo(spec, algo) + self.launch_us()
    }

    /// Link-level oracle time (µs) under the default (ring) schedule.
    ///
    /// # Panics
    /// Panics if `spec.world` does not match the topology.
    pub fn oracle_time(&self, spec: &CollectiveSpec) -> f64 {
        self.oracle_time_algo(spec, CollectiveAlgo::Ring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlperf_gpusim::CollectiveKind;

    #[test]
    fn for_device_classifies_by_link_class() {
        assert_eq!(
            Topology::for_device(&DeviceSpec::v100(), 4).shape(),
            &TopologyShape::Mesh
        );
        assert_eq!(
            Topology::for_device(&DeviceSpec::titan_xp(), 4).shape(),
            &TopologyShape::PcieTree
        );
    }

    #[test]
    fn unknown_name_degrades_not_fails() {
        let t = Topology::from_name("quantum-fabric", &DeviceSpec::v100(), 4);
        assert!(t.degraded().is_some());
        assert_eq!(t.shape(), &TopologyShape::PcieTree);
        assert_eq!(t.world(), 4);
        // Mismatched hierarchy shape degrades the same way.
        let bad = Topology::from_name("ib2x3", &DeviceSpec::v100(), 4);
        assert!(bad.degraded().unwrap().contains("2x3"));
        // A matching hierarchy resolves cleanly.
        let ok = Topology::from_name("ib2x2", &DeviceSpec::v100(), 4);
        assert!(ok.degraded().is_none());
        assert!(matches!(
            ok.shape(),
            TopologyShape::Hierarchical {
                nodes: 2,
                gpus_per_node: 2,
                ..
            }
        ));
    }

    #[test]
    fn catalog_covers_the_shapes_and_stays_deterministic() {
        let a = Topology::catalog(8);
        let b = Topology::catalog(8);
        assert_eq!(a, b);
        assert!(a.iter().any(|t| matches!(t.shape(), TopologyShape::Mesh)));
        assert!(a
            .iter()
            .any(|t| matches!(t.shape(), TopologyShape::PcieTree)));
        assert!(a
            .iter()
            .any(|t| matches!(t.shape(), TopologyShape::Hierarchical { .. })));
        let labels: std::collections::HashSet<_> = a.iter().map(|t| t.label()).collect();
        assert_eq!(labels.len(), a.len(), "labels must be unique");
    }

    #[test]
    fn oracle_scales_down_with_bandwidth_up() {
        let t = Topology::multi_node_ib(&DeviceSpec::v100(), 2, 2);
        let spec = CollectiveSpec {
            kind: CollectiveKind::AllReduce,
            bytes_per_rank: 64 << 20,
            world: 4,
        };
        let base = t.oracle_time(&spec);
        let fast = t.scaled_bandwidth(4.0).oracle_time(&spec);
        assert!(
            fast < base,
            "4x bandwidth must not slow the oracle: {fast} vs {base}"
        );
    }
}
