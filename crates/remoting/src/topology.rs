//! Cluster topology: N nodes × M devices plus the network joining them.
//!
//! A [`TopologySpec`] is the single source of truth for *what hardware a
//! run simulates*: the nodes (each with its GPU inventory) and the
//! [`NetworkSpec`] giving the channel between any pair of nodes. The
//! harness compiles it into the gPool/gMap, per-node mapper shards, and
//! RPC channel timings; the paper's 2-node/4-GPU supernode becomes one
//! canned instance ([`TopologySpec::supernode`]) among arbitrary cluster
//! shapes ([`TopologySpec::cluster`] scales to racks).
//!
//! The `--topology` CLI grammar ([`TopologySpec::parse`]) mirrors
//! `--faults`/`--arrivals`: compact colon-separated specs like
//! `64x4:c2050@gbe`.

use crate::gpool::NodeSpec;
use crate::network::NetworkSpec;
use gpu_sim::spec::GpuModel;
use serde::{Deserialize, Serialize};

/// MIG-style partitioning capability shared by every device in a topology.
///
/// A capable device exposes `units` equal slice units (the NVIDIA A100
/// analogue: 7 compute slices; we default to a power-of-two 8 so slice
/// profiles 1g/2g/4g pack without remainder). Requests claim aligned
/// power-of-two blocks of units; the mapper's fragmentation-aware policy
/// scores devices by how much packing headroom a placement preserves.
///
/// ```
/// use remoting::topology::{SliceCapability, TopologySpec};
///
/// let t = TopologySpec::supernode().with_slices(SliceCapability::default());
/// assert_eq!(t.slices().unwrap().units, 8);
/// assert_eq!(t.label(), "supernode+mig8");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SliceCapability {
    /// Slice units per device (a power of two, at most 64).
    pub units: u8,
}

impl Default for SliceCapability {
    fn default() -> Self {
        SliceCapability { units: 8 }
    }
}

/// Machines, their GPU inventories, and the network joining them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologySpec {
    nodes: Vec<NodeSpec>,
    network: NetworkSpec,
    /// MIG-style slice capability; `None` (the default everywhere a spec
    /// is built without [`TopologySpec::with_slices`]) means whole-device
    /// placement only, preserving pre-capability behaviour.
    slices: Option<SliceCapability>,
}

impl TopologySpec {
    /// Start a builder with the default (calibrated) network.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder {
            nodes: Vec::new(),
            network: NetworkSpec::calibrated(),
        }
    }

    /// The paper's NodeA alone: Quadro 2000 + Tesla C2050.
    pub fn node_a() -> Self {
        Self::builder().node_spec(NodeSpec::node_a(0)).build()
    }

    /// The paper's emulated supernode: NodeA + NodeB over GbE.
    pub fn supernode() -> Self {
        Self::builder()
            .node_spec(NodeSpec::node_a(0))
            .node_spec(NodeSpec::node_b(1))
            .build()
    }

    /// A homogeneous cluster: `nodes` machines × `gpus_per_node` copies of
    /// `model`, calibrated network.
    pub fn cluster(nodes: usize, gpus_per_node: usize, model: GpuModel) -> Self {
        let mut b = Self::builder();
        for _ in 0..nodes {
            b = b.node(vec![model; gpus_per_node]);
        }
        b.build()
    }

    /// Wrap explicit node specs (ids preserved), calibrated network.
    pub fn of_nodes(nodes: Vec<NodeSpec>) -> Self {
        TopologySpec {
            nodes,
            network: NetworkSpec::calibrated(),
            slices: None,
        }
    }

    /// Replace the network model.
    pub fn with_network(mut self, network: NetworkSpec) -> Self {
        self.network = network;
        self
    }

    /// Mark every device as MIG-partitionable with the given capability.
    pub fn with_slices(mut self, slices: SliceCapability) -> Self {
        assert!(
            slices.units.is_power_of_two() && slices.units <= 64,
            "slice units must be a power of two <= 64, got {}",
            slices.units
        );
        self.slices = Some(slices);
        self
    }

    /// The per-device slice capability, if the topology is partitionable.
    pub fn slices(&self) -> Option<SliceCapability> {
        self.slices
    }

    /// The machines, in node-id order of declaration.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// The inter-node network.
    pub fn network(&self) -> &NetworkSpec {
        &self.network
    }

    /// Number of machines.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total device count across all nodes.
    pub fn num_devices(&self) -> usize {
        self.nodes.iter().map(|n| n.gpus.len()).sum()
    }

    /// Short label for report headers, e.g. `supernode` or
    /// `64x4:TeslaC2050`.
    pub fn label(&self) -> String {
        let mut shape = if self.nodes == vec![NodeSpec::node_a(0), NodeSpec::node_b(1)] {
            "supernode".to_string()
        } else if self.nodes == vec![NodeSpec::node_a(0)] {
            "node-a".to_string()
        } else {
            let homogeneous = self
                .nodes
                .split_first()
                .map(|(first, rest)| rest.iter().all(|n| n.gpus == first.gpus))
                .unwrap_or(true);
            match (homogeneous, self.nodes.first()) {
                (true, Some(first)) if !first.gpus.is_empty() => format!(
                    "{}x{}:{:?}",
                    self.nodes.len(),
                    first.gpus.len(),
                    first.gpus[0]
                ),
                _ => format!("{}nodes/{}devices", self.nodes.len(), self.num_devices()),
            }
        };
        if let Some(s) = self.slices {
            shape = format!("{shape}+mig{}", s.units);
        }
        let net = self.network.label();
        if net == "calibrated" {
            shape
        } else {
            format!("{shape}@{net}")
        }
    }

    /// Parse the `--topology` grammar:
    ///
    /// ```text
    /// node-a | single       the paper's NodeA alone
    /// supernode | paper     NodeA + NodeB (the default two-node world)
    /// NxM                   N nodes × M Tesla C2050s, e.g. 64x4
    /// NxM:MODEL             MODEL ∈ q2000|c2050|q4000|c2070|cpu
    /// …+mig[U]              every device partitionable into U slice units
    ///                       (power of two, default 8), e.g. supernode+mig
    /// …@NET                 network suffix, NET as in NetworkSpec::parse
    /// ```
    ///
    /// `NxM` may name at most [`MAX_TOPOLOGY_DEVICES`] devices.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (shape, net) = match s.split_once('@') {
            Some((shape, net)) => (shape, Some(NetworkSpec::parse(net)?)),
            None => (s, None),
        };
        let (shape, slices) = match shape.split_once('+') {
            Some((shape, cap)) => {
                let units = match cap.strip_prefix("mig") {
                    Some("") => 8u8,
                    Some(u) => u
                        .parse()
                        .map_err(|_| format!("bad slice units in '+{cap}' (want +mig[U])"))?,
                    None => return Err(format!("unknown capability '+{cap}' (want +mig[U])")),
                };
                if !units.is_power_of_two() || units > 64 {
                    return Err(format!(
                        "slice units in '+{cap}' must be a power of two <= 64"
                    ));
                }
                (shape, Some(SliceCapability { units }))
            }
            None => (shape, None),
        };
        let mut topo = match shape {
            "node-a" | "single" => Self::node_a(),
            "supernode" | "paper" => Self::supernode(),
            _ => {
                let (n, rest) = shape.split_once('x').ok_or_else(|| {
                    format!("unknown topology '{shape}' (want node-a|supernode|NxM[:MODEL][@NET])")
                })?;
                let (m, model) = match rest.split_once(':') {
                    Some((m, model)) => (m, parse_model(model)?),
                    None => (rest, GpuModel::TeslaC2050),
                };
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("bad node count '{n}' in topology '{shape}'"))?;
                let m: usize = m
                    .parse()
                    .map_err(|_| format!("bad devices-per-node '{m}' in topology '{shape}'"))?;
                if n == 0 || m == 0 {
                    return Err(format!("topology '{shape}' has no devices"));
                }
                if n.checked_mul(m).is_none_or(|d| d > MAX_TOPOLOGY_DEVICES) {
                    return Err(format!(
                        "topology '{shape}' has more than {MAX_TOPOLOGY_DEVICES} devices"
                    ));
                }
                Self::cluster(n, m, model)
            }
        };
        if let Some(slices) = slices {
            topo = topo.with_slices(slices);
        }
        if let Some(net) = net {
            topo = topo.with_network(net);
        }
        Ok(topo)
    }
}

/// The most devices a parsed `NxM` topology may have: 64 times the
/// 64×4 cluster, so a typo such as `99999999999x1` is an error at parse
/// time rather than an allocation the host cannot make.
pub const MAX_TOPOLOGY_DEVICES: usize = 16_384;

fn parse_model(s: &str) -> Result<GpuModel, String> {
    Ok(match s {
        "q2000" => GpuModel::Quadro2000,
        "c2050" => GpuModel::TeslaC2050,
        "q4000" => GpuModel::Quadro4000,
        "c2070" => GpuModel::TeslaC2070,
        "cpu" | "x5660" => GpuModel::XeonX5660,
        _ => {
            return Err(format!(
                "unknown GPU model '{s}' (want q2000|c2050|q4000|c2070|cpu)"
            ))
        }
    })
}

/// Incremental [`TopologySpec`] construction. Node ids are assigned densely
/// in declaration order unless an explicit [`NodeSpec`] is given.
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    nodes: Vec<NodeSpec>,
    network: NetworkSpec,
}

impl TopologyBuilder {
    /// Append a node with the next dense id and the given GPU inventory.
    pub fn node(mut self, gpus: Vec<GpuModel>) -> Self {
        let id = self.nodes.len() as u32;
        self.nodes.push(NodeSpec::new(id, gpus));
        self
    }

    /// Append `count` identical nodes.
    pub fn nodes(mut self, count: usize, gpus: &[GpuModel]) -> Self {
        for _ in 0..count {
            self = self.node(gpus.to_vec());
        }
        self
    }

    /// Append a node with an explicit id.
    pub fn node_spec(mut self, spec: NodeSpec) -> Self {
        self.nodes.push(spec);
        self
    }

    /// Set the inter-node network.
    pub fn network(mut self, network: NetworkSpec) -> Self {
        self.network = network;
        self
    }

    /// Finish. Empty topologies are representable (the harness rejects
    /// them at world-construction time, where the error message has run
    /// context).
    pub fn build(self) -> TopologySpec {
        TopologySpec {
            nodes: self.nodes,
            network: self.network,
            slices: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpool::NodeId;
    use crate::network::{CALIBRATED_GBE, SHARED_MEMORY};

    #[test]
    fn supernode_matches_paper_testbed() {
        let t = TopologySpec::supernode();
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.num_devices(), 4);
        assert_eq!(t.nodes()[0], NodeSpec::node_a(0));
        assert_eq!(t.nodes()[1], NodeSpec::node_b(1));
        assert_eq!(t.network().channel(NodeId(0), NodeId(1)), CALIBRATED_GBE);
        assert_eq!(t.network().channel(NodeId(0), NodeId(0)), SHARED_MEMORY);
        assert_eq!(t.label(), "supernode");
    }

    #[test]
    fn builder_assigns_dense_node_ids() {
        let t = TopologySpec::builder()
            .node(vec![GpuModel::TeslaC2050])
            .node(vec![GpuModel::Quadro4000, GpuModel::TeslaC2070])
            .build();
        assert_eq!(t.nodes()[0].id, NodeId(0));
        assert_eq!(t.nodes()[1].id, NodeId(1));
        assert_eq!(t.num_devices(), 3);
    }

    #[test]
    fn cluster_shape() {
        let t = TopologySpec::cluster(64, 4, GpuModel::TeslaC2050);
        assert_eq!(t.num_nodes(), 64);
        assert_eq!(t.num_devices(), 256);
        assert_eq!(t.nodes()[63].id, NodeId(63));
        assert_eq!(t.label(), "64x4:TeslaC2050");
    }

    #[test]
    fn parse_canned_and_cluster_forms() {
        assert_eq!(
            TopologySpec::parse("supernode").unwrap(),
            TopologySpec::supernode()
        );
        assert_eq!(
            TopologySpec::parse("paper").unwrap(),
            TopologySpec::supernode()
        );
        assert_eq!(
            TopologySpec::parse("node-a").unwrap(),
            TopologySpec::node_a()
        );
        let t = TopologySpec::parse("64x4").unwrap();
        assert_eq!(t, TopologySpec::cluster(64, 4, GpuModel::TeslaC2050));
        let t = TopologySpec::parse("8x2:c2070").unwrap();
        assert_eq!(t, TopologySpec::cluster(8, 2, GpuModel::TeslaC2070));
    }

    #[test]
    fn parse_network_suffix() {
        let t = TopologySpec::parse("4x1:c2050@gbe").unwrap();
        assert_eq!(t.network(), &NetworkSpec::gigabit_ethernet());
        assert_eq!(t.label(), "4x1:TeslaC2050@gbe");
        let t = TopologySpec::parse("supernode@ideal").unwrap();
        assert_eq!(t.network(), &NetworkSpec::ideal());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in ["", "64", "0x4", "4x0", "axb", "4x4:gtx", "4x4@warp"] {
            assert!(TopologySpec::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parse_rejects_topologies_beyond_the_device_ceiling() {
        let at_limit = format!("{}x4", MAX_TOPOLOGY_DEVICES / 4);
        assert!(TopologySpec::parse(&at_limit).is_ok());
        for bad in [
            format!("{}x1", MAX_TOPOLOGY_DEVICES + 1),
            format!("{}x4", MAX_TOPOLOGY_DEVICES / 4 + 1),
            "99999999999x1".to_string(),
            format!("{}x2", usize::MAX),
            format!("{0}x{0}:cpu@gbe", 1u64 << 32),
        ] {
            let err = TopologySpec::parse(&bad).expect_err(&bad);
            assert!(err.contains("more than 16384 devices"), "{bad}: {err}");
        }
    }

    #[test]
    fn parse_mig_suffix() {
        let t = TopologySpec::parse("supernode+mig").unwrap();
        assert_eq!(t.slices(), Some(SliceCapability { units: 8 }));
        assert_eq!(t.label(), "supernode+mig8");
        let t = TopologySpec::parse("4x2:c2050+mig4@gbe").unwrap();
        assert_eq!(t.slices(), Some(SliceCapability { units: 4 }));
        assert_eq!(t.label(), "4x2:TeslaC2050+mig4@gbe");
        assert_eq!(TopologySpec::parse("supernode").unwrap().slices(), None);
        for bad in ["supernode+mig3", "supernode+mig128", "supernode+tpu"] {
            assert!(TopologySpec::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn slices_capability_is_orthogonal_to_shape() {
        let plain = TopologySpec::supernode();
        let sliced = plain.clone().with_slices(SliceCapability::default());
        assert_eq!(sliced.nodes(), plain.nodes());
        assert_eq!(sliced.network(), plain.network());
        assert_ne!(sliced, plain, "capability participates in equality");
        assert_eq!(sliced.slices(), Some(SliceCapability { units: 8 }));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn with_slices_rejects_non_power_of_two() {
        let _ = TopologySpec::supernode().with_slices(SliceCapability { units: 6 });
    }

    #[test]
    fn of_nodes_preserves_explicit_ids_and_allows_empty() {
        let t = TopologySpec::of_nodes(vec![NodeSpec::new(7, vec![GpuModel::TeslaC2050])]);
        assert_eq!(t.nodes()[0].id, NodeId(7));
        let empty = TopologySpec::of_nodes(Vec::new());
        assert_eq!(empty.num_devices(), 0);
        assert_eq!(empty.label(), "0nodes/0devices");
    }
}
