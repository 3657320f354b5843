//! Cluster-level placement: tenant → node.
//!
//! Strings schedules in two tiers. The [`crate::mapper`] picks a *device*
//! for each request from whatever gPool (or per-node shard) its balancer
//! sees; this module sits one level above and picks the *node* a tenant's
//! frontend runs on. Serve mode asks the [`ClusterPlacer`] once per tenant
//! and the answer is sticky — a tenant's frontend process does not migrate
//! between machines mid-run (its CUDA contexts and pinned buffers live
//! there), so only node loss invalidates an assignment.
//!
//! Placement is deterministic by construction: policies depend only on the
//! topology and the order of placement calls, never on wall-clock or
//! ambient randomness, which is what keeps cluster serve runs byte-stable
//! across reruns and worker-thread counts.

use remoting::gpool::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How tenants spread across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodePolicy {
    /// Static striping: tenant *t* → node *t mod N*. The historical serve
    /// default (and byte-identical to it on dense node ids).
    RoundRobin,
    /// Multiplicative hash of the tenant id — decorrelates adjacent
    /// tenants from adjacent nodes.
    Hash,
    /// Fewest-tenants-first with lowest-node-id tie-break.
    LeastTenants,
}

impl NodePolicy {
    /// Every shipped placement policy, in registry order.
    pub const ALL: [NodePolicy; 3] = [
        NodePolicy::RoundRobin,
        NodePolicy::Hash,
        NodePolicy::LeastTenants,
    ];

    /// Parse the `--placement` grammar: `rr` | `hash` | `least`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "rr" | "round-robin" => Ok(NodePolicy::RoundRobin),
            "hash" => Ok(NodePolicy::Hash),
            "least" | "least-tenants" => Ok(NodePolicy::LeastTenants),
            _ => Err(format!("unknown placement '{s}' (want rr|hash|least)")),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            NodePolicy::RoundRobin => "rr",
            NodePolicy::Hash => "hash",
            NodePolicy::LeastTenants => "least",
        }
    }

    /// Choose a slot for `tenant` from `live` (slot indices into `nodes`
    /// of live nodes, ascending, never empty); `counts` holds the tenants
    /// currently assigned per slot.
    fn pick(self, tenant: u32, live: &[usize], counts: &[usize], nodes: &[NodeId]) -> usize {
        match self {
            NodePolicy::RoundRobin => live[tenant as usize % live.len()],
            NodePolicy::Hash => {
                let h = (tenant as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
                live[(h % live.len() as u64) as usize]
            }
            NodePolicy::LeastTenants => *live
                .iter()
                .min_by_key(|&&s| (counts[s], nodes[s]))
                .expect("non-empty live set"),
        }
    }
}

/// Provenance of one tenant's placement: the `explain` report's answer
/// to "why is this request on that node".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementDecision {
    /// The node the tenant is stuck to.
    pub node: NodeId,
    /// Label of the policy that picked it (e.g. `"hash"`).
    pub policy: &'static str,
    /// How many tenants share the node at query time.
    pub tenants_on_node: usize,
}

/// Sticky tenant → node assignment over a fixed node set.
#[derive(Debug, Clone)]
pub struct ClusterPlacer {
    policy: NodePolicy,
    nodes: Vec<NodeId>,
    /// tenant → slot in `nodes`. BTreeMap for deterministic iteration.
    assigned: BTreeMap<u32, usize>,
    /// Live tenants per `nodes` slot (LeastTenants bookkeeping).
    counts: Vec<usize>,
    /// Slots whose node has been lost (no new placements).
    lost: Vec<bool>,
}

impl ClusterPlacer {
    /// A placer over the given nodes. Panics on an empty node set — there
    /// is nowhere to place anything.
    pub fn new(nodes: &[NodeId], policy: NodePolicy) -> Self {
        assert!(!nodes.is_empty(), "placement over zero nodes");
        ClusterPlacer {
            policy,
            nodes: nodes.to_vec(),
            assigned: BTreeMap::new(),
            counts: vec![0; nodes.len()],
            lost: vec![false; nodes.len()],
        }
    }

    /// Label of the policy driving this placer.
    pub fn policy_label(&self) -> &'static str {
        self.policy.label()
    }

    /// Place `tenant`, reusing its sticky assignment if one exists and the
    /// node is still live.
    pub fn place(&mut self, tenant: u32) -> NodeId {
        if let Some(&slot) = self.assigned.get(&tenant) {
            if !self.lost[slot] {
                return self.nodes[slot];
            }
            // Node died under the tenant: fall through and re-place.
            self.assigned.remove(&tenant);
        }
        let slot = self.pick_slot(tenant);
        self.assigned.insert(tenant, slot);
        self.counts[slot] += 1;
        self.nodes[slot]
    }

    fn pick_slot(&self, tenant: u32) -> usize {
        let live: Vec<usize> = (0..self.nodes.len()).filter(|&s| !self.lost[s]).collect();
        assert!(!live.is_empty(), "placement with every node lost");
        let slot = self.policy.pick(tenant, &live, &self.counts, &self.nodes);
        assert!(
            live.binary_search(&slot).is_ok(),
            "policy {} picked slot {slot}, which is not live",
            self.policy.label()
        );
        slot
    }

    /// The sticky assignment for `tenant`, if placed and still valid.
    pub fn assignment(&self, tenant: u32) -> Option<NodeId> {
        self.assigned
            .get(&tenant)
            .filter(|&&slot| !self.lost[slot])
            .map(|&slot| self.nodes[slot])
    }

    /// Placement provenance for `tenant`: where it sits, which policy
    /// put it there, and how crowded the node is — the `explain` report's
    /// placement line.
    pub fn decision(&self, tenant: u32) -> Option<PlacementDecision> {
        self.assignment(tenant).map(|node| PlacementDecision {
            node,
            policy: self.policy.label(),
            tenants_on_node: self.tenants_on(node),
        })
    }

    /// Node loss: invalidate its assignments. Returns the evicted tenants
    /// in ascending order; their next [`ClusterPlacer::place`] call lands
    /// on a surviving node.
    pub fn node_lost(&mut self, node: NodeId) -> Vec<u32> {
        let Some(slot) = self.nodes.iter().position(|&n| n == node) else {
            return Vec::new();
        };
        self.lost[slot] = true;
        self.counts[slot] = 0;
        self.assigned
            .iter()
            .filter(|&(_, &s)| s == slot)
            .map(|(&t, _)| t)
            .collect()
    }

    /// Tenants currently assigned to `node`.
    pub fn tenants_on(&self, node: NodeId) -> usize {
        self.nodes
            .iter()
            .position(|&n| n == node)
            .map(|slot| self.counts[slot])
            .unwrap_or(0)
    }

    /// The node set this placer spreads over.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn round_robin_matches_historical_tenant_mod_n() {
        let mut p = ClusterPlacer::new(&nodes(4), NodePolicy::RoundRobin);
        for t in 0..32u32 {
            assert_eq!(p.place(t), NodeId(t % 4));
        }
    }

    #[test]
    fn assignments_are_sticky() {
        let mut p = ClusterPlacer::new(&nodes(3), NodePolicy::LeastTenants);
        let first = p.place(7);
        for _ in 0..5 {
            assert_eq!(p.place(7), first);
        }
        assert_eq!(p.assignment(7), Some(first));
        assert_eq!(p.assignment(8), None);
    }

    #[test]
    fn least_tenants_balances_and_breaks_ties_low() {
        let mut p = ClusterPlacer::new(&nodes(3), NodePolicy::LeastTenants);
        assert_eq!(p.place(10), NodeId(0));
        assert_eq!(p.place(11), NodeId(1));
        assert_eq!(p.place(12), NodeId(2));
        assert_eq!(p.place(13), NodeId(0));
        assert_eq!(p.tenants_on(NodeId(0)), 2);
    }

    #[test]
    fn hash_spreads_and_is_deterministic() {
        let mut p1 = ClusterPlacer::new(&nodes(8), NodePolicy::Hash);
        let mut p2 = ClusterPlacer::new(&nodes(8), NodePolicy::Hash);
        let a: Vec<NodeId> = (0..64).map(|t| p1.place(t)).collect();
        let b: Vec<NodeId> = (0..64).map(|t| p2.place(t)).collect();
        assert_eq!(a, b);
        // Every node gets someone (64 tenants over 8 nodes).
        for n in nodes(8) {
            assert!(p1.tenants_on(n) > 0, "{n} starved");
        }
    }

    #[test]
    fn node_loss_evicts_and_replaces_elsewhere() {
        let mut p = ClusterPlacer::new(&nodes(4), NodePolicy::RoundRobin);
        for t in 0..8u32 {
            p.place(t);
        }
        let evicted = p.node_lost(NodeId(1));
        assert_eq!(evicted, vec![1, 5]);
        assert_eq!(p.assignment(1), None);
        let renewed = p.place(1);
        assert_ne!(renewed, NodeId(1));
        assert_eq!(p.place(1), renewed, "re-placement is sticky too");
        // Unknown node: no-op.
        assert_eq!(p.node_lost(NodeId(9)), Vec::<u32>::new());
    }

    #[test]
    fn parse_and_labels() {
        assert_eq!(NodePolicy::parse("rr").unwrap(), NodePolicy::RoundRobin);
        assert_eq!(NodePolicy::parse("hash").unwrap(), NodePolicy::Hash);
        assert_eq!(
            NodePolicy::parse("least").unwrap(),
            NodePolicy::LeastTenants
        );
        assert!(NodePolicy::parse("random").is_err());
        assert_eq!(NodePolicy::RoundRobin.label(), "rr");
    }

    #[test]
    #[should_panic(expected = "placement over zero nodes")]
    fn empty_node_set_panics() {
        let _ = ClusterPlacer::new(&[], NodePolicy::RoundRobin);
    }

    /// Node ids picked for tenants 0..24 as a digit string.
    fn picks(p: &mut ClusterPlacer) -> String {
        (0..24u32).map(|t| p.place(t).0.to_string()).collect()
    }

    /// Each policy's picks over 5 nodes, the tenants evicted by losing
    /// node 2, and the picks after the loss are pinned: the pick formulas
    /// must not move when the placer is reorganised.
    #[test]
    fn pick_sequences_are_pinned_including_node_loss() {
        const PINNED: [(NodePolicy, &str, &[u32], &str); 3] = [
            (
                NodePolicy::RoundRobin,
                "012340123401234012340123",
                &[2, 7, 12, 17, 22],
                "013340143401034011340133",
            ),
            (
                NodePolicy::Hash,
                "041124410244022430223302",
                &[4, 9, 13, 14, 18, 19, 23],
                "041134410344013430133301",
            ),
            (
                NodePolicy::LeastTenants,
                "012340123401234012340123",
                &[2, 7, 12, 17, 22],
                "014340103401134013340143",
            ),
        ];
        assert_eq!(PINNED.map(|(p, ..)| p), NodePolicy::ALL);
        for (policy, before, evicted, after) in PINNED {
            let mut p = ClusterPlacer::new(&nodes(5), policy);
            assert_eq!(p.policy_label(), policy.label());
            assert_eq!(picks(&mut p), before, "{policy:?} before the loss");
            assert_eq!(p.node_lost(NodeId(2)), evicted, "{policy:?} evicted");
            assert_eq!(picks(&mut p), after, "{policy:?} after the loss");
        }
    }

    #[test]
    fn cloned_placer_diverges_independently() {
        let mut a = ClusterPlacer::new(&nodes(3), NodePolicy::LeastTenants);
        a.place(0);
        let mut b = a.clone();
        assert_eq!(a.place(1), b.place(1), "clones agree on shared history");
        b.place(2);
        assert_eq!(b.tenants_on(NodeId(2)), 1);
        assert_eq!(a.tenants_on(NodeId(2)), 0, "clone state is independent");
    }
}
