//! The cluster tier of the executive: the gPool, network, workload
//! balancers, fault plan, and node and link fault state. It answers where
//! a device lives, what a transfer costs now, and which balancer serves a
//! node.

use crate::scenario::LbScope;
use remoting::channel::ChannelSpec;
use remoting::gpool::{Gid, NodeId, ShardedGPool};
use remoting::network::NetworkSpec;
use remoting::topology::TopologySpec;
use sim_core::fault::{FaultKind, FaultPlan};
use sim_core::SimTime;
use strings_core::config::StackConfig;
use strings_core::mapper::GpuAffinityMapper;

pub(crate) struct Cluster {
    /// Inter-node network: answers "which channel joins these two nodes?".
    net: NetworkSpec,
    /// The cluster gPool, sharded per node. The global map drives device
    /// construction and failure bookkeeping; local-scope balancers see
    /// their node's shard (same global GIDs — no renumbering anywhere).
    pub(crate) gpool: ShardedGPool,
    /// Workload balancers: one global, or one per node (local scope);
    /// none for the bare runtime.
    pub(crate) mappers: Vec<GpuAffinityMapper>,
    scope: LbScope,
    /// Injected faults for this run (virtual-time-stamped, seeded).
    pub(crate) plan: FaultPlan,
    /// Nodes lost to `FaultKind::NodeLoss` (frontends there are dead).
    node_lost: Vec<bool>,
    /// Per-node partition window end (0 = not partitioned).
    partition_until: Vec<SimTime>,
    /// Per-node link degradation window: (end, slowdown factor).
    degrade: Vec<(SimTime, f64)>,
}

impl Cluster {
    /// The cluster of `topology`, balanced as `cfg` and `scope` say.
    pub(crate) fn new(topology: &TopologySpec, cfg: &StackConfig, scope: LbScope) -> Cluster {
        let nodes = topology.nodes();
        let gpool = ShardedGPool::build(nodes);
        // Per-node balancers see their node's gPool shard, which keeps
        // cluster-wide GIDs — selections need no renumbering.
        let mut mappers = match (cfg.arbiter(), scope) {
            (None, _) => Vec::new(),
            (Some(arb), LbScope::Global) => vec![GpuAffinityMapper::new(gpool.global(), arb)],
            (Some(arb), LbScope::Local) => (nodes.iter())
                .map(|node| {
                    GpuAffinityMapper::new(gpool.shard(node.id).expect("shard per node"), arb)
                })
                .collect(),
        };
        if let Some(cap) = topology.slices() {
            for m in &mut mappers {
                m.enable_slices(cap.units);
            }
        }
        Cluster {
            net: topology.network().clone(),
            gpool,
            mappers,
            scope,
            plan: FaultPlan::none(),
            node_lost: vec![false; nodes.len()],
            partition_until: vec![0; nodes.len()],
            degrade: vec![(0, 1.0); nodes.len()],
        }
    }

    /// Number of nodes.
    pub(crate) fn nodes(&self) -> usize {
        self.node_lost.len()
    }

    /// The balancer serving frontends on `node` (`None` for the bare
    /// runtime). Shards keep cluster-wide GIDs: nothing is renumbered.
    pub(crate) fn mapper(&mut self, node: NodeId) -> Option<&mut GpuAffinityMapper> {
        let i = self.mapper_index(node);
        self.mappers.get_mut(i)
    }

    fn mapper_index(&self, node: NodeId) -> usize {
        match self.scope {
            LbScope::Global => 0,
            LbScope::Local => node.0 as usize,
        }
    }

    /// Whether a balancer can still place a request fronted on `node`.
    pub(crate) fn has_live_target(&self, node: NodeId) -> bool {
        (self.mappers.get(self.mapper_index(node))).is_some_and(|m| m.has_live_device())
    }

    /// Merge `plan` into the run's faults; panics with
    /// [`FaultPlan::check_targets`]'s message on a target outside the run.
    pub(crate) fn add_faults(&mut self, plan: &FaultPlan) {
        if let Err(e) = plan.check_targets(self.nodes(), self.gpool.global().len()) {
            panic!("{e}");
        }
        for ev in plan.events() {
            self.plan.push(ev.at, ev.kind);
        }
    }

    /// Whether `node` is lost.
    pub(crate) fn is_lost(&self, node: NodeId) -> bool {
        self.node_lost[node.0 as usize]
    }

    /// Lose `node` and retire its devices; the devices it took down, or
    /// `None` if the node is unknown or already lost.
    pub(crate) fn lose_node(&mut self, node: NodeId, now: SimTime) -> Option<Vec<Gid>> {
        let lost = self.node_lost.get_mut(node.0 as usize).filter(|l| !**l)?;
        *lost = true;
        let newly = self.gpool.fail_node(node);
        for &gid in &newly {
            self.retire(gid, now);
        }
        Some(newly)
    }

    /// Fail device `gid` for good and retire it (surviving GIDs stay
    /// stable); false if it is unknown or already lost.
    pub(crate) fn fail_device(&mut self, gid: Gid, now: SimTime) -> bool {
        let pool = self.gpool.global();
        if pool.entry(gid).is_none() || pool.is_lost(gid) {
            return false;
        }
        self.gpool.fail_device(gid).expect("known gid");
        self.retire(gid, now);
        true
    }

    /// Retire a lost device's row in the balancer that owns it.
    fn retire(&mut self, gid: Gid, now: SimTime) {
        let node = self.dev_node(gid);
        if let Some(m) = self.mapper(node) {
            m.retire(now, gid);
        }
    }

    /// A link fault strikes at `now`: a node's links slow down, or it is
    /// cut off from the other nodes, for a window.
    pub(crate) fn strike_link(&mut self, kind: FaultKind, now: SimTime) {
        match kind {
            FaultKind::LinkDegraded {
                node,
                factor,
                for_ns,
            } => self.degrade[node as usize] = (now.saturating_add(for_ns), factor.max(1.0)),
            FaultKind::Partition { node, for_ns } => {
                let end = &mut self.partition_until[node as usize];
                *end = (*end).max(now.saturating_add(for_ns));
            }
            _ => unreachable!("not a link fault: {kind:?}"),
        }
    }

    /// Device `gid`'s trace track name: `node{N}/GID{gid}` on clusters of
    /// 3+ nodes, so a 64×4 trace filters per node in Perfetto; the paper's
    /// single-node and supernode topologies keep the bare `GID{gid}`
    /// (pinned by fig02's glitch query and the committed goldens).
    pub(crate) fn device_name(&self, gid: usize) -> String {
        match self.nodes() {
            0..=2 => format!("GID{gid}"),
            _ => format!("node{}/GID{gid}", self.dev_node(Gid(gid as u32)).0),
        }
    }

    /// Hosting node of a device.
    pub(crate) fn dev_node(&self, gid: Gid) -> NodeId {
        self.gpool.global().entry(gid).expect("gid in gmap").node
    }

    /// The channel between a frontend on `node` and device `gid`.
    pub(crate) fn channel(&self, node: NodeId, gid: Gid) -> ChannelSpec {
        self.net.channel(node, self.dev_node(gid))
    }

    /// Bulk copy payloads cross the *network* channel byte for byte, but a
    /// same-node frontend/backend pair passes buffers through shared memory
    /// zero-copy — only the control message is marshalled.
    pub(crate) fn bulk_bytes(&self, node: NodeId, gid: Gid, bytes: u64) -> u64 {
        if self.dev_node(gid) == node {
            0
        } else {
            bytes
        }
    }

    /// Wire time of `bytes` between a frontend on `node` and device `gid`
    /// at `now`: the channel's transfer time, stretched by a degraded
    /// link. The flag says whether a degraded window stretched it.
    pub(crate) fn wire_ns(&self, node: NodeId, gid: Gid, bytes: u64, now: SimTime) -> (u64, bool) {
        let base = self.channel(node, gid).transfer_ns(bytes);
        let factor = self.link_factor(node, self.dev_node(gid), now);
        if factor > 1.0 {
            ((base as f64 * factor).round() as u64, true)
        } else {
            (base, false)
        }
    }

    /// When the `a`↔`b` link is partitioned at `now`, the virtual time the
    /// window heals; 0 otherwise. Same-node traffic never partitions.
    pub(crate) fn link_partition_heal(&self, a: NodeId, b: NodeId, now: SimTime) -> SimTime {
        if a == b {
            return 0;
        }
        let until = |n: NodeId| self.partition_until.get(n.0 as usize).copied().unwrap_or(0);
        let h = until(a).max(until(b));
        if h > now {
            h
        } else {
            0
        }
    }

    /// Cross-node transfer slowdown factor at `now` (1.0 = healthy).
    pub(crate) fn link_factor(&self, a: NodeId, b: NodeId, now: SimTime) -> f64 {
        if a == b {
            return 1.0;
        }
        let f = |n: NodeId| {
            self.degrade
                .get(n.0 as usize)
                .map_or(1.0, |(until, fac)| if *until > now { *fac } else { 1.0 })
        };
        f(a).max(f(b)).max(1.0)
    }
}
