//! Shared experiment plumbing: scales, normalized streams, speedup sweeps.

use crate::scenario::{LbScope, Scenario, StreamSpec};
use crate::sweep;
use gpu_sim::spec::GpuModel;
use remoting::gpool::NodeId;
use remoting::topology::TopologySpec;
use sim_core::fault::FaultPlan;
use strings_core::config::StackConfig;
use strings_core::device_sched::TenantId;
use strings_core::mapper::LbPolicy;
use strings_workloads::profile::AppKind;

/// Experiment size: request counts, offered load, seeds to average over.
#[derive(Debug, Clone)]
pub struct ExpScale {
    /// Requests per stream.
    pub requests: usize,
    /// Target offered load on the baseline device (see
    /// [`normalized_stream`]).
    pub load: f64,
    /// Seeds averaged over.
    pub seeds: Vec<u64>,
    /// Base path for trace output (`--trace` on `strings-sim
    /// fig02-streams`, the one experiment that writes traces): Chrome
    /// trace-event JSON files derived from this path.
    pub trace: Option<String>,
    /// Extra fault injections (`--faults` on the experiments that inject
    /// faults), layered on top of whatever an experiment injects itself.
    pub faults: FaultPlan,
    /// Cluster override (`--topology` on the serving experiments).
    /// `None` keeps each experiment's canonical shape (the paper's
    /// supernode); serving experiments honour it by scaling their offered
    /// load and tenancy to the cluster.
    pub topology: Option<TopologySpec>,
}

impl ExpScale {
    /// Full scale: what `strings-sim EXPERIMENT` runs without `--quick`.
    pub fn full() -> Self {
        ExpScale {
            requests: 30,
            load: 1.3,
            seeds: default_seeds(3),
            trace: None,
            faults: FaultPlan::none(),
            topology: None,
        }
    }

    /// Reduced scale for smoke tests and `--quick` runs.
    pub fn quick() -> Self {
        ExpScale {
            requests: 8,
            load: 1.3,
            seeds: default_seeds(1),
            trace: None,
            faults: FaultPlan::none(),
            topology: None,
        }
    }

    /// The cluster the serving experiments run on: the `--topology`
    /// override, or the paper's supernode.
    pub fn serve_topology(&self) -> TopologySpec {
        self.topology
            .clone()
            .unwrap_or_else(TopologySpec::supernode)
    }
}

/// The first `n` of the seeds experiments average over: 101, 202, 303, …
/// `--seeds N` takes this prefix, so `--seeds 3` is the full-scale run.
pub fn default_seeds(n: u64) -> Vec<u64> {
    (1..=n).map(|i| 101 * i).collect()
}

/// A stream whose arrival rate is normalized by the application's service
/// time on the node's *collision device* (local device 0 — where the bare
/// runtime's static device selection lands every request). This mirrors the
/// paper's λ tuning: arrival rates proportional to actual runtimes, chosen
/// so requests do not pile up without bound.
pub fn normalized_stream(
    app: AppKind,
    node: NodeId,
    tenant: TenantId,
    requests: usize,
    load: f64,
) -> StreamSpec {
    let collision_device = match node.0 {
        0 => GpuModel::Quadro2000.spec(),
        _ => GpuModel::Quadro4000.spec(),
    };
    let scale = app.profile().service_scale_on(&collision_device);
    StreamSpec {
        app,
        node,
        tenant,
        weight: 1.0,
        count: requests,
        load: load / scale,
        // A small SPECpower-style thread pool: enough concurrency to keep
        // engines busy, small enough that the colliding baseline degrades
        // by queueing rather than by unbounded time-sharing convoys.
        server_threads: 4,
    }
}

/// Load multiplier for the supernode pair experiments: their baseline
/// balances over a whole node (2 GPUs), so streams must be denser than the
/// single-collision-device experiments for bursts to overflow a node — the
/// statistical-multiplexing headroom the gPool exploits.
pub const PAIR_LOAD_FACTOR: f64 = 2.8;

/// The two streams of a workload pair: the Group A stream arrives at
/// NodeA, the Group B stream at NodeB (the paper's independent streams).
pub fn pair_streams(a: AppKind, b: AppKind, scale: &ExpScale) -> Vec<StreamSpec> {
    let load = scale.load * PAIR_LOAD_FACTOR;
    vec![
        normalized_stream(a, NodeId(0), TenantId(0), scale.requests, load),
        normalized_stream(b, NodeId(1), TenantId(1), scale.requests, load),
    ]
}

/// Mean completion time of a scenario, averaged over the scale's seeds.
pub fn mean_ct(base: &Scenario, scale: &ExpScale) -> f64 {
    sweep::mean_over_seeds(base, &scale.seeds, |s| s.mean_completion_ns())
}

/// The reference baseline of Figures 10/12/14/15: the *single-node GRR*
/// policy — GRR-Rain with each node balancing only its own GPUs.
pub fn single_node_grr_baseline(streams: Vec<StreamSpec>) -> Scenario {
    Scenario::supernode(StackConfig::rain(LbPolicy::Grr), streams, 0).with_scope(LbScope::Local)
}

/// The Figure 13 baseline: GRR with all four GPUs shared (GRR-Rain,
/// global scope).
pub fn shared_grr_baseline(streams: Vec<StreamSpec>) -> Scenario {
    Scenario::supernode(StackConfig::rain(LbPolicy::Grr), streams, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_load_discounts_slow_devices() {
        // HI is heavily slowed on a Quadro 2000: its normalized arrival
        // rate must drop accordingly.
        let hi = normalized_stream(AppKind::HI, NodeId(0), TenantId(0), 10, 1.0);
        let ga = normalized_stream(AppKind::GA, NodeId(0), TenantId(0), 10, 1.0);
        assert!(hi.load < ga.load);
        assert!(hi.load < 0.6, "HI must be strongly discounted: {}", hi.load);
        assert!(ga.load > 0.95, "GA is CPU-bound, barely discounted");
    }

    #[test]
    fn pair_streams_split_across_nodes() {
        let s = pair_streams(AppKind::DC, AppKind::MC, &ExpScale::quick());
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].node, NodeId(0));
        assert_eq!(s[1].node, NodeId(1));
        assert_ne!(s[0].tenant, s[1].tenant);
    }

    #[test]
    fn scales() {
        assert!(ExpScale::quick().requests < ExpScale::full().requests);
        assert_eq!(ExpScale::quick().seeds.len(), 1);
    }
}
