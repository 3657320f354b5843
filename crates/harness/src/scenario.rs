//! Declarative scenario descriptions.
//!
//! A [`Scenario`] describes one experiment run: the node topology, the
//! request streams (which applications arrive where, how fast, how many),
//! the scheduler stack, and the seed. `Scenario::run()` compiles it into a
//! [`crate::world::World`] and executes it.

use crate::world::{PlannedRequest, RequestProgram, World};
use crate::RunStats;
use gpu_sim::device::DeviceConfig;
use remoting::gpool::NodeId;
use remoting::topology::TopologySpec;
use serde::{Deserialize, Serialize};
use sim_core::fault::FaultPlan;
use sim_core::rng::SimRng;
use sim_core::SimTime;
use strings_core::config::StackConfig;
use strings_core::device_sched::TenantId;
use strings_core::mapper::WorkloadClass;
use strings_workloads::arrivals::RequestStream;
use strings_workloads::profile::AppKind;

/// Host-side fixed costs (calibration knobs, DESIGN.md §8).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostCosts {
    /// One-time GPU context creation (per process per device).
    pub ctx_create_ns: u64,
    /// `cudaStreamCreate` cost.
    pub stream_create_ns: u64,
    /// RM registration handshake (three IPC messages).
    pub handshake_ns: u64,
    /// `cudaMalloc` round trip.
    pub malloc_ns: u64,
    /// Host-side cost to issue a kernel launch.
    pub kernel_issue_ns: u64,
    /// Interposer ↔ workload-balancer round trip.
    pub balancer_rtt_ns: u64,
}

impl Default for HostCosts {
    fn default() -> Self {
        HostCosts {
            ctx_create_ns: 30_000_000, // 30 ms
            stream_create_ns: 10_000,
            handshake_ns: 9_000,
            malloc_ns: 10_000,
            kernel_issue_ns: 5_000,
            balancer_rtt_ns: 8_000,
        }
    }
}

/// Whether the workload balancer sees the whole gPool or only the
/// application's own node (the paper's "single node" baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LbScope {
    /// One balancer over the entire supernode gPool.
    Global,
    /// One balancer per node, restricted to local GPUs.
    Local,
}

/// One request stream: a logical application receiving end-user requests.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Which benchmark application serves the requests.
    pub app: AppKind,
    /// Node the service (frontend) runs on.
    pub node: NodeId,
    /// Tenant identity for fairness accounting.
    pub tenant: TenantId,
    /// Tenant weight.
    pub weight: f64,
    /// Number of requests.
    pub count: usize,
    /// Offered load: λ = runtime / load (higher = denser arrivals).
    pub load: f64,
    /// Server threads: maximum requests of this stream in flight at once
    /// (the paper's SPECpower model serves end users with "a finite number
    /// of server threads"); excess arrivals wait in the server queue.
    pub server_threads: usize,
}

impl StreamSpec {
    /// A stream with defaults: tenant = slot, weight 1, node 0.
    pub fn of(app: AppKind, count: usize, load: f64) -> Self {
        StreamSpec {
            app,
            node: NodeId(0),
            tenant: TenantId(0),
            weight: 1.0,
            count,
            load,
            server_threads: 12,
        }
    }
}

/// A complete experiment description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Machines, their GPUs, and the network joining them.
    pub topology: TopologySpec,
    /// Scheduler stack under test.
    pub stack: StackConfig,
    /// Balancer scope.
    pub scope: LbScope,
    /// Device/driver timing.
    pub device_cfg: DeviceConfig,
    /// Host-side costs.
    pub costs: HostCosts,
    /// Request streams, one per slot.
    pub streams: Vec<StreamSpec>,
    /// Only service completed before this instant counts toward the
    /// fairness metric (None = whole run).
    pub fairness_horizon: Option<SimTime>,
    /// Faults to inject (crashes, device/node losses, link trouble),
    /// stamped in virtual time. [`FaultPlan::none`] for healthy runs.
    pub faults: FaultPlan,
    /// RNG seed.
    pub seed: u64,
    /// Record a structured trace of the run (engine spans, scheduler
    /// decisions, request spans) into [`RunStats::trace`].
    pub trace: bool,
    /// Fold latency attribution only: the run's trace holds the ledger
    /// and no events (implied by [`Scenario::trace`]).
    pub attribution: bool,
    /// Flight-recorder ring depth per node. `None` keeps the always-on
    /// default; `Some(0)` disables recording.
    pub flight_depth: Option<usize>,
    /// Record wall-clock per executive phase into
    /// [`RunStats::self_profile`] (bench trajectory only).
    pub self_profile: bool,
}

impl Scenario {
    /// Scenario over an explicit [`TopologySpec`] — the general
    /// constructor; [`Scenario::single_node`] and [`Scenario::supernode`]
    /// are canned shorthands.
    pub fn on(
        topology: TopologySpec,
        stack: StackConfig,
        streams: Vec<StreamSpec>,
        seed: u64,
    ) -> Self {
        Scenario {
            topology,
            stack,
            scope: LbScope::Global,
            device_cfg: DeviceConfig::default(),
            costs: HostCosts::default(),
            streams,
            fairness_horizon: None,
            faults: FaultPlan::none(),
            seed,
            trace: false,
            attribution: false,
            flight_depth: None,
            self_profile: false,
        }
    }

    /// Single-node scenario (the paper's NodeA) with the given stack.
    pub fn single_node(stack: StackConfig, streams: Vec<StreamSpec>, seed: u64) -> Self {
        Self::on(TopologySpec::node_a(), stack, streams, seed)
    }

    /// The paper's emulated supernode: NodeA + NodeB over GbE.
    pub fn supernode(stack: StackConfig, streams: Vec<StreamSpec>, seed: u64) -> Self {
        Self::on(TopologySpec::supernode(), stack, streams, seed)
    }

    /// Inject the given fault plan during the run.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Restrict the balancer to each application's own node.
    pub fn with_scope(mut self, scope: LbScope) -> Self {
        self.scope = scope;
        self
    }

    /// Record a structured trace of the run.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Fold latency attribution only (the trace holds the ledger).
    pub fn with_attribution(mut self) -> Self {
        self.attribution = true;
        self
    }

    /// Record wall-clock per executive phase into
    /// [`RunStats::self_profile`].
    pub fn with_self_profile(mut self) -> Self {
        self.self_profile = true;
        self
    }

    /// Compile the request schedule (deterministic in the seed).
    pub fn plan(&self) -> Vec<PlannedRequest> {
        self.plan_with_seed(self.seed)
    }

    /// Compile the request schedule for an explicit seed, ignoring
    /// [`Scenario::seed`]. Lets seed sweeps share one base scenario
    /// instead of cloning it per seed. A stream draws its arrivals and
    /// then its programs from one RNG; each request keeps a copy of that
    /// RNG as it stood before its program's draws
    /// ([`RequestProgram::generated`]), built into the program at
    /// dispatch.
    pub fn plan_with_seed(&self, seed: u64) -> Vec<PlannedRequest> {
        let mut root = SimRng::new(seed);
        let mut requests = Vec::new();
        for (slot, spec) in self.streams.iter().enumerate() {
            let mut rng = root.fork(slot as u64);
            let profile = spec.app.profile();
            let arrivals =
                RequestStream::for_app_runtime(spec.count, profile.runtime, spec.load, &mut rng);
            for &arrival in arrivals.arrivals() {
                requests.push(PlannedRequest {
                    arrival,
                    slot,
                    class: WorkloadClass(spec.app as u32),
                    node: spec.node,
                    tenant: spec.tenant,
                    weight: spec.weight,
                    server_threads: spec.server_threads,
                    program: RequestProgram::generated(spec.app, &mut rng),
                });
            }
        }
        requests.sort_by_key(|r| (r.arrival, r.slot));
        requests
    }

    /// Run the scenario to completion.
    pub fn run(&self) -> RunStats {
        self.run_with_seed(self.seed)
    }

    /// Run the scenario with an explicit seed, ignoring [`Scenario::seed`].
    /// Everything else (topology, streams, faults) comes from `self`, so
    /// seed sweeps can fan out from one shared scenario.
    pub fn run_with_seed(&self, seed: u64) -> RunStats {
        let requests = self.plan_with_seed(seed);
        let mut world = World::new(
            &self.topology,
            self.device_cfg,
            self.stack,
            self.scope,
            self.costs,
            requests,
            self.fairness_horizon,
        );
        world.set_seed(seed);
        world.set_fault_plan(&self.faults);
        if self.trace {
            world.enable_tracing();
        } else if self.attribution {
            world.enable_attribution();
        }
        if let Some(depth) = self.flight_depth {
            world.set_flight_depth(depth);
        }
        if self.self_profile {
            world.enable_self_profile();
        }
        world.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strings_core::mapper::LbPolicy;

    #[test]
    fn plan_is_deterministic_and_sorted() {
        let s = Scenario::single_node(
            StackConfig::strings(LbPolicy::GMin),
            vec![
                StreamSpec::of(AppKind::MC, 5, 1.0),
                StreamSpec {
                    node: NodeId(0),
                    ..StreamSpec::of(AppKind::BS, 5, 1.0)
                },
            ],
            42,
        );
        let p1 = s.plan();
        let p2 = s.plan();
        assert_eq!(p1.len(), 10);
        assert!(p1.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert_eq!(
            p1.iter().map(|r| r.arrival).collect::<Vec<_>>(),
            p2.iter().map(|r| r.arrival).collect::<Vec<_>>()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            Scenario::single_node(
                StackConfig::strings(LbPolicy::GMin),
                vec![StreamSpec::of(AppKind::MC, 5, 1.0)],
                seed,
            )
            .plan()
        };
        let a = mk(1);
        let b = mk(2);
        assert_ne!(
            a.iter().map(|r| r.arrival).collect::<Vec<_>>(),
            b.iter().map(|r| r.arrival).collect::<Vec<_>>()
        );
    }

    #[test]
    fn scenario_runs_end_to_end() {
        let s = Scenario::single_node(
            StackConfig::strings(LbPolicy::GMin),
            vec![StreamSpec::of(AppKind::GA, 3, 1.0)],
            7,
        );
        let stats = s.run();
        assert_eq!(stats.completed_requests, 3);
        assert!(stats.makespan_ns > 0);
    }

    #[test]
    fn supernode_has_four_gpus() {
        let s = Scenario::supernode(
            StackConfig::strings(LbPolicy::Grr),
            vec![StreamSpec::of(AppKind::GA, 4, 2.0)],
            7,
        );
        let stats = s.run();
        assert_eq!(stats.device_telemetry.len(), 4);
        assert_eq!(stats.completed_requests, 4);
    }
}
