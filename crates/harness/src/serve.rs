//! Open-loop serving scenarios (`strings-sim serve`).
//!
//! Batch scenarios ([`crate::scenario::Scenario`]) run a fixed request
//! count per application; a [`ServeSpec`] instead runs the supernode as a
//! **cloud service**: a seeded arrival process
//! ([`strings_workloads::arrivals::ArrivalProcess`]) offers requests for a
//! fixed virtual-time duration, each arrival is assigned to one of `N`
//! tenants, and an admission front door
//! ([`strings_core::admission::AdmissionController`]) sheds what the
//! supernode cannot absorb. The run's quality is summarized by an
//! [`strings_metrics::slo::SloReport`] instead of makespan: latency
//! percentiles, goodput, shed rate, and windowed per-tenant fairness.
//!
//! Determinism matches the batch path: the request schedule is planned
//! up front from the seed (arrival times, tenant assignment, and for each
//! request a copy of the program generator's RNG), so a serve run is
//! byte-reproducible and seed sweeps can fan out across threads
//! ([`crate::sweep::run_serve_seeds`]). Host programs themselves are
//! built only when a request is dispatched and dropped when it exits
//! ([`crate::world::RequestProgram`]), so a run holds the programs of
//! the requests in flight, not of every request it will ever serve.

use crate::scenario::{HostCosts, LbScope};
use crate::stats::RunStats;
use crate::world::{PlannedRequest, RequestProgram, World};
use gpu_sim::device::DeviceConfig;
use remoting::topology::TopologySpec;
use sim_core::fault::FaultPlan;
use sim_core::rng::SimRng;
use sim_core::SimDuration;
use strings_core::admission::AdmissionConfig;
use strings_core::config::StackConfig;
use strings_core::device_sched::TenantId;
use strings_core::mapper::WorkloadClass;
use strings_core::placement::{ClusterPlacer, NodePolicy};
use strings_metrics::slo::SloReport;
use strings_workloads::arrivals::ArrivalProcess;
use strings_workloads::profile::AppKind;

/// One open-loop serving scenario: topology + stack + offered load +
/// admission policy. Compile and run with [`ServeSpec::run`].
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Machines, their GPUs, and the network joining them.
    pub topology: TopologySpec,
    /// Cluster placement: which node hosts each tenant's frontend.
    pub placement: NodePolicy,
    /// Scheduler stack under test.
    pub stack: StackConfig,
    /// Balancer scope.
    pub scope: LbScope,
    /// Device/driver timing.
    pub device_cfg: DeviceConfig,
    /// Host-side costs.
    pub costs: HostCosts,
    /// The offered load.
    pub arrivals: ArrivalProcess,
    /// How long requests keep arriving (the run itself drains the tail).
    pub duration: SimDuration,
    /// Number of tenants; each arrival is assigned one by a seeded draw
    /// (or by the trace's `tenant` field under replay).
    pub tenants: usize,
    /// Application mix: tenant `t` serves `apps[t % apps.len()]`.
    pub apps: Vec<AppKind>,
    /// The admission front door shared by every tenant.
    pub admission: AdmissionConfig,
    /// Sliding-window width for the fairness part of the SLO report.
    pub window: SimDuration,
    /// Server threads per tenant (in-flight cap past admission).
    pub server_threads: usize,
    /// Faults to inject during the run.
    pub faults: FaultPlan,
    /// RNG seed.
    pub seed: u64,
    /// Record a structured trace of the run.
    pub trace: bool,
    /// Record latency attribution (lightweight stage charging; implied by
    /// [`ServeSpec::trace`], which records a superset).
    pub attribution: bool,
    /// Sample the unified metrics registry on this virtual-time cadence
    /// (None = no metrics).
    pub metrics_every: Option<SimDuration>,
    /// Also register per-node rollup families in the registry (opt-in so
    /// the default exposition stays stable; most useful at cluster scale).
    pub node_metrics: bool,
    /// Flight-recorder ring depth per node. `None` keeps the always-on
    /// default; `Some(0)` disables recording (the overhead-gate
    /// baseline).
    pub flight_depth: Option<usize>,
    /// Multi-window SLO burn-rate rule; terminal request outcomes feed
    /// the engine and FIRED transitions dump the flight recorder.
    pub burn_alert: Option<strings_metrics::alerts::BurnRateConfig>,
    /// Explicit flight-recorder dump at this virtual time (`--dump-at`).
    pub dump_at: Option<SimDuration>,
    /// Snapshot the recorder at end-of-run if no trigger fired, so a
    /// `--dump PATH` always has a window to write.
    pub dump_final: bool,
    /// Capture this request's full flight-record chain into
    /// [`RunStats::explain_records`] (the `strings-sim explain` source).
    pub explain: Option<u64>,
}

impl ServeSpec {
    /// A single-node (NodeA) serving scenario with defaults: 4 tenants of
    /// the short-running Gaussian app, queue depth 64, a 1 s fairness
    /// window, 8 server threads per tenant.
    pub fn single_node(
        stack: StackConfig,
        arrivals: ArrivalProcess,
        duration: SimDuration,
        seed: u64,
    ) -> Self {
        Self::on(TopologySpec::node_a(), stack, arrivals, duration, seed)
    }

    /// The paper's emulated supernode (NodeA + NodeB) as the serving
    /// substrate; otherwise the [`ServeSpec::single_node`] defaults.
    pub fn supernode(
        stack: StackConfig,
        arrivals: ArrivalProcess,
        duration: SimDuration,
        seed: u64,
    ) -> Self {
        Self::on(TopologySpec::supernode(), stack, arrivals, duration, seed)
    }

    /// Serve on an explicit [`TopologySpec`] — the general constructor the
    /// canned shorthands delegate to. Defaults: 4 tenants of the
    /// short-running Gaussian app, round-robin tenant placement, queue
    /// depth 64, a 1 s fairness window, 8 server threads per tenant.
    pub fn on(
        topology: TopologySpec,
        stack: StackConfig,
        arrivals: ArrivalProcess,
        duration: SimDuration,
        seed: u64,
    ) -> Self {
        ServeSpec {
            topology,
            placement: NodePolicy::RoundRobin,
            stack,
            scope: LbScope::Global,
            device_cfg: DeviceConfig::default(),
            costs: HostCosts::default(),
            arrivals,
            duration,
            tenants: 4,
            apps: vec![AppKind::GA],
            admission: AdmissionConfig::default(),
            window: SimDuration::from_secs(1),
            server_threads: 8,
            faults: FaultPlan::none(),
            seed,
            trace: false,
            attribution: false,
            metrics_every: None,
            node_metrics: false,
            flight_depth: None,
            burn_alert: None,
            dump_at: None,
            dump_final: false,
            explain: None,
        }
    }

    /// Compile the open-loop request schedule for an explicit seed. One
    /// slot per tenant: per-tenant queueing, fairness and SLO accounting
    /// all key off the slot. Deterministic in the seed — arrival times,
    /// tenant assignment, and generated host programs each draw from
    /// their own fork of the root RNG. Each request keeps a copy of the
    /// program fork as it stood before its draw
    /// ([`RequestProgram::generated`]), and the program is built from it
    /// at dispatch.
    pub fn plan_with_seed(&self, seed: u64) -> Vec<PlannedRequest> {
        assert!(self.tenants > 0, "serve mode needs at least one tenant");
        assert!(!self.apps.is_empty(), "serve mode needs an app mix");
        let mut root = SimRng::new(seed);
        let mut arrival_rng = root.fork(0xA881);
        let mut tenant_rng = root.fork(0x7E4A);
        let mut gen_rng = root.fork(0x6E4);
        // Cluster placement tier: tenant -> node, sticky per tenant. The
        // round-robin default reproduces the historical `tenant % n_nodes`
        // striping byte-for-byte on dense node ids.
        let node_ids: Vec<_> = self.topology.nodes().iter().map(|n| n.id).collect();
        let mut placer = ClusterPlacer::new(&node_ids, self.placement);
        self.arrivals
            .generate(self.duration, &mut arrival_rng)
            .into_iter()
            .map(|a| {
                let tenant = match a.tenant_hint {
                    Some(t) => t as usize % self.tenants,
                    None => tenant_rng.index(self.tenants),
                };
                let app = self.apps[tenant % self.apps.len()];
                PlannedRequest {
                    arrival: a.at,
                    slot: tenant,
                    class: WorkloadClass(app as u32),
                    node: placer.place(tenant as u32),
                    tenant: TenantId(tenant as u32),
                    weight: 1.0,
                    server_threads: self.server_threads,
                    program: RequestProgram::generated(app, &mut gen_rng),
                }
            })
            .collect()
    }

    /// Run to completion (arrivals stop at [`ServeSpec::duration`]; the
    /// run then drains every admitted request) and return the stats with
    /// [`RunStats::slo_records`] populated.
    pub fn run(&self) -> RunStats {
        self.run_with_seed(self.seed)
    }

    /// Run with an explicit seed, ignoring [`ServeSpec::seed`] (seed
    /// sweeps share one base spec).
    pub fn run_with_seed(&self, seed: u64) -> RunStats {
        let requests = self.plan_with_seed(seed);
        let mut world = World::new(
            &self.topology,
            self.device_cfg,
            self.stack,
            self.scope,
            self.costs,
            requests,
            None,
        );
        world.set_seed(seed);
        world.set_admission(self.tenants, self.admission);
        world.enable_request_log();
        world.set_fault_plan(&self.faults);
        if self.trace {
            world.enable_tracing();
        } else if self.attribution {
            world.enable_attribution();
        }
        if let Some(every) = self.metrics_every {
            world.enable_metrics(every);
            if self.node_metrics {
                world.enable_node_metrics();
            }
        }
        if let Some(depth) = self.flight_depth {
            world.set_flight_depth(depth);
        }
        if let Some(cfg) = self.burn_alert {
            world.set_burn_alert(cfg);
        }
        if let Some(at) = self.dump_at {
            world.set_dump_at(at.as_ns());
        }
        if self.dump_final {
            world.set_dump_final();
        }
        if let Some(req) = self.explain {
            world.set_explain(req);
        }
        world.run()
    }

    /// Reconstruct the per-request latency attribution of a run of this
    /// spec. Requires [`ServeSpec::attribution`] (or `trace`) to have been
    /// set for the run.
    pub fn attribution(&self, stats: &RunStats) -> strings_metrics::AttributionReport {
        let trace = stats
            .trace
            .as_ref()
            .expect("attribution needs a run with attribution or trace enabled");
        strings_metrics::AttributionReport::from_trace(trace)
    }

    /// Condense a run of this spec into its SLO report.
    pub fn slo(&self, stats: &RunStats) -> SloReport {
        stats.slo_report(self.tenants, self.duration, self.window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strings_core::admission::RateLimit;
    use strings_core::mapper::LbPolicy;

    fn quick(seed: u64) -> ServeSpec {
        let mut s = ServeSpec::single_node(
            StackConfig::strings(LbPolicy::GMin),
            ArrivalProcess::parse("poisson:2rps").unwrap(),
            SimDuration::from_secs(10),
            seed,
        );
        s.admission.queue_depth = 4;
        s
    }

    #[test]
    fn serve_runs_end_to_end() {
        let spec = quick(7);
        let stats = spec.run();
        let report = spec.slo(&stats);
        assert!(report.completed > 0, "some requests must complete");
        assert_eq!(
            report.completed,
            stats.slo_records.len() as u64,
            "one record per completion"
        );
        assert_eq!(
            report.completed + report.shed + report.failed,
            stats.admission.unwrap().offered() + stats.shed_requests
                - stats.admission.unwrap().shed(),
            "every offered request reaches a terminal state"
        );
        assert!(report.p50 <= report.p95 && report.p95 <= report.p999);
    }

    #[test]
    fn plan_is_deterministic_and_tenant_dense() {
        let spec = quick(11);
        let a = spec.plan_with_seed(11);
        let b = spec.plan_with_seed(11);
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.tenant, y.tenant);
        }
        assert!(a.iter().all(|r| (r.tenant.0 as usize) < spec.tenants));
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn overload_sheds_instead_of_queueing_unboundedly() {
        // Offered load far beyond one node's capacity with a tiny queue:
        // most requests must shed, and the run still terminates.
        let mut spec = quick(3);
        spec.arrivals = ArrivalProcess::parse("poisson:50rps").unwrap();
        spec.admission.queue_depth = 2;
        let stats = spec.run();
        let report = spec.slo(&stats);
        assert!(
            report.shed_rate > 0.5,
            "expected heavy shedding, got {}",
            report.shed_rate
        );
        assert_eq!(stats.shed_requests, stats.admission.unwrap().shed());
    }

    #[test]
    fn rate_limit_caps_admissions() {
        let mut spec = quick(5);
        spec.arrivals = ArrivalProcess::parse("poisson:20rps").unwrap();
        spec.admission.queue_depth = 1000;
        // 4 tenants × 1 rps sustained ≤ ~40 admits over 10 s of arrivals.
        spec.admission.rate_limit = Some(RateLimit {
            rate_rps: 1.0,
            burst: 1.0,
        });
        let stats = spec.run();
        let adm = stats.admission.unwrap();
        assert!(adm.shed_rate_limited > 0, "the bucket must shed");
        assert!(
            adm.admitted <= 48,
            "token buckets must cap admissions, got {}",
            adm.admitted
        );
    }
}
