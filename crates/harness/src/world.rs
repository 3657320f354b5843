//! The simulation executive.
//!
//! A [`World`] runs one scenario to completion: planned requests arrive as
//! negative-exponential streams, each becoming a host thread that walks its
//! program; CUDA calls flow through the configured scheduler stack (bare
//! runtime, Rain, or Strings) onto the simulated devices; completions wake
//! blocked hosts; the dispatcher gates per-application streams each epoch.
//!
//! Everything is event-driven over one deterministic queue, and a run is
//! exactly reproducible from its seed. The executive is split along the
//! paper's two scheduling tiers (§III): each device's state — the device,
//! its scheduler, packer and registered apps, and the dispatcher epoch
//! chain — is one `Gpu` (`crate::gpu`), and what spans nodes — the gPool,
//! network, balancers and fault state — is the `Cluster`
//! (`crate::cluster`). The world keeps the rest: the queue, the running
//! requests, waiters, and the host, RPC and fault paths that drive them.
//!
//! The world observes nothing itself: it reports each step of a request's
//! life once, as a typed `Step`, to its `Observers` (`crate::observe`),
//! which own the tracer, latency attribution, the metrics registry, the
//! flight recorder and the burn-rate alerts. A request ends in exactly one
//! place, `World::finish_request`, where the run's request counters move.

use crate::cluster::Cluster;
use crate::gpu::Gpu;
use crate::observe::{Observers, Step, RUN_FAMILIES};
use crate::scenario::{HostCosts, LbScope};
use crate::stats::{PhaseProfile, RunStats, TenantOutcomes};
use cuda_sim::call::CudaCall;
use cuda_sim::host::{AppId, BlockOn, HostThread, ProcessId};
use cuda_sim::pending::PendingOps;
use cuda_sim::program::HostOp;
use cuda_sim::program::HostProgram;
use cuda_sim::registry::ContextRegistry;
use gpu_sim::device::{CompletedJob, DeviceConfig};
use gpu_sim::ids::{ContextId, StreamId};
use gpu_sim::job::JobKind;
use remoting::backend::{BackendDesign, APP_PID_BASE, HOST_PID_BASE};
use remoting::gpool::{Gid, NodeId};
use remoting::rpc::CONTROL_BYTES;
use remoting::telemetry::RpcCounters;
use remoting::topology::TopologySpec;
use sim_core::event::EventQueue;
use sim_core::fault::{FaultKind, FaultPlan};
use sim_core::flight::{DumpReason, FlightRecorder};
use sim_core::rng::SimRng;
use sim_core::trace::Stage;
use sim_core::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};
use strings_core::admission::{AdmissionConfig, AdmissionController};
use strings_core::config::{SchedulerMode, StackConfig};
use strings_core::device_sched::TenantId;
use strings_core::mapper::WorkloadClass;
use strings_core::packer::PackedCall;
use strings_metrics::alerts::{BurnRateConfig, BurnRateEngine};
use strings_metrics::slo::SloRecord;
use strings_metrics::CompletionSet;
use strings_workloads::profile::AppKind;
use strings_workloads::tracegen::TraceGenerator;

/// A request's host program, as planned: the ops themselves, or what it
/// takes to generate them when the request is dispatched.
#[derive(Debug, Clone)]
pub enum RequestProgram {
    /// A program given op by op (hand-built tests and examples).
    Ops(HostProgram),
    /// [`TraceGenerator::default`]'s program for `app`, drawn from `rng`:
    /// the planner's generator RNG as it stood before this request's
    /// program was drawn: a 40-byte RNG copy instead of the ~2 KB the
    /// ops take.
    Generated {
        /// The application whose profile the program follows.
        app: AppKind,
        /// The generator RNG at this request's first draw.
        rng: SimRng,
    },
}

impl RequestProgram {
    /// Plan `app`'s next generated program from the planner's `rng`: keep
    /// a copy of the RNG, then advance it exactly as generating the
    /// program does (by generating and dropping it), so the planner's
    /// next draw sees the same state either way.
    pub fn generated(app: AppKind, rng: &mut SimRng) -> Self {
        let snapshot = rng.clone();
        drop(TraceGenerator::default().generate(&app.profile(), rng));
        RequestProgram::Generated { app, rng: snapshot }
    }

    /// The program's ops. A generated program draws from its own copy of
    /// the RNG, so it comes out op for op as the planner drew it.
    pub fn build(self) -> HostProgram {
        match self {
            RequestProgram::Ops(program) => program,
            RequestProgram::Generated { app, mut rng } => {
                TraceGenerator::default().generate(&app.profile(), &mut rng)
            }
        }
    }
}

impl Default for RequestProgram {
    fn default() -> Self {
        RequestProgram::Ops(HostProgram::new())
    }
}

impl From<HostProgram> for RequestProgram {
    fn from(program: HostProgram) -> Self {
        RequestProgram::Ops(program)
    }
}

/// One request in the scenario's schedule. It stays small until the
/// request is dispatched: the program is built then (see
/// [`RequestProgram`]), lives in the request's host thread, and is
/// dropped when the request completes or is aborted.
#[derive(Debug, Clone)]
pub struct PlannedRequest {
    /// Arrival time.
    pub arrival: SimTime,
    /// Logical application slot (for per-application metrics).
    pub slot: usize,
    /// Workload class (application kind).
    pub class: WorkloadClass,
    /// Node the frontend runs on.
    pub node: NodeId,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Tenant weight.
    pub weight: f64,
    /// Concurrency cap of the request's stream (finite server threads).
    pub server_threads: usize,
    /// The host program to execute, built at dispatch.
    pub program: RequestProgram,
}

/// `World::app_slot` entry of a request that holds no slab entry.
const NO_SLOT: u32 = u32::MAX;

/// Hard cap on processed events (runaway guard).
const MAX_EVENTS: u64 = 500_000_000;

/// A per-tenant-id table as a map of the tenants it holds a value for.
fn dense_to_map<T: Copy>(dense: &[Option<T>]) -> BTreeMap<TenantId, T> {
    dense
        .iter()
        .enumerate()
        .filter_map(|(t, v)| v.map(|v| (TenantId(t as u32), v)))
        .collect()
}

/// Request `id`'s entry in the `apps` slab through the `app_slot` index, if
/// it holds one. A free function, so callers can borrow other `World`
/// fields beside it.
fn entry_mut<'a>(
    apps: &'a mut [Option<AppInstance>],
    app_slot: &[u32],
    id: AppId,
) -> Option<&'a mut AppInstance> {
    let slot = *app_slot.get(id.index())?;
    apps.get_mut(slot as usize)?.as_mut()
}

/// A running request's executive state, from its start to the end of the
/// dispatch that finished it.
#[derive(Debug)]
struct AppInstance {
    host: HostThread,
    class: WorkloadClass,
    node: NodeId,
    tenant: TenantId,
    weight: f64,
    slot: usize,
    gid: Option<Gid>,
    ctx: Option<ContextId>,
    stream: StreamId,
    /// Timestamp of this app's latest scheduled RPC delivery; deliveries
    /// are forced in-order per application (the paper's in-order RPC rule).
    last_deliver: SimTime,
    /// Bumped on every abort/failover; events stamped with an older
    /// incarnation are stale and dropped.
    incarnation: u32,
    /// Attempt number of the in-flight blocking RPC (0 when idle).
    attempt: u32,
    /// The blocking call awaiting a reply, kept for retransmission.
    inflight: Option<PackedCall>,
    /// Suffered a retry or failover replay (classified at completion).
    disrupted: bool,
    /// Crossed a degraded or partitioned link window.
    degraded: bool,
    /// Latency-attribution cursor: everything in `[arrival, charged_to)`
    /// has been charged to a stage. Charges are contiguous by
    /// construction, which makes the reconstructed breakdown exactly
    /// additive.
    charged_to: SimTime,
}

#[derive(Debug)]
pub(crate) enum Event {
    Arrival(u32),
    /// Host CPU phase ends (app, incarnation).
    HostWake(AppId, u32),
    /// A device's next self-event is due. Staleness is handled by the
    /// queue: the wakeup is scheduled under the device's key, and
    /// a cancelled or superseded one never pops from [`EventQueue::pop`].
    Device(u32),
    Epoch(u32),
    /// An RPC lands at the backend (app, call, incarnation).
    Deliver(AppId, PackedCall, u32),
    /// An RPC reply reaches the frontend (app, incarnation).
    Reply(AppId, u32),
    /// An injected fault fires: index into the run's [`FaultPlan`].
    Fault(u32),
    /// Per-call deadline for a blocking RPC (app, incarnation, attempt).
    Deadline(AppId, u32, u32),
    /// Backoff expired: retransmit the in-flight call.
    Retry(AppId, u32, u32),
    /// Failover complete: replay the program on a surviving backend.
    Restart(AppId, u32),
    /// Periodic metrics-registry sample (only when metrics are enabled).
    MetricsSample,
    /// Explicit flight-recorder dump trigger (`--dump-at T`; only
    /// scheduled when requested).
    DumpAt,
}

impl Event {
    /// The app and incarnation a request's event was scheduled under; it
    /// is dropped once an abort, failover or fault has moved the app on.
    fn stamp(&self) -> Option<(AppId, u32)> {
        match *self {
            Event::HostWake(app, inc)
            | Event::Deliver(app, _, inc)
            | Event::Reply(app, inc)
            | Event::Deadline(app, inc, _)
            | Event::Retry(app, inc, _)
            | Event::Restart(app, inc) => Some((app, inc)),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct Waiter {
    app: AppId,
    cond: BlockOn,
    /// Reply-path latency once the condition holds (0 in direct mode).
    reply_ns: u64,
    /// Direct (no RPC): wake the host in place instead of a Reply event.
    direct: bool,
}

/// The executive. Its per-request state follows the requests in flight:
/// a running request's `AppInstance` sits in a slab slot from its start
/// until the event that finished it has been dispatched, and only the
/// plan, the arrival cursor and a 4-byte slot index are kept per planned
/// request.
pub struct World {
    cfg: StackConfig,
    costs: HostCosts,
    /// Per device, by gid: the device and its scheduling state.
    gpus: Vec<Gpu>,
    /// The gPool, network, balancers and fault state.
    cluster: Cluster,
    registry: ContextRegistry,
    pending: PendingOps,
    queue: EventQueue<Event>,
    /// Reusable completion buffer (avoids a fresh `Vec` per device sync).
    done_buf: Vec<CompletedJob>,
    /// Reusable released-waiter buffer for [`World::check_waiters`].
    ready_buf: Vec<Waiter>,
    /// The requests in flight: a slab reached through `app_slot`, so it
    /// holds as many entries as requests ever ran at once, not one per
    /// planned request.
    apps: Vec<Option<AppInstance>>,
    /// Slab entries freed by finished requests, reused last-freed first.
    free_slots: Vec<u32>,
    /// Per planned request: its slab entry while it runs ([`NO_SLOT`]
    /// before it starts and once its entry is freed).
    app_slot: Vec<u32>,
    /// Requests finished during the dispatch under way. Their entries are
    /// freed once it returns, so everything the finishing event still does
    /// to the app sees it.
    retired: Vec<AppId>,
    waiters: Vec<Waiter>,
    requests: Vec<PlannedRequest>,
    /// Failure-semantics RNG (backoff jitter); reseeded by the scenario.
    rng: SimRng,
    slot_inflight: Vec<usize>,
    slot_backlog: Vec<VecDeque<usize>>,
    /// Serve-mode front door (None in batch scenarios: everything admits).
    admission: Option<AdmissionController>,
    /// Collect one [`SloRecord`] per completion (serve mode).
    request_log: bool,
    next_stream: u32,
    finished: usize,
    fairness_horizon: Option<SimTime>,
    /// Per tenant id, `None` until the tenant is first counted: engine
    /// service within the fairness horizon, and request outcomes. Written
    /// by index on the hot path and folded into
    /// [`RunStats::tenant_service_ns`] / [`RunStats::tenant_outcomes`] at
    /// the end of the run, so the maps hold exactly the tenants counted.
    tenant_service: Vec<Option<u64>>,
    tenant_outcomes: Vec<Option<TenantOutcomes>>,
    stats: RunStats,
    /// Every observability sink: trace, attribution, metrics, flight
    /// recorder and alerts.
    obs: Observers,
    /// RPC-layer counters (always maintained; plain integer adds).
    rpc: RpcCounters,
    /// Record wall-clock per executive phase into
    /// [`RunStats::self_profile`].
    self_profile: bool,
}

impl World {
    /// Build a world from a topology, a scheduler stack, and a request
    /// schedule. The [`TopologySpec`] is the single source of truth for
    /// nodes, devices, and the inter-node network.
    pub fn new(
        topology: &TopologySpec,
        device_cfg: DeviceConfig,
        cfg: StackConfig,
        scope: LbScope,
        costs: HostCosts,
        requests: Vec<PlannedRequest>,
        fairness_horizon: Option<SimTime>,
    ) -> World {
        let cluster = Cluster::new(topology, &cfg, scope);
        let entries = cluster.gpool.global().entries();
        assert!(!entries.is_empty(), "topology has no GPUs");
        let mut queue = EventQueue::new();
        let gpus = (entries.iter().enumerate())
            .map(|(gid, e)| Gpu::new(gid, e, device_cfg, &cfg, &mut queue))
            .collect();
        let n_slots = requests.iter().map(|r| r.slot + 1).max().unwrap_or(1);
        let n_tenants = requests
            .iter()
            .map(|r| r.tenant.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let nodes = cluster.nodes();
        let mut world = World {
            cfg,
            costs,
            gpus,
            cluster,
            registry: ContextRegistry::new(),
            pending: PendingOps::new(),
            queue,
            done_buf: Vec::new(),
            ready_buf: Vec::new(),
            apps: Vec::new(),
            free_slots: Vec::new(),
            app_slot: Vec::new(),
            retired: Vec::new(),
            waiters: Vec::new(),
            requests,
            rng: SimRng::new(0x5EED_FA17),
            slot_inflight: vec![0; n_slots],
            slot_backlog: (0..n_slots).map(|_| VecDeque::new()).collect(),
            admission: None,
            request_log: false,
            next_stream: 1,
            finished: 0,
            fairness_horizon,
            tenant_service: vec![None; n_tenants],
            tenant_outcomes: vec![None; n_tenants],
            stats: RunStats {
                completions: CompletionSet::new(n_slots),
                ..Default::default()
            },
            obs: Observers::new(nodes),
            rpc: RpcCounters::default(),
            self_profile: false,
        };
        // Design II/III backends own one context per GPU, created when the
        // backend daemons spawn at gPool creation (before any request).
        if world.cfg.design.shares_context() {
            for gid in 0..world.gpus.len() {
                let pid = world.cfg.design.backend_process(AppId(0), gid);
                world.open_context(pid, gid);
            }
        }
        world
    }

    /// Process `pid`'s context on device `gid` and whether it is new; a new
    /// one advances the device's generation, so pending wakeups go stale.
    fn open_context(&mut self, pid: ProcessId, gid: usize) -> (ContextId, bool) {
        let (ctx, fresh) = self.registry.get_or_create(pid, gid);
        if fresh {
            let g = &mut self.gpus[gid];
            g.device.create_context(ctx);
            self.queue.invalidate(g.key);
        }
        (ctx, fresh)
    }

    /// Turn on structured tracing: every device engine, scheduler, mapper
    /// and request slot gets a track, and the run's [`RunStats::trace`]
    /// carries the recorded [`sim_core::trace::Trace`] with its
    /// attribution ledger. Call before [`World::run`].
    pub fn enable_tracing(&mut self) {
        let device_names: Vec<String> = (0..self.gpus.len())
            .map(|gid| self.cluster.device_name(gid))
            .collect();
        let slots = self.slot_inflight.len();
        let (gpus, mappers) = (&mut self.gpus, &mut self.cluster.mappers);
        self.obs.trace(&self.requests, slots, |tracer| {
            for (g, name) in gpus.iter_mut().zip(&device_names) {
                g.device.set_tracer(tracer.clone(), name);
            }
            for (g, name) in gpus.iter_mut().zip(&device_names) {
                let trk = tracer.track(name.clone(), "scheduler");
                g.scheduler.set_tracer(tracer.clone(), trk);
            }
            for (i, m) in mappers.iter_mut().enumerate() {
                let trk = tracer.track("balancer", format!("mapper{i}"));
                m.set_tracer(tracer.clone(), trk);
            }
        });
    }

    /// Turn on latency attribution alone: stage charges are folded into
    /// one row per request as the run goes, and the run's
    /// [`RunStats::trace`] carries no events, only the
    /// [`sim_core::trace::Trace::ledger`] that
    /// [`strings_metrics::attribution::AttributionReport`] reads. Tracing
    /// ([`World::enable_tracing`]) attributes too, in either order.
    pub fn enable_attribution(&mut self) {
        self.obs.attribute();
    }

    /// Install the unified metrics registry, sampled every `every` of
    /// virtual time and once more at the end of the run. Families cover
    /// every layer: executive event-loop counters, per-device telemetry,
    /// outstanding-op gauges, RPC counters, and the end-to-end latency
    /// histogram. The registry lands in [`RunStats::metrics`].
    pub fn enable_metrics(&mut self, every: SimDuration) {
        self.obs.metrics_every = Some(every.as_ns().max(1));
    }

    /// Opt into per-node rollup families (cluster topologies): live
    /// devices, kernel/copy completions, and mean compute occupancy per
    /// node, labelled `node="N"`, when metrics are enabled. The default
    /// family set is untouched, so single-node and supernode expositions
    /// stay byte-identical when this is off.
    pub fn enable_node_metrics(&mut self) {
        self.obs.node_metrics = true;
    }

    /// Install a full fault plan (merged with any previously installed
    /// faults). Targets are validated against the topology up front so a
    /// bad plan fails loudly before the run starts; panics with
    /// [`FaultPlan::check_targets`]'s message.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.cluster.add_faults(plan);
    }

    /// Seed the failure-semantics RNG (backoff jitter). The scenario
    /// passes its own seed through so whole runs stay reproducible.
    pub fn set_seed(&mut self, seed: u64) {
        self.rng = SimRng::new(seed ^ 0x5EED_FA17);
    }

    /// Install the serve-mode admission front door. Every arrival is
    /// checked against its tenant's queue bound and token bucket before a
    /// host thread is created; shed requests finish immediately and count
    /// in [`RunStats::shed_requests`]. Tenant ids in the request schedule
    /// must be dense in `0..tenants`.
    pub fn set_admission(&mut self, tenants: usize, config: AdmissionConfig) {
        self.admission = Some(AdmissionController::new(tenants, config));
    }

    /// Record one [`SloRecord`] per completed request into
    /// [`RunStats::slo_records`] (serve mode; batch experiments skip the
    /// per-request log to keep RunStats small).
    pub fn enable_request_log(&mut self) {
        self.request_log = true;
    }

    /// Resize the flight recorder's per-node rings. The recorder is
    /// always on at a default depth; `0` disables it entirely (the
    /// bench overhead gate's baseline). Call before [`World::run`].
    pub fn set_flight_depth(&mut self, depth: usize) {
        self.obs.flight = FlightRecorder::new(self.cluster.nodes(), depth);
    }

    /// Install a burn-rate alert rule. Every terminal request outcome
    /// (completion, shed, abort, drop) feeds the engine; FIRED
    /// transitions trigger a flight-recorder dump, and the end-of-run
    /// [`strings_metrics::alerts::AlertReport`] lands in
    /// [`RunStats::alerts`]. When metrics are enabled, the current burn
    /// rates are exported as `slo_burn_*` gauges.
    pub fn set_burn_alert(&mut self, cfg: BurnRateConfig) {
        self.obs.alerts = Some(BurnRateEngine::new(cfg));
    }

    /// Schedule an explicit flight-recorder dump at virtual time `at`
    /// (the CLI's `--dump-at`).
    pub fn set_dump_at(&mut self, at: SimTime) {
        self.obs.dump_at = Some(at);
    }

    /// Take an end-of-run snapshot if no trigger fired during the run,
    /// so `--dump PATH` always has a window to write.
    pub fn set_dump_final(&mut self) {
        self.obs.dump_final = true;
    }

    /// Capture request `req`'s complete flight-record chain into
    /// [`RunStats::explain_records`], bypassing ring eviction — the
    /// `strings-sim explain` data source.
    pub fn set_explain(&mut self, req: u64) {
        self.obs.explain = Some(req);
    }

    /// Record wall-clock spent per executive phase into
    /// [`RunStats::self_profile`] (bench trajectory only; wall-clock
    /// never reaches a golden surface).
    pub fn enable_self_profile(&mut self) {
        self.self_profile = true;
    }

    /// Report one step of request `idx` to the observers.
    fn step(&mut self, idx: usize, step: Step) {
        let cursor = entry_mut(&mut self.apps, &self.app_slot, AppId(idx as u32));
        let cursor = cursor.map(|a| &mut a.charged_to);
        let r = &self.requests[idx];
        self.obs.step(&self.queue, idx as u64, r, cursor, step);
    }

    /// Run to completion and return the statistics.
    pub fn run(mut self) -> RunStats {
        let wall_start = std::time::Instant::now();
        self.app_slot = vec![NO_SLOT; self.requests.len()];
        if self.request_log {
            // One record per completion at most: grown once, not doubled.
            self.stats.slo_records.reserve_exact(self.requests.len());
        }
        self.obs
            .start(&self.requests, self.gpus.len(), &self.cluster.gpool);
        // Arrivals wait in the queue's cursor, not in the queue: ids 0..N,
        // as if scheduled one by one here.
        self.queue
            .schedule_arrivals(self.requests.iter().map(|r| r.arrival), Event::Arrival);
        for (i, ev) in self.cluster.plan.events().iter().enumerate() {
            self.queue.schedule(ev.at, Event::Fault(i as u32));
        }
        if let Some(at) = self.obs.dump_at {
            self.queue.schedule(at, Event::DumpAt);
        }
        // `is_empty` counts the pending arrivals too.
        if let Some(every) = self.obs.metrics_every.filter(|_| !self.queue.is_empty()) {
            self.queue.schedule(every, Event::MetricsSample);
        }
        let mut prof = PhaseProfile::default();
        loop {
            // The profiled pop/dispatch paths measure wall-clock around
            // the exact same calls the unprofiled paths make, so enabling
            // the self-profiler cannot perturb virtual-time behaviour.
            let next = if self.self_profile {
                let t0 = std::time::Instant::now();
                let popped = self.queue.pop();
                prof.queue_ns += t0.elapsed().as_nanos() as u64;
                popped
            } else {
                self.queue.pop()
            };
            let Some((now, ev)) = next else {
                break;
            };
            assert!(
                self.queue.popped() < MAX_EVENTS,
                "event budget exhausted at t={now}: likely livelock"
            );
            if self.self_profile {
                let slot = Self::profile_slot(&ev);
                let t0 = std::time::Instant::now();
                self.dispatch(now, ev);
                let dt = t0.elapsed().as_nanos() as u64;
                *match slot {
                    0 => &mut prof.arrival_ns,
                    1 => &mut prof.host_ns,
                    2 => &mut prof.engine_ns,
                    3 => &mut prof.epoch_ns,
                    4 => &mut prof.rpc_ns,
                    5 => &mut prof.fault_ns,
                    _ => &mut prof.metrics_ns,
                } += dt;
            } else {
                self.dispatch(now, ev);
            }
            if !self.retired.is_empty() {
                self.free_retired();
            }
            if self.finished == self.requests.len() {
                break;
            }
        }
        if self.finished != self.requests.len() {
            for w in &self.waiters {
                eprintln!(
                    "stuck waiter: app={:?} cond={:?} direct={}",
                    w.app, w.cond, w.direct
                );
            }
            for app in self.live_apps(|a| !a.host.is_done()) {
                let a = self.app(app);
                eprintln!(
                    "stuck app {}: state={:?} pc={} op={:?} gid={:?} ctx={:?} stream={:?}",
                    app.0,
                    a.host.state,
                    a.host.pc,
                    a.host.current_op(),
                    a.gid,
                    a.ctx,
                    a.stream
                );
            }
            for (g, d) in self.gpus.iter().map(|g| &g.device).enumerate() {
                eprintln!(
                    "device {g}: pending={} idle={} next={:?}",
                    d.total_pending(),
                    d.is_idle(),
                    d.next_event_time(self.queue.now())
                );
            }
            let (done, all) = (self.finished, self.requests.len());
            panic!("deadlock: {done} of {all} finished");
        }
        // Every request finished, so every arrival popped.
        assert_eq!(self.queue.pending_arrivals(), 0, "arrivals left over");
        // ...and ended exactly once, in `finish_request`.
        let (completed, failed, shed) = (
            self.stats.completions.total_requests(),
            self.stats.failed_requests,
            self.stats.shed_requests,
        );
        assert_eq!(
            completed + failed + shed,
            self.requests.len() as u64,
            "request conservation: {completed} completed + {failed} failed + {shed} shed"
        );
        self.stats.events = self.queue.popped();
        self.stats.cancelled_wakeups = self.queue.cancelled();
        self.stats.peak_live_queue_depth = self.queue.peak_live_len() as u64;
        self.stats.completed_requests = completed;
        self.stats.tenant_service_ns = dense_to_map(&self.tenant_service);
        self.stats.tenant_outcomes = dense_to_map(&self.tenant_outcomes);
        self.stats.rpc_timeouts = self.rpc.timeouts;
        self.stats.rpc_retries = self.rpc.retries;
        let devices = || self.gpus.iter().map(|g| &g.device);
        self.stats.context_switches = devices().map(|d| d.telemetry.context_switches).sum();
        self.stats.clamped_events = self.queue.clamped();
        self.stats.stream_rows = devices().map(|d| d.stream_rows() as u64).sum();
        self.stats.peak_app_slots = self.apps.len() as u64;
        self.stats.slo_records.shrink_to_fit();
        if let Some(adm) = &self.admission {
            self.stats.admission = Some(adm.stats());
        }
        let (run, gpool) = (self.run_sample(), &self.cluster.gpool);
        (self.obs).finish(&self.queue, run, &self.gpus, gpool, &mut self.stats);
        if self.self_profile {
            prof.wall_ns = wall_start.elapsed().as_nanos() as u64;
            self.stats.self_profile = Some(prof);
        }
        // Hand each device's telemetry over as an exact-size copy, freeing
        // the original before the next device's: the transient is one
        // device's samples, not the cluster's, and the copies pack densely
        // instead of pinning the grown originals where the run left them
        // (kept in place, those raised the RSS of callers that hold many
        // runs' stats). Last, because the final metrics sample still
        // reads it.
        self.stats.device_telemetry = (self.gpus.iter_mut())
            .map(|g| std::mem::take(&mut g.device.telemetry).clone())
            .collect();
        self.stats
    }

    /// Dispatch one popped event. Extracted from the run loop so the
    /// self-profiler can time each dispatch; early exits that were
    /// `continue`s in the loop body are plain returns here.
    fn dispatch(&mut self, now: SimTime, ev: Event) {
        if let Some((app, inc)) = ev.stamp() {
            if !self.live_incarnation(app, inc) {
                return;
            }
        }
        match ev {
            Event::Arrival(idx) => self.on_arrival(idx as usize, now),
            Event::HostWake(app, _) => {
                self.advance(app, now, true);
                self.run_host(app, now);
            }
            Event::Device(gid) => self.sync_device(gid as usize, now),
            Event::Epoch(gid) => self.on_epoch(gid as usize, now),
            Event::Fault(idx) => self.on_plan_fault(idx as usize, now),
            Event::Deliver(app, packed, _) => self.on_deliver(app, packed, now),
            Event::Reply(app, _) => {
                self.rpc.replies += 1;
                let gid = self.app(app).gid;
                self.step(app.index(), Step::RpcReply { gid });
                let a = self.app_mut(app);
                a.inflight = None;
                a.attempt = 0;
                debug_assert!(matches!(
                    a.host.state,
                    cuda_sim::host::HostState::Blocked(_)
                ));
                self.advance(app, now, true);
                self.run_host(app, now);
            }
            Event::Deadline(app, _, attempt) => {
                let a = self.app(app);
                if a.attempt != attempt || a.inflight.is_none() {
                    return; // the reply won the race
                }
                self.on_rpc_timeout(app, now);
            }
            Event::Retry(app, _, attempt) => {
                let a = self.app(app);
                if a.attempt != attempt {
                    return;
                }
                let Some(packed) = a.inflight else {
                    return;
                };
                self.send_rpc(app, packed, true, now);
            }
            Event::Restart(app, _) => self.on_restart(app, now),
            Event::MetricsSample => {
                let run = self.run_sample();
                (self.obs).sample(now, run, &self.gpus, &self.cluster.gpool);
                // Re-arm only while other work remains so the run can
                // drain; the end-of-run sample closes the series.
                if let Some(every) = self.obs.metrics_every.filter(|_| !self.queue.is_empty()) {
                    self.queue.schedule(now + every, Event::MetricsSample);
                }
            }
            Event::DumpAt => self.obs.flight.trigger(DumpReason::Explicit, now),
        }
    }

    /// Which [`PhaseProfile`] bucket an event's dispatch time lands in:
    /// 0 arrival, 1 host, 2 engine, 3 epoch, 4 rpc, 5 fault, 6 metrics.
    fn profile_slot(ev: &Event) -> u8 {
        match ev {
            Event::Arrival(_) => 0,
            Event::HostWake(..) | Event::Reply(..) => 1,
            Event::Device(_) => 2,
            Event::Epoch(_) => 3,
            Event::Deliver(..) | Event::Deadline(..) | Event::Retry(..) | Event::Restart(..) => 4,
            Event::Fault(_) => 5,
            Event::MetricsSample | Event::DumpAt => 6,
        }
    }

    // ---- helpers --------------------------------------------------------

    /// Request `id`'s app while it holds a slab entry: from its start
    /// until the dispatch that finished it returns.
    fn live(&self, id: AppId) -> Option<&AppInstance> {
        let slot = *self.app_slot.get(id.index())?;
        self.apps.get(slot as usize)?.as_ref()
    }

    fn app(&self, id: AppId) -> &AppInstance {
        self.live(id).expect("app exists")
    }

    fn app_mut(&mut self, id: AppId) -> &mut AppInstance {
        entry_mut(&mut self.apps, &self.app_slot, id).expect("app exists")
    }

    /// The live apps that satisfy `keep`, in request-id order.
    fn live_apps(&self, keep: impl Fn(&AppInstance) -> bool) -> Vec<AppId> {
        let mut ids: Vec<AppId> = (self.apps.iter().flatten())
            .filter(|a| keep(a))
            .map(|a| a.host.app)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Give request `app` a slab entry.
    fn admit_app(&mut self, app: AppId, instance: AppInstance) {
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.apps[slot as usize] = Some(instance);
                slot
            }
            None => {
                self.apps.push(Some(instance));
                (self.apps.len() - 1) as u32
            }
        };
        self.app_slot[app.index()] = slot;
    }

    /// Free the slab entries of the requests the last dispatch finished.
    fn free_retired(&mut self) {
        for app in self.retired.drain(..) {
            let slot = std::mem::replace(&mut self.app_slot[app.index()], NO_SLOT);
            self.apps[slot as usize] = None;
            self.free_slots.push(slot);
        }
    }

    /// True when `app` is alive and `inc` is its current incarnation.
    /// Events carry the incarnation they were scheduled under; anything
    /// older raced an abort or failover and must be dropped, as must one
    /// for a request whose entry is already freed.
    fn live_incarnation(&self, app: AppId, inc: u32) -> bool {
        self.live(app)
            .is_some_and(|a| a.incarnation == inc && !a.host.is_done())
    }

    fn outcome(&mut self, tenant: TenantId) -> &mut TenantOutcomes {
        self.tenant_outcomes[tenant.0 as usize].get_or_insert_default()
    }

    /// Charge `app`'s wall clock up to `until` to `stage`
    /// ([`Observers::charge`]).
    fn charge(&mut self, app: AppId, stage: Stage, until: SimTime) {
        let a = entry_mut(&mut self.apps, &self.app_slot, app).expect("app exists");
        let id = app.index() as u64;
        self.obs.charge(a.slot, id, &mut a.charged_to, stage, until);
    }

    /// A failure at `now` overtook `app` ([`Observers::retract`]).
    fn retract(&mut self, app: AppId, now: SimTime) {
        let a = entry_mut(&mut self.apps, &self.app_slot, app).expect("app exists");
        let id = app.index() as u64;
        self.obs.retract(a.slot, id, &mut a.charged_to, now);
    }

    /// `app`'s blocked wait on `cond` released at `rel`
    /// ([`Observers::wait_released`]).
    fn wait_released(&mut self, app: AppId, cond: BlockOn, rel: SimTime) {
        let a = entry_mut(&mut self.apps, &self.app_slot, app).expect("app exists");
        let switching = a
            .gid
            .map(|g| &self.gpus[g.index()].device.telemetry.switching);
        let id = app.index() as u64;
        self.obs
            .wait_released(a.slot, id, &mut a.charged_to, cond, rel, switching);
    }

    /// The values of the run-wide metric families, in table order.
    fn run_sample(&self) -> [f64; RUN_FAMILIES.len()] {
        [
            self.queue.now() as f64,
            self.queue.popped() as f64,
            // Pending arrivals included, as when they were queued.
            self.queue.peak_backlog() as f64,
            self.finished as f64,
            self.stats.failed_requests as f64,
            self.stats.shed_requests as f64,
            self.pending.total() as f64,
            self.pending.contexts_active() as f64,
            self.pending.streams_active() as f64,
            self.rpc.sent as f64,
            self.rpc.delivered as f64,
            self.rpc.replies as f64,
            self.rpc.dropped as f64,
            self.rpc.bytes as f64,
            self.rpc.in_flight() as f64,
        ]
    }

    /// Schedule the backend's reply at `at`, stamped with the app's
    /// current incarnation; the host's clock is RPC time until then.
    fn reply_at(&mut self, app: AppId, at: SimTime) {
        let inc = self.app(app).incarnation;
        self.queue.schedule(at, Event::Reply(app, inc));
        self.charge(app, Stage::Rpc, at);
    }

    /// Keep `app`'s host on the CPU until `until`, when a wake-up stamped
    /// with its incarnation advances it past the op.
    fn busy_until(&mut self, app: AppId, until: SimTime) {
        let a = self.app_mut(app);
        a.host.start_cpu(until);
        let inc = a.incarnation;
        self.queue.schedule(until, Event::HostWake(app, inc));
        self.charge(app, Stage::HostCpu, until);
    }

    fn on_arrival(&mut self, idx: usize, now: SimTime) {
        self.step(idx, Step::Arrival);
        let r = &self.requests[idx];
        if self.cluster.is_lost(r.node) {
            // The frontend's node is gone: the request is lost on arrival.
            self.finish_request(idx, now, Step::LostAtArrival);
            return;
        }
        let (tenant, slot, threads) = (r.tenant, r.slot, r.server_threads);
        if let Some(adm) = self.admission.as_mut() {
            if let Err(reason) = adm.try_admit(tenant.0 as usize, now) {
                // Shed at the front door: the request never enters the
                // system and finishes immediately.
                self.finish_request(idx, now, Step::Shed { reason });
                return;
            }
        }
        // The request span opens here, so it covers server-queue wait.
        self.step(idx, Step::Admitted);
        if self.slot_inflight[slot] >= threads {
            // All server threads busy: the request waits in the server
            // queue; its completion time still counts from arrival.
            self.slot_backlog[slot].push_back(idx);
            return;
        }
        self.start_request(idx, now);
    }

    fn start_request(&mut self, idx: usize, now: SimTime) {
        if self.cluster.is_lost(self.requests[idx].node) {
            // Queued behind a server thread when its node died.
            self.finish_request(idx, now, Step::LostQueued);
            return;
        }
        let app = AppId(idx as u32);
        // A request starts once, and a failover replays the host's own
        // copy, so the program is built here and moves into the host.
        let program = std::mem::take(&mut self.requests[idx].program).build();
        let r = &self.requests[idx];
        let (tenant, wait) = (r.tenant, now.saturating_sub(r.arrival));
        let mut host = HostThread::new(app, ProcessId(HOST_PID_BASE + idx as u32), program, now);
        host.arrived_at = r.arrival; // queueing at the server counts
        self.slot_inflight[r.slot] += 1;
        let instance = AppInstance {
            host,
            class: r.class,
            node: r.node,
            tenant: r.tenant,
            weight: r.weight,
            slot: r.slot,
            gid: None,
            ctx: None,
            stream: StreamId::DEFAULT,
            last_deliver: 0,
            incarnation: 0,
            attempt: 0,
            inflight: None,
            disrupted: false,
            degraded: false,
            charged_to: r.arrival,
        };
        self.admit_app(app, instance);
        // Admission + server-queue wait is charged up to here.
        self.step(idx, Step::Dispatch);
        // The measured wait feeds the SLO admission gate's per-tenant EWMA
        // (a no-op unless `AdmissionConfig.slo` is set).
        if let Some(adm) = self.admission.as_mut() {
            adm.observe_wait(tenant.0 as usize, wait);
        }
        self.run_host(app, now);
    }

    /// Drive a host while it stays ready.
    fn run_host(&mut self, app: AppId, now: SimTime) {
        loop {
            let a = self.app(app);
            if !a.host.is_ready() {
                break;
            }
            let op = *a.host.current_op().expect("ready implies op");
            match op {
                HostOp::CpuBusy(d) => {
                    self.busy_until(app, now + d.as_ns().max(1));
                    break;
                }
                HostOp::Cuda(call) => {
                    if !self.issue_call(app, call, now) {
                        break;
                    }
                }
            }
        }
    }

    /// Issue one CUDA call; returns true if the host advanced and may
    /// continue, false if it is now busy/blocked.
    fn issue_call(&mut self, app: AppId, call: CudaCall, now: SimTime) -> bool {
        match self.cfg.mode {
            SchedulerMode::CudaRuntime => self.direct_call(app, call, now),
            SchedulerMode::Rain | SchedulerMode::Strings => self.interposed_call(app, call, now),
        }
    }

    /// Advance past the current op after `cost_ns` of host work.
    fn busy_then_advance(&mut self, app: AppId, cost_ns: u64, now: SimTime) -> bool {
        if cost_ns == 0 {
            self.advance(app, now, false);
            return true;
        }
        self.busy_until(app, now + cost_ns);
        false
    }

    /// Move `app`'s host past its current op (out of a CPU phase or a
    /// block when `wake`), and finish the request if its program is done.
    fn advance(&mut self, app: AppId, now: SimTime, wake: bool) {
        let a = self.app_mut(app);
        if wake {
            a.host.wake_and_advance(now);
        } else {
            a.host.advance(now);
        }
        if a.host.is_done() {
            let latency = a.host.turnaround_ns().expect("done");
            // The program has run: free it now rather than at end of run.
            drop(std::mem::take(&mut a.host.program));
            self.finish_request(app.index(), now, Step::Complete { latency });
        }
    }

    /// End request `idx` with its terminal `step`: the one place the
    /// run's request counters move. An admitted request also gives back
    /// its admission slot and, if it ran, its server thread; either way
    /// the next request queued on its slot starts.
    fn finish_request(&mut self, idx: usize, now: SimTime, step: Step) {
        let (tenant, slot) = (self.requests[idx].tenant, self.requests[idx].slot);
        self.finished += 1;
        if self.app_slot[idx] != NO_SLOT {
            self.retired.push(AppId(idx as u32));
        }
        match step {
            Step::Shed { .. } => self.stats.shed_requests += 1,
            Step::Complete { latency } => {
                let a = self.app(AppId(idx as u32));
                let (arrival, disrupted, degraded) = (a.host.arrived_at, a.disrupted, a.degraded);
                self.stats.completions.record(slot, latency);
                self.stats.makespan_ns = self.stats.makespan_ns.max(now);
                if self.request_log {
                    self.stats.slo_records.push(SloRecord {
                        tenant: tenant.0,
                        arrival,
                        latency: SimDuration::from_ns(latency),
                    });
                }
                let o = self.outcome(tenant);
                if disrupted {
                    o.retried += 1;
                } else if degraded {
                    o.degraded += 1;
                } else {
                    o.completed += 1;
                }
            }
            _ => {
                self.stats.failed_requests += 1;
                self.outcome(tenant).lost += 1;
            }
        }
        self.step(idx, step);
        if matches!(step, Step::LostAtArrival | Step::Shed { .. }) {
            return; // never admitted
        }
        if let Some(adm) = self.admission.as_mut() {
            adm.release(tenant.0 as usize);
        }
        if !matches!(step, Step::LostQueued) {
            self.slot_inflight[slot] -= 1;
        }
        if let Some(next) = self.slot_backlog[slot].pop_front() {
            self.start_request(next, now);
        }
    }

    // ---- bare CUDA runtime path -----------------------------------------

    fn direct_call(&mut self, app: AppId, call: CudaCall, now: SimTime) -> bool {
        match call {
            CudaCall::SetDevice { device } => {
                let a = self.app(app);
                let local = self.cluster.gpool.global().local_gids(a.node);
                assert!(!local.is_empty(), "node without GPUs");
                let gid = local[(device as usize) % local.len()];
                self.bind_direct(app, gid);
                self.busy_then_advance(app, self.costs.ctx_create_ns, now)
            }
            CudaCall::Malloc { bytes } => {
                let (gid, ctx) = self.binding(app);
                if self.gpus[gid.index()].device.alloc(ctx, bytes).is_err() {
                    self.stats.oom_events += 1;
                }
                self.busy_then_advance(app, self.costs.malloc_ns, now)
            }
            CudaCall::Free { bytes } => {
                let (gid, ctx) = self.binding(app);
                self.gpus[gid.index()].device.free(ctx, bytes);
                self.advance(app, now, false);
                true
            }
            CudaCall::Memcpy { dir, bytes } | CudaCall::MemcpyAsync { dir, bytes } => {
                let sync = matches!(call, CudaCall::Memcpy { .. });
                let pinned = false;
                let jid = self.submit_job(app, JobKind::Copy { dir, bytes, pinned }, sync, now);
                if sync {
                    return self.block_or_advance(app, BlockOn::Job(jid), 0, now);
                }
                self.app_mut(app).host.advance(now);
                true
            }
            CudaCall::LaunchKernel { kernel } => {
                self.submit_job(app, JobKind::Kernel(kernel), false, now);
                self.busy_then_advance(app, self.costs.kernel_issue_ns, now)
            }
            CudaCall::StreamSynchronize => {
                let (_, ctx) = self.binding(app);
                let stream = self.app(app).stream;
                self.block_or_advance(app, BlockOn::StreamIdle(ctx, stream), 0, now)
            }
            CudaCall::DeviceSynchronize => {
                let (_, ctx) = self.binding(app);
                self.block_or_advance(app, BlockOn::CtxIdle(ctx), 0, now)
            }
            CudaCall::ThreadExit => {
                let (gid, ctx) = self.binding(app);
                self.registry.destroy(ctx);
                let g = &mut self.gpus[gid.index()];
                g.device.destroy_context(ctx);
                // destroy_context advanced the device generation; pending
                // wakeups are stale (historical semantics: discarded unrun).
                self.queue.invalidate(g.key);
                self.pending.forget_ctx(ctx);
                self.obs.ctx_destroyed(ctx, self.app(app).stream);
                self.advance(app, now, false);
                true
            }
        }
    }

    fn bind_direct(&mut self, app: AppId, gid: Gid) {
        let pid = ProcessId(APP_PID_BASE + app.0);
        let (ctx, _) = self.open_context(pid, gid.index());
        let a = self.app_mut(app);
        a.gid = Some(gid);
        a.ctx = Some(ctx);
        a.stream = StreamId::DEFAULT;
    }

    // ---- interposed (Rain / Strings) path --------------------------------

    fn interposed_call(&mut self, app: AppId, call: CudaCall, now: SimTime) -> bool {
        if let CudaCall::SetDevice { .. } = call {
            return self.interposed_bind(app, now);
        }
        let (gid, _) = self.binding(app);
        let packed = self.gpus[gid.index()].packer.transform(app, call);
        let blocks = packed.host_blocks || packed.call.has_output();
        if blocks {
            // The blocking call is kept in-flight for retransmission: if
            // the send is lost to a partition, the per-call deadline and
            // bounded backoff (RetryPolicy) drive resends.
            let a = self.app_mut(app);
            a.host.block(BlockOn::Reply(0));
            a.inflight = Some(packed);
            a.attempt = 1;
        }
        self.send_rpc(app, packed, blocks, now);
        if blocks {
            false
        } else {
            self.advance(app, now, false);
            true
        }
    }

    /// Ship one marshalled call to the backend, applying the link's fault
    /// state: degraded windows stretch the transfer, partitions either
    /// drop the send (blocking calls with retry enabled — the frontend
    /// learns via its deadline) or buffer it until the window heals.
    fn send_rpc(&mut self, app: AppId, packed: PackedCall, blocks: bool, now: SimTime) {
        let (gid, _) = self.binding(app);
        let (node, inc) = {
            let a = self.app(app);
            (a.node, a.incarnation)
        };
        let dev_node = self.cluster.dev_node(gid);
        let heal = self.cluster.link_partition_heal(node, dev_node, now);
        let policy = self.cfg.retry;
        if blocks && policy.is_enabled() && heal > now {
            // The packet is dropped on the floor; only the deadline tells.
            self.rpc.sent += 1;
            self.rpc.dropped += 1;
            let attempt = self.app(app).attempt;
            let to = dev_node;
            self.step(app.index(), Step::RpcDrop { gid, to, attempt });
            self.queue
                .schedule(now + policy.deadline_ns, Event::Deadline(app, inc, attempt));
            return;
        }
        let bytes =
            CONTROL_BYTES + (self.cluster).bulk_bytes(node, gid, packed.call.rpc_payload_bytes());
        let (transfer, stretched) = self.cluster.wire_ns(node, gid, bytes, now);
        let deliver_ns = self.cfg.rpc.send_overhead_ns(&packed.call)
            + transfer
            + self.cfg.rpc.recv_overhead_ns(&packed.call);
        // In-order per-application delivery: a small control message must
        // not overtake an earlier bulk payload on the same channel.
        let mut at = (now + deliver_ns).max(self.app(app).last_deliver.saturating_add(1));
        // Non-blocking sends (or blocking with retry disabled) queue up
        // behind a partition and drain when the window heals.
        if heal > now {
            at = at.max(heal.saturating_add(deliver_ns));
        }
        if stretched || heal > now {
            self.app_mut(app).degraded = true;
        }
        self.app_mut(app).last_deliver = at;
        self.queue.schedule(at, Event::Deliver(app, packed, inc));
        self.rpc.sent += 1;
        self.rpc.bytes += bytes;
        self.step(app.index(), Step::RpcSend { gid, bytes });
        if blocks {
            // The host is parked on the reply: its clock is RPC time
            // until the call lands at the backend.
            self.charge(app, Stage::Rpc, at);
        }
    }

    /// A blocking RPC's deadline expired with no reply: retry with
    /// exponential backoff while the policy allows, then declare the
    /// backend dead (`Step::RetriesExhausted`) and fail over.
    fn on_rpc_timeout(&mut self, app: AppId, now: SimTime) {
        self.rpc.timeouts += 1;
        let (inc, attempt) = {
            let a = self.app(app);
            (a.incarnation, a.attempt)
        };
        self.step(app.index(), Step::RpcTimeout { attempt });
        let policy = self.cfg.retry;
        let next = attempt + 1;
        if policy.allows(next) {
            let (attempt, backoff) = (next, policy.backoff_ns(next, &mut self.rng));
            self.rpc.retries += 1;
            let a = self.app_mut(app);
            a.attempt = attempt;
            a.disrupted = true;
            self.step(app.index(), Step::RpcRetry { attempt, backoff });
            self.queue
                .schedule(now + backoff, Event::Retry(app, inc, attempt));
        } else {
            let step = Step::RetriesExhausted { attempts: attempt };
            self.step(app.index(), step);
            self.failover_app(app, now, "retries_exhausted");
        }
    }

    /// The interposed `cudaSetDevice` life cycle: balancer query, backend
    /// binding, RM registration handshake. A request whose balancer has
    /// no live device left fails here.
    fn interposed_bind(&mut self, app: AppId, now: SimTime) -> bool {
        let (class, node, tenant, weight) = {
            let a = self.app(app);
            (a.class, a.node, a.tenant, a.weight)
        };
        if !self.has_live_target(node) {
            self.abort_app(app, now);
            return false;
        }
        let m = self.cluster.mapper(node).expect("live target");
        let gid = m.select_device(class, node);
        m.bind(gid, class);
        m.note_placement(now, app.index() as u64, class, node, gid);
        // Bind the app's backend worker.
        let g = gid.index();
        let (ctx, fresh) = self.open_context(self.cfg.design.backend_process(app, g), g);
        let stream = if self.gpus[g].packer.uses_private_streams() {
            let s = StreamId(self.next_stream);
            self.next_stream += 1;
            s
        } else {
            StreamId::DEFAULT
        };
        {
            let a = self.app_mut(app);
            a.gid = Some(gid);
            a.ctx = Some(ctx);
            a.stream = stream;
        }
        let placement = (self.app(app).slot, g);
        *self.stats.placements.entry(placement).or_insert(0) += 1;
        self.step(app.index(), Step::Bind { gid });
        // Request Manager registration (RT-signal three-way handshake).
        self.wake_epoch(g, now, true);
        let gpu = &mut self.gpus[g];
        (gpu.scheduler)
            .register(app, stream, tenant, weight, now)
            .expect("RT signal space exhausted");
        gpu.apps.push((app, ctx, stream));
        let setup = if fresh {
            self.costs.ctx_create_ns
        } else {
            self.costs.stream_create_ns
        };
        let cost = self.costs.balancer_rtt_ns + self.costs.handshake_ns + setup;
        self.busy_then_advance(app, cost, now)
    }

    /// A call arrives at the backend daemon.
    fn on_deliver(&mut self, app: AppId, packed: PackedCall, now: SimTime) {
        self.rpc.delivered += 1;
        let (gid, _) = self.binding(app);
        let ordinal = self.rpc.delivered;
        self.step(app.index(), Step::RpcDeliver { gid, ordinal });
        if self.cfg.design == BackendDesign::SingleMaster {
            self.gpus[gid.index()].master_q.push_back((app, packed));
            self.pump_master(gid.index(), now);
        } else {
            self.exec_backend(app, packed, now);
        }
    }

    /// Design II: the single master thread dispatches serially and stalls
    /// on blocking synchronization.
    fn pump_master(&mut self, gid: usize, now: SimTime) {
        while self.gpus[gid].master_stall.is_none() {
            let Some((app, packed)) = self.gpus[gid].master_q.pop_front() else {
                break;
            };
            self.gpus[gid].master_stall = self.exec_backend(app, packed, now);
        }
    }

    /// Execute a delivered call at the backend. Returns a stall condition
    /// if this call blocks the (Design II) master thread.
    fn exec_backend(&mut self, app: AppId, packed: PackedCall, now: SimTime) -> Option<BlockOn> {
        let (gid, ctx) = self.binding(app);
        let blocks = packed.host_blocks || packed.call.has_output();
        let node = self.app(app).node;
        let ret = (self.cluster).bulk_bytes(node, gid, packed.call.rpc_return_bytes());
        let (ret_ns, stretched) = self.cluster.wire_ns(node, gid, ret, now);
        if stretched {
            self.app_mut(app).degraded = true;
        }
        let reply_ns = ret_ns + self.cfg.rpc.reply_overhead_ns(&packed.call);
        match packed.call {
            CudaCall::Memcpy { dir, bytes } | CudaCall::MemcpyAsync { dir, bytes } => {
                let pinned = packed.pinned;
                let jid = self.submit_job(app, JobKind::Copy { dir, bytes, pinned }, blocks, now);
                if blocks {
                    self.wait_or_reply(app, BlockOn::Job(jid), reply_ns, now);
                }
                None
            }
            CudaCall::LaunchKernel { kernel } => {
                self.submit_job(app, JobKind::Kernel(kernel), false, now);
                None
            }
            CudaCall::StreamSynchronize => {
                let stream = self.app(app).stream;
                let cond = BlockOn::StreamIdle(ctx, stream);
                self.wait_or_reply(app, cond, reply_ns, now);
                (!self.pending.is_satisfied(cond)).then_some(cond)
            }
            CudaCall::DeviceSynchronize => {
                let cond = BlockOn::CtxIdle(ctx);
                self.wait_or_reply(app, cond, reply_ns, now);
                (!self.pending.is_satisfied(cond)).then_some(cond)
            }
            CudaCall::Malloc { bytes } => {
                if self.gpus[gid.index()].device.alloc(ctx, bytes).is_err() {
                    self.stats.oom_events += 1;
                }
                self.reply_at(app, now + reply_ns + self.costs.malloc_ns);
                None
            }
            CudaCall::Free { bytes } => {
                self.gpus[gid.index()].device.free(ctx, bytes);
                if blocks {
                    self.reply_at(app, now + reply_ns);
                }
                None
            }
            CudaCall::ThreadExit => {
                self.backend_thread_exit(app, gid, ctx, now);
                self.reply_at(app, now + reply_ns);
                None
            }
            CudaCall::SetDevice { .. } => {
                unreachable!("SetDevice is handled synchronously at the frontend")
            }
        }
    }

    fn backend_thread_exit(&mut self, app: AppId, gid: Gid, ctx: ContextId, now: SimTime) {
        let (node, class) = {
            let a = self.app(app);
            (a.node, a.class)
        };
        // Feedback Engine: piggyback the record, then unregister.
        self.wake_epoch(gid.index(), now, true);
        let rec = self.gpus[gid.index()].unregister(app, now);
        if let Some(m) = self.cluster.mapper(node) {
            if let Some(rec) = rec {
                m.feedback(class, gid, rec);
            }
            m.unbind(gid, class);
        }
        if !self.cfg.design.shares_context() {
            // Design I: the app's private backend process and context die.
            self.registry.destroy(ctx);
            self.gpus[gid.index()].device.destroy_context(ctx);
            self.pending.forget_ctx(ctx);
            self.sync_device(gid.index(), now);
            // After the sync: it may still harvest the context's last work.
            self.obs.ctx_destroyed(ctx, self.app(app).stream);
        } else {
            // Designs II/III: the shared context outlives the app, but its
            // private stream does not; without this every app that ever
            // ran keeps a row the device walks on each step.
            let stream = self.app(app).stream;
            self.gpus[gid.index()].device.drop_stream(ctx, stream);
            self.obs.stream_dropped(ctx, stream);
        }
    }

    // ---- device interaction ----------------------------------------------

    fn binding(&self, app: AppId) -> (Gid, ContextId) {
        let a = self.app(app);
        (
            a.gid.expect("app not bound to a device"),
            a.ctx.expect("app without context"),
        )
    }

    /// Submit `app`'s work to its bound stream. `awaited` marks a
    /// synchronous call that blocks on this job, so attribution keeps the
    /// job's completed-work window for the wait to consume.
    fn submit_job(
        &mut self,
        app: AppId,
        kind: JobKind,
        awaited: bool,
        now: SimTime,
    ) -> gpu_sim::ids::JobId {
        let (gid, ctx) = self.binding(app);
        let stream = self.app(app).stream;
        self.wake_epoch(gid.index(), now, false);
        let jid = (self.gpus[gid.index()].device)
            .submit(ctx, stream, kind, app.0 as u64, now)
            .expect("submit to bound context");
        if awaited {
            // Before the sync below: the job may complete in it.
            self.obs.job_awaited(jid);
        }
        self.pending.submit(ctx, stream, jid);
        self.sync_device(gid.index(), now);
        jid
    }

    /// Direct mode: block the host on `cond`, or advance if it already
    /// holds.
    fn block_or_advance(&mut self, app: AppId, cond: BlockOn, reply_ns: u64, now: SimTime) -> bool {
        if self.pending.is_satisfied(cond) {
            self.wait_released(app, cond, now);
            self.advance(app, now, false);
            return true;
        }
        self.app_mut(app).host.block(cond);
        self.waiters.push(Waiter {
            app,
            cond,
            reply_ns,
            direct: true,
        });
        false
    }

    /// Backend: reply when `cond` holds (immediately if it already does).
    fn wait_or_reply(&mut self, app: AppId, cond: BlockOn, reply_ns: u64, now: SimTime) {
        if self.pending.is_satisfied(cond) {
            self.wait_released(app, cond, now);
            self.reply_at(app, now + reply_ns);
        } else {
            self.waiters.push(Waiter {
                app,
                cond,
                reply_ns,
                direct: false,
            });
        }
    }

    /// Step a device, harvest completions, feed monitors/waiters, and
    /// reschedule its next event.
    fn sync_device(&mut self, gid: usize, now: SimTime) {
        self.wake_epoch(gid, now, false);
        let g = &mut self.gpus[gid];
        g.device.step(now);
        // step() advanced the device's generation: every wakeup scheduled
        // before this point is now stale. Cancel them in the queue (they
        // die at their original pop slot) instead of dispatching them.
        self.queue.invalidate(g.key);
        // Reuse one completion buffer across syncs; a nested sync (a woken
        // host resubmitting) takes an empty stand-in and is still correct.
        let mut done = std::mem::take(&mut self.done_buf);
        g.device.take_completions_into(&mut done);
        let any = !done.is_empty();
        for c in &done {
            self.pending.complete(c.job.id);
            self.obs.job_done(c);
            let app = AppId(c.job.tag as u32);
            let service = c.service_ns();
            // Fairness horizon accounting uses true engine service.
            if self.fairness_horizon.is_none_or(|h| c.finished_at <= h) {
                let tenant = self.requests[app.index()].tenant;
                *self.tenant_service[tenant.0 as usize].get_or_insert(0) += service;
            }
            // Rain cannot separate context-switch overhead from measured
            // service (paper §V.D.1): its monitors over-report.
            let g = &mut self.gpus[gid];
            let measured = if self.cfg.service_includes_switch_overhead {
                service + g.device.config().context_switch_ns / 4
            } else {
                service
            };
            let (is_transfer, bytes) = match c.job.kind {
                JobKind::Copy { bytes, .. } => (true, bytes),
                JobKind::Kernel(_) => (false, 0),
            };
            g.scheduler
                .record_service(app, measured, is_transfer, bytes);
        }
        // Return the buffer before any re-entrant path can need it.
        done.clear();
        self.done_buf = done;
        if any {
            self.check_waiters(now);
            // Everything dispatchable gated while work exists: re-run the
            // dispatcher now (work conservation between epochs).
            if self.gpus[gid].needs_retick(now) {
                self.apply_gating(gid, now, false);
            }
        }
        let g = &self.gpus[gid];
        if let Some(t) = g.device.next_event_time(now) {
            let t = t.max(now);
            // A nested resync of this device (check_waiters or the retick
            // above) may already have scheduled this very wakeup. Keep it:
            // superseding it with a copy would take a new event id and
            // change the cause links of everything the wakeup schedules.
            if self.queue.parked_at(g.key) != Some(t) {
                self.queue
                    .schedule_keyed(g.key, t, Event::Device(gid as u32));
            }
        }
        // Design II masters may unstall when pending work drains.
        if let Some(cond) = self.gpus[gid].master_stall {
            if self.pending.is_satisfied(cond) {
                self.gpus[gid].master_stall = None;
                self.pump_master(gid, now);
            }
        }
    }

    /// One injected fault from the plan fires.
    fn on_plan_fault(&mut self, idx: usize, now: SimTime) {
        let ev = self.cluster.plan.events()[idx];
        // The record lands in the struck node's ring; device faults land
        // on the device's hosting node.
        let ring = match ev.kind {
            FaultKind::NodeLoss { node }
            | FaultKind::LinkDegraded { node, .. }
            | FaultKind::Partition { node, .. } => node,
            FaultKind::BackendCrash { gid } | FaultKind::DeviceFailure { gid } => {
                (self.cluster.gpool.global().entry(Gid(gid))).map_or(0, |e| e.node.0)
            }
        };
        self.obs.fault(&self.queue, NodeId(ring), ev.kind);
        match ev.kind {
            FaultKind::BackendCrash { gid } => self.on_backend_crash(gid as usize, now),
            FaultKind::DeviceFailure { gid } => self.on_device_failure(Gid(gid), now),
            FaultKind::NodeLoss { node } => self.on_node_loss(NodeId(node), now),
            // Targets were checked against the topology when the plan was
            // installed.
            kind => self.cluster.strike_link(kind, now),
        }
        // Trigger after the handler so the fault-class dump window
        // includes the blast radius (aborts, failovers) just recorded.
        self.obs.flight.trigger(DumpReason::Fault, now);
    }

    /// A backend process on `gid` crashes and respawns. The blast radius
    /// depends on the worker design (paper Figure 5): Design I isolates
    /// the fault to one application's private backend process; Design II's
    /// single master takes every application on the device down with it;
    /// Design III loses the per-GPU process — the offending application is
    /// lost, but its siblings' frontends reconnect to the respawned
    /// process and replay (disrupted, not lost).
    fn on_backend_crash(&mut self, gid: usize, now: SimTime) {
        let Some(g) = self.gpus.get(gid) else {
            return;
        };
        let mut bound: Vec<AppId> = g.apps.iter().map(|&(app, ..)| app).collect();
        bound.sort();
        if bound.is_empty() {
            return;
        }
        match self.cfg.design {
            BackendDesign::SingleMaster => {
                for app in bound {
                    self.abort_app(app, now);
                }
                self.gpus[gid].master_q.clear();
                self.gpus[gid].master_stall = None;
            }
            BackendDesign::PerAppProcess => {
                self.abort_app(bound[0], now);
            }
            BackendDesign::PerGpuThreads => {
                self.abort_app(bound[0], now);
                for app in bound.into_iter().skip(1) {
                    self.failover_app(app, now, "backend_respawn");
                }
            }
        }
        self.sync_device(gid, now);
        self.check_waiters(now);
    }

    /// Permanent fail-stop of one device (ECC-style): it leaves the pool,
    /// the gMap marks it lost (surviving GIDs stay stable — the rebuild
    /// guarantee), the balancer retires its DST row, and every bound
    /// application fails over to a survivor.
    fn on_device_failure(&mut self, gid: Gid, now: SimTime) {
        if self.cluster.fail_device(gid, now) {
            self.note_gmap_rebuild(now);
            self.fail_bound_apps(gid, now);
        }
    }

    /// A whole node drops out of the supernode: its devices leave the
    /// pool, its frontends die (their requests are lost outright), and
    /// remote applications bound to its devices fail over.
    fn on_node_loss(&mut self, node: NodeId, now: SimTime) {
        let Some(newly) = self.cluster.lose_node(node, now) else {
            return;
        };
        if !newly.is_empty() {
            self.note_gmap_rebuild(now);
        }
        let local_apps = self.live_apps(|a| !a.host.is_done() && a.node == node);
        for app in local_apps {
            self.abort_app(app, now);
        }
        for gid in newly {
            self.fail_bound_apps(gid, now);
        }
    }

    fn note_gmap_rebuild(&mut self, now: SimTime) {
        self.stats.gmap_rebuilds += 1;
        let survivors = self.cluster.gpool.global().live_len();
        self.obs.gmap_rebuild(now, survivors);
    }

    /// Whether an application fronted on `node` can be re-placed after
    /// losing its device (needs a balancer and a surviving device).
    fn has_live_target(&self, node: NodeId) -> bool {
        self.cfg.mode != SchedulerMode::CudaRuntime && self.cluster.has_live_target(node)
    }

    /// Every live application bound to `gid` loses its backend: failover
    /// where re-placement is possible, abort otherwise.
    fn fail_bound_apps(&mut self, gid: Gid, now: SimTime) {
        let bound = self.live_apps(|a| !a.host.is_done() && a.gid == Some(gid));
        for app in bound {
            let node = self.app(app).node;
            if self.has_live_target(node) {
                self.failover_app(app, now, "device_lost");
            } else {
                self.abort_app(app, now);
            }
        }
        let gpu = &mut self.gpus[gid.index()];
        gpu.master_q.clear();
        gpu.master_stall = None;
        self.check_waiters(now);
    }

    /// Detach `app` from its device: cancel queued work, unregister it
    /// from the device scheduler and the balancer, and drop its waiters.
    fn detach_app(&mut self, app: AppId, now: SimTime) {
        let (node, class, gid, ctx, stream) = {
            let a = self.app(app);
            (a.node, a.class, a.gid, a.ctx, a.stream)
        };
        if let (Some(gid), Some(ctx)) = (gid, ctx) {
            let g = gid.index();
            self.wake_epoch(g, now, true);
            let gpu = &mut self.gpus[g];
            for jid in gpu.device.cancel_stream(ctx, stream) {
                self.pending.complete(jid);
            }
            // The app never submits on this stream again (a re-bind gets a
            // fresh one); drop its row unless work is still running on it.
            gpu.device.drop_stream(ctx, stream);
            self.obs.stream_dropped(ctx, stream);
            gpu.unregister(app, now);
            gpu.master_q.retain(|(a, _)| *a != app);
            if let Some(m) = self.cluster.mapper(node) {
                m.unbind(gid, class);
            }
            // Cancelling streams can change what the device runs next;
            // re-sync so its event chain keeps driving the survivors.
            self.sync_device(g, now);
        }
        for w in self.waiters.iter().filter(|w| w.app == app) {
            self.obs.wait_dropped(w.cond);
        }
        self.waiters.retain(|w| w.app != app);
    }

    /// Tear down a killed application: purge its queued device work,
    /// unregister it everywhere, and end its host thread without a
    /// completion record.
    fn abort_app(&mut self, app: AppId, now: SimTime) {
        let gid = {
            let a = self.app(app);
            if a.host.is_done() {
                return;
            }
            a.gid
        };
        self.retract(app, now);
        self.detach_app(app, now);
        let a = self.app_mut(app);
        a.incarnation += 1; // poison in-flight events
        a.inflight = None;
        a.host.abort();
        drop(std::mem::take(&mut a.host.program));
        self.finish_request(app.index(), now, Step::Abort { gid });
    }

    /// Fail `app` over: tear down the dead binding, bump the incarnation
    /// so stale events are discarded, and replay the program once the
    /// frontend has detected the failure and a backend respawned. The
    /// request survives — slower, and counted as disrupted.
    fn failover_app(&mut self, app: AppId, now: SimTime, reason: &'static str) {
        let (tenant, gid) = {
            let a = self.app(app);
            if a.host.is_done() {
                return;
            }
            (a.tenant, a.gid)
        };
        self.retract(app, now);
        self.detach_app(app, now);
        // Failure detection (one deadline) plus backend respawn/backoff.
        let policy = self.cfg.retry;
        let delay = if policy.is_enabled() {
            policy.deadline_ns + policy.backoff_ns(2, &mut self.rng)
        } else {
            1_000_000
        };
        let a = self.app_mut(app);
        a.incarnation += 1;
        a.attempt = 0;
        a.inflight = None;
        a.gid = None;
        a.ctx = None;
        a.stream = StreamId::DEFAULT;
        a.disrupted = true;
        let inc = a.incarnation;
        self.stats.failovers += 1;
        self.outcome(tenant).downtime_ns += delay;
        let step = Step::Failover { gid, delay, reason };
        self.step(app.index(), step);
        self.queue.schedule(now + delay, Event::Restart(app, inc));
    }

    /// The failover window elapsed: replay the program from the top. The
    /// replayed `cudaSetDevice` re-enters the balancer, which now skips
    /// retired devices — that is the re-placement.
    fn on_restart(&mut self, app: AppId, now: SimTime) {
        let node = self.app(app).node;
        if self.cluster.is_lost(node) || !self.has_live_target(node) {
            // Nowhere left to run: the request is lost after all.
            self.abort_app(app, now);
            return;
        }
        let a = self.app_mut(app);
        a.last_deliver = now;
        a.host.restart(now);
        let incarnation = a.incarnation;
        self.step(app.index(), Step::Restart { incarnation });
        self.run_host(app, now);
    }

    fn check_waiters(&mut self, now: SimTime) {
        // Reused buffer; a re-entrant call (a released waiter's host step
        // can sync another device) takes an empty stand-in.
        let mut ready = std::mem::take(&mut self.ready_buf);
        ready.clear();
        let mut i = 0;
        while i < self.waiters.len() {
            if self.pending.is_satisfied(self.waiters[i].cond) {
                ready.push(self.waiters.swap_remove(i));
            } else {
                i += 1;
            }
        }
        // Deterministic processing order.
        ready.sort_by_key(|w| w.app);
        for w in ready.drain(..) {
            self.wait_released(w.app, w.cond, now);
            if w.direct {
                self.advance(w.app, now, true);
                self.run_host(w.app, now);
            } else {
                self.reply_at(w.app, now + w.reply_ns);
            }
        }
        ready.clear();
        self.ready_buf = ready;
    }

    // ---- dispatcher epochs ------------------------------------------------

    /// A device's dispatcher epoch pops: one pass over the chain on its
    /// [`Gpu`], re-syncing the device if the pass changed its gates.
    fn on_epoch(&mut self, gid: usize, now: SimTime) {
        let Some(settled) = self.gpus[gid].begin_pass(now) else {
            return;
        };
        let unchanged = self.apply_gating(gid, now, settled);
        self.gpus[gid].end_pass(&mut self.queue, now, unchanged);
    }

    /// The device is about to change ([`Gpu::wake_epoch`]).
    fn wake_epoch(&mut self, gid: usize, now: SimTime, apps_changed: bool) {
        self.gpus[gid].wake_epoch(&mut self.queue, now, apps_changed);
    }

    /// One dispatcher pass ([`Gpu::gate`]), then a re-sync of the device if
    /// it changed the gates. Returns true when it kept the gates in force.
    fn apply_gating(&mut self, gid: usize, now: SimTime, settled: bool) -> bool {
        let resync = self.gpus[gid].gate(now, settled);
        if resync {
            self.sync_device(gid, now);
        }
        !resync
    }
}
