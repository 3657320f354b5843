//! The simulation executive.
//!
//! A [`World`] runs one scenario to completion: planned requests arrive as
//! negative-exponential streams, each becoming a host thread that walks its
//! program; CUDA calls flow through the configured scheduler stack (bare
//! runtime, Rain, or Strings) onto the simulated devices; completions wake
//! blocked hosts; the dispatcher gates per-application streams each epoch.
//!
//! Everything is event-driven over one deterministic queue. The world owns
//! all state (hosts, devices, mappers, schedulers, packers) and is the only
//! mutator, so the borrow story stays simple and a run is exactly
//! reproducible from its seed.
//!
//! The world observes nothing itself: it reports each step of a request's
//! life once, as a typed `Step`, to its `Observers` (`crate::observe`),
//! which own the tracer, latency attribution, the metrics registry, the
//! flight recorder and the burn-rate alerts. A request ends in exactly one
//! place, `World::finish_request`, where the run's request counters move.

use crate::observe::{Observers, Step, RUN_FAMILIES};
use crate::scenario::{HostCosts, LbScope};
use crate::stats::{PhaseProfile, RunStats, TenantOutcomes};
use cuda_sim::call::CudaCall;
use cuda_sim::host::{AppId, BlockOn, HostThread, ProcessId};
use cuda_sim::pending::PendingOps;
use cuda_sim::program::HostOp;
use cuda_sim::program::HostProgram;
use cuda_sim::registry::ContextRegistry;
use gpu_sim::device::{CompletedJob, Device, DeviceConfig};
use gpu_sim::ids::{ContextId, StreamId};
use gpu_sim::job::{CopyDirection, JobKind};
use remoting::backend::{BackendDesign, APP_PID_BASE, HOST_PID_BASE};
use remoting::channel::ChannelSpec;
use remoting::gpool::{Gid, NodeId, ShardedGPool};
use remoting::network::NetworkSpec;
use remoting::telemetry::RpcCounters;
use remoting::topology::TopologySpec;
use sim_core::event::EventQueue;
use sim_core::fault::{FaultKind, FaultPlan};
use sim_core::flight::{DumpReason, FlightRecorder};
use sim_core::rng::SimRng;
use sim_core::trace::{Stage, Tracer};
use sim_core::{EventKey, SimDuration, SimTime};
use std::collections::VecDeque;
use strings_core::admission::{AdmissionConfig, AdmissionController};
use strings_core::config::{SchedulerMode, StackConfig};
use strings_core::device_sched::{AppWork, GpuPolicy, GpuScheduler, Phase, TenantId};
use strings_core::mapper::{GpuAffinityMapper, WorkloadClass};
use strings_core::packer::{ContextPacker, PackedCall};
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
enum Event {
    Arrival(u32),
    /// Host CPU phase ends (app, incarnation).
    HostWake(AppId, u32),
    /// A device's next self-event is due. Staleness is handled by the
    /// queue: the wakeup is scheduled under the device's [`EventKey`], and
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

#[derive(Debug)]
struct Waiter {
    app: AppId,
    cond: BlockOn,
    /// Reply-path latency once the condition holds (0 in direct mode).
    reply_ns: u64,
    /// Direct (no RPC): wake the host in place instead of a Reply event.
    direct: bool,
}

/// Where a device's dispatcher epoch chain stands. The dispatcher re-decides
/// the awake set every epoch (paper §III.C), but between device changes
/// (register, unregister, submit, a device resync) its inputs stand still
/// except for the LAS decay, so the executive pops an epoch only where the
/// decision can change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EpochState {
    /// No [`Event::Epoch`] is queued: no app is registered on the device,
    /// or no device policy runs.
    Disarmed,
    /// An [`Event::Epoch`] is queued. `settled` holds while the gates in
    /// force are the device's `applied_awake` set, derived for its current
    /// app set; an app registering or unregistering clears it, and it is
    /// never set while epoch decisions are traced.
    Armed { settled: bool },
    /// The settled pass at boundary `T` re-derived the awake set in force,
    /// so until the device changes every later pass would too and only roll
    /// the decay. No epoch is queued, except under LAS at the first boundary
    /// where the decay ties the awake app with a lower-id ready one
    /// ([`GpuScheduler::las_handover_in`]). [`World::wake_epoch`] replays
    /// the skipped rolls and re-arms the chain on its original phase.
    Parked(SimTime),
}

/// The executive.
pub struct World {
    cfg: StackConfig,
    scope: LbScope,
    costs: HostCosts,
    /// Inter-node network: answers "which channel joins these two nodes?".
    net: NetworkSpec,
    /// The cluster gPool, sharded per node. The global map drives device
    /// construction and failure bookkeeping; local-scope balancers see
    /// their node's shard (same global GIDs — no renumbering anywhere).
    gpool: ShardedGPool,
    devices: Vec<Device>,
    schedulers: Vec<GpuScheduler>,
    packers: Vec<ContextPacker>,
    device_apps: Vec<Vec<AppId>>,
    /// Per-device dispatcher epoch chain (see [`EpochState`]).
    epochs: Vec<EpochState>,
    /// `(t, id)` for each distinct pop time `t` within the last epoch:
    /// `id` is the queue's next event id when the clock reached `t`. Kept
    /// only under a device policy (see [`World::epoch_precedes_current`]).
    clock_marks: VecDeque<(SimTime, u64)>,
    /// Per-device: the awake set the last full [`World::apply_gating`]
    /// pass put in force. Meaningful while the device's epoch state is
    /// settled; reused in place so the epoch path stays allocation-free.
    applied_awake: Vec<Vec<AppId>>,
    shared_ctx: Vec<Option<ContextId>>,
    master_q: Vec<VecDeque<(AppId, PackedCall)>>,
    master_stall: Vec<Option<BlockOn>>,
    mappers: Vec<GpuAffinityMapper>,
    registry: ContextRegistry,
    pending: PendingOps,
    queue: EventQueue<Event>,
    /// One cancellable queue slot per device (wakeup self-events).
    dev_keys: Vec<EventKey>,
    /// One cancellable queue slot per device for a parked chain's queued
    /// LAS handover, so a device change can withdraw it (none without a
    /// device policy). Armed chains are never withdrawn; their epochs go to
    /// the cheaper plain queue.
    epoch_keys: Vec<EventKey>,
    /// Reusable completion buffer (avoids a fresh `Vec` per device sync).
    done_buf: Vec<CompletedJob>,
    /// Reusable epoch buffers: the dispatcher's work snapshot and the
    /// awake set. They keep the epoch path allocation-free.
    work_buf: Vec<AppWork>,
    awake_buf: Vec<AppId>,
    /// Reusable released-waiter buffer for [`World::check_waiters`].
    ready_buf: Vec<Waiter>,
    apps: Vec<Option<AppInstance>>,
    waiters: Vec<Waiter>,
    requests: Vec<PlannedRequest>,
    /// Injected faults for this run (virtual-time-stamped, seeded).
    plan: FaultPlan,
    /// Failure-semantics RNG (backoff jitter); reseeded by the scenario.
    rng: SimRng,
    /// Nodes lost to `FaultKind::NodeLoss` (frontends there are dead).
    node_lost: Vec<bool>,
    /// Per-node partition window end (0 = not partitioned).
    partition_until: Vec<SimTime>,
    /// Per-node link degradation window: (end, slowdown factor).
    degrade: Vec<(SimTime, f64)>,
    slot_inflight: Vec<usize>,
    slot_backlog: Vec<VecDeque<usize>>,
    /// Serve-mode front door (None in batch scenarios: everything admits).
    admission: Option<AdmissionController>,
    /// Collect one [`SloRecord`] per completion (serve mode).
    request_log: bool,
    next_stream: u32,
    finished: usize,
    fairness_horizon: Option<SimTime>,
    stats: RunStats,
    /// Hard cap on processed events (runaway guard).
    max_events: u64,
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
        let nodes = topology.nodes();
        let gpool = ShardedGPool::build(nodes);
        let n = gpool.global().len();
        assert!(n > 0, "topology has no GPUs");
        let devices: Vec<Device> = gpool
            .global()
            .entries()
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let mut d = Device::new(e.local, e.model.spec(), device_cfg);
                // Disjoint JobId ranges per device: the pending-op tracker
                // is keyed globally by JobId.
                d.set_job_id_base(i as u32 * 0x0100_0000);
                d
            })
            .collect();
        let schedulers = (0..n)
            .map(|_| GpuScheduler::new(cfg.gpu_policy, cfg.epoch.as_ns()))
            .collect();
        let packers = (0..n).map(|_| ContextPacker::new(cfg.packer)).collect();
        // Workload balancers: one global, or one per node (local scope).
        // Per-node balancers see their node's gPool shard, which keeps
        // cluster-wide GIDs — selections need no renumbering.
        let mut mappers = match (cfg.arbiter(), scope) {
            (None, _) => Vec::new(),
            (Some(arb), LbScope::Global) => vec![GpuAffinityMapper::new(gpool.global(), arb)],
            (Some(arb), LbScope::Local) => nodes
                .iter()
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
        let n_slots = requests.iter().map(|r| r.slot + 1).max().unwrap_or(1);
        let slot_inflight = vec![0; n_slots];
        let slot_backlog = (0..n_slots).map(|_| VecDeque::new()).collect();
        let mut queue = EventQueue::new();
        let dev_keys = (0..n).map(|_| queue.register_key()).collect();
        let epoch_keys = match cfg.gpu_policy {
            GpuPolicy::None => Vec::new(),
            _ => (0..n).map(|_| queue.register_key()).collect(),
        };
        let mut world = World {
            cfg,
            scope,
            costs,
            net: topology.network().clone(),
            gpool,
            devices,
            schedulers,
            packers,
            device_apps: vec![Vec::new(); n],
            epochs: vec![EpochState::Disarmed; n],
            applied_awake: vec![Vec::new(); n],
            clock_marks: VecDeque::new(),
            shared_ctx: vec![None; n],
            master_q: (0..n).map(|_| VecDeque::new()).collect(),
            master_stall: vec![None; n],
            mappers,
            registry: ContextRegistry::new(),
            pending: PendingOps::new(),
            queue,
            dev_keys,
            epoch_keys,
            done_buf: Vec::new(),
            work_buf: Vec::new(),
            awake_buf: Vec::new(),
            ready_buf: Vec::new(),
            apps: Vec::new(),
            waiters: Vec::new(),
            requests,
            plan: FaultPlan::none(),
            rng: SimRng::new(0x5EED_FA17),
            node_lost: vec![false; nodes.len()],
            partition_until: vec![0; nodes.len()],
            degrade: vec![(0, 1.0); nodes.len()],
            slot_inflight,
            slot_backlog,
            admission: None,
            request_log: false,
            next_stream: 1,
            finished: 0,
            fairness_horizon,
            stats: RunStats {
                completions: CompletionSet::new(n_slots),
                ..Default::default()
            },
            max_events: 500_000_000,
            obs: Observers::new(nodes.len()),
            rpc: RpcCounters::default(),
            self_profile: false,
        };
        // Design II/III backends own one context per GPU, created when the
        // backend daemons spawn at gPool creation (before any request).
        if world.cfg.design.shares_context() {
            for gid in 0..world.devices.len() {
                let pid = world.cfg.design.backend_process(AppId(0), gid);
                let (ctx, fresh) = world.registry.get_or_create(pid, gid);
                debug_assert!(fresh);
                world.devices[gid].create_context(ctx);
                world.shared_ctx[gid] = Some(ctx);
            }
        }
        world
    }

    /// Turn on structured tracing: every device engine, scheduler, mapper
    /// and request slot gets a track, and the run's [`RunStats::trace`]
    /// carries the recorded [`sim_core::trace::Trace`]. Call before
    /// [`World::run`].
    pub fn enable_tracing(&mut self) {
        // Cluster runs (3+ nodes) prefix device tracks with their node so
        // a 64×4 trace is filterable per node in Perfetto. The paper's
        // single-node/supernode topologies keep the historical bare
        // `GID{g}` names (pinned by fig02's glitch query and the
        // committed goldens).
        let device_names: Vec<String> = if self.node_lost.len() > 2 {
            (0..self.devices.len())
                .map(|gid| format!("node{}/GID{gid}", self.dev_node(Gid(gid as u32)).0))
                .collect()
        } else {
            (0..self.devices.len()).map(|g| format!("GID{g}")).collect()
        };
        let slots = self.slot_inflight.len();
        let (devices, schedulers, mappers) =
            (&mut self.devices, &mut self.schedulers, &mut self.mappers);
        self.obs
            .trace(Tracer::folding(), &self.requests, slots, |tracer| {
                for (gid, d) in devices.iter_mut().enumerate() {
                    d.set_tracer(tracer.clone(), &device_names[gid]);
                }
                for (gid, s) in schedulers.iter_mut().enumerate() {
                    let trk = tracer.track(device_names[gid].clone(), "scheduler");
                    s.set_tracer(tracer.clone(), trk);
                }
                for (i, m) in mappers.iter_mut().enumerate() {
                    let trk = tracer.track("balancer", format!("mapper{i}"));
                    m.set_tracer(tracer.clone(), trk);
                }
            });
    }

    /// Turn on the lightweight latency-attribution recorder: it records
    /// no events, and stage charges are folded into one row per request
    /// as the run goes — the
    /// [`sim_core::trace::Trace::ledger`] that
    /// [`strings_metrics::attribution::AttributionReport`] reads, without
    /// paying for full device/scheduler/mapper tracing. A no-op when
    /// [`World::enable_tracing`] already ran (full traces are a
    /// superset).
    pub fn enable_attribution(&mut self) {
        let slots = self.slot_inflight.len();
        self.obs.attribute(slots);
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
        if let Err(e) = plan.check_targets(self.node_lost.len(), self.devices.len()) {
            panic!("{e}");
        }
        for ev in plan.events() {
            self.plan.push(ev.at, ev.kind);
        }
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
        self.obs.flight = FlightRecorder::new(self.node_lost.len(), depth);
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
        let cursor = self.apps[idx].as_mut().map(|a| &mut a.charged_to);
        let r = &self.requests[idx];
        self.obs.step(&self.queue, idx as u64, r, cursor, step);
    }

    /// Run to completion and return the statistics.
    pub fn run(mut self) -> RunStats {
        let wall_start = std::time::Instant::now();
        self.apps = (0..self.requests.len()).map(|_| None).collect();
        self.obs
            .start(&self.requests, self.devices.len(), &self.gpool);
        // Arrivals wait in the queue's cursor, not in the queue: ids 0..N,
        // as if scheduled one by one here.
        self.queue
            .schedule_arrivals(self.requests.iter().map(|r| r.arrival), Event::Arrival);
        for (i, ev) in self.plan.events().iter().enumerate() {
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
            if self.cfg.gpu_policy != GpuPolicy::None {
                self.mark_clock(now);
            }
            assert!(
                self.queue.popped() < self.max_events,
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
            for (i, a) in self.apps.iter().enumerate() {
                if let Some(a) = a {
                    if !a.host.is_done() {
                        eprintln!(
                            "stuck app {i}: state={:?} pc={} op={:?} gid={:?} ctx={:?} stream={:?}",
                            a.host.state,
                            a.host.pc,
                            a.host.current_op(),
                            a.gid,
                            a.ctx,
                            a.stream
                        );
                    }
                }
            }
            for (g, d) in self.devices.iter().enumerate() {
                eprintln!(
                    "device {g}: pending={} idle={} next={:?}",
                    d.total_pending(),
                    d.is_idle(),
                    d.next_event_time(self.queue.now())
                );
            }
            panic!(
                "deadlock: {} of {} finished",
                self.finished,
                self.requests.len()
            );
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
        self.stats.completed_requests = self.finished as u64;
        self.stats.context_switches = self
            .devices
            .iter()
            .map(|d| d.telemetry.context_switches)
            .sum();
        self.stats.clamped_events = self.queue.clamped();
        self.stats.stream_rows = self.devices.iter().map(|d| d.stream_rows() as u64).sum();
        if let Some(adm) = &self.admission {
            self.stats.admission = Some(adm.stats());
        }
        let run = self.run_sample();
        let (devices, gpool) = (&self.devices, &self.gpool);
        self.obs
            .finish(&self.queue, run, devices, gpool, &mut self.stats);
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
        self.stats.device_telemetry = self
            .devices
            .iter_mut()
            .map(|d| std::mem::take(&mut d.telemetry).clone())
            .collect();
        self.stats
    }

    /// Dispatch one popped event. Extracted from the run loop so the
    /// self-profiler can time each dispatch; early exits that were
    /// `continue`s in the loop body are plain returns here.
    fn dispatch(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::Arrival(idx) => self.on_arrival(idx as usize, now),
            Event::HostWake(app, inc) => {
                if !self.live_incarnation(app, inc) {
                    return; // raced an abort or a failover replay
                }
                let a = self.app_mut(app);
                a.host.wake_and_advance(now);
                self.after_host_step(app, now);
                self.run_host(app, now);
            }
            Event::Device(gid) => self.sync_device(gid as usize, now),
            Event::Epoch(gid) => self.on_epoch(gid as usize, now),
            Event::Fault(idx) => self.on_plan_fault(idx as usize, now),
            Event::Deliver(app, packed, inc) => {
                if !self.live_incarnation(app, inc) {
                    return; // packet outlived its sender
                }
                self.on_deliver(app, packed, now);
            }
            Event::Reply(app, inc) => {
                if !self.live_incarnation(app, inc) {
                    return; // reply raced an injected fault
                }
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
                a.host.wake_and_advance(now);
                self.after_host_step(app, now);
                self.run_host(app, now);
            }
            Event::Deadline(app, inc, attempt) => {
                if !self.live_incarnation(app, inc) {
                    return;
                }
                let a = self.app(app);
                if a.attempt != attempt || a.inflight.is_none() {
                    return; // the reply won the race
                }
                self.on_rpc_timeout(app, now);
            }
            Event::Retry(app, inc, attempt) => {
                if !self.live_incarnation(app, inc) {
                    return;
                }
                let a = self.app(app);
                if a.attempt != attempt {
                    return;
                }
                let Some(packed) = a.inflight else {
                    return;
                };
                self.send_rpc(app, packed, true, now);
            }
            Event::Restart(app, inc) => {
                if !self.live_incarnation(app, inc) {
                    return; // a later fault overtook the failover
                }
                self.on_restart(app, now);
            }
            Event::MetricsSample => {
                self.obs
                    .sample(now, self.run_sample(), &self.devices, &self.gpool);
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

    fn app(&self, id: AppId) -> &AppInstance {
        self.apps[id.index()].as_ref().expect("app exists")
    }

    fn app_mut(&mut self, id: AppId) -> &mut AppInstance {
        self.apps[id.index()].as_mut().expect("app exists")
    }

    /// True when `app` is alive and `inc` is its current incarnation.
    /// Events carry the incarnation they were scheduled under; anything
    /// older raced an abort or failover and must be dropped.
    fn live_incarnation(&self, app: AppId, inc: u32) -> bool {
        self.apps
            .get(app.index())
            .and_then(|a| a.as_ref())
            .is_some_and(|a| a.incarnation == inc && !a.host.is_done())
    }

    fn outcome(&mut self, tenant: TenantId) -> &mut TenantOutcomes {
        self.stats.tenant_outcomes.entry(tenant).or_default()
    }

    /// Charge `app`'s wall clock up to `until` to `stage`
    /// ([`Observers::charge`]).
    fn charge(&mut self, app: AppId, stage: Stage, until: SimTime) {
        let a = self.apps[app.index()].as_mut().expect("app exists");
        let id = app.index() as u64;
        self.obs.charge(a.slot, id, &mut a.charged_to, stage, until);
    }

    /// A failure at `now` overtook `app` ([`Observers::retract`]).
    fn retract(&mut self, app: AppId, now: SimTime) {
        let a = self.apps[app.index()].as_mut().expect("app exists");
        let id = app.index() as u64;
        self.obs.retract(a.slot, id, &mut a.charged_to, now);
    }

    /// `app`'s blocked wait on `cond` released at `rel`
    /// ([`Observers::wait_released`]).
    fn wait_released(&mut self, app: AppId, cond: BlockOn, rel: SimTime) {
        let a = self.apps[app.index()].as_mut().expect("app exists");
        let switching = a.gid.map(|g| &self.devices[g.index()].telemetry.switching);
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

    /// Schedule a reply stamped with the app's current incarnation.
    fn schedule_reply(&mut self, app: AppId, at: SimTime) {
        let inc = self.app(app).incarnation;
        self.queue.schedule(at, Event::Reply(app, inc));
    }

    /// Schedule a host wake-up stamped with the current incarnation.
    fn schedule_wake(&mut self, app: AppId, at: SimTime) {
        let inc = self.app(app).incarnation;
        self.queue.schedule(at, Event::HostWake(app, inc));
    }

    /// When the `a`↔`b` link is partitioned at `now`, the virtual time the
    /// window heals; 0 otherwise. Same-node traffic never partitions.
    fn link_partition_heal(&self, a: NodeId, b: NodeId, now: SimTime) -> SimTime {
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
    fn link_factor(&self, a: NodeId, b: NodeId, now: SimTime) -> f64 {
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

    /// Hosting node of a device.
    fn dev_node(&self, gid: Gid) -> NodeId {
        self.gpool.global().entry(gid).expect("gid in gmap").node
    }

    fn channel(&self, node: NodeId, gid: Gid) -> ChannelSpec {
        self.net.channel(node, self.dev_node(gid))
    }

    /// Bulk copy payloads cross the *network* channel byte for byte, but a
    /// same-node frontend/backend pair passes buffers through shared memory
    /// zero-copy — only the control message is marshalled.
    fn bulk_bytes(&self, node: NodeId, gid: Gid, bytes: u64) -> u64 {
        if self.dev_node(gid) == node {
            0
        } else {
            bytes
        }
    }

    fn on_arrival(&mut self, idx: usize, now: SimTime) {
        self.step(idx, Step::Arrival);
        let r = &self.requests[idx];
        if self.node_lost[r.node.0 as usize] {
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
        if self.node_lost[self.requests[idx].node.0 as usize] {
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
        self.apps[idx] = Some(AppInstance {
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
        });
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
                    let until = now + d.as_ns().max(1);
                    self.app_mut(app).host.start_cpu(until);
                    self.schedule_wake(app, until);
                    self.charge(app, Stage::HostCpu, until);
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
            self.app_mut(app).host.advance(now);
            self.after_host_step(app, now);
            return true;
        }
        let until = now + cost_ns;
        // The wake event advances past the op.
        self.app_mut(app).host.start_cpu(until);
        self.schedule_wake(app, until);
        self.charge(app, Stage::HostCpu, until);
        false
    }

    /// Bookkeeping when a host finishes its program.
    fn after_host_step(&mut self, app: AppId, now: SimTime) {
        let a = self.app_mut(app);
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
                let local = self.gpool.global().local_gids(a.node);
                assert!(!local.is_empty(), "node without GPUs");
                let gid = local[(device as usize) % local.len()];
                self.bind_direct(app, gid);
                self.busy_then_advance(app, self.costs.ctx_create_ns, now)
            }
            CudaCall::Malloc { bytes } => {
                let (gid, ctx) = self.binding(app);
                if self.devices[gid.index()].alloc(ctx, bytes).is_err() {
                    self.stats.oom_events += 1;
                }
                self.busy_then_advance(app, self.costs.malloc_ns, now)
            }
            CudaCall::Free { bytes } => {
                let (gid, ctx) = self.binding(app);
                self.devices[gid.index()].free(ctx, bytes);
                self.app_mut(app).host.advance(now);
                self.after_host_step(app, now);
                true
            }
            CudaCall::Memcpy { dir, bytes } => {
                let jid = self.submit_job(
                    app,
                    JobKind::Copy {
                        dir,
                        bytes,
                        pinned: false,
                    },
                    true,
                    now,
                );
                self.block_or_advance(app, BlockOn::Job(jid), 0, now)
            }
            CudaCall::MemcpyAsync { dir, bytes } => {
                self.submit_job(
                    app,
                    JobKind::Copy {
                        dir,
                        bytes,
                        pinned: false,
                    },
                    false,
                    now,
                );
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
                self.devices[gid.index()].destroy_context(ctx);
                // destroy_context advanced the device generation; pending
                // wakeups are stale (historical semantics: discarded unrun).
                self.queue.invalidate(self.dev_keys[gid.index()]);
                self.pending.forget_ctx(ctx);
                self.obs.ctx_destroyed(ctx, self.app(app).stream);
                self.app_mut(app).host.advance(now);
                self.after_host_step(app, now);
                true
            }
        }
    }

    fn bind_direct(&mut self, app: AppId, gid: Gid) {
        let a = self.app(app);
        let pid = ProcessId(APP_PID_BASE + app.0);
        let node = a.node;
        let (ctx, fresh) = self.registry.get_or_create(pid, gid.index());
        if fresh {
            self.devices[gid.index()].create_context(ctx);
            // create_context advanced the device generation; mirror the
            // historical semantics (pending wakeups became stale).
            self.queue.invalidate(self.dev_keys[gid.index()]);
        }
        let a = self.app_mut(app);
        a.gid = Some(gid);
        a.ctx = Some(ctx);
        a.stream = StreamId::DEFAULT;
        let _ = node;
    }

    // ---- interposed (Rain / Strings) path --------------------------------

    fn interposed_call(&mut self, app: AppId, call: CudaCall, now: SimTime) -> bool {
        if let CudaCall::SetDevice { .. } = call {
            return self.interposed_bind(app, now);
        }
        let (gid, _) = self.binding(app);
        let packed = self.packers[gid.index()].transform(app, call);
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
            self.app_mut(app).host.advance(now);
            self.after_host_step(app, now);
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
        let dev_node = self.dev_node(gid);
        let policy = self.cfg.retry;
        if blocks && policy.is_enabled() && self.link_partition_heal(node, dev_node, now) > now {
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
        let chan = self.channel(node, gid);
        let control = 48; // marshalled header + params
        let payload = self.bulk_bytes(node, gid, packed.call.rpc_payload_bytes());
        let factor = self.link_factor(node, dev_node, now);
        let base = chan.transfer_ns(control + payload);
        let transfer = if factor > 1.0 {
            (base as f64 * factor).round() as u64
        } else {
            base
        };
        let deliver_ns = self.cfg.rpc.send_overhead_ns(&packed.call)
            + transfer
            + self.cfg.rpc.recv_overhead_ns(&packed.call);
        // In-order per-application delivery: a small control message must
        // not overtake an earlier bulk payload on the same channel.
        let mut at = (now + deliver_ns).max(self.app(app).last_deliver.saturating_add(1));
        // Non-blocking sends (or blocking with retry disabled) queue up
        // behind a partition and drain when the window heals.
        let heal = self.link_partition_heal(node, dev_node, now);
        if heal > now {
            at = at.max(heal.saturating_add(deliver_ns));
        }
        if factor > 1.0 || heal > now {
            self.app_mut(app).degraded = true;
        }
        self.app_mut(app).last_deliver = at;
        self.queue.schedule(at, Event::Deliver(app, packed, inc));
        self.rpc.sent += 1;
        self.rpc.bytes += control + payload;
        let bytes = control + payload;
        self.step(app.index(), Step::RpcSend { gid, bytes });
        if blocks {
            // The host is parked on the reply: its clock is RPC time
            // until the call lands at the backend.
            self.charge(app, Stage::Rpc, at);
        }
    }

    /// A blocking RPC's deadline expired with no reply: retry with
    /// exponential backoff while the policy allows, then declare the
    /// backend dead (`remoting::Error::RetriesExhausted`) and fail over.
    fn on_rpc_timeout(&mut self, app: AppId, now: SimTime) {
        self.stats.rpc_timeouts += 1;
        self.rpc.timeouts += 1;
        let (inc, attempt) = {
            let a = self.app(app);
            (a.incarnation, a.attempt)
        };
        self.step(app.index(), Step::RpcTimeout { attempt });
        let policy = self.cfg.retry;
        let next = attempt + 1;
        if policy.allows(next) {
            let backoff = policy.backoff_ns(next, &mut self.rng);
            self.stats.rpc_retries += 1;
            self.rpc.retries += 1;
            let a = self.app_mut(app);
            a.attempt = next;
            a.disrupted = true;
            self.step(
                app.index(),
                Step::RpcRetry {
                    attempt: next,
                    backoff,
                },
            );
            self.queue
                .schedule(now + backoff, Event::Retry(app, inc, next));
        } else {
            let step = Step::RetriesExhausted { attempts: attempt };
            self.step(app.index(), step);
            self.failover_app(app, now, "retries_exhausted");
        }
    }

    /// The interposed `cudaSetDevice` life cycle: balancer query, backend
    /// binding, RM registration handshake.
    fn interposed_bind(&mut self, app: AppId, now: SimTime) -> bool {
        let (class, node, tenant, weight) = {
            let a = self.app(app);
            (a.class, a.node, a.tenant, a.weight)
        };
        let gid = self.select_gid(app, class, node, now);
        // Bind the app's backend worker.
        let pid = self.cfg.design.backend_process(app, gid.index());
        let (ctx, fresh) = self.registry.get_or_create(pid, gid.index());
        if fresh {
            self.devices[gid.index()].create_context(ctx);
            // create_context advanced the device generation; mirror the
            // historical semantics (pending wakeups became stale).
            self.queue.invalidate(self.dev_keys[gid.index()]);
        }
        let stream = if self.packers[gid.index()].uses_private_streams() {
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
        *self
            .stats
            .placements
            .entry((self.app(app).slot, gid.index()))
            .or_insert(0) += 1;
        self.step(app.index(), Step::Bind { gid });
        // Request Manager registration (RT-signal three-way handshake).
        let g = gid.index();
        self.wake_epoch(g, now, true);
        self.schedulers[g]
            .register(app, stream, tenant, weight, now)
            .expect("RT signal space exhausted");
        self.device_apps[g].push(app);
        let setup = if fresh {
            self.costs.ctx_create_ns
        } else {
            self.costs.stream_create_ns
        };
        let cost = self.costs.balancer_rtt_ns + self.costs.handshake_ns + setup;
        self.busy_then_advance(app, cost, now)
    }

    fn select_gid(&mut self, app: AppId, class: WorkloadClass, node: NodeId, now: SimTime) -> Gid {
        let request = app.index() as u64;
        // Per-node shards carry cluster-wide GIDs, so both scopes speak
        // the same id space and nothing is renumbered.
        let m = match self.scope {
            LbScope::Global => &mut self.mappers[0],
            LbScope::Local => &mut self.mappers[node.0 as usize],
        };
        let gid = m.select_device(class, node);
        m.bind(gid, class);
        m.note_placement(now, request, class, node, gid);
        gid
    }

    fn unbind_gid(&mut self, gid: Gid, node: NodeId, class: WorkloadClass) {
        match self.scope {
            LbScope::Global => self.mappers[0].unbind(gid, class),
            LbScope::Local => self.mappers[node.0 as usize].unbind(gid, class),
        }
    }

    fn feedback_to_mapper(
        &mut self,
        node: NodeId,
        gid: Gid,
        class: WorkloadClass,
        rec: strings_core::mapper::FeedbackRecord,
    ) {
        match self.scope {
            LbScope::Global => self.mappers[0].feedback(class, gid, rec),
            LbScope::Local => self.mappers[node.0 as usize].feedback(class, gid, rec),
        }
    }

    /// A call arrives at the backend daemon.
    fn on_deliver(&mut self, app: AppId, packed: PackedCall, now: SimTime) {
        self.rpc.delivered += 1;
        let (gid, _) = self.binding(app);
        let ordinal = self.rpc.delivered;
        self.step(app.index(), Step::RpcDeliver { gid, ordinal });
        if self.cfg.design == BackendDesign::SingleMaster {
            self.master_q[gid.index()].push_back((app, packed));
            self.pump_master(gid.index(), now);
        } else {
            self.exec_backend(app, packed, now);
        }
    }

    /// Design II: the single master thread dispatches serially and stalls
    /// on blocking synchronization.
    fn pump_master(&mut self, gid: usize, now: SimTime) {
        while self.master_stall[gid].is_none() {
            let Some((app, packed)) = self.master_q[gid].pop_front() else {
                break;
            };
            let stall = self.exec_backend(app, packed, now);
            if let Some(cond) = stall {
                self.master_stall[gid] = Some(cond);
            }
        }
    }

    /// Execute a delivered call at the backend. Returns a stall condition
    /// if this call blocks the (Design II) master thread.
    fn exec_backend(&mut self, app: AppId, packed: PackedCall, now: SimTime) -> Option<BlockOn> {
        let (gid, ctx) = self.binding(app);
        let blocks = packed.host_blocks || packed.call.has_output();
        let a = self.app(app);
        let node = a.node;
        let chan = self.channel(node, gid);
        let dev_node = self.dev_node(gid);
        let ret = self.bulk_bytes(node, gid, packed.call.rpc_return_bytes());
        let factor = self.link_factor(node, dev_node, now);
        let ret_base = chan.transfer_ns(ret);
        let ret_ns = if factor > 1.0 {
            self.app_mut(app).degraded = true;
            (ret_base as f64 * factor).round() as u64
        } else {
            ret_base
        };
        let reply_ns = ret_ns + self.cfg.rpc.reply_overhead_ns(&packed.call);
        match packed.call {
            CudaCall::Memcpy { dir, bytes } | CudaCall::MemcpyAsync { dir, bytes } => {
                let jid = self.submit_job(
                    app,
                    JobKind::Copy {
                        dir,
                        bytes,
                        pinned: packed.pinned,
                    },
                    blocks,
                    now,
                );
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
                if self.devices[gid.index()].alloc(ctx, bytes).is_err() {
                    self.stats.oom_events += 1;
                }
                let at = now + reply_ns + self.costs.malloc_ns;
                self.schedule_reply(app, at);
                self.charge(app, Stage::Rpc, at);
                None
            }
            CudaCall::Free { bytes } => {
                self.devices[gid.index()].free(ctx, bytes);
                if blocks {
                    self.schedule_reply(app, now + reply_ns);
                    self.charge(app, Stage::Rpc, now + reply_ns);
                }
                None
            }
            CudaCall::ThreadExit => {
                self.backend_thread_exit(app, gid, ctx, now);
                self.schedule_reply(app, now + reply_ns);
                self.charge(app, Stage::Rpc, now + reply_ns);
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
        if let Some(rec) = self.schedulers[gid.index()].unregister(app, now) {
            if !self.mappers.is_empty() {
                self.feedback_to_mapper(node, gid, class, rec);
            }
        }
        self.device_apps[gid.index()].retain(|a| *a != app);
        self.unbind_gid(gid, node, class);
        if !self.cfg.design.shares_context() {
            // Design I: the app's private backend process and context die.
            self.registry.destroy(ctx);
            self.devices[gid.index()].destroy_context(ctx);
            self.pending.forget_ctx(ctx);
            self.sync_device(gid.index(), now);
            // After the sync: it may still harvest the context's last work.
            self.obs.ctx_destroyed(ctx, self.app(app).stream);
        } else {
            // Designs II/III: the shared context outlives the app, but its
            // private stream does not; without this every app that ever
            // ran keeps a row the device walks on each step.
            let stream = self.app(app).stream;
            self.devices[gid.index()].drop_stream(ctx, stream);
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
        let jid = self.devices[gid.index()]
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
            self.app_mut(app).host.advance(now);
            self.after_host_step(app, now);
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
            self.charge(app, Stage::Rpc, now + reply_ns);
            self.schedule_reply(app, now + reply_ns);
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
        self.devices[gid].step(now);
        // step() advanced the device's generation: every wakeup scheduled
        // before this point is now stale. Cancel them in the queue (they
        // die at their original pop slot) instead of dispatching them.
        self.queue.invalidate(self.dev_keys[gid]);
        // Reuse one completion buffer across syncs; a nested sync (a woken
        // host resubmitting) takes an empty stand-in and is still correct.
        let mut done = std::mem::take(&mut self.done_buf);
        self.devices[gid].take_completions_into(&mut done);
        let any = !done.is_empty();
        for c in &done {
            self.pending.complete(c.job.id);
            self.obs.job_done(c);
            let app = AppId(c.job.tag as u32);
            let service = c.service_ns();
            // Fairness horizon accounting uses true engine service.
            if self.fairness_horizon.is_none_or(|h| c.finished_at <= h) {
                if let Some(Some(a)) = self.apps.get(app.index()) {
                    *self.stats.tenant_service_ns.entry(a.tenant).or_insert(0) += service;
                }
            }
            // Rain cannot separate context-switch overhead from measured
            // service (paper §V.D.1): its monitors over-report.
            let measured = if self.cfg.service_includes_switch_overhead {
                service + self.devices[gid].config().context_switch_ns / 4
            } else {
                service
            };
            let (is_transfer, bytes) = match c.job.kind {
                JobKind::Copy { bytes, .. } => (true, bytes),
                JobKind::Kernel(_) => (false, 0),
            };
            self.schedulers[gid].record_service(app, measured, is_transfer, bytes);
        }
        // Return the buffer before any re-entrant path can need it.
        done.clear();
        self.done_buf = done;
        if any {
            self.check_waiters(now);
            self.maybe_retick(gid, now);
        }
        if let Some(t) = self.devices[gid].next_event_time(now) {
            let t = t.max(now);
            // A nested resync of this device (check_waiters or maybe_retick
            // above) may already have scheduled this very wakeup. Keep it:
            // superseding it with a copy would take a new event id and
            // change the cause links of everything the wakeup schedules.
            let key = self.dev_keys[gid];
            if self.queue.parked_at(key) != Some(t) {
                self.queue.schedule_keyed(key, t, Event::Device(gid as u32));
            }
        }
        // Design II masters may unstall when pending work drains.
        if self.cfg.design == BackendDesign::SingleMaster {
            if let Some(cond) = self.master_stall[gid] {
                if self.pending.is_satisfied(cond) {
                    self.master_stall[gid] = None;
                    self.pump_master(gid, now);
                }
            }
        }
    }

    /// One injected fault from the plan fires.
    fn on_plan_fault(&mut self, idx: usize, now: SimTime) {
        let ev = self.plan.events()[idx];
        // The record lands in the struck node's ring; device faults land
        // on the device's hosting node.
        let ring = match ev.kind {
            FaultKind::NodeLoss { node }
            | FaultKind::LinkDegraded { node, .. }
            | FaultKind::Partition { node, .. } => node,
            FaultKind::BackendCrash { gid } | FaultKind::DeviceFailure { gid } => {
                self.gpool.global().entry(Gid(gid)).map_or(0, |e| e.node.0)
            }
        };
        self.obs.fault(&self.queue, NodeId(ring), ev.kind);
        match ev.kind {
            FaultKind::BackendCrash { gid } => self.on_backend_crash(gid as usize, now),
            FaultKind::DeviceFailure { gid } => self.on_device_failure(Gid(gid), now),
            FaultKind::NodeLoss { node } => self.on_node_loss(NodeId(node), now),
            // Targets were checked against the topology when the plan was
            // installed.
            FaultKind::LinkDegraded {
                node,
                factor,
                for_ns,
            } => self.degrade[node as usize] = (now.saturating_add(for_ns), factor.max(1.0)),
            FaultKind::Partition { node, for_ns } => {
                let until = &mut self.partition_until[node as usize];
                *until = (*until).max(now.saturating_add(for_ns));
            }
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
        if gid >= self.devices.len() {
            return;
        }
        let mut bound = self.device_apps[gid].clone();
        bound.sort();
        if bound.is_empty() {
            return;
        }
        match self.cfg.design {
            BackendDesign::SingleMaster => {
                for app in bound {
                    self.abort_app(app, now);
                }
                self.master_q[gid].clear();
                self.master_stall[gid] = None;
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
        if self.gpool.global().entry(gid).is_none() || self.gpool.global().is_lost(gid) {
            return;
        }
        self.gpool.fail_device(gid).expect("known gid");
        self.retire_gid(gid, now);
        self.note_gmap_rebuild(now);
        self.fail_bound_apps(gid, now);
    }

    /// A whole node drops out of the supernode: its devices leave the
    /// pool, its frontends die (their requests are lost outright), and
    /// remote applications bound to its devices fail over.
    fn on_node_loss(&mut self, node: NodeId, now: SimTime) {
        let n = node.0 as usize;
        if n >= self.node_lost.len() || self.node_lost[n] {
            return;
        }
        self.node_lost[n] = true;
        let newly = self.gpool.fail_node(node);
        for gid in &newly {
            self.retire_gid(*gid, now);
        }
        if !newly.is_empty() {
            self.note_gmap_rebuild(now);
        }
        let local_apps: Vec<AppId> = self
            .apps
            .iter()
            .enumerate()
            .filter_map(|(i, a)| {
                a.as_ref()
                    .filter(|a| !a.host.is_done() && a.node == node)
                    .map(|_| AppId(i as u32))
            })
            .collect();
        for app in local_apps {
            self.abort_app(app, now);
        }
        for gid in newly {
            self.fail_bound_apps(gid, now);
        }
    }

    fn note_gmap_rebuild(&mut self, now: SimTime) {
        self.stats.gmap_rebuilds += 1;
        let survivors = self.gpool.global().live_len();
        self.obs.gmap_rebuild(now, survivors);
    }

    /// Retire a lost device in whichever mapper owns it (both scopes use
    /// the pool-wide GID — shards are not renumbered).
    fn retire_gid(&mut self, gid: Gid, now: SimTime) {
        if self.mappers.is_empty() {
            return;
        }
        match self.scope {
            LbScope::Global => self.mappers[0].retire(now, gid),
            LbScope::Local => {
                let node = self.dev_node(gid);
                self.mappers[node.0 as usize].retire(now, gid);
            }
        }
    }

    /// Whether an application fronted on `node` can be re-placed after
    /// losing its device (needs a balancer and a surviving device).
    fn has_live_target(&self, node: NodeId) -> bool {
        if self.cfg.mode == SchedulerMode::CudaRuntime || self.mappers.is_empty() {
            return false;
        }
        match self.scope {
            LbScope::Global => self.mappers[0].has_live_device(),
            LbScope::Local => self.mappers[node.0 as usize].has_live_device(),
        }
    }

    /// Every live application bound to `gid` loses its backend: failover
    /// where re-placement is possible, abort otherwise.
    fn fail_bound_apps(&mut self, gid: Gid, now: SimTime) {
        let bound: Vec<AppId> = self
            .apps
            .iter()
            .enumerate()
            .filter_map(|(i, a)| {
                a.as_ref()
                    .filter(|a| !a.host.is_done() && a.gid == Some(gid))
                    .map(|_| AppId(i as u32))
            })
            .collect();
        for app in bound {
            let node = self.app(app).node;
            if self.has_live_target(node) {
                self.failover_app(app, now, "device_lost");
            } else {
                self.abort_app(app, now);
            }
        }
        let g = gid.index();
        self.master_q[g].clear();
        self.master_stall[g] = None;
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
            for jid in self.devices[g].cancel_stream(ctx, stream) {
                self.pending.complete(jid);
            }
            // The app never submits on this stream again (a re-bind gets a
            // fresh one); drop its row unless work is still running on it.
            self.devices[g].drop_stream(ctx, stream);
            self.obs.stream_dropped(ctx, stream);
            self.schedulers[g].unregister(app, now);
            self.device_apps[g].retain(|a| *a != app);
            self.master_q[g].retain(|(a, _)| *a != app);
            if !self.mappers.is_empty() {
                self.unbind_gid(gid, node, class);
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
        if self.node_lost[node.0 as usize] || !self.has_live_target(node) {
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
                let a = self.app_mut(w.app);
                a.host.wake_and_advance(now);
                self.after_host_step(w.app, now);
                self.run_host(w.app, now);
            } else {
                self.charge(w.app, Stage::Rpc, now + w.reply_ns);
                self.schedule_reply(w.app, now + w.reply_ns);
            }
        }
        ready.clear();
        self.ready_buf = ready;
    }

    // ---- dispatcher epochs ------------------------------------------------

    fn on_epoch(&mut self, gid: usize, now: SimTime) {
        if self.device_apps[gid].is_empty() {
            self.epochs[gid] = EpochState::Disarmed;
            return;
        }
        if let EpochState::Parked(at) = self.epochs[gid] {
            // A queued LAS handover: catch the decay up to this boundary.
            self.replay_parked(gid, at, now);
            self.epochs[gid] = EpochState::Armed { settled: true };
        }
        let settled = self.epochs[gid] == EpochState::Armed { settled: true };
        // A pass that changed the gates re-synced the device; it parks too
        // when the next pass would keep the new gates.
        if self.apply_gating(gid, now, settled) || self.next_pass_keeps_gates(gid) {
            self.park_epoch(gid, now);
        } else {
            self.arm_epoch(gid, now + self.cfg.epoch.as_ns());
        }
    }

    /// True when the gates are settled and the dispatcher, run at the next
    /// boundary on the device as it stands, would re-derive them. Leaves
    /// that snapshot in `work_buf`.
    fn next_pass_keeps_gates(&mut self, gid: usize) -> bool {
        if self.epochs[gid] != (EpochState::Armed { settled: true }) {
            return false;
        }
        let mut work = std::mem::take(&mut self.work_buf);
        let mut awake = std::mem::take(&mut self.awake_buf);
        self.collect_work(gid, &mut work);
        self.schedulers[gid].next_awake_into(&work, &mut awake);
        let keeps = awake == self.applied_awake[gid];
        self.work_buf = work;
        self.awake_buf = awake;
        keeps
    }

    fn arm_epoch(&mut self, gid: usize, at: SimTime) {
        self.queue.schedule(at, Event::Epoch(gid as u32));
    }

    /// Every pass after the one at `now` would re-derive the awake set in
    /// force until the device changes — except that under LAS the decay can
    /// tie the awake app with a lower-id ready one. Stop the chain, queueing
    /// only that handover boundary if it comes before the device's next
    /// engine event (which wakes the chain anyway).
    fn park_epoch(&mut self, gid: usize, now: SimTime) {
        self.epochs[gid] = EpochState::Parked(now);
        let Some(&awake) = self.applied_awake[gid].first() else {
            return;
        };
        let epoch = self.cfg.epoch.as_ns();
        let before_engine = self.devices[gid]
            .next_event_time(now)
            .map_or(u64::MAX, |t| t.saturating_sub(now + 1) / epoch);
        let handover = self.schedulers[gid].las_handover_in(&self.work_buf, awake, before_engine);
        if let Some(n) = handover {
            let key = self.epoch_keys[gid];
            self.queue
                .schedule_keyed(key, now + n * epoch, Event::Epoch(gid as u32));
        }
    }

    /// The device is about to change: an app registers or unregisters
    /// (`apps_changed`), work is submitted, or the device is re-synced. A
    /// disarmed chain (the first app registering under a device policy)
    /// arms one epoch out. A parked chain withdraws any queued handover,
    /// replays the boundaries it skipped and re-arms at the next boundary
    /// on its original phase. A changed app set unsettles the gates.
    fn wake_epoch(&mut self, gid: usize, now: SimTime, apps_changed: bool) {
        match self.epochs[gid] {
            EpochState::Disarmed if apps_changed && self.cfg.gpu_policy != GpuPolicy::None => {
                self.epochs[gid] = EpochState::Armed { settled: false };
                self.arm_epoch(gid, now + self.cfg.epoch.as_ns());
            }
            EpochState::Parked(at) => {
                self.queue.invalidate(self.epoch_keys[gid]);
                let until = if self.epoch_precedes_current(at, now) {
                    now + 1
                } else {
                    now
                };
                let next = self.replay_parked(gid, at, until);
                self.arm_epoch(gid, next);
                self.epochs[gid] = EpochState::Armed {
                    settled: !apps_changed,
                };
            }
            EpochState::Armed { .. } if apps_changed => {
                self.epochs[gid] = EpochState::Armed { settled: false };
            }
            _ => {}
        }
    }

    /// Note the first pop at `now`, dropping marks older than one epoch.
    fn mark_clock(&mut self, now: SimTime) {
        if self.clock_marks.back().is_some_and(|&(t, _)| t == now) {
            return;
        }
        self.clock_marks.push_back((now, self.queue.next_id().0));
        let horizon = now.saturating_sub(self.cfg.epoch.as_ns());
        while self.clock_marks.front().is_some_and(|&(t, _)| t <= horizon) {
            self.clock_marks.pop_front();
        }
    }

    /// Whether a chain parked at boundary `at`, had it kept ticking, would
    /// have run its pass due at `now` before the event being dispatched.
    /// That epoch would have been scheduled when the boundary before it
    /// popped, so it comes first exactly when `now` is a boundary and the
    /// event was scheduled after the clock passed the boundary before. (An
    /// event scheduled in the very instant of that boundary is taken to
    /// have come first.)
    fn epoch_precedes_current(&self, at: SimTime, now: SimTime) -> bool {
        now > at
            && (now - at).is_multiple_of(self.cfg.epoch.as_ns())
            && self
                .clock_marks
                .front()
                .is_some_and(|&(_, id)| self.queue.current_id().0 >= id)
    }

    /// Close every epoch a chain parked at boundary `at` skipped strictly
    /// before `until`, one LAS decay roll per boundary so the f64 state is
    /// bit-identical to ticking through them, and return the chain's next
    /// boundary. Debug builds run the full dispatcher at each skipped
    /// boundary instead and assert it re-derives the awake set in force:
    /// the shadow check of the parking rule.
    fn replay_parked(&mut self, gid: usize, at: SimTime, until: SimTime) -> SimTime {
        let epoch = self.cfg.epoch.as_ns();
        let mut next = at + epoch;
        #[cfg(debug_assertions)]
        let (work, mut awake) = {
            let mut work = Vec::new();
            self.collect_work(gid, &mut work);
            (work, Vec::new())
        };
        while next < until {
            #[cfg(debug_assertions)]
            {
                self.schedulers[gid].epoch_tick_into(&work, next, &mut awake);
                assert_eq!(
                    awake, self.applied_awake[gid],
                    "device {gid}: the dispatcher pass skipped at {next} ns changes the awake set"
                );
            }
            #[cfg(not(debug_assertions))]
            self.schedulers[gid].roll_skipped_epoch();
            next += epoch;
        }
        next
    }

    /// If everything dispatchable is gated but work exists, re-run the
    /// dispatcher immediately (work conservation between epochs).
    fn maybe_retick(&mut self, gid: usize, now: SimTime) {
        if self.cfg.gpu_policy == GpuPolicy::None || self.device_apps[gid].is_empty() {
            return;
        }
        if self.devices[gid].next_event_time(now).is_none() && self.devices[gid].total_pending() > 0
        {
            self.apply_gating(gid, now, false);
        }
    }

    /// Snapshot each registered app's dispatchable state on device `gid`
    /// for the dispatcher.
    fn collect_work(&self, gid: usize, work: &mut Vec<AppWork>) {
        work.clear();
        for &app in &self.device_apps[gid] {
            let a = self.apps[app.index()].as_ref().expect("registered app");
            let ctx = a.ctx.expect("registered app has ctx");
            let head = self.devices[gid].stream_head_kind(ctx, a.stream);
            let phase = match head {
                Some(JobKind::Kernel(_)) => Phase::KernelLaunch,
                Some(JobKind::Copy {
                    dir: CopyDirection::HostToDevice,
                    ..
                }) => Phase::H2D,
                Some(JobKind::Copy {
                    dir: CopyDirection::DeviceToHost,
                    ..
                }) => Phase::D2H,
                None => Phase::Default,
            };
            work.push(AppWork {
                app,
                has_ready: head.is_some(),
                phase,
            });
        }
    }

    /// One dispatcher pass: roll the decay, derive the awake set, gate the
    /// device's streams to match and re-sync it. With `settled`, a pass
    /// whose awake set equals the one already in force stops after the
    /// decay and returns true: the gates would not change, so neither would
    /// the device. The pass's work snapshot stays in `work_buf`.
    fn apply_gating(&mut self, gid: usize, now: SimTime, settled: bool) -> bool {
        // Reused buffers keep this path allocation-free; a re-entrant call
        // (sync_device → maybe_retick) takes empty stand-ins and is still
        // correct, just unamortized.
        let mut work = std::mem::take(&mut self.work_buf);
        let mut awake = std::mem::take(&mut self.awake_buf);
        self.collect_work(gid, &mut work);
        self.schedulers[gid].epoch_tick_into(&work, now, &mut awake);
        let unchanged = settled && awake == self.applied_awake[gid];
        if !unchanged {
            for w in &work {
                let a = self.apps[w.app.index()].as_ref().expect("registered app");
                let ctx = a.ctx.expect("registered app has ctx");
                self.devices[gid].set_stream_gate(ctx, a.stream, !awake.contains(&w.app));
            }
            self.applied_awake[gid].clone_from(&awake);
        }
        self.work_buf = work;
        self.awake_buf = awake;
        if unchanged {
            return true;
        }
        // The gates now match the app set, so later passes may compare
        // against them — unless the scheduler is tracing epoch decisions,
        // which the shortcuts would not emit. Settle before the sync: an
        // app unregistering inside it unsettles them again.
        if !self.schedulers[gid].tracing_epochs() {
            if let EpochState::Armed { settled } = &mut self.epochs[gid] {
                *settled = true;
            }
        }
        self.sync_device(gid, now);
        false
    }
}
