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

use crate::scenario::{HostCosts, LbScope};
use crate::stats::{PhaseProfile, RunStats, TenantOutcomes};
use cuda_sim::call::CudaCall;
use cuda_sim::host::{AppId, BlockOn, HostThread, ProcessId};
use cuda_sim::pending::PendingOps;
use cuda_sim::program::HostOp;
use cuda_sim::program::HostProgram;
use cuda_sim::registry::ContextRegistry;
use gpu_sim::device::{CompletedJob, Device, DeviceConfig};
use gpu_sim::ids::{ContextId, JobId, StreamId};
use gpu_sim::job::{CopyDirection, JobKind};
use remoting::backend::{BackendDesign, APP_PID_BASE, HOST_PID_BASE};
use remoting::channel::ChannelSpec;
use remoting::gpool::{Gid, NodeId, ShardedGPool};
use remoting::network::NetworkSpec;
use remoting::telemetry::RpcCounters;
use remoting::topology::TopologySpec;
use sim_core::event::EventQueue;
use sim_core::fault::{FaultKind, FaultPlan};
use sim_core::flight::{DumpReason, FlightKind, FlightRecord, FlightRecorder, NO_ID};
use sim_core::fxhash::FxHashMap;
use sim_core::rng::SimRng;
use sim_core::trace::{Stage, Tracer, TrackId};
use sim_core::{EventKey, SimDuration, SimTime};
use std::collections::VecDeque;
use strings_core::admission::{AdmissionConfig, AdmissionController};
use strings_core::config::{SchedulerMode, StackConfig};
use strings_core::device_sched::{AppWork, GpuPolicy, GpuScheduler, Phase, TenantId};
use strings_core::mapper::{GpuAffinityMapper, WorkloadClass};
use strings_core::packer::{ContextPacker, PackedCall};
use strings_metrics::alerts::{BurnRateConfig, BurnRateEngine};
use strings_metrics::registry::{HistogramId, MetricKind, MetricsRegistry, SeriesId};
use strings_metrics::slo::SloRecord;
use strings_metrics::CompletionSet;
use strings_workloads::profile::AppKind;
use strings_workloads::tracegen::TraceGenerator;

/// Default flight-recorder ring depth per node: deep enough to hold a
/// useful incident window, shallow enough that 64 nodes cost ~1.3 MB.
const FLIGHT_DEPTH_DEFAULT: usize = 256;

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
    /// Latency-attribution cursor: everything in `[arrival, attr_cursor)`
    /// has been charged to a stage. Charges are contiguous by
    /// construction, which makes the reconstructed breakdown exactly
    /// additive.
    attr_cursor: SimTime,
}

#[derive(Debug)]
enum Event {
    Arrival(u32),
    /// Host CPU phase ends (app, incarnation).
    HostWake(AppId, u32),
    /// A device's next self-event is due. Staleness is handled by the
    /// queue: the wakeup is scheduled under the device's [`EventKey`] and
    /// superseded entries die inside [`EventQueue::pop`].
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

/// Completed device work accumulated since a synchronization last consumed
/// it, used to decompose a blocked host's wall-clock wait into engine
/// queueing, engine service, and context-switch time. One window exists
/// per outstanding job, per stream, and per context; the matching window
/// is consumed when the wait on that condition releases.
#[derive(Debug, Clone, Copy)]
struct EngineWindow {
    first_start: SimTime,
    last_finish: SimTime,
    /// Busy nanoseconds per engine kind: `[compute, h2d, d2h]`.
    busy: [u64; 3],
}

impl EngineWindow {
    fn from_job(c: &CompletedJob) -> EngineWindow {
        let mut w = EngineWindow {
            first_start: c.started_at,
            last_finish: c.finished_at,
            busy: [0; 3],
        };
        w.busy[Self::kind_index(&c.job.kind)] = c.service_ns();
        w
    }

    fn kind_index(kind: &JobKind) -> usize {
        match kind {
            JobKind::Kernel(_) => 0,
            JobKind::Copy {
                dir: CopyDirection::HostToDevice,
                ..
            } => 1,
            JobKind::Copy {
                dir: CopyDirection::DeviceToHost,
                ..
            } => 2,
        }
    }

    fn merge(&mut self, c: &CompletedJob) {
        self.first_start = self.first_start.min(c.started_at);
        self.last_finish = self.last_finish.max(c.finished_at);
        self.busy[Self::kind_index(&c.job.kind)] += c.service_ns();
    }

    /// `(wait, service)` stages of the dominant engine kind in the window
    /// (a stream/context window can mix kinds; the interval is charged to
    /// whichever engine did the most work — exact for the common
    /// single-kind burst between synchronizations).
    fn stages(&self) -> (Stage, Stage) {
        let mut best = 0;
        for i in 1..3 {
            if self.busy[i] > self.busy[best] {
                best = i;
            }
        }
        match best {
            0 => (Stage::ComputeWait, Stage::ComputeService),
            1 => (Stage::H2dWait, Stage::H2dXfer),
            _ => (Stage::D2hWait, Stage::D2hXfer),
        }
    }
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

/// Unlabelled counter/gauge families, in the order
/// [`World::sample_metrics`] lists their values.
const RUN_SERIES: [&str; 15] = [
    "sim_virtual_time_ns",
    "sim_events_total",
    "sim_queue_peak_depth",
    "requests_completed_total",
    "requests_failed_total",
    "requests_shed_total",
    "cuda_pending_jobs",
    "cuda_contexts_active",
    "cuda_streams_active",
    "rpc_sent_total",
    "rpc_delivered_total",
    "rpc_replies_total",
    "rpc_dropped_total",
    "rpc_bytes_total",
    "rpc_in_flight",
];

/// Per-device families, labelled `gid="N"`.
const GPU_SERIES: [&str; 5] = [
    "gpu_compute_occupancy",
    "gpu_copy_busy",
    "gpu_context_switches_total",
    "gpu_kernels_completed_total",
    "gpu_copies_completed_total",
];

/// Per-node rollup families, labelled `node="N"`.
const NODE_SERIES: [&str; 4] = [
    "node_devices_live",
    "node_kernels_completed_total",
    "node_copies_completed_total",
    "node_compute_occupancy",
];

/// Burn-rate alert families.
const BURN_SERIES: [&str; 3] = ["slo_burn_short", "slo_burn_long", "slo_alerts_fired_total"];

/// Metrics series handles, resolved once so sampling and latency
/// observations store by index without building strings. Each resolves
/// the first time its value is written: the run-wide and burn-rate sets
/// at the first sample, the labelled ones when their device, node or
/// tenant is first seen.
#[derive(Debug, Default)]
struct MetricSeries {
    run: Option<[SeriesId; RUN_SERIES.len()]>,
    burn: Option<[SeriesId; BURN_SERIES.len()]>,
    gpu: Vec<Option<[SeriesId; GPU_SERIES.len()]>>,
    node: Vec<Option<[SeriesId; NODE_SERIES.len()]>>,
    latency: Vec<Option<HistogramId>>,
}

/// The handle cached at `slots[i]`, resolving it on first use.
fn cached<T: Copy>(slots: &mut Vec<Option<T>>, i: usize, resolve: impl FnOnce() -> T) -> T {
    if slots.len() <= i {
        slots.resize(i + 1, None);
    }
    *slots[i].get_or_insert_with(resolve)
}

/// Store one value per handle.
fn set_all<const N: usize>(m: &mut MetricsRegistry, ids: [SeriesId; N], values: [f64; N]) {
    for (id, v) in ids.into_iter().zip(values) {
        m.set_series(id, v);
    }
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
    /// Structured trace recorder (off unless enabled by the scenario).
    tracer: Tracer,
    /// One track per request slot (async request spans live here).
    trk_slots: Vec<TrackId>,
    /// Executive-level track (counters, run-wide diagnostics).
    trk_sim: TrackId,
    /// Fault-injection track (injections, windows, gMap rebuilds).
    trk_faults: TrackId,
    /// Attribution windows awaiting a synchronization (recording only).
    /// Fx-hashed: stream and context windows take one update per device
    /// completion while attribution is on. A job has an entry only while
    /// a synchronous copy waits on it (`None` until the job completes);
    /// an app's private stream window goes when the app detaches, and a
    /// private context's windows when the context is destroyed.
    attr_job: FxHashMap<JobId, Option<EngineWindow>>,
    attr_stream: FxHashMap<(ContextId, StreamId), EngineWindow>,
    attr_ctx: FxHashMap<ContextId, EngineWindow>,
    /// Unified metrics registry (None unless `enable_metrics` was called).
    metrics: Option<MetricsRegistry>,
    /// Series handles into `metrics`.
    metric_series: MetricSeries,
    /// Virtual-time metrics sampling cadence, ns.
    metrics_every: u64,
    /// Sample per-node rollup families too (opt-in: cluster topologies).
    node_metrics: bool,
    /// RPC-layer counters (always maintained; plain integer adds).
    rpc: RpcCounters,
    /// Always-on flight recorder: per-node rings of compact lifecycle
    /// records, snapshotted on triggers. Depth 0 disables (the
    /// overhead-gate baseline).
    flight: FlightRecorder,
    /// Per-request id of its latest flight record — the cause link the
    /// next record in the chain carries.
    flight_last: Vec<u64>,
    /// Burn-rate alert engine (None unless [`World::set_burn_alert`]).
    alerts: Option<BurnRateEngine>,
    /// Virtual time of the explicit dump trigger, if requested.
    dump_at: Option<SimTime>,
    /// Snapshot at end of run if no trigger fired (`--dump` without a
    /// fault ever materializing still yields a window).
    dump_final: bool,
    /// Request whose flight chain is captured verbatim into
    /// [`RunStats::explain_records`], immune to ring eviction.
    explain: Option<u64>,
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
            tracer: Tracer::off(),
            trk_slots: Vec::new(),
            trk_sim: TrackId::INVALID,
            trk_faults: TrackId::INVALID,
            attr_job: FxHashMap::default(),
            attr_stream: FxHashMap::default(),
            attr_ctx: FxHashMap::default(),
            metrics: None,
            metric_series: MetricSeries::default(),
            metrics_every: 0,
            node_metrics: false,
            rpc: RpcCounters::default(),
            flight: FlightRecorder::new(nodes.len(), FLIGHT_DEPTH_DEFAULT),
            flight_last: Vec::new(),
            alerts: None,
            dump_at: None,
            dump_final: false,
            explain: None,
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
        let tracer = Tracer::folding();
        self.trk_sim = tracer.track("sim", "executive");
        self.trk_faults = tracer.track("sim", "faults");
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
        for (gid, d) in self.devices.iter_mut().enumerate() {
            d.set_tracer(tracer.clone(), &device_names[gid]);
        }
        for (gid, s) in self.schedulers.iter_mut().enumerate() {
            let trk = tracer.track(device_names[gid].clone(), "scheduler");
            s.set_tracer(tracer.clone(), trk);
        }
        for (i, m) in self.mappers.iter_mut().enumerate() {
            let trk = tracer.track("balancer", format!("mapper{i}"));
            m.set_tracer(tracer.clone(), trk);
        }
        self.make_slot_tracks(&tracer);
        self.tracer = tracer;
    }

    /// One track per request slot; label it with the slot's class.
    fn make_slot_tracks(&mut self, tracer: &Tracer) {
        let n_slots = self.slot_inflight.len();
        self.trk_slots = (0..n_slots)
            .map(|slot| {
                let class = self
                    .requests
                    .iter()
                    .find(|r| r.slot == slot)
                    .map(|r| format!(" {}", r.class))
                    .unwrap_or_default();
                tracer.track("requests", format!("slot{slot}{class}"))
            })
            .collect();
    }

    /// Turn on the lightweight latency-attribution recorder: only the
    /// executive and per-request-slot tracks exist, the executive records
    /// request spans, and stage charges are folded into one row per
    /// request as the run goes instead of being recorded — the
    /// [`sim_core::trace::Trace::ledger`] that
    /// [`strings_metrics::attribution::AttributionReport`] reads, without
    /// paying for full device/scheduler/mapper tracing. A no-op when
    /// [`World::enable_tracing`] already ran (full traces are a
    /// superset).
    pub fn enable_attribution(&mut self) {
        if self.tracer.is_on() {
            return;
        }
        let tracer = Tracer::attribution();
        self.trk_sim = tracer.track("sim", "executive");
        self.trk_faults = tracer.track("sim", "faults");
        self.make_slot_tracks(&tracer);
        self.tracer = tracer;
    }

    /// Install the unified metrics registry, sampled every `every` of
    /// virtual time and once more at the end of the run. Families cover
    /// every layer: executive event-loop counters, per-device telemetry,
    /// outstanding-op gauges, RPC counters, and the end-to-end latency
    /// histogram. The registry lands in [`RunStats::metrics`].
    pub fn enable_metrics(&mut self, every: SimDuration) {
        use MetricKind::{Counter, Gauge, Histogram};
        let mut m = MetricsRegistry::new();
        m.register("sim_virtual_time_ns", Gauge, "Virtual time of the sample");
        m.register(
            "sim_events_total",
            Counter,
            "Events dispatched by the executive",
        );
        m.register(
            "sim_queue_peak_depth",
            Gauge,
            "High-water mark of the event queue",
        );
        m.register(
            "requests_completed_total",
            Counter,
            "Requests finished (any outcome)",
        );
        m.register("requests_failed_total", Counter, "Requests lost to faults");
        m.register("requests_shed_total", Counter, "Requests shed at admission");
        m.register(
            "gpu_compute_occupancy",
            Gauge,
            "SM occupancy per device (0..1)",
        );
        m.register(
            "gpu_copy_busy",
            Gauge,
            "Copy-engine busy fraction per device (0..1)",
        );
        m.register(
            "gpu_context_switches_total",
            Counter,
            "Context switches per device",
        );
        m.register(
            "gpu_kernels_completed_total",
            Counter,
            "Kernels completed per device",
        );
        m.register(
            "gpu_copies_completed_total",
            Counter,
            "Copies completed per device",
        );
        m.register("cuda_pending_jobs", Gauge, "Outstanding device jobs");
        m.register(
            "cuda_contexts_active",
            Gauge,
            "Contexts with outstanding work",
        );
        m.register(
            "cuda_streams_active",
            Gauge,
            "Streams with outstanding work",
        );
        m.register("rpc_sent_total", Counter, "RPCs shipped toward backends");
        m.register("rpc_delivered_total", Counter, "RPCs landed at backends");
        m.register(
            "rpc_replies_total",
            Counter,
            "RPC replies received by frontends",
        );
        m.register("rpc_dropped_total", Counter, "RPCs dropped by partitions");
        m.register("rpc_bytes_total", Counter, "Marshalled RPC bytes shipped");
        m.register(
            "rpc_in_flight",
            Gauge,
            "RPCs sent but not yet delivered or dropped",
        );
        m.register(
            "request_latency_ns",
            Histogram,
            "End-to-end request latency",
        );
        self.metrics = Some(m);
        self.metrics_every = every.as_ns().max(1);
    }

    /// Opt into per-node rollup families (cluster topologies): live
    /// devices, kernel/copy completions, and mean compute occupancy per
    /// node, labelled `node="N"`. Must follow [`World::enable_metrics`].
    /// The default family set is untouched, so single-node and supernode
    /// expositions stay byte-identical when this is off.
    pub fn enable_node_metrics(&mut self) {
        use MetricKind::{Counter, Gauge};
        let m = self
            .metrics
            .as_mut()
            .expect("enable_metrics before enable_node_metrics");
        m.register("node_devices_live", Gauge, "Live devices per node");
        m.register(
            "node_kernels_completed_total",
            Counter,
            "Kernels completed per node",
        );
        m.register(
            "node_copies_completed_total",
            Counter,
            "Copies completed per node",
        );
        m.register(
            "node_compute_occupancy",
            Gauge,
            "Mean SM occupancy over a node's devices (0..1)",
        );
        self.node_metrics = true;
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
        self.flight = FlightRecorder::new(self.node_lost.len(), depth);
    }

    /// Install a burn-rate alert rule. Every terminal request outcome
    /// (completion, shed, abort, drop) feeds the engine; FIRED
    /// transitions trigger a flight-recorder dump, and the end-of-run
    /// [`strings_metrics::alerts::AlertReport`] lands in
    /// [`RunStats::alerts`]. When metrics are enabled (call
    /// [`World::enable_metrics`] first), the current burn rates are
    /// exported as `slo_burn_*` gauges.
    pub fn set_burn_alert(&mut self, cfg: BurnRateConfig) {
        if let Some(m) = self.metrics.as_mut() {
            use MetricKind::{Counter, Gauge};
            m.register(
                "slo_burn_short",
                Gauge,
                "Error-budget burn rate over the short window",
            );
            m.register(
                "slo_burn_long",
                Gauge,
                "Error-budget burn rate over the long window",
            );
            m.register(
                "slo_alerts_fired_total",
                Counter,
                "Burn-rate alert FIRED transitions",
            );
        }
        self.alerts = Some(BurnRateEngine::new(cfg));
    }

    /// Schedule an explicit flight-recorder dump at virtual time `at`
    /// (the CLI's `--dump-at`).
    pub fn set_dump_at(&mut self, at: SimTime) {
        self.dump_at = Some(at);
    }

    /// Take an end-of-run snapshot if no trigger fired during the run,
    /// so `--dump PATH` always has a window to write.
    pub fn set_dump_final(&mut self) {
        self.dump_final = true;
    }

    /// Capture request `req`'s complete flight-record chain into
    /// [`RunStats::explain_records`], bypassing ring eviction — the
    /// `strings-sim explain` data source.
    pub fn set_explain(&mut self, req: u64) {
        self.explain = Some(req);
    }

    /// Record wall-clock spent per executive phase into
    /// [`RunStats::self_profile`] (bench trajectory only; wall-clock
    /// never reaches a golden surface).
    pub fn enable_self_profile(&mut self) {
        self.self_profile = true;
    }

    /// Write one flight record, maintaining the request's cause chain.
    /// `node` is the ring the record lands in (the frontend's node for
    /// request-scoped records); `request` is [`NO_ID`] for run-scoped
    /// ones.
    #[inline]
    fn flight(&mut self, node: NodeId, kind: FlightKind, request: u64, a: u64, b: u64) {
        if !self.flight.is_on() {
            return;
        }
        let cause = if request != NO_ID {
            self.flight_last
                .get(request as usize)
                .copied()
                .unwrap_or(NO_ID)
        } else {
            NO_ID
        };
        let rec = FlightRecord {
            at: self.queue.now(),
            node: node.0,
            kind,
            request,
            a,
            b,
            id: 0,
            cause,
            ev: self.queue.current_id().0,
            ev_cause: self.queue.current_cause().0,
        };
        let id = self.flight.record(rec);
        if request != NO_ID {
            if let Some(last) = self.flight_last.get_mut(request as usize) {
                *last = id;
            }
        }
        if self.explain == Some(request) {
            self.stats.explain_records.push(FlightRecord { id, ..rec });
        }
    }

    /// Feed one terminal outcome to the alert engine and consume any
    /// transitions it produced (FIRED transitions dump the recorder).
    fn observe_outcome(&mut self, now: SimTime, bad: bool) {
        let Some(eng) = self.alerts.as_mut() else {
            return;
        };
        eng.observe(now, bad);
        self.drain_alert_transitions();
    }

    /// Consume pending alert transitions: each lands in the flight
    /// recorder, and FIRED transitions trip an alert-class dump.
    fn drain_alert_transitions(&mut self) {
        while let Some(t) = self.alerts.as_mut().and_then(|e| e.pop_pending()) {
            let fired = u64::from(t.fired);
            let burn = (t.short_burn * 100.0) as u64;
            self.flight(NodeId(0), FlightKind::Alert, NO_ID, fired, burn);
            if t.fired {
                self.flight.trigger(DumpReason::Alert, t.at);
            }
        }
    }

    /// Run to completion and return the statistics.
    pub fn run(mut self) -> RunStats {
        let wall_start = std::time::Instant::now();
        self.apps = (0..self.requests.len()).map(|_| None).collect();
        if self.flight.is_on() {
            self.flight_last = vec![NO_ID; self.requests.len()];
        }
        // Arrivals wait in the queue's cursor, not in the queue: ids 0..N,
        // as if scheduled one by one here.
        self.queue
            .schedule_arrivals(self.requests.iter().map(|r| r.arrival), Event::Arrival);
        for (i, ev) in self.plan.events().iter().enumerate() {
            self.queue.schedule(ev.at, Event::Fault(i as u32));
        }
        if let Some(at) = self.dump_at {
            self.queue.schedule(at, Event::DumpAt);
        }
        // `is_empty` counts the pending arrivals too.
        if self.metrics.is_some() && !self.queue.is_empty() {
            self.queue
                .schedule(self.metrics_every, Event::MetricsSample);
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
        self.stats.events = self.queue.popped();
        self.stats.cancelled_wakeups = self.queue.cancelled();
        self.stats.stale_pops = self.queue.stale_pops();
        self.stats.peak_live_queue_depth = self.queue.peak_live_len() as u64;
        self.stats.completed_requests = self.finished as u64;
        self.stats.context_switches = self
            .devices
            .iter()
            .map(|d| d.telemetry.context_switches)
            .sum();
        self.stats.clamped_events = self.queue.clamped();
        self.stats.stream_rows = self.devices.iter().map(|d| d.stream_rows() as u64).sum();
        self.stats.attr_windows =
            (self.attr_job.len() + self.attr_stream.len() + self.attr_ctx.len()) as u64;
        if let Some(adm) = &self.admission {
            self.stats.admission = Some(adm.stats());
        }
        if self.alerts.is_some() {
            // Close the burn-rate windows at end-of-run virtual time so
            // trailing transitions (and their dump triggers) are not lost,
            // and so the final metrics sample exports the final burns.
            let end = self.queue.now();
            self.alerts.as_mut().expect("checked").finish(end);
            self.drain_alert_transitions();
        }
        if self.metrics.is_some() {
            self.sample_metrics(self.queue.now());
            self.stats.metrics = self.metrics.take();
        }
        if self.alerts.is_some() {
            self.stats.alerts = Some(self.alerts.take().expect("checked").report());
        }
        if self.flight.is_on() {
            self.stats.flight_dumps = self.flight.take_dumps();
            if self.dump_final && self.stats.flight_dumps.is_empty() {
                // `--dump PATH` with a clean run: snapshot the tail window
                // so there is always something to write.
                self.stats
                    .flight_dumps
                    .push(self.flight.snapshot(DumpReason::Explicit, self.queue.now()));
            }
            self.stats.flight_triggers = self.flight.trigger_counts();
            self.stats.flight_recorded = self.flight.recorded();
        }
        if self.self_profile {
            prof.wall_ns = wall_start.elapsed().as_nanos() as u64;
            self.stats.self_profile = Some(prof);
        }
        if self.tracer.is_on() {
            if let Some(adm) = self.stats.admission {
                let now = self.queue.now();
                self.tracer
                    .counter(self.trk_sim, now, "admitted", adm.admitted as f64);
                self.tracer.counter(
                    self.trk_sim,
                    now,
                    "shed_queue_full",
                    adm.shed_queue_full as f64,
                );
                self.tracer.counter(
                    self.trk_sim,
                    now,
                    "shed_rate_limited",
                    adm.shed_rate_limited as f64,
                );
                // Only emitted when the SLO gate actually fired, so traces
                // from runs without an SLO config are byte-unchanged.
                if adm.shed_slo > 0 {
                    self.tracer
                        .counter(self.trk_sim, now, "shed_slo", adm.shed_slo as f64);
                }
            }
        }
        if self.tracer.is_on() {
            self.tracer.counter(
                self.trk_sim,
                self.queue.now(),
                "clamped_schedules",
                self.stats.clamped_events as f64,
            );
            self.tracer.counter(
                self.trk_sim,
                self.queue.now(),
                "cancelled_wakeups",
                self.stats.cancelled_wakeups as f64,
            );
            self.tracer.counter(
                self.trk_sim,
                self.queue.now(),
                "stale_pops",
                self.stats.stale_pops as f64,
            );
            self.stats.trace = self.tracer.finish();
        }
        // Hand each device's telemetry over as an exact-size copy, freeing
        // the original before the next device's: the transient is one
        // device's samples, not the cluster's, and the copies pack densely
        // instead of pinning the grown originals where the run left them
        // (kept in place, those raised the RSS of callers that hold many
        // runs' stats). Last, because the final metrics sample above
        // still reads it.
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
                if self.flight.is_on() {
                    let (node, gid) = {
                        let a = self.app(app);
                        (a.node, a.gid)
                    };
                    self.flight(
                        node,
                        FlightKind::RpcReply,
                        app.index() as u64,
                        gid.map_or(NO_ID, |g| g.index() as u64),
                        0,
                    );
                }
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
                self.sample_metrics(now);
                // Re-arm only while other work remains so the run can
                // drain; the end-of-run sample closes the series.
                if !self.queue.is_empty() {
                    self.queue
                        .schedule(now + self.metrics_every, Event::MetricsSample);
                }
            }
            Event::DumpAt => self.flight.trigger(DumpReason::Explicit, now),
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

    /// Charge `app`'s wall clock from its attribution cursor up to
    /// `until` to `stage`, advancing the cursor. Successive charges tile
    /// the request's lifetime with no gaps or overlaps, so the per-stage
    /// breakdown reconstructed from the trace is exactly additive. No-op
    /// while recording is off or when the window is empty.
    fn charge_stage(&mut self, app: AppId, stage: Stage, until: SimTime) {
        if !self.tracer.is_on() {
            return;
        }
        let (slot, from) = {
            let a = self.app_mut(app);
            let from = a.attr_cursor;
            if until <= from {
                return;
            }
            a.attr_cursor = until;
            (a.slot, from)
        };
        self.tracer
            .stage_charge(self.trk_slots[slot], until, app.index() as u64, stage, from);
    }

    /// A failure at `now` overtook `app`: charges it made up to a future
    /// instant (an RPC's delivery or reply) cover time that never happened
    /// that way. Cut them back to `now`, so what follows (the failover
    /// window, the replay, or the abort) charges on from `now`.
    fn retract_attribution(&mut self, app: AppId, now: SimTime) {
        if !self.tracer.is_on() {
            return;
        }
        let a = self.app_mut(app);
        if a.attr_cursor <= now {
            return;
        }
        a.attr_cursor = now;
        let slot = a.slot;
        self.tracer
            .retract_charges_after(self.trk_slots[slot], app.index() as u64, now);
    }

    /// A blocked wait on `cond` released at `rel`: decompose the elapsed
    /// window into context-switch glitch time, engine queue wait, and
    /// engine service using the completed-work window recorded for the
    /// condition, then drain any residue to `Other`.
    fn charge_wait_release(&mut self, app: AppId, cond: BlockOn, rel: SimTime) {
        if !self.tracer.is_on() {
            return;
        }
        let win = match cond {
            BlockOn::Job(j) => self.attr_job.remove(&j).flatten(),
            BlockOn::StreamIdle(c, s) => self.attr_stream.remove(&(c, s)),
            BlockOn::CtxIdle(c) => self.attr_ctx.remove(&c),
            BlockOn::Reply(_) => None,
        };
        let Some(win) = win else {
            // No recorded device work (e.g. a co-tenant's sync already
            // consumed the shared window): the wait is unattributable.
            self.charge_stage(app, Stage::Other, rel);
            return;
        };
        let cursor = self.app(app).attr_cursor;
        let s = win.first_start.clamp(cursor, rel);
        let f = win.last_finish.clamp(s, rel);
        // Driver context-switch time between the cursor and the work's
        // start is a switching glitch, not engine queueing.
        let sw = match self.app(app).gid {
            Some(gid) if s > cursor => self.devices[gid.index()]
                .telemetry
                .switching
                .busy_ns(cursor, s),
            _ => 0,
        };
        let (wait_stage, svc_stage) = win.stages();
        self.charge_stage(app, Stage::CtxSwitch, (cursor + sw).min(s));
        self.charge_stage(app, wait_stage, s);
        self.charge_stage(app, svc_stage, f);
        self.charge_stage(app, Stage::Other, rel);
    }

    /// Push the current state of every layer into the metrics registry
    /// and capture one snapshot stamped `now`.
    fn sample_metrics(&mut self, now: SimTime) {
        let Some(mut m) = self.metrics.take() else {
            return;
        };
        let h = &mut self.metric_series;
        let run = *h
            .run
            .get_or_insert_with(|| RUN_SERIES.map(|name| m.series(name, &[])));
        set_all(
            &mut m,
            run,
            [
                now as f64,
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
            ],
        );
        for (gid, d) in self.devices.iter().enumerate() {
            let ids = cached(&mut h.gpu, gid, || {
                let g = gid.to_string();
                GPU_SERIES.map(|name| m.series(name, &[("gid", g.as_str())]))
            });
            let t = &d.telemetry;
            set_all(
                &mut m,
                ids,
                [
                    t.compute.level_at(now),
                    t.copy.level_at(now),
                    t.context_switches as f64,
                    t.kernels_completed as f64,
                    t.copies_completed as f64,
                ],
            );
        }
        if self.node_metrics {
            for (node, shard) in self.gpool.shards() {
                let ids = cached(&mut h.node, node.0 as usize, || {
                    let n = node.0.to_string();
                    NODE_SERIES.map(|name| m.series(name, &[("node", n.as_str())]))
                });
                let (mut kernels, mut copies, mut occ) = (0u64, 0u64, 0.0f64);
                for e in shard.entries() {
                    let t = &self.devices[e.gid.index()].telemetry;
                    kernels += t.kernels_completed;
                    copies += t.copies_completed;
                    occ += t.compute.level_at(now);
                }
                set_all(
                    &mut m,
                    ids,
                    [
                        shard.live_len() as f64,
                        kernels as f64,
                        copies as f64,
                        occ / shard.len().max(1) as f64,
                    ],
                );
            }
        }
        if let Some(eng) = self.alerts.as_ref() {
            let ids = *h
                .burn
                .get_or_insert_with(|| BURN_SERIES.map(|name| m.series(name, &[])));
            let (short, long) = eng.current_burns();
            set_all(&mut m, ids, [short, long, eng.fired_total() as f64]);
        }
        m.snapshot(now);
        self.metrics = Some(m);
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
        let (tenant, node) = {
            let r = &self.requests[idx];
            (r.tenant, r.node)
        };
        self.flight(
            node,
            FlightKind::Arrival,
            idx as u64,
            tenant.0 as u64,
            node.0 as u64,
        );
        let r = &self.requests[idx];
        if self.node_lost[r.node.0 as usize] {
            // The frontend's node is gone: the request is lost on arrival.
            let tenant = r.tenant;
            self.stats.failed_requests += 1;
            self.finished += 1;
            self.outcome(tenant).lost += 1;
            self.flight(
                node,
                FlightKind::Lost,
                idx as u64,
                tenant.0 as u64,
                node.0 as u64,
            );
            self.observe_outcome(now, true);
            if self.tracer.is_on() {
                self.tracer.instant(
                    self.trk_faults,
                    now,
                    "arrival_dropped",
                    vec![("request", idx.to_string())],
                );
            }
            return;
        }
        let slot = r.slot;
        if let Some(adm) = self.admission.as_mut() {
            let tenant = self.requests[idx].tenant;
            if let Err(reason) = adm.try_admit(tenant.0 as usize, now) {
                // Shed at the front door: the request never enters the
                // system and finishes immediately.
                self.stats.shed_requests += 1;
                self.finished += 1;
                self.flight(
                    node,
                    FlightKind::Shed,
                    idx as u64,
                    tenant.0 as u64,
                    reason.code(),
                );
                self.observe_outcome(now, true);
                if self.tracer.is_on() {
                    self.tracer.instant(
                        self.trk_sim,
                        now,
                        "shed",
                        vec![
                            ("request", idx.to_string()),
                            ("tenant", tenant.to_string()),
                            ("reason", reason.to_string()),
                        ],
                    );
                }
                return;
            }
        }
        let r = &self.requests[idx];
        if self.tracer.is_on() {
            // The request span opens at arrival so it covers server-queue
            // wait; spans on a slot track overlap, hence the async id.
            let class = r.class.to_string();
            self.tracer.request_begin(
                self.trk_slots[slot],
                now,
                idx as u64,
                r.tenant.0,
                &class,
                vec![
                    ("tenant", r.tenant.to_string()),
                    ("class", class.clone()),
                    ("node", r.node.to_string()),
                ],
            );
        }
        if self.slot_inflight[slot] >= r.server_threads {
            // All server threads busy: the request waits in the server
            // queue; its completion time still counts from arrival.
            self.slot_backlog[slot].push_back(idx);
            return;
        }
        self.start_request(idx, now);
    }

    fn start_request(&mut self, idx: usize, now: SimTime) {
        let r = &self.requests[idx];
        if self.node_lost[r.node.0 as usize] {
            // Queued behind a server thread when its node died.
            let (slot, tenant, node) = (r.slot, r.tenant, r.node);
            self.stats.failed_requests += 1;
            self.finished += 1;
            self.outcome(tenant).lost += 1;
            self.flight(
                node,
                FlightKind::Lost,
                idx as u64,
                tenant.0 as u64,
                node.0 as u64,
            );
            self.observe_outcome(now, true);
            if let Some(adm) = self.admission.as_mut() {
                adm.release(tenant.0 as usize);
            }
            if self.tracer.is_on() {
                self.tracer
                    .request_end(self.trk_slots[slot], now, idx as u64);
            }
            if let Some(next) = self.slot_backlog[slot].pop_front() {
                self.start_request(next, now);
            }
            return;
        }
        let app = AppId(idx as u32);
        // A request starts once, and a failover replays the host's own
        // copy, so the program is built here and moves into the host.
        let program = std::mem::take(&mut self.requests[idx].program).build();
        let r = &self.requests[idx];
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
            attr_cursor: r.arrival,
        });
        if self.tracer.is_on() {
            let slot = self.requests[idx].slot;
            self.tracer.instant(
                self.trk_slots[slot],
                now,
                "dispatch",
                vec![("request", idx.to_string())],
            );
        }
        {
            let (tenant, node) = {
                let r = &self.requests[idx];
                (r.tenant, r.node)
            };
            self.flight(
                node,
                FlightKind::Dispatch,
                idx as u64,
                tenant.0 as u64,
                node.0 as u64,
            );
        }
        // Admission + server-queue wait: arrival up to dispatch.
        self.charge_stage(app, Stage::AdmissionWait, now);
        // The measured wait feeds the SLO admission gate's per-tenant EWMA
        // (a no-op unless `AdmissionConfig.slo` is set).
        let (tenant, arrival) = {
            let r = &self.requests[idx];
            (r.tenant, r.arrival)
        };
        if let Some(adm) = self.admission.as_mut() {
            adm.observe_wait(tenant.0 as usize, now.saturating_sub(arrival));
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
                    self.charge_stage(app, Stage::HostCpu, until);
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
        self.charge_stage(app, Stage::HostCpu, until);
        false
    }

    /// Bookkeeping when a host finishes its program.
    fn after_host_step(&mut self, app: AppId, now: SimTime) {
        let a = self.app(app);
        if a.host.is_done() {
            let slot = a.slot;
            let tenant = a.tenant;
            let node = a.node;
            let (disrupted, degraded) = (a.disrupted, a.degraded);
            let arrived_at = a.host.arrived_at;
            let turnaround = a.host.turnaround_ns().expect("done");
            // The program has run: free it now rather than at end of run.
            drop(std::mem::take(&mut self.app_mut(app).host.program));
            self.stats.completions.record(slot, turnaround);
            self.stats.makespan_ns = self.stats.makespan_ns.max(now);
            self.finished += 1;
            if self.request_log {
                self.stats.slo_records.push(SloRecord {
                    tenant: tenant.0,
                    arrival: arrived_at,
                    latency: sim_core::SimDuration::from_ns(turnaround),
                });
            }
            if let Some(adm) = self.admission.as_mut() {
                adm.release(tenant.0 as usize);
            }
            let o = self.outcome(tenant);
            if disrupted {
                o.retried += 1;
            } else if degraded {
                o.degraded += 1;
            } else {
                o.completed += 1;
            }
            if let Some(m) = self.metrics.as_mut() {
                let id = cached(&mut self.metric_series.latency, tenant.0 as usize, || {
                    let t = tenant.0.to_string();
                    m.histogram("request_latency_ns", &[("tenant", t.as_str())])
                });
                m.observe_series(id, turnaround);
            }
            // The burn-rate rule's latency target doubles as the breach
            // threshold for the flight recorder's SLO dump class.
            let breached = self
                .alerts
                .as_ref()
                .is_some_and(|e| turnaround > e.target_ns());
            self.flight(
                node,
                FlightKind::Complete,
                app.index() as u64,
                turnaround,
                u64::from(breached),
            );
            if breached {
                self.flight.trigger(DumpReason::SloBreach, now);
            }
            self.observe_outcome(now, breached);
            // Residual tail (final host step, reply unpacking): Other.
            self.charge_stage(app, Stage::Other, now);
            if self.tracer.is_on() {
                self.tracer
                    .request_end(self.trk_slots[slot], now, app.index() as u64);
            }
            // A server thread freed up: admit the next queued request.
            self.slot_inflight[slot] -= 1;
            if let Some(next) = self.slot_backlog[slot].pop_front() {
                self.start_request(next, now);
            }
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
                self.drop_ctx_windows(ctx, self.app(app).stream);
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
        let (node, inc, slot) = {
            let a = self.app(app);
            (a.node, a.incarnation, a.slot)
        };
        let dev_node = self.dev_node(gid);
        let policy = self.cfg.retry;
        if blocks && policy.is_enabled() && self.link_partition_heal(node, dev_node, now) > now {
            // The packet is dropped on the floor; only the deadline tells.
            self.rpc.sent += 1;
            self.rpc.dropped += 1;
            self.flight(
                node,
                FlightKind::RpcDrop,
                app.index() as u64,
                gid.index() as u64,
                dev_node.0 as u64,
            );
            let attempt = self.app(app).attempt;
            if self.tracer.is_on() {
                self.tracer.instant(
                    self.trk_slots[slot],
                    now,
                    "rpc_dropped",
                    vec![("attempt", attempt.to_string())],
                );
            }
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
        let mut at = (now + deliver_ns).max(self.app(app).last_deliver + 1);
        // Non-blocking sends (or blocking with retry disabled) queue up
        // behind a partition and drain when the window heals.
        let heal = self.link_partition_heal(node, dev_node, now);
        if heal > now {
            at = at.max(heal + deliver_ns);
        }
        if factor > 1.0 || heal > now {
            self.app_mut(app).degraded = true;
        }
        self.app_mut(app).last_deliver = at;
        self.queue.schedule(at, Event::Deliver(app, packed, inc));
        self.rpc.sent += 1;
        self.rpc.bytes += control + payload;
        self.flight(
            node,
            FlightKind::RpcSend,
            app.index() as u64,
            gid.index() as u64,
            control + payload,
        );
        if blocks {
            // The host is parked on the reply: its clock is RPC time
            // until the call lands at the backend.
            self.charge_stage(app, Stage::Rpc, at);
        }
    }

    /// A blocking RPC's deadline expired with no reply: retry with
    /// exponential backoff while the policy allows, then declare the
    /// backend dead (`remoting::Error::RetriesExhausted`) and fail over.
    fn on_rpc_timeout(&mut self, app: AppId, now: SimTime) {
        self.stats.rpc_timeouts += 1;
        self.rpc.timeouts += 1;
        let (slot, inc, attempt, node) = {
            let a = self.app(app);
            (a.slot, a.incarnation, a.attempt, a.node)
        };
        self.flight(
            node,
            FlightKind::RpcTimeout,
            app.index() as u64,
            attempt as u64,
            0,
        );
        if self.tracer.is_on() {
            self.tracer.instant(
                self.trk_slots[slot],
                now,
                "rpc_timeout",
                vec![("attempt", attempt.to_string())],
            );
        }
        let policy = self.cfg.retry;
        let next = attempt + 1;
        if policy.allows(next) {
            let backoff = policy.backoff_ns(next, &mut self.rng);
            self.stats.rpc_retries += 1;
            self.rpc.retries += 1;
            self.flight(
                node,
                FlightKind::RpcRetry,
                app.index() as u64,
                next as u64,
                backoff,
            );
            {
                let a = self.app_mut(app);
                a.attempt = next;
                a.disrupted = true;
            }
            if self.tracer.is_on() {
                self.tracer.instant(
                    self.trk_slots[slot],
                    now,
                    "rpc_retry",
                    vec![
                        ("attempt", next.to_string()),
                        ("backoff_ns", backoff.to_string()),
                    ],
                );
            }
            self.queue
                .schedule(now + backoff, Event::Retry(app, inc, next));
        } else {
            if self.tracer.is_on() {
                self.tracer.instant(
                    self.trk_slots[slot],
                    now,
                    "rpc_retries_exhausted",
                    vec![("attempts", attempt.to_string())],
                );
            }
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
        self.flight(
            node,
            FlightKind::Bind,
            app.index() as u64,
            gid.index() as u64,
            node.0 as u64,
        );
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
        if self.flight.is_on() {
            let node = self.app(app).node;
            self.flight(
                node,
                FlightKind::RpcDeliver,
                app.index() as u64,
                gid.index() as u64,
                self.rpc.delivered,
            );
        }
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
                self.charge_stage(app, Stage::Rpc, at);
                None
            }
            CudaCall::Free { bytes } => {
                self.devices[gid.index()].free(ctx, bytes);
                if blocks {
                    self.schedule_reply(app, now + reply_ns);
                    self.charge_stage(app, Stage::Rpc, now + reply_ns);
                }
                None
            }
            CudaCall::ThreadExit => {
                self.backend_thread_exit(app, gid, ctx, now);
                self.schedule_reply(app, now + reply_ns);
                self.charge_stage(app, Stage::Rpc, now + reply_ns);
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
            self.drop_ctx_windows(ctx, self.app(app).stream);
        } else {
            // Designs II/III: the shared context outlives the app, but its
            // private stream does not; without this every app that ever
            // ran keeps a row the device walks on each step.
            let stream = self.app(app).stream;
            self.devices[gid.index()].drop_stream(ctx, stream);
            self.drop_stream_window(ctx, stream);
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
        if awaited && self.tracer.is_on() {
            // Before the sync below: the job may complete in it.
            self.attr_job.insert(jid, None);
        }
        self.pending.submit(ctx, stream, jid);
        self.sync_device(gid.index(), now);
        jid
    }

    /// Direct mode: block the host on `cond`, or advance if it already
    /// holds.
    fn block_or_advance(&mut self, app: AppId, cond: BlockOn, reply_ns: u64, now: SimTime) -> bool {
        if self.pending.is_satisfied(cond) {
            self.charge_wait_release(app, cond, now);
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
            self.charge_wait_release(app, cond, now);
            self.charge_stage(app, Stage::Rpc, now + reply_ns);
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
            if self.tracer.is_on() {
                // Record the finished work for wait decomposition: the
                // window keyed by whatever condition a host might block on.
                // Only a synchronous copy waits on its job.
                if let Some(w) = self.attr_job.get_mut(&c.job.id) {
                    *w = Some(EngineWindow::from_job(c));
                }
                self.attr_stream
                    .entry((c.job.ctx, c.job.stream))
                    .and_modify(|w| w.merge(c))
                    .or_insert_with(|| EngineWindow::from_job(c));
                self.attr_ctx
                    .entry(c.job.ctx)
                    .and_modify(|w| w.merge(c))
                    .or_insert_with(|| EngineWindow::from_job(c));
            }
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
            // above) may already have parked this very wakeup; a second copy
            // would only spill the first into the wheel.
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
        if self.tracer.is_on() {
            self.tracer.instant(
                self.trk_faults,
                now,
                "fault_injected",
                vec![
                    ("kind", ev.kind.label().to_string()),
                    ("detail", ev.kind.to_string()),
                ],
            );
        }
        if self.flight.is_on() {
            // Route the record to the struck node's ring; device faults
            // land on the device's hosting node.
            let ring = match ev.kind {
                FaultKind::NodeLoss { node }
                | FaultKind::LinkDegraded { node, .. }
                | FaultKind::Partition { node, .. } => node,
                FaultKind::BackendCrash { gid } | FaultKind::DeviceFailure { gid } => {
                    self.gpool.global().entry(Gid(gid)).map_or(0, |e| e.node.0)
                }
            };
            self.flight(
                NodeId(ring),
                FlightKind::FaultInjected,
                NO_ID,
                ev.kind.code(),
                ev.kind.target(),
            );
        }
        match ev.kind {
            FaultKind::BackendCrash { gid } => self.on_backend_crash(gid as usize, now),
            FaultKind::DeviceFailure { gid } => self.on_device_failure(Gid(gid), now),
            FaultKind::NodeLoss { node } => self.on_node_loss(NodeId(node), now),
            FaultKind::LinkDegraded {
                node,
                factor,
                for_ns,
            } => {
                let n = node as usize;
                if n < self.degrade.len() {
                    self.degrade[n] = (now + for_ns, factor.max(1.0));
                    if self.tracer.is_on() {
                        let id = Some(0x1000 + n as u64);
                        self.tracer.span_begin(
                            self.trk_faults,
                            now,
                            "link_degraded",
                            id,
                            vec![("node", node.to_string()), ("factor", factor.to_string())],
                        );
                        self.tracer
                            .span_end(self.trk_faults, now + for_ns, "link_degraded", id);
                    }
                }
            }
            FaultKind::Partition { node, for_ns } => {
                let n = node as usize;
                if n < self.partition_until.len() {
                    self.partition_until[n] = self.partition_until[n].max(now + for_ns);
                    if self.tracer.is_on() {
                        let id = Some(0x2000 + n as u64);
                        self.tracer.span_begin(
                            self.trk_faults,
                            now,
                            "partition",
                            id,
                            vec![("node", node.to_string())],
                        );
                        self.tracer
                            .span_end(self.trk_faults, now + for_ns, "partition", id);
                    }
                }
            }
        }
        // Trigger after the handler so the fault-class dump window
        // includes the blast radius (aborts, failovers) just recorded.
        self.flight.trigger(DumpReason::Fault, now);
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
        if self.tracer.is_on() {
            self.tracer.instant(
                self.trk_faults,
                now,
                "gmap_rebuild",
                vec![("survivors", self.gpool.global().live_len().to_string())],
            );
        }
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
            self.drop_stream_window(ctx, stream);
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
        // A job window exists only while its copy's wait is pending.
        for w in self.waiters.iter().filter(|w| w.app == app) {
            if let BlockOn::Job(j) = w.cond {
                self.attr_job.remove(&j);
            }
        }
        self.waiters.retain(|w| w.app != app);
    }

    /// Forget the attribution window of an app's private stream when the
    /// app leaves it: nothing waits on that stream again (a re-bind gets a
    /// fresh one). Default streams are shared and keep theirs.
    fn drop_stream_window(&mut self, ctx: ContextId, stream: StreamId) {
        if !stream.is_default() {
            self.attr_stream.remove(&(ctx, stream));
        }
    }

    /// Forget every attribution window of a destroyed context: its id is
    /// never reused, so nothing can wait on it again.
    fn drop_ctx_windows(&mut self, ctx: ContextId, stream: StreamId) {
        self.attr_ctx.remove(&ctx);
        self.attr_stream.remove(&(ctx, stream));
    }

    /// Tear down a killed application: purge its queued device work,
    /// unregister it everywhere, and end its host thread without a
    /// completion record.
    fn abort_app(&mut self, app: AppId, now: SimTime) {
        let (slot, tenant, gid, node) = {
            let a = self.app(app);
            if a.host.is_done() {
                return;
            }
            (a.slot, a.tenant, a.gid, a.node)
        };
        self.retract_attribution(app, now);
        self.detach_app(app, now);
        let a = self.app_mut(app);
        a.incarnation += 1; // poison in-flight events
        a.inflight = None;
        a.host.abort();
        drop(std::mem::take(&mut a.host.program));
        self.stats.failed_requests += 1;
        self.finished += 1;
        self.outcome(tenant).lost += 1;
        self.flight(
            node,
            FlightKind::Abort,
            app.index() as u64,
            node.0 as u64,
            0,
        );
        self.observe_outcome(now, true);
        if let Some(adm) = self.admission.as_mut() {
            adm.release(tenant.0 as usize);
        }
        if self.tracer.is_on() {
            self.tracer.instant(
                self.trk_slots[slot],
                now,
                "fault_abort",
                vec![
                    ("request", app.index().to_string()),
                    (
                        "gid",
                        gid.map_or_else(|| "-".to_string(), |g| g.index().to_string()),
                    ),
                ],
            );
            self.tracer
                .request_end(self.trk_slots[slot], now, app.index() as u64);
        }
        self.slot_inflight[slot] -= 1;
        if let Some(next) = self.slot_backlog[slot].pop_front() {
            self.start_request(next, now);
        }
    }

    /// Fail `app` over: tear down the dead binding, bump the incarnation
    /// so stale events are discarded, and replay the program once the
    /// frontend has detected the failure and a backend respawned. The
    /// request survives — slower, and counted as disrupted.
    fn failover_app(&mut self, app: AppId, now: SimTime, reason: &str) {
        let (slot, tenant, node, old_gid) = {
            let a = self.app(app);
            if a.host.is_done() {
                return;
            }
            (a.slot, a.tenant, a.node, a.gid)
        };
        self.retract_attribution(app, now);
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
        self.flight(
            node,
            FlightKind::Failover,
            app.index() as u64,
            old_gid.map_or(NO_ID, |g| g.index() as u64),
            delay,
        );
        if self.tracer.is_on() {
            let id = Some(0x4000_0000 + app.index() as u64);
            self.tracer.span_begin(
                self.trk_slots[slot],
                now,
                "failover",
                id,
                vec![("reason", reason.to_string())],
            );
            self.tracer
                .span_end(self.trk_slots[slot], now + delay, "failover", id);
        }
        self.queue.schedule(now + delay, Event::Restart(app, inc));
    }

    /// The failover window elapsed: replay the program from the top. The
    /// replayed `cudaSetDevice` re-enters the balancer, which now skips
    /// retired devices — that is the re-placement.
    fn on_restart(&mut self, app: AppId, now: SimTime) {
        let (slot, node) = {
            let a = self.app(app);
            (a.slot, a.node)
        };
        if self.node_lost[node.0 as usize] || !self.has_live_target(node) {
            // Nowhere left to run: the request is lost after all.
            self.abort_app(app, now);
            return;
        }
        if self.tracer.is_on() {
            self.tracer.instant(
                self.trk_slots[slot],
                now,
                "replay",
                vec![("request", app.index().to_string())],
            );
        }
        {
            let inc = self.app(app).incarnation;
            self.flight(
                node,
                FlightKind::Restart,
                app.index() as u64,
                node.0 as u64,
                inc as u64,
            );
        }
        let a = self.app_mut(app);
        a.last_deliver = now;
        a.host.restart(now);
        // The failover window (detection + respawn) is unattributable
        // recovery time.
        self.charge_stage(app, Stage::Other, now);
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
            self.charge_wait_release(w.app, w.cond, now);
            if w.direct {
                let a = self.app_mut(w.app);
                a.host.wake_and_advance(now);
                self.after_host_step(w.app, now);
                self.run_host(w.app, now);
            } else {
                self.charge_stage(w.app, Stage::Rpc, now + w.reply_ns);
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

#[cfg(test)]
mod tests {
    use super::*;
    use strings_core::mapper::LbPolicy;

    fn requests(kinds: &[(AppKind, usize, u64)]) -> Vec<PlannedRequest> {
        // (kind, slot, arrival_ms)
        let mut rng = SimRng::new(7);
        let gen = TraceGenerator {
            jitter: 0.0,
            ..Default::default()
        };
        kinds
            .iter()
            .map(|(k, slot, ms)| PlannedRequest {
                arrival: ms * 1_000_000,
                slot: *slot,
                class: WorkloadClass(*k as u32),
                node: NodeId(0),
                tenant: TenantId(*slot as u32),
                weight: 1.0,
                server_threads: 16,
                program: gen.generate(&k.profile(), &mut rng).into(),
            })
            .collect()
    }

    fn run(cfg: StackConfig, reqs: Vec<PlannedRequest>) -> RunStats {
        World::new(
            &TopologySpec::node_a(),
            DeviceConfig::default(),
            cfg,
            LbScope::Global,
            HostCosts::default(),
            reqs,
            None,
        )
        .run()
    }

    #[test]
    fn single_request_completes_under_bare_runtime() {
        let stats = run(
            StackConfig::cuda_runtime(),
            requests(&[(AppKind::GA, 0, 0)]),
        );
        assert_eq!(stats.completed_requests, 1);
        let ct = stats.completions.mean_ct(0);
        let solo = AppKind::GA.profile().runtime.as_ns() as f64;
        // Within 2× of the profile runtime (overheads, device speed).
        assert!(
            ct > 0.5 * solo && ct < 2.0 * solo,
            "GA completion {ct} vs solo {solo}"
        );
        assert_eq!(stats.oom_events, 0);
    }

    #[test]
    fn single_request_completes_under_strings() {
        let stats = run(
            StackConfig::strings(LbPolicy::GMin),
            requests(&[(AppKind::GA, 0, 0)]),
        );
        assert_eq!(stats.completed_requests, 1);
        assert!(stats.completions.mean_ct(0) > 0.0);
    }

    #[test]
    fn single_request_completes_under_rain() {
        let stats = run(
            StackConfig::rain(LbPolicy::Grr),
            requests(&[(AppKind::MC, 0, 0)]),
        );
        assert_eq!(stats.completed_requests, 1);
    }

    #[test]
    fn colliding_requests_serialize_on_bare_runtime() {
        // Two simultaneous MC requests both pick device 0: serialized with
        // context switching, so slower than 1.5× a solo run.
        let solo = run(
            StackConfig::cuda_runtime(),
            requests(&[(AppKind::MC, 0, 0)]),
        );
        let both = run(
            StackConfig::cuda_runtime(),
            requests(&[(AppKind::MC, 0, 0), (AppKind::MC, 1, 0)]),
        );
        assert_eq!(both.completed_requests, 2);
        let solo_ct = solo.completions.mean_ct(0);
        let shared_ct = both.completions.mean_ct(0).max(both.completions.mean_ct(1));
        assert!(
            shared_ct > 1.2 * solo_ct,
            "collision must hurt: {shared_ct} vs {solo_ct}"
        );
        assert!(both.context_switches > 0, "driver must have multiplexed");
    }

    #[test]
    fn balancer_spreads_colliding_requests() {
        // Same two requests under Strings GMin: different GPUs, no
        // meaningful slowdown versus solo.
        let both = run(
            StackConfig::strings(LbPolicy::GMin),
            requests(&[(AppKind::MC, 0, 0), (AppKind::MC, 1, 0)]),
        );
        assert_eq!(both.completed_requests, 2);
        assert_eq!(both.context_switches, 0, "one context per device");
    }

    #[test]
    fn strings_beats_bare_runtime_under_collision() {
        let reqs = requests(&[
            (AppKind::MC, 0, 0),
            (AppKind::MC, 1, 0),
            (AppKind::MC, 0, 100),
        ]);
        let cuda = run(StackConfig::cuda_runtime(), reqs.clone());
        let strings = run(StackConfig::strings(LbPolicy::GMin), reqs);
        assert!(
            strings.mean_completion_ns() < cuda.mean_completion_ns(),
            "strings {} !< cuda {}",
            strings.mean_completion_ns(),
            cuda.mean_completion_ns()
        );
    }

    #[test]
    fn tfs_divides_service_between_tenants() {
        use strings_core::device_sched::GpuPolicy;
        // Two long-ish apps on a single-GPU node, equal weights.
        let topo = TopologySpec::builder()
            .node(vec![gpu_sim::spec::GpuModel::TeslaC2050])
            .build();
        let reqs = requests(&[(AppKind::HI, 0, 0), (AppKind::MM, 1, 0)]);
        let stats = World::new(
            &topo,
            DeviceConfig::default(),
            StackConfig::strings(LbPolicy::GMin).with_gpu_policy(GpuPolicy::Tfs),
            LbScope::Global,
            HostCosts::default(),
            reqs,
            Some(10_000_000_000), // 10 s horizon
        )
        .run();
        assert_eq!(stats.completed_requests, 2);
        let services: Vec<u64> = stats.tenant_service_ns.values().copied().collect();
        assert_eq!(services.len(), 2);
        let fairness =
            strings_metrics::jain_fairness(&services.iter().map(|s| *s as f64).collect::<Vec<_>>());
        assert!(fairness > 0.7, "TFS fairness too low: {fairness}");
    }

    #[test]
    fn feedback_flows_to_mapper_and_arbiter_switches() {
        let cfg = StackConfig::strings(LbPolicy::GWtMin).with_feedback(LbPolicy::Mbf, 2);
        let reqs = requests(&[
            (AppKind::GA, 0, 0),
            (AppKind::GA, 0, 50),
            (AppKind::GA, 0, 3000),
        ]);
        let stats = run(cfg, reqs);
        assert_eq!(stats.completed_requests, 3);
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            run(
                StackConfig::strings(LbPolicy::GMin),
                requests(&[
                    (AppKind::MC, 0, 0),
                    (AppKind::BS, 1, 20),
                    (AppKind::GA, 0, 40),
                ]),
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.mean_completion_ns(), b.mean_completion_ns());
        assert_eq!(a.events, b.events);
        assert_eq!(a.makespan_ns, b.makespan_ns);
    }

    #[test]
    fn design_two_master_serializes_but_completes() {
        let mut cfg = StackConfig::strings(LbPolicy::GMin);
        cfg.design = BackendDesign::SingleMaster;
        // Keep SST off for Design II: device syncs block the master.
        cfg.packer.sync_to_stream = false;
        let stats = run(cfg, requests(&[(AppKind::GA, 0, 0), (AppKind::GA, 1, 0)]));
        assert_eq!(stats.completed_requests, 2);
    }

    #[test]
    fn local_scope_keeps_apps_on_their_node() {
        let reqs: Vec<PlannedRequest> = {
            let mut r = requests(&[(AppKind::MC, 0, 0), (AppKind::MC, 1, 0)]);
            r[1].node = NodeId(1);
            r
        };
        let stats = World::new(
            &TopologySpec::supernode(),
            DeviceConfig::default(),
            StackConfig::strings(LbPolicy::GMin),
            LbScope::Local,
            HostCosts::default(),
            reqs,
            None,
        )
        .run();
        assert_eq!(stats.completed_requests, 2);
        // Devices on both nodes must have seen work (one app each).
        let t = &stats.device_telemetry;
        let node_a_work = t[0].kernels_completed + t[1].kernels_completed;
        let node_b_work = t[2].kernels_completed + t[3].kernels_completed;
        assert!(node_a_work > 0 && node_b_work > 0);
    }
}
