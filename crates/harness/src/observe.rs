//! Everything a run keeps only to observe itself.
//!
//! The executive ([`crate::world::World`]) reports each step of a
//! request's life once, as a typed [`Step`], and [`Observers`] fans it
//! out to the sinks that are on:
//!
//! * the flight recorder: one compact record per step, chained to the
//!   request's previous record, the `explain` capture, and the dump
//!   triggers;
//! * the burn-rate alert engine, fed by terminal outcomes;
//! * the metrics registry: the latency histogram per completion, and one
//!   sample of every family per cadence tick;
//! * latency attribution: the [`StageFold`] that turns each request's
//!   stage charges into one ledger row, and the engine windows that
//!   decompose its waits into stages;
//! * the tracer: instants and spans, and the stage charges as events.
//!   It only records; the ledger it ends with is the fold's.
//!
//! Observers get what they read (a request's attribution cursor, device
//! telemetry, run counters) as arguments, hold no reference to the world,
//! and feed nothing back into the simulation. Each sink sees a step's
//! records in a fixed order, so every output is byte-stable; completion, for
//! instance, writes the `Complete` record, fires the SLO-breach trigger,
//! then feeds the alert engine (whose transitions write records of their
//! own), and charges the residual to `Other` before the request span
//! closes.

use crate::gpu::Gpu;
use crate::stats::RunStats;
use crate::world::PlannedRequest;
use cuda_sim::host::BlockOn;
use gpu_sim::device::CompletedJob;
use gpu_sim::ids::{ContextId, JobId, StreamId};
use gpu_sim::job::{CopyDirection, JobKind};
use remoting::gpool::{Gid, NodeId, ShardedGPool};
use sim_core::event::EventQueue;
use sim_core::fault::FaultKind;
use sim_core::flight::{DumpReason, FlightKind, FlightRecord, FlightRecorder, NO_ID};
use sim_core::fxhash::FxHashMap;
use sim_core::telemetry::UtilizationTracker;
use sim_core::trace::{Stage, StageFold, Tracer, TrackId, REQUEST_SPAN};
use sim_core::SimTime;
use std::fmt::Write;
use strings_core::admission::ShedReason;
use strings_metrics::alerts::BurnRateEngine;
use strings_metrics::registry::{HistogramId, MetricKind, MetricsRegistry, SeriesId};
use MetricKind::{Counter, Gauge, Histogram};

/// Default flight-recorder ring depth per node: deep enough to hold a
/// useful incident window, shallow enough that 64 nodes cost ~1.3 MB.
const FLIGHT_DEPTH_DEFAULT: usize = 256;

/// One metric family: name, kind and help text.
type Family = (&'static str, MetricKind, &'static str);

/// Unlabelled run-wide families, in the order [`Observers::sample`]
/// takes their values.
pub(crate) const RUN_FAMILIES: [Family; 15] = [
    ("sim_virtual_time_ns", Gauge, "Virtual time of the sample"),
    (
        "sim_events_total",
        Counter,
        "Events dispatched by the executive",
    ),
    (
        "sim_queue_peak_depth",
        Gauge,
        "High-water mark of the event queue",
    ),
    (
        "requests_completed_total",
        Counter,
        "Requests finished (any outcome)",
    ),
    ("requests_failed_total", Counter, "Requests lost to faults"),
    ("requests_shed_total", Counter, "Requests shed at admission"),
    ("cuda_pending_jobs", Gauge, "Outstanding device jobs"),
    (
        "cuda_contexts_active",
        Gauge,
        "Contexts with outstanding work",
    ),
    (
        "cuda_streams_active",
        Gauge,
        "Streams with outstanding work",
    ),
    ("rpc_sent_total", Counter, "RPCs shipped toward backends"),
    ("rpc_delivered_total", Counter, "RPCs landed at backends"),
    (
        "rpc_replies_total",
        Counter,
        "RPC replies received by frontends",
    ),
    ("rpc_dropped_total", Counter, "RPCs dropped by partitions"),
    ("rpc_bytes_total", Counter, "Marshalled RPC bytes shipped"),
    (
        "rpc_in_flight",
        Gauge,
        "RPCs sent but not yet delivered or dropped",
    ),
];

/// Per-device families, labelled `gid="N"`.
const GPU_FAMILIES: [Family; 5] = [
    (
        "gpu_compute_occupancy",
        Gauge,
        "SM occupancy per device (0..1)",
    ),
    (
        "gpu_copy_busy",
        Gauge,
        "Copy-engine busy fraction per device (0..1)",
    ),
    (
        "gpu_context_switches_total",
        Counter,
        "Context switches per device",
    ),
    (
        "gpu_kernels_completed_total",
        Counter,
        "Kernels completed per device",
    ),
    (
        "gpu_copies_completed_total",
        Counter,
        "Copies completed per device",
    ),
];

/// End-to-end request latency, labelled `tenant="N"`.
const LATENCY_FAMILY: Family = (
    "request_latency_ns",
    Histogram,
    "End-to-end request latency",
);

/// Per-node rollups, labelled `node="N"` (node metrics only).
const NODE_FAMILIES: [Family; 4] = [
    ("node_devices_live", Gauge, "Live devices per node"),
    (
        "node_kernels_completed_total",
        Counter,
        "Kernels completed per node",
    ),
    (
        "node_copies_completed_total",
        Counter,
        "Copies completed per node",
    ),
    (
        "node_compute_occupancy",
        Gauge,
        "Mean SM occupancy over a node's devices (0..1)",
    ),
];

/// Burn-rate alert families (with a burn-rate rule only).
const BURN_FAMILIES: [Family; 3] = [
    (
        "slo_burn_short",
        Gauge,
        "Error-budget burn rate over the short window",
    ),
    (
        "slo_burn_long",
        Gauge,
        "Error-budget burn rate over the long window",
    ),
    (
        "slo_alerts_fired_total",
        Counter,
        "Burn-rate alert FIRED transitions",
    ),
];

/// One step of a request's life, as the executive reports it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    /// The request reached the front door.
    Arrival,
    /// Admitted: the request span opens (it covers the server queue).
    Admitted,
    /// Its node was already lost when it arrived. Terminal.
    LostAtArrival,
    /// Its node was lost while it waited in the server queue. Terminal.
    LostQueued,
    /// Admission turned it away. Terminal.
    Shed { reason: ShedReason },
    /// It left the server queue and started running.
    Dispatch,
    /// The interposer bound it to a device.
    Bind { gid: Gid },
    /// An RPC left the frontend carrying `bytes`.
    RpcSend { gid: Gid, bytes: u64 },
    /// A partition toward `to` dropped the RPC of attempt `attempt`.
    RpcDrop { gid: Gid, to: NodeId, attempt: u32 },
    /// The RPC landed at the backend: the run's `ordinal`-th delivery.
    RpcDeliver { gid: Gid, ordinal: u64 },
    /// The reply reached the frontend.
    RpcReply { gid: Option<Gid> },
    /// Attempt `attempt`'s deadline expired.
    RpcTimeout { attempt: u32 },
    /// Attempt `attempt` goes out after `backoff` ns.
    RpcRetry { attempt: u32, backoff: u64 },
    /// The retry budget ran out after `attempts` attempts.
    RetriesExhausted { attempts: u32 },
    /// Torn down off `gid`; it replays after `delay` ns.
    Failover {
        gid: Option<Gid>,
        delay: u64,
        reason: &'static str,
    },
    /// The failover window elapsed: it replays from the top.
    Restart { incarnation: u32 },
    /// Lost to a fault while bound to `gid`. Terminal.
    Abort { gid: Option<Gid> },
    /// Finished after `latency` ns. Terminal.
    Complete { latency: u64 },
}

impl Step {
    /// The flight record of this step of `r`: kind and payload (see
    /// [`FlightKind`] for what `a` and `b` mean per kind).
    fn record(self, r: &PlannedRequest, breached: bool) -> Option<(FlightKind, u64, u64)> {
        let (tenant, node) = (r.tenant.0 as u64, r.node.0 as u64);
        let gid = |g: Option<Gid>| g.map_or(NO_ID, |g| g.index() as u64);
        Some(match self {
            Step::Arrival => (FlightKind::Arrival, tenant, node),
            Step::Admitted | Step::RetriesExhausted { .. } => return None,
            Step::LostAtArrival | Step::LostQueued => (FlightKind::Lost, tenant, node),
            Step::Shed { reason } => (FlightKind::Shed, tenant, reason.code()),
            Step::Dispatch => (FlightKind::Dispatch, tenant, node),
            Step::Bind { gid } => (FlightKind::Bind, gid.index() as u64, node),
            Step::RpcSend { gid, bytes } => (FlightKind::RpcSend, gid.index() as u64, bytes),
            Step::RpcDrop { gid, to, .. } => (FlightKind::RpcDrop, gid.index() as u64, to.0 as u64),
            Step::RpcDeliver { gid, ordinal } => {
                (FlightKind::RpcDeliver, gid.index() as u64, ordinal)
            }
            Step::RpcReply { gid: g } => (FlightKind::RpcReply, gid(g), 0),
            Step::RpcTimeout { attempt } => (FlightKind::RpcTimeout, attempt as u64, 0),
            Step::RpcRetry { attempt, backoff } => (FlightKind::RpcRetry, attempt as u64, backoff),
            Step::Failover { gid: g, delay, .. } => (FlightKind::Failover, gid(g), delay),
            Step::Restart { incarnation } => (FlightKind::Restart, node, incarnation as u64),
            Step::Abort { .. } => (FlightKind::Abort, node, 0),
            Step::Complete { latency } => (FlightKind::Complete, latency, u64::from(breached)),
        })
    }
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
    /// The window before any work: the first merge sets its bounds.
    const EMPTY: EngineWindow = EngineWindow {
        first_start: SimTime::MAX,
        last_finish: 0,
        busy: [0; 3],
    };

    fn merge(&mut self, c: &CompletedJob) {
        let kind = match c.job.kind {
            JobKind::Kernel(_) => 0,
            JobKind::Copy {
                dir: CopyDirection::HostToDevice,
                ..
            } => 1,
            JobKind::Copy {
                dir: CopyDirection::DeviceToHost,
                ..
            } => 2,
        };
        self.first_start = self.first_start.min(c.started_at);
        self.last_finish = self.last_finish.max(c.finished_at);
        self.busy[kind] += c.service_ns();
    }

    /// `(wait, service)` stages of the dominant engine kind in the window
    /// (a stream/context window can mix kinds; the interval is charged to
    /// whichever engine did the most work, the lowest kind on a tie —
    /// exact for the common single-kind burst between synchronizations).
    fn stages(&self) -> (Stage, Stage) {
        match (0..3).rev().max_by_key(|&i| self.busy[i]) {
            Some(0) => (Stage::ComputeWait, Stage::ComputeService),
            Some(1) => (Stage::H2dWait, Stage::H2dXfer),
            _ => (Stage::D2hWait, Stage::D2hXfer),
        }
    }
}

/// The metrics registry and its series handles, resolved once at run
/// start so sampling and latency observations store by index without
/// building strings. A resolved handle alone exports nothing.
#[derive(Debug)]
struct Metrics {
    registry: MetricsRegistry,
    run: [SeriesId; RUN_FAMILIES.len()],
    /// Per device.
    gpu: Vec<[SeriesId; GPU_FAMILIES.len()]>,
    /// Per node, in [`ShardedGPool::shards`] order (empty without node
    /// metrics).
    node: Vec<[SeriesId; NODE_FAMILIES.len()]>,
    burn: Option<[SeriesId; BURN_FAMILIES.len()]>,
    /// Per tenant.
    latency: Vec<HistogramId>,
}

/// Resolve one series per family, labelled `key="value"`.
fn resolve<const N: usize>(
    m: &mut MetricsRegistry,
    families: [Family; N],
    key: &str,
    value: usize,
) -> [SeriesId; N] {
    let value = value.to_string();
    families.map(|(name, ..)| m.series(name, &[(key, value.as_str())]))
}

/// Store one value per handle.
fn set_all<const N: usize>(m: &mut MetricsRegistry, ids: [SeriesId; N], values: [f64; N]) {
    for (id, v) in ids.into_iter().zip(values) {
        m.set_series(id, v);
    }
}

/// The run's observability sinks. See the module docs.
#[derive(Debug)]
pub(crate) struct Observers {
    /// Structured trace recorder (off unless tracing is on).
    tracer: Tracer,
    /// Executive-level track (counters, run-wide diagnostics).
    trk_sim: TrackId,
    /// Fault-injection track (injections, windows, gMap rebuilds).
    trk_faults: TrackId,
    /// One track per request slot (async request spans live here).
    trk_slots: Vec<TrackId>,
    /// Latency attribution: one charge list per request in flight, one
    /// row per finished request (on with attribution or tracing).
    fold: Option<StageFold>,
    /// Reused buffer for the class label a request opens with.
    class_buf: String,
    /// Attribution windows awaiting a synchronization (attribution only).
    /// Fx-hashed: stream and context windows take one update per device
    /// completion while attribution is on. A job has an entry only while
    /// a synchronous copy waits on it (`None` until the job completes);
    /// an app's private stream window goes when the app detaches, and a
    /// private context's windows when the context is destroyed.
    attr_job: FxHashMap<JobId, Option<EngineWindow>>,
    attr_stream: FxHashMap<(ContextId, StreamId), EngineWindow>,
    attr_ctx: FxHashMap<ContextId, EngineWindow>,
    /// Virtual-time metrics sampling cadence, ns (None: no metrics).
    pub metrics_every: Option<u64>,
    /// Sample the per-node rollup families too.
    pub node_metrics: bool,
    /// The registry, from run start when metrics are on.
    metrics: Option<Metrics>,
    /// Always-on flight recorder: per-node rings of compact lifecycle
    /// records, snapshotted on triggers. Depth 0 disables it.
    pub flight: FlightRecorder,
    /// Per-request id of its latest flight record: the cause link the
    /// next record in the chain carries.
    flight_last: Vec<u64>,
    /// Request whose flight chain is captured verbatim, immune to ring
    /// eviction.
    pub explain: Option<u64>,
    explain_records: Vec<FlightRecord>,
    /// Burn-rate alert engine.
    pub alerts: Option<BurnRateEngine>,
    /// Virtual time of the explicit dump trigger, if requested.
    pub dump_at: Option<SimTime>,
    /// Snapshot at end of run if no trigger fired.
    pub dump_final: bool,
}

impl Observers {
    /// Every sink off except the flight recorder, at its default depth.
    pub fn new(nodes: usize) -> Self {
        Observers {
            tracer: Tracer::off(),
            trk_sim: TrackId::INVALID,
            trk_faults: TrackId::INVALID,
            trk_slots: Vec::new(),
            fold: None,
            class_buf: String::new(),
            attr_job: FxHashMap::default(),
            attr_stream: FxHashMap::default(),
            attr_ctx: FxHashMap::default(),
            metrics_every: None,
            node_metrics: false,
            metrics: None,
            flight: FlightRecorder::new(nodes, FLIGHT_DEPTH_DEFAULT),
            flight_last: Vec::new(),
            explain: None,
            explain_records: Vec::new(),
            alerts: None,
            dump_at: None,
            dump_final: false,
        }
    }

    /// Record a trace, and attribute latency. Track ids follow
    /// registration order: the executive and fault tracks, then whatever
    /// `components` registers on the tracer, then one track per request
    /// slot, labelled with its class.
    pub fn trace(
        &mut self,
        requests: &[PlannedRequest],
        slots: usize,
        components: impl FnOnce(&Tracer),
    ) {
        let tracer = Tracer::buffered();
        self.trk_sim = tracer.track("sim", "executive");
        self.trk_faults = tracer.track("sim", "faults");
        components(&tracer);
        self.trk_slots = (0..slots)
            .map(|slot| {
                let class = requests
                    .iter()
                    .find(|r| r.slot == slot)
                    .map(|r| format!(" {}", r.class))
                    .unwrap_or_default();
                tracer.track("requests", format!("slot{slot}{class}"))
            })
            .collect();
        self.tracer = tracer;
        self.attribute();
    }

    /// Fold every request's stage charges into one ledger row.
    pub fn attribute(&mut self) {
        self.fold.get_or_insert_with(StageFold::default);
    }

    /// Ready the sinks for a run of `requests` on `devices`: size the
    /// cause links and the ledger (a row per request at most), and
    /// register the metric families of the sinks that are on and resolve
    /// their series.
    pub fn start(&mut self, requests: &[PlannedRequest], devices: usize, gpool: &ShardedGPool) {
        if let Some(fold) = self.fold.as_mut() {
            fold.reserve(requests.len());
        }
        if self.flight.is_on() {
            self.flight_last = vec![NO_ID; requests.len()];
        }
        if self.metrics_every.is_none() {
            return;
        }
        let mut m = MetricsRegistry::new();
        let (node_on, burn_on) = (self.node_metrics, self.alerts.is_some());
        let always = RUN_FAMILIES
            .iter()
            .chain(&GPU_FAMILIES)
            .chain([&LATENCY_FAMILY]);
        let families = always
            .chain(NODE_FAMILIES.iter().filter(|_| node_on))
            .chain(BURN_FAMILIES.iter().filter(|_| burn_on));
        for &(name, kind, help) in families {
            m.register(name, kind, help);
        }
        let gpu = (0..devices)
            .map(|g| resolve(&mut m, GPU_FAMILIES, "gid", g))
            .collect();
        let node = (gpool.shards().filter(|_| node_on))
            .map(|(n, _)| resolve(&mut m, NODE_FAMILIES, "node", n.0 as usize))
            .collect();
        let tenants = requests.iter().map(|r| r.tenant.0 as usize + 1).max();
        let latency = (0..tenants.unwrap_or(0))
            .map(|t| m.histogram(LATENCY_FAMILY.0, &[("tenant", t.to_string().as_str())]))
            .collect();
        self.metrics = Some(Metrics {
            run: RUN_FAMILIES.map(|(name, ..)| m.series(name, &[])),
            burn: burn_on.then(|| BURN_FAMILIES.map(|(name, ..)| m.series(name, &[]))),
            gpu,
            node,
            latency,
            registry: m,
        });
    }

    /// Report one step of request `id`, planned as `r`. `cursor` is its
    /// attribution cursor once it runs (see [`Observers::charge`]).
    pub fn step<E>(
        &mut self,
        q: &EventQueue<E>,
        id: u64,
        r: &PlannedRequest,
        cursor: Option<&mut SimTime>,
        step: Step,
    ) {
        // Terminal outcomes feed the alert engine: bad unless a completion
        // met the rule's latency target, which doubles as the breach
        // threshold for the flight recorder's SLO dump class.
        let (bad, breached) = match step {
            Step::Complete { latency } => {
                if let Some(m) = self.metrics.as_mut() {
                    let tenant = m.latency[r.tenant.0 as usize];
                    m.registry.observe_series(tenant, latency);
                }
                let breached = self
                    .alerts
                    .as_ref()
                    .is_some_and(|e| latency > e.target_ns());
                (Some(breached), breached)
            }
            Step::LostAtArrival | Step::LostQueued | Step::Shed { .. } | Step::Abort { .. } => {
                (Some(true), false)
            }
            _ => (None, false),
        };
        if let Some(rec) = step.record(r, breached) {
            self.flight(q, r.node, id, rec);
        }
        if breached {
            self.flight.trigger(DumpReason::SloBreach, q.now());
        }
        if let (Some(bad), Some(eng)) = (bad, self.alerts.as_mut()) {
            eng.observe(q.now(), bad);
            self.drain_alert_transitions(q);
        }
        if self.tracer.is_on() {
            self.trace_step(q.now(), id, r, step);
        }
        if self.fold.is_some() {
            self.attribute_step(q.now(), id, r, cursor, step);
        }
    }

    /// Attribution's view of a step (attribution is on): the request
    /// opens when admitted, the step charges the stage it closes, and
    /// terminal steps close the request, and its span when tracing.
    fn attribute_step(
        &mut self,
        now: SimTime,
        id: u64,
        r: &PlannedRequest,
        cursor: Option<&mut SimTime>,
        step: Step,
    ) {
        if let (Step::Admitted, Some(fold)) = (step, self.fold.as_mut()) {
            self.class_buf.clear();
            write!(self.class_buf, "{}", r.class).expect("a String takes any write");
            fold.open(id, r.tenant.0, &self.class_buf, now);
        }
        let charge = match step {
            // Admission + server-queue wait: arrival up to dispatch.
            Step::Dispatch => Some(Stage::AdmissionWait),
            // The failover window (detection + respawn), and the residual
            // tail of a completion (final host step, reply unpacking), are
            // unattributable.
            Step::Restart { .. } | Step::Complete { .. } => Some(Stage::Other),
            _ => None,
        };
        if let Some(stage) = charge {
            let cursor = cursor.expect("the request runs");
            self.charge(r.slot, id, cursor, stage, now);
        }
        if matches!(
            step,
            Step::LostQueued | Step::Abort { .. } | Step::Complete { .. }
        ) {
            if self.tracer.is_on() {
                let track = self.trk_slots[r.slot];
                self.tracer.span_end(track, now, REQUEST_SPAN, Some(id));
            }
            if let Some(fold) = self.fold.as_mut() {
                fold.close(id, now);
            }
        }
    }

    /// The tracer's view of a step (tracing is on): at most one instant
    /// or span; admission opens the request span. It precedes the
    /// step's stage charge and the end of the request span.
    fn trace_step(&self, now: SimTime, id: u64, r: &PlannedRequest, step: Step) {
        let (t, track) = (&self.tracer, self.trk_slots[r.slot]);
        let one = |key, value: u64| vec![(key, value.to_string())];
        let instant = match step {
            Step::Admitted => {
                let args = vec![
                    ("tenant", r.tenant.to_string()),
                    ("class", r.class.to_string()),
                    ("node", r.node.to_string()),
                ];
                t.span_begin(track, now, REQUEST_SPAN, Some(id), args);
                None
            }
            Step::LostAtArrival => Some((self.trk_faults, "arrival_dropped", one("request", id))),
            Step::Shed { reason } => {
                let args = vec![
                    ("request", id.to_string()),
                    ("tenant", r.tenant.to_string()),
                    ("reason", reason.to_string()),
                ];
                Some((self.trk_sim, "shed", args))
            }
            Step::Dispatch => Some((track, "dispatch", one("request", id))),
            Step::RpcDrop { attempt, .. } => {
                Some((track, "rpc_dropped", one("attempt", attempt.into())))
            }
            Step::RpcTimeout { attempt } => {
                Some((track, "rpc_timeout", one("attempt", attempt.into())))
            }
            Step::RpcRetry { attempt, backoff } => {
                let mut args = one("attempt", attempt.into());
                args.push(("backoff_ns", backoff.to_string()));
                Some((track, "rpc_retry", args))
            }
            Step::RetriesExhausted { attempts } => Some((
                track,
                "rpc_retries_exhausted",
                one("attempts", attempts.into()),
            )),
            Step::Failover { delay, reason, .. } => {
                let span = Some(0x4000_0000 + id);
                let args = vec![("reason", reason.to_string())];
                t.span_begin(track, now, "failover", span, args);
                t.span_end(track, now + delay, "failover", span);
                None
            }
            Step::Restart { .. } => Some((track, "replay", one("request", id))),
            Step::Abort { gid } => {
                let gid = gid.map_or_else(|| "-".to_string(), |g| g.index().to_string());
                Some((
                    track,
                    "fault_abort",
                    vec![("request", id.to_string()), ("gid", gid)],
                ))
            }
            _ => None,
        };
        if let Some((track, name, args)) = instant {
            t.instant(track, now, name, args);
        }
    }

    /// An injected fault fired; its record lands in node `ring`'s ring.
    pub fn fault<E>(&mut self, q: &EventQueue<E>, ring: NodeId, kind: FaultKind) {
        let rec = (FlightKind::FaultInjected, kind.code(), kind.target());
        self.flight(q, ring, NO_ID, rec);
        if !self.tracer.is_on() {
            return;
        }
        let (t, track, now) = (&self.tracer, self.trk_faults, q.now());
        let args = vec![
            ("kind", kind.label().to_string()),
            ("detail", kind.to_string()),
        ];
        t.instant(track, now, "fault_injected", args);
        let (name, id, for_ns, args) = match kind {
            FaultKind::LinkDegraded {
                node,
                factor,
                for_ns,
            } => {
                let args = vec![("node", node.to_string()), ("factor", factor.to_string())];
                ("link_degraded", 0x1000 + node as u64, for_ns, args)
            }
            FaultKind::Partition { node, for_ns } => {
                let args = vec![("node", node.to_string())];
                ("partition", 0x2000 + node as u64, for_ns, args)
            }
            _ => return,
        };
        t.span_begin(track, now, name, Some(id), args);
        t.span_end(track, now.saturating_add(for_ns), name, Some(id));
    }

    /// The gMap was rebuilt around lost devices; `survivors` remain.
    pub fn gmap_rebuild(&mut self, now: SimTime, survivors: usize) {
        if !self.tracer.is_on() {
            return;
        }
        let args = vec![("survivors", survivors.to_string())];
        self.tracer
            .instant(self.trk_faults, now, "gmap_rebuild", args);
    }

    /// Write one flight record, `(kind, a, b)`, into node `node`'s ring,
    /// maintaining the request's cause chain. `request` is [`NO_ID`] for
    /// run-scoped records.
    #[inline]
    fn flight<E>(
        &mut self,
        q: &EventQueue<E>,
        node: NodeId,
        request: u64,
        (kind, a, b): (FlightKind, u64, u64),
    ) {
        if !self.flight.is_on() {
            return;
        }
        let rec = FlightRecord {
            at: q.now(),
            node: node.0,
            kind,
            request,
            a,
            b,
            id: 0,
            cause: self
                .flight_last
                .get(request as usize)
                .copied()
                .unwrap_or(NO_ID),
            ev: q.current_id().0,
            ev_cause: q.current_cause().0,
        };
        let id = self.flight.record(rec);
        if let Some(last) = self.flight_last.get_mut(request as usize) {
            *last = id;
        }
        if self.explain == Some(request) {
            self.explain_records.push(FlightRecord { id, ..rec });
        }
    }

    /// Each pending alert transition lands in the flight recorder, and
    /// FIRED transitions trip an alert-class dump.
    fn drain_alert_transitions<E>(&mut self, q: &EventQueue<E>) {
        while let Some(t) = self.alerts.as_mut().and_then(|e| e.pop_pending()) {
            let burn = (t.short_burn * 100.0) as u64;
            let rec = (FlightKind::Alert, u64::from(t.fired), burn);
            self.flight(q, NodeId(0), NO_ID, rec);
            if t.fired {
                self.flight.trigger(DumpReason::Alert, t.at);
            }
        }
    }

    // ---- latency attribution ---------------------------------------------

    /// Charge request `request`'s wall clock from its attribution `cursor`
    /// up to `until` to `stage`, advancing the cursor. Successive charges
    /// tile the request's lifetime with no gaps or overlaps, so the
    /// per-stage breakdown is exactly additive. No-op while attribution
    /// is off or when the window is empty.
    pub fn charge(
        &mut self,
        slot: usize,
        request: u64,
        cursor: &mut SimTime,
        stage: Stage,
        until: SimTime,
    ) {
        let Some(fold) = self.fold.as_mut().filter(|_| until > *cursor) else {
            return;
        };
        let from = std::mem::replace(cursor, until);
        fold.charge(request, stage, from, until);
        if self.tracer.is_on() {
            self.tracer
                .stage_charge(self.trk_slots[slot], until, request, stage, from);
        }
    }

    /// A failure at `now` overtook the request: charges it made up to a
    /// future instant (an RPC's delivery or reply) cover time that never
    /// happened that way. Cut them back to `now`, so what follows (the
    /// failover window, the replay, or the abort) charges on from `now`.
    pub fn retract(&mut self, slot: usize, request: u64, cursor: &mut SimTime, now: SimTime) {
        let Some(fold) = self.fold.as_mut().filter(|_| *cursor > now) else {
            return;
        };
        *cursor = now;
        fold.retract(request, now);
        if self.tracer.is_on() {
            self.tracer
                .retract_charges_after(self.trk_slots[slot], request, now);
        }
    }

    /// A blocked wait on `cond` released at `rel`: decompose the elapsed
    /// window into context-switch glitch time (`switching` is the bound
    /// device's switching signal), engine queue wait, and engine service
    /// using the completed-work window recorded for the condition, then
    /// drain any residue to `Other`.
    pub fn wait_released(
        &mut self,
        slot: usize,
        request: u64,
        cursor: &mut SimTime,
        cond: BlockOn,
        rel: SimTime,
        switching: Option<&UtilizationTracker>,
    ) {
        if self.fold.is_none() {
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
            self.charge(slot, request, cursor, Stage::Other, rel);
            return;
        };
        let start = *cursor;
        let s = win.first_start.clamp(start, rel);
        let f = win.last_finish.clamp(s, rel);
        // Driver context-switch time between the cursor and the work's
        // start is a switching glitch, not engine queueing.
        let sw = match switching {
            Some(sw) if s > start => sw.busy_ns(start, s),
            _ => 0,
        };
        let (wait_stage, svc_stage) = win.stages();
        self.charge(slot, request, cursor, Stage::CtxSwitch, (start + sw).min(s));
        self.charge(slot, request, cursor, wait_stage, s);
        self.charge(slot, request, cursor, svc_stage, f);
        self.charge(slot, request, cursor, Stage::Other, rel);
    }

    /// A synchronous copy will wait on job `jid`: keep its completed-work
    /// window for the wait to consume.
    pub fn job_awaited(&mut self, jid: JobId) {
        if self.fold.is_some() {
            self.attr_job.insert(jid, None);
        }
    }

    /// Record finished work for wait decomposition: the windows keyed by
    /// whatever condition a host might block on.
    pub fn job_done(&mut self, c: &CompletedJob) {
        if self.fold.is_none() {
            return;
        }
        if let Some(w) = self.attr_job.get_mut(&c.job.id) {
            w.get_or_insert(EngineWindow::EMPTY).merge(c);
        }
        let stream = (c.job.ctx, c.job.stream);
        self.attr_stream
            .entry(stream)
            .or_insert(EngineWindow::EMPTY)
            .merge(c);
        self.attr_ctx
            .entry(c.job.ctx)
            .or_insert(EngineWindow::EMPTY)
            .merge(c);
    }

    /// A wait on `cond` was abandoned: a job window exists only while its
    /// copy's wait is pending.
    pub fn wait_dropped(&mut self, cond: BlockOn) {
        if let BlockOn::Job(j) = cond {
            self.attr_job.remove(&j);
        }
    }

    /// Forget the window of an app's private stream when the app leaves
    /// it: nothing waits on that stream again (a re-bind gets a fresh
    /// one). Default streams are shared and keep theirs.
    pub fn stream_dropped(&mut self, ctx: ContextId, stream: StreamId) {
        if !stream.is_default() {
            self.attr_stream.remove(&(ctx, stream));
        }
    }

    /// Forget every window of a destroyed context: its id is never
    /// reused, so nothing can wait on it again.
    pub fn ctx_destroyed(&mut self, ctx: ContextId, stream: StreamId) {
        self.attr_ctx.remove(&ctx);
        self.attr_stream.remove(&(ctx, stream));
    }

    // ---- metrics ---------------------------------------------------------

    /// Push the current state of every layer into the metrics registry
    /// and capture one snapshot stamped `now`. `run` holds the values of
    /// [`RUN_FAMILIES`], in order.
    pub fn sample(
        &mut self,
        now: SimTime,
        run: [f64; RUN_FAMILIES.len()],
        gpus: &[Gpu],
        gpool: &ShardedGPool,
    ) {
        let Some(m) = self.metrics.as_mut() else {
            return;
        };
        let r = &mut m.registry;
        set_all(r, m.run, run);
        for (g, &ids) in gpus.iter().zip(&m.gpu) {
            let t = &g.device.telemetry;
            let values = [
                t.compute.level_at(now),
                t.copy.level_at(now),
                t.context_switches as f64,
                t.kernels_completed as f64,
                t.copies_completed as f64,
            ];
            set_all(r, ids, values);
        }
        for ((_, shard), &ids) in gpool.shards().zip(&m.node) {
            let (mut kernels, mut copies, mut occ) = (0u64, 0u64, 0.0f64);
            for e in shard.entries() {
                let t = &gpus[e.gid.index()].device.telemetry;
                kernels += t.kernels_completed;
                copies += t.copies_completed;
                occ += t.compute.level_at(now);
            }
            let values = [
                shard.live_len() as f64,
                kernels as f64,
                copies as f64,
                occ / shard.len().max(1) as f64,
            ];
            set_all(r, ids, values);
        }
        if let (Some(ids), Some(eng)) = (m.burn, self.alerts.as_ref()) {
            let (short, long) = eng.current_burns();
            set_all(r, ids, [short, long, eng.fired_total() as f64]);
        }
        r.snapshot(now);
    }

    // ---- end of run ------------------------------------------------------

    /// Close every sink at the end of the run and hand its output to
    /// `stats`: the burn-rate windows close now (trailing transitions
    /// and their dump triggers are not lost, and the final metrics sample
    /// exports the final burns), then the final sample, the alert report,
    /// the flight dumps, and the trace with its closing counters and the
    /// attribution ledger.
    pub fn finish<E>(
        &mut self,
        q: &EventQueue<E>,
        run: [f64; RUN_FAMILIES.len()],
        gpus: &[Gpu],
        gpool: &ShardedGPool,
        stats: &mut RunStats,
    ) {
        let now = q.now();
        stats.attr_windows =
            (self.attr_job.len() + self.attr_stream.len() + self.attr_ctx.len()) as u64;
        stats.explain_records = std::mem::take(&mut self.explain_records);
        if let Some(eng) = self.alerts.as_mut() {
            eng.finish(now);
            self.drain_alert_transitions(q);
        }
        self.sample(now, run, gpus, gpool);
        stats.metrics = self.metrics.take().map(|m| m.registry);
        stats.alerts = self.alerts.take().map(|eng| eng.report());
        if self.flight.is_on() {
            stats.flight_dumps = self.flight.take_dumps();
            if self.dump_final && stats.flight_dumps.is_empty() {
                // `--dump PATH` with a clean run: snapshot the tail window
                // so there is always something to write.
                let tail = self.flight.snapshot(DumpReason::Explicit, now);
                stats.flight_dumps.push(tail);
            }
            stats.flight_triggers = self.flight.trigger_counts();
            stats.flight_recorded = self.flight.recorded();
        }
        let Some(fold) = self.fold.take() else {
            return;
        };
        let (t, track) = (&self.tracer, self.trk_sim);
        if let Some(adm) = stats.admission {
            t.counter(track, now, "admitted", adm.admitted as f64);
            t.counter(track, now, "shed_queue_full", adm.shed_queue_full as f64);
            t.counter(
                track,
                now,
                "shed_rate_limited",
                adm.shed_rate_limited as f64,
            );
            // Only emitted when the SLO gate actually fired, so traces
            // from runs without an SLO config are byte-unchanged.
            if adm.shed_slo > 0 {
                t.counter(track, now, "shed_slo", adm.shed_slo as f64);
            }
        }
        t.counter(track, now, "clamped_schedules", stats.clamped_events as f64);
        t.counter(
            track,
            now,
            "cancelled_wakeups",
            stats.cancelled_wakeups as f64,
        );
        t.counter(track, now, "stale_pops", stats.stale_pops as f64);
        let mut trace = t.finish().unwrap_or_default();
        trace.ledger = Some(fold.finish());
        stats.trace = Some(trace);
    }
}
