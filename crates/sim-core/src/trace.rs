//! Structured tracing in virtual time.
//!
//! The simulator optionally records what happened — not just aggregate
//! telemetry — as a stream of *trace events* stamped with [`SimTime`]:
//!
//! * **spans** (begin/end pairs) for work that occupies an engine or a
//!   logical slot over an interval: a kernel resident on the compute
//!   engine, a DMA transfer on a copy-engine lane, a context switch, a
//!   request from arrival to completion,
//! * **instants** for point decisions: a scheduler epoch publishing its
//!   awake set, the affinity mapper placing a context,
//! * **counters** for numeric signals sampled over time.
//!
//! Events live on *tracks*. A track is a `(process, thread)` name pair
//! mirroring the Chrome trace-event model, so a recorded [`Trace`]
//! exports directly to Perfetto with one row per engine / scheduler /
//! request slot (see `strings-metrics::trace_export`).
//!
//! Spans come in two flavours, chosen by the `id` field:
//!
//! * `id: None` — a *sync* span. Begins and ends nest LIFO on their
//!   track, like a call stack. Used where the track serializes work
//!   (one transfer at a time per copy lane, one context switch at a
//!   time per device).
//! * `id: Some(n)` — an *async* span. Begin and end are matched by
//!   `(name, id)`, so spans on the same track may overlap freely. Used
//!   for processor-shared kernels on a compute engine and for
//!   concurrently outstanding requests.
//!
//! Tracing is **off by default** and the hot path pays nothing for it:
//! a disabled [`Tracer`] is a `None` and every emission site guards
//! with [`Tracer::is_on`] before building names or argument strings.
//! The simulation is single-threaded, so the shared recording is an
//! `Rc<RefCell<..>>`, not a lock. An enabled tracer records every event
//! and nothing else.
//!
//! Latency attribution ([`Stage`] charges) is folded by whoever watches
//! the run, not by the tracer: a [`StageFold`] keeps a short charge list
//! per request still in flight and turns it into one
//! [`RequestAttribution`] row when the request closes. The executive's
//! observers own the fold and attach its rows to the finished
//! [`Trace::ledger`]; a traced run also records each charge as a
//! [`TraceEvent::StageCharge`], so full traces export every charge.

use crate::fxhash::FxHashMap;
use crate::time::SimTime;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Key/value annotations attached to an event. Keys are static strings
/// (emission sites use literals); values are rendered at emission time,
/// which only happens when tracing is enabled.
pub type TraceArgs = Vec<(&'static str, String)>;

/// Identifies one track (one row in the viewer). Allocated by
/// [`Tracer::track`]; dense indices into [`Trace::tracks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrackId(pub u32);

impl TrackId {
    /// Placeholder for components constructed before tracing is wired
    /// up (or when tracing is disabled). Never appears in a [`Trace`].
    pub const INVALID: TrackId = TrackId(u32::MAX);
}

/// Names one track: `process` groups related tracks (one device, the
/// request population), `thread` is the row label within the group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackDesc {
    /// Group name, e.g. `"GID0"` for a device's engines.
    pub process: String,
    /// Row name within the group, e.g. `"compute"` or `"copy1"`.
    pub thread: String,
}

/// One recorded trace event. All variants carry the owning track and a
/// virtual-time stamp in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Opens a span. See the module docs for sync (`id: None`) versus
    /// async (`id: Some`) matching semantics.
    SpanBegin {
        /// Owning track.
        track: TrackId,
        /// Virtual time the span opened.
        at: SimTime,
        /// Span name; async ends match on `(name, id)`.
        name: &'static str,
        /// `None` for LIFO-nested sync spans, `Some` for overlappable
        /// async spans.
        id: Option<u64>,
        /// Annotations (rendered only when tracing is on).
        args: TraceArgs,
    },
    /// Closes the matching [`TraceEvent::SpanBegin`].
    SpanEnd {
        /// Owning track.
        track: TrackId,
        /// Virtual time the span closed.
        at: SimTime,
        /// Must equal the begin's name.
        name: &'static str,
        /// Must equal the begin's id.
        id: Option<u64>,
    },
    /// A point event with no duration.
    Instant {
        /// Owning track.
        track: TrackId,
        /// Virtual time of the event.
        at: SimTime,
        /// Event name.
        name: &'static str,
        /// Annotations.
        args: TraceArgs,
    },
    /// A sample of a numeric time series.
    Counter {
        /// Owning track.
        track: TrackId,
        /// Virtual time of the sample.
        at: SimTime,
        /// Series name.
        name: &'static str,
        /// Sampled value.
        value: f64,
    },
    /// A latency-attribution charge: `[from, at)` of request `request`'s
    /// wall clock charged to `stage`. Exporters render it as an instant
    /// named `"stage"` with `request`/`stage`/`from` args; in memory this
    /// is a charge's only form, with no per-event allocation (a traced
    /// run records one per synchronization stage transition, hundreds of
    /// thousands per run).
    StageCharge {
        /// Owning track (the request's slot track).
        track: TrackId,
        /// Exclusive end of the charged window.
        at: SimTime,
        /// Request index (matches the async `"request"` span id).
        request: u64,
        /// Stage the window is charged to.
        stage: Stage,
        /// Inclusive start of the charged window.
        from: SimTime,
    },
}

impl TraceEvent {
    /// The track this event belongs to.
    pub fn track(&self) -> TrackId {
        match self {
            TraceEvent::SpanBegin { track, .. }
            | TraceEvent::SpanEnd { track, .. }
            | TraceEvent::Instant { track, .. }
            | TraceEvent::Counter { track, .. }
            | TraceEvent::StageCharge { track, .. } => *track,
        }
    }

    /// The event's virtual-time stamp.
    pub fn at(&self) -> SimTime {
        match self {
            TraceEvent::SpanBegin { at, .. }
            | TraceEvent::SpanEnd { at, .. }
            | TraceEvent::Instant { at, .. }
            | TraceEvent::Counter { at, .. }
            | TraceEvent::StageCharge { at, .. } => *at,
        }
    }
}

/// What an enabled [`Tracer`] shares between its clones: the track table
/// and the events recorded so far.
#[derive(Debug, Default)]
struct Recording {
    tracks: Vec<TrackDesc>,
    events: Vec<TraceEvent>,
}

/// Cheap cloneable handle components emit through. Disabled by default
/// ([`Tracer::off`]); every clone of an enabled handle appends to the
/// same recording.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<Recording>>>,
}

impl Tracer {
    /// A disabled tracer: every emission is a no-op, [`Tracer::track`]
    /// returns [`TrackId::INVALID`], [`Tracer::finish`] returns `None`.
    pub fn off() -> Self {
        Tracer { inner: None }
    }

    /// An enabled tracer recording every event into a fresh shared
    /// recording.
    pub fn buffered() -> Self {
        Tracer {
            inner: Some(Rc::default()),
        }
    }

    /// True when the tracer records. Emission sites check this before
    /// building names or args, so a disabled run allocates none.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Append `ev` when the tracer records.
    #[inline]
    fn push(&self, ev: TraceEvent) {
        if let Some(rec) = &self.inner {
            rec.borrow_mut().events.push(ev);
        }
    }

    /// Register a track and return its id ([`TrackId::INVALID`] when
    /// disabled).
    pub fn track(&self, process: impl Into<String>, thread: impl Into<String>) -> TrackId {
        let Some(rec) = &self.inner else {
            return TrackId::INVALID;
        };
        let tracks = &mut rec.borrow_mut().tracks;
        tracks.push(TrackDesc {
            process: process.into(),
            thread: thread.into(),
        });
        TrackId(tracks.len() as u32 - 1)
    }

    /// Open a span (see module docs for sync/async `id` semantics).
    #[inline]
    pub fn span_begin(
        &self,
        track: TrackId,
        at: SimTime,
        name: &'static str,
        id: Option<u64>,
        args: TraceArgs,
    ) {
        self.push(TraceEvent::SpanBegin {
            track,
            at,
            name,
            id,
            args,
        });
    }

    /// Close a span.
    #[inline]
    pub fn span_end(&self, track: TrackId, at: SimTime, name: &'static str, id: Option<u64>) {
        self.push(TraceEvent::SpanEnd {
            track,
            at,
            name,
            id,
        });
    }

    /// Record a point event.
    #[inline]
    pub fn instant(&self, track: TrackId, at: SimTime, name: &'static str, args: TraceArgs) {
        self.push(TraceEvent::Instant {
            track,
            at,
            name,
            args,
        });
    }

    /// Record the charge of `[from, at)` of request `request` to `stage`
    /// as a [`TraceEvent::StageCharge`].
    #[inline]
    pub fn stage_charge(
        &self,
        track: TrackId,
        at: SimTime,
        request: u64,
        stage: Stage,
        from: SimTime,
    ) {
        self.push(TraceEvent::StageCharge {
            track,
            at,
            request,
            stage,
            from,
        });
    }

    /// Cut `request`'s recorded stage charges on `track` back to `to`:
    /// charges that end after `to` end there instead, and charges that
    /// start at or after it are dropped. An executive may charge a stage
    /// up to a known future instant (an RPC's delivery); when a failure
    /// overtakes that instant, the pre-charged tail never happened. Only
    /// the newest charges can run past `to`, so the scan walks back from
    /// the end and stops at the first charge of the request that ends by
    /// `to`.
    pub fn retract_charges_after(&self, track: TrackId, request: u64, to: SimTime) {
        let Some(rec) = &self.inner else {
            return;
        };
        let events = &mut rec.borrow_mut().events;
        for i in (0..events.len()).rev() {
            let TraceEvent::StageCharge {
                track: t,
                at,
                request: r,
                from,
                ..
            } = &mut events[i]
            else {
                continue;
            };
            if *t != track || *r != request {
                continue;
            }
            if *at <= to {
                break;
            }
            if *from < to {
                *at = to;
                break;
            }
            events.remove(i);
        }
    }

    /// Record a counter sample.
    #[inline]
    pub fn counter(&self, track: TrackId, at: SimTime, name: &'static str, value: f64) {
        self.push(TraceEvent::Counter {
            track,
            at,
            name,
            value,
        });
    }

    /// Take the recorded trace out of the shared recording (leaving it
    /// empty). The trace carries no ledger. `None` when the tracer is
    /// disabled.
    pub fn finish(&self) -> Option<Trace> {
        let rec = std::mem::take(&mut *self.inner.as_ref()?.borrow_mut());
        Some(Trace {
            tracks: rec.tracks,
            events: rec.events,
            ledger: None,
        })
    }
}

/// Name of the async span a request lives in, from arrival to
/// completion, on its `"requests"`-process slot track.
pub const REQUEST_SPAN: &str = "request";

/// A finished recording: the track table plus events in emission order.
/// Event timestamps are globally *near*-sorted (components append as the
/// clock advances) but only guaranteed non-decreasing per component;
/// consumers must not assume a total order.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Track table; `tracks[id.0]` names track `id`.
    pub tracks: Vec<TrackDesc>,
    /// Recorded events.
    pub events: Vec<TraceEvent>,
    /// Per-request attribution rows folded while the run went (`None`
    /// when nothing folded them: a [`Tracer`] only records, and the
    /// run's observers attach the ledger they folded). The row vector
    /// holds no spare capacity.
    pub ledger: Option<StageLedger>,
}

impl Trace {
    /// Track description lookup.
    pub fn desc(&self, id: TrackId) -> &TrackDesc {
        &self.tracks[id.0 as usize]
    }

    /// Ids of all tracks matching a predicate on their description.
    pub fn find_tracks(&self, mut pred: impl FnMut(&TrackDesc) -> bool) -> Vec<TrackId> {
        self.tracks
            .iter()
            .enumerate()
            .filter(|(_, d)| pred(d))
            .map(|(i, _)| TrackId(i as u32))
            .collect()
    }

    /// Largest timestamp in the recording (0 for an empty trace).
    pub fn end_time(&self) -> SimTime {
        self.events.iter().map(TraceEvent::at).max().unwrap_or(0)
    }

    /// Closed `[begin, end)` intervals of every span on `track`, in no
    /// particular order. Sync spans pair LIFO; async spans pair on
    /// `(name, id)`. Unmatched begins/ends are skipped (see
    /// [`Trace::unclosed_spans`]).
    pub fn span_intervals(&self, track: TrackId) -> Vec<(SimTime, SimTime)> {
        self.collect_spans(track).0
    }

    /// Number of `SpanBegin`s on `track` that never saw a matching end —
    /// zero on any run that drained to quiescence.
    pub fn unclosed_spans(&self, track: TrackId) -> usize {
        self.collect_spans(track).1
    }

    fn collect_spans(&self, track: TrackId) -> (Vec<(SimTime, SimTime)>, usize) {
        let mut closed = Vec::new();
        let mut sync_stack: Vec<SimTime> = Vec::new();
        let mut open_async: HashMap<(&'static str, u64), SimTime> = HashMap::new();
        for ev in &self.events {
            if ev.track() != track {
                continue;
            }
            match ev {
                TraceEvent::SpanBegin { at, id: None, .. } => sync_stack.push(*at),
                TraceEvent::SpanEnd { at, id: None, .. } => {
                    if let Some(begin) = sync_stack.pop() {
                        closed.push((begin, *at));
                    }
                }
                TraceEvent::SpanBegin {
                    at,
                    name,
                    id: Some(id),
                    ..
                } => {
                    open_async.insert((name, *id), *at);
                }
                TraceEvent::SpanEnd {
                    at,
                    name,
                    id: Some(id),
                    ..
                } => {
                    if let Some(begin) = open_async.remove(&(*name, *id)) {
                        closed.push((begin, *at));
                    }
                }
                _ => {}
            }
        }
        (closed, sync_stack.len() + open_async.len())
    }
}

/// One stage of a request's critical path, as charged by the executive's
/// latency attribution. Every nanosecond between a request's arrival and
/// its completion is charged to exactly one stage, so per-request stage
/// totals are additive by construction: they sum to the end-to-end
/// latency (checked by [`StageFold`] when it closes a request).
///
/// Charges are folded by a [`StageFold`]. A full trace also records them
/// ([`Tracer::stage_charge`]) as [`TraceEvent::StageCharge`] events on
/// the request's slot track (exporters render them as `"stage"` instants
/// with `request`, `stage` and `from` args): the event's timestamp is the
/// charge's exclusive end, `from` its inclusive start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Waiting in the admission queue / arrival backlog before the host
    /// thread dispatches.
    AdmissionWait,
    /// Host-side CPU work between accelerator calls (includes interposer
    /// bind/handshake costs).
    HostCpu,
    /// Remoting round trip: marshalling, channel transfer, backend
    /// dispatch and the reply leg.
    Rpc,
    /// Context-switch "glitch" time the device spent switching while this
    /// request's work waited.
    CtxSwitch,
    /// Host-to-device transfer queued behind other copies.
    H2dWait,
    /// Host-to-device transfer occupying a copy lane.
    H2dXfer,
    /// Kernel queued behind other work on the compute engine.
    ComputeWait,
    /// Kernel resident on the compute engine.
    ComputeService,
    /// Device-to-host transfer queued behind other copies.
    D2hWait,
    /// Device-to-host transfer occupying a copy lane.
    D2hXfer,
    /// Residual not attributable to a specific resource (e.g. waiting for
    /// a sibling stream's work the request did not itself submit).
    Other,
}

impl Stage {
    /// Every stage, in the canonical breakdown/report order.
    pub const ALL: [Stage; 11] = [
        Stage::AdmissionWait,
        Stage::HostCpu,
        Stage::Rpc,
        Stage::CtxSwitch,
        Stage::H2dWait,
        Stage::H2dXfer,
        Stage::ComputeWait,
        Stage::ComputeService,
        Stage::D2hWait,
        Stage::D2hXfer,
        Stage::Other,
    ];

    /// Stable snake_case name used in trace args, report columns and
    /// OpenMetrics labels.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::AdmissionWait => "admission_wait",
            Stage::HostCpu => "host_cpu",
            Stage::Rpc => "rpc",
            Stage::CtxSwitch => "ctx_switch",
            Stage::H2dWait => "h2d_wait",
            Stage::H2dXfer => "h2d_xfer",
            Stage::ComputeWait => "compute_wait",
            Stage::ComputeService => "compute_service",
            Stage::D2hWait => "d2h_wait",
            Stage::D2hXfer => "d2h_xfer",
            Stage::Other => "other",
        }
    }

    /// Dense index into [`Stage::ALL`] (and per-request stage arrays).
    /// [`Stage::ALL`] lists the stages in declaration order.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Number of stages in the canonical breakdown.
pub const N_STAGES: usize = Stage::ALL.len();

/// One request's folded critical path: a row of the stage ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestAttribution {
    /// Stable request id (the executive's app index).
    pub request: u64,
    /// Owning tenant.
    pub tenant: u32,
    /// Workload class label (e.g. `"W0"`), shared by every row of the
    /// class.
    pub class: Arc<str>,
    /// Arrival time (request span begin).
    pub arrival: SimTime,
    /// Completion time (request span end).
    pub end: SimTime,
    /// Nanoseconds charged to each stage, indexed by [`Stage::index`].
    pub stage_ns: [u64; N_STAGES],
    /// True when the charges tile `[arrival, end)` exactly — gapless,
    /// non-overlapping, additive. Aborted/failed-over requests whose
    /// pre-charged stages outlive the abort are flagged false and
    /// excluded from aggregates.
    pub consistent: bool,
}

impl RequestAttribution {
    /// End-to-end latency in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.end - self.arrival
    }

    /// Nanoseconds charged to one stage.
    pub fn stage(&self, s: Stage) -> u64 {
        self.stage_ns[s.index()]
    }

    /// Time spent waiting for a resource rather than using one:
    /// admission queueing plus engine queue-wait on both copy directions
    /// and compute.
    pub fn queue_wait_ns(&self) -> u64 {
        self.stage(Stage::AdmissionWait)
            + self.stage(Stage::H2dWait)
            + self.stage(Stage::ComputeWait)
            + self.stage(Stage::D2hWait)
    }

    /// The stage with the largest charge (ties resolve to the earlier
    /// stage in [`Stage::ALL`] order).
    pub fn dominant_stage(&self) -> Stage {
        let mut best = Stage::ALL[0];
        let mut best_ns = self.stage_ns[0];
        for s in Stage::ALL {
            if self.stage_ns[s.index()] > best_ns {
                best = s;
                best_ns = self.stage_ns[s.index()];
            }
        }
        best
    }
}

/// The folded attribution of one run: what a [`StageFold`] hands over
/// when the run ends.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageLedger {
    /// One row per closed request, sorted by request id. A request id
    /// closed twice keeps its latest row.
    pub requests: Vec<RequestAttribution>,
    /// Closes whose charges failed the additivity check (every close
    /// counts, including one whose row a later close of the same id
    /// replaced).
    pub inconsistent: u64,
    /// Requests still open when the fold finished.
    pub unfinished: u64,
}

/// One charge `[from, to)` of an open request.
type Charge = (SimTime, SimTime, Stage);

/// A request between open and close.
#[derive(Debug)]
struct OpenRequest {
    tenant: u32,
    class: Arc<str>,
    arrival: SimTime,
    /// Charges in emission order.
    charges: Vec<Charge>,
}

/// Folds stage charges into per-request rows as they are made. It keeps a
/// charge list only for requests still open; closing a request turns its
/// list into one [`RequestAttribution`] row, so the fold's size follows
/// the requests in flight plus one row per finished request. Rows share
/// their class label, and a caller that knows how many requests can
/// close sizes the rows once ([`StageFold::reserve`]).
///
/// The four operations mirror a request's life: [`StageFold::open`] at
/// arrival, [`StageFold::charge`] per stage transition,
/// [`StageFold::retract`] when a failure overtakes pre-charged time, and
/// [`StageFold::close`] at completion or abort. Charges to a request that
/// is not open count for nothing, and re-opening an open id starts it
/// over.
#[derive(Debug, Default)]
pub struct StageFold {
    open: FxHashMap<u64, OpenRequest>,
    rows: Vec<RequestAttribution>,
    inconsistent: u64,
    /// Emptied charge lists of closed requests, reused by the next opens.
    spare: Vec<Vec<Charge>>,
    /// Every class label seen, shared by the rows of the class.
    classes: Vec<Arc<str>>,
}

impl StageFold {
    /// Make room for `rows` closed requests, so a fold that knows how
    /// many requests can close grows its ledger once.
    pub fn reserve(&mut self, rows: usize) {
        self.rows.reserve(rows);
    }

    /// Open `request` of `class`, arrived at `arrival`. Requests of one
    /// class share one copy of its label.
    pub fn open(&mut self, request: u64, tenant: u32, class: &str, arrival: SimTime) {
        let charges = self.spare.pop().unwrap_or_default();
        let class = match self.classes.iter().find(|c| ***c == *class) {
            Some(c) => c.clone(),
            None => {
                self.classes.push(class.into());
                self.classes[self.classes.len() - 1].clone()
            }
        };
        let req = OpenRequest {
            tenant,
            class,
            arrival,
            charges,
        };
        if let Some(old) = self.open.insert(request, req) {
            self.recycle(old.charges);
        }
    }

    /// Charge `[from, to)` of `request` to `stage`.
    #[inline]
    pub fn charge(&mut self, request: u64, stage: Stage, from: SimTime, to: SimTime) {
        if let Some(req) = self.open.get_mut(&request) {
            req.charges.push((from, to, stage));
        }
    }

    /// Cut `request`'s charges back to `to`: the newest charges that end
    /// after `to` end there instead, or go when they start at or after
    /// it.
    pub fn retract(&mut self, request: u64, to: SimTime) {
        let Some(req) = self.open.get_mut(&request) else {
            return;
        };
        while let Some(last) = req.charges.last_mut() {
            if last.1 <= to {
                break;
            }
            if last.0 < to {
                last.1 = to;
                break;
            }
            req.charges.pop();
        }
    }

    /// Close `request` at `end` and fold its charges into its row.
    pub fn close(&mut self, request: u64, end: SimTime) {
        let Some(mut req) = self.open.remove(&request) else {
            return;
        };
        let row = finish_request(request, &mut req, end);
        if !row.consistent {
            self.inconsistent += 1;
        }
        self.rows.push(row);
        self.recycle(req.charges);
    }

    fn recycle(&mut self, mut charges: Vec<Charge>) {
        charges.clear();
        self.spare.push(charges);
    }

    /// The ledger: rows sorted by request id (a repeated id keeps its
    /// latest row), with the requests still open counted as unfinished.
    pub fn finish(self) -> StageLedger {
        let mut rows = self.rows;
        // Sort a permutation of 4-byte indices, latest close first among
        // equal ids, and apply it in place: a stable sort of the rows
        // would take a scratch buffer as large as the ledger.
        let mut order: Vec<u32> = (0..rows.len() as u32).collect();
        order.sort_unstable_by_key(|&i| (rows[i as usize].request, Reverse(i)));
        permute_in_place(&mut rows, &mut order);
        rows.dedup_by_key(|r| r.request);
        rows.shrink_to_fit();
        StageLedger {
            requests: rows,
            inconsistent: self.inconsistent,
            unfinished: self.open.len() as u64,
        }
    }
}

/// Reorder `v` so that `v[i]` becomes the old `v[order[i]]`, by swaps
/// along the permutation's cycles; `order` is left as the identity.
fn permute_in_place<T>(v: &mut [T], order: &mut [u32]) {
    for start in 0..v.len() {
        let mut i = start;
        loop {
            let next = order[i] as usize;
            order[i] = i as u32;
            if next == start {
                break;
            }
            v.swap(i, next);
            i = next;
        }
    }
}

/// Close one request: order its charges, fill the residual up to `end`
/// and verify additivity.
fn finish_request(request: u64, req: &mut OpenRequest, end: SimTime) -> RequestAttribution {
    let mut stage_ns = [0u64; N_STAGES];
    req.charges.sort_by_key(|&(from, to, _)| (from, to));
    let mut cursor = req.arrival;
    let mut consistent = end >= req.arrival;
    for &(from, to, stage) in &req.charges {
        // Writer-side charging is contiguous by construction; anything
        // else (a gap, an overlap, a charge past the end) marks the
        // request inconsistent rather than silently mis-summing.
        if from != cursor || to < from || to > end {
            consistent = false;
            break;
        }
        stage_ns[stage.index()] += to - from;
        cursor = to;
    }
    if consistent {
        // Residual up to completion is real time the request spent not
        // attributable to a finer stage.
        stage_ns[Stage::Other.index()] += end - cursor;
        debug_assert_eq!(
            stage_ns.iter().sum::<u64>(),
            end - req.arrival,
            "stage charges must sum to end-to-end latency"
        );
    } else {
        stage_ns = [0; N_STAGES];
    }
    RequestAttribution {
        request,
        tenant: req.tenant,
        class: req.class.clone(),
        arrival: req.arrival,
        end,
        stage_ns,
        consistent,
    }
}

/// Merge a set of `[start, end)` intervals into disjoint sorted ones.
fn merge_intervals(mut iv: Vec<(SimTime, SimTime)>) -> Vec<(SimTime, SimTime)> {
    iv.retain(|(s, e)| e > s);
    iv.sort_unstable();
    let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match merged.last_mut() {
            Some((_, le)) if s <= *le => *le = (*le).max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// Count maximal intervals of at least `min_gap_ns` within `[from, to)`
/// during which **no** span on any of `tracks` is open — the trace-derived
/// equivalent of [`crate::telemetry::combined_idle_gaps`] (the paper's
/// Figure 2 "glitches" when applied to a device's engine tracks).
pub fn combined_idle_gaps(
    trace: &Trace,
    tracks: &[TrackId],
    from: SimTime,
    to: SimTime,
    min_gap_ns: u64,
) -> usize {
    if to <= from {
        return 0;
    }
    let busy = merge_intervals(
        tracks
            .iter()
            .flat_map(|&t| trace.span_intervals(t))
            .map(|(s, e)| (s.max(from), e.min(to)))
            .collect(),
    );
    let mut gaps = 0;
    let mut cursor = from;
    for (s, e) in busy {
        if s > cursor && s - cursor >= min_gap_ns {
            gaps += 1;
        }
        cursor = cursor.max(e);
    }
    if to > cursor && to - cursor >= min_gap_ns {
        gaps += 1;
    }
    gaps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_free_and_silent() {
        let t = Tracer::off();
        assert!(!t.is_on());
        let trk = t.track("p", "t");
        assert_eq!(trk, TrackId::INVALID);
        t.span_begin(trk, 0, "x", None, vec![]);
        t.span_end(trk, 5, "x", None);
        t.instant(trk, 5, "i", vec![]);
        t.counter(trk, 5, "c", 1.0);
        assert!(t.finish().is_none());
    }

    #[test]
    fn clones_share_one_buffer() {
        let t = Tracer::buffered();
        let t2 = t.clone();
        let trk = t.track("dev", "compute");
        t.span_begin(trk, 10, "kernel", Some(1), vec![("app", "A0".into())]);
        t2.span_end(trk, 30, "kernel", Some(1));
        let trace = t.finish().unwrap();
        assert_eq!(trace.tracks.len(), 1);
        assert_eq!(trace.desc(trk).process, "dev");
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.end_time(), 30);
        // finish() drains the buffer.
        assert_eq!(t2.finish().unwrap().events.len(), 0);
    }

    #[test]
    fn retracted_charges_end_at_the_cut() {
        let t = Tracer::buffered();
        let trk = t.track("requests", "slot0");
        t.stage_charge(trk, 10, 7, Stage::HostCpu, 0);
        t.stage_charge(trk, 50, 7, Stage::Rpc, 10);
        t.stage_charge(trk, 60, 8, Stage::Rpc, 0); // another request
        t.stage_charge(trk, 90, 7, Stage::Rpc, 50);
        t.retract_charges_after(trk, 7, 30);
        let charges: Vec<_> = t
            .finish()
            .unwrap()
            .events
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::StageCharge {
                    at, request, from, ..
                } => Some((request, from, at)),
                _ => None,
            })
            .collect();
        // Request 7's [10, 50) is cut to [10, 30) and its [50, 90) is
        // dropped; request 8 and everything before the cut are untouched.
        assert_eq!(charges, vec![(7, 0, 10), (7, 10, 30), (8, 0, 60)]);
    }

    /// One request's charges as `(from, to, stage)`: the last pre-charges
    /// an RPC up to 90, and a failure at 30 overtakes it.
    const PRECHARGED: [Charge; 3] = [
        (0, 10, Stage::HostCpu),
        (10, 50, Stage::Rpc),
        (50, 90, Stage::Rpc),
    ];

    #[test]
    fn fold_cuts_retracted_charges_into_one_row() {
        let mut f = StageFold::default();
        f.open(7, 3, "W1", 0);
        for (from, to, stage) in PRECHARGED {
            f.charge(7, stage, from, to);
        }
        f.retract(7, 30);
        f.charge(7, Stage::Other, 30, 40);
        f.close(7, 45);
        let mut stage_ns = [0; N_STAGES];
        stage_ns[Stage::HostCpu.index()] = 10;
        stage_ns[Stage::Rpc.index()] = 20;
        stage_ns[Stage::Other.index()] = 15; // 10 charged + 5 residual
        let expect = RequestAttribution {
            request: 7,
            tenant: 3,
            class: "W1".into(),
            arrival: 0,
            end: 45,
            stage_ns,
            consistent: true,
        };
        let ledger = f.finish();
        assert_eq!(ledger.requests, vec![expect]);
        assert_eq!((ledger.inconsistent, ledger.unfinished), (0, 0));
    }

    #[test]
    fn recording_tracer_keeps_the_surviving_charges() {
        let t = Tracer::buffered();
        let trk = t.track("requests", "slot0");
        t.span_begin(trk, 0, REQUEST_SPAN, Some(7), vec![]);
        for (from, to, stage) in PRECHARGED {
            t.stage_charge(trk, to, 7, stage, from);
        }
        t.retract_charges_after(trk, 7, 30);
        t.stage_charge(trk, 40, 7, Stage::Other, 30);
        t.span_end(trk, 45, REQUEST_SPAN, Some(7));
        let trace = t.finish().unwrap();
        let charges: Vec<Charge> = trace
            .events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::StageCharge {
                    at, stage, from, ..
                } => Some((from, at, stage)),
                _ => None,
            })
            .collect();
        let expect = [
            (0, 10, Stage::HostCpu),
            (10, 30, Stage::Rpc),
            (30, 40, Stage::Other),
        ];
        assert_eq!(charges, expect, "the three surviving charges");
        assert!(trace.ledger.is_none(), "a tracer only records");
    }

    #[test]
    fn fold_counts_only_charges_inside_a_span_and_keeps_the_latest_row() {
        let mut f = StageFold::default();
        f.charge(1, Stage::Rpc, 0, 5); // before the open: ignored
        f.open(1, 0, "W0", 0);
        f.charge(1, Stage::Rpc, 0, 5);
        f.close(1, 5);
        f.charge(1, Stage::Rpc, 5, 9); // after the close: ignored
        f.open(4, 0, "W0", 0);
        f.charge(4, Stage::Rpc, 0, 20); // past the end: inconsistent
        f.close(4, 10);
        f.open(4, 1, "W2", 10); // the id closes again, consistently
        f.close(4, 12);
        f.open(2, 0, "W0", 3); // still open at the end
        let ledger = f.finish();
        let rows: Vec<_> = ledger
            .requests
            .iter()
            .map(|r| (r.request, r.tenant, r.consistent, r.total_ns()))
            .collect();
        assert_eq!(rows, vec![(1, 0, true, 5), (4, 1, true, 2)]);
        assert_eq!(ledger.requests[0].stage(Stage::Rpc), 5);
        assert_eq!(ledger.inconsistent, 1, "the replaced row still counts");
        assert_eq!(ledger.unfinished, 1);
    }

    #[test]
    fn permute_in_place_follows_every_cycle() {
        // Cycles (0 3 1), (2) and (4 5).
        let mut v = vec!['a', 'b', 'c', 'd', 'e', 'f'];
        let mut order = vec![3, 0, 2, 1, 5, 4];
        permute_in_place(&mut v, &mut order);
        assert_eq!(v, vec!['d', 'a', 'c', 'b', 'f', 'e']);
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn sync_spans_nest_lifo() {
        let t = Tracer::buffered();
        let trk = t.track("p", "t");
        t.span_begin(trk, 0, "outer", None, vec![]);
        t.span_begin(trk, 5, "inner", None, vec![]);
        t.span_end(trk, 8, "inner", None);
        t.span_end(trk, 20, "outer", None);
        let trace = t.finish().unwrap();
        let mut iv = trace.span_intervals(trk);
        iv.sort_unstable();
        assert_eq!(iv, vec![(0, 20), (5, 8)]);
        assert_eq!(trace.unclosed_spans(trk), 0);
    }

    #[test]
    fn async_spans_overlap_and_match_by_id() {
        let t = Tracer::buffered();
        let trk = t.track("p", "t");
        t.span_begin(trk, 0, "k", Some(1), vec![]);
        t.span_begin(trk, 5, "k", Some(2), vec![]);
        t.span_end(trk, 12, "k", Some(1));
        t.span_end(trk, 20, "k", Some(2));
        t.span_begin(trk, 30, "k", Some(3), vec![]); // left open
        let trace = t.finish().unwrap();
        let mut iv = trace.span_intervals(trk);
        iv.sort_unstable();
        assert_eq!(iv, vec![(0, 12), (5, 20)]);
        assert_eq!(trace.unclosed_spans(trk), 1);
    }

    #[test]
    fn idle_gaps_from_spans_match_interval_math() {
        let t = Tracer::buffered();
        let a = t.track("dev", "compute");
        let b = t.track("dev", "copy0");
        // a busy [10,20), b busy [15,30): device idle [0,10) and [30,40).
        t.span_begin(a, 10, "k", Some(1), vec![]);
        t.span_begin(b, 15, "h2d", None, vec![]);
        t.span_end(a, 20, "k", Some(1));
        t.span_end(b, 30, "h2d", None);
        let trace = t.finish().unwrap();
        let both = [a, b];
        assert_eq!(combined_idle_gaps(&trace, &both, 0, 40, 10), 2);
        assert_eq!(combined_idle_gaps(&trace, &both, 0, 40, 11), 0);
        assert_eq!(combined_idle_gaps(&trace, &[a], 0, 40, 10), 2);
        // Empty track set: the whole window is one gap.
        assert_eq!(combined_idle_gaps(&trace, &[], 0, 40, 40), 1);
        assert_eq!(combined_idle_gaps(&trace, &both, 5, 5, 1), 0);
    }

    #[test]
    fn stage_names_round_trip_and_index_is_dense() {
        for (i, s) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(s.index(), i);
            assert_eq!(s.to_string(), s.as_str());
        }
        // Each name names one stage.
        let names: std::collections::HashSet<_> = Stage::ALL.map(Stage::as_str).into();
        assert_eq!(names.len(), N_STAGES);
    }

    #[test]
    fn merge_intervals_coalesces_overlaps() {
        let m = merge_intervals(vec![(5, 10), (0, 3), (9, 12), (12, 13), (20, 20)]);
        assert_eq!(m, vec![(0, 3), (5, 13)]);
    }
}
