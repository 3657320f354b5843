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
//! The simulation is single-threaded, so the shared buffer is an
//! `Rc<RefCell<..>>`, not a lock.

use crate::time::SimTime;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

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
    /// wall clock charged to `stage`. Semantically an
    /// [`TraceEvent::Instant`] named `"stage"` with `request`/`stage`/
    /// `from` args — exporters render it exactly that way — but stored
    /// without per-event allocations: attribution emits a charge per
    /// synchronization stage transition (hundreds of thousands per run),
    /// and the compact form is what keeps the recorder inside the bench
    /// suite's attribution overhead gate.
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

/// Consumer of a recorded trace: first told about every track (in
/// [`TrackId`] order), then fed events in recording order. Exporters
/// (JSONL, Chrome trace-event JSON) implement this; so does the
/// in-memory [`TraceBuffer`] the [`Tracer`] records into.
pub trait TraceSink {
    /// Announce a track. Called once per track, in id order, before any
    /// event referencing it.
    fn track(&mut self, id: TrackId, desc: &TrackDesc);
    /// Deliver one event.
    fn event(&mut self, ev: &TraceEvent);
}

/// The buffered recorder: accumulates tracks and events in memory until
/// the run finishes, then converts into an immutable [`Trace`].
#[derive(Debug, Default)]
pub struct TraceBuffer {
    tracks: Vec<TrackDesc>,
    events: Vec<TraceEvent>,
}

impl TraceSink for TraceBuffer {
    fn track(&mut self, id: TrackId, desc: &TrackDesc) {
        debug_assert_eq!(id.0 as usize, self.tracks.len());
        self.tracks.push(desc.clone());
    }

    fn event(&mut self, ev: &TraceEvent) {
        self.events.push(ev.clone());
    }
}

/// Cheap cloneable handle components emit through. Disabled by default
/// ([`Tracer::off`]); every clone of a [`Tracer::buffered`] handle
/// appends to the same underlying [`TraceBuffer`].
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<TraceBuffer>>>,
}

impl Tracer {
    /// A disabled tracer: every emission is a no-op, [`Tracer::track`]
    /// returns [`TrackId::INVALID`], [`Tracer::finish`] returns `None`.
    pub fn off() -> Self {
        Tracer { inner: None }
    }

    /// An enabled tracer recording into a fresh shared buffer.
    pub fn buffered() -> Self {
        Tracer {
            inner: Some(Rc::new(RefCell::new(TraceBuffer::default()))),
        }
    }

    /// True when events are being recorded. Emission sites check this
    /// before building names/args so a disabled run allocates nothing.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Register a track and return its id ([`TrackId::INVALID`] when
    /// disabled).
    pub fn track(&self, process: impl Into<String>, thread: impl Into<String>) -> TrackId {
        match &self.inner {
            None => TrackId::INVALID,
            Some(buf) => {
                let mut buf = buf.borrow_mut();
                let id = TrackId(buf.tracks.len() as u32);
                let desc = TrackDesc {
                    process: process.into(),
                    thread: thread.into(),
                };
                buf.track(id, &desc);
                id
            }
        }
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
        if let Some(buf) = &self.inner {
            // Push by value: routing through `TraceSink::event` would clone
            // the args (and their strings) a second time.
            buf.borrow_mut().events.push(TraceEvent::SpanBegin {
                track,
                at,
                name,
                id,
                args,
            });
        }
    }

    /// Close a span.
    #[inline]
    pub fn span_end(&self, track: TrackId, at: SimTime, name: &'static str, id: Option<u64>) {
        if let Some(buf) = &self.inner {
            buf.borrow_mut().events.push(TraceEvent::SpanEnd {
                track,
                at,
                name,
                id,
            });
        }
    }

    /// Record a point event.
    #[inline]
    pub fn instant(&self, track: TrackId, at: SimTime, name: &'static str, args: TraceArgs) {
        if let Some(buf) = &self.inner {
            buf.borrow_mut().events.push(TraceEvent::Instant {
                track,
                at,
                name,
                args,
            });
        }
    }

    /// Record an attribution stage charge (the allocation-free form of a
    /// `"stage"` instant; see [`TraceEvent::StageCharge`]).
    #[inline]
    pub fn stage_charge(
        &self,
        track: TrackId,
        at: SimTime,
        request: u64,
        stage: Stage,
        from: SimTime,
    ) {
        if let Some(buf) = &self.inner {
            buf.borrow_mut().events.push(TraceEvent::StageCharge {
                track,
                at,
                request,
                stage,
                from,
            });
        }
    }

    /// Cut `request`'s stage charges on `track` back to `to`: charges that
    /// end after `to` end there instead, and charges that start at or
    /// after it are dropped. An executive may charge a stage up to a known
    /// future instant (an RPC's delivery); when a failure overtakes that
    /// instant, the pre-charged tail never happened. Only the newest
    /// charges can run past `to`, so the scan walks back from the end and
    /// stops at the first charge of the request that ends by `to`.
    pub fn retract_charges_after(&self, track: TrackId, request: u64, to: SimTime) {
        let Some(buf) = &self.inner else {
            return;
        };
        let events = &mut buf.borrow_mut().events;
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
        if let Some(buf) = &self.inner {
            buf.borrow_mut().events.push(TraceEvent::Counter {
                track,
                at,
                name,
                value,
            });
        }
    }

    /// Take the recorded trace out of the shared buffer (leaving it
    /// empty). `None` when the tracer is disabled.
    pub fn finish(&self) -> Option<Trace> {
        let buf = self.inner.as_ref()?;
        let taken = buf.replace(TraceBuffer::default());
        Some(Trace {
            tracks: taken.tracks,
            events: taken.events,
        })
    }
}

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
}

impl Trace {
    /// Feed the whole recording to a sink: tracks first, then events.
    pub fn replay(&self, sink: &mut dyn TraceSink) {
        for (i, desc) in self.tracks.iter().enumerate() {
            sink.track(TrackId(i as u32), desc);
        }
        for ev in &self.events {
            sink.event(ev);
        }
    }

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
/// latency (asserted by `strings-metrics::attribution` when it
/// reconstructs breakdowns from a trace).
///
/// Stages are emitted as [`TraceEvent::StageCharge`] events on the
/// request's slot track (exporters render them as `"stage"` instants with
/// `request`, `stage` and `from` args): the event's timestamp is the
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

    /// Inverse of [`Stage::as_str`]; `None` for unknown names.
    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.as_str() == s)
    }

    /// Dense index into [`Stage::ALL`] (and per-request stage arrays).
    pub fn index(self) -> usize {
        Stage::ALL.iter().position(|&s| s == self).expect("in ALL")
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
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
    fn replay_preserves_order() {
        #[derive(Default)]
        struct Collect {
            tracks: usize,
            at: Vec<SimTime>,
        }
        impl TraceSink for Collect {
            fn track(&mut self, _id: TrackId, _d: &TrackDesc) {
                self.tracks += 1;
            }
            fn event(&mut self, ev: &TraceEvent) {
                self.at.push(ev.at());
            }
        }
        let t = Tracer::buffered();
        let a = t.track("p", "a");
        let b = t.track("p", "b");
        t.instant(a, 3, "x", vec![]);
        t.counter(b, 7, "c", 1.5);
        let trace = t.finish().unwrap();
        let mut c = Collect::default();
        trace.replay(&mut c);
        assert_eq!(c.tracks, 2);
        assert_eq!(c.at, vec![3, 7]);
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
            assert_eq!(Stage::parse(s.as_str()), Some(s));
            assert_eq!(s.to_string(), s.as_str());
        }
        assert_eq!(Stage::parse("bogus"), None);
    }

    #[test]
    fn merge_intervals_coalesces_overlaps() {
        let m = merge_intervals(vec![(5, 10), (0, 3), (9, 12), (12, 13), (20, 20)]);
        assert_eq!(m, vec![(0, 3), (5, 13)]);
    }
}
