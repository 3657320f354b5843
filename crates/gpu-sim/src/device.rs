//! The GPU device: context arbitration, stream ordering, engine dispatch.
//!
//! A [`Device`] glues the compute engine, the copy engines, and the driver's
//! context multiplexer together:
//!
//! * work is submitted to `(context, stream)` pairs; **stream FIFO order**
//!   is preserved — a job starts only when it is at the head of its stream
//!   and its predecessor completed (CUDA stream semantics),
//! * only one **context** is resident at a time; the driver activates the
//!   next ready context round-robin, pays [`DeviceConfig::context_switch_ns`]
//!   per change, and (when several contexts have work) drains and switches
//!   after [`DeviceConfig::driver_quantum_ns`] of continuous residency —
//!   kernels are never preempted mid-flight, matching Fermi,
//! * streams may be **gated** ([`Device::set_stream_gate`]): a gated
//!   stream's head job is withheld from the engines. This is the hardware-
//!   facing half of Strings' RT-signal sleep/wake mechanism, used by the
//!   TFS/LAS/PS device-level policies.
//!
//! The device is passive: the simulation executive calls [`Device::step`]
//! after any mutation or elapsed event, harvests completions
//! ([`Device::take_completions_into`] on the hot path,
//! [`Device::drain_completions`] for convenience), and reschedules using
//! [`Device::next_event_time`]. Wakeup staleness is handled by the event
//! queue's keyed-cancellation API ([`sim_core::EventQueue::invalidate`]):
//! every mutation listed above supersedes previously scheduled wakeups.

use crate::compute::{ComputeEngine, RunningKernel};
use crate::copy::CopyEngine;
use crate::ids::{ContextId, DeviceId, IdAllocator, JobId, StreamId};
use crate::job::{CopyDirection, Job, JobKind};
use crate::spec::DeviceSpec;
use crate::telemetry::DeviceTelemetry;
use crate::vecmap::SortedVecMap;
use serde::{Deserialize, Serialize};
use sim_core::trace::{Tracer, TrackId};
use sim_core::SimTime;
use std::collections::VecDeque;

/// Driver/device timing parameters (the calibration knobs of DESIGN.md §8).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Cost of switching the resident GPU context (the Figure 2 "glitch").
    pub context_switch_ns: u64,
    /// Maximum continuous residency when other contexts have pending work;
    /// after this the driver drains and switches. 0 disables time-slicing
    /// (run-to-idle).
    pub driver_quantum_ns: u64,
    /// Fixed DMA setup latency added to every copy.
    pub copy_setup_ns: u64,
    /// Fixed launch overhead added to every kernel's solo duration.
    pub kernel_launch_ns: u64,
    /// Virtual-memory support (the Becchi et al. / Gdev extension the
    /// paper's related work discusses): allocations beyond device memory
    /// succeed, but kernels pay a thrashing slowdown proportional to the
    /// oversubscription ratio while memory is overcommitted.
    pub vmem: bool,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            context_switch_ns: 8_000_000,  // 8 ms (the Figure 2 "glitches")
            driver_quantum_ns: 20_000_000, // 20 ms
            copy_setup_ns: 10_000,         // 10 us
            kernel_launch_ns: 5_000,       // 5 us
            vmem: false,
        }
    }
}

/// A finished unit of work, reported to the runtime layer.
#[derive(Debug, Clone)]
pub struct CompletedJob {
    /// The job as submitted, with its submit time.
    pub job: Job,
    /// When an engine began executing it.
    pub started_at: SimTime,
    /// When it finished.
    pub finished_at: SimTime,
}

impl CompletedJob {
    /// Engine-occupancy time: the attained service of this job.
    pub fn service_ns(&self) -> u64 {
        self.finished_at - self.started_at
    }

    /// Time spent waiting in stream/context queues before starting.
    pub fn queue_ns(&self) -> u64 {
        self.started_at - self.job.submitted_at
    }
}

/// Device-side errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// Allocation exceeded device memory.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes still available.
        available: u64,
    },
    /// Operation referenced a context unknown to this device.
    UnknownContext(ContextId),
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "out of device memory: requested {requested}, available {available}"
            ),
            DeviceError::UnknownContext(c) => write!(f, "unknown context {c}"),
        }
    }
}

impl std::error::Error for DeviceError {}

#[derive(Debug, Default)]
struct StreamState {
    queue: VecDeque<Job>,
    inflight: Option<JobId>,
    gated: bool,
}

#[derive(Debug, Default)]
struct CtxState {
    streams: SortedVecMap<StreamId, StreamState>,
    inflight_jobs: usize,
    mem_allocated: u64,
}

impl CtxState {
    fn has_ready(&self) -> bool {
        self.streams
            .values()
            .any(|s| !s.gated && s.inflight.is_none() && !s.queue.is_empty())
    }

    fn has_any_work(&self) -> bool {
        self.inflight_jobs > 0 || self.streams.values().any(|s| !s.queue.is_empty())
    }

    fn pending(&self) -> usize {
        self.inflight_jobs + self.streams.values().map(|s| s.queue.len()).sum::<usize>()
    }
}

/// One simulated GPU. What it holds follows its live work: each job
/// carries its own submit time ([`Job::submitted_at`]) from the stream
/// queue through the engines to its [`CompletedJob`], so nothing is kept
/// per job once it completes or is cancelled.
#[derive(Debug)]
pub struct Device {
    /// Device identity within its node.
    pub id: DeviceId,
    spec: DeviceSpec,
    cfg: DeviceConfig,
    contexts: SortedVecMap<ContextId, CtxState>,
    active: Option<ContextId>,
    /// In-progress context switch: (target, completes_at).
    switch: Option<(ContextId, SimTime)>,
    active_since: SimTime,
    draining: bool,
    rr_last: Option<ContextId>,
    compute: ComputeEngine,
    copies: Vec<CopyEngine>,
    completed: Vec<CompletedJob>,
    /// Reusable buffer for harvesting finished kernels (no per-event Vec).
    kernel_buf: Vec<RunningKernel>,
    job_ids: IdAllocator,
    /// Utilization signals and counters.
    pub telemetry: DeviceTelemetry,
    /// Optional structured tracing (off by default, see [`Device::set_tracer`]).
    tracer: Tracer,
    trk_compute: TrackId,
    trk_copies: Vec<TrackId>,
    trk_driver: TrackId,
}

impl Device {
    /// New device with the given spec and driver configuration.
    pub fn new(id: DeviceId, spec: DeviceSpec, cfg: DeviceConfig) -> Self {
        let compute = ComputeEngine::new(spec.mem_bw_mbps, spec.max_concurrent_kernels as usize);
        let copies = CopyEngine::engines_for(spec.copy_engines);
        Device {
            id,
            spec,
            cfg,
            contexts: SortedVecMap::new(),
            active: None,
            switch: None,
            active_since: 0,
            draining: false,
            rr_last: None,
            compute,
            copies,
            completed: Vec::new(),
            kernel_buf: Vec::new(),
            job_ids: IdAllocator::new(),
            telemetry: DeviceTelemetry::default(),
            tracer: Tracer::off(),
            trk_compute: TrackId::INVALID,
            trk_copies: Vec::new(),
            trk_driver: TrackId::INVALID,
        }
    }

    /// Attach a tracer; engine occupancy, context switches and a pending-
    /// jobs counter are recorded on tracks under the `process` group
    /// (`compute`, `copyN`, `driver`). With a disabled tracer this device
    /// emits nothing and pays one branch per potential event.
    pub fn set_tracer(&mut self, tracer: Tracer, process: &str) {
        self.trk_compute = tracer.track(process, "compute");
        self.trk_copies = (0..self.copies.len())
            .map(|i| tracer.track(process, format!("copy{i}")))
            .collect();
        self.trk_driver = tracer.track(process, "driver");
        self.tracer = tracer;
    }

    /// Partition the job-id space: this device will allocate JobIds from
    /// `base` upwards. Call before any submission; used by multi-device
    /// executives whose job trackers are keyed globally by JobId.
    pub fn set_job_id_base(&mut self, base: u32) {
        self.job_ids = IdAllocator::starting_at(base);
    }

    /// Static device capabilities.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Driver configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Register a context (idempotent).
    pub fn create_context(&mut self, ctx: ContextId) {
        self.contexts.get_or_insert_default(ctx);
    }

    /// Remove a context; any queued work is dropped (callers only destroy
    /// drained contexts).
    pub fn destroy_context(&mut self, ctx: ContextId) {
        self.contexts.remove(ctx);
        if self.active == Some(ctx) {
            self.active = None;
        }
    }

    /// Allocate device memory in `ctx`. With [`DeviceConfig::vmem`] the
    /// allocation always succeeds (pages spill to host memory) and kernels
    /// pay the thrashing penalty while overcommitted.
    pub fn alloc(&mut self, ctx: ContextId, bytes: u64) -> Result<(), DeviceError> {
        let total: u64 = self.contexts.values().map(|c| c.mem_allocated).sum();
        let available = self.spec.mem_bytes.saturating_sub(total);
        if bytes > available && !self.cfg.vmem {
            if !self.contexts.contains_key(ctx) {
                return Err(DeviceError::UnknownContext(ctx));
            }
            return Err(DeviceError::OutOfMemory {
                requested: bytes,
                available,
            });
        }
        let state = self
            .contexts
            .get_mut(ctx)
            .ok_or(DeviceError::UnknownContext(ctx))?;
        state.mem_allocated += bytes;
        Ok(())
    }

    /// Memory oversubscription ratio (≥ 1.0; 1.0 when everything fits).
    pub fn overcommit(&self) -> f64 {
        let total: u64 = self.contexts.values().map(|c| c.mem_allocated).sum();
        (total as f64 / self.spec.mem_bytes as f64).max(1.0)
    }

    /// Release device memory in `ctx`.
    pub fn free(&mut self, ctx: ContextId, bytes: u64) {
        if let Some(state) = self.contexts.get_mut(ctx) {
            state.mem_allocated = state.mem_allocated.saturating_sub(bytes);
        }
    }

    /// Bytes currently allocated across all contexts.
    pub fn mem_in_use(&self) -> u64 {
        self.contexts.values().map(|c| c.mem_allocated).sum()
    }

    /// Submit one unit of work to `(ctx, stream)` at time `now`. The job is
    /// queued; call [`Device::step`] afterwards to let it start.
    pub fn submit(
        &mut self,
        ctx: ContextId,
        stream: StreamId,
        kind: JobKind,
        tag: u64,
        now: SimTime,
    ) -> Result<JobId, DeviceError> {
        if !self.contexts.contains_key(ctx) {
            return Err(DeviceError::UnknownContext(ctx));
        }
        let id: JobId = self.job_ids.alloc();
        let job = Job {
            id,
            ctx,
            stream,
            kind,
            tag,
            submitted_at: now,
        };
        let state = self.contexts.get_mut(ctx).expect("checked above");
        state
            .streams
            .get_or_insert_default(stream)
            .queue
            .push_back(job);
        Ok(id)
    }

    /// Pause (`gated = true`) or resume a stream. Running jobs continue;
    /// only new dispatches are withheld.
    pub fn set_stream_gate(&mut self, ctx: ContextId, stream: StreamId, gated: bool) {
        if let Some(state) = self.contexts.get_mut(ctx) {
            state.streams.get_or_insert_default(stream).gated = gated;
        }
    }

    /// The kind of the next dispatchable job on `(ctx, stream)`, if any and
    /// not yet running (used by the PS policy to classify stream phases).
    pub fn stream_head_kind(&self, ctx: ContextId, stream: StreamId) -> Option<JobKind> {
        let ss = self.contexts.get(ctx)?.streams.get(stream)?;
        if ss.inflight.is_some() {
            return None;
        }
        ss.queue.front().map(|q| q.kind)
    }

    /// True if `(ctx, stream)` has a job running on an engine.
    pub fn stream_busy(&self, ctx: ContextId, stream: StreamId) -> bool {
        self.contexts
            .get(ctx)
            .and_then(|c| c.streams.get(stream))
            .is_some_and(|s| s.inflight.is_some())
    }

    /// True if `(ctx, stream)` has queued or running work.
    pub fn stream_has_work(&self, ctx: ContextId, stream: StreamId) -> bool {
        self.contexts
            .get(ctx)
            .and_then(|c| c.streams.get(stream))
            .is_some_and(|s| s.inflight.is_some() || !s.queue.is_empty())
    }

    /// Queued + running jobs in one context.
    pub fn pending_jobs(&self, ctx: ContextId) -> usize {
        self.contexts.get(ctx).map_or(0, |c| c.pending())
    }

    /// Queued + running jobs across all contexts.
    pub fn total_pending(&self) -> usize {
        self.contexts.values().map(|c| c.pending()).sum()
    }

    /// True if nothing is queued, running, or switching.
    pub fn is_idle(&self) -> bool {
        self.switch.is_none() && self.total_pending() == 0
    }

    /// Drop `(ctx, stream)`'s row from the context's stream table once its
    /// owner is gone, so per-step stream walks stay proportional to live
    /// streams. A stream still holding queued or running work keeps its
    /// row (that work must complete), and the default stream is never
    /// dropped. Returns true if the row was removed.
    pub fn drop_stream(&mut self, ctx: ContextId, stream: StreamId) -> bool {
        if stream.is_default() || self.stream_has_work(ctx, stream) {
            return false;
        }
        self.contexts
            .get_mut(ctx)
            .is_some_and(|c| c.streams.remove(stream).is_some())
    }

    /// Stream-table rows across all contexts.
    pub fn stream_rows(&self) -> usize {
        self.contexts.values().map(|c| c.streams.len()).sum()
    }

    /// Drop every *queued* (not yet running) job of `(ctx, stream)` —
    /// backend-fault cleanup. In-flight engine work drains normally.
    /// Returns the cancelled job ids so callers can clear their trackers.
    pub fn cancel_stream(&mut self, ctx: ContextId, stream: StreamId) -> Vec<JobId> {
        let Some(c) = self.contexts.get_mut(ctx) else {
            return Vec::new();
        };
        let Some(ss) = c.streams.get_mut(stream) else {
            return Vec::new();
        };
        ss.queue.drain(..).map(|j| j.id).collect()
    }

    /// Take all completions harvested so far.
    pub fn drain_completions(&mut self) -> Vec<CompletedJob> {
        std::mem::take(&mut self.completed)
    }

    /// Move all harvested completions into `out` (cleared first), swapping
    /// buffers so both sides recycle capacity — the allocation-free
    /// equivalent of [`Device::drain_completions`] for hot executives.
    pub fn take_completions_into(&mut self, out: &mut Vec<CompletedJob>) {
        out.clear();
        std::mem::swap(&mut self.completed, out);
    }

    /// Advance device state to `now`: harvest finished work, progress any
    /// context switch, and dispatch newly ready jobs. Completions accumulate
    /// until [`Device::drain_completions`].
    pub fn step(&mut self, now: SimTime) {
        self.harvest(now);
        // Complete an in-progress context switch.
        if let Some((target, at)) = self.switch {
            if at <= now {
                self.switch = None;
                self.active = Some(target);
                self.active_since = now;
                self.draining = false;
                self.telemetry.mark_switching(now, false);
                self.tracer
                    .span_end(self.trk_driver, now, "context_switch", None);
            }
        }
        if self.switch.is_none() {
            self.arbitrate(now);
            if !self.draining {
                if let Some(a) = self.active {
                    self.start_ready(a, now);
                }
            }
        }
        self.sample_telemetry(now);
    }

    /// Earliest future time at which device state changes on its own:
    /// a kernel or copy completes, a context switch lands, or the driver
    /// quantum expires. `None` when fully quiescent.
    pub fn next_event_time(&self, now: SimTime) -> Option<SimTime> {
        let mut t = self.compute.next_completion(now);
        for e in &self.copies {
            t = min_opt(t, e.next_completion());
        }
        if let Some((_, at)) = self.switch {
            t = min_opt(t, Some(at));
        }
        // Quantum expiry matters only when someone else is waiting.
        if !self.draining && self.switch.is_none() && self.cfg.driver_quantum_ns > 0 {
            if let Some(a) = self.active {
                let others_waiting = self.contexts.iter().any(|(id, c)| id != a && c.has_ready());
                let active_working = self.contexts.get(a).is_some_and(|c| c.has_any_work());
                if others_waiting && active_working {
                    let expiry = self.active_since + self.cfg.driver_quantum_ns;
                    t = min_opt(t, Some(expiry.max(now)));
                }
            }
        }
        t
    }

    // ---- internals -----------------------------------------------------

    fn harvest(&mut self, now: SimTime) {
        let mut finished = std::mem::take(&mut self.kernel_buf);
        self.compute.advance_into(now, &mut finished);
        for k in finished.drain(..) {
            self.telemetry.kernels_completed += 1;
            self.tracer
                .span_end(self.trk_compute, now, "kernel", Some(k.job.id.0 as u64));
            let started = k.started_at;
            self.finish_job(k.job, started, now);
        }
        self.kernel_buf = finished;
        for i in 0..self.copies.len() {
            if let Some(c) = self.copies[i].advance(now) {
                self.telemetry.copies_completed += 1;
                if let JobKind::Copy { dir, bytes, .. } = c.job.kind {
                    match dir {
                        CopyDirection::HostToDevice => self.telemetry.h2d_bytes += bytes,
                        CopyDirection::DeviceToHost => self.telemetry.d2h_bytes += bytes,
                    }
                    if self.tracer.is_on() {
                        self.tracer
                            .span_end(self.trk_copies[i], now, copy_span_name(dir), None);
                    }
                }
                self.finish_job(c.job, c.started_at, now);
            }
        }
    }

    fn finish_job(&mut self, job: Job, started_at: SimTime, now: SimTime) {
        let ctx = self
            .contexts
            .get_mut(job.ctx)
            .expect("completion for destroyed context");
        let ss = ctx
            .streams
            .get_mut(job.stream)
            .expect("completion for unknown stream");
        debug_assert_eq!(ss.inflight, Some(job.id));
        ss.inflight = None;
        ctx.inflight_jobs -= 1;
        self.completed.push(CompletedJob {
            job,
            started_at,
            finished_at: now,
        });
    }

    /// Round-robin pick of the next context (other than `except`) with
    /// dispatchable work.
    fn pick_next(&mut self, except: Option<ContextId>) -> Option<ContextId> {
        // Candidates iterate in ascending id order; the pick is the first
        // one after `rr_last`, wrapping to the smallest candidate.
        let mut first: Option<ContextId> = None;
        let mut next_after_last: Option<ContextId> = None;
        for (id, c) in self.contexts.iter() {
            if Some(id) == except || !c.has_ready() {
                continue;
            }
            if first.is_none() {
                first = Some(id);
                if self.rr_last.is_none() {
                    break; // no rotation point: smallest candidate wins
                }
            }
            if self.rr_last.is_some_and(|last| id > last) {
                next_after_last = Some(id);
                break;
            }
        }
        let pick = next_after_last.or(first)?;
        self.rr_last = Some(pick);
        Some(pick)
    }

    fn begin_switch(&mut self, target: ContextId, now: SimTime) {
        if self.active == Some(target) {
            self.draining = false;
            self.active_since = now;
            return;
        }
        let from_running = self.active.is_some();
        self.active = None;
        self.draining = false;
        if from_running && self.cfg.context_switch_ns > 0 {
            self.switch = Some((target, now + self.cfg.context_switch_ns));
            self.telemetry.mark_switching(now, true);
            self.telemetry.switch_ns += self.cfg.context_switch_ns;
            if self.tracer.is_on() {
                self.tracer.span_begin(
                    self.trk_driver,
                    now,
                    "context_switch",
                    None,
                    vec![("to", target.to_string())],
                );
            }
        } else {
            // First activation (or free switches) binds immediately.
            self.active = Some(target);
            self.active_since = now;
        }
    }

    fn arbitrate(&mut self, now: SimTime) {
        let Some(a) = self.active else {
            if let Some(next) = self.pick_next(None) {
                self.begin_switch(next, now);
            }
            return;
        };
        let (inflight, a_ready, a_work) = {
            let c = self.contexts.get(a).expect("active ctx exists");
            (c.inflight_jobs, c.has_ready(), c.has_any_work())
        };
        if self.draining {
            if inflight == 0 {
                match self.pick_next(Some(a)) {
                    Some(next) => self.begin_switch(next, now),
                    None => {
                        // Nobody else ready any more: keep residency.
                        self.draining = false;
                        self.active_since = now;
                    }
                }
            }
            return;
        }
        if !a_ready && inflight == 0 {
            // Active context idle (possibly gated or empty): hand over.
            if let Some(next) = self.pick_next(Some(a)) {
                self.begin_switch(next, now);
            }
            return;
        }
        // Quantum-based time slicing among competing contexts.
        if self.cfg.driver_quantum_ns > 0
            && a_work
            && now.saturating_sub(self.active_since) >= self.cfg.driver_quantum_ns
        {
            let others_ready = self.contexts.iter().any(|(id, c)| id != a && c.has_ready());
            if others_ready {
                self.draining = true;
                if inflight == 0 {
                    if let Some(next) = self.pick_next(Some(a)) {
                        self.begin_switch(next, now);
                    }
                }
            }
        }
    }

    fn start_ready(&mut self, a: ContextId, now: SimTime) {
        let ref_bw = DeviceSpec::reference().mem_bw_mbps;
        let thrash_factor = if self.cfg.vmem {
            self.overcommit()
        } else {
            1.0
        };
        let Some(ctx) = self.contexts.get_mut(a) else {
            return;
        };
        for ss in ctx.streams.values_mut() {
            if ss.gated || ss.inflight.is_some() {
                continue;
            }
            let Some(head) = ss.queue.front() else {
                continue;
            };
            match head.kind {
                JobKind::Kernel(p) => {
                    if !self.compute.can_admit(p.occupancy) {
                        continue;
                    }
                    let job = ss.queue.pop_front().expect("head exists");
                    // Roofline scaling of the reference work onto this device,
                    // plus vmem thrashing while memory is overcommitted.
                    let m_ref = p.mem_intensity(ref_bw);
                    let solo =
                        (p.work_ref_ns as f64 * self.spec.solo_time_scale(m_ref) * thrash_factor)
                            .round() as u64
                            + self.cfg.kernel_launch_ns;
                    ss.inflight = Some(job.id);
                    ctx.inflight_jobs += 1;
                    if self.tracer.is_on() {
                        // Async span: processor sharing overlaps kernels on
                        // the one compute track, matched by job id.
                        self.tracer.span_begin(
                            self.trk_compute,
                            now,
                            "kernel",
                            Some(job.id.0 as u64),
                            vec![
                                ("ctx", job.ctx.to_string()),
                                ("stream", job.stream.to_string()),
                                ("request", job.tag.to_string()),
                                ("solo_ns", solo.to_string()),
                            ],
                        );
                    }
                    self.compute.start(job, solo, now);
                }
                JobKind::Copy { dir, bytes, pinned } => {
                    let Some(lane) =
                        (0..self.copies.len()).find(|&i| self.copies[i].can_start(dir))
                    else {
                        continue;
                    };
                    let job = ss.queue.pop_front().expect("head exists");
                    let duration =
                        self.cfg.copy_setup_ns + self.spec.pcie_transfer_ns(bytes, pinned);
                    ss.inflight = Some(job.id);
                    ctx.inflight_jobs += 1;
                    if self.tracer.is_on() {
                        // Sync span: a copy lane moves one transfer at a time.
                        self.tracer.span_begin(
                            self.trk_copies[lane],
                            now,
                            copy_span_name(dir),
                            None,
                            vec![
                                ("ctx", job.ctx.to_string()),
                                ("stream", job.stream.to_string()),
                                ("request", job.tag.to_string()),
                                ("bytes", bytes.to_string()),
                            ],
                        );
                    }
                    self.copies[lane].start(job, duration, now);
                }
            }
        }
    }

    fn sample_telemetry(&mut self, now: SimTime) {
        let busy_copies = self.copies.iter().filter(|e| !e.is_idle()).count();
        let copy_frac = busy_copies as f64 / self.copies.len() as f64;
        self.telemetry.sample(
            now,
            self.compute.occupancy(),
            self.compute.bandwidth_use(),
            copy_frac,
        );
        if self.tracer.is_on() {
            self.tracer.counter(
                self.trk_driver,
                now,
                "pending_jobs",
                self.total_pending() as f64,
            );
            self.tracer
                .counter(self.trk_driver, now, "occupancy", self.compute.occupancy());
        }
    }
}

fn copy_span_name(dir: CopyDirection) -> &'static str {
    match dir {
        CopyDirection::HostToDevice => "h2d",
        CopyDirection::DeviceToHost => "d2h",
    }
}

fn min_opt(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::KernelProfile;
    use crate::spec::GpuModel;

    fn dev() -> Device {
        Device::new(
            DeviceId(0),
            GpuModel::TeslaC2050.spec(),
            DeviceConfig {
                context_switch_ns: 1_000_000,
                driver_quantum_ns: 20_000_000,
                copy_setup_ns: 0,
                kernel_launch_ns: 0,
                vmem: false,
            },
        )
    }

    fn kernel(ns: u64) -> JobKind {
        JobKind::Kernel(KernelProfile {
            work_ref_ns: ns,
            occupancy: 0.5,
            bw_demand_mbps: 1000.0,
        })
    }

    fn h2d(bytes: u64) -> JobKind {
        JobKind::Copy {
            dir: CopyDirection::HostToDevice,
            bytes,
            pinned: true,
        }
    }

    fn d2h(bytes: u64) -> JobKind {
        JobKind::Copy {
            dir: CopyDirection::DeviceToHost,
            bytes,
            pinned: true,
        }
    }

    /// Run the device to quiescence, returning completions with times.
    fn run_to_idle(dev: &mut Device, mut now: SimTime) -> (SimTime, Vec<CompletedJob>) {
        let mut all = Vec::new();
        dev.step(now);
        all.extend(dev.drain_completions());
        let mut guard = 0;
        while let Some(t) = dev.next_event_time(now) {
            assert!(t >= now);
            now = t;
            dev.step(now);
            all.extend(dev.drain_completions());
            guard += 1;
            assert!(guard < 100_000, "device did not quiesce");
            if dev.is_idle() {
                break;
            }
        }
        (now, all)
    }

    #[test]
    fn single_kernel_executes() {
        let mut d = dev();
        d.create_context(ContextId(0));
        d.submit(ContextId(0), StreamId(1), kernel(1_000_000), 7, 0)
            .unwrap();
        let (end, done) = run_to_idle(&mut d, 0);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].job.tag, 7);
        assert_eq!(done[0].started_at, 0);
        assert_eq!(end, 1_000_000);
        assert_eq!(d.telemetry.kernels_completed, 1);
    }

    #[test]
    fn stream_fifo_order_is_respected() {
        let mut d = dev();
        d.create_context(ContextId(0));
        // Same stream: copy then kernel; kernel must wait for the copy.
        d.submit(ContextId(0), StreamId(1), h2d(6_000_000), 1, 0)
            .unwrap(); // 1 ms at 6 GB/s
        d.submit(ContextId(0), StreamId(1), kernel(1_000_000), 2, 0)
            .unwrap();
        let (_, done) = run_to_idle(&mut d, 0);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].job.tag, 1);
        assert_eq!(done[1].job.tag, 2);
        assert_eq!(done[1].started_at, done[0].finished_at);
    }

    #[test]
    fn different_streams_overlap_compute_and_copy() {
        let mut d = dev();
        d.create_context(ContextId(0));
        // Stream 1 runs a kernel, stream 2 a copy: both start at t=0.
        d.submit(ContextId(0), StreamId(1), kernel(1_000_000), 1, 0)
            .unwrap();
        d.submit(ContextId(0), StreamId(2), h2d(6_000_000), 2, 0)
            .unwrap();
        let (end, done) = run_to_idle(&mut d, 0);
        assert_eq!(done.len(), 2);
        assert!(done.iter().all(|c| c.started_at == 0), "must overlap");
        assert_eq!(end, 1_000_000); // both take 1ms and overlap fully
    }

    #[test]
    fn dual_copy_engines_overlap_both_directions() {
        let mut d = dev(); // C2050 has 2 copy engines
        d.create_context(ContextId(0));
        d.submit(ContextId(0), StreamId(1), h2d(6_000_000), 1, 0)
            .unwrap();
        d.submit(ContextId(0), StreamId(2), d2h(6_000_000), 2, 0)
            .unwrap();
        let (end, done) = run_to_idle(&mut d, 0);
        assert_eq!(done.len(), 2);
        assert_eq!(end, 1_000_000, "H2D and D2H should run concurrently");
    }

    #[test]
    fn single_copy_engine_serializes_directions() {
        let mut d = Device::new(
            DeviceId(0),
            GpuModel::Quadro2000.spec(), // one copy engine, 4 GB/s
            DeviceConfig {
                context_switch_ns: 0,
                driver_quantum_ns: 0,
                copy_setup_ns: 0,
                kernel_launch_ns: 0,
                vmem: false,
            },
        );
        d.create_context(ContextId(0));
        d.submit(ContextId(0), StreamId(1), h2d(4_000_000), 1, 0)
            .unwrap();
        d.submit(ContextId(0), StreamId(2), d2h(4_000_000), 2, 0)
            .unwrap();
        let (end, done) = run_to_idle(&mut d, 0);
        assert_eq!(done.len(), 2);
        assert_eq!(end, 2_000_000, "copies must serialize on one engine");
    }

    #[test]
    fn contexts_serialize_with_switch_cost() {
        let mut d = dev();
        d.create_context(ContextId(0));
        d.create_context(ContextId(1));
        d.submit(ContextId(0), StreamId(1), kernel(1_000_000), 1, 0)
            .unwrap();
        d.submit(ContextId(1), StreamId(1), kernel(1_000_000), 2, 0)
            .unwrap();
        let (end, done) = run_to_idle(&mut d, 0);
        assert_eq!(done.len(), 2);
        // ctx0 kernel [0,1ms); switch 1ms; ctx1 kernel [2ms,3ms).
        assert_eq!(end, 3_000_000);
        assert_eq!(d.telemetry.context_switches, 1);
        // Jobs never overlapped.
        assert!(done[1].started_at >= done[0].finished_at);
    }

    #[test]
    fn same_context_needs_no_switch() {
        let mut d = dev();
        d.create_context(ContextId(0));
        d.submit(ContextId(0), StreamId(1), kernel(1_000_000), 1, 0)
            .unwrap();
        d.submit(ContextId(0), StreamId(2), kernel(1_000_000), 2, 0)
            .unwrap();
        let (end, _) = run_to_idle(&mut d, 0);
        // occupancy 0.5 + 0.5 = 1.0: fully concurrent, no switch.
        assert_eq!(end, 1_000_000);
        assert_eq!(d.telemetry.context_switches, 0);
    }

    #[test]
    fn driver_quantum_preempts_long_queue() {
        let mut d = Device::new(
            DeviceId(0),
            GpuModel::TeslaC2050.spec(),
            DeviceConfig {
                context_switch_ns: 500_000,
                driver_quantum_ns: 2_000_000, // 2 ms quantum
                copy_setup_ns: 0,
                kernel_launch_ns: 0,
                vmem: false,
            },
        );
        d.create_context(ContextId(0));
        d.create_context(ContextId(1));
        // ctx0 has 10 short kernels queued on one stream; ctx1 has one.
        for i in 0..10 {
            d.submit(ContextId(0), StreamId(1), kernel(1_000_000), i, 0)
                .unwrap();
        }
        d.submit(ContextId(1), StreamId(1), kernel(1_000_000), 99, 0)
            .unwrap();
        let (_, done) = run_to_idle(&mut d, 0);
        assert_eq!(done.len(), 11);
        // ctx1's kernel must not be starved until all ten of ctx0 are done:
        let pos = done.iter().position(|c| c.job.tag == 99).unwrap();
        assert!(pos < 10, "quantum should let ctx1 in early (pos={pos})");
        assert!(d.telemetry.context_switches >= 2);
    }

    #[test]
    fn gated_stream_is_withheld_until_released() {
        let mut d = dev();
        d.create_context(ContextId(0));
        d.set_stream_gate(ContextId(0), StreamId(1), true);
        d.submit(ContextId(0), StreamId(1), kernel(1_000_000), 1, 0)
            .unwrap();
        d.step(0);
        assert_eq!(d.next_event_time(0), None, "gated work must not run");
        assert!(d.stream_has_work(ContextId(0), StreamId(1)));
        // Release at t=5ms.
        d.set_stream_gate(ContextId(0), StreamId(1), false);
        d.step(5_000_000);
        let (end, done) = run_to_idle(&mut d, 5_000_000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].started_at, 5_000_000);
        assert_eq!(end, 6_000_000);
    }

    #[test]
    fn stream_head_kind_reports_phase() {
        let mut d = dev();
        d.create_context(ContextId(0));
        d.submit(ContextId(0), StreamId(3), h2d(1024), 1, 0)
            .unwrap();
        match d.stream_head_kind(ContextId(0), StreamId(3)) {
            Some(JobKind::Copy { dir, .. }) => assert_eq!(dir, CopyDirection::HostToDevice),
            other => panic!("unexpected head: {other:?}"),
        }
        assert!(!d.stream_busy(ContextId(0), StreamId(3)));
    }

    #[test]
    fn memory_accounting() {
        let mut d = dev(); // 3 GiB
        d.create_context(ContextId(0));
        d.alloc(ContextId(0), 2 << 30).unwrap();
        assert_eq!(d.mem_in_use(), 2 << 30);
        let err = d.alloc(ContextId(0), 2 << 30).unwrap_err();
        assert!(matches!(err, DeviceError::OutOfMemory { .. }));
        d.free(ContextId(0), 1 << 30);
        d.alloc(ContextId(0), 2 << 30).unwrap();
        assert_eq!(d.mem_in_use(), 3 << 30);
    }

    #[test]
    fn vmem_oversubscription_succeeds_with_thrashing() {
        let mut cfg = DeviceConfig {
            context_switch_ns: 0,
            driver_quantum_ns: 0,
            copy_setup_ns: 0,
            kernel_launch_ns: 0,
            vmem: true,
        };
        let mut d = Device::new(DeviceId(0), GpuModel::TeslaC2050.spec(), cfg);
        d.create_context(ContextId(0));
        // 6 GiB on a 3 GiB card: succeeds under vmem, 2× overcommit.
        d.alloc(ContextId(0), 6 << 30).unwrap();
        assert!((d.overcommit() - 2.0).abs() < 1e-9);
        d.submit(ContextId(0), StreamId(1), kernel(1_000_000), 1, 0)
            .unwrap();
        let (end, done) = run_to_idle(&mut d, 0);
        assert_eq!(done.len(), 1);
        // The kernel pays the 2× thrashing penalty.
        assert_eq!(end, 2_000_000);

        // Same allocation without vmem fails.
        cfg.vmem = false;
        let mut d2 = Device::new(DeviceId(0), GpuModel::TeslaC2050.spec(), cfg);
        d2.create_context(ContextId(0));
        assert!(matches!(
            d2.alloc(ContextId(0), 6 << 30),
            Err(DeviceError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn vmem_thrashing_clears_after_free() {
        let cfg = DeviceConfig {
            context_switch_ns: 0,
            driver_quantum_ns: 0,
            copy_setup_ns: 0,
            kernel_launch_ns: 0,
            vmem: true,
        };
        let mut d = Device::new(DeviceId(0), GpuModel::TeslaC2050.spec(), cfg);
        d.create_context(ContextId(0));
        d.alloc(ContextId(0), 6 << 30).unwrap();
        d.free(ContextId(0), 5 << 30);
        assert_eq!(d.overcommit(), 1.0, "back within capacity");
        d.submit(ContextId(0), StreamId(1), kernel(1_000_000), 1, 0)
            .unwrap();
        let (end, _) = run_to_idle(&mut d, 0);
        assert_eq!(end, 1_000_000, "no thrashing once resident");
    }

    #[test]
    fn unknown_context_rejected() {
        let mut d = dev();
        let e = d
            .submit(ContextId(9), StreamId(1), kernel(10), 0, 0)
            .unwrap_err();
        assert_eq!(e, DeviceError::UnknownContext(ContextId(9)));
        assert!(matches!(
            d.alloc(ContextId(9), 1),
            Err(DeviceError::UnknownContext(_))
        ));
    }

    #[test]
    fn utilization_telemetry_shows_switch_gap() {
        let mut d = dev();
        d.create_context(ContextId(0));
        d.create_context(ContextId(1));
        d.submit(ContextId(0), StreamId(1), kernel(1_000_000), 1, 0)
            .unwrap();
        d.submit(ContextId(1), StreamId(1), kernel(1_000_000), 2, 0)
            .unwrap();
        let (end, _) = run_to_idle(&mut d, 0);
        // During the switch [1ms, 2ms) occupancy is zero: an idle "glitch".
        let gaps = d.telemetry.compute.idle_gaps(0, end, 900_000);
        assert!(gaps >= 1, "expected a visible glitch, got {gaps}");
    }

    #[test]
    fn completion_records_queue_and_service_time() {
        let mut d = dev();
        d.create_context(ContextId(0));
        d.submit(ContextId(0), StreamId(1), kernel(1_000_000), 1, 0)
            .unwrap();
        d.submit(ContextId(0), StreamId(1), kernel(1_000_000), 2, 0)
            .unwrap();
        let (_, done) = run_to_idle(&mut d, 0);
        assert_eq!(done[0].queue_ns(), 0);
        assert_eq!(done[0].service_ns(), 1_000_000);
        assert_eq!(done[1].queue_ns(), 1_000_000); // waited for predecessor
        assert_eq!(done[1].service_ns(), 1_000_000);
    }

    #[test]
    fn cancel_stream_drops_queued_work_only() {
        let mut d = dev();
        d.create_context(ContextId(0));
        // First kernel starts; second stays queued behind it.
        d.submit(ContextId(0), StreamId(1), kernel(1_000_000), 1, 0)
            .unwrap();
        d.submit(ContextId(0), StreamId(1), kernel(1_000_000), 2, 0)
            .unwrap();
        d.step(0);
        let cancelled = d.cancel_stream(ContextId(0), StreamId(1));
        assert_eq!(cancelled.len(), 1, "only the queued job is cancelled");
        let (_, done) = run_to_idle(&mut d, 0);
        assert_eq!(done.len(), 1, "the in-flight job drains normally");
        assert_eq!(done[0].job.tag, 1);
        assert!(d.is_idle());
        // Unknown targets are a no-op.
        assert!(d.cancel_stream(ContextId(9), StreamId(1)).is_empty());
    }

    #[test]
    fn trace_spans_cover_engine_work() {
        let mut d = dev();
        let tracer = Tracer::buffered();
        d.set_tracer(tracer.clone(), "GID0");
        d.create_context(ContextId(0));
        d.create_context(ContextId(1));
        d.submit(ContextId(0), StreamId(1), h2d(6_000_000), 1, 0)
            .unwrap();
        d.submit(ContextId(0), StreamId(1), kernel(1_000_000), 2, 0)
            .unwrap();
        d.submit(ContextId(1), StreamId(1), kernel(1_000_000), 3, 0)
            .unwrap();
        let (end, done) = run_to_idle(&mut d, 0);
        assert_eq!(done.len(), 3);
        let trace = tracer.finish().unwrap();
        // C2050: compute + 2 copy lanes + driver.
        assert_eq!(trace.tracks.len(), 4);
        let compute = trace.find_tracks(|t| t.thread == "compute")[0];
        let kernels = trace.span_intervals(compute);
        assert_eq!(kernels.len(), 2, "one span per kernel");
        let copy_tracks = trace.find_tracks(|t| t.thread.starts_with("copy"));
        let copies: usize = copy_tracks
            .iter()
            .map(|&t| trace.span_intervals(t).len())
            .sum();
        assert_eq!(copies, 1, "one span for the H2D transfer");
        let driver = trace.find_tracks(|t| t.thread == "driver")[0];
        let switches = trace.span_intervals(driver);
        assert_eq!(switches.len() as u64, d.telemetry.context_switches);
        for (b, e) in switches {
            assert_eq!(e - b, 1_000_000, "switch span = context_switch_ns");
        }
        // Every span closed, every event inside the run window.
        for i in 0..trace.tracks.len() {
            assert_eq!(trace.unclosed_spans(TrackId(i as u32)), 0);
        }
        assert!(trace.end_time() <= end);
        // Engine spans reproduce the completion records exactly.
        for c in &done {
            let on_compute = matches!(c.job.kind, JobKind::Kernel(_));
            let tracks: Vec<TrackId> = if on_compute {
                vec![compute]
            } else {
                copy_tracks.clone()
            };
            assert!(
                tracks.iter().any(|&t| trace
                    .span_intervals(t)
                    .contains(&(c.started_at, c.finished_at))),
                "no span for job tag {}",
                c.job.tag
            );
        }
    }

    #[test]
    fn is_idle_and_pending_counts() {
        let mut d = dev();
        d.create_context(ContextId(0));
        assert!(d.is_idle());
        d.submit(ContextId(0), StreamId(1), kernel(100), 0, 0)
            .unwrap();
        assert_eq!(d.pending_jobs(ContextId(0)), 1);
        assert_eq!(d.total_pending(), 1);
        assert!(!d.is_idle());
        run_to_idle(&mut d, 0);
        assert!(d.is_idle());
    }

    #[test]
    fn drop_stream_keeps_rows_with_work_and_the_default_stream() {
        let mut d = dev();
        let ctx = ContextId(0);
        d.create_context(ctx);
        d.submit(ctx, StreamId::DEFAULT, kernel(100), 0, 0).unwrap();
        d.submit(ctx, StreamId(1), kernel(100), 1, 0).unwrap();
        d.submit(ctx, StreamId(2), kernel(100), 2, 0).unwrap();
        d.set_stream_gate(ctx, StreamId(3), true);
        assert_eq!(d.stream_rows(), 4);
        // Queued work pins its row.
        assert!(!d.drop_stream(ctx, StreamId(1)));
        // A gated stream with nothing queued goes.
        assert!(d.drop_stream(ctx, StreamId(3)));
        assert!(!d.drop_stream(ctx, StreamId(3)), "already gone");
        // Running work pins its row too.
        d.step(0);
        assert!(d.stream_busy(ctx, StreamId(1)));
        assert!(!d.drop_stream(ctx, StreamId(1)));
        run_to_idle(&mut d, 0);
        assert!(d.drop_stream(ctx, StreamId(1)));
        assert!(d.drop_stream(ctx, StreamId(2)));
        // The default stream is never dropped, even when idle.
        assert!(!d.drop_stream(ctx, StreamId::DEFAULT));
        assert!(!d.drop_stream(ContextId(9), StreamId(1)), "unknown context");
        assert_eq!(d.stream_rows(), 1);
        // A dropped stream that is submitted to again comes back.
        d.submit(ctx, StreamId(2), kernel(100), 3, 0).unwrap();
        assert_eq!(d.stream_rows(), 2);
        assert_eq!(d.total_pending(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::job::KernelProfile;
    use crate::spec::GpuModel;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[derive(Debug, Clone)]
    enum Op {
        Submit {
            ctx: u32,
            stream: u32,
            kind_kernel: bool,
            size: u64,
        },
        Gate {
            ctx: u32,
            stream: u32,
            gated: bool,
        },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..3, 1u32..4, proptest::bool::ANY, 1_000u64..2_000_000).prop_map(
                |(ctx, stream, kind_kernel, size)| Op::Submit {
                    ctx,
                    stream,
                    kind_kernel,
                    size
                }
            ),
            (0u32..3, 1u32..4, proptest::bool::ANY).prop_map(|(ctx, stream, gated)| Op::Gate {
                ctx,
                stream,
                gated
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random submissions and gate toggles: every job completes exactly
        /// once, per-stream completions preserve FIFO submission order, and
        /// same-stream jobs never overlap in time.
        #[test]
        fn random_ops_preserve_stream_semantics(ops in proptest::collection::vec(op_strategy(), 1..60)) {
            let mut d = Device::new(
                DeviceId(0),
                GpuModel::TeslaC2050.spec(),
                DeviceConfig::default(),
            );
            for c in 0..3 {
                d.create_context(ContextId(c));
            }
            let mut submitted: HashMap<(ContextId, StreamId), Vec<JobId>> = HashMap::new();
            let mut total = 0usize;
            let mut now: SimTime = 0;
            let mut all_done: Vec<CompletedJob> = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                now += 1_000; // ops arrive over time
                match op {
                    Op::Submit { ctx, stream, kind_kernel, size } => {
                        let kind = if *kind_kernel {
                            JobKind::Kernel(KernelProfile {
                                work_ref_ns: *size,
                                occupancy: 0.4,
                                bw_demand_mbps: 10_000.0,
                            })
                        } else {
                            JobKind::Copy {
                                dir: if i % 2 == 0 {
                                    CopyDirection::HostToDevice
                                } else {
                                    CopyDirection::DeviceToHost
                                },
                                bytes: *size,
                                pinned: false,
                            }
                        };
                        let jid = d
                            .submit(ContextId(*ctx), StreamId(*stream), kind, i as u64, now)
                            .expect("submit");
                        submitted
                            .entry((ContextId(*ctx), StreamId(*stream)))
                            .or_default()
                            .push(jid);
                        total += 1;
                    }
                    Op::Gate { ctx, stream, gated } => {
                        d.set_stream_gate(ContextId(*ctx), StreamId(*stream), *gated);
                    }
                }
                d.step(now);
                all_done.extend(d.drain_completions());
            }
            // Release all gates and drain.
            for c in 0..3 {
                for st in 1..4 {
                    d.set_stream_gate(ContextId(c), StreamId(st), false);
                }
            }
            d.step(now);
            all_done.extend(d.drain_completions());
            let mut guard = 0;
            while let Some(t) = d.next_event_time(now) {
                now = t.max(now);
                d.step(now);
                all_done.extend(d.drain_completions());
                guard += 1;
                prop_assert!(guard < 20_000, "device failed to quiesce");
                if d.is_idle() {
                    break;
                }
            }
            // 1. Conservation: every submitted job completed exactly once.
            prop_assert_eq!(all_done.len(), total);
            let mut seen = std::collections::HashSet::new();
            for c in &all_done {
                prop_assert!(seen.insert(c.job.id), "job completed twice");
            }
            // 2. Per-stream FIFO order and no same-stream overlap.
            let mut per_stream: HashMap<(ContextId, StreamId), Vec<&CompletedJob>> = HashMap::new();
            for c in &all_done {
                per_stream.entry((c.job.ctx, c.job.stream)).or_default().push(c);
            }
            for (key, mut jobs) in per_stream {
                jobs.sort_by_key(|c| c.finished_at);
                let expect = &submitted[&key];
                let got: Vec<JobId> = jobs.iter().map(|c| c.job.id).collect();
                prop_assert_eq!(&got, expect, "FIFO violated on {:?}", key);
                for w in jobs.windows(2) {
                    prop_assert!(
                        w[1].started_at >= w[0].finished_at,
                        "same-stream overlap on {:?}",
                        key
                    );
                }
            }
            // 3. Time sanity on every record.
            for c in &all_done {
                prop_assert!(c.job.submitted_at <= c.started_at);
                prop_assert!(c.started_at < c.finished_at);
            }
        }
    }
}
