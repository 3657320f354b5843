//! One GPU's share of the executive: the device, its scheduler, packer,
//! registered apps, Design II master queue and queue keys, and the
//! dispatcher epoch chain (paper §III.C), which runs on this state alone.

use crate::world::Event;
use cuda_sim::host::{AppId, BlockOn};
use gpu_sim::device::{Device, DeviceConfig};
use gpu_sim::ids::{ContextId, StreamId};
use gpu_sim::job::CopyDirection::HostToDevice;
use gpu_sim::job::JobKind;
use remoting::gpool::GMapEntry;
use sim_core::event::EventQueue;
use sim_core::{EventKey, SimTime};
use std::collections::VecDeque;
use strings_core::config::StackConfig;
use strings_core::device_sched::{AppWork, GpuPolicy, GpuScheduler, Phase};
use strings_core::mapper::FeedbackRecord;
use strings_core::packer::{ContextPacker, PackedCall};

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
    /// ([`GpuScheduler::las_handover_in`]). [`Gpu::wake_epoch`] replays
    /// the skipped rolls and re-arms the chain on its original phase.
    Parked(SimTime),
}

/// `(t, id)` for each distinct pop time `t` within the last epoch: `id` is
/// the queue's next event id when the clock reached `t`. Kept only under a
/// device policy (see [`ClockMarks::epoch_precedes_current`]).
pub(crate) struct ClockMarks {
    epoch: u64,
    marks: VecDeque<(SimTime, u64)>,
}

impl ClockMarks {
    /// No marks yet, for dispatcher epochs `epoch` ns long.
    pub(crate) fn new(epoch: u64) -> ClockMarks {
        let marks = VecDeque::new();
        ClockMarks { epoch, marks }
    }

    /// Note the first pop at `now`, dropping marks older than one epoch.
    pub(crate) fn mark(&mut self, q: &EventQueue<Event>, now: SimTime) {
        if self.marks.back().is_some_and(|&(t, _)| t == now) {
            return;
        }
        self.marks.push_back((now, q.next_id().0));
        let horizon = now.saturating_sub(self.epoch);
        while self.marks.front().is_some_and(|&(t, _)| t <= horizon) {
            self.marks.pop_front();
        }
    }

    /// Whether a chain parked at boundary `at`, had it kept ticking, would
    /// have run its pass due at `now` before the event being dispatched.
    /// That epoch would have been scheduled when the boundary before it
    /// popped, so it comes first exactly when `now` is a boundary and the
    /// event was scheduled after the clock passed the boundary before. (An
    /// event scheduled in the very instant of that boundary is taken to
    /// have come first.)
    fn epoch_precedes_current(&self, q: &EventQueue<Event>, at: SimTime, now: SimTime) -> bool {
        now > at
            && (now - at).is_multiple_of(self.epoch)
            && (self.marks.front()).is_some_and(|&(_, id)| q.current_id().0 >= id)
    }
}

pub(crate) struct Gpu {
    pub(crate) device: Device,
    pub(crate) scheduler: GpuScheduler,
    pub(crate) packer: ContextPacker,
    /// The apps registered with the device scheduler, in registration
    /// order, each with the `(ctx, stream)` its gate closes.
    pub(crate) apps: Vec<(AppId, ContextId, StreamId)>,
    /// Design II: delivered calls waiting for the master thread, and the
    /// condition the master is stalled on.
    pub(crate) master_q: VecDeque<(AppId, PackedCall)>,
    pub(crate) master_stall: Option<BlockOn>,
    /// Cancellable queue slot for the device's wakeup self-events.
    pub(crate) key: EventKey,
    /// Cancellable queue slot for a parked chain's queued LAS handover
    /// (none without a device policy); armed chains use the plain queue.
    epoch_key: Option<EventKey>,
    id: u32,
    epoch: EpochState,
    /// The awake set the last full dispatcher pass put in force.
    /// Meaningful while the epoch state is settled.
    applied_awake: Vec<AppId>,
    /// The last pass's work snapshot and awake set (reused buffers).
    work: Vec<AppWork>,
    awake: Vec<AppId>,
}

impl Gpu {
    /// Device `id` (gMap entry `e`) under `cfg`, its keys registered on `q`.
    pub(crate) fn new(
        id: usize,
        e: &GMapEntry,
        device_cfg: DeviceConfig,
        cfg: &StackConfig,
        q: &mut EventQueue<Event>,
    ) -> Gpu {
        let mut device = Device::new(e.local, e.model.spec(), device_cfg);
        // Disjoint JobId ranges per device: the pending-op tracker is keyed
        // globally by JobId.
        device.set_job_id_base(id as u32 * 0x0100_0000);
        let key = q.register_key();
        let epoch_key = (cfg.gpu_policy != GpuPolicy::None).then(|| q.register_key());
        Gpu {
            device,
            scheduler: GpuScheduler::new(cfg.gpu_policy, cfg.epoch.as_ns()),
            packer: ContextPacker::new(cfg.packer),
            apps: Vec::new(),
            master_q: VecDeque::new(),
            master_stall: None,
            key,
            epoch_key,
            id: id as u32,
            epoch: EpochState::Disarmed,
            applied_awake: Vec::new(),
            work: Vec::new(),
            awake: Vec::new(),
        }
    }

    /// Unregister `app`, returning its feedback record.
    pub(crate) fn unregister(&mut self, app: AppId, now: SimTime) -> Option<FeedbackRecord> {
        self.apps.retain(|&(a, ..)| a != app);
        self.scheduler.unregister(app, now)
    }

    // ---- dispatcher epochs ------------------------------------------------

    /// An epoch pops: whether the gates in force are settled, or `None`
    /// (disarmed) with no app registered. A queued LAS handover first
    /// catches the decay up to this boundary.
    pub(crate) fn begin_pass(&mut self, now: SimTime) -> Option<bool> {
        if self.apps.is_empty() {
            self.epoch = EpochState::Disarmed;
            return None;
        }
        if let EpochState::Parked(at) = self.epoch {
            self.replay_parked(at, now);
            self.epoch = EpochState::Armed { settled: true };
        }
        Some(self.epoch == EpochState::Armed { settled: true })
    }

    /// After the pass at `now` (`unchanged`: it kept the gates), park the
    /// chain if the next pass would keep them too, else arm the next one.
    pub(crate) fn end_pass(&mut self, q: &mut EventQueue<Event>, now: SimTime, unchanged: bool) {
        if unchanged || self.next_pass_keeps_gates() {
            self.park_epoch(q, now);
        } else {
            self.arm_epoch(q, now + self.scheduler.epoch_ns());
        }
    }

    /// The gating half of a dispatcher pass: roll the decay, derive the
    /// awake set and gate the streams to match. With `settled`, a pass
    /// whose awake set equals the one already in force stops after the
    /// decay and returns false. True means the gates were applied and the
    /// device needs a resync. The work snapshot stays in `work`.
    pub(crate) fn gate(&mut self, now: SimTime, settled: bool) -> bool {
        self.collect_work();
        (self.scheduler).epoch_tick_into(&self.work, now, &mut self.awake);
        if settled && self.awake == self.applied_awake {
            return false;
        }
        for (w, &(_, ctx, stream)) in self.work.iter().zip(&self.apps) {
            let gated = !self.awake.contains(&w.app);
            self.device.set_stream_gate(ctx, stream, gated);
        }
        self.applied_awake.clone_from(&self.awake);
        // The gates now match the app set, so later passes may compare
        // against them — unless the scheduler is tracing epoch decisions,
        // which the shortcuts would not emit. Settle before the resync: an
        // app unregistering inside it unsettles them again.
        if !self.scheduler.tracing_epochs() {
            if let EpochState::Armed { settled } = &mut self.epoch {
                *settled = true;
            }
        }
        true
    }

    /// Whether everything dispatchable is gated while work exists, so the
    /// dispatcher must re-run now (work conservation between epochs).
    pub(crate) fn needs_retick(&self, now: SimTime) -> bool {
        self.scheduler.policy() != GpuPolicy::None
            && !self.apps.is_empty()
            && self.device.next_event_time(now).is_none()
            && self.device.total_pending() > 0
    }

    /// Snapshot each registered app's dispatchable state into `work`.
    fn collect_work(&mut self) {
        self.work.clear();
        for &(app, ctx, stream) in &self.apps {
            let head = self.device.stream_head_kind(ctx, stream);
            let phase = match head {
                Some(JobKind::Kernel(_)) => Phase::KernelLaunch,
                Some(JobKind::Copy {
                    dir: HostToDevice, ..
                }) => Phase::H2D,
                Some(JobKind::Copy { .. }) => Phase::D2H,
                None => Phase::Default,
            };
            self.work.push(AppWork {
                app,
                has_ready: head.is_some(),
                phase,
            });
        }
    }

    /// True when the gates are settled and the dispatcher, run at the next
    /// boundary on the device as it stands, would re-derive them. Leaves
    /// that snapshot in `work`.
    fn next_pass_keeps_gates(&mut self) -> bool {
        if self.epoch != (EpochState::Armed { settled: true }) {
            return false;
        }
        self.collect_work();
        (self.scheduler).next_awake_into(&self.work, &mut self.awake);
        self.awake == self.applied_awake
    }

    fn arm_epoch(&self, q: &mut EventQueue<Event>, at: SimTime) {
        q.schedule(at, Event::Epoch(self.id));
    }

    /// Every pass after the one at `now` would re-derive the awake set in
    /// force until the device changes — except that under LAS the decay can
    /// tie the awake app with a lower-id ready one. Stop the chain, queueing
    /// only that handover boundary if it comes before the device's next
    /// engine event (which wakes the chain anyway).
    fn park_epoch(&mut self, q: &mut EventQueue<Event>, now: SimTime) {
        self.epoch = EpochState::Parked(now);
        let Some(&awake) = self.applied_awake.first() else {
            return;
        };
        let epoch = self.scheduler.epoch_ns();
        let before_engine = (self.device.next_event_time(now))
            .map_or(u64::MAX, |t| t.saturating_sub(now + 1) / epoch);
        let handover = (self.scheduler).las_handover_in(&self.work, awake, before_engine);
        if let (Some(n), Some(key)) = (handover, self.epoch_key) {
            q.schedule_keyed(key, now + n * epoch, Event::Epoch(self.id));
        }
    }

    /// The device is about to change: an app registers or unregisters
    /// (`apps_changed`), work is submitted, or the device is re-synced. A
    /// disarmed chain (the first app registering under a device policy)
    /// arms one epoch out. A parked chain withdraws any queued handover,
    /// replays the boundaries it skipped and re-arms at the next boundary
    /// on its original phase. A changed app set unsettles the gates.
    pub(crate) fn wake_epoch(
        &mut self,
        q: &mut EventQueue<Event>,
        marks: &ClockMarks,
        now: SimTime,
        apps_changed: bool,
    ) {
        let epoch = self.scheduler.epoch_ns();
        match self.epoch {
            EpochState::Disarmed if apps_changed && self.scheduler.policy() != GpuPolicy::None => {
                self.epoch = EpochState::Armed { settled: false };
                self.arm_epoch(q, now + epoch);
            }
            EpochState::Parked(at) => {
                if let Some(key) = self.epoch_key {
                    q.invalidate(key);
                }
                let until = if marks.epoch_precedes_current(q, at, now) {
                    now + 1
                } else {
                    now
                };
                let next = self.replay_parked(at, until);
                self.arm_epoch(q, next);
                self.epoch = EpochState::Armed {
                    settled: !apps_changed,
                };
            }
            EpochState::Armed { .. } if apps_changed => {
                self.epoch = EpochState::Armed { settled: false };
            }
            _ => {}
        }
    }

    /// Close every epoch a chain parked at boundary `at` skipped strictly
    /// before `until`, one LAS decay roll per boundary so the f64 state is
    /// bit-identical to ticking through them, and return the chain's next
    /// boundary. Debug builds run the full dispatcher at each skipped
    /// boundary instead and assert it re-derives the awake set in force:
    /// the shadow check of the parking rule.
    fn replay_parked(&mut self, at: SimTime, until: SimTime) -> SimTime {
        let epoch = self.scheduler.epoch_ns();
        let mut next = at + epoch;
        #[cfg(debug_assertions)]
        self.collect_work();
        while next < until {
            #[cfg(debug_assertions)]
            {
                (self.scheduler).epoch_tick_into(&self.work, next, &mut self.awake);
                assert_eq!(
                    self.awake, self.applied_awake,
                    "device {}: the dispatcher pass skipped at {next} ns changes the awake set",
                    self.id
                );
            }
            #[cfg(not(debug_assertions))]
            self.scheduler.roll_skipped_epoch();
            next += epoch;
        }
        next
    }
}
