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
#[cfg(debug_assertions)]
use strings_core::device_sched::{dispatcher::awake_set_into, Rcb};
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
    /// ([`GpuScheduler::las_handover_in`]). [`Gpu::wake_epoch`] catches
    /// the decay up over the skipped boundaries in one batched roll and
    /// re-arms the chain on its original phase.
    Parked(SimTime),
}

/// Whether a chain of `epoch`-ns passes parked at boundary `at`, had it
/// kept ticking, would have run its pass due at `now` before the event
/// being dispatched. That pass would have been scheduled when the boundary
/// before it popped, so it comes first exactly when `now` is a boundary
/// and the event was scheduled after the clock passed the boundary before.
/// (An event scheduled in the very instant of that boundary is taken to
/// have come first.)
fn epoch_precedes_current(q: &EventQueue<Event>, epoch: u64, at: SimTime, now: SimTime) -> bool {
    now > at && (now - at).is_multiple_of(epoch) && q.current_scheduled_at() > now - epoch
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
    /// catches the decay up over the boundaries it skipped and re-arms at
    /// the next boundary on its original phase. A changed app set unsettles the gates.
    pub(crate) fn wake_epoch(
        &mut self,
        q: &mut EventQueue<Event>,
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
                let until = if epoch_precedes_current(q, epoch, at, now) {
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
    /// before `until` with one batched LAS decay roll, whose f64 state is
    /// bit-identical to ticking through them, and return the chain's next
    /// boundary. Debug builds also run the dispatcher at each skipped
    /// boundary on a copy of the RCB rolled one boundary at a time, assert
    /// it re-derives the awake set in force (the shadow check of the
    /// parking rule), and assert the batched roll left the rows exactly
    /// where the copy's single rolls did.
    fn replay_parked(&mut self, at: SimTime, until: SimTime) -> SimTime {
        let epoch = self.scheduler.epoch_ns();
        let skipped = until.saturating_sub(at + 1) / epoch;
        #[cfg(debug_assertions)]
        let shadow = self.shadow_skipped(at, skipped);
        self.scheduler.roll_skipped_epochs(skipped);
        #[cfg(debug_assertions)]
        assert!(
            (self.scheduler.rcb().entries().zip(shadow.entries())).all(|(a, b)| {
                a.cgs_ns.to_bits() == b.cgs_ns.to_bits() && a.epoch_service_ns == b.epoch_service_ns
            }),
            "device {}: the batched roll over {skipped} epochs diverged",
            self.id
        );
        at + (skipped + 1) * epoch
    }

    /// The debug shadow of [`Gpu::replay_parked`]: roll a copy of the RCB
    /// through the `skipped` boundaries after `at` one at a time, running
    /// the dispatcher at each, and return the copy.
    #[cfg(debug_assertions)]
    fn shadow_skipped(&mut self, at: SimTime, skipped: u64) -> Rcb {
        let (epoch, policy) = (self.scheduler.epoch_ns(), self.scheduler.policy());
        let mut shadow = self.scheduler.rcb().clone();
        self.collect_work();
        for k in 1..=skipped {
            shadow.roll_epoch();
            awake_set_into(policy, &shadow, &self.work, &mut self.awake);
            assert_eq!(
                self.awake,
                self.applied_awake,
                "device {}: the dispatcher pass skipped at {} ns changes the awake set",
                self.id,
                at + k * epoch
            );
        }
        shadow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPOCH: u64 = 5_000;

    fn pop(q: &mut EventQueue<Event>) -> SimTime {
        q.pop().expect("an event is queued").0
    }

    /// Whether a chain parked at `at` would have run its pass at each of
    /// the events popping at 10,000 first; one was scheduled at each of
    /// `scheduled`, in that order.
    fn verdicts(at: SimTime, scheduled: &[SimTime]) -> Vec<bool> {
        let mut q = EventQueue::new();
        for &t in scheduled {
            q.schedule(t, Event::MetricsSample);
        }
        for _ in scheduled {
            pop(&mut q);
            q.schedule(10_000, Event::DumpAt);
        }
        (scheduled.iter())
            .map(|_| {
                assert_eq!(pop(&mut q), 10_000);
                epoch_precedes_current(&q, EPOCH, at, 10_000)
            })
            .collect()
    }

    #[test]
    fn epoch_precedes_only_events_scheduled_after_the_previous_boundary() {
        // The pass at 10,000 would have been queued when the boundary at
        // 5,000 popped: after an event scheduled just before it, and (by
        // convention) after one scheduled in that very instant.
        let around = [4_999, 5_000, 5_001];
        assert_eq!(verdicts(0, &around), [false, false, true]);
        assert_eq!(verdicts(5_000, &around), [false, false, true]);
        // 10,000 is not a boundary of a chain parked at 2,500, and a chain
        // parked at 10,000 has run that pass already.
        assert_eq!(verdicts(2_500, &around), [false; 3]);
        assert_eq!(verdicts(10_000, &around), [false; 3]);
        // Setup-time events (scheduled before the first pop) come first.
        let mut q = EventQueue::new();
        q.schedule(10_000, Event::DumpAt);
        assert_eq!(pop(&mut q), 10_000);
        assert!(!epoch_precedes_current(&q, EPOCH, 0, 10_000));
    }
}
