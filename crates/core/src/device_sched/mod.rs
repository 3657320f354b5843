//! Per-device GPU Scheduler (paper §III.C, §IV.B).
//!
//! One instance per GPU. It owns:
//!
//! * the **Request Manager** + **Request Control Block** ([`rcb`]):
//!   registration of application requests with stream id, tenant id and
//!   weight, via the modelled RT-signal handshake ([`signals`]),
//! * the **Dispatcher** ([`dispatcher`]): decides, each scheduling epoch,
//!   which backend threads are awake — i.e. which per-application streams
//!   may dispatch to the engines (TFS / LAS / PS policies),
//! * the **Request Monitor** ([`monitor`]): accumulates per-application
//!   runtime, GPU time, transfer time and bytes moved,
//! * the **Feedback Engine**: folds the monitor's numbers into a
//!   [`crate::mapper::FeedbackRecord`] piggybacked on `cudaThreadExit`.

pub mod dispatcher;
pub mod monitor;
pub mod rcb;
pub mod signals;

pub use dispatcher::{AppWork, GpuPolicy, Phase};
pub use monitor::RequestMonitor;
pub use rcb::{Rcb, RcbEntry, TenantId};
pub use signals::SignalProtocol;

use crate::mapper::FeedbackRecord;
use cuda_sim::host::AppId;
use gpu_sim::ids::StreamId;
use sim_core::trace::{Tracer, TrackId};
use sim_core::SimTime;

/// The per-device scheduler: RM + RCB + Dispatcher + RMO + FE.
#[derive(Debug)]
pub struct GpuScheduler {
    policy: GpuPolicy,
    epoch_ns: u64,
    rcb: Rcb,
    /// Scratch copy of `rcb` for looking one epoch ahead.
    lookahead: Rcb,
    monitor: RequestMonitor,
    signals: SignalProtocol,
    tracer: Tracer,
    track: TrackId,
}

impl GpuScheduler {
    /// New scheduler with the given dispatch policy and epoch length.
    pub fn new(policy: GpuPolicy, epoch_ns: u64) -> Self {
        GpuScheduler {
            policy,
            epoch_ns,
            rcb: Rcb::new(),
            lookahead: Rcb::new(),
            monitor: RequestMonitor::new(),
            signals: SignalProtocol::new(),
            tracer: Tracer::off(),
            track: TrackId::INVALID,
        }
    }

    /// Attach a tracer; each epoch decision is recorded as an instant on
    /// `track` with the policy label, the awake set and each awake app's
    /// RCB ordering key.
    pub fn set_tracer(&mut self, tracer: Tracer, track: TrackId) {
        self.tracer = tracer;
        self.track = track;
    }

    /// Dispatch policy in force.
    pub fn policy(&self) -> GpuPolicy {
        self.policy
    }

    /// Scheduling epoch length, nanoseconds.
    pub fn epoch_ns(&self) -> u64 {
        self.epoch_ns
    }

    /// Request Manager: register an application (performs the RT-signal
    /// handshake; returns the assigned signal number, used by tests and the
    /// harness to charge handshake latency).
    pub fn register(
        &mut self,
        app: AppId,
        stream: StreamId,
        tenant: TenantId,
        weight: f64,
        now: SimTime,
    ) -> Result<u32, signals::SignalError> {
        let sig = self.signals.register(app)?;
        self.rcb.register(app, stream, tenant, weight, now);
        self.monitor.register(app, now);
        Ok(sig)
    }

    /// Request Manager: unregister on `cudaThreadExit`; the Feedback Engine
    /// piggybacks the monitor's record on the reply.
    pub fn unregister(&mut self, app: AppId, now: SimTime) -> Option<FeedbackRecord> {
        self.signals.unregister(app);
        self.rcb.unregister(app);
        self.monitor.finish(app, now)
    }

    /// Request Monitor hook: a device job belonging to `app` completed.
    /// `is_transfer` distinguishes DMA from kernels; `service_ns` is engine
    /// occupancy; `bytes` is data moved (0 for kernels).
    pub fn record_service(&mut self, app: AppId, service_ns: u64, is_transfer: bool, bytes: u64) {
        self.rcb.add_service(app, service_ns);
        self.monitor.add(app, service_ns, is_transfer, bytes);
    }

    /// Dispatcher: compute the awake set for the next epoch given each
    /// registered app's current work state. Also rolls the LAS decay
    /// (Eq. 1) for the closing epoch. `now` stamps the decision in the
    /// trace (when tracing is attached).
    pub fn epoch_tick(&mut self, work: &[AppWork], now: SimTime) -> Vec<AppId> {
        let mut awake = Vec::new();
        self.epoch_tick_into(work, now, &mut awake);
        awake
    }

    /// Allocation-free [`GpuScheduler::epoch_tick`]: the awake set is
    /// written into `awake` (cleared first) so hot executives can reuse
    /// one buffer across epochs.
    pub fn epoch_tick_into(&mut self, work: &[AppWork], now: SimTime, awake: &mut Vec<AppId>) {
        self.rcb.roll_epoch();
        dispatcher::awake_set_into(self.policy, &self.rcb, work, awake);
        if self.tracer.is_on() {
            // Render each awake app with the RCB key its policy ordered by.
            let keyed: Vec<String> = awake
                .iter()
                .map(|app| match self.rcb.get(*app) {
                    Some(e) => match self.policy {
                        GpuPolicy::Tfs => format!("{app}:vrt={:.0}", e.vruntime_ns),
                        GpuPolicy::Las => format!("{app}:cgs={:.0}", e.cgs_ns),
                        GpuPolicy::Ps => format!("{app}:svc={}", e.total_service_ns),
                        GpuPolicy::None => app.to_string(),
                    },
                    None => app.to_string(),
                })
                .collect();
            self.tracer.instant(
                self.track,
                now,
                "epoch",
                vec![
                    ("policy", self.policy.label().to_string()),
                    ("awake", keyed.join(",")),
                    ("registered", self.rcb.len().to_string()),
                ],
            );
        }
    }

    /// Close an epoch whose dispatcher pass the executive skipped because it
    /// could not change the awake set in force: only the LAS decay (Eq. 1)
    /// rolls. An executive that stops ticking a device between device
    /// changes calls this once per skipped epoch boundary when the device
    /// changes: one call per boundary (not a closed-form power of `1 − k`)
    /// keeps the f64 decay bit-identical to ticking through them. See
    /// [`GpuScheduler::tracing_epochs`] for when passes must not be skipped.
    pub fn roll_skipped_epoch(&mut self) {
        self.rcb.roll_epoch();
    }

    /// The awake set the next epoch's [`GpuScheduler::epoch_tick_into`]
    /// would derive from `work` if nothing changed before it. The LAS decay
    /// it would roll first is rolled on a scratch copy of the RCB; the live
    /// table is untouched.
    pub fn next_awake_into(&mut self, work: &[AppWork], awake: &mut Vec<AppId>) {
        let rcb = if self.policy == GpuPolicy::Las {
            self.lookahead.clone_from(&self.rcb);
            self.lookahead.roll_epoch();
            &self.lookahead
        } else {
            &self.rcb
        };
        dispatcher::awake_set_into(self.policy, rcb, work, awake);
    }

    /// How many epochs after the last pass the LAS dispatcher would stop
    /// picking `awake`, if nothing changes on the device meanwhile; `None`
    /// if not within `max` epochs or not under LAS. With no service
    /// accruing, Eq. 1 shrinks every `cgs_ns` by the same factor, which
    /// keeps their order until rounding makes two of them equal: a ready
    /// app with a lower id then wins the tie. The decay is iterated with
    /// [`rcb::eq1`], so the prediction is exact. `work` is the snapshot the
    /// last pass decided on.
    pub fn las_handover_in(&self, work: &[AppWork], awake: AppId, max: u64) -> Option<u64> {
        if self.policy != GpuPolicy::Las || max == 0 {
            return None;
        }
        // The first roll folds in whatever service this epoch has accrued;
        // later ones only decay, which is monotone, so from there on the
        // least-served lower-id contender ties first.
        let first = |e: &RcbEntry| rcb::eq1(e.cgs_ns, e.epoch_service_ns);
        let mut mine = first(self.rcb.get(awake)?);
        let mut rival = work
            .iter()
            .filter(|w| w.has_ready && w.app < awake)
            .filter_map(|w| self.rcb.get(w.app))
            .map(first)
            .min_by(f64::total_cmp)?;
        // Both values reach 0 within ~1,100 steps, so the loop is short
        // even when `max` is not.
        for n in 1..=max {
            if n > 1 {
                mine = rcb::eq1(mine, 0);
                rival = rcb::eq1(rival, 0);
            }
            if mine.total_cmp(&rival).is_eq() {
                return Some(n);
            }
        }
        None
    }

    /// True when epoch decisions are being traced — each tick then emits an
    /// instant that a skipped or unchanged-decision shortcut would drop, so
    /// callers must run the full [`GpuScheduler::epoch_tick`] every epoch
    /// to keep traces complete.
    pub fn tracing_epochs(&self) -> bool {
        self.tracer.is_on()
    }

    /// RCB inspection.
    pub fn rcb(&self) -> &Rcb {
        &self.rcb
    }

    /// Monitor inspection.
    pub fn monitor(&self) -> &RequestMonitor {
        &self.monitor
    }

    /// Attained service of a tenant across current registrations, ns
    /// (fairness accounting).
    pub fn tenant_service_ns(&self, tenant: TenantId) -> u64 {
        self.rcb
            .entries()
            .filter(|e| e.tenant == tenant)
            .map(|e| e.total_service_ns)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_unregister_roundtrip() {
        let mut s = GpuScheduler::new(GpuPolicy::Tfs, 5_000_000);
        let sig = s
            .register(AppId(0), StreamId(1), TenantId(0), 1.0, 0)
            .unwrap();
        assert!(sig >= signals::SIGRTMIN);
        assert_eq!(s.rcb().len(), 1);
        s.record_service(AppId(0), 1_000, false, 0);
        let fb = s.unregister(AppId(0), 10_000).expect("feedback record");
        assert_eq!(fb.gpu_time_ns, 1_000);
        assert_eq!(fb.runtime_ns, 10_000);
        assert_eq!(s.rcb().len(), 0);
    }

    #[test]
    fn service_accumulates_per_tenant() {
        let mut s = GpuScheduler::new(GpuPolicy::Tfs, 1_000);
        s.register(AppId(0), StreamId(1), TenantId(0), 1.0, 0)
            .unwrap();
        s.register(AppId(1), StreamId(2), TenantId(0), 1.0, 0)
            .unwrap();
        s.register(AppId(2), StreamId(3), TenantId(1), 1.0, 0)
            .unwrap();
        s.record_service(AppId(0), 300, false, 0);
        s.record_service(AppId(1), 200, true, 64);
        s.record_service(AppId(2), 500, false, 0);
        assert_eq!(s.tenant_service_ns(TenantId(0)), 500);
        assert_eq!(s.tenant_service_ns(TenantId(1)), 500);
    }

    #[test]
    fn policy_and_epoch_accessors() {
        let s = GpuScheduler::new(GpuPolicy::Ps, 42);
        assert_eq!(s.policy(), GpuPolicy::Ps);
        assert_eq!(s.epoch_ns(), 42);
    }

    fn ready(app: u32) -> AppWork {
        AppWork {
            app: AppId(app),
            has_ready: true,
            phase: Phase::KernelLaunch,
        }
    }

    fn las_pair() -> GpuScheduler {
        let mut s = GpuScheduler::new(GpuPolicy::Las, 5_000_000);
        for app in 0..2 {
            s.register(AppId(app), StreamId(app + 1), TenantId(app), 1.0, 0)
                .unwrap();
        }
        s
    }

    #[test]
    fn las_handover_prediction_matches_ticking() {
        // App 0 has service, so app 1 (none) is awake while both wait.
        let mut s = las_pair();
        s.record_service(AppId(0), 10_000_000, false, 0);
        let work = [ready(0), ready(1)];
        let mut awake = Vec::new();
        s.epoch_tick_into(&work, 0, &mut awake);
        assert_eq!(awake, [AppId(1)]);
        // Decay alone ties the two (both reach zero); the lower id wins.
        let n = s
            .las_handover_in(&work, AppId(1), u64::MAX)
            .expect("decay ties eventually");
        assert!(n > 400, "a 10 ms lead takes ~470 epochs to decay, got {n}");
        assert_eq!(s.las_handover_in(&work, AppId(1), n - 1), None);
        for _ in 1..n {
            s.epoch_tick_into(&work, 0, &mut awake);
            assert_eq!(awake, [AppId(1)]);
        }
        s.epoch_tick_into(&work, 0, &mut awake);
        assert_eq!(awake, [AppId(0)], "handover at epoch {n}");
    }

    #[test]
    fn las_handover_folds_the_open_epochs_service() {
        // Service recorded after the last pass is folded by the next roll.
        let mut s = las_pair();
        let work = [ready(0), ready(1)];
        let mut awake = Vec::new();
        s.epoch_tick_into(&work, 0, &mut awake);
        assert_eq!(awake, [AppId(0)], "tie at zero: lower id");
        s.record_service(AppId(0), 1_000, false, 0);
        s.next_awake_into(&work, &mut awake);
        assert_eq!(awake, [AppId(1)]);
        assert_eq!(
            s.rcb().get(AppId(0)).unwrap().epoch_service_ns,
            1_000,
            "looking ahead leaves the table alone"
        );
        let n = s.las_handover_in(&work, AppId(1), u64::MAX).unwrap();
        for _ in 1..n {
            s.epoch_tick_into(&work, 0, &mut awake);
            assert_eq!(awake, [AppId(1)]);
        }
        s.epoch_tick_into(&work, 0, &mut awake);
        assert_eq!(awake, [AppId(0)]);
    }

    #[test]
    fn no_handover_without_a_ready_lower_id_rival_or_outside_las() {
        let mut s = las_pair();
        s.record_service(AppId(1), 10_000_000, false, 0);
        let work = [ready(0), ready(1)];
        s.epoch_tick(&work, 0);
        // App 0 is awake; app 1 has the higher id, so a tie keeps app 0.
        assert_eq!(s.las_handover_in(&work, AppId(0), u64::MAX), None);
        let idle = AppWork {
            has_ready: false,
            ..ready(0)
        };
        assert_eq!(s.las_handover_in(&[idle, ready(1)], AppId(1), 10), None);
        let mut tfs = GpuScheduler::new(GpuPolicy::Tfs, 5_000_000);
        tfs.register(AppId(0), StreamId(1), TenantId(0), 1.0, 0)
            .unwrap();
        assert_eq!(tfs.las_handover_in(&work, AppId(0), u64::MAX), None);
    }

    #[test]
    fn unregister_unknown_app_is_none() {
        let mut s = GpuScheduler::new(GpuPolicy::Las, 1_000);
        assert!(s.unregister(AppId(9), 5).is_none());
    }
}
