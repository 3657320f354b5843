//! The Dispatcher: per-epoch awake-set computation.
//!
//! The Dispatcher keeps registered backend threads asleep and wakes the
//! ones that should use the GPU this epoch (via the RT-signal mechanism of
//! [`super::signals`]):
//!
//! * **TFS** — true fair share: exactly one thread awake, the one with the
//!   smallest weight-normalized attained service; history-based penalties
//!   fall out of the vruntime accounting. Work-conserving: if the front
//!   runner has no work, the next-least-served thread runs instead.
//! * **LAS** — least attained service: wake the thread with the smallest
//!   decayed cumulative GPU service (Eq. 1), greedily favouring short
//!   GPU episodes to maximize throughput.
//! * **PS** — phase selection: wake one thread per GPU phase (kernel
//!   launch, H2D, D2H) so all three hardware engines run concurrently —
//!   the policy the system is named after (the guitar-chord analogy of
//!   Figure 7b). Unfilled slots fall back to priority order
//!   KL > H2D = D2H > DFL.
//! * **None** — no gating (every thread awake); used by the baselines and
//!   by Strings configurations that rely on workload balancing alone.

use super::rcb::{Rcb, RcbEntry};
use cuda_sim::host::AppId;
use serde::{Deserialize, Serialize};

/// Device-level scheduling policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GpuPolicy {
    /// No device-level gating.
    None,
    /// True fair share.
    Tfs,
    /// Least attained service.
    Las,
    /// Phase selection.
    Ps,
}

impl GpuPolicy {
    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            GpuPolicy::None => "none",
            GpuPolicy::Tfs => "TFS",
            GpuPolicy::Las => "LAS",
            GpuPolicy::Ps => "PS",
        }
    }
}

/// The GPU-usage phase an application is currently in (paper Figure 7b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Next operation is a kernel launch.
    KernelLaunch,
    /// Next operation is a host-to-device transfer.
    H2D,
    /// Next operation is a device-to-host transfer.
    D2H,
    /// No dispatchable operation (default phase).
    Default,
}

impl Phase {
    /// Dispatch priority: KL > H2D = D2H > DFL.
    pub fn priority(self) -> u8 {
        match self {
            Phase::KernelLaunch => 0,
            Phase::H2D | Phase::D2H => 1,
            Phase::Default => 2,
        }
    }
}

/// One application's dispatchable state, as observed from the device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppWork {
    /// The application.
    pub app: AppId,
    /// True if its stream head is dispatchable right now.
    pub has_ready: bool,
    /// Phase classification of the stream head.
    pub phase: Phase,
}

/// Maximum threads PS wakes per epoch (one per hardware engine class).
const PS_SLOTS: usize = 3;

/// Compute the awake set for this epoch.
pub fn awake_set(policy: GpuPolicy, rcb: &Rcb, work: &[AppWork]) -> Vec<AppId> {
    let mut awake = Vec::new();
    awake_set_into(policy, rcb, work, &mut awake);
    awake
}

/// Allocation-free [`awake_set`]: the awake set is written into `out`
/// (cleared first). The dispatcher runs once per epoch per device — the
/// hottest call site in the executive — so it must not allocate.
pub fn awake_set_into(policy: GpuPolicy, rcb: &Rcb, work: &[AppWork], out: &mut Vec<AppId>) {
    out.clear();
    match policy {
        GpuPolicy::None => out.extend(work.iter().map(|w| w.app)),
        GpuPolicy::Tfs => {
            // One thread awake: least weight-normalized attained service.
            let pick = work
                .iter()
                .filter(|w| w.has_ready)
                .filter_map(|w| rcb.get(w.app))
                .min_by(|a, b| {
                    a.vruntime_ns
                        .total_cmp(&b.vruntime_ns)
                        .then(a.app.cmp(&b.app))
                });
            out.extend(pick.map(|e| e.app));
        }
        GpuPolicy::Las => out.extend(las_pick(rcb, work, |e| e.cgs_ns)),
        GpuPolicy::Ps => {
            let awake = out;
            // First pass: the least-served ready thread of each phase.
            for phase in [Phase::KernelLaunch, Phase::H2D, Phase::D2H] {
                let pick = work
                    .iter()
                    .filter(|w| w.has_ready && w.phase == phase)
                    .filter_map(|w| rcb.get(w.app))
                    .min_by(|a, b| {
                        a.total_service_ns
                            .cmp(&b.total_service_ns)
                            .then(a.app.cmp(&b.app))
                    })
                    .map(|e| e.app);
                if let Some(app) = pick {
                    awake.push(app);
                }
            }
            // Fill remaining slots in phase-priority then service order.
            if awake.len() < PS_SLOTS {
                let mut rest: Vec<&AppWork> = work
                    .iter()
                    .filter(|w| w.has_ready && !awake.contains(&w.app))
                    .collect();
                rest.sort_by_key(|w| {
                    (
                        w.phase.priority(),
                        rcb.get(w.app).map_or(u64::MAX, |e| e.total_service_ns),
                        w.app,
                    )
                });
                for w in rest {
                    if awake.len() >= PS_SLOTS {
                        break;
                    }
                    awake.push(w.app);
                }
            }
        }
    }
}

/// LAS: the ready app with the least decayed cumulative service, as
/// `cgs` reads it off its row; ties go to the lower id.
pub(crate) fn las_pick(
    rcb: &Rcb,
    work: &[AppWork],
    cgs: impl Fn(&RcbEntry) -> f64,
) -> Option<AppId> {
    work.iter()
        .filter(|w| w.has_ready)
        .filter_map(|w| rcb.get(w.app))
        .map(|e| (cgs(e), e.app))
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        .map(|(_, app)| app)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device_sched::rcb::TenantId;
    use gpu_sim::ids::StreamId;

    fn rcb(apps: &[(u32, f64, u64)]) -> Rcb {
        // (app, weight, pre-attained service). Register everyone first so
        // the vruntime-inheritance rule doesn't skew the fixture.
        let mut r = Rcb::new();
        for (app, w, _) in apps {
            r.register(AppId(*app), StreamId(*app + 1), TenantId(*app), *w, 0);
        }
        for (app, _, service) in apps {
            r.add_service(AppId(*app), *service);
        }
        r
    }

    fn ready(app: u32, phase: Phase) -> AppWork {
        AppWork {
            app: AppId(app),
            has_ready: true,
            phase,
        }
    }

    #[test]
    fn none_wakes_everyone() {
        let r = rcb(&[(0, 1.0, 0), (1, 1.0, 0)]);
        let w = vec![ready(0, Phase::KernelLaunch), ready(1, Phase::H2D)];
        let awake = awake_set(GpuPolicy::None, &r, &w);
        assert_eq!(awake.len(), 2);
    }

    #[test]
    fn tfs_picks_least_vruntime() {
        let r = rcb(&[(0, 1.0, 5_000), (1, 1.0, 1_000)]);
        let w = vec![ready(0, Phase::KernelLaunch), ready(1, Phase::KernelLaunch)];
        assert_eq!(awake_set(GpuPolicy::Tfs, &r, &w), vec![AppId(1)]);
    }

    #[test]
    fn tfs_respects_weights() {
        // App 0 has 2× weight: 4000 service / 2 = 2000 vruntime < 3000.
        let r = rcb(&[(0, 2.0, 4_000), (1, 1.0, 3_000)]);
        let w = vec![ready(0, Phase::KernelLaunch), ready(1, Phase::KernelLaunch)];
        assert_eq!(awake_set(GpuPolicy::Tfs, &r, &w), vec![AppId(0)]);
    }

    #[test]
    fn tfs_is_work_conserving() {
        // The least-served app has no ready work → the other runs.
        let r = rcb(&[(0, 1.0, 100), (1, 1.0, 9_000)]);
        let w = vec![
            AppWork {
                app: AppId(0),
                has_ready: false,
                phase: Phase::Default,
            },
            ready(1, Phase::KernelLaunch),
        ];
        assert_eq!(awake_set(GpuPolicy::Tfs, &r, &w), vec![AppId(1)]);
    }

    #[test]
    fn las_uses_decayed_cgs_not_raw_total() {
        let mut r = rcb(&[(0, 1.0, 0), (1, 1.0, 0)]);
        // App 0 was busy long ago (decayed away); app 1 busy just now.
        r.add_service(AppId(0), 10_000);
        r.roll_epoch(); // app0 cgs = 8000
        for _ in 0..10 {
            r.roll_epoch(); // decays toward 0
        }
        r.add_service(AppId(1), 3_000);
        r.roll_epoch(); // app1 cgs = 2400, app0 cgs ≈ 0.8
        let w = vec![ready(0, Phase::KernelLaunch), ready(1, Phase::KernelLaunch)];
        assert_eq!(
            awake_set(GpuPolicy::Las, &r, &w),
            vec![AppId(0)],
            "old service must have decayed"
        );
    }

    #[test]
    fn ps_wakes_one_thread_per_phase() {
        let r = rcb(&[(0, 1.0, 0), (1, 1.0, 0), (2, 1.0, 0), (3, 1.0, 0)]);
        let w = vec![
            ready(0, Phase::KernelLaunch),
            ready(1, Phase::H2D),
            ready(2, Phase::D2H),
            ready(3, Phase::KernelLaunch), // loses the KL slot to app 0
        ];
        let awake = awake_set(GpuPolicy::Ps, &r, &w);
        assert_eq!(awake, vec![AppId(0), AppId(1), AppId(2)]);
    }

    #[test]
    fn ps_fills_missing_phases_by_priority() {
        // Only kernel-phase threads ready: wake up to three, KL first.
        let r = rcb(&[(0, 1.0, 10), (1, 1.0, 20), (2, 1.0, 30), (3, 1.0, 40)]);
        let w = vec![
            ready(0, Phase::KernelLaunch),
            ready(1, Phase::KernelLaunch),
            ready(2, Phase::KernelLaunch),
            ready(3, Phase::KernelLaunch),
        ];
        let awake = awake_set(GpuPolicy::Ps, &r, &w);
        assert_eq!(awake.len(), 3);
        assert_eq!(awake[0], AppId(0), "least-served KL thread first");
        assert!(awake.contains(&AppId(1)) && awake.contains(&AppId(2)));
    }

    #[test]
    fn ps_prefers_least_served_within_phase() {
        let r = rcb(&[(0, 1.0, 9_000), (1, 1.0, 100)]);
        let w = vec![ready(0, Phase::H2D), ready(1, Phase::H2D)];
        let awake = awake_set(GpuPolicy::Ps, &r, &w);
        assert_eq!(awake[0], AppId(1), "fairness tie-break inside a phase");
    }

    #[test]
    fn empty_work_wakes_nobody() {
        let r = rcb(&[(0, 1.0, 0)]);
        for p in [GpuPolicy::Tfs, GpuPolicy::Las, GpuPolicy::Ps] {
            assert!(awake_set(p, &r, &[]).is_empty(), "{p:?}");
        }
    }

    #[test]
    fn phase_priorities() {
        assert!(Phase::KernelLaunch.priority() < Phase::H2D.priority());
        assert_eq!(Phase::H2D.priority(), Phase::D2H.priority());
        assert!(Phase::D2H.priority() < Phase::Default.priority());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::device_sched::rcb::{Rcb, TenantId};
    use gpu_sim::ids::StreamId;
    use proptest::prelude::*;

    proptest! {
        /// TFS converges: when every app always has work, simulated epochs
        /// that credit service to the awake app drive the weight-normalized
        /// service shares together (Jain over vruntime-normalized service
        /// approaches 1), for arbitrary positive weights.
        #[test]
        fn tfs_converges_to_weighted_shares(
            weights in proptest::collection::vec(0.5f64..4.0, 2..6),
            quantum in 1_000u64..100_000,
        ) {
            let mut rcb = Rcb::new();
            for (i, w) in weights.iter().enumerate() {
                rcb.register(AppId(i as u32), StreamId(i as u32 + 1), TenantId(i as u32), *w, 0);
            }
            let work: Vec<AppWork> = (0..weights.len())
                .map(|i| AppWork {
                    app: AppId(i as u32),
                    has_ready: true,
                    phase: Phase::KernelLaunch,
                })
                .collect();
            for _ in 0..3000 {
                let awake = awake_set(GpuPolicy::Tfs, &rcb, &work);
                prop_assert_eq!(awake.len(), 1, "TFS wakes exactly one");
                rcb.add_service(awake[0], quantum);
                rcb.roll_epoch();
            }
            // Normalized shares: service / weight should be ~equal.
            let shares: Vec<f64> = (0..weights.len())
                .map(|i| {
                    let e = rcb.get(AppId(i as u32)).unwrap();
                    e.total_service_ns as f64 / e.weight
                })
                .collect();
            let max = shares.iter().cloned().fold(f64::MIN, f64::max);
            let min = shares.iter().cloned().fold(f64::MAX, f64::min);
            prop_assert!(
                max / min < 1.05,
                "weighted shares diverged: {:?}",
                shares
            );
        }

        /// LAS always favours the app with the least decayed service.
        #[test]
        fn las_picks_global_minimum_cgs(services in proptest::collection::vec(0u64..1_000_000, 2..8)) {
            let mut rcb = Rcb::new();
            for (i, s) in services.iter().enumerate() {
                rcb.register(AppId(i as u32), StreamId(i as u32 + 1), TenantId(0), 1.0, 0);
                rcb.add_service(AppId(i as u32), *s);
            }
            rcb.roll_epoch();
            let work: Vec<AppWork> = (0..services.len())
                .map(|i| AppWork {
                    app: AppId(i as u32),
                    has_ready: true,
                    phase: Phase::KernelLaunch,
                })
                .collect();
            let awake = awake_set(GpuPolicy::Las, &rcb, &work);
            let min_idx = services
                .iter()
                .enumerate()
                .min_by_key(|(i, s)| (**s, *i))
                .map(|(i, _)| i)
                .unwrap();
            prop_assert_eq!(awake, vec![AppId(min_idx as u32)]);
        }
    }
}
