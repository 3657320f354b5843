//! Request Control Block (RCB).
//!
//! One entry per application currently registered with a device's GPU
//! scheduler: stream id, tenant id, tenant weight, and the service
//! accounting the dispatch policies consume — total attained service (TFS
//! fairness), CFS-style virtual runtime (TFS ordering), and the decayed
//! cumulative GPU service of the paper's Eq. 1 (LAS):
//!
//! ```text
//! CGS_n = k · GS_n + (1 − k) · CGS_{n−1},   k = 0.8
//! ```

use cuda_sim::host::AppId;
use gpu_sim::ids::StreamId;
use serde::{Deserialize, Serialize};
use sim_core::SimTime;

/// Decay constant of Eq. 1.
pub const LAS_K: f64 = 0.8;

/// The factor an epoch without service scales CGS by: Eq. 1 with
/// `GS_n = 0` is `0 + (1 − k) · CGS`, and adding `+0.0` to the product
/// changes no non-negative value, so `(1 − k) · CGS` is bit for bit the
/// same step.
const IDLE_DECAY: f64 = 1.0 - LAS_K;

/// One step of Eq. 1: fold an epoch's attained service into the decayed
/// cumulative GPU service. The one place this arithmetic lives, so anything
/// that predicts the decay computes exactly what [`Rcb::roll_epoch`] does.
#[inline]
pub fn eq1(cgs_ns: f64, epoch_service_ns: u64) -> f64 {
    LAS_K * epoch_service_ns as f64 + (1.0 - LAS_K) * cgs_ns
}

/// A tenant (cloud customer) identity; weights are per tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// One RCB row.
#[derive(Debug, Clone)]
pub struct RcbEntry {
    /// Application instance.
    pub app: AppId,
    /// Its private CUDA stream on this device.
    pub stream: StreamId,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Tenant weight (share entitlement).
    pub weight: f64,
    /// Total engine time attained since registration, ns.
    pub total_service_ns: u64,
    /// Service attained during the current epoch, ns.
    pub epoch_service_ns: u64,
    /// Decayed cumulative GPU service (Eq. 1), ns.
    pub cgs_ns: f64,
    /// Weight-normalized attained service (TFS ordering key).
    pub vruntime_ns: f64,
    /// Registration time.
    pub registered_at: SimTime,
}

impl RcbEntry {
    /// The CGS the next [`Rcb::roll_epoch`] gives this row: Eq. 1 folding
    /// in the service of the epoch it closes.
    #[inline]
    pub fn next_cgs_ns(&self) -> f64 {
        eq1(self.cgs_ns, self.epoch_service_ns)
    }
}

/// The table, kept sorted by application id for deterministic iteration.
/// A sorted `Vec` (not a tree map): tables hold a handful of rows, and
/// [`Rcb::roll_epoch`] walks every row once per scheduling epoch — the
/// hottest loop in the executive — where contiguous storage wins.
#[derive(Debug, Default, Clone)]
pub struct Rcb {
    rows: Vec<RcbEntry>,
    /// Monotone watermark: the largest minimum-vruntime the table has
    /// ever observed at an unregistration. Keeps fairness history across
    /// moments when the table empties — without it, the first app of a
    /// new busy period would restart at vruntime 0 and starve everyone
    /// that joins behind it until it caught up.
    min_vruntime_floor: f64,
}

impl Rcb {
    /// Empty RCB.
    pub fn new() -> Self {
        Self::default()
    }

    fn live_min_vruntime(&self) -> Option<f64> {
        self.rows
            .iter()
            .map(|e| e.vruntime_ns)
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.min(v))))
    }

    /// Position of `app` in the sorted table (`Err` = insertion point).
    fn idx(&self, app: AppId) -> Result<usize, usize> {
        self.rows.binary_search_by_key(&app, |e| e.app)
    }

    /// Register an application. New arrivals inherit the minimum vruntime
    /// among live entries — or, when the table is empty, the watermark
    /// left behind by the last departures — so they neither starve others
    /// nor get starved.
    pub fn register(
        &mut self,
        app: AppId,
        stream: StreamId,
        tenant: TenantId,
        weight: f64,
        now: SimTime,
    ) {
        assert!(weight > 0.0, "tenant weight must be positive");
        let vruntime = self.live_min_vruntime().unwrap_or(self.min_vruntime_floor);
        let entry = RcbEntry {
            app,
            stream,
            tenant,
            weight,
            total_service_ns: 0,
            epoch_service_ns: 0,
            cgs_ns: 0.0,
            vruntime_ns: vruntime,
            registered_at: now,
        };
        match self.idx(app) {
            Ok(i) => self.rows[i] = entry,
            Err(i) => self.rows.insert(i, entry),
        }
    }

    /// Remove an application's entry, raising the vruntime watermark to
    /// the table's current minimum first (vruntimes only grow, so the
    /// watermark is monotone).
    pub fn unregister(&mut self, app: AppId) {
        if let Ok(i) = self.idx(app) {
            if let Some(m) = self.live_min_vruntime() {
                self.min_vruntime_floor = self.min_vruntime_floor.max(m);
            }
            self.rows.remove(i);
        }
    }

    /// Credit attained engine time to an application.
    pub fn add_service(&mut self, app: AppId, service_ns: u64) {
        if let Ok(i) = self.idx(app) {
            let e = &mut self.rows[i];
            e.total_service_ns += service_ns;
            e.epoch_service_ns += service_ns;
            e.vruntime_ns += service_ns as f64 / e.weight;
        }
    }

    /// Close the current epoch: fold each entry's epoch service into its
    /// decayed CGS (Eq. 1) and reset the epoch accumulator.
    pub fn roll_epoch(&mut self) {
        for e in &mut self.rows {
            e.cgs_ns = e.next_cgs_ns();
            e.epoch_service_ns = 0;
        }
    }

    /// Close `n` epochs in one go, leaving every row bit-identical to `n`
    /// calls of [`Rcb::roll_epoch`]: the first folds the epoch's service,
    /// each later one only decays by `1 − k`, and a row whose CGS has
    /// reached zero (within about 900 steps from any finite value) stays
    /// there.
    pub fn roll_epochs(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        for e in &mut self.rows {
            let mut cgs = e.next_cgs_ns();
            let mut left = n - 1;
            while left > 0 && cgs != 0.0 {
                cgs *= IDLE_DECAY;
                left -= 1;
            }
            e.cgs_ns = cgs;
            e.epoch_service_ns = 0;
        }
    }

    /// Entry lookup.
    pub fn get(&self, app: AppId) -> Option<&RcbEntry> {
        self.idx(app).ok().map(|i| &self.rows[i])
    }

    /// All entries in app order.
    pub fn entries(&self) -> impl Iterator<Item = &RcbEntry> {
        self.rows.iter()
    }

    /// Number of registered applications.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no applications are registered.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rcb_with(apps: &[(u32, f64)]) -> Rcb {
        let mut r = Rcb::new();
        for (i, (app, w)) in apps.iter().enumerate() {
            r.register(AppId(*app), StreamId(i as u32 + 1), TenantId(*app), *w, 0);
        }
        r
    }

    #[test]
    fn vruntime_scales_inversely_with_weight() {
        let mut r = rcb_with(&[(0, 1.0), (1, 2.0)]);
        r.add_service(AppId(0), 1000);
        r.add_service(AppId(1), 1000);
        let v0 = r.get(AppId(0)).unwrap().vruntime_ns;
        let v1 = r.get(AppId(1)).unwrap().vruntime_ns;
        assert!((v0 - 1000.0).abs() < 1e-9);
        assert!((v1 - 500.0).abs() < 1e-9, "double weight → half vruntime");
    }

    #[test]
    fn cgs_decay_follows_eq1() {
        let mut r = rcb_with(&[(0, 1.0)]);
        r.add_service(AppId(0), 1000);
        r.roll_epoch();
        // CGS_1 = 0.8·1000 + 0.2·0 = 800.
        assert!((r.get(AppId(0)).unwrap().cgs_ns - 800.0).abs() < 1e-9);
        r.add_service(AppId(0), 500);
        r.roll_epoch();
        // CGS_2 = 0.8·500 + 0.2·800 = 560.
        assert!((r.get(AppId(0)).unwrap().cgs_ns - 560.0).abs() < 1e-9);
        // Idle epoch decays toward zero.
        r.roll_epoch();
        assert!((r.get(AppId(0)).unwrap().cgs_ns - 112.0).abs() < 1e-9);
    }

    #[test]
    fn epoch_accumulator_resets() {
        let mut r = rcb_with(&[(0, 1.0)]);
        r.add_service(AppId(0), 700);
        assert_eq!(r.get(AppId(0)).unwrap().epoch_service_ns, 700);
        r.roll_epoch();
        assert_eq!(r.get(AppId(0)).unwrap().epoch_service_ns, 0);
        assert_eq!(r.get(AppId(0)).unwrap().total_service_ns, 700);
    }

    #[test]
    fn late_joiner_inherits_min_vruntime() {
        let mut r = rcb_with(&[(0, 1.0)]);
        r.add_service(AppId(0), 10_000);
        r.register(AppId(1), StreamId(9), TenantId(1), 1.0, 50);
        let v1 = r.get(AppId(1)).unwrap().vruntime_ns;
        assert!((v1 - 10_000.0).abs() < 1e-9, "no catch-up starvation");
    }

    #[test]
    fn unknown_app_service_ignored() {
        let mut r = Rcb::new();
        r.add_service(AppId(3), 100); // no panic
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_weight_rejected() {
        let mut r = Rcb::new();
        r.register(AppId(0), StreamId(1), TenantId(0), 0.0, 0);
    }

    #[test]
    fn empty_table_keeps_vruntime_watermark() {
        // Regression: the min-vruntime base used to reset to 0 whenever
        // the table emptied, so an app joining a fresh busy period
        // started with a huge fairness credit over later joiners.
        let mut r = rcb_with(&[(0, 1.0)]);
        r.add_service(AppId(0), 10_000);
        r.unregister(AppId(0));
        assert!(r.is_empty());
        r.register(AppId(1), StreamId(2), TenantId(1), 1.0, 100);
        let v1 = r.get(AppId(1)).unwrap().vruntime_ns;
        assert!((v1 - 10_000.0).abs() < 1e-9, "watermark survived, got {v1}");
    }

    #[test]
    fn watermark_is_monotone_under_churn() {
        let mut r = Rcb::new();
        let mut last_base = 0.0f64;
        for round in 0..20u32 {
            let app = AppId(round);
            r.register(app, StreamId(round), TenantId(0), 1.0, u64::from(round));
            let base = r.get(app).unwrap().vruntime_ns;
            assert!(
                base >= last_base - 1e-9,
                "round {round}: joined at {base} after {last_base}"
            );
            last_base = base;
            // Alternate service amounts; empty the table every 4th round.
            r.add_service(app, 100 * u64::from(round % 7 + 1));
            r.unregister(app);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn departing_laggard_does_not_lower_watermark() {
        // A0 lags at 1_000, A1 leads at 5_000. A0 leaving must not pin
        // the watermark below what the table still carries.
        let mut r = rcb_with(&[(0, 1.0), (1, 1.0)]);
        r.add_service(AppId(0), 1_000);
        r.add_service(AppId(1), 5_000);
        r.unregister(AppId(0)); // watermark observes min = 1_000
        r.unregister(AppId(1)); // watermark rises to 5_000
        r.register(AppId(2), StreamId(7), TenantId(2), 1.0, 9);
        let v2 = r.get(AppId(2)).unwrap().vruntime_ns;
        assert!((v2 - 5_000.0).abs() < 1e-9, "got {v2}");
    }

    #[test]
    fn unregister_removes_row() {
        let mut r = rcb_with(&[(0, 1.0), (1, 1.0)]);
        assert_eq!(r.len(), 2);
        r.unregister(AppId(0));
        assert_eq!(r.len(), 1);
        assert!(r.get(AppId(0)).is_none());
        assert_eq!(r.entries().count(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A CGS value: zero, subnormal, tiny, or anything up to 1e15 ns.
    fn cgs() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            (1u64..1 << 52).prop_map(f64::from_bits),
            Just(1e-300),
            0.0..1.0,
            0.0..1e15,
        ]
    }

    proptest! {
        /// One batched roll of `n` epochs leaves every row bit-identical to
        /// `n` single rolls, across the whole run to zero (about 480 steps
        /// from 1e15) and past it.
        #[test]
        fn batched_roll_matches_single_rolls(
            rows in proptest::collection::vec((cgs(), 0u64..=1_000_000_000), 1..6),
            n in prop_oneof![0u64..4, 0u64..=2_000],
        ) {
            let mut batched = Rcb::new();
            for (i, &(cgs, service)) in rows.iter().enumerate() {
                let app = AppId(i as u32);
                batched.register(app, StreamId(i as u32), TenantId(0), 1.0, 0);
                batched.add_service(app, service);
                batched.rows[i].cgs_ns = cgs;
            }
            let mut single = batched.clone();
            batched.roll_epochs(n);
            for _ in 0..n {
                single.roll_epoch();
            }
            for (b, s) in batched.entries().zip(single.entries()) {
                prop_assert_eq!(b.cgs_ns.to_bits(), s.cgs_ns.to_bits(), "{:?}", b.app);
                prop_assert_eq!(b.epoch_service_ns, s.epoch_service_ns);
            }
        }
    }
}
