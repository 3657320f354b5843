//! Time-weighted telemetry.
//!
//! [`UtilizationTracker`] records a piecewise-constant "level" signal over
//! virtual time (e.g. *fraction of GPU compute engine busy*), supporting:
//!
//! * exact time-weighted averages over any window (for Table-I-style
//!   utilization percentages), and
//! * down-sampling into fixed-width buckets (for the Figure 1 heat-map and
//!   Figure 2 utilization-vs-time series).

use crate::time::{SimTime, NS_PER_SEC};
use serde::{Deserialize, Serialize};

/// One step of a piecewise-constant signal: the signal holds `level` from
/// `at` until the next sample's `at`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Time at which the level took effect.
    pub at: SimTime,
    /// Signal level from `at` onwards.
    pub level: f64,
}

/// Records a piecewise-constant signal over virtual time.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UtilizationTracker {
    samples: Vec<Sample>,
}

impl UtilizationTracker {
    /// New tracker; the signal is implicitly 0.0 until the first sample.
    pub fn new() -> Self {
        UtilizationTracker {
            samples: Vec::new(),
        }
    }

    /// Record that the signal changed to `level` at time `at`.
    ///
    /// Consecutive equal levels are coalesced. Out-of-order records are
    /// rejected in debug builds (the executive always observes time forward).
    pub fn record(&mut self, at: SimTime, level: f64) {
        if let Some(last) = self.samples.last() {
            debug_assert!(at >= last.at, "telemetry time went backwards");
            if last.level == level {
                return;
            }
            if last.at == at {
                // replace instantaneous blip
                self.samples.pop();
                if let Some(prev) = self.samples.last() {
                    if prev.level == level {
                        return;
                    }
                }
            }
        } else if level == 0.0 {
            return; // implicit leading zero
        }
        self.samples.push(Sample { at, level });
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if nothing was recorded (signal identically zero).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Raw samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Signal level at time `t`. Queries at or after the last step (the
    /// executive's metrics sample at `now`) read the tail without a
    /// search.
    pub fn level_at(&self, t: SimTime) -> f64 {
        if let Some(last) = self.samples.last().filter(|s| s.at <= t) {
            return last.level;
        }
        match self.samples.partition_point(|s| s.at <= t) {
            0 => 0.0,
            i => self.samples[i - 1].level,
        }
    }

    /// Exact time-weighted mean of the signal over `[from, to)`.
    pub fn mean_over(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        let mut acc = 0.0f64;
        let mut cursor = from;
        let mut level = self.level_at(from);
        let start = self.samples.partition_point(|s| s.at <= from);
        for s in &self.samples[start..] {
            if s.at >= to {
                break;
            }
            acc += level * (s.at - cursor) as f64;
            cursor = s.at;
            level = s.level;
        }
        acc += level * (to - cursor) as f64;
        acc / (to - from) as f64
    }

    /// Total time in `[from, to)` during which the signal was strictly
    /// positive ("busy time"), in nanoseconds.
    pub fn busy_ns(&self, from: SimTime, to: SimTime) -> u64 {
        if to <= from {
            return 0;
        }
        let mut busy = 0u64;
        let mut cursor = from;
        let mut level = self.level_at(from);
        let start = self.samples.partition_point(|s| s.at <= from);
        for s in &self.samples[start..] {
            if s.at >= to {
                break;
            }
            if level > 0.0 {
                busy += s.at - cursor;
            }
            cursor = s.at;
            level = s.level;
        }
        if level > 0.0 {
            busy += to - cursor;
        }
        busy
    }

    /// Down-sample into `n` equal buckets over `[from, to)`; each bucket is
    /// the time-weighted mean level within it. Used to print utilization
    /// timelines (Figure 2).
    ///
    /// Boundaries are computed in integer arithmetic so adjacent buckets
    /// tile `[from, to)` exactly: bucket `i` covers
    /// `[from + span*i/n, from + span*(i+1)/n)`, and the last bucket ends
    /// exactly at `to` — its mean is weighted by its *actual* width, never
    /// by a rounded-up phantom nanosecond past the window.
    pub fn bucketize(&self, from: SimTime, to: SimTime, n: usize) -> Vec<f64> {
        assert!(n > 0 && to > from);
        let span = (to - from) as u128;
        let edge = |i: usize| from + (span * i as u128 / n as u128) as u64;
        (0..n)
            .map(|i| {
                let b0 = edge(i);
                let b1 = edge(i + 1);
                // A degenerate (zero-width) bucket only occurs when n > span;
                // report the instantaneous level there.
                if b1 > b0 {
                    self.mean_over(b0, b1)
                } else {
                    self.level_at(b0)
                }
            })
            .collect()
    }

    /// Count "idle gaps": maximal intervals within `[from, to)` of at least
    /// `min_gap_ns` during which the signal is zero. These are the visible
    /// "glitches" of the paper's Figure 2.
    pub fn idle_gaps(&self, from: SimTime, to: SimTime, min_gap_ns: u64) -> usize {
        let mut gaps = 0;
        let mut cursor = from;
        let mut level = self.level_at(from);
        let start = self.samples.partition_point(|s| s.at <= from);
        for s in &self.samples[start..] {
            if s.at >= to {
                break;
            }
            if level == 0.0 && s.at - cursor >= min_gap_ns {
                gaps += 1;
            }
            cursor = s.at;
            level = s.level;
        }
        if level == 0.0 && to > cursor && to - cursor >= min_gap_ns {
            gaps += 1;
        }
        gaps
    }

    /// Change points of the signal within `[from, to)` (used by the
    /// combined-signal helpers).
    fn change_points(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = SimTime> + '_ {
        self.samples
            .iter()
            .map(|s| s.at)
            .filter(move |t| *t > from && *t < to)
    }

    /// Render the tracker as `(seconds, level)` pairs for report output.
    pub fn as_seconds_series(&self) -> Vec<(f64, f64)> {
        self.samples
            .iter()
            .map(|s| (s.at as f64 / NS_PER_SEC as f64, s.level))
            .collect()
    }
}

/// Fraction of `[from, to)` during which *any* of the trackers is strictly
/// positive — e.g. "some GPU engine is busy".
pub fn combined_busy_fraction(trackers: &[&UtilizationTracker], from: SimTime, to: SimTime) -> f64 {
    if to <= from || trackers.is_empty() {
        return 0.0;
    }
    let mut points: Vec<SimTime> = trackers
        .iter()
        .flat_map(|t| t.change_points(from, to))
        .collect();
    points.push(from);
    points.sort_unstable();
    points.dedup();
    let mut busy = 0u64;
    for (i, &p) in points.iter().enumerate() {
        let next = points.get(i + 1).copied().unwrap_or(to);
        if trackers.iter().any(|t| t.level_at(p) > 0.0) {
            busy += next - p;
        }
    }
    busy as f64 / (to - from) as f64
}

/// Maximal intervals of at least `min_gap_ns` within `[from, to)` during
/// which **every** tracker is zero — the device-wide idle "glitches" of the
/// paper's Figure 2 when applied to the compute + copy engines.
pub fn combined_idle_gaps(
    trackers: &[&UtilizationTracker],
    from: SimTime,
    to: SimTime,
    min_gap_ns: u64,
) -> usize {
    if to <= from || trackers.is_empty() {
        return 0;
    }
    let mut points: Vec<SimTime> = trackers
        .iter()
        .flat_map(|t| t.change_points(from, to))
        .collect();
    points.push(from);
    points.sort_unstable();
    points.dedup();
    let mut gaps = 0;
    let mut idle_since: Option<SimTime> = None;
    for (i, &p) in points.iter().enumerate() {
        let next = points.get(i + 1).copied().unwrap_or(to);
        let idle = trackers.iter().all(|t| t.level_at(p) == 0.0);
        match (idle, idle_since) {
            (true, None) => idle_since = Some(p),
            (false, Some(start)) => {
                if p - start >= min_gap_ns {
                    gaps += 1;
                }
                idle_since = None;
            }
            _ => {}
        }
        if i + 1 == points.len() {
            if let Some(start) = idle_since {
                if next - start >= min_gap_ns {
                    gaps += 1;
                }
            }
        }
    }
    gaps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_wave() -> UtilizationTracker {
        // 0 on [0,10), 1 on [10,20), 0 on [20,30), 0.5 on [30,40)
        let mut t = UtilizationTracker::new();
        t.record(10, 1.0);
        t.record(20, 0.0);
        t.record(30, 0.5);
        t.record(40, 0.0);
        t
    }

    #[test]
    fn level_at_queries() {
        let t = square_wave();
        assert_eq!(t.level_at(0), 0.0);
        assert_eq!(t.level_at(10), 1.0);
        assert_eq!(t.level_at(15), 1.0);
        assert_eq!(t.level_at(20), 0.0);
        assert_eq!(t.level_at(35), 0.5);
        assert_eq!(t.level_at(1000), 0.0);
    }

    #[test]
    fn mean_over_windows() {
        let t = square_wave();
        assert!((t.mean_over(0, 20) - 0.5).abs() < 1e-12);
        assert!((t.mean_over(10, 20) - 1.0).abs() < 1e-12);
        assert!((t.mean_over(0, 40) - (10.0 + 5.0) / 40.0).abs() < 1e-12);
        assert_eq!(t.mean_over(5, 5), 0.0);
    }

    #[test]
    fn busy_time() {
        let t = square_wave();
        assert_eq!(t.busy_ns(0, 40), 20);
        assert_eq!(t.busy_ns(0, 15), 5);
        assert_eq!(t.busy_ns(25, 35), 5);
    }

    #[test]
    fn coalesces_equal_levels() {
        let mut t = UtilizationTracker::new();
        t.record(0, 0.0); // implicit zero dropped
        t.record(5, 1.0);
        t.record(7, 1.0); // coalesced
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn instantaneous_blip_replaced() {
        let mut t = UtilizationTracker::new();
        t.record(5, 1.0);
        t.record(5, 0.5); // same instant: replaces
        assert_eq!(t.len(), 1);
        assert_eq!(t.level_at(5), 0.5);
    }

    #[test]
    fn bucketize_square_wave() {
        let t = square_wave();
        let buckets = t.bucketize(0, 40, 4);
        assert_eq!(buckets.len(), 4);
        assert!((buckets[0] - 0.0).abs() < 1e-9);
        assert!((buckets[1] - 1.0).abs() < 1e-9);
        assert!((buckets[2] - 0.0).abs() < 1e-9);
        assert!((buckets[3] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn bucketize_uneven_window_weights_last_bucket_by_actual_width() {
        // Signal: 1.0 on [0, 7), 0.0 afterwards. 3 buckets over [0, 10):
        // integer edges 0|3|6|10 — the last bucket is [6,10), 4 ns wide,
        // of which [6,7) is busy: mean 0.25 exactly.
        let mut t = UtilizationTracker::new();
        t.record(0, 1.0);
        t.record(7, 0.0);
        let b = t.bucketize(0, 10, 3);
        assert_eq!(b.len(), 3);
        assert!((b[0] - 1.0).abs() < 1e-12);
        assert!((b[1] - 1.0).abs() < 1e-12);
        assert!((b[2] - 0.25).abs() < 1e-12, "got {}", b[2]);
    }

    #[test]
    fn bucketize_tiles_window_exactly() {
        // Weighted bucket means must reassemble the whole-window mean —
        // only true when buckets tile [from, to) with no gap or overlap.
        let t = square_wave();
        let (from, to, n) = (1u64, 38, 7);
        let edges: Vec<u64> = (0..=n)
            .map(|i| from + ((to - from) as u128 * i as u128 / n as u128) as u64)
            .collect();
        let b = t.bucketize(from, to, n as usize);
        let stitched: f64 = b
            .iter()
            .zip(edges.windows(2))
            .map(|(m, w)| m * (w[1] - w[0]) as f64)
            .sum::<f64>()
            / (to - from) as f64;
        assert!((stitched - t.mean_over(from, to)).abs() < 1e-12);
    }

    #[test]
    fn bucketize_more_buckets_than_nanoseconds() {
        let mut t = UtilizationTracker::new();
        t.record(1, 1.0);
        t.record(2, 0.0);
        // 4 buckets over a 2 ns window: two are zero-width and must not
        // panic or read outside the window.
        let b = t.bucketize(0, 2, 4);
        assert_eq!(b.len(), 4);
        for v in &b {
            assert!((0.0..=1.0).contains(v));
        }
    }

    #[test]
    fn idle_gap_detection() {
        let t = square_wave();
        // idle on [0,10), [20,30), [40,40) -> two gaps of 10
        assert_eq!(t.idle_gaps(0, 40, 10), 2);
        assert_eq!(t.idle_gaps(0, 40, 11), 0);
        assert_eq!(t.idle_gaps(0, 50, 10), 3); // trailing idle [40,50)
    }

    #[test]
    fn combined_busy_unions_trackers() {
        // A busy [10,20), B busy [15,30): union busy [10,30) of [0,40).
        let mut a = UtilizationTracker::new();
        a.record(10, 1.0);
        a.record(20, 0.0);
        let mut b = UtilizationTracker::new();
        b.record(15, 0.5);
        b.record(30, 0.0);
        let f = combined_busy_fraction(&[&a, &b], 0, 40);
        assert!((f - 0.5).abs() < 1e-9, "got {f}");
    }

    #[test]
    fn combined_idle_gaps_require_all_idle() {
        let mut a = UtilizationTracker::new();
        a.record(10, 1.0);
        a.record(20, 0.0);
        let mut b = UtilizationTracker::new();
        b.record(15, 0.5);
        b.record(30, 0.0);
        // Idle: [0,10) and [30,40).
        assert_eq!(combined_idle_gaps(&[&a, &b], 0, 40, 10), 2);
        assert_eq!(combined_idle_gaps(&[&a, &b], 0, 40, 11), 0);
        // A single tracker sees its own gaps.
        assert_eq!(combined_idle_gaps(&[&a], 0, 40, 10), 2);
    }

    #[test]
    fn combined_empty_inputs() {
        let a = UtilizationTracker::new();
        assert_eq!(combined_busy_fraction(&[], 0, 10), 0.0);
        assert_eq!(combined_busy_fraction(&[&a], 10, 10), 0.0);
        assert_eq!(combined_idle_gaps(&[], 0, 10, 1), 0);
        // An always-idle tracker over [0,10) is one big gap.
        assert_eq!(combined_idle_gaps(&[&a], 0, 10, 5), 1);
    }

    #[test]
    fn seconds_series_conversion() {
        let mut t = UtilizationTracker::new();
        t.record(NS_PER_SEC, 0.75);
        let series = t.as_seconds_series();
        assert_eq!(series.len(), 1);
        assert!((series[0].0 - 1.0).abs() < 1e-12);
        assert_eq!(series[0].1, 0.75);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// mean_over of a full window must be bounded by observed levels.
        #[test]
        fn mean_bounded(levels in proptest::collection::vec(0.0f64..1.0, 1..50)) {
            let mut t = UtilizationTracker::new();
            for (i, &l) in levels.iter().enumerate() {
                t.record((i as u64 + 1) * 10, l);
            }
            let end = (levels.len() as u64 + 1) * 10;
            let m = t.mean_over(0, end);
            prop_assert!((0.0..=1.0).contains(&m));
        }

        /// Splitting a window in two and averaging with time weights equals
        /// the whole-window mean.
        #[test]
        fn mean_is_additive(levels in proptest::collection::vec(0.0f64..1.0, 1..30), cut in 1u64..290) {
            let mut t = UtilizationTracker::new();
            for (i, &l) in levels.iter().enumerate() {
                t.record((i as u64 + 1) * 10, l);
            }
            let end = 300u64;
            let cut = cut.min(end - 1).max(1);
            let whole = t.mean_over(0, end);
            let left = t.mean_over(0, cut);
            let right = t.mean_over(cut, end);
            let stitched = (left * cut as f64 + right * (end - cut) as f64) / end as f64;
            prop_assert!((whole - stitched).abs() < 1e-9);
        }
    }
}
