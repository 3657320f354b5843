//! Per-device telemetry.
//!
//! Tracks the three signals the paper plots or feeds back to the scheduler:
//! compute-engine occupancy, memory-bandwidth use, and copy-engine activity.
//! These drive Figure 1 (compute/memory characterization heat-map),
//! Figure 2 (utilization timelines), and the Request Monitor's feedback.
//!
//! Occupancy and bandwidth change together, whenever the compute engine's
//! kernel set does, so they are the two lanes of one timeline: the
//! `compute` tracker records occupancy, and bandwidth is its second lane
//! ([`DeviceTelemetry::bandwidth`]), so each change point's time is
//! stored once.

use serde::{Deserialize, Serialize};
use sim_core::telemetry::{Lane, UtilizationTracker};
use sim_core::SimTime;
use std::fmt;

/// Bundle of utilization signals for one device.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct DeviceTelemetry {
    /// SM occupancy over time (0..1), zero while context-switching; its
    /// second lane is memory-bandwidth use ([`DeviceTelemetry::bandwidth`]).
    pub compute: UtilizationTracker,
    /// Fraction of copy engines busy over time (0..1).
    pub copy: UtilizationTracker,
    /// 1.0 while the driver is switching contexts, else 0.0.
    pub switching: UtilizationTracker,
    /// Cumulative context switches performed.
    pub context_switches: u64,
    /// Cumulative nanoseconds spent switching contexts.
    pub switch_ns: u64,
    /// Cumulative kernels completed.
    pub kernels_completed: u64,
    /// Cumulative copies completed.
    pub copies_completed: u64,
    /// Cumulative bytes moved H2D.
    pub h2d_bytes: u64,
    /// Cumulative bytes moved D2H.
    pub d2h_bytes: u64,
}

impl DeviceTelemetry {
    /// Record the current engine levels at `now`.
    pub fn sample(&mut self, now: SimTime, compute: f64, bandwidth: f64, copy_busy_frac: f64) {
        self.compute.record_pair(now, compute, bandwidth);
        self.copy.record(now, copy_busy_frac);
    }

    /// Memory bandwidth use over time (0..1 of device bandwidth) — the
    /// paper's Figure 1 "memory characteristic".
    pub fn bandwidth(&self) -> Lane<'_> {
        self.compute.second()
    }

    /// Record the start (`true`) or end (`false`) of a context switch.
    pub fn mark_switching(&mut self, now: SimTime, switching: bool) {
        self.switching
            .record(now, if switching { 1.0 } else { 0.0 });
        if switching {
            self.context_switches += 1;
        }
    }
}

/// Renders as a struct with `bandwidth` beside `compute`, each as its own
/// tracker.
impl fmt::Debug for DeviceTelemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeviceTelemetry")
            .field("compute", &self.compute)
            .field("bandwidth", &self.bandwidth())
            .field("copy", &self.copy)
            .field("switching", &self.switching)
            .field("context_switches", &self.context_switches)
            .field("switch_ns", &self.switch_ns)
            .field("kernels_completed", &self.kernels_completed)
            .field("copies_completed", &self.copies_completed)
            .field("h2d_bytes", &self.h2d_bytes)
            .field("d2h_bytes", &self.d2h_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_feeds_trackers() {
        let mut t = DeviceTelemetry::default();
        t.sample(0, 0.5, 0.25, 0.0);
        t.sample(100, 1.0, 0.5, 1.0);
        t.sample(200, 0.0, 0.0, 0.0);
        assert!((t.compute.mean_over(0, 200) - 0.75).abs() < 1e-12);
        assert!((t.bandwidth().mean_over(0, 200) - 0.375).abs() < 1e-12);
        assert!((t.copy.mean_over(0, 200) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn switching_counter() {
        let mut t = DeviceTelemetry::default();
        t.mark_switching(10, true);
        t.mark_switching(20, false);
        t.mark_switching(50, true);
        t.mark_switching(65, false);
        assert_eq!(t.context_switches, 2);
        assert!((t.switching.mean_over(0, 100) - 0.25).abs() < 1e-12);
    }
}
