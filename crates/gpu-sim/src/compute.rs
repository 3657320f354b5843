//! The compute engine: concurrent kernels under processor sharing.
//!
//! Fermi devices run up to 16 kernels of the *same* context concurrently
//! ("space sharing"). We model contention with two coupled resources:
//!
//! * **SM occupancy** — every resident kernel `i` declares an occupancy
//!   `c_i ∈ (0,1]`; while `Σ c_i ≤ 1` nobody slows down, beyond that all
//!   kernels share compute proportionally (`slow_compute = 1/Σc_i`),
//! * **memory bandwidth** — each kernel declares a bandwidth demand `b_i`;
//!   under proportional sharing it attains `b_i · min(1, BW/Σb)` of the
//!   device bandwidth `BW`, versus `min(b_i, BW)` when alone. The slowdown
//!   is *relative to its solo rate* (a lone kernel always runs at rate 1 —
//!   its roofline-scaled solo duration already pays for limited bandwidth).
//!
//! The per-kernel progress rate is
//! `r_i = slow_compute · ((1 − m_i) + m_i · slow_bw_i)` with
//! `m_i = min(1, b_i/BW)` the kernel's memory intensity *on this device*.
//! This asymmetry is the physical mechanism behind the paper's MBF policy:
//! collocating two bandwidth-bound kernels hurts both, while pairing a
//! bandwidth-bound with a compute-bound kernel hides memory latency.

use crate::ids::JobId;
use crate::job::{Job, JobKind, KernelProfile};
use sim_core::SimTime;

/// A kernel resident on the compute engine.
#[derive(Debug, Clone)]
pub struct RunningKernel {
    /// The submitted job (always `JobKind::Kernel`).
    pub job: Job,
    /// Kernel demands (duplicated out of `job.kind` for direct access).
    pub profile: KernelProfile,
    /// Solo time remaining on *this* device, nanoseconds (fractional).
    pub remaining_ns: f64,
    /// Current progress rate in solo-ns per wall-ns (≤ 1).
    pub rate: f64,
    /// When the kernel started executing.
    pub started_at: SimTime,
}

/// Processor-sharing compute engine for one device.
#[derive(Debug)]
pub struct ComputeEngine {
    dev_bw_mbps: f64,
    max_concurrent: usize,
    running: Vec<RunningKernel>,
    last_update: SimTime,
    /// Σ occupancy over `running`, cached at the last membership change.
    /// Recomputed by a fresh in-order pass (never incrementally adjusted)
    /// so the value is bit-identical to summing on demand.
    total_occ: f64,
    /// Σ bandwidth demand over `running`, cached like `total_occ`.
    total_bw: f64,
    /// Reusable buffer for the completion check inside [`ComputeEngine::start`].
    scratch: Vec<RunningKernel>,
}

impl ComputeEngine {
    /// New engine for a device with the given memory bandwidth and
    /// concurrent-kernel limit.
    pub fn new(dev_bw_mbps: f64, max_concurrent: usize) -> Self {
        ComputeEngine {
            dev_bw_mbps,
            max_concurrent,
            running: Vec::new(),
            last_update: 0,
            total_occ: 0.0,
            total_bw: 0.0,
            scratch: Vec::new(),
        }
    }

    /// Number of resident kernels.
    pub fn len(&self) -> usize {
        self.running.len()
    }

    /// True if no kernels are resident.
    pub fn is_empty(&self) -> bool {
        self.running.is_empty()
    }

    /// True if another kernel may start.
    pub fn has_capacity(&self) -> bool {
        self.running.len() < self.max_concurrent
    }

    /// Fermi admission rule: a kernel launches only when enough SM
    /// resources are free — concurrent residency requires the combined
    /// occupancy to fit (an oversized kernel still runs once the engine is
    /// empty). Without this, memory-hungry kernels would pile up under
    /// processor sharing, which real hardware does not do.
    pub fn can_admit(&self, occupancy: f64) -> bool {
        if !self.has_capacity() {
            return false;
        }
        if self.running.is_empty() {
            return true;
        }
        self.total_occ + occupancy <= 1.0 + 1e-9
    }

    /// Resident kernels (inspection only).
    pub fn running(&self) -> &[RunningKernel] {
        &self.running
    }

    /// Instantaneous compute utilization: total SM occupancy, capped at 1.
    pub fn occupancy(&self) -> f64 {
        self.total_occ.min(1.0)
    }

    /// Instantaneous bandwidth use as a fraction of device bandwidth,
    /// capped at 1.
    pub fn bandwidth_use(&self) -> f64 {
        (self.total_bw / self.dev_bw_mbps).min(1.0)
    }

    /// Integrate kernel progress up to `now` and return kernels that have
    /// finished (remaining work reached zero), in deterministic order of
    /// (finish-precision, job id).
    pub fn advance(&mut self, now: SimTime) -> Vec<RunningKernel> {
        let mut finished = Vec::new();
        self.advance_into(now, &mut finished);
        finished
    }

    /// Allocation-free [`ComputeEngine::advance`]: finished kernels are
    /// appended to `out` (deterministically sorted by job id within this
    /// call's batch).
    pub fn advance_into(&mut self, now: SimTime, out: &mut Vec<RunningKernel>) {
        debug_assert!(now >= self.last_update);
        let dt = (now - self.last_update) as f64;
        self.last_update = now;
        if dt > 0.0 {
            for k in &mut self.running {
                k.remaining_ns -= k.rate * dt;
            }
        }
        // Collect finished kernels (remaining work at or below float noise;
        // next_completion() uses ceil(), so the scheduled event time always
        // integrates remaining to <= ~1 ulp).
        let before = out.len();
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].remaining_ns <= 1e-6 {
                out.push(self.running.remove(i));
            } else {
                i += 1;
            }
        }
        if out.len() > before {
            out[before..].sort_by_key(|k| k.job.id);
            self.recompute_rates();
        }
    }

    /// Admit a kernel. `solo_ns` is its solo duration on *this* device
    /// (already roofline-scaled by the caller from the reference work).
    ///
    /// # Panics
    /// Panics if the engine is at its concurrency limit or the job is not a
    /// kernel — callers check [`ComputeEngine::has_capacity`] first.
    pub fn start(&mut self, job: Job, solo_ns: u64, now: SimTime) {
        assert!(self.has_capacity(), "compute engine over capacity");
        let profile = match job.kind {
            JobKind::Kernel(p) => p,
            _ => panic!("non-kernel job submitted to compute engine"),
        };
        // Integrate others up to now before membership changes.
        let mut done = std::mem::take(&mut self.scratch);
        self.advance_into(now, &mut done);
        debug_assert!(
            done.is_empty(),
            "start() called with unharvested completions"
        );
        done.clear();
        self.scratch = done;
        self.running.push(RunningKernel {
            job,
            profile,
            remaining_ns: solo_ns.max(1) as f64,
            rate: 1.0,
            started_at: now,
        });
        self.recompute_rates();
    }

    /// Earliest absolute time at which some kernel completes, given current
    /// rates; `None` when idle.
    pub fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        self.running
            .iter()
            .map(|k| {
                let dt = if k.rate > 0.0 {
                    (k.remaining_ns / k.rate).ceil() as u64
                } else {
                    u64::MAX / 4 // starved: effectively never (bounded to avoid overflow)
                };
                now + dt.max(1)
            })
            .min()
    }

    /// Attained-service rate of a given resident job (for monitors); `None`
    /// if the job is not resident.
    pub fn rate_of(&self, id: JobId) -> Option<f64> {
        self.running.iter().find(|k| k.job.id == id).map(|k| k.rate)
    }

    /// Refresh rates and the Σ-occupancy/Σ-bandwidth caches. Called only on
    /// membership change; the sums are always recomputed from scratch in
    /// membership order (an incremental add/subtract would drift in the last
    /// float bits and change admission decisions).
    fn recompute_rates(&mut self) {
        let total_occ: f64 = self.running.iter().map(|k| k.profile.occupancy).sum();
        let total_bw: f64 = self.running.iter().map(|k| k.profile.bw_demand_mbps).sum();
        self.total_occ = total_occ;
        self.total_bw = total_bw;
        let slow_compute = if total_occ > 1.0 {
            1.0 / total_occ
        } else {
            1.0
        };
        for k in &mut self.running {
            // Bandwidth slowdown is relative to the kernel's *solo* rate on
            // this device: the roofline scaling of its solo duration already
            // charges it for the device's bandwidth, so a lone kernel always
            // runs at rate 1. Under proportional sharing a kernel attains
            // `b·min(1, BW/Σb)`; solo it attains `min(b, BW)`.
            let b = k.profile.bw_demand_mbps;
            let slow_bw = if b > 0.0 {
                let solo_attained = b.min(self.dev_bw_mbps);
                let shared_attained = b * (self.dev_bw_mbps / total_bw).min(1.0);
                shared_attained / solo_attained
            } else {
                1.0
            };
            let m = k.profile.mem_intensity(self.dev_bw_mbps);
            k.rate = slow_compute * ((1.0 - m) + m * slow_bw);
            debug_assert!(k.rate > 0.0 && k.rate <= 1.0 + 1e-9);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ContextId, StreamId};

    const BW: f64 = 144_000.0;

    fn kjob(id: u32, occupancy: f64, bw: f64) -> Job {
        Job {
            id: JobId(id),
            ctx: ContextId(0),
            stream: StreamId(id),
            kind: JobKind::Kernel(KernelProfile {
                work_ref_ns: 1_000_000,
                occupancy,
                bw_demand_mbps: bw,
            }),
            tag: id as u64,
            submitted_at: 0,
        }
    }

    #[test]
    fn solo_kernel_runs_at_full_rate() {
        let mut e = ComputeEngine::new(BW, 16);
        e.start(kjob(0, 0.5, 1000.0), 1_000_000, 0);
        assert_eq!(e.next_completion(0), Some(1_000_000));
        let done = e.advance(1_000_000);
        assert_eq!(done.len(), 1);
        assert!(e.is_empty());
    }

    #[test]
    fn two_small_kernels_dont_interfere() {
        // occupancy 0.4 + 0.4 <= 1, low bandwidth: both run at rate 1.
        let mut e = ComputeEngine::new(BW, 16);
        e.start(kjob(0, 0.4, 1000.0), 1_000_000, 0);
        e.start(kjob(1, 0.4, 1000.0), 1_000_000, 0);
        assert_eq!(e.next_completion(0), Some(1_000_000));
        let done = e.advance(1_000_000);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn oversubscribed_occupancy_shares_proportionally() {
        // Two full-occupancy kernels: each runs at rate 0.5.
        let mut e = ComputeEngine::new(BW, 16);
        e.start(kjob(0, 1.0, 0.0), 1_000_000, 0);
        e.start(kjob(1, 1.0, 0.0), 1_000_000, 0);
        assert_eq!(e.next_completion(0), Some(2_000_000));
        assert_eq!(e.advance(1_999_999).len(), 0);
        assert_eq!(e.advance(2_000_000).len(), 2);
    }

    #[test]
    fn bandwidth_contention_hits_memory_bound_kernels_only() {
        // Kernel A is bandwidth-saturating (m=1), kernel B compute-bound (m~0).
        let mut e = ComputeEngine::new(BW, 16);
        e.start(kjob(0, 0.4, BW), 1_000_000, 0); // memory hog
        e.start(kjob(1, 0.4, 100.0), 1_000_000, 0); // compute-bound
        let ra = e.rate_of(JobId(0)).unwrap();
        let rb = e.rate_of(JobId(1)).unwrap();
        // Total bw demand = BW + 100 → slight oversubscription.
        assert!(ra < 1.0, "memory-bound kernel must slow: {ra}");
        assert!(rb > 0.99, "compute-bound kernel barely affected: {rb}");
    }

    #[test]
    fn two_memory_hogs_halve_each_other() {
        let mut e = ComputeEngine::new(BW, 16);
        e.start(kjob(0, 0.3, BW), 1_000_000, 0);
        e.start(kjob(1, 0.3, BW), 1_000_000, 0);
        let ra = e.rate_of(JobId(0)).unwrap();
        assert!((ra - 0.5).abs() < 1e-9, "rate {ra} should be 0.5");
    }

    #[test]
    fn mixed_pair_beats_hog_pair_in_makespan() {
        // The MBF rationale: (mem-hog + compute) finishes sooner than
        // (mem-hog + mem-hog) for identical total work.
        let solo = 1_000_000u64;

        let mut hogs = ComputeEngine::new(BW, 16);
        hogs.start(kjob(0, 0.3, BW), solo, 0);
        hogs.start(kjob(1, 0.3, BW), solo, 0);
        let hog_finish = hogs.next_completion(0).unwrap();

        let mut mixed = ComputeEngine::new(BW, 16);
        mixed.start(kjob(0, 0.3, BW), solo, 0);
        mixed.start(kjob(1, 0.3, 100.0), solo, 0);
        let mixed_finish = mixed.next_completion(0).unwrap();

        assert!(
            mixed_finish < hog_finish,
            "mixed {mixed_finish} !< hogs {hog_finish}"
        );
    }

    #[test]
    fn rates_recomputed_when_kernel_leaves() {
        let mut e = ComputeEngine::new(BW, 16);
        e.start(kjob(0, 1.0, 0.0), 1_000_000, 0);
        e.start(kjob(1, 1.0, 0.0), 2_000_000, 0);
        // Both at rate 0.5; kernel 0 finishes at t=2ms.
        let done = e.advance(2_000_000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].job.id, JobId(0));
        // Kernel 1 now alone at rate 1.0 with 1ms solo work left.
        assert_eq!(e.next_completion(2_000_000), Some(3_000_000));
    }

    #[test]
    fn capacity_limit_enforced() {
        let mut e = ComputeEngine::new(BW, 2);
        e.start(kjob(0, 0.1, 0.0), 100, 0);
        e.start(kjob(1, 0.1, 0.0), 100, 0);
        assert!(!e.has_capacity());
    }

    #[test]
    fn occupancy_and_bandwidth_telemetry() {
        let mut e = ComputeEngine::new(BW, 16);
        assert_eq!(e.occupancy(), 0.0);
        e.start(kjob(0, 0.6, 72_000.0), 1_000_000, 0);
        assert!((e.occupancy() - 0.6).abs() < 1e-12);
        assert!((e.bandwidth_use() - 0.5).abs() < 1e-12);
        e.start(kjob(1, 0.6, 144_000.0), 1_000_000, 0);
        assert_eq!(e.occupancy(), 1.0); // capped
        assert_eq!(e.bandwidth_use(), 1.0); // capped
    }

    #[test]
    fn advance_is_exact_across_partial_steps() {
        let mut e = ComputeEngine::new(BW, 16);
        e.start(kjob(0, 1.0, 0.0), 1_000_000, 0);
        // Integrate in several partial steps; completion must land exactly.
        assert!(e.advance(250_000).is_empty());
        assert!(e.advance(999_999).is_empty());
        assert_eq!(e.advance(1_000_000).len(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ids::{ContextId, StreamId};
    use proptest::prelude::*;

    proptest! {
        /// Conservation: total work completed never exceeds elapsed time
        /// times the number of kernels, and every kernel eventually finishes.
        #[test]
        fn kernels_always_finish(
            n in 1usize..8,
            occ in 0.05f64..1.0,
            bw in 0.0f64..200_000.0,
            work in 1_000u64..1_000_000,
        ) {
            let mut e = ComputeEngine::new(144_000.0, 16);
            for i in 0..n {
                let job = Job {
                    id: JobId(i as u32),
                    ctx: ContextId(0),
                    stream: StreamId(i as u32),
                    kind: JobKind::Kernel(KernelProfile {
                        work_ref_ns: work,
                        occupancy: occ,
                        bw_demand_mbps: bw,
                    }),
                    tag: 0,
                    submitted_at: 0,
                };
                e.start(job, work, 0);
            }
            // Worst-case rate from the sharing model at full membership:
            // rates only improve as kernels leave, so this bounds makespan.
            let bw_dev = 144_000.0;
            let slow_c = (1.0 / (n as f64 * occ)).min(1.0);
            let slow_b = (bw_dev / (n as f64 * bw)).min(1.0);
            let m = (bw / bw_dev).min(1.0);
            let worst_rate = slow_c * ((1.0 - m) + m * slow_b);
            let mut done = 0;
            let mut now = 0;
            let mut guard = 0;
            while done < n {
                let t = e.next_completion(now).expect("work pending but no completion");
                prop_assert!(t > now);
                now = t;
                done += e.advance(now).len();
                guard += 1;
                prop_assert!(guard < 1000, "did not converge");
            }
            prop_assert!(now as f64 <= work as f64 / worst_rate * 1.01 + 2.0);
            prop_assert!(e.is_empty());
        }

        /// Rates are always within (0, 1].
        #[test]
        fn rates_bounded(specs in proptest::collection::vec((0.05f64..1.0, 0.0f64..300_000.0), 1..10)) {
            let mut e = ComputeEngine::new(144_000.0, 16);
            for (i, (occ, bw)) in specs.iter().enumerate() {
                let job = Job {
                    id: JobId(i as u32),
                    ctx: ContextId(0),
                    stream: StreamId(i as u32),
                    kind: JobKind::Kernel(KernelProfile {
                        work_ref_ns: 1000,
                        occupancy: *occ,
                        bw_demand_mbps: *bw,
                    }),
                    tag: 0,
                    submitted_at: 0,
                };
                e.start(job, 1000, 0);
            }
            for k in e.running() {
                // ≤ 1 up to float rounding in the sharing ratio.
                prop_assert!(k.rate > 0.0 && k.rate <= 1.0 + 1e-9);
            }
        }
    }
}
