//! Host-program synthesis from application profiles.
//!
//! A request is `k` iterations of the canonical offload pattern the paper's
//! Phase Selection policy exploits (its Figure 7b phases):
//!
//! ```text
//! cudaSetDevice(preferred)
//! cudaMalloc
//! k × [ CPU phase → H2D memcpy → kernel launch → device sync → D2H memcpy ]
//! cudaFree
//! cudaThreadExit
//! ```
//!
//! Phase durations are sized so the standalone runtime on the *reference*
//! device reproduces the profile's Table I totals: copies are sized in bytes
//! such that a pageable PCIe transfer takes the profile's per-iteration
//! transfer time (so the MOT's pinned staging genuinely speeds them up).

use crate::profile::AppProfile;
use cuda_sim::call::CudaCall;
use cuda_sim::program::HostProgram;
use gpu_sim::job::{CopyDirection, KernelProfile};
use gpu_sim::spec::DeviceSpec;
use sim_core::rng::SimRng;
use sim_core::SimDuration;

/// Generates host programs from profiles.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    /// Device the application believes it should use (`cudaSetDevice`
    /// argument) — device 0 by default, the classic static-collision case.
    pub preferred_device: u32,
    /// Multiplicative jitter amplitude on phase durations (0 disables).
    pub jitter: f64,
}

impl Default for TraceGenerator {
    fn default() -> Self {
        TraceGenerator {
            preferred_device: 0,
            jitter: 0.05,
        }
    }
}

impl TraceGenerator {
    /// Fraction of transfer bytes that move host→device (the remainder
    /// returns device→host).
    const H2D_SHARE: f64 = 0.6;

    /// Generate one request's program. Jitter draws come from `rng`, so a
    /// given seed yields identical traces.
    pub fn generate(&self, profile: &AppProfile, rng: &mut SimRng) -> HostProgram {
        let k = profile.iterations();
        let ref_spec = DeviceSpec::reference();
        // Pageable PCIe rate on the reference device, bytes/ns.
        let pageable_rate = ref_spec.pcie_gbps * 0.5; // GB/s == bytes/ns

        let cpu_iter = profile.cpu_time().as_ns() as f64 / k as f64;
        let kern_iter = profile.kernel_time().as_ns() as f64 / k as f64;
        let xfer_iter = profile.transfer_time().as_ns() as f64 / k as f64;

        let h2d_ns = xfer_iter * Self::H2D_SHARE;
        let d2h_ns = xfer_iter * (1.0 - Self::H2D_SHARE);
        let h2d_bytes = (h2d_ns * pageable_rate).round().max(1.0) as u64;
        let d2h_bytes = (d2h_ns * pageable_rate).round().max(1.0) as u64;
        // Device footprint: the working buffer is *reused* across the many
        // latency-bound copies our per-iteration transfer aggregates, so the
        // allocation is far smaller than the total traffic (a 2048-point
        // Monte Carlo does not hold gigabytes resident). Cap at 128 MiB.
        let alloc_bytes = (h2d_bytes + d2h_bytes).clamp(1 << 20, 128 << 20);

        let bw_demand = profile.kernel_bw_demand_mbps();

        let mut p = HostProgram::new();
        p.call(CudaCall::SetDevice {
            device: self.preferred_device,
        });
        p.call(CudaCall::Malloc { bytes: alloc_bytes });
        for _ in 0..k {
            let j = rng.jitter(self.jitter);
            p.cpu(SimDuration::from_ns((cpu_iter * j).round() as u64));
            if h2d_bytes > 1 {
                p.call(CudaCall::Memcpy {
                    dir: CopyDirection::HostToDevice,
                    bytes: ((h2d_bytes as f64) * j).round() as u64,
                });
            }
            p.call(CudaCall::LaunchKernel {
                kernel: KernelProfile {
                    work_ref_ns: (kern_iter * j).round().max(1.0) as u64,
                    occupancy: profile.occupancy,
                    bw_demand_mbps: bw_demand,
                },
            });
            p.call(CudaCall::DeviceSynchronize);
            if d2h_bytes > 1 {
                p.call(CudaCall::Memcpy {
                    dir: CopyDirection::DeviceToHost,
                    bytes: ((d2h_bytes as f64) * j).round() as u64,
                });
            }
        }
        p.call(CudaCall::Free { bytes: alloc_bytes });
        p.call(CudaCall::ThreadExit);
        debug_assert_eq!(p.validate(), Ok(()));
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::AppKind;
    use cuda_sim::program::HostOp;

    fn gen(kind: AppKind) -> HostProgram {
        let mut rng = SimRng::new(1);
        TraceGenerator {
            jitter: 0.0,
            ..Default::default()
        }
        .generate(&kind.profile(), &mut rng)
    }

    #[test]
    fn programs_are_well_formed_for_all_apps() {
        for kind in AppKind::ALL {
            let p = gen(kind);
            assert_eq!(p.validate(), Ok(()), "{kind}");
            assert!(p.len() > 6, "{kind} too short");
        }
    }

    #[test]
    fn cpu_time_matches_profile() {
        for kind in AppKind::ALL {
            let prof = kind.profile();
            let p = gen(kind);
            let cpu = p.total_cpu().as_ns() as f64;
            let expect = prof.cpu_time().as_ns() as f64;
            let rel = (cpu - expect).abs() / expect.max(1.0);
            assert!(rel < 0.01, "{kind}: cpu {cpu} vs {expect}");
        }
    }

    #[test]
    fn kernel_time_matches_profile() {
        for kind in AppKind::ALL {
            let prof = kind.profile();
            let p = gen(kind);
            let kern = p.total_kernel_ref().as_ns() as f64;
            let expect = prof.kernel_time().as_ns() as f64;
            let rel = (kern - expect).abs() / expect.max(1.0);
            assert!(rel < 0.01, "{kind}: kernel {kern} vs {expect}");
        }
    }

    #[test]
    fn transfer_bytes_reproduce_transfer_time_at_pageable_rate() {
        // Bytes over the pageable reference rate must equal the profile's
        // transfer time.
        let ref_spec = DeviceSpec::reference();
        let rate = ref_spec.pcie_gbps * 0.5; // bytes per ns
        for kind in AppKind::ALL {
            let prof = kind.profile();
            let p = gen(kind);
            let t_ns = p.total_copy_bytes() as f64 / rate;
            let expect = prof.transfer_time().as_ns() as f64;
            if expect < 1000.0 {
                continue; // negligible-transfer apps round to ~zero bytes
            }
            let rel = (t_ns - expect).abs() / expect;
            assert!(rel < 0.05, "{kind}: transfer {t_ns}ns vs {expect}ns");
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let g = TraceGenerator::default();
        let mut r1 = SimRng::new(42);
        let mut r2 = SimRng::new(42);
        let p1 = g.generate(&AppKind::MC.profile(), &mut r1);
        let p2 = g.generate(&AppKind::MC.profile(), &mut r2);
        assert_eq!(p1, p2);
    }

    #[test]
    fn jitter_perturbs_but_preserves_structure() {
        let g = TraceGenerator {
            jitter: 0.2,
            ..Default::default()
        };
        let mut rng = SimRng::new(7);
        let a = g.generate(&AppKind::BO.profile(), &mut rng);
        let b = g.generate(&AppKind::BO.profile(), &mut rng);
        assert_eq!(a.len(), b.len(), "structure identical");
        assert_ne!(a, b, "durations jittered");
    }

    #[test]
    fn every_kernel_is_synchronized_before_d2h() {
        let p = gen(AppKind::MM);
        let ops = p.ops();
        for (i, op) in ops.iter().enumerate() {
            if matches!(op, HostOp::Cuda(CudaCall::LaunchKernel { .. })) {
                assert!(
                    matches!(ops[i + 1], HostOp::Cuda(CudaCall::DeviceSynchronize)),
                    "kernel at {i} not followed by sync"
                );
            }
        }
    }

    #[test]
    fn preferred_device_is_programmable() {
        let g = TraceGenerator {
            preferred_device: 3,
            jitter: 0.0,
        };
        let mut rng = SimRng::new(0);
        let p = g.generate(&AppKind::GA.profile(), &mut rng);
        assert!(matches!(
            p.op(0),
            Some(HostOp::Cuda(CudaCall::SetDevice { device: 3 }))
        ));
    }
}
