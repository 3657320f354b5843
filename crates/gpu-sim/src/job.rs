//! Units of device work.
//!
//! Each [`Job`] is one GPU operation submitted to a (context, stream) pair:
//! a kernel launch or a DMA copy. Stream FIFO ordering is enforced by the
//! device; the job itself only carries its resource demands.

use crate::ids::{ContextId, JobId, StreamId};
use serde::{Deserialize, Serialize};
use sim_core::SimTime;

/// DMA direction for copy jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CopyDirection {
    /// Host to device (paper's "H2D" phase).
    HostToDevice,
    /// Device to host ("D2H").
    DeviceToHost,
}

impl std::fmt::Display for CopyDirection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CopyDirection::HostToDevice => write!(f, "H2D"),
            CopyDirection::DeviceToHost => write!(f, "D2H"),
        }
    }
}

/// Resource demands of one kernel, expressed against the reference device
/// (Tesla C2050).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Solo execution time on the reference device, nanoseconds.
    pub work_ref_ns: u64,
    /// Fraction of the device's SMs the kernel occupies (0, 1].
    pub occupancy: f64,
    /// Sustained device-memory bandwidth demand while running, MB/s.
    pub bw_demand_mbps: f64,
}

impl KernelProfile {
    /// Memory intensity on a device with bandwidth `dev_bw_mbps`:
    /// 0 = fully compute-bound, 1 = saturates the memory system alone.
    pub fn mem_intensity(&self, dev_bw_mbps: f64) -> f64 {
        (self.bw_demand_mbps / dev_bw_mbps).clamp(0.0, 1.0)
    }
}

/// What kind of work a job is.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum JobKind {
    /// A kernel launch.
    Kernel(KernelProfile),
    /// A DMA transfer of `bytes` in `dir`; `pinned` selects the fast path
    /// (the Context Packer's MOT stages through pinned memory).
    Copy {
        /// Transfer direction.
        dir: CopyDirection,
        /// Payload size in bytes.
        bytes: u64,
        /// Whether the host buffer is page-locked.
        pinned: bool,
    },
}

/// One schedulable unit of device work.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Device-assigned identity (set at submission).
    pub id: JobId,
    /// Owning GPU context.
    pub ctx: ContextId,
    /// CUDA stream within the context.
    pub stream: StreamId,
    /// The work itself.
    pub kind: JobKind,
    /// Opaque tag the submitter uses to map completions back to callers
    /// (the runtime stores the issuing application's id here).
    pub tag: u64,
    /// When it was submitted to the device. It travels with the job
    /// through the stream queue and the engines to its completion, so the
    /// device keeps no per-job side table.
    pub submitted_at: SimTime,
}

impl Job {
    /// True if this job runs on the compute engine.
    pub fn is_kernel(&self) -> bool {
        matches!(self.kind, JobKind::Kernel(_))
    }

    /// True if this job runs on a copy engine.
    pub fn is_copy(&self) -> bool {
        matches!(self.kind, JobKind::Copy { .. })
    }

    /// Copy direction, if a copy.
    pub fn copy_direction(&self) -> Option<CopyDirection> {
        match self.kind {
            JobKind::Copy { dir, .. } => Some(dir),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel_job() -> Job {
        Job {
            id: JobId(1),
            ctx: ContextId(0),
            stream: StreamId(1),
            kind: JobKind::Kernel(KernelProfile {
                work_ref_ns: 1_000_000,
                occupancy: 0.5,
                bw_demand_mbps: 10_000.0,
            }),
            tag: 7,
            submitted_at: 0,
        }
    }

    #[test]
    fn kind_predicates() {
        let k = kernel_job();
        assert!(k.is_kernel());
        assert!(!k.is_copy());
        assert_eq!(k.copy_direction(), None);

        let c = Job {
            kind: JobKind::Copy {
                dir: CopyDirection::HostToDevice,
                bytes: 4096,
                pinned: true,
            },
            ..kernel_job()
        };
        assert!(c.is_copy());
        assert_eq!(c.copy_direction(), Some(CopyDirection::HostToDevice));
    }

    #[test]
    fn mem_intensity_clamped() {
        let p = KernelProfile {
            work_ref_ns: 1,
            occupancy: 1.0,
            bw_demand_mbps: 300_000.0,
        };
        assert_eq!(p.mem_intensity(144_000.0), 1.0);
        let q = KernelProfile {
            bw_demand_mbps: 72_000.0,
            ..p
        };
        assert!((q.mem_intensity(144_000.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn direction_display() {
        assert_eq!(CopyDirection::HostToDevice.to_string(), "H2D");
        assert_eq!(CopyDirection::DeviceToHost.to_string(), "D2H");
    }
}
