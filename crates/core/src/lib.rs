//! # strings-core
//!
//! The **Strings** scheduler — the paper's contribution — plus its two
//! baselines. Strings decomposes GPU scheduling into:
//!
//! * the **GPU Affinity Mapper** ([`mapper`]): cluster-level workload
//!   balancing over the gPool. Overrides every application's
//!   `cudaSetDevice` with a policy decision using the Device Status Table
//!   (static weights + dynamic load) and the Scheduler Feedback Table
//!   (per-workload-class history from device-level monitors). Policies:
//!   GRR, GMin, GWtMin and the feedback family RTF, GUF, DTF, MBF, with a
//!   Policy Arbiter that switches dynamically once enough feedback exists.
//! * the **Context Packer** ([`packer`]): packs the GPU components of all
//!   applications sharing a device into one GPU context. Per-application
//!   CUDA streams (SC + AST), device-sync → stream-sync rewriting (SST),
//!   and sync → pinned-async memcpy rewriting (MOT) backed by the Pinned
//!   Memory Table (PMT).
//! * the per-device **GPU Scheduler** ([`device_sched`]): registers
//!   requests in the Request Control Block, gates backend threads through a
//!   modelled RT-signal sleep/wake protocol, and prioritizes with TFS
//!   (fair share), LAS (least attained service), or PS (phase selection).
//!   The Request Monitor measures runtime/GPU-time/transfer/bandwidth and
//!   the Feedback Engine ships those records back to the mapper.
//!
//! Above the mapper sits the cluster placement tier ([`placement`]):
//! sticky tenant → node assignment over a [`remoting::TopologySpec`]'s
//! node set, so the two-level decision is *tenant → node* (placement),
//! then *request → device* (mapper) within whatever scope the balancer
//! sees.
//!
//! For open-loop serving, [`admission`] adds the front door in front of
//! the mapper: bounded per-tenant occupancy with shed-on-full and
//! optional token-bucket rate limits, so `strings-sim serve` degrades by
//! shedding rather than by unbounded queueing.
//!
//! [`config`] assembles the three layers plus the remoting substrate into
//! the three **operating modes** the evaluation compares: the bare CUDA
//! runtime, the authors' earlier *Rain* (Design I), and *Strings*
//! (Design III).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod admission;
pub mod config;
pub mod device_sched;
pub mod mapper;
pub mod packer;
pub mod placement;
pub mod zoo;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionStats, RateLimit, ShedReason, SloAdmission,
};
pub use config::{SchedulerMode, StackConfig};
pub use device_sched::{GpuPolicy, GpuScheduler};
pub use mapper::{FeedbackRecord, GpuAffinityMapper, LbPolicy, WorkloadClass};
pub use packer::{ContextPacker, PackedCall, PackerConfig};
pub use placement::{ClusterPlacer, NodePolicy};
pub use zoo::{registry, PolicyInfo, PolicyLayer};
