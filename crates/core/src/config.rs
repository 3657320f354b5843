//! Scheduler stack configurations.
//!
//! A [`StackConfig`] assembles the pieces into one of the three systems the
//! evaluation compares:
//!
//! | | device selection | backend | context | packer | dispatcher |
//! |---|---|---|---|---|---|
//! | **CUDA runtime** | application's own `cudaSetDevice` | per-app process | per app | off | none |
//! | **Rain** | workload balancer | per-app process (Design I) | per app | off | optional |
//! | **Strings** | workload balancer | per-GPU threads (Design III) | shared per GPU | on | optional |

use crate::device_sched::GpuPolicy;
use crate::mapper::{LbPolicy, PolicyArbiter};
use crate::packer::PackerConfig;
use remoting::backend::BackendDesign;
use remoting::retry::RetryPolicy;
use remoting::rpc::RpcCostModel;
use serde::{Deserialize, Serialize};
use sim_core::SimDuration;

/// Which scheduling system is in charge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerMode {
    /// Bare CUDA runtime: static provisioning, no interposition.
    CudaRuntime,
    /// The authors' earlier Rain scheduler (Design I backends).
    Rain,
    /// Strings (Design III backends, context packing).
    Strings,
}

impl SchedulerMode {
    /// Figure label suffix ("-Rain", "-Strings", "").
    pub fn suffix(self) -> &'static str {
        match self {
            SchedulerMode::CudaRuntime => "",
            SchedulerMode::Rain => "-Rain",
            SchedulerMode::Strings => "-Strings",
        }
    }
}

/// Full configuration of the scheduling stack for one simulation run.
#[derive(Debug, Clone, Copy)]
pub struct StackConfig {
    /// Operating mode.
    pub mode: SchedulerMode,
    /// Frontend→backend worker mapping.
    pub design: BackendDesign,
    /// Workload-balancing policy; `None` honours the application's own
    /// `cudaSetDevice` (the static-provisioning baseline).
    pub lb: Option<LbPolicy>,
    /// Optional dynamic switch: (feedback policy, records before switch).
    pub feedback_lb: Option<(LbPolicy, u64)>,
    /// Device-level dispatch policy.
    pub gpu_policy: GpuPolicy,
    /// Context Packer translations.
    pub packer: PackerConfig,
    /// Dispatcher epoch length.
    pub epoch: SimDuration,
    /// RPC interposition costs (zeroed for the bare runtime).
    pub rpc: RpcCostModel,
    /// Frontend failure semantics: per-call deadlines and bounded backoff
    /// when a backend stops answering. Disabled for the bare runtime, which
    /// has no interposer to retry through.
    pub retry: RetryPolicy,
    /// Rain's fairness-accounting flaw: measured service includes context-
    /// switch overhead, which pollutes TFS accounting (paper §V.D.1).
    pub service_includes_switch_overhead: bool,
}

impl StackConfig {
    /// The bare CUDA runtime baseline.
    pub fn cuda_runtime() -> Self {
        StackConfig {
            mode: SchedulerMode::CudaRuntime,
            design: BackendDesign::PerAppProcess,
            lb: None,
            feedback_lb: None,
            gpu_policy: GpuPolicy::None,
            packer: PackerConfig::off(),
            epoch: SimDuration::from_ms(5),
            rpc: RpcCostModel {
                marshal_ns: 0,
                unmarshal_ns: 0,
                marshal_ns_per_kib: 0,
            },
            retry: RetryPolicy::disabled(),
            service_includes_switch_overhead: true,
        }
    }

    /// Rain with a workload-balancing policy.
    pub fn rain(lb: LbPolicy) -> Self {
        StackConfig {
            mode: SchedulerMode::Rain,
            design: BackendDesign::PerAppProcess,
            lb: Some(lb),
            feedback_lb: None,
            gpu_policy: GpuPolicy::None,
            packer: PackerConfig::off(),
            epoch: SimDuration::from_ms(5),
            rpc: RpcCostModel::default(),
            retry: RetryPolicy::default(),
            service_includes_switch_overhead: true,
        }
    }

    /// Strings with a workload-balancing policy (full context packing).
    pub fn strings(lb: LbPolicy) -> Self {
        StackConfig {
            mode: SchedulerMode::Strings,
            design: BackendDesign::PerGpuThreads,
            lb: Some(lb),
            feedback_lb: None,
            gpu_policy: GpuPolicy::None,
            packer: PackerConfig::strings(),
            epoch: SimDuration::from_ms(5),
            rpc: RpcCostModel::default(),
            retry: RetryPolicy::default(),
            service_includes_switch_overhead: false,
        }
    }

    /// Add a device-level dispatch policy.
    pub fn with_gpu_policy(mut self, p: GpuPolicy) -> Self {
        self.gpu_policy = p;
        self
    }

    /// Add an arbiter-driven switch to a feedback policy after
    /// `min_records` feedback records.
    pub fn with_feedback(mut self, feedback: LbPolicy, min_records: u64) -> Self {
        assert!(feedback.is_feedback());
        self.feedback_lb = Some((feedback, min_records));
        self
    }

    /// Build the Policy Arbiter this configuration implies. `None` when the
    /// stack honours application device selection (bare runtime).
    pub fn arbiter(&self) -> Option<PolicyArbiter> {
        let initial = self.lb?;
        Some(match self.feedback_lb {
            Some((fb, min)) => PolicyArbiter::switching(initial, fb, min),
            None => PolicyArbiter::fixed(initial),
        })
    }

    /// Figure label, e.g. `"GWtMinLAS-Strings"` or `"CUDA runtime"`.
    pub fn label(&self) -> String {
        match self.mode {
            SchedulerMode::CudaRuntime => "CUDA runtime".to_string(),
            _ => {
                let lb = self
                    .feedback_lb
                    .map(|(fb, _)| fb.label())
                    .or(self.lb.map(|l| l.label()))
                    .unwrap_or("static");
                let gp = match self.gpu_policy {
                    GpuPolicy::None => "",
                    p => p.label(),
                };
                format!("{lb}{gp}{}", self.mode.suffix())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_has_no_interposition() {
        let c = StackConfig::cuda_runtime();
        assert_eq!(c.mode, SchedulerMode::CudaRuntime);
        assert!(c.lb.is_none());
        assert!(c.arbiter().is_none());
        assert_eq!(c.rpc.marshal_ns, 0);
        assert!(!c.retry.is_enabled(), "no interposer, nothing to retry");
        assert_eq!(c.label(), "CUDA runtime");
        assert!(!c.packer.async_memcpy);
    }

    #[test]
    fn rain_is_design_one_without_packing() {
        let c = StackConfig::rain(LbPolicy::GMin);
        assert_eq!(c.design, BackendDesign::PerAppProcess);
        assert!(!c.packer.auto_stream);
        assert!(c.service_includes_switch_overhead);
        assert_eq!(c.label(), "GMin-Rain");
    }

    #[test]
    fn strings_is_design_three_with_packing() {
        let c = StackConfig::strings(LbPolicy::GWtMin);
        assert_eq!(c.design, BackendDesign::PerGpuThreads);
        assert!(c.packer.auto_stream && c.packer.async_memcpy);
        assert!(!c.service_includes_switch_overhead);
        assert!(c.retry.is_enabled());
        assert_eq!(c.label(), "GWtMin-Strings");
    }

    #[test]
    fn composed_labels_match_paper_naming() {
        let c = StackConfig::strings(LbPolicy::GWtMin).with_gpu_policy(GpuPolicy::Las);
        assert_eq!(c.label(), "GWtMinLAS-Strings");
        let c = StackConfig::strings(LbPolicy::GWtMin).with_feedback(LbPolicy::Mbf, 5);
        assert_eq!(c.label(), "MBF-Strings");
        let c = StackConfig::rain(LbPolicy::Grr);
        assert_eq!(c.label(), "GRR-Rain");
    }

    #[test]
    fn arbiter_construction() {
        let fixed = StackConfig::strings(LbPolicy::GMin).arbiter().unwrap();
        assert!(!fixed.has_switched());
        assert_eq!(fixed.current(), LbPolicy::GMin);
        let switching = StackConfig::strings(LbPolicy::GWtMin)
            .with_feedback(LbPolicy::Dtf, 10)
            .arbiter()
            .unwrap();
        assert_eq!(switching.current(), LbPolicy::GWtMin);
    }

    #[test]
    #[should_panic]
    fn with_feedback_rejects_static_policy() {
        StackConfig::strings(LbPolicy::Grr).with_feedback(LbPolicy::GMin, 1);
    }
}
