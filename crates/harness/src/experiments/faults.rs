//! Extension — fault isolation across backend designs (paper §III.B.1).
//!
//! The paper motivates Design III with fault isolation: Design I isolates
//! every application in its own backend process; Design II's single master
//! thread means "if the master thread managing all requests to a particular
//! GPU crashes, all frontend applications relying on it are affected";
//! Design III localizes faults to individual backend threads.
//!
//! This experiment injects one backend crash on a busy device and measures
//! the blast radius (requests killed) under each design. Design III's
//! siblings survive the crash via failover replay, so they show up in the
//! `retried` column instead of the `killed` one.

use super::common::ExpScale;
use crate::scenario::{Scenario, StreamSpec};
use gpu_sim::spec::GpuModel;
use remoting::backend::BackendDesign;
use remoting::gpool::{NodeId, NodeSpec};
use remoting::topology::TopologySpec;
use sim_core::fault::FaultPlan;
use strings_core::config::StackConfig;
use strings_core::device_sched::TenantId;
use strings_core::mapper::LbPolicy;
use strings_metrics::report::Table;
use strings_workloads::profile::AppKind;

/// When the backend crashes (10 s in — well into the backlog).
const FAULT_AT_NS: u64 = 10_000_000_000;

/// One design's blast radius.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Design label.
    pub label: &'static str,
    /// Requests killed by the single fault.
    pub failed: u64,
    /// Requests that still completed.
    pub completed: u64,
    /// Requests that completed only after a failover replay.
    pub retried: u64,
    /// Total virtual time requests spent waiting out failovers, ns.
    pub downtime_ns: u64,
}

/// Fault-isolation results.
#[derive(Debug, Clone)]
pub struct Results {
    /// One outcome per backend design.
    pub outcomes: Vec<Outcome>,
}

/// The cluster every design runs on: one GPU, so every request shares the
/// faulting backend.
pub fn topology() -> TopologySpec {
    TopologySpec::of_nodes(vec![NodeSpec::new(0, vec![GpuModel::TeslaC2050])])
}

fn measure(design_cfg: StackConfig, label: &'static str, scale: &ExpScale) -> Outcome {
    let stream = StreamSpec {
        app: AppKind::MC,
        node: NodeId(0),
        tenant: TenantId(0),
        weight: 1.0,
        count: scale.requests.max(10),
        load: 4.0,
        server_threads: 8,
    };
    let mut scen = Scenario::single_node(design_cfg, vec![stream], 17);
    scen.topology = topology();
    scen.faults = FaultPlan::none().crash_at(FAULT_AT_NS, 0);
    for ev in scale.faults.events() {
        scen.faults.push(ev.at, ev.kind);
    }
    let stats = scen.run();
    let totals = stats.disruption_report().totals();
    Outcome {
        label,
        failed: stats.failed_requests,
        completed: stats.completed_requests,
        retried: totals.retried,
        downtime_ns: totals.downtime_ns,
    }
}

/// Run all three designs.
pub fn run(scale: &ExpScale) -> Results {
    let design2 = {
        let mut c = StackConfig::strings(LbPolicy::GMin);
        c.design = BackendDesign::SingleMaster;
        c.packer.sync_to_stream = false;
        c
    };
    Results {
        outcomes: vec![
            measure(
                StackConfig::rain(LbPolicy::GMin),
                "design-I (per-app process)",
                scale,
            ),
            measure(design2, "design-II (single master)", scale),
            measure(
                StackConfig::strings(LbPolicy::GMin),
                "design-III (per-GPU threads)",
                scale,
            ),
        ],
    }
}

/// Render as a table.
pub fn table(r: &Results) -> Table {
    let mut t = Table::new(vec![
        "backend design",
        "requests killed",
        "requests completed",
        "requests retried",
        "downtime_ms",
    ]);
    for o in &r.outcomes {
        t.row(vec![
            o.label.to_string(),
            o.failed.to_string(),
            o.completed.to_string(),
            o.retried.to_string(),
            format!("{:.3}", o.downtime_ns as f64 / 1e6),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blast_radius_matches_paper_claims() {
        let r = run(&ExpScale::quick());
        let get = |prefix: &str| {
            r.outcomes
                .iter()
                .find(|o| o.label.starts_with(prefix))
                .unwrap()
        };
        let d1 = get("design-I ");
        let d2 = get("design-II ");
        let d3 = get("design-III");
        // Designs I and III localize the fault to one application.
        assert_eq!(d1.failed, 1, "design I kills exactly the faulty app");
        assert_eq!(d3.failed, 1, "design III localizes to one thread");
        // Design II takes down every application on the device.
        assert!(
            d2.failed > d3.failed,
            "design II blast radius {} must exceed design III's {}",
            d2.failed,
            d3.failed
        );
        // Design III's sibling applications survive via failover replay;
        // design II has no survivors to retry.
        assert!(d3.retried > 0, "design III siblings must replay");
        assert_eq!(d2.retried, 0, "design II leaves nothing to retry");
        assert!(d3.downtime_ns > 0, "failover replay costs downtime");
        // The system keeps serving after the fault in every design.
        for o in &r.outcomes {
            assert!(o.completed > 0, "{} completed nothing", o.label);
        }
    }
}
