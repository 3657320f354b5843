//! Figure 1 — compute and memory characteristics of the cloud applications.
//!
//! Each application receives an exponential request stream on a dedicated
//! reference GPU; we report the time-averaged compute (SM occupancy) and
//! memory (bandwidth) utilization, classified into the paper's heat bands:
//! heavily utilized (red, > 90 %), moderate (yellow), under-utilized
//! (green, < 10 %). The paper's observation — frequent idle intervals even
//! for efficient codes like Monte Carlo, and wide diversity across apps —
//! should be visible in the numbers.

use super::common::{normalized_stream, ExpScale};
use crate::scenario::Scenario;
use gpu_sim::spec::GpuModel;
use remoting::gpool::{NodeId, NodeSpec};
use remoting::topology::TopologySpec;
use sim_core::telemetry::combined_busy_fraction;
use strings_core::config::StackConfig;
use strings_core::device_sched::TenantId;
use strings_metrics::report::{fmt_pct, Table};
use strings_workloads::profile::AppKind;

/// Utilization heat band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Band {
    /// > 90 % — "red".
    Heavy,
    /// 10–90 % — "yellow".
    Moderate,
    /// < 10 % — "green".
    Under,
}

impl Band {
    /// Classify a utilization fraction.
    pub fn of(util: f64) -> Band {
        if util > 0.9 {
            Band::Heavy
        } else if util < 0.1 {
            Band::Under
        } else {
            Band::Moderate
        }
    }

    /// Figure colour name.
    pub fn label(self) -> &'static str {
        match self {
            Band::Heavy => "red",
            Band::Moderate => "yellow",
            Band::Under => "green",
        }
    }
}

/// One application's measured characteristics. Utilizations are
/// *conditional on the device being active* (the paper classifies how
/// heavily an application uses compute/memory when it runs, with the idle
/// intervals reported separately).
#[derive(Debug, Clone)]
pub struct Row {
    /// Application.
    pub app: AppKind,
    /// Compute-engine utilization while the device is active.
    pub compute_util: f64,
    /// Memory-system pressure while active: DRAM bandwidth or DMA traffic.
    pub memory_util: f64,
    /// Idle gaps of ≥ 50 ms observed over the run.
    pub idle_gaps: usize,
}

/// Figure 1 results.
#[derive(Debug, Clone)]
pub struct Results {
    /// One row per application.
    pub rows: Vec<Row>,
}

/// Run the characterization.
pub fn run(scale: &ExpScale) -> Results {
    let node = NodeSpec::new(0, vec![GpuModel::TeslaC2050]);
    let mut rows = Vec::new();
    for app in AppKind::ALL {
        let stream = normalized_stream(app, NodeId(0), TenantId(0), scale.requests, scale.load);
        let mut scen =
            Scenario::single_node(StackConfig::cuda_runtime(), vec![stream], scale.seeds[0]);
        scen.topology = TopologySpec::of_nodes(vec![node.clone()]);
        let stats = scen.run();
        let t = &stats.device_telemetry[0];
        let end = stats.makespan_ns.max(1);
        let active_ns =
            (combined_busy_fraction(&[&t.compute, &t.copy], 0, end) * end as f64).max(1.0);
        let compute_busy = t.compute.busy_ns(0, end) as f64;
        // Occupancy while kernels run (not diluted by idle time).
        let cond_occ = if compute_busy > 0.0 {
            t.compute.mean_over(0, end) * end as f64 / compute_busy
        } else {
            0.0
        };
        let bw_pressure = t.bandwidth().mean_over(0, end) * end as f64 / active_ns;
        let dma_pressure = t.copy.busy_ns(0, end) as f64 / active_ns;
        rows.push(Row {
            app,
            compute_util: (compute_busy / active_ns) * cond_occ,
            memory_util: bw_pressure.max(dma_pressure).min(1.0),
            idle_gaps: t.compute.idle_gaps(0, end, 50_000_000),
        });
    }
    Results { rows }
}

/// Render as the figure's data table.
pub fn table(r: &Results) -> Table {
    let mut t = Table::new(vec![
        "app",
        "compute",
        "band",
        "memory",
        "band",
        "idle gaps",
    ]);
    for row in &r.rows {
        t.row(vec![
            row.app.to_string(),
            fmt_pct(row.compute_util),
            Band::of(row.compute_util).label().to_string(),
            fmt_pct(row.memory_util),
            Band::of(row.memory_util).label().to_string(),
            row.idle_gaps.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_classify() {
        assert_eq!(Band::of(0.95), Band::Heavy);
        assert_eq!(Band::of(0.5), Band::Moderate);
        assert_eq!(Band::of(0.05), Band::Under);
        assert_eq!(Band::Heavy.label(), "red");
    }

    #[test]
    fn characterization_matches_paper_classes() {
        let r = run(&ExpScale::quick());
        assert_eq!(r.rows.len(), 10);
        let get = |k: AppKind| r.rows.iter().find(|row| row.app == k).unwrap();
        // Gaussian barely touches the GPU at all.
        assert!(get(AppKind::GA).compute_util < 0.2);
        assert!(get(AppKind::GA).memory_util < 0.2);
        // DXTC is compute-heavy but memory-light (paper: compute red).
        assert!(get(AppKind::DC).compute_util > 0.7);
        assert!(get(AppKind::DC).memory_util < 0.2);
        // Monte Carlo is memory/transfer intensive (paper: memory red).
        assert!(get(AppKind::MC).memory_util > 0.8);
        // Histogram pressures DRAM heavily while its kernels run.
        assert!(get(AppKind::HI).memory_util > 0.5);
        // Idle intervals occur even for the efficient Monte Carlo.
        assert!(get(AppKind::MC).idle_gaps > 0, "MC should show idle gaps");
    }
}
