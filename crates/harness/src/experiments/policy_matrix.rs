//! Extension — the policy matrix: rank scheduler stacks across workload
//! mixes and fault plans.
//!
//! The paper compares balancing policies one figure at a time (Figures
//! 9–13), always on the same workload. This experiment crosses the policy
//! zoo with the conditions instead: every policy *stack* (placement ×
//! mapper × admission) serves every workload mix under every fault plan,
//! and each cell of the matrix ranks the stacks by goodput, then tail
//! latency, then shed count. The interesting output is not any single
//! number but which stack wins *where* — feedback mappers need history
//! and shine on mixed loads, fragmentation-aware packing only pays off
//! on sliced devices, SLO admission trades completed requests for a
//! bounded tail.
//!
//! Rendered as one flat table (mix, faults, rank, stack, …) so the
//! golden gate pins the full ranking byte-for-byte.

use super::common::ExpScale;
use crate::serve::ServeSpec;
use remoting::topology::SliceCapability;
use sim_core::fault::FaultPlan;
use sim_core::SimDuration;
use strings_core::admission::SloAdmission;
use strings_core::config::StackConfig;
use strings_core::mapper::LbPolicy;
use strings_core::placement::NodePolicy;
use strings_metrics::report::{fmt_pct, Table};
use strings_metrics::slo::SloReport;
use strings_workloads::arrivals::ArrivalProcess;
use strings_workloads::profile::AppKind;

/// Offered arrival rate on the 4-GPU supernode (scaled to larger
/// clusters under a `--topology` override).
const RATE_RPS: f64 = 3.0;

/// Queue-wait target for the SLO-admission stack (the EWMA gate sheds
/// while a tenant's smoothed wait exceeds this).
const SLO_TARGET_NS: u64 = 250_000_000;

/// When the crash fault plan kills a backend (inside even the quick
/// scale's arrival window).
const CRASH_AT_NS: u64 = 3_000_000_000;

/// MIG-style slice grid on the sliced stack's devices (1g units).
const SLICE_UNITS: u8 = 8;

/// One competitor: a full scheduler stack across all three layers.
#[derive(Debug, Clone)]
pub struct PolicyStack {
    /// Display name, `placement/mapper[+admission]`.
    pub name: &'static str,
    /// Cluster placement policy (tenant → node).
    pub placement: NodePolicy,
    /// The interposed scheduler stack (mapper policy inside).
    pub stack: StackConfig,
    /// Partition devices into `SLICE_UNITS` slices for this stack.
    pub sliced: bool,
    /// Arm the SLO admission gate for this stack.
    pub slo: bool,
}

/// The competing stacks, in registry order. One row per *distinct
/// decision recipe*: the paper's baselines, a feedback mapper, the
/// fragmentation-aware mapper on sliced devices, and SLO admission.
pub fn stacks() -> Vec<PolicyStack> {
    vec![
        PolicyStack {
            name: "rr/GWtMin",
            placement: NodePolicy::RoundRobin,
            stack: StackConfig::strings(LbPolicy::GWtMin),
            sliced: false,
            slo: false,
        },
        PolicyStack {
            name: "hash/GMin",
            placement: NodePolicy::Hash,
            stack: StackConfig::rain(LbPolicy::GMin),
            sliced: false,
            slo: false,
        },
        PolicyStack {
            name: "least/MBF",
            placement: NodePolicy::LeastTenants,
            stack: StackConfig::strings(LbPolicy::GWtMin).with_feedback(LbPolicy::Mbf, 6),
            sliced: false,
            slo: false,
        },
        PolicyStack {
            name: "rr/Frag+mig8",
            placement: NodePolicy::RoundRobin,
            stack: StackConfig::strings(LbPolicy::Frag),
            sliced: true,
            slo: false,
        },
        PolicyStack {
            name: "rr/GWtMin+slo",
            placement: NodePolicy::RoundRobin,
            stack: StackConfig::strings(LbPolicy::GWtMin),
            sliced: false,
            slo: true,
        },
    ]
}

/// The workload mixes (tenant `t` serves `apps[t % len]`).
pub fn mixes() -> Vec<(&'static str, Vec<AppKind>)> {
    vec![
        ("uniform", vec![AppKind::GA]),
        ("mixed", vec![AppKind::GA, AppKind::MC]),
        ("heavy", vec![AppKind::MC, AppKind::HI]),
    ]
}

/// The fault plans each cell is rerun under.
pub fn fault_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::none()),
        ("crash@3s", FaultPlan::none().crash_at(CRASH_AT_NS, 1)),
    ]
}

/// One ranked cell entry: a stack's serving quality under one mix and
/// one fault plan.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload-mix label.
    pub mix: &'static str,
    /// Fault-plan label.
    pub faults: &'static str,
    /// 1-based rank within the (mix, faults) cell.
    pub rank: usize,
    /// Stack name.
    pub name: &'static str,
    /// The run's SLO summary.
    pub report: SloReport,
}

/// Policy-matrix results: every cell's ranking, flattened in mix-major,
/// fault-minor, rank order.
#[derive(Debug, Clone)]
pub struct Results {
    /// Ranked rows.
    pub rows: Vec<Outcome>,
}

/// The serve run behind one matrix entry: `entry`'s stack on the mix
/// `apps` under `plan`, plus any `--faults` from `scale`.
pub fn spec(
    entry: &PolicyStack,
    apps: &[AppKind],
    plan: &FaultPlan,
    scale: &ExpScale,
) -> ServeSpec {
    let duration = SimDuration::from_secs(scale.requests.max(4) as u64);
    let base = scale.serve_topology();
    let rate_rps = RATE_RPS * base.num_devices() as f64 / 4.0;
    let topo = if entry.sliced {
        base.with_slices(SliceCapability { units: SLICE_UNITS })
    } else {
        base
    };
    let mut s = ServeSpec::on(
        topo,
        entry.stack,
        ArrivalProcess::Poisson { rate_rps },
        duration,
        scale.seeds[0],
    );
    s.placement = entry.placement;
    s.tenants = s.topology.num_nodes().max(4);
    s.apps = apps.to_vec();
    s.admission.queue_depth = 8;
    // A small server pool so dispatch queues actually build under the
    // heavy mix — the queue-wait signal the SLO gate consumes.
    s.server_threads = 2;
    if entry.slo {
        s.admission.slo = Some(SloAdmission {
            target_wait_ns: SLO_TARGET_NS,
        });
    }
    s.faults = plan.clone();
    for ev in scale.faults.events() {
        s.faults.push(ev.at, ev.kind);
    }
    s
}

/// Run the full matrix: stacks × mixes × fault plans, one seeded serve
/// run per cell entry, ranked within each cell by goodput (desc), then
/// p99 (asc), then shed count (asc), then name.
pub fn run(scale: &ExpScale) -> Results {
    let mut rows = Vec::new();
    for (mix, apps) in mixes() {
        for (faults, plan) in fault_plans() {
            let mut cell: Vec<Outcome> = stacks()
                .iter()
                .map(|entry| {
                    let s = spec(entry, &apps, &plan, scale);
                    let report = s.slo(&s.run());
                    Outcome {
                        mix,
                        faults,
                        rank: 0,
                        name: entry.name,
                        report,
                    }
                })
                .collect();
            cell.sort_by(|a, b| {
                b.report
                    .goodput_rps
                    .partial_cmp(&a.report.goodput_rps)
                    .expect("goodput is finite")
                    .then(a.report.p99.as_ns().cmp(&b.report.p99.as_ns()))
                    .then(a.report.shed.cmp(&b.report.shed))
                    .then(a.name.cmp(b.name))
            });
            for (i, o) in cell.iter_mut().enumerate() {
                o.rank = i + 1;
            }
            rows.extend(cell);
        }
    }
    Results { rows }
}

/// Render the matrix as one flat ranking table.
pub fn table(r: &Results) -> Table {
    let mut t = Table::new(vec![
        "mix",
        "faults",
        "rank",
        "stack",
        "goodput",
        "shed",
        "p99",
        "fairness_min",
    ]);
    for o in &r.rows {
        t.row(vec![
            o.mix.to_string(),
            o.faults.to_string(),
            o.rank.to_string(),
            o.name.to_string(),
            format!("{:.2} req/s", o.report.goodput_rps),
            fmt_pct(o.report.shed_rate),
            o.report.p99.to_string(),
            format!("{:.4}", o.report.fairness_window_min),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_stacks_by_mixes_by_faults() {
        let r = run(&ExpScale::quick());
        let n_stacks = stacks().len();
        assert!(n_stacks >= 4, "the issue wants at least 4 ranked policies");
        assert_eq!(r.rows.len(), n_stacks * mixes().len() * fault_plans().len());
        // Every cell ranks 1..=n with no gaps.
        for (mix, _) in mixes() {
            for (faults, _) in fault_plans() {
                let mut ranks: Vec<usize> = r
                    .rows
                    .iter()
                    .filter(|o| o.mix == mix && o.faults == faults)
                    .map(|o| o.rank)
                    .collect();
                ranks.sort_unstable();
                assert_eq!(ranks, (1..=n_stacks).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn ranking_is_deterministic_across_reruns() {
        let a = table(&run(&ExpScale::quick())).render();
        let b = table(&run(&ExpScale::quick())).render();
        assert_eq!(a, b, "policy matrix must be byte-stable");
        assert!(a.contains("rr/Frag+mig8"));
        assert!(a.contains("crash@3s"));
    }

    #[test]
    fn every_stack_completes_work_in_the_faultless_cells() {
        let r = run(&ExpScale::quick());
        for o in r.rows.iter().filter(|o| o.faults == "none") {
            assert!(
                o.report.completed > 0,
                "{} completed nothing on {}",
                o.name,
                o.mix
            );
        }
    }
}
