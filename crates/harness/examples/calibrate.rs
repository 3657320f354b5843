//! Calibration probe: prints the headline orderings the paper's figures
//! need, so the timing knobs in `DeviceConfig`/`HostCosts` can be tuned.
//!
//! Usage: `cargo run --release -p strings-harness --example calibrate [n] [load]`

use remoting::gpool::NodeId;
use strings_core::config::StackConfig;
use strings_core::device_sched::GpuPolicy;
use strings_core::device_sched::TenantId;
use strings_core::mapper::LbPolicy;
use strings_harness::scenario::{LbScope, Scenario, StreamSpec};
use strings_harness::sweep;
use strings_workloads::profile::AppKind;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(20);
    let load: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1.5);
    let seeds: Vec<u64> = vec![11, 22, 33];

    println!("== single-node (NodeA) per-app speedups vs CUDA runtime ==");
    println!("n={n} load={load}");
    let apps = [
        AppKind::MC,
        AppKind::BS,
        AppKind::GA,
        AppKind::DC,
        AppKind::HI,
        AppKind::SC,
    ];
    for app in apps {
        let base = Scenario::single_node(
            StackConfig::cuda_runtime(),
            vec![StreamSpec::of(app, n, load)],
            0,
        );
        let cuda = sweep::mean_over_seeds(&base, &seeds, |s| s.mean_completion_ns());
        let mut row = format!("{app}: ");
        for (label, cfg) in [
            ("GRR-Rain", StackConfig::rain(LbPolicy::Grr)),
            ("GMin-Rain", StackConfig::rain(LbPolicy::GMin)),
            ("GWtMin-Rain", StackConfig::rain(LbPolicy::GWtMin)),
            ("GRR-Str", StackConfig::strings(LbPolicy::Grr)),
            ("GMin-Str", StackConfig::strings(LbPolicy::GMin)),
            ("GWtMin-Str", StackConfig::strings(LbPolicy::GWtMin)),
        ] {
            let s = Scenario::single_node(cfg, vec![StreamSpec::of(app, n, load)], 0);
            let ct = sweep::mean_over_seeds(&s, &seeds, |st| st.mean_completion_ns());
            row.push_str(&format!("{label}={:.2}x ", cuda / ct));
        }
        println!("{row}");
    }

    println!("\n== supernode pair B (DC+MC) vs single-node GRR-Rain ==");
    let pair_streams = |_apps: ()| {
        vec![
            StreamSpec {
                node: NodeId(0),
                tenant: TenantId(0),
                ..StreamSpec::of(AppKind::DC, n / 2, load)
            },
            StreamSpec {
                node: NodeId(1),
                tenant: TenantId(1),
                ..StreamSpec::of(AppKind::MC, n, load)
            },
        ]
    };
    let base = Scenario::supernode(StackConfig::rain(LbPolicy::Grr), pair_streams(()), 0)
        .with_scope(LbScope::Local);
    let base_ct = sweep::mean_over_seeds(&base, &seeds, |s| s.mean_completion_ns());
    for (label, cfg) in [
        ("GRR-Rain", StackConfig::rain(LbPolicy::Grr)),
        ("GWtMin-Rain", StackConfig::rain(LbPolicy::GWtMin)),
        ("GRR-Str", StackConfig::strings(LbPolicy::Grr)),
        ("GWtMin-Str", StackConfig::strings(LbPolicy::GWtMin)),
        (
            "GWtMinLAS-Str",
            StackConfig::strings(LbPolicy::GWtMin).with_gpu_policy(GpuPolicy::Las),
        ),
        (
            "GWtMinPS-Str",
            StackConfig::strings(LbPolicy::GWtMin).with_gpu_policy(GpuPolicy::Ps),
        ),
        (
            "MBF-Str",
            StackConfig::strings(LbPolicy::GWtMin).with_feedback(LbPolicy::Mbf, 4),
        ),
        (
            "DTF-Str",
            StackConfig::strings(LbPolicy::GWtMin).with_feedback(LbPolicy::Dtf, 4),
        ),
    ] {
        let s = Scenario::supernode(cfg, pair_streams(()), 0);
        let ct = sweep::mean_over_seeds(&s, &seeds, |st| st.mean_completion_ns());
        println!("{label}: {:.2}x", base_ct / ct);
    }
}
