//! Cloud server simulation: a day in the life of a multi-tenant GPU node.
//!
//! Models the paper's motivating deployment: several cloud services with
//! different characteristics (image processing, financial pricing, data
//! mining) receive independent bursty request streams on the emulated
//! 4-GPU supernode. Compares static provisioning with Strings under the
//! MBF feedback policy, and prints per-service latency plus device
//! utilization.
//!
//! Run with: `cargo run --release --example cloud_server`

use strings_repro::harness::scenario::{Scenario, StreamSpec};
use strings_repro::metrics::report::{fmt_pct, Table};
use strings_repro::remoting::gpool::NodeId;
use strings_repro::strings::config::StackConfig;
use strings_repro::strings::device_sched::TenantId;
use strings_repro::strings::mapper::LbPolicy;
use strings_repro::workloads::profile::AppKind;

fn service_mix() -> Vec<StreamSpec> {
    // Four tenants with contrasting profiles, split across the two nodes.
    let mk = |app: AppKind, node: u32, tenant: u32, count: usize| StreamSpec {
        app,
        node: NodeId(node),
        tenant: TenantId(tenant),
        weight: 1.0,
        count,
        load: 1.5,
        server_threads: 6,
    };
    vec![
        mk(AppKind::DC, 0, 0, 12), // image processing: compute-heavy
        mk(AppKind::MC, 0, 1, 20), // financial pricing: transfer-heavy
        mk(AppKind::HI, 1, 2, 12), // data mining: bandwidth-bound
        mk(AppKind::BS, 1, 3, 20), // risk scoring: CPU-leaning
    ]
}

fn main() {
    println!("Multi-tenant GPU cloud node: 4 services, 64 requests, 4 GPUs\n");

    let configs = [
        ("CUDA runtime (static)", StackConfig::cuda_runtime()),
        (
            "Strings + MBF feedback",
            StackConfig::strings(LbPolicy::GWtMin).with_feedback(LbPolicy::Mbf, 6),
        ),
    ];

    let names = [
        "DXTC (image)",
        "MonteCarlo (finance)",
        "Histogram (mining)",
        "BlackScholes (risk)",
    ];
    for (label, cfg) in configs {
        let scenario = Scenario::supernode(cfg, service_mix(), 7);
        let stats = scenario.run();
        println!("--- {label} ---");
        let mut t = Table::new(vec!["service", "requests", "mean latency"]);
        for (slot, name) in names.iter().enumerate() {
            t.row(vec![
                name.to_string(),
                stats.completions.counts()[slot].to_string(),
                format!("{:.2} s", stats.completions.mean_ct(slot) / 1e9),
            ]);
        }
        print!("{}", t.render());
        let mut u = Table::new(vec!["device", "compute util", "bandwidth util"]);
        for (gid, tele) in stats.device_telemetry.iter().enumerate() {
            u.row(vec![
                format!("GID{gid}"),
                fmt_pct(tele.compute.mean_over(0, stats.makespan_ns)),
                fmt_pct(tele.bandwidth().mean_over(0, stats.makespan_ns)),
            ]);
        }
        print!("{}", u.render());
        println!(
            "makespan {:.1} s, context switches {}\n",
            stats.makespan_ns as f64 / 1e9,
            stats.context_switches
        );
    }
    println!("Static provisioning piles every service onto its node's device 0;");
    println!("Strings spreads them across the gPool and keeps bandwidth-hungry");
    println!("tenants (Histogram) away from each other via MBF feedback.");
}
