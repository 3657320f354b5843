//! Golden-output determinism gate.
//!
//! Every experiment module (the engine behind every `strings-sim`
//! experiment) renders at a reduced-but-representative scale and must match
//! the committed golden byte-for-byte, alongside the full `RunStats`
//! debug rendering of fixed scenarios. Any change that shifts event
//! ordering, float accumulation order, or report formatting trips this
//! test — optimisations must be observationally invisible.
//!
//! Regenerate intentionally with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p strings-harness --test golden
//! ```

use remoting::topology::TopologySpec;
use sim_core::fault::FaultPlan;
use sim_core::SimDuration;
use std::fmt::Write as _;
use strings_core::config::StackConfig;
use strings_core::device_sched::GpuPolicy;
use strings_core::mapper::LbPolicy;
use strings_harness::experiments::{
    ablation, attribution, common::pair_streams, cpu_fallback, faults, fig01, fig02, fig09, fig10,
    fig11, fig12, fig13, fig14, fig15, policy_matrix, serve, table1, vmem, ExpScale,
};
use strings_harness::explain;
use strings_harness::scenario::{Scenario, StreamSpec};
use strings_harness::serve::ServeSpec;
use strings_metrics::alerts::BurnRateConfig;
use strings_metrics::forensics;
use strings_workloads::arrivals::ArrivalProcess;
use strings_workloads::pairs::workload_pairs;
use strings_workloads::profile::AppKind;

fn tiny_scale() -> ExpScale {
    ExpScale {
        requests: 4,
        load: 1.3,
        seeds: vec![101, 202],
        ..ExpScale::quick()
    }
}

fn render_all() -> String {
    let scale = tiny_scale();
    let pairs = workload_pairs();
    let two_pairs = &pairs[..2];
    let mut out = String::new();
    let mut section = |name: &str, body: String| {
        writeln!(out, "==== {name} ====").unwrap();
        out.push_str(&body);
        out.push('\n');
    };

    section("table1", table1::table(&table1::run()).render());
    section("fig01", fig01::table(&fig01::run(&scale)).render());
    section("fig02", fig02::table(&fig02::run(&scale)).render());
    section("fig09", fig09::table(&fig09::run(&scale)).render());
    section(
        "fig10",
        fig10::table(&fig10::run_pairs(&scale, two_pairs)).render(),
    );
    section(
        "fig11",
        fig11::table(&fig11::run_pairs(&scale, two_pairs)).render(),
    );
    section(
        "fig12",
        fig12::table(&fig12::run_pairs(&scale, two_pairs)).render(),
    );
    section(
        "fig13",
        fig13::table(&fig13::run_pairs(&scale, two_pairs)).render(),
    );
    section(
        "fig14",
        fig14::table(&fig14::run_pairs(&scale, two_pairs)).render(),
    );
    section(
        "fig15",
        fig15::table(&fig15::run_pairs(&scale, two_pairs)).render(),
    );
    section(
        "ablation",
        ablation::table(&ablation::run_pair(&scale, pairs[0].0)).render(),
    );
    section(
        "cpu_fallback",
        cpu_fallback::table(&cpu_fallback::run(&scale)).render(),
    );
    section("faults", faults::table(&faults::run(&scale)).render());
    section("vmem", vmem::table(&vmem::run(&scale)).render());

    // Full RunStats debug rendering of fixed scenarios: every counter,
    // completion histogram, telemetry sample and placement is covered.
    for seed in [7u64, 42] {
        let s = Scenario::supernode(
            StackConfig::strings(LbPolicy::GWtMin).with_gpu_policy(GpuPolicy::Las),
            vec![
                StreamSpec::of(AppKind::MC, 4, 1.5),
                StreamSpec::of(AppKind::HI, 3, 1.0),
            ],
            seed,
        );
        section(&format!("runstats_seed{seed}"), format!("{:?}\n", s.run()));
    }
    // And the fig12-scale headline pair at reduced request count.
    let fig12_scale = ExpScale {
        requests: 6,
        ..tiny_scale()
    };
    let (_, a, b) = pairs[8];
    let s = Scenario::supernode(
        StackConfig::strings(LbPolicy::GWtMin).with_gpu_policy(GpuPolicy::Las),
        pair_streams(a, b, &fig12_scale),
        0,
    );
    section("runstats_fig12_pair_I", format!("{:?}\n", s.run()));

    // Open-loop serve mode: the stack-comparison table plus one fixed
    // spec's full SLO report (byte-stable percentiles, goodput, shed
    // rate and windowed fairness).
    section("serve", serve::table(&serve::run(&scale)).render());
    let mut spec = ServeSpec::supernode(
        StackConfig::strings(LbPolicy::GWtMin),
        ArrivalProcess::Poisson { rate_rps: 5.0 },
        SimDuration::from_secs(10),
        7,
    );
    spec.admission.queue_depth = 4;
    section("serve_slo_report", spec.slo(&spec.run()).render());

    // Observability layer: the per-stack stage-share comparison, one
    // fixed spec's full attribution report (exact-additive breakdowns,
    // per-tenant split, top-K slowest) and its OpenMetrics exposition.
    section(
        "attribution",
        attribution::table(&attribution::run(&scale)).render(),
    );
    let mut obs = spec.clone();
    obs.attribution = true;
    obs.metrics_every = Some(SimDuration::from_secs(1));
    let stats = obs.run();
    section("attribution_report", obs.attribution(&stats).render(5));
    section(
        "metrics_openmetrics",
        stats
            .metrics
            .as_ref()
            .expect("metrics enabled")
            .render_openmetrics(),
    );

    // The policy matrix: every stack x mix x fault-plan cell's full
    // ranking. Pins both each policy's selection behaviour and the
    // rank-comparator's tie-breaking byte-for-byte.
    section(
        "policy_matrix",
        policy_matrix::table(&policy_matrix::run(&scale)).render(),
    );

    // Cluster-run trace tracks: 3+ node topologies prefix device tracks
    // with their node (`node{N}/GID{g}`) so Perfetto's process filter
    // isolates one machine; pin the naming scheme.
    let mut cluster = Scenario::on(
        TopologySpec::parse("4x2:c2050").expect("topology grammar"),
        StackConfig::strings(LbPolicy::GWtMin),
        vec![StreamSpec::of(AppKind::GA, 3, 1.0)],
        7,
    );
    cluster.trace = true;
    let trace = cluster.run().trace.expect("traced run records a trace");
    section(
        "cluster_trace_tracks",
        trace
            .tracks
            .iter()
            .map(|t| format!("{}/{}\n", t.process, t.thread))
            .collect(),
    );

    // Incident forensics: one faulted serve run's burn-rate alert log,
    // the head of its fault-class flight dump in both renderings (JSONL
    // and the Chrome/Perfetto view), and the explain blame chain of one
    // breached request. Every byte here is a dump-on-trigger contract.
    let mut inc = ServeSpec::supernode(
        StackConfig::strings(LbPolicy::GWtMin),
        ArrivalProcess::Fixed { rate_rps: 10.0 },
        SimDuration::from_secs(6),
        42,
    );
    inc.faults = FaultPlan::parse("nodeloss@3s:node1").expect("fault grammar");
    inc.burn_alert = Some(BurnRateConfig::new(SimDuration::from_ms(40)));
    inc.attribution = true;
    inc.explain = Some(3);
    let stats = inc.run();
    section(
        "forensics_alert_log",
        stats.alerts.as_ref().expect("rule set").render(),
    );
    let dump = stats.flight_dumps.first().expect("fault triggers a dump");
    let head =
        |s: String, n: usize| -> String { s.lines().take(n).map(|l| format!("{l}\n")).collect() };
    section(
        "forensics_dump_jsonl_head",
        head(forensics::dump_jsonl(dump), 12),
    );
    section(
        "forensics_dump_chrome_head",
        head(forensics::dump_chrome(dump), 6),
    );
    section(
        "explain_report",
        explain::render(&stats, Some(&inc.attribution(&stats)), 3),
    );
    out
}

#[test]
fn experiment_outputs_match_committed_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/experiments.txt");
    let got = render_all();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("committed golden missing; run with UPDATE_GOLDEN=1 to create it");
    if got != want {
        let mismatch = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w);
        match mismatch {
            Some((i, (g, w))) => panic!(
                "golden mismatch at line {}:\n  got:  {g}\n  want: {w}\n\
                 (UPDATE_GOLDEN=1 regenerates after an intentional change)",
                i + 1
            ),
            None => panic!(
                "golden length mismatch: got {} bytes, want {} bytes",
                got.len(),
                want.len()
            ),
        }
    }
}
