//! Incident-forensics gates: flight-recorder dumps, burn-rate alerts,
//! and the `explain` blame chain (the ISSUE-level acceptance criteria).

use remoting::topology::TopologySpec;
use sim_core::fault::FaultPlan;
use sim_core::flight::DumpReason;
use sim_core::SimDuration;
use strings_core::config::StackConfig;
use strings_core::mapper::LbPolicy;
use strings_harness::serve::ServeSpec;
use strings_harness::{explain, sweep};
use strings_metrics::alerts::BurnRateConfig;
use strings_metrics::forensics;
use strings_workloads::arrivals::ArrivalProcess;

/// The acceptance-scale run: 64 nodes / 256 GPUs under fixed-rate load,
/// a node loss mid-run, the recorder always on, and a tight burn-rate
/// rule so the loss shows up as both a dump and an alert.
fn cluster_spec() -> ServeSpec {
    let mut s = ServeSpec::on(
        TopologySpec::parse("64x4:c2050").expect("topology grammar"),
        StackConfig::strings(LbPolicy::GWtMin),
        ArrivalProcess::Fixed { rate_rps: 40.0 },
        SimDuration::from_secs(12),
        42,
    );
    s.tenants = 8;
    s.faults = FaultPlan::parse("nodeloss@6s:node3").expect("fault grammar");
    s.burn_alert = Some(BurnRateConfig::new(SimDuration::from_ms(40)));
    s
}

/// Everything the forensics layer exports for one run, as bytes.
fn forensics_surfaces(spec: &ServeSpec, seed: u64) -> String {
    let stats = spec.run_with_seed(seed);
    let dumps: String = stats
        .flight_dumps
        .iter()
        .map(forensics::dump_jsonl)
        .collect();
    let alerts = stats
        .alerts
        .as_ref()
        .map(|a| a.render())
        .unwrap_or_default();
    format!("{dumps}\n{alerts}")
}

#[test]
fn cluster_fault_run_dumps_and_alerts() {
    let spec = cluster_spec();
    let stats = spec.run();

    // The node loss snapshots a fault-class dump...
    let fault_dump = stats
        .flight_dumps
        .iter()
        .find(|d| d.reason == DumpReason::Fault)
        .expect("node loss must trigger a fault-class dump");
    assert_eq!(fault_dump.nodes.len(), 64, "one window per node");
    assert!(
        fault_dump.nodes.iter().any(|w| !w.records.is_empty()),
        "dump window must hold records"
    );
    // ...whose window includes the blast radius: the injected fault and
    // the aborts/losses it caused (the trigger fires after the handler).
    let body = forensics::dump_jsonl(fault_dump);
    assert!(
        body.contains("\"kind\":\"fault_injected\""),
        "fault record in window"
    );
    assert!(body.contains("\"kind\":\"lost\""), "blast radius in window");

    // ...and the latency damage fires at least one burn-rate alert.
    let alerts = stats.alerts.as_ref().expect("burn-rate rule was set");
    assert!(alerts.fired() >= 1, "node loss must fire an alert");

    // Always-on: the recorder saw the whole run, not just the window.
    assert!(stats.flight_recorded > 0);

    // Byte-stable: a rerun renders identical dump + alert bytes.
    let a = forensics_surfaces(&spec, 42);
    let b = forensics_surfaces(&spec, 42);
    assert_eq!(a, b, "forensics output diverged across reruns");
}

#[test]
fn dumps_and_alerts_are_thread_count_invisible() {
    // Supernode scale for speed; same trigger structure as the cluster.
    let mut spec = ServeSpec::supernode(
        StackConfig::strings(LbPolicy::GWtMin),
        ArrivalProcess::Poisson { rate_rps: 6.0 },
        SimDuration::from_secs(8),
        7,
    );
    spec.faults = FaultPlan::parse("nodeloss@4s:node1").expect("fault grammar");
    spec.burn_alert = Some(BurnRateConfig::new(SimDuration::from_ms(40)));
    let seeds = [101u64, 202, 303, 404, 505, 606];
    let mut renders = Vec::new();
    for threads in [1usize, 4, 8] {
        sweep::set_threads(threads);
        let runs = sweep::run_serve_seeds(&spec, &seeds);
        let body: String = runs
            .iter()
            .map(|stats| {
                let dumps: String = stats
                    .flight_dumps
                    .iter()
                    .map(forensics::dump_jsonl)
                    .collect();
                let alerts = stats.alerts.as_ref().expect("rule set").render();
                format!("{dumps}\n{alerts}")
            })
            .collect();
        renders.push((threads, body));
    }
    sweep::set_threads(0);
    let (_, first) = &renders[0];
    for (threads, body) in &renders[1..] {
        assert_eq!(
            body, first,
            "forensics output under {threads} sweep threads differs from 1 thread"
        );
    }
}

#[test]
fn explain_chain_charges_sum_exactly_to_latency() {
    // Overloaded small topology: every request breaches a 40 ms target.
    let mut spec = ServeSpec::on(
        TopologySpec::parse("2x2:c2050").expect("topology grammar"),
        StackConfig::strings(LbPolicy::GWtMin),
        ArrivalProcess::Fixed { rate_rps: 10.0 },
        SimDuration::from_secs(6),
        42,
    );
    spec.burn_alert = Some(BurnRateConfig::new(SimDuration::from_ms(40)));
    spec.attribution = true;
    spec.explain = Some(3);
    let stats = spec.run();
    assert!(
        !stats.explain_records.is_empty(),
        "explain capture must record request 3's chain"
    );
    let attr = spec.attribution(&stats);
    let report = explain::render(&stats, Some(&attr), 3);
    assert!(report.contains("request 3"));
    assert!(
        report.contains("** SLO BREACH **"),
        "40 ms target must breach"
    );
    // The acceptance check: stage charges tile the request's lifetime
    // exactly, so the table footer asserts equality to the nanosecond.
    assert!(
        report.contains("(= end-to-end latency, exact)"),
        "stage charges must sum exactly to the end-to-end latency:\n{report}"
    );
    // And directly, without trusting the renderer:
    let a = attr
        .requests
        .iter()
        .find(|r| r.request == 3)
        .expect("request 3 attributed");
    assert_eq!(a.total_ns(), a.end - a.arrival);
    // Deterministic report bytes.
    assert_eq!(report, explain::render(&stats, Some(&attr), 3));
}

#[test]
fn tiny_ring_depth_evicts_oldest_and_caps_windows() {
    let mut spec = cluster_spec();
    spec.faults = FaultPlan::none();
    spec.burn_alert = None;
    spec.flight_depth = Some(4);
    spec.dump_final = true; // no trigger → end-of-run fallback snapshot
    let stats = spec.run();
    assert_eq!(stats.flight_dumps.len(), 1);
    let dump = &stats.flight_dumps[0];
    assert_eq!(dump.reason, DumpReason::Explicit);
    assert!(dump.nodes.iter().all(|w| w.records.len() <= 4));
    let kept: u64 = dump.nodes.iter().map(|w| w.records.len() as u64).sum();
    let evicted: u64 = dump.nodes.iter().map(|w| w.evicted).sum();
    assert!(evicted > 0, "a busy run must overflow depth-4 rings");
    assert_eq!(kept + evicted, stats.flight_recorded);
}

#[test]
fn disabled_recorder_records_nothing() {
    let mut spec = cluster_spec();
    spec.flight_depth = Some(0);
    spec.dump_final = true;
    let stats = spec.run();
    assert_eq!(stats.flight_recorded, 0);
    assert!(
        stats.flight_dumps.is_empty(),
        "depth 0 must not snapshot even with dump_final"
    );
}
