//! Fault-injection integration tests: determinism of the disruption
//! report, paper-predicted blast radii per backend design (Figure 5),
//! bounded retries under partition, and recovery visibility in the trace.

use strings_repro::gpu::spec::GpuModel;
use strings_repro::harness::scenario::{Scenario, StreamSpec};
use strings_repro::harness::RunStats;
use strings_repro::remoting::backend::BackendDesign;
use strings_repro::remoting::gpool::{NodeId, NodeSpec};
use strings_repro::remoting::topology::TopologySpec;
use strings_repro::sim::fault::FaultPlan;
use strings_repro::sim::trace::TraceEvent;
use strings_repro::strings::config::StackConfig;
use strings_repro::strings::device_sched::TenantId;
use strings_repro::strings::mapper::LbPolicy;
use strings_repro::workloads::profile::AppKind;

fn stream(tenant: u32, node: u32, count: usize) -> StreamSpec {
    StreamSpec {
        app: AppKind::MC,
        node: NodeId(node),
        tenant: TenantId(tenant),
        weight: 1.0,
        count,
        load: 3.0,
        server_threads: 6,
    }
}

/// A supernode run under a mixed fault plan: a backend crash, a cross-node
/// partition window, a degraded-link window, and one permanent device loss.
fn faulted_supernode(seed: u64) -> Scenario {
    Scenario::supernode(
        StackConfig::strings(LbPolicy::Grr),
        vec![stream(0, 0, 10), stream(1, 0, 10)],
        seed,
    )
    .with_faults(
        FaultPlan::none()
            .crash_at(5_000_000_000, 0)
            .partition_at(8_000_000_000, 1, 2_000_000_000)
            .degrade_at(12_000_000_000, 1, 8.0, 2_000_000_000)
            .device_failure_at(15_000_000_000, 3),
    )
}

#[test]
fn disruption_report_is_byte_identical_across_runs() {
    let a = faulted_supernode(7).run().disruption_report();
    let b = faulted_supernode(7).run().disruption_report();
    assert_eq!(a, b, "same seed, same plan: identical report");
    assert_eq!(a.render(), b.render(), "rendering is byte-stable");
    let c = faulted_supernode(8).run().disruption_report();
    assert_ne!(
        a.render(),
        c.render(),
        "a different seed perturbs the report"
    );
}

#[test]
fn mixed_fault_plan_exercises_every_recovery_path() {
    let stats = faulted_supernode(7).run();
    let report = stats.disruption_report();
    assert!(stats.rpc_timeouts > 0, "partition must expire deadlines");
    assert!(stats.rpc_retries > 0, "expired deadlines must retransmit");
    assert!(stats.gmap_rebuilds >= 1, "device loss rebuilds the gMap");
    assert!(report.disrupted() > 0, "faults must disturb some requests");
    let totals = report.totals();
    assert!(
        totals.completed + totals.retried + totals.degraded > 0,
        "the pool must keep serving through the faults"
    );
    assert_eq!(
        totals.total(),
        20,
        "every request reaches a terminal bucket"
    );
}

#[test]
fn retries_are_bounded_under_partition() {
    // The partition outlives the whole retry budget, so every blocked call
    // must exhaust its attempts and fail over — never spin forever.
    let scen = Scenario::supernode(
        StackConfig::strings(LbPolicy::Grr),
        vec![stream(0, 0, 8)],
        11,
    )
    .with_faults(FaultPlan::none().partition_at(8_000_000_000, 1, 5_000_000_000));
    let policy = scen.stack.retry;
    assert!(policy.is_enabled());
    let stats = scen.run(); // terminating at all proves the loop is bounded
    assert!(stats.rpc_timeouts > 0, "cross-node calls must time out");
    assert!(
        stats.rpc_timeouts <= stats.failovers * policy.max_attempts as u64 + stats.rpc_retries,
        "timeouts beyond the per-call budget: {} timeouts, {} retries, {} failovers",
        stats.rpc_timeouts,
        stats.rpc_retries,
        stats.failovers,
    );
    assert!(stats.failovers > 0, "exhausted calls must fail over");
}

#[test]
fn recovery_is_visible_in_the_trace() {
    let mut scen = faulted_supernode(7);
    scen.trace = true;
    let mut stats = scen.run();
    let trace = stats.trace.take().expect("tracing enabled");
    let instants: Vec<&str> = trace
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Instant { name, .. } => Some(*name),
            _ => None,
        })
        .collect();
    let spans: Vec<&str> = trace
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::SpanBegin { name, .. } => Some(*name),
            _ => None,
        })
        .collect();
    assert!(
        instants.contains(&"fault_injected"),
        "every injection lands in the trace"
    );
    assert!(instants.contains(&"rpc_timeout"), "timeouts are visible");
    assert!(instants.contains(&"rpc_retry"), "retries are visible");
    assert!(instants.contains(&"gmap_rebuild"), "rebuilds are visible");
    assert!(spans.contains(&"failover"), "failovers are spans");
    assert!(spans.contains(&"partition"), "partition windows are spans");
    // The exported Chrome JSON carries the recovery events too.
    let json = strings_repro::metrics::trace_export::chrome_json(&trace);
    assert!(json.contains("failover") && json.contains("fault_injected"));
}

fn blast_radius(design_cfg: StackConfig) -> RunStats {
    // Dense arrivals (load 4, 8 server threads) keep the lone GPU's
    // backend busy, so the 10 s crash always finds applications bound.
    let busy = StreamSpec {
        load: 4.0,
        server_threads: 8,
        ..stream(0, 0, 10)
    };
    let mut scen = Scenario::single_node(design_cfg, vec![busy], 17);
    scen.topology = TopologySpec::of_nodes(vec![NodeSpec::new(0, vec![GpuModel::TeslaC2050])]);
    scen.faults = FaultPlan::none().crash_at(10_000_000_000, 0);
    scen.run()
}

#[test]
fn blast_radii_follow_figure_5() {
    let d1 = blast_radius(StackConfig::rain(LbPolicy::GMin));
    let d2 = {
        let mut c = StackConfig::strings(LbPolicy::GMin);
        c.design = BackendDesign::SingleMaster;
        c.packer.sync_to_stream = false;
        blast_radius(c)
    };
    let d3 = blast_radius(StackConfig::strings(LbPolicy::GMin));
    assert_eq!(d1.failed_requests, 1, "design I: one private process dies");
    assert_eq!(d3.failed_requests, 1, "design III: one thread's app dies");
    assert!(
        d2.failed_requests > d3.failed_requests,
        "design II master death ({}) must dwarf design III ({})",
        d2.failed_requests,
        d3.failed_requests
    );
    let d3_totals = d3.disruption_report().totals();
    assert!(
        d3_totals.retried > 0 && d3_totals.downtime_ns > 0,
        "design III siblings replay after the respawn"
    );
    assert_eq!(
        d2.disruption_report().totals().retried,
        0,
        "design II leaves no survivors on the device to replay"
    );
}

/// A fault window of `u64::MAX` ns reaches past the end of time: its end
/// saturates instead of overflowing (a debug-build panic, a window that
/// closes at once in release), and the node stays partitioned and the
/// link degraded for the rest of the run — exactly as under a window that
/// merely outlasts the run.
#[test]
fn unbounded_fault_windows_last_to_the_end_of_the_run() {
    let plan = |for_ns| {
        FaultPlan::none()
            .degrade_at(4_000_000_000, 0, 4.0, for_ns)
            .partition_at(8_000_000_000, 1, for_ns)
    };
    let run = |for_ns, trace| {
        let mut scen = Scenario::supernode(
            StackConfig::strings(LbPolicy::Grr),
            vec![stream(0, 0, 8)],
            11,
        )
        .with_faults(plan(for_ns));
        scen.trace = trace;
        scen.run()
    };
    let outlasting_ns = 100_000 * 1_000_000_000;
    let forever = run(u64::MAX, false);
    let outlasting = run(outlasting_ns, false);
    assert!(
        forever.makespan_ns < 8_000_000_000 + outlasting_ns,
        "the comparison window outlasts the run"
    );
    assert_eq!(
        forever.completed_requests + forever.failed_requests + forever.shed_requests,
        8,
        "every request reaches a terminal state"
    );
    assert_eq!(
        forever.completed_requests, 8,
        "blocked calls fail over and complete"
    );
    assert!(forever.rpc_timeouts > 0, "the partition never heals");
    assert!(forever.failovers > 0, "blocked calls fail over");
    assert_eq!(forever.events, outlasting.events);
    assert_eq!(forever.makespan_ns, outlasting.makespan_ns);
    assert_eq!(
        forever.disruption_report().render(),
        outlasting.disruption_report().render()
    );

    // The traced run draws both windows as spans closing at the end of time.
    let trace = run(u64::MAX, true).trace.take().expect("tracing enabled");
    let ends: Vec<u64> = trace
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::SpanEnd { name, at, .. }
                if *name == "partition" || *name == "link_degraded" =>
            {
                Some(*at)
            }
            _ => None,
        })
        .collect();
    assert_eq!(ends, [u64::MAX, u64::MAX]);
}

/// FNV-1a over the aborted request ids, little-endian.
fn fnv_ids(ids: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in ids.iter().flat_map(|id| id.to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A node loss late in a long serve aborts exactly the requests running
/// on the lost node's frontends, plus those its devices held that cannot
/// be re-placed. The fault sweeps walk the live apps in request-id order;
/// the count and hash of the aborted ids are pinned to what the executive
/// aborted when the sweeps scanned a slot per planned request.
#[test]
fn late_node_loss_aborts_the_same_requests() {
    let args = "--topology 4x2:c2050 --tenants 16 --arrivals poisson:30rps \
                --duration 40s --seed 11 --faults nodeloss@35s:node1";
    let args: Vec<String> = args.split_whitespace().map(String::from).collect();
    let mut spec = strings_repro::harness::cli::parse_serve_args(&args)
        .expect("valid serve args")
        .spec;
    spec.trace = true;
    let mut stats = spec.run();
    let trace = stats.trace.take().expect("tracing enabled");
    let loss_at = 35_000_000_000;
    let aborted: Vec<u64> = trace
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Instant { at, name, args, .. }
                if *at == loss_at && *name == "fault_abort" =>
            {
                args.iter()
                    .find(|(k, _)| *k == "request")
                    .map(|(_, v)| v.parse().expect("numeric request id"))
            }
            _ => None,
        })
        .collect();
    assert!(aborted.windows(2).all(|w| w[0] < w[1]), "request-id order");
    assert_eq!(
        (aborted.len(), fnv_ids(&aborted)),
        (11, 0xa99b_e20e_2e43_4313),
        "the late node loss aborted other requests: {aborted:?}"
    );
}
