//! Tier-1 pins on every surface the executive's request lifecycle feeds.
//!
//! One small faulted cluster serve turns on everything a request step can
//! reach: admission shedding (queue, rate limit and SLO gate), a node
//! loss with arrivals and queued requests behind it, a partition long
//! enough to exhaust the retry budget, a device failure, a backend crash,
//! a degraded link, a firing burn-rate alert, an explicit dump, metrics
//! and the `explain` capture. The full `--trace` JSONL export, every
//! flight dump, the alert log, the explain report and the OpenMetrics
//! exposition are pinned as (length, FNV-1a). The run also asserts that
//! every trace name and every flight-record kind the executive emits
//! shows up, so the pins cover each lifecycle step.

use std::collections::BTreeSet;
use strings_repro::harness::cli::parse_serve_args;
use strings_repro::harness::explain;
use strings_repro::harness::serve::ServeSpec;
use strings_repro::harness::RunStats;
use strings_repro::metrics::{forensics, trace_export};
use strings_repro::sim::flight::FlightKind;
use strings_repro::sim::trace::TraceEvent;

/// FNV-1a: a compact, stable pin for a long rendering.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn pin(text: &str) -> (usize, u64) {
    (text.len(), fnv(text.as_bytes()))
}

/// The request whose chain `explain` captures: it fails over and replays.
const EXPLAINED: u64 = 7;

fn faulted_serve() -> ServeSpec {
    let args = "--topology 4x2:c2050@calibrated --tenants 16 --apps GA,MC \
         --arrivals poisson:60rps --duration 4s --seed 11 \
         --queue-depth 4 --server-threads 1 --rate-limit 2:1 --slo-target 400ms \
         --faults partition@1s+1s:node1;degrade@1s+2s:node2x4;crash@1500ms:gid4;\
ecc@2500ms:gid5;nodeloss@2s:node3 \
         --burn-alert 4s --alert-windows 500ms:2s --flight-depth 4096 --dump-at 3s --dump out.jsonl \
         --metrics-every 1s --node-metrics";
    let args: Vec<String> = args.split_whitespace().map(String::from).collect();
    // `--dump` only makes `--dump-at` legal here: the CLI writes the file,
    // the spec does not.
    let mut spec = parse_serve_args(&args).expect("valid serve args").spec;
    spec.trace = true;
    spec.explain = Some(EXPLAINED);
    spec
}

/// Every trace instant, span and counter name the executive emits.
const EXECUTIVE_NAMES: [&str; 22] = [
    "request",
    "dispatch",
    "arrival_dropped",
    "shed",
    "rpc_dropped",
    "rpc_timeout",
    "rpc_retry",
    "rpc_retries_exhausted",
    "fault_injected",
    "link_degraded",
    "partition",
    "gmap_rebuild",
    "fault_abort",
    "failover",
    "replay",
    "admitted",
    "shed_queue_full",
    "shed_rate_limited",
    "shed_slo",
    "clamped_schedules",
    "cancelled_wakeups",
    "stale_pops",
];

/// Every flight-record kind the executive writes.
const EXECUTIVE_KINDS: [FlightKind; 17] = [
    FlightKind::Arrival,
    FlightKind::Shed,
    FlightKind::Lost,
    FlightKind::Dispatch,
    FlightKind::Bind,
    FlightKind::RpcSend,
    FlightKind::RpcDrop,
    FlightKind::RpcDeliver,
    FlightKind::RpcReply,
    FlightKind::RpcTimeout,
    FlightKind::RpcRetry,
    FlightKind::FaultInjected,
    FlightKind::Failover,
    FlightKind::Restart,
    FlightKind::Abort,
    FlightKind::Complete,
    FlightKind::Alert,
];

fn trace_names(stats: &RunStats) -> BTreeSet<&'static str> {
    let trace = stats.trace.as_ref().expect("the run is traced");
    trace
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Instant { name, .. }
            | TraceEvent::SpanBegin { name, .. }
            | TraceEvent::Counter { name, .. } => Some(*name),
            _ => None,
        })
        .collect()
}

fn instants(stats: &RunStats, name: &str) -> u64 {
    let trace = stats.trace.as_ref().expect("the run is traced");
    trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Instant { name: n, .. } if *n == name))
        .count() as u64
}

#[test]
fn every_lifecycle_surface_is_pinned() {
    let spec = faulted_serve();
    let stats = spec.run();

    let names = trace_names(&stats);
    for name in EXECUTIVE_NAMES {
        assert!(
            names.contains(name),
            "the run emits no '{name}' trace event"
        );
    }
    let kinds: BTreeSet<&str> = stats
        .flight_dumps
        .iter()
        .flat_map(|d| d.nodes.iter().flat_map(|w| w.records.iter()))
        .map(|r| r.kind.label())
        .collect();
    for kind in EXECUTIVE_KINDS {
        assert!(
            kinds.contains(kind.label()),
            "no dump holds a '{}' flight record",
            kind.label()
        );
    }
    // All five terminal paths run: a request lost when it leaves the
    // server queue for a dead node is neither an abort nor a drop.
    assert!(
        stats.failed_requests
            > instants(&stats, "fault_abort") + instants(&stats, "arrival_dropped")
    );
    assert!(stats.shed_requests > 0 && stats.completed_requests > 0);

    let trace = trace_export::jsonl(stats.trace.as_ref().expect("the run is traced"));
    assert_eq!(
        pin(&trace),
        (1_294_201, 0x4039_406f_4a9c_22ac),
        "trace export"
    );
    let dumps: String = stats
        .flight_dumps
        .iter()
        .map(forensics::dump_jsonl)
        .collect();
    assert_eq!(stats.flight_dumps.len(), 4, "one dump per trigger class");
    assert_eq!(
        pin(&dumps),
        (795_271, 0xf508_b6d9_a6be_c874),
        "flight dumps"
    );
    let alerts = stats.alerts.as_ref().expect("burn-rate rule set").render();
    assert_eq!(pin(&alerts), (911, 0xec9d_2c23_76ce_3756), "alert log");
    let attr = spec.attribution(&stats);
    let report = explain::render(&stats, Some(&attr), EXPLAINED);
    assert!(report.contains("(= end-to-end latency, exact)"));
    assert_eq!(
        pin(&report),
        (64_916, 0x949e_13bd_3f6d_5449),
        "explain report"
    );
    let metrics = stats
        .metrics
        .as_ref()
        .expect("metrics enabled")
        .render_openmetrics();
    assert_eq!(
        pin(&metrics),
        (14_585, 0x3363_c39e_1026_45a3),
        "OpenMetrics exposition"
    );
}
