//! The online stage ledger: latency attribution folded while the run goes.
//!
//! The executive charges every nanosecond of a request's life to one
//! stage. The recorder folds those charges into one row per request as
//! the run goes, so an attribution-only trace holds the ledger and no
//! events, and its size follows the requests served rather than the stage
//! transitions they made. These tests pin that the
//! online rows are exactly what folding a full trace's recorded charges
//! gives, on a faulty cluster run where failover, replay and retraction
//! of pre-charged RPC time all happen, and that attribution memory stays
//! bounded as the run gets longer.

use strings_repro::harness::cli::parse_serve_args;
use strings_repro::harness::serve::ServeSpec;
use strings_repro::harness::{RunStats, Scenario, StreamSpec, World};
use strings_repro::metrics::{trace_export, AttributionReport};
use strings_repro::remoting::gpool::NodeId;
use strings_repro::sim::fault::FaultPlan;
use strings_repro::sim::trace::{Trace, TraceEvent};
use strings_repro::strings::config::StackConfig;
use strings_repro::strings::device_sched::TenantId;
use strings_repro::strings::mapper::LbPolicy;
use strings_repro::workloads::profile::AppKind;

/// A small cluster serve: a partition fails requests over (timeouts,
/// retries, replays), a device crash fails over requests mid-RPC (their
/// pre-charged RPC time is retracted), and a degrade slows a node.
fn faulty_serve(duration: &str) -> ServeSpec {
    let args = format!(
        "--topology 8x4:c2050@calibrated --tenants 64 --apps GA,MC \
         --arrivals poisson:60rps --duration {duration} --seed 7 \
         --faults partition@2s+1s:node3;degrade@2s+1s:node5x4;crash@3s:gid9"
    );
    let args: Vec<String> = args.split_whitespace().map(String::from).collect();
    parse_serve_args(&args).expect("valid serve args").spec
}

fn attributed(duration: &str) -> ServeSpec {
    let mut s = faulty_serve(duration);
    s.attribution = true;
    s
}

fn traced(duration: &str) -> ServeSpec {
    let mut s = faulty_serve(duration);
    s.trace = true;
    s
}

fn stage_charges(trace: &Trace) -> usize {
    trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::StageCharge { .. }))
        .count()
}

fn named(trace: &Trace, name: &str) -> usize {
    trace
        .events
        .iter()
        .filter(|e| match e {
            TraceEvent::Instant { name: n, .. } | TraceEvent::SpanBegin { name: n, .. } => {
                *n == name
            }
            _ => false,
        })
        .count()
}

fn trace_of(stats: &RunStats) -> &Trace {
    stats.trace.as_ref().expect("the run records a trace")
}

#[test]
fn online_ledger_equals_the_fold_of_recorded_charges() {
    let full_spec = traced("8s");
    let full = full_spec.run();
    let trace = trace_of(&full);
    assert!(full.failovers > 0, "the faults fail requests over");
    assert!(named(trace, "replay") > 0, "failed-over requests replay");

    let online = trace.ledger.as_ref().expect("a full trace folds online");
    let offline = AttributionReport::from_events(trace);
    assert!(!online.requests.is_empty());
    assert_eq!(online.unfinished, 0, "serve runs drain");
    assert!(
        stage_charges(trace) > 20 * online.requests.len(),
        "the full trace records every stage transition"
    );

    assert_eq!(online.requests, offline.requests);
    assert_eq!(online.inconsistent, offline.inconsistent);
    assert_eq!(online.unfinished, offline.unfinished);

    let light_spec = attributed("8s");
    let light = light_spec.run();
    let a = light_spec.attribution(&light);
    let b = full_spec.attribution(&full);
    assert_eq!(a.requests, b.requests);
    assert_eq!(a.render(10), b.render(10));

    let light_trace = trace_of(&light);
    assert_eq!(
        stage_charges(light_trace),
        0,
        "attribution-only mode folds charges"
    );
    let planned = light_spec.plan_with_seed(light_spec.seed).len();
    assert!(
        light_trace.events.len() <= 8 * planned,
        "{} events for {planned} planned requests",
        light_trace.events.len()
    );
}

/// Devices in [`faulty_serve`]'s `8x4` topology. Strings shares one
/// context per device, and a shared context keeps its attribution window
/// for whichever app synchronizes on it next.
const DEVICES: u64 = 32;

/// Requests not finished (served, failed or shed) when the run ended.
fn in_flight(spec: &ServeSpec, stats: &RunStats) -> u64 {
    let planned = spec.plan_with_seed(spec.seed).len() as u64;
    planned - stats.completed_requests - stats.failed_requests - stats.shed_requests
}

#[test]
fn attribution_memory_follows_requests_not_stage_charges() {
    let runs: Vec<(ServeSpec, RunStats)> = ["6s", "12s"]
        .into_iter()
        .map(|d| {
            let spec = attributed(d);
            let stats = spec.run();
            (spec, stats)
        })
        .collect();
    let (short, long) = (&runs[0], &runs[1]);
    assert!(
        long.1.completed_requests > short.1.completed_requests * 3 / 2,
        "the longer run serves more requests"
    );
    for (spec, stats) in &runs {
        let trace = trace_of(stats);
        // The recorder keeps the ledger and nothing else: no event grows
        // with the requests or with their stage transitions.
        assert!(
            trace.events.is_empty(),
            "{} events recorded",
            trace.events.len()
        );
        let ledger = trace.ledger.as_ref().expect("attribution folds");
        let admitted = stats.admission.expect("serve runs admit").admitted;
        assert_eq!(
            ledger.requests.len() as u64,
            admitted,
            "one row per admitted request"
        );
        // Job windows live only while a synchronous copy waits and stream
        // windows only while their app is attached: what is left at the
        // end is the shared contexts' windows plus the apps in flight.
        let bound = DEVICES + 3 * in_flight(spec, stats);
        assert!(
            stats.attr_windows <= bound,
            "{} attribution windows left at the end (bound {bound})",
            stats.attr_windows
        );
    }
}

/// A faulted supernode batch: a backend crash and a partition fail
/// requests over mid-RPC, a degrade slows the link, a device is lost.
fn faulted_batch() -> Scenario {
    let stream = |node, tenant| StreamSpec {
        app: AppKind::MC,
        node: NodeId(node),
        tenant: TenantId(tenant),
        weight: 1.0,
        count: 10,
        load: 3.0,
        server_threads: 6,
    };
    Scenario::supernode(
        StackConfig::strings(LbPolicy::Grr),
        vec![stream(0, 0), stream(1, 1)],
        7,
    )
    .with_faults(
        FaultPlan::none()
            .crash_at(5_000_000_000, 0)
            .partition_at(8_000_000_000, 1, 2_000_000_000)
            .degrade_at(12_000_000_000, 1, 8.0, 2_000_000_000)
            .device_failure_at(15_000_000_000, 3),
    )
}

/// Run [`faulted_batch`] with `setup` applied to the world first.
fn batch_with(setup: impl FnOnce(&mut World)) -> Trace {
    let s = faulted_batch();
    let mut world = World::new(
        &s.topology,
        s.device_cfg,
        s.stack,
        s.scope,
        s.costs,
        s.plan(),
        s.fairness_horizon,
    );
    world.set_seed(s.seed);
    world.set_fault_plan(&s.faults);
    setup(&mut world);
    world.run().trace.expect("the run records a trace")
}

#[test]
fn tracing_and_attribution_setters_commute() {
    let traced = batch_with(|w| w.enable_tracing());
    let attr_first = batch_with(|w| {
        w.enable_attribution();
        w.enable_tracing();
    });
    let trace_first = batch_with(|w| {
        w.enable_tracing();
        w.enable_attribution();
    });
    let light = batch_with(|w| w.enable_attribution());

    let rows = traced.ledger.as_ref().expect("a full trace folds online");
    assert!(rows.requests.len() >= 20, "every request closes a row");
    assert!(
        stage_charges(&traced) > rows.requests.len(),
        "the full trace records the charges"
    );
    let bytes = trace_export::jsonl(&traced);
    for other in [&attr_first, &trace_first] {
        assert!(trace_export::jsonl(other) == bytes, "setter order shows");
        assert_eq!(other.ledger.as_ref(), Some(rows));
    }
    assert!(light.tracks.is_empty() && light.events.is_empty());
    assert_eq!(light.ledger.as_ref(), Some(rows));
}
