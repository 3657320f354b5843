//! Tier-1 pins on the metrics exports of a small cluster serve.
//!
//! Snapshots keep numbers and render the JSONL time series only when it
//! is written, so both exports are pinned here: the JSONL (as a string and
//! streamed) and the OpenMetrics exposition of an 8×2 serve with 128
//! tenants and 1 s sampling. The hashes were recorded from the registry
//! that rendered every snapshot into text as it was taken. The family set
//! does not depend on the order the sinks are switched on in.

use strings_repro::harness::serve::ServeSpec;
use strings_repro::harness::World;
use strings_repro::metrics::alerts::BurnRateConfig;
use strings_repro::remoting::topology::TopologySpec;
use strings_repro::sim::SimDuration;
use strings_repro::strings::config::StackConfig;
use strings_repro::strings::mapper::LbPolicy;
use strings_repro::workloads::arrivals::ArrivalProcess;

/// FNV-1a: a compact, stable pin for a long rendering.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn small_cluster_metrics_exports_are_pinned() {
    let mut spec = ServeSpec::on(
        TopologySpec::parse("8x2:c2050").expect("topology grammar"),
        StackConfig::strings(LbPolicy::GWtMin),
        ArrivalProcess::parse("poisson:40rps").expect("arrival grammar"),
        SimDuration::from_secs(5),
        42,
    );
    spec.tenants = 128;
    spec.metrics_every = Some(SimDuration::from_secs(1));
    let stats = spec.run();
    assert_eq!(stats.events, 13_943);
    let m = stats.metrics.as_ref().expect("metrics enabled");
    assert_eq!((m.series_count(), m.snapshot_count()), (201, 8));

    let jsonl = m.jsonl();
    assert_eq!(jsonl.lines().count(), 1_229);
    assert_eq!(
        (jsonl.len(), fnv(jsonl.as_bytes())),
        (105_980, 0x44d8_2452_546c_b1df)
    );
    let mut streamed = Vec::new();
    m.write_jsonl(&mut streamed).expect("write to a Vec");
    assert_eq!(streamed, jsonl.as_bytes());

    let text = m.render_openmetrics();
    assert_eq!(
        (text.len(), fnv(text.as_bytes())),
        (90_596, 0xede2_64f7_25a1_19ed)
    );
}

#[test]
fn setter_order_does_not_change_the_exports() {
    let mut spec = ServeSpec::on(
        TopologySpec::parse("2x2:c2050").expect("topology grammar"),
        StackConfig::strings(LbPolicy::GWtMin),
        ArrivalProcess::parse("poisson:10rps").expect("arrival grammar"),
        SimDuration::from_secs(3),
        42,
    );
    let every = SimDuration::from_secs(1);
    let rule = BurnRateConfig::new(SimDuration::from_ms(40));
    spec.metrics_every = Some(every);
    spec.node_metrics = true;
    spec.burn_alert = Some(rule);
    // `ServeSpec::run` turns on metrics, then node metrics, then the
    // burn-rate rule; here the order is reversed.
    let normal = spec.run();
    let mut world = World::new(
        &spec.topology,
        spec.device_cfg,
        spec.stack,
        spec.scope,
        spec.costs,
        spec.plan_with_seed(spec.seed),
        None,
    );
    world.set_seed(spec.seed);
    world.set_admission(spec.tenants, spec.admission);
    world.enable_request_log();
    world.set_burn_alert(rule);
    world.enable_node_metrics();
    world.enable_metrics(every);
    let reversed = world.run();

    let a = normal.metrics.as_ref().expect("metrics enabled");
    let b = reversed.metrics.as_ref().expect("metrics enabled");
    let text = a.render_openmetrics();
    for family in ["slo_burn_short", "slo_burn_long", "node_devices_live"] {
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "{family} missing"
        );
    }
    assert_eq!(text, b.render_openmetrics());
    assert_eq!(a.jsonl(), b.jsonl());
}
