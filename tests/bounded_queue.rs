//! Tier-1 guard: the event queue holds the work in flight, not the run.
//!
//! Planned arrivals wait in a cursor beside the queue, so a serve's live
//! queue depth follows the requests in flight and stays flat as the run
//! gets longer. The cursor changes nothing simulated: the event counts are
//! pinned to the values recorded when every arrival was queued up front.
//! `World::run` itself asserts that no arrival is left in the cursor once
//! every request has finished.

use strings_repro::harness::serve::ServeSpec;
use strings_repro::remoting::topology::TopologySpec;
use strings_repro::sim::SimDuration;
use strings_repro::strings::config::StackConfig;
use strings_repro::strings::mapper::LbPolicy;
use strings_repro::workloads::arrivals::ArrivalProcess;

fn serve(seconds: u64) -> ServeSpec {
    let mut spec = ServeSpec::on(
        TopologySpec::parse("4x2:c2050").expect("topology grammar"),
        StackConfig::strings(LbPolicy::GWtMin),
        ArrivalProcess::parse("poisson:40rps").expect("arrival grammar"),
        SimDuration::from_secs(seconds),
        42,
    );
    spec.tenants = 32;
    spec
}

#[test]
fn live_queue_depth_does_not_grow_with_run_length() {
    let mut peaks = Vec::new();
    for (seconds, events) in [(10, 27_738), (30, 79_529)] {
        let spec = serve(seconds);
        let planned = spec.plan_with_seed(spec.seed).len() as u64;
        let stats = spec.run();
        assert_eq!(stats.events, events, "{seconds} s: event count moved");
        assert_eq!(
            stats.completed_requests + stats.shed_requests + stats.failed_requests,
            planned,
            "{seconds} s: every planned request reaches a terminal state"
        );
        assert_eq!(
            stats.completed_requests, planned,
            "{seconds} s: nothing lost"
        );
        peaks.push(stats.peak_live_queue_depth);
    }
    let (short, long) = (peaks[0] as f64, peaks[1] as f64);
    assert!(
        long <= short * 1.1,
        "peak live queue depth grew with run length: {peaks:?}"
    );
    assert!(
        long < 200.0,
        "the queue holds the work in flight: {peaks:?}"
    );
}
