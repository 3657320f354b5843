//! Latency-attribution integration gates.
//!
//! The profiler's headline guarantee is **exact additivity**: for every
//! consistent request the per-stage charges tile `[arrival, end)` with no
//! gap and no overlap, so they sum to the end-to-end latency to the
//! nanosecond. These tests drive full serve runs — seeded Poisson and
//! bursty MMPP arrivals over all three scheduler stacks — and check the
//! invariant on every attributed request, plus the cheap-mode equivalence
//! (lightweight `--attribution` reconstructs the same report as a full
//! trace).

use proptest::prelude::*;
use sim_core::SimDuration;
use strings_core::config::StackConfig;
use strings_core::mapper::LbPolicy;
use strings_harness::serve::ServeSpec;
use strings_workloads::arrivals::ArrivalProcess;

fn stack(i: usize) -> StackConfig {
    match i % 3 {
        0 => StackConfig::cuda_runtime(),
        1 => StackConfig::rain(LbPolicy::GMin),
        _ => StackConfig::strings(LbPolicy::GWtMin),
    }
}

fn arrivals(mmpp: bool) -> ArrivalProcess {
    if mmpp {
        ArrivalProcess::Mmpp {
            burst_rps: 6.0,
            base_rps: 1.0,
            burst_dwell: SimDuration::from_secs(1),
            base_dwell: SimDuration::from_secs(2),
        }
    } else {
        ArrivalProcess::Poisson { rate_rps: 3.0 }
    }
}

fn spec(stack_i: usize, mmpp: bool, seed: u64) -> ServeSpec {
    let mut s = ServeSpec::supernode(
        stack(stack_i),
        arrivals(mmpp),
        SimDuration::from_secs(6),
        seed,
    );
    s.admission.queue_depth = 8;
    s.attribution = true;
    s
}

/// Run one attributed serve run and check every invariant the profiler
/// promises.
fn check_run(stack_i: usize, mmpp: bool, seed: u64) -> Result<(), TestCaseError> {
    let s = spec(stack_i, mmpp, seed);
    let stats = s.run_with_seed(seed);
    let rep = s.attribution(&stats);
    prop_assert_eq!(rep.inconsistent, 0, "healthy runs attribute everything");
    prop_assert_eq!(rep.unfinished, 0, "serve runs drain before finishing");
    prop_assert_eq!(
        rep.requests.len() as u64,
        stats.completed_requests,
        "one attribution per completed request"
    );
    for r in &rep.requests {
        prop_assert!(r.consistent);
        prop_assert_eq!(
            r.stage_ns.iter().sum::<u64>(),
            r.total_ns(),
            "request {} charges must sum to its latency exactly",
            r.request
        );
        prop_assert!(r.end >= r.arrival);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exact additivity across seeds, arrival processes and stacks.
    #[test]
    fn additivity_is_exact_across_serve_runs(
        seed in 1u64..10_000,
        mmpp in proptest::bool::ANY,
        stack_i in 0usize..3,
    ) {
        check_run(stack_i, mmpp, seed)?;
    }
}

/// The lightweight attribution mode must reconstruct the same report as a
/// full structured trace of the same run (the full trace records a strict
/// superset of events).
#[test]
fn attribution_mode_matches_full_trace() {
    let seed = 77;
    let light = spec(2, false, seed);
    let mut full = spec(2, false, seed);
    full.attribution = false;
    full.trace = true;
    let a = light.attribution(&light.run_with_seed(seed));
    let b = full.attribution(&full.run_with_seed(seed));
    assert_eq!(a.requests, b.requests);
    assert_eq!(a.render(5), b.render(5));
}

/// Attribution riding a faulty run stays sound: requests hit by aborts
/// either remain exactly additive or are flagged inconsistent — never
/// silently mis-summed.
#[test]
fn faulty_runs_never_mis_sum() {
    let mut s = spec(2, false, 5);
    s.faults = sim_core::fault::FaultPlan::parse("crash@2s:gid0;degrade@1s+2s:node1x4").unwrap();
    let stats = s.run();
    let rep = s.attribution(&stats);
    assert!(!rep.requests.is_empty());
    for r in rep.consistent() {
        assert_eq!(r.stage_ns.iter().sum::<u64>(), r.total_ns());
    }
}

/// Sanity on the decomposition itself: under contention the breakdown
/// must attribute a nonzero share to queueing somewhere, and every stage
/// total must be bounded by aggregate latency.
#[test]
fn stage_totals_are_bounded() {
    let s = spec(0, false, 11);
    let rep = s.attribution(&s.run());
    let total = rep.total_latency_ns();
    assert!(total > 0);
    for ns in rep.totals() {
        assert!(ns <= total);
    }
    let rebuilt: u64 = rep.totals().iter().sum();
    assert_eq!(rebuilt, total, "aggregate additivity follows per-request");
}

/// Regression: a blocking RPC charges `Rpc` up to its delivery instant
/// when it is sent. A node loss that fails the request over before that
/// instant used to leave the attribution cursor ahead of the clock, so the
/// replay's first released wait panicked (`clamp` with min > max) and
/// requests aborted mid-RPC were flagged inconsistent. The failure now
/// cuts the pre-charged tail back to the failure instant.
#[test]
fn node_loss_during_a_precharged_rpc_stays_additive() {
    let args: Vec<String> = "--topology 32x4:c2050@calibrated --tenants 64 --apps GA,MC \
         --arrivals poisson:75rps --duration 4s --faults nodeloss@3s:node3 \
         --attribution --seed 1"
        .split_whitespace()
        .map(str::to_string)
        .collect();
    let run = strings_harness::cli::parse_serve_args(&args).expect("valid serve args");
    let stats = run.spec.run_with_seed(1);
    assert!(stats.failovers > 0, "the node loss fails requests over");
    let rep = run.spec.attribution(&stats);
    assert_eq!(rep.inconsistent, 0, "every request attributes exactly");
    assert_eq!(rep.unfinished, 0);
    for r in &rep.requests {
        assert_eq!(r.stage_ns.iter().sum::<u64>(), r.total_ns());
    }
}
