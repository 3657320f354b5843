//! Tier-1 guard for programs built at dispatch.
//!
//! A planned request carries a copy of the generator RNG instead of its
//! host program, and the executive builds the program when the request is
//! dispatched. That is a pure memory cut, so the programs must come out op
//! for op as the planners used to draw them up front, and the planners'
//! RNGs must end in the same state, so every later draw is unchanged too.
//! The reference planners below are the up-front versions, kept here
//! verbatim in behaviour.

use proptest::prelude::*;
use strings_repro::cuda::program::HostProgram;
use strings_repro::harness::scenario::{Scenario, StreamSpec};
use strings_repro::harness::serve::ServeSpec;
use strings_repro::harness::{PlannedRequest, RequestProgram};
use strings_repro::remoting::topology::TopologySpec;
use strings_repro::sim::rng::SimRng;
use strings_repro::sim::{SimDuration, SimTime};
use strings_repro::strings::config::StackConfig;
use strings_repro::strings::mapper::LbPolicy;
use strings_repro::workloads::arrivals::{ArrivalProcess, RequestStream};
use strings_repro::workloads::profile::AppKind;
use strings_repro::workloads::tracegen::TraceGenerator;

/// A few draws that expose an RNG's state.
fn draws(rng: &mut SimRng) -> Vec<u64> {
    (0..4).map(|_| rng.uniform_open0().to_bits()).collect()
}

#[test]
fn programs_built_at_dispatch_equal_the_generated_sequence() {
    let gen = TraceGenerator::default();
    for app in AppKind::ALL {
        for seed in [1, 42, 1009] {
            let mut eager = SimRng::new(seed);
            let mut lazy = SimRng::new(seed);
            let planned: Vec<RequestProgram> = (0..50)
                .map(|_| RequestProgram::generated(app, &mut lazy))
                .collect();
            for (i, p) in planned.into_iter().enumerate() {
                let want = gen.generate(&app.profile(), &mut eager);
                assert_eq!(p.build(), want, "{app} seed {seed} request {i}");
            }
            assert_eq!(
                draws(&mut eager),
                draws(&mut lazy),
                "{app} seed {seed}: the planner's RNG state diverged"
            );
        }
    }
}

#[test]
fn hand_built_programs_pass_through() {
    let mut rng = SimRng::new(5);
    let ops = TraceGenerator::default().generate(&AppKind::MM.profile(), &mut rng);
    assert_eq!(RequestProgram::from(ops.clone()).build(), ops);
    assert_eq!(RequestProgram::default().build(), HostProgram::new());
}

/// One planned request, with its program built: what the executive
/// dispatches.
#[derive(Debug, PartialEq)]
struct Built {
    arrival: SimTime,
    slot: usize,
    tenant: u32,
    node: u32,
    program: HostProgram,
}

fn built(plan: Vec<PlannedRequest>) -> Vec<Built> {
    plan.into_iter()
        .map(|r| Built {
            arrival: r.arrival,
            slot: r.slot,
            tenant: r.tenant.0,
            node: r.node.0,
            program: r.program.build(),
        })
        .collect()
}

/// The batch planner as it was when it generated every program up front:
/// per stream, one RNG draws the arrivals and then, in arrival order, the
/// programs.
fn batch_reference(s: &Scenario, seed: u64) -> Vec<Built> {
    let mut root = SimRng::new(seed);
    let gen = TraceGenerator::default();
    let mut out = Vec::new();
    for (slot, spec) in s.streams.iter().enumerate() {
        let mut rng = root.fork(slot as u64);
        let profile = spec.app.profile();
        let arrivals =
            RequestStream::for_app_runtime(spec.count, profile.runtime, spec.load, &mut rng);
        for &arrival in arrivals.arrivals() {
            out.push(Built {
                arrival,
                slot,
                tenant: spec.tenant.0,
                node: spec.node.0,
                program: gen.generate(&profile, &mut rng),
            });
        }
    }
    out.sort_by_key(|r| (r.arrival, r.slot));
    out
}

/// The serve planner as it was when it generated every program up front.
fn serve_reference(s: &ServeSpec, seed: u64) -> Vec<(SimTime, usize, HostProgram)> {
    let mut root = SimRng::new(seed);
    let mut arrival_rng = root.fork(0xA881);
    let mut tenant_rng = root.fork(0x7E4A);
    let mut gen_rng = root.fork(0x6E4);
    let gen = TraceGenerator::default();
    s.arrivals
        .generate(s.duration, &mut arrival_rng)
        .into_iter()
        .map(|a| {
            let tenant = match a.tenant_hint {
                Some(t) => t as usize % s.tenants,
                None => tenant_rng.index(s.tenants),
            };
            let app = s.apps[tenant % s.apps.len()];
            (a.at, tenant, gen.generate(&app.profile(), &mut gen_rng))
        })
        .collect()
}

#[test]
fn serve_plan_builds_the_up_front_programs() {
    for (seed, apps) in [
        (42, vec![AppKind::GA]),
        (7, vec![AppKind::GA, AppKind::MC, AppKind::BS]),
        (1009, AppKind::ALL.to_vec()),
    ] {
        let mut spec = ServeSpec::on(
            TopologySpec::parse("4x2:c2050").expect("topology grammar"),
            StackConfig::strings(LbPolicy::GWtMin),
            ArrivalProcess::parse("poisson:40rps").expect("arrival grammar"),
            SimDuration::from_secs(3),
            seed,
        );
        spec.tenants = 16;
        spec.apps = apps;
        let got: Vec<_> = built(spec.plan_with_seed(seed))
            .into_iter()
            .map(|b| (b.arrival, b.tenant as usize, b.program))
            .collect();
        let want = serve_reference(&spec, seed);
        assert!(want.len() > 50, "seed {seed}: a real stream");
        assert_eq!(got, want, "seed {seed}");
    }
}

proptest! {
    /// The batch planner, which draws a stream's arrivals and programs
    /// from one RNG, reproduces the up-front plan for any stream mix.
    #[test]
    fn batch_plan_builds_the_up_front_programs(
        streams in proptest::collection::vec((0usize..10, 1usize..6, 1u32..30), 1..5),
        seed in 0u64..10_000,
    ) {
        let streams: Vec<StreamSpec> = streams
            .into_iter()
            .map(|(app, count, load)| {
                StreamSpec::of(AppKind::ALL[app], count, f64::from(load) / 10.0)
            })
            .collect();
        let s = Scenario::supernode(StackConfig::strings(LbPolicy::GMin), streams, seed);
        prop_assert_eq!(built(s.plan()), batch_reference(&s, seed));
    }
}
