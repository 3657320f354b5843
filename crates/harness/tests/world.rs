//! Executive unit checks through `World`'s public API: single requests
//! complete under every stack, collisions serialize on the bare runtime
//! and spread under the balancer, TFS divides service, feedback reaches
//! the mapper, runs are deterministic, Design II completes, and local
//! scope keeps apps on their node.

use gpu_sim::device::DeviceConfig;
use remoting::backend::BackendDesign;
use remoting::gpool::NodeId;
use remoting::topology::TopologySpec;
use sim_core::rng::SimRng;
use strings_core::config::StackConfig;
use strings_core::device_sched::TenantId;
use strings_core::mapper::{LbPolicy, WorkloadClass};
use strings_harness::{HostCosts, LbScope, PlannedRequest, RunStats, World};
use strings_workloads::profile::AppKind;
use strings_workloads::tracegen::TraceGenerator;

fn requests(kinds: &[(AppKind, usize, u64)]) -> Vec<PlannedRequest> {
    // (kind, slot, arrival_ms)
    let mut rng = SimRng::new(7);
    let gen = TraceGenerator {
        jitter: 0.0,
        ..Default::default()
    };
    kinds
        .iter()
        .map(|(k, slot, ms)| PlannedRequest {
            arrival: ms * 1_000_000,
            slot: *slot,
            class: WorkloadClass(*k as u32),
            node: NodeId(0),
            tenant: TenantId(*slot as u32),
            weight: 1.0,
            server_threads: 16,
            program: gen.generate(&k.profile(), &mut rng).into(),
        })
        .collect()
}

fn run(cfg: StackConfig, reqs: Vec<PlannedRequest>) -> RunStats {
    World::new(
        &TopologySpec::node_a(),
        DeviceConfig::default(),
        cfg,
        LbScope::Global,
        HostCosts::default(),
        reqs,
        None,
    )
    .run()
}

#[test]
fn single_request_completes_under_bare_runtime() {
    let stats = run(
        StackConfig::cuda_runtime(),
        requests(&[(AppKind::GA, 0, 0)]),
    );
    assert_eq!(stats.completed_requests, 1);
    let ct = stats.completions.mean_ct(0);
    let solo = AppKind::GA.profile().runtime.as_ns() as f64;
    // Within 2× of the profile runtime (overheads, device speed).
    assert!(
        ct > 0.5 * solo && ct < 2.0 * solo,
        "GA completion {ct} vs solo {solo}"
    );
    assert_eq!(stats.oom_events, 0);
}

#[test]
fn single_request_completes_under_strings() {
    let stats = run(
        StackConfig::strings(LbPolicy::GMin),
        requests(&[(AppKind::GA, 0, 0)]),
    );
    assert_eq!(stats.completed_requests, 1);
    assert!(stats.completions.mean_ct(0) > 0.0);
}

#[test]
fn single_request_completes_under_rain() {
    let stats = run(
        StackConfig::rain(LbPolicy::Grr),
        requests(&[(AppKind::MC, 0, 0)]),
    );
    assert_eq!(stats.completed_requests, 1);
}

#[test]
fn colliding_requests_serialize_on_bare_runtime() {
    // Two simultaneous MC requests both pick device 0: serialized with
    // context switching, so slower than 1.5× a solo run.
    let solo = run(
        StackConfig::cuda_runtime(),
        requests(&[(AppKind::MC, 0, 0)]),
    );
    let both = run(
        StackConfig::cuda_runtime(),
        requests(&[(AppKind::MC, 0, 0), (AppKind::MC, 1, 0)]),
    );
    assert_eq!(both.completed_requests, 2);
    let solo_ct = solo.completions.mean_ct(0);
    let shared_ct = both.completions.mean_ct(0).max(both.completions.mean_ct(1));
    assert!(
        shared_ct > 1.2 * solo_ct,
        "collision must hurt: {shared_ct} vs {solo_ct}"
    );
    assert!(both.context_switches > 0, "driver must have multiplexed");
}

#[test]
fn balancer_spreads_colliding_requests() {
    // Same two requests under Strings GMin: different GPUs, no
    // meaningful slowdown versus solo.
    let both = run(
        StackConfig::strings(LbPolicy::GMin),
        requests(&[(AppKind::MC, 0, 0), (AppKind::MC, 1, 0)]),
    );
    assert_eq!(both.completed_requests, 2);
    assert_eq!(both.context_switches, 0, "one context per device");
}

#[test]
fn strings_beats_bare_runtime_under_collision() {
    let reqs = requests(&[
        (AppKind::MC, 0, 0),
        (AppKind::MC, 1, 0),
        (AppKind::MC, 0, 100),
    ]);
    let cuda = run(StackConfig::cuda_runtime(), reqs.clone());
    let strings = run(StackConfig::strings(LbPolicy::GMin), reqs);
    assert!(
        strings.mean_completion_ns() < cuda.mean_completion_ns(),
        "strings {} !< cuda {}",
        strings.mean_completion_ns(),
        cuda.mean_completion_ns()
    );
}

#[test]
fn tfs_divides_service_between_tenants() {
    use strings_core::device_sched::GpuPolicy;
    // Two long-ish apps on a single-GPU node, equal weights.
    let topo = TopologySpec::builder()
        .node(vec![gpu_sim::spec::GpuModel::TeslaC2050])
        .build();
    let reqs = requests(&[(AppKind::HI, 0, 0), (AppKind::MM, 1, 0)]);
    let stats = World::new(
        &topo,
        DeviceConfig::default(),
        StackConfig::strings(LbPolicy::GMin).with_gpu_policy(GpuPolicy::Tfs),
        LbScope::Global,
        HostCosts::default(),
        reqs,
        Some(10_000_000_000), // 10 s horizon
    )
    .run();
    assert_eq!(stats.completed_requests, 2);
    let services: Vec<u64> = stats.tenant_service_ns.values().copied().collect();
    assert_eq!(services.len(), 2);
    let fairness =
        strings_metrics::jain_fairness(&services.iter().map(|s| *s as f64).collect::<Vec<_>>());
    assert!(fairness > 0.7, "TFS fairness too low: {fairness}");
}

#[test]
fn feedback_flows_to_mapper_and_arbiter_switches() {
    let cfg = StackConfig::strings(LbPolicy::GWtMin).with_feedback(LbPolicy::Mbf, 2);
    let reqs = requests(&[
        (AppKind::GA, 0, 0),
        (AppKind::GA, 0, 50),
        (AppKind::GA, 0, 3000),
    ]);
    let stats = run(cfg, reqs);
    assert_eq!(stats.completed_requests, 3);
}

#[test]
fn deterministic_across_runs() {
    let mk = || {
        run(
            StackConfig::strings(LbPolicy::GMin),
            requests(&[
                (AppKind::MC, 0, 0),
                (AppKind::BS, 1, 20),
                (AppKind::GA, 0, 40),
            ]),
        )
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.mean_completion_ns(), b.mean_completion_ns());
    assert_eq!(a.events, b.events);
    assert_eq!(a.makespan_ns, b.makespan_ns);
}

#[test]
fn design_two_master_serializes_but_completes() {
    let mut cfg = StackConfig::strings(LbPolicy::GMin);
    cfg.design = BackendDesign::SingleMaster;
    // Keep SST off for Design II: device syncs block the master.
    cfg.packer.sync_to_stream = false;
    let stats = run(cfg, requests(&[(AppKind::GA, 0, 0), (AppKind::GA, 1, 0)]));
    assert_eq!(stats.completed_requests, 2);
}

#[test]
fn local_scope_keeps_apps_on_their_node() {
    let reqs: Vec<PlannedRequest> = {
        let mut r = requests(&[(AppKind::MC, 0, 0), (AppKind::MC, 1, 0)]);
        r[1].node = NodeId(1);
        r
    };
    let stats = World::new(
        &TopologySpec::supernode(),
        DeviceConfig::default(),
        StackConfig::strings(LbPolicy::GMin),
        LbScope::Local,
        HostCosts::default(),
        reqs,
        None,
    )
    .run();
    assert_eq!(stats.completed_requests, 2);
    // Devices on both nodes must have seen work (one app each).
    let t = &stats.device_telemetry;
    let node_a_work = t[0].kernels_completed + t[1].kernels_completed;
    let node_b_work = t[2].kernels_completed + t[3].kernels_completed;
    assert!(node_a_work > 0 && node_b_work > 0);
}
