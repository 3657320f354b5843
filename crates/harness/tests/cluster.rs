//! Cluster-scale gates: the 64-node / 256-GPU serve capstone must be
//! byte-deterministic (rerun and sweep-thread invariant), and a node loss
//! in a 16-node cluster must keep its blast radius node-local.

use gpu_sim::spec::GpuModel;
use remoting::backend::BackendDesign;
use remoting::gpool::NodeId;
use remoting::topology::TopologySpec;
use sim_core::fault::FaultPlan;
use sim_core::SimDuration;
use strings_core::config::StackConfig;
use strings_core::device_sched::TenantId;
use strings_core::mapper::LbPolicy;
use strings_core::placement::NodePolicy;
use strings_harness::scenario::{LbScope, Scenario, StreamSpec};
use strings_harness::serve::ServeSpec;
use strings_harness::sweep;

/// The capstone topology: 64 nodes of 4 Tesla C2050s — 256 GPUs.
fn capstone() -> TopologySpec {
    let topo = TopologySpec::cluster(64, 4, GpuModel::TeslaC2050);
    assert_eq!(topo.num_nodes(), 64);
    assert_eq!(topo.num_devices(), 256);
    topo
}

/// A cluster serve spec busy enough that scheduling interleavings and
/// placement decisions would surface in the report if they drifted:
/// thousands of tenants hash-placed over the 64 nodes.
fn cluster_spec() -> ServeSpec {
    let mut s = ServeSpec::on(
        capstone(),
        StackConfig::strings(LbPolicy::GWtMin),
        strings_workloads::arrivals::ArrivalProcess::Poisson { rate_rps: 300.0 },
        SimDuration::from_secs(8),
        42,
    );
    s.tenants = 2048;
    s.placement = NodePolicy::Hash;
    s.scope = LbScope::Local;
    s.admission.queue_depth = 4;
    s
}

#[test]
fn cluster_serve_slo_rerun_renders_byte_identically() {
    let s = cluster_spec();
    let a = s.slo(&s.run()).render();
    let b = s.slo(&s.run()).render();
    assert_eq!(a, b, "two cluster serve runs of the same spec diverged");
    assert!(a.contains("completed"), "report rendered something");
}

#[test]
fn cluster_serve_is_invariant_across_sweep_thread_counts() {
    let spec = cluster_spec();
    let seeds = [11u64, 22, 33];
    let mut renders = Vec::new();
    for threads in [1usize, 4, 8] {
        sweep::set_threads(threads);
        let runs = sweep::run_serve_seeds(&spec, &seeds);
        let joined: String = runs.iter().map(|st| spec.slo(st).render()).collect();
        renders.push((threads, joined));
    }
    sweep::set_threads(0);
    let (_, first) = &renders[0];
    for (threads, render) in &renders[1..] {
        assert_eq!(
            render, first,
            "cluster SLO reports under {threads} sweep threads differ from 1 thread"
        );
    }
}

#[test]
fn cluster_serve_spreads_work_beyond_one_node() {
    let stats = cluster_spec().run();
    assert!(stats.completed_requests > 100, "cluster run did work");
    // Devices from many nodes saw kernels — placement actually spread the
    // tenants instead of funnelling everything through node 0.
    let busy_nodes: std::collections::BTreeSet<usize> = stats
        .device_telemetry
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kernels_completed > 0)
        .map(|(gid, _)| gid / 4)
        .collect();
    assert!(
        busy_nodes.len() > 16,
        "only {} of 64 nodes ever ran a kernel",
        busy_nodes.len()
    );
}

/// One pinned stream per node: tenant *t*'s frontend lives on node *t*.
fn one_stream_per_node(n_nodes: u32, count: usize) -> Vec<StreamSpec> {
    (0..n_nodes)
        .map(|i| StreamSpec {
            app: strings_workloads::profile::AppKind::MC,
            node: NodeId(i),
            tenant: TenantId(i),
            weight: 1.0,
            count,
            load: 2.0,
            server_threads: 4,
        })
        .collect()
}

#[test]
fn node_loss_blast_radius_is_node_local_on_design_ii() {
    // Design II (single master thread per backend) is the paper's worst
    // case for fault isolation *within* a node; with per-node gPool shards
    // (Local scope) the cluster layer must still confine a node loss to
    // the node that died.
    let mut design2 = StackConfig::strings(LbPolicy::GMin);
    design2.design = BackendDesign::SingleMaster;
    design2.packer.sync_to_stream = false;

    let n_nodes = 16u32;
    let per_stream = 10usize;
    let topo = TopologySpec::cluster(n_nodes as usize, 1, GpuModel::TeslaC2050);
    let mut scen = Scenario::on(topo, design2, one_stream_per_node(n_nodes, per_stream), 17)
        .with_scope(LbScope::Local);
    scen.faults = FaultPlan::none().node_loss_at(5_000_000_000, 5);
    let stats = scen.run();

    assert!(
        stats.failed_requests > 0,
        "the node loss never caught a request in flight"
    );
    for (tenant, out) in &stats.tenant_outcomes {
        if tenant.0 == 5 {
            assert!(out.lost > 0, "tenant 5 lives on the dead node");
        } else {
            assert_eq!(
                out.lost, 0,
                "tenant {} lost requests to a fault on another node",
                tenant.0
            );
        }
    }
    // Every surviving node's stream drains completely.
    let counts = stats.completions.counts();
    for (slot, &done) in counts.iter().enumerate() {
        if slot != 5 {
            assert_eq!(
                done, per_stream as u64,
                "stream {slot} on a surviving node did not finish"
            );
        }
    }
}

/// Device stream tables stay bounded by the apps alive, not by the apps
/// that ever ran: a private stream's row goes when its app exits or is
/// detached by a failover. Thousands of apps pass through this 64×4 run,
/// partitions included, and no row outlives its app.
#[test]
fn stream_tables_stay_bounded_by_live_apps() {
    let args: Vec<String> = "--topology 64x4:c2050@calibrated --tenants 2048 \
         --arrivals poisson:300rps --duration 8s \
         --faults partition@2s+2s:node3;partition@5s+1s:node7"
        .split_whitespace()
        .map(String::from)
        .collect();
    let spec = strings_harness::cli::parse_serve_args(&args)
        .expect("serve arguments parse")
        .spec;
    let planned = spec.plan_with_seed(spec.seed).len() as u64;
    let stats = spec.run();
    assert!(stats.completed_requests > 1000, "the run served real load");
    assert!(stats.rpc_timeouts > 0, "the partitions disrupted requests");
    let live_apps =
        planned - stats.completed_requests - stats.failed_requests - stats.shed_requests;
    assert!(
        stats.stream_rows <= live_apps,
        "{} stream rows left for {live_apps} live apps",
        stats.stream_rows
    );
}
