//! Tier-1 guard for the dispatcher epoch path.
//!
//! The device scheduler re-decides its awake set every 5 ms epoch, but the
//! executive only pops an epoch where the decision can change: an idle,
//! fully gated device parks its chain and replays the skipped LAS decay
//! steps on wake, and a pass whose awake set is already in force skips the
//! device resync. Both are pure cost cuts, so every simulated outcome must
//! match the values pinned here, which were recorded from the executive
//! that ticked every epoch on every device.

use strings_repro::cuda::call::CudaCall;
use strings_repro::cuda::program::{HostOp, HostProgram};
use strings_repro::gpu::device::DeviceConfig;
use strings_repro::gpu::job::{CopyDirection, KernelProfile};
use strings_repro::harness::experiments::common::{pair_streams, ExpScale};
use strings_repro::harness::{HostCosts, LbScope, PlannedRequest, RunStats, Scenario, World};
use strings_repro::remoting::gpool::NodeId;
use strings_repro::remoting::topology::TopologySpec;
use strings_repro::sim::SimDuration;
use strings_repro::strings::config::StackConfig;
use strings_repro::strings::device_sched::{GpuPolicy, TenantId};
use strings_repro::strings::mapper::{LbPolicy, WorkloadClass};
use strings_repro::workloads::pairs::workload_pairs;

/// FNV-1a over a rendering: a compact, stable pin for long sample vectors.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The outcome fields an epoch shortcut could disturb.
#[derive(Debug, PartialEq)]
struct Outcome {
    makespan_ns: u64,
    /// Per application slot: (completions, sum of completion times in ns).
    completions: Vec<(u64, f64)>,
    tenant_service_ns: Vec<(u32, u64)>,
    /// Total telemetry samples across devices, and a hash of all of them.
    telemetry_samples: usize,
    telemetry_fnv: u64,
}

fn outcome(s: &RunStats) -> Outcome {
    let c = &s.completions;
    let telemetry = &s.device_telemetry;
    Outcome {
        makespan_ns: s.makespan_ns,
        completions: (0..c.apps())
            .map(|i| (c.counts()[i], c.mean_ct(i) * c.counts()[i] as f64))
            .collect(),
        tenant_service_ns: s
            .tenant_service_ns
            .iter()
            .map(|(t, ns)| (t.0, *ns))
            .collect(),
        telemetry_samples: telemetry
            .iter()
            .map(|d| d.compute.len() + d.bandwidth.len() + d.copy.len() + d.switching.len())
            .sum(),
        telemetry_fnv: fnv(&format!("{telemetry:?}")),
    }
}

/// Fig 12 pair I (BO-BS) on the supernode under GWtMin and `policy`.
fn pair_i(policy: GpuPolicy) -> RunStats {
    let (_, a, b) = workload_pairs()[8];
    Scenario::supernode(
        StackConfig::strings(LbPolicy::GWtMin).with_gpu_policy(policy),
        pair_streams(a, b, &ExpScale::full()),
        0,
    )
    .run()
}

#[test]
fn supernode_pair_i_outcomes_are_pinned_under_las() {
    assert_eq!(
        outcome(&pair_i(GpuPolicy::Las)),
        Outcome {
            makespan_ns: 324_813_187_009,
            completions: vec![(30, 803457105738.0001), (30, 282413595481.0)],
            tenant_service_ns: vec![(0, 185_629_267_674), (1, 75_562_734_555)],
            telemetry_samples: 13302,
            telemetry_fnv: 10411654542971044614,
        }
    );
}

#[test]
fn supernode_pair_i_outcomes_are_pinned_under_tfs() {
    assert_eq!(
        outcome(&pair_i(GpuPolicy::Tfs)),
        Outcome {
            makespan_ns: 324_813_187_009,
            completions: vec![(30, 803452105738.0), (30, 282408595481.0)],
            tenant_service_ns: vec![(0, 185_629_267_674), (1, 75_562_734_555)],
            telemetry_samples: 13296,
            telemetry_fnv: 16171894527758522196,
        }
    );
}

#[test]
fn supernode_pair_i_outcomes_are_pinned_under_ps() {
    assert_eq!(
        outcome(&pair_i(GpuPolicy::Ps)),
        Outcome {
            makespan_ns: 324_813_187_009,
            completions: vec![(30, 803462105738.0), (30, 282393595480.99994)],
            tenant_service_ns: vec![(0, 185_629_267_674), (1, 75_562_734_555)],
            telemetry_samples: 13295,
            telemetry_fnv: 16316847728096454634,
        }
    );
}

/// One request under LAS: a GPU phase, `gap` of host-only work, then a
/// second GPU phase.
fn gapped_run(gap: SimDuration) -> RunStats {
    const BYTES: u64 = 1 << 20;
    let call = HostOp::Cuda;
    let copy = |dir| call(CudaCall::Memcpy { dir, bytes: BYTES });
    let kernel = KernelProfile {
        work_ref_ns: 3_000_000,
        occupancy: 0.5,
        bw_demand_mbps: 10_000.0,
    };
    let gpu_phase = [
        copy(CopyDirection::HostToDevice),
        call(CudaCall::LaunchKernel { kernel }),
        call(CudaCall::DeviceSynchronize),
        copy(CopyDirection::DeviceToHost),
    ];
    let mut ops = vec![
        call(CudaCall::SetDevice { device: 0 }),
        call(CudaCall::Malloc { bytes: BYTES }),
    ];
    ops.extend(gpu_phase);
    ops.push(HostOp::CpuBusy(gap));
    ops.extend(gpu_phase);
    ops.push(call(CudaCall::Free { bytes: BYTES }));
    ops.push(call(CudaCall::ThreadExit));
    let request = PlannedRequest {
        arrival: 0,
        slot: 0,
        class: WorkloadClass(0),
        node: NodeId(0),
        tenant: TenantId(0),
        weight: 1.0,
        server_threads: 1,
        program: HostProgram::from_ops(ops),
    };
    World::new(
        &TopologySpec::node_a(),
        DeviceConfig::default(),
        StackConfig::strings(LbPolicy::GMin).with_gpu_policy(GpuPolicy::Las),
        LbScope::Global,
        HostCosts::default(),
        vec![request],
        None,
    )
    .run()
}

#[test]
fn idle_host_gaps_cost_no_events() {
    // The long gap adds a whole number of 5 ms epochs, so the second GPU
    // phase meets the epoch boundaries at the same phase in both runs.
    let short = gapped_run(SimDuration::from_ms(20));
    let long = gapped_run(SimDuration::from_ms(20 + 400 * 5));
    assert_eq!(short.completed_requests, 1);
    assert_eq!(long.completed_requests, 1);
    assert_eq!(
        long.makespan_ns - short.makespan_ns,
        2_000_000_000,
        "the extra idle time shifts the run and changes nothing else"
    );
    assert_eq!(
        long.events, short.events,
        "two idle seconds on a registered device cost no events"
    );
}
