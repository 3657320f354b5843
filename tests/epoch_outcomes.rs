//! Tier-1 guard for the dispatcher epoch path.
//!
//! The device scheduler re-decides its awake set every 5 ms epoch, but the
//! executive only pops an epoch where the decision can change: once a pass
//! finds (or leaves) gates the next pass would re-derive, the device parks
//! its chain until it changes, and the wake replays the skipped LAS decay
//! steps; under LAS a decay tie that hands the GPU to a lower-id app is
//! queued ahead. These are pure cost cuts, so every simulated outcome must
//! match the values pinned here, which were recorded from executives that
//! ticked every epoch. A traced run still ticks every epoch (tracing
//! disables the shortcuts), so the small scenarios below also compare the
//! parked run against a traced one in the same process. Debug builds
//! additionally run the dispatcher at every skipped boundary and assert it
//! keeps the gates in force.

use proptest::prelude::*;
use strings_repro::cuda::call::CudaCall;
use strings_repro::cuda::program::{HostOp, HostProgram};
use strings_repro::gpu::device::DeviceConfig;
use strings_repro::gpu::job::{CopyDirection, KernelProfile};
use strings_repro::gpu::spec::GpuModel;
use strings_repro::harness::experiments::common::{pair_streams, ExpScale};
use strings_repro::harness::{HostCosts, LbScope, PlannedRequest, RunStats, Scenario, World};
use strings_repro::remoting::backend::BackendDesign;
use strings_repro::remoting::gpool::{NodeId, NodeSpec};
use strings_repro::remoting::topology::TopologySpec;
use strings_repro::sim::fault::FaultPlan;
use strings_repro::sim::trace::TraceEvent;
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
            .map(|d| d.compute.len() + d.bandwidth().len() + d.copy.len() + d.switching.len())
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
        program: HostProgram::from_ops(ops).into(),
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

#[test]
fn pair_i_event_counts_are_pinned() {
    // Counts, not outcomes: an executive that pops an epoch per boundary
    // again (or drops one it needs) fails here deterministically.
    let events: Vec<u64> = [GpuPolicy::Las, GpuPolicy::Tfs, GpuPolicy::Ps]
        .into_iter()
        .map(|p| pair_i(p).events)
        .collect();
    assert_eq!(events, vec![EVENTS_LAS, EVENTS_TFS, EVENTS_PS]);
}

// Parking only idle devices popped 72,458 / 72,455 / 72,445 events here;
// ticking every epoch, 240,633 / 240,646 / 240,634.
const EVENTS_LAS: u64 = 25_900;
const EVENTS_TFS: u64 = 25_898;
const EVENTS_PS: u64 = 25_897;

const MS: u64 = 1_000_000;

/// A kernel that fills the device: no other kernel runs beside it.
fn kernel(ms: u64) -> HostOp {
    kernel_sharing(ms, 1.0)
}

fn kernel_sharing(ms: u64, occupancy: f64) -> HostOp {
    HostOp::Cuda(CudaCall::LaunchKernel {
        kernel: KernelProfile {
            work_ref_ns: ms * MS,
            occupancy,
            bw_demand_mbps: 10_000.0,
        },
    })
}

fn sync() -> HostOp {
    HostOp::Cuda(CudaCall::DeviceSynchronize)
}

fn cpu(ms: u64) -> HostOp {
    HostOp::CpuBusy(SimDuration::from_ms(ms))
}

/// A program: bind and allocate, then `body`, then free and exit.
fn program(body: Vec<HostOp>) -> HostProgram {
    const BYTES: u64 = 1 << 20;
    let mut ops = vec![
        HostOp::Cuda(CudaCall::SetDevice { device: 0 }),
        HostOp::Cuda(CudaCall::Malloc { bytes: BYTES }),
    ];
    ops.extend(body);
    ops.push(HostOp::Cuda(CudaCall::Free { bytes: BYTES }));
    ops.push(HostOp::Cuda(CudaCall::ThreadExit));
    HostProgram::from_ops(ops)
}

/// The stack `random_mixes_match_ticking` draws: Rain's per-app backend
/// processes (Design I), one master thread per GPU (Design II), or
/// Strings' per-GPU process with a thread per app (Design III).
fn stack(design: usize, policy: GpuPolicy) -> StackConfig {
    let cfg = match design {
        0 => StackConfig::rain(LbPolicy::GMin),
        1 => StackConfig {
            design: BackendDesign::SingleMaster,
            ..StackConfig::strings(LbPolicy::GMin)
        },
        _ => StackConfig::strings(LbPolicy::GMin),
    };
    cfg.with_gpu_policy(policy)
}

/// One request per `(arrival_ms, program)`, each its own slot and tenant,
/// on `nodes` nodes of `gpus` Tesla C2050s each under `cfg`; with more
/// than one node, request `i` is fronted on node `i % nodes` and each
/// node balances its own GPUs (`LbScope::Local`). The C2050 is the
/// reference device and launches here cost nothing, so a kernel that
/// starts on an epoch boundary and lasts whole epochs ends on one.
/// `traced` turns on full tracing, which makes the executive tick every
/// epoch.
fn run_on(
    (nodes, gpus): (u32, usize),
    cfg: StackConfig,
    apps: &[(u64, HostProgram)],
    faults: &FaultPlan,
    traced: bool,
) -> RunStats {
    let requests = apps
        .iter()
        .enumerate()
        .map(|(i, (arrival_ms, program))| PlannedRequest {
            arrival: arrival_ms * MS,
            slot: i,
            class: WorkloadClass(0),
            node: NodeId(i as u32 % nodes),
            tenant: TenantId(i as u32),
            weight: 1.0,
            server_threads: 1,
            program: program.clone().into(),
        })
        .collect();
    let node = |id| NodeSpec::new(id, vec![GpuModel::TeslaC2050; gpus]);
    let mut world = World::new(
        &TopologySpec::of_nodes((0..nodes).map(node).collect()),
        DeviceConfig {
            kernel_launch_ns: 0,
            ..DeviceConfig::default()
        },
        cfg,
        if nodes > 1 {
            LbScope::Local
        } else {
            LbScope::Global
        },
        HostCosts::default(),
        requests,
        None,
    );
    world.set_fault_plan(faults);
    if traced {
        world.enable_tracing();
    }
    world.run()
}

fn one_gpu(policy: GpuPolicy, apps: &[(u64, HostProgram)], traced: bool) -> RunStats {
    let cfg = StackConfig::strings(LbPolicy::GMin).with_gpu_policy(policy);
    run_on((1, 1), cfg, apps, &FaultPlan::none(), traced)
}

/// Run parked and ticking (traced); the outcomes must agree. Returns the
/// parked run's outcome and the ticking run's stats.
fn parked_matches_ticking(policy: GpuPolicy, apps: &[(u64, HostProgram)]) -> (Outcome, RunStats) {
    let parked = outcome(&one_gpu(policy, apps, false));
    let ticking = one_gpu(policy, apps, true);
    assert_eq!(parked, outcome(&ticking), "{policy:?}: parked run diverged");
    (parked, ticking)
}

/// Times of the dispatcher's epoch passes, and of kernel completions, on
/// the traced run's only device.
fn epochs_and_kernel_ends(s: &RunStats) -> (Vec<u64>, Vec<u64>) {
    let trace = s.trace.as_ref().expect("traced run");
    let (mut epochs, mut ends) = (Vec::new(), Vec::new());
    for ev in &trace.events {
        let desc = trace.desc(ev.track());
        match ev {
            TraceEvent::Instant {
                at, name: "epoch", ..
            } if desc.thread == "scheduler" => epochs.push(*at),
            TraceEvent::SpanEnd {
                at, name: "kernel", ..
            } if desc.thread == "compute" => ends.push(*at),
            _ => {}
        }
    }
    (epochs, ends)
}

#[test]
fn las_decay_tie_hands_the_gpu_to_the_lower_id_app() {
    // App 2 runs a 3.5 s kernel that fills the device. App 1 then queues a
    // kernel behind it and, with no service yet, is the awake app. App 0
    // (busy on the host meanwhile) queues one too; its decayed service
    // exceeds app 1's zero until, about 2.4 s after its first kernel, Eq. 1
    // decays it to zero as well. The tie goes to the lower id, so app 0's
    // kernel, not app 1's, runs when the device frees up.
    let apps = [
        (
            0,
            program(vec![kernel(10), sync(), cpu(150), kernel(10), sync()]),
        ),
        (100, program(vec![kernel(10), sync()])),
        (50, program(vec![kernel(3_500), sync()])),
    ];
    let (parked, _) = parked_matches_ticking(GpuPolicy::Las, &apps);
    let done = |slot: usize| apps[slot].0 * MS + parked.completions[slot].1 as u64;
    assert!(
        3_550 * MS < done(0) && done(0) < done(1),
        "app 0 took over the awake slot: {parked:?}"
    );
    assert_eq!(
        parked,
        Outcome {
            makespan_ns: 3_575_013_007,
            completions: vec![(1, 3565013007.0), (1, 3475013007.0), (1, 3505013007.0)],
            tenant_service_ns: vec![(0, 20_000_000), (1, 10_000_000), (2, 3_500_000_000)],
            telemetry_samples: 8,
            telemetry_fnv: 15733316501889346388,
        }
    );
}

/// One app: a host phase long enough for the first pass to gate its
/// stream, then a kernel that waits for the next pass, so it starts on an
/// epoch boundary and, lasting whole epochs, completes on one.
fn boundary_kernel(ms: u64) -> [(u64, HostProgram); 1] {
    [(0, program(vec![cpu(10), kernel(ms), sync()]))]
}

#[test]
fn completion_on_a_parked_boundary_matches_ticking() {
    for policy in [GpuPolicy::Las, GpuPolicy::Tfs, GpuPolicy::Ps] {
        let (parked, ticking) = parked_matches_ticking(policy, &boundary_kernel(20));
        let (epochs, ends) = epochs_and_kernel_ends(&ticking);
        assert!(
            ends.iter().all(|t| epochs.contains(t)),
            "{policy:?}: the kernel completes on an epoch boundary"
        );
        assert_eq!(
            parked,
            Outcome {
                makespan_ns: 35_013_007,
                completions: vec![(1, 35013007.0)],
                tenant_service_ns: vec![(0, 20_000_000)],
                telemetry_samples: 4,
                telemetry_fnv: 11638078721553780682,
            },
            "{policy:?}"
        );
    }
}

#[test]
fn submit_on_a_parked_boundary_waits_like_ticking() {
    // The app's first kernel runs ungated from ~54 µs to ~20.054 ms; the
    // 25 ms pass finds nothing ready and parks the chain. The host phase
    // after the sync reply (~20.057 ms) is sized so the next kernel's
    // submit (7 µs of RPC after the phase) lands exactly on the boundary
    // one or two epochs later. The ticking executive scheduled that
    // boundary's epoch before the submit, so its pass runs first, sees
    // nothing ready, and the kernel waits a whole epoch for the next pass.
    let ns = |ns| HostOp::CpuBusy(SimDuration::from_ns(ns));
    for (epochs_later, makespan_ns) in [(1, 40_013_007), (2, 45_013_007)] {
        let gap = 9_935_982 + (epochs_later - 1) * 5 * MS;
        let apps = [(
            0,
            program(vec![kernel(20), sync(), ns(gap), kernel(5), sync()]),
        )];
        for policy in [GpuPolicy::Las, GpuPolicy::Tfs, GpuPolicy::Ps] {
            let (parked, ticking) = parked_matches_ticking(policy, &apps);
            let trace = ticking.trace.as_ref().expect("traced run");
            let (epochs, _) = epochs_and_kernel_ends(&ticking);
            let submit_on_boundary = trace.events.iter().any(|ev| {
                matches!(ev, TraceEvent::Counter { at, name: "pending_jobs", value, .. }
                    if *value == 1.0 && *at > 25 * MS && epochs.contains(at))
            });
            assert!(
                submit_on_boundary,
                "{policy:?}: the submit lands on a boundary"
            );
            assert_eq!(parked.makespan_ns, makespan_ns, "{policy:?}");
        }
    }
}

#[test]
fn long_kernels_cost_no_epoch_events() {
    let run = |ms| one_gpu(GpuPolicy::Las, &boundary_kernel(ms), false);
    let (short, long) = (run(20), run(2_000));
    assert_eq!(short.completed_requests, 1);
    assert_eq!(long.completed_requests, 1);
    assert_eq!(long.makespan_ns - short.makespan_ns, 1_980 * MS);
    assert_eq!(
        long.events, short.events,
        "two busy seconds on one kernel cost no events"
    );
}

#[test]
fn same_instant_submit_races_a_kept_device_wakeup() {
    // App 0's first kernel runs ungated from ~54 µs to ~20.054 ms. App 1
    // queues its kernel at ~20.044 ms, after the 20 ms pass found nothing
    // ready, so it waits gated; when app 0's kernel completes the device
    // has pending work but nothing runnable, so the executive re-runs the
    // dispatcher inside that resync and dispatches app 1's kernel there.
    // The nested resync parks the device's next wakeup (~40.054 ms), which
    // the outer resync keeps. App 0's host phase is sized so its second
    // kernel is submitted in that very instant, racing the kept wakeup.
    let ns = |ns| HostOp::CpuBusy(SimDuration::from_ns(ns));
    let apps = [
        (
            0,
            program(vec![kernel(20), sync(), ns(19_989_994), kernel(10), sync()]),
        ),
        (0, program(vec![ns(19_990_000), kernel(20), sync()])),
    ];
    for policy in [GpuPolicy::Las, GpuPolicy::Tfs, GpuPolicy::Ps] {
        let (parked, ticking) = parked_matches_ticking(policy, &apps);
        let (_, ends) = epochs_and_kernel_ends(&ticking);
        assert_eq!(ends[..2], [20_054_012, 40_054_012], "{policy:?}");
        assert_eq!(
            parked,
            Outcome {
                makespan_ns: 55_013_007,
                completions: vec![(1, 55013007.0), (1, 40067019.0)],
                tenant_service_ns: vec![(0, 30_000_000), (1, 20_000_000)],
                telemetry_samples: 8,
                telemetry_fnv: 10489074185421773897,
            },
            "{policy:?}"
        );
    }
}

#[test]
fn simultaneous_apps_on_epoch_boundaries_match_ticking() {
    // Identical apps arriving together issue every call at the same
    // instants, and whole-epoch kernels and host phases put many of those
    // instants on epoch boundaries, where parked chains wake. Staggered
    // arrivals shift the collisions by whole epochs.
    let body = || {
        program(vec![
            kernel(20),
            sync(),
            cpu(15),
            kernel(10),
            sync(),
            cpu(5),
            kernel(5),
            sync(),
        ])
    };
    let mut outcomes = Vec::new();
    for policy in [GpuPolicy::Las, GpuPolicy::Tfs, GpuPolicy::Ps] {
        for stagger in [0, 5, 20] {
            let apps = [(0, body()), (0, body()), (stagger, body())];
            outcomes.push(parked_matches_ticking(policy, &apps).0);
        }
    }
    assert_eq!(fnv(&format!("{outcomes:?}")), 16373890901183831945);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random mixes of 4–11 apps on two devices (2–6 per device) under a
    /// random policy and backend design (I, II or III), on one node or on
    /// two nodes of one device each with a balancer per node, with no
    /// fault, a backend crash, a device failure or a node loss.
    /// Whole-millisecond kernels of mixed occupancy, some of them over 3 s
    /// (long enough for LAS decay ties), and host gaps give parked spans,
    /// boundary collisions, handovers and Design II master stalls. Every
    /// request finishes, a rerun is byte-identical, and the parked run
    /// matches the ticking one; debug builds also shadow-check every
    /// parked span.
    #[test]
    fn random_mixes_match_ticking(
        policy in 0usize..3,
        design in 0usize..3,
        nodes in 1u32..3,
        fault in 0usize..4,
        fault_ms in 0u64..400,
        apps in proptest::collection::vec(
            (
                0u64..40,
                proptest::collection::vec(
                    (
                        (1u64..700).prop_map(|ms| if ms > 650 { ms * 5 } else { ms }),
                        0usize..3,
                        0u64..50,
                    ),
                    1..4,
                ),
            ),
            4..12,
        ),
    ) {
        let policy = [GpuPolicy::Las, GpuPolicy::Tfs, GpuPolicy::Ps][policy];
        let apps: Vec<(u64, HostProgram)> = apps
            .into_iter()
            .map(|(arrival, phases)| {
                let mut body = Vec::new();
                for (ms, occupancy, gap) in phases {
                    body.push(kernel_sharing(ms, [0.25, 0.5, 1.0][occupancy]));
                    body.push(sync());
                    body.push(cpu(gap));
                }
                (arrival * 5, program(body))
            })
            .collect();
        let topology = (nodes, 2 / nodes as usize);
        let (at, gid) = (fault_ms * MS, (fault_ms % 2) as u32);
        let faults = match fault {
            0 => FaultPlan::none(),
            1 => FaultPlan::none().crash_at(at, gid),
            2 => FaultPlan::none().device_failure_at(at, gid),
            _ => FaultPlan::none().node_loss_at(at, gid % topology.0),
        };
        let cfg = stack(design, policy);
        let parked = run_on(topology, cfg, &apps, &faults, false);
        prop_assert_eq!(
            parked.completed_requests + parked.failed_requests + parked.shed_requests,
            apps.len() as u64
        );
        let rerun = run_on(topology, cfg, &apps, &faults, false);
        prop_assert_eq!(format!("{parked:?}"), format!("{rerun:?}"));
        let ticking = run_on(topology, cfg, &apps, &faults, true);
        prop_assert_eq!(outcome(&parked), outcome(&ticking));
        prop_assert_eq!(parked.failed_requests, ticking.failed_requests);
    }
}
