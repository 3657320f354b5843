//! GPU Affinity Mapper — the workload balancer.
//!
//! The top level of the Strings hierarchy. Life cycle of a device-selection
//! request (paper §III.C): the interposer forwards the application's
//! `cudaSetDevice` here; [`GpuAffinityMapper::select_device`] consults the
//! Device Status Table (static weights + current load) and the Scheduler
//! Feedback Table (history from device-level monitors), applies the policy
//! chosen by the Policy Arbiter, and returns a global GPU id (GID) that the
//! interposer resolves through the gMap.

mod arbiter;
mod dst;
mod policy;
mod sft;
mod slices;

pub use arbiter::PolicyArbiter;
pub use dst::{DeviceStatus, DeviceStatusTable};
pub use policy::LbPolicy;
pub use sft::{FeedbackRecord, SchedulerFeedbackTable, SftEntry};
pub use slices::{slice_demand, SliceState};

use remoting::gpool::{GMap, Gid, NodeId};
use serde::{Deserialize, Serialize};
use sim_core::trace::{Tracer, TrackId};
use sim_core::SimTime;

/// Opaque identity of a workload *class* (one benchmark application type).
/// The harness maps its application kinds onto these; the mapper itself is
/// agnostic about what they are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct WorkloadClass(pub u32);

impl std::fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "W{}", self.0)
    }
}

/// The GPU Affinity Mapper / workload balancer.
#[derive(Debug)]
pub struct GpuAffinityMapper {
    dst: DeviceStatusTable,
    sft: SchedulerFeedbackTable,
    arbiter: PolicyArbiter,
    rr_next: usize,
    tracer: Tracer,
    track: TrackId,
}

impl GpuAffinityMapper {
    /// Build from a broadcast gMap (the gPool Creator's output) and an
    /// arbiter describing the policy schedule.
    pub fn new(gmap: &GMap, arbiter: PolicyArbiter) -> Self {
        GpuAffinityMapper {
            dst: DeviceStatusTable::from_gmap(gmap),
            sft: SchedulerFeedbackTable::new(),
            arbiter,
            rr_next: 0,
            tracer: Tracer::off(),
            track: TrackId::INVALID,
        }
    }

    /// Partition every device in this mapper's pool into `units` MIG
    /// slice units (see [`SliceState`]); binds start claiming slices and
    /// the fragmentation-aware policy gets real occupancy to score.
    pub fn enable_slices(&mut self, units: u8) {
        self.dst.enable_slices(units);
    }

    /// Attach a tracer; placement decisions reported through
    /// [`GpuAffinityMapper::note_placement`] land as instants on `track`.
    pub fn set_tracer(&mut self, tracer: Tracer, track: TrackId) {
        self.tracer = tracer;
        self.track = track;
    }

    /// Record a placement decision in the trace: `request` (the stable
    /// request id the executive threads through every stage) of `class`
    /// arriving on `app_node` was mapped to `gid` at `now`. Called by the
    /// executive once a [`GpuAffinityMapper::select_device`] answer is
    /// acted upon (selection itself is time-free; the bind is the
    /// observable event).
    pub fn note_placement(
        &self,
        now: SimTime,
        request: u64,
        class: WorkloadClass,
        app_node: NodeId,
        gid: Gid,
    ) {
        if self.tracer.is_on() {
            self.tracer.instant(
                self.track,
                now,
                "placement",
                vec![
                    ("request", request.to_string()),
                    ("policy", self.policy_label().to_string()),
                    ("class", class.to_string()),
                    ("node", app_node.to_string()),
                    ("gid", gid.to_string()),
                    (
                        "load",
                        self.dst.row(gid).map_or(0, |r| r.load()).to_string(),
                    ),
                ],
            );
        }
    }

    /// The policy currently in force at the arbiter (may change as
    /// feedback accumulates).
    pub fn current_policy(&self) -> LbPolicy {
        self.arbiter.current()
    }

    /// Label of the policy that will answer the next
    /// [`GpuAffinityMapper::select_device`] call.
    pub fn policy_label(&self) -> &'static str {
        self.arbiter.current().label()
    }

    /// Select the target GPU for a new application instance of `class`
    /// arriving on `app_node`. Does **not** bind — call
    /// [`GpuAffinityMapper::bind`] once the selection is acted upon.
    pub fn select_device(&mut self, class: WorkloadClass, app_node: NodeId) -> Gid {
        self.arbiter
            .current()
            .select(&self.dst, &self.sft, class, app_node, &mut self.rr_next)
    }

    /// Record that an instance of `class` is now bound to `gid` (updates
    /// the DST's dynamic load).
    pub fn bind(&mut self, gid: Gid, class: WorkloadClass) {
        self.dst.bind(gid, class);
    }

    /// Record that an instance of `class` left `gid`.
    pub fn unbind(&mut self, gid: Gid, class: WorkloadClass) {
        self.dst.unbind(gid, class);
    }

    /// Retire a failed device (ECC error or node loss): its DST row stays —
    /// surviving GIDs are stable — but no policy will select it again.
    pub fn retire(&mut self, now: SimTime, gid: Gid) {
        self.dst.retire(gid);
        if self.tracer.is_on() {
            self.tracer.instant(
                self.track,
                now,
                "device_retired",
                vec![("gid", gid.to_string())],
            );
        }
    }

    /// True while at least one device still accepts placements.
    pub fn has_live_device(&self) -> bool {
        self.dst.live_len() > 0
    }

    /// Ingest a Feedback Engine record for `class` from an instance that
    /// ran on `gid` (piggybacked on `cudaThreadExit`); may trigger the
    /// arbiter's dynamic policy switch.
    pub fn feedback(&mut self, class: WorkloadClass, gid: Gid, record: FeedbackRecord) {
        self.sft.record(class, gid, record);
        self.arbiter.on_feedback(&self.sft);
    }

    /// Device Status Table (inspection).
    pub fn dst(&self) -> &DeviceStatusTable {
        &self.dst
    }

    /// Scheduler Feedback Table (inspection).
    pub fn sft(&self) -> &SchedulerFeedbackTable {
        &self.sft
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remoting::gpool::NodeSpec;

    fn mapper(policy: LbPolicy) -> GpuAffinityMapper {
        let gmap = GMap::build(&[NodeSpec::node_a(0), NodeSpec::node_b(1)]);
        GpuAffinityMapper::new(&gmap, PolicyArbiter::fixed(policy))
    }

    #[test]
    fn grr_cycles_through_pool() {
        let mut m = mapper(LbPolicy::Grr);
        let picks: Vec<Gid> = (0..8)
            .map(|_| m.select_device(WorkloadClass(0), NodeId(0)))
            .collect();
        assert_eq!(
            picks,
            vec![
                Gid(0),
                Gid(1),
                Gid(2),
                Gid(3),
                Gid(0),
                Gid(1),
                Gid(2),
                Gid(3)
            ]
        );
    }

    #[test]
    fn gmin_prefers_least_loaded_then_local() {
        let mut m = mapper(LbPolicy::GMin);
        // Load gid0 and gid1 (NodeA) with one app each.
        m.bind(Gid(0), WorkloadClass(0));
        m.bind(Gid(1), WorkloadClass(0));
        // From NodeB, the idle local GPUs win; the Tesla C2070 (gid3) takes
        // the tie as the strongest idle device.
        let pick = m.select_device(WorkloadClass(0), NodeId(1));
        assert_eq!(pick, Gid(3));
        // From NodeA, the local GPUs are loaded: an idle remote wins on
        // load (again the stronger of the two).
        let pick = m.select_device(WorkloadClass(0), NodeId(0));
        assert_eq!(pick, Gid(3));
        // All equal load: local GPU preferred over remote, and the
        // strongest local device (the Tesla) wins the residual tie.
        m.bind(Gid(2), WorkloadClass(0));
        m.bind(Gid(3), WorkloadClass(0));
        let pick = m.select_device(WorkloadClass(0), NodeId(0));
        assert!(
            pick == Gid(0) || pick == Gid(1),
            "tie broken toward local, got {pick}"
        );
        assert_eq!(pick, Gid(1), "strongest local device wins the tie");
    }

    #[test]
    fn gwtmin_weights_strong_devices_higher() {
        let mut m = mapper(LbPolicy::GWtMin);
        // One app on every GPU: weighted load now favours the Teslas
        // (weight ≈ 1.0) over the Quadros (weight < 0.5 ⇒ load/weight > 2).
        for g in 0..4 {
            m.bind(Gid(g), WorkloadClass(0));
        }
        let pick = m.select_device(WorkloadClass(0), NodeId(0));
        assert!(
            pick == Gid(1) || pick == Gid(3),
            "expected a Tesla, got {pick}"
        );
    }

    #[test]
    fn bind_unbind_tracks_load() {
        let mut m = mapper(LbPolicy::GMin);
        m.bind(Gid(0), WorkloadClass(1));
        assert_eq!(m.dst().row(Gid(0)).unwrap().load(), 1);
        m.unbind(Gid(0), WorkloadClass(1));
        assert_eq!(m.dst().row(Gid(0)).unwrap().load(), 0);
    }

    #[test]
    fn retire_redirects_future_selections() {
        let mut m = mapper(LbPolicy::GMin);
        m.retire(1_000, Gid(1));
        m.retire(1_000, Gid(3));
        assert!(m.has_live_device());
        for _ in 0..4 {
            let pick = m.select_device(WorkloadClass(0), NodeId(0));
            assert!(pick == Gid(0) || pick == Gid(2), "picked dead {pick}");
            m.bind(pick, WorkloadClass(0));
        }
        m.retire(2_000, Gid(0));
        m.retire(2_000, Gid(2));
        assert!(!m.has_live_device());
    }

    #[test]
    fn feedback_reaches_sft_and_arbiter() {
        let gmap = GMap::build(&[NodeSpec::node_a(0)]);
        let arbiter = PolicyArbiter::switching(LbPolicy::GWtMin, LbPolicy::Mbf, 3);
        let mut m = GpuAffinityMapper::new(&gmap, arbiter);
        assert_eq!(m.current_policy(), LbPolicy::GWtMin);
        let rec = FeedbackRecord {
            runtime_ns: 10_000,
            gpu_time_ns: 5_000,
            transfer_ns: 1_000,
            bytes_moved: 1 << 20,
        };
        m.feedback(WorkloadClass(0), Gid(0), rec);
        m.feedback(WorkloadClass(1), Gid(0), rec);
        assert_eq!(m.current_policy(), LbPolicy::GWtMin, "not enough records");
        m.feedback(WorkloadClass(2), Gid(1), rec);
        assert_eq!(m.current_policy(), LbPolicy::Mbf, "arbiter switched");
        assert_eq!(m.sft().classes(), 3);
    }

    #[test]
    fn guf_separates_high_utilization_classes() {
        let mut m = mapper(LbPolicy::Guf);
        let hot = WorkloadClass(0);
        let cold = WorkloadClass(1);
        // Teach the SFT: class 0 is 95% GPU-bound, class 1 is 5%.
        for _ in 0..4 {
            m.feedback(
                hot,
                Gid(0),
                FeedbackRecord {
                    runtime_ns: 1_000_000,
                    gpu_time_ns: 950_000,
                    transfer_ns: 0,
                    bytes_moved: 0,
                },
            );
            m.feedback(
                cold,
                Gid(0),
                FeedbackRecord {
                    runtime_ns: 1_000_000,
                    gpu_time_ns: 50_000,
                    transfer_ns: 0,
                    bytes_moved: 0,
                },
            );
        }
        // A hot app sits on gid1; another hot app should avoid gid1 even
        // though a cold app makes gid0's queue longer.
        m.bind(Gid(1), hot);
        m.bind(Gid(0), cold);
        m.bind(Gid(0), cold);
        let pick = m.select_device(hot, NodeId(0));
        assert_ne!(pick, Gid(1), "GUF must not stack two hot apps");
    }

    #[test]
    fn enabled_slices_feed_frag_selection() {
        let gmap = GMap::build(&[NodeSpec::node_a(0)]);
        let mut m = GpuAffinityMapper::new(&gmap, PolicyArbiter::fixed(LbPolicy::Frag));
        m.enable_slices(8);
        // First 1g fills gid0 (strongest-first tie-break is irrelevant:
        // both idle, Frag's tie-break picks equal frag then lighter load,
        // then strongest device).
        let first = m.select_device(WorkloadClass(0), NodeId(0));
        m.bind(first, WorkloadClass(0));
        // The next 1g co-packs on the same device instead of fragmenting
        // the other one.
        let second = m.select_device(WorkloadClass(0), NodeId(0));
        assert_eq!(first, second, "Frag must co-pack small profiles");
        assert_eq!(
            m.dst().row(first).unwrap().slices().unwrap().free_units(),
            7
        );
    }

    #[test]
    fn mbf_separates_bandwidth_hogs() {
        let mut m = mapper(LbPolicy::Mbf);
        let hog = WorkloadClass(0);
        // Bandwidth hog: 140 GB/s over its GPU time.
        for _ in 0..4 {
            m.feedback(
                hog,
                Gid(0),
                FeedbackRecord {
                    runtime_ns: 1_000_000_000,
                    gpu_time_ns: 1_000_000_000,
                    transfer_ns: 0,
                    bytes_moved: 140_000_000_000, // 140 GB over 1 s
                },
            );
        }
        m.bind(Gid(1), hog);
        let pick = m.select_device(hog, NodeId(0));
        assert_ne!(pick, Gid(1), "MBF must not stack two bandwidth hogs");
    }
}
