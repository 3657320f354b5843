//! Workload-balancing policies (paper §IV.A and §IV.C).
//!
//! Every policy maps *(DST, SFT, arriving class, arriving node)* to a GID.
//! The first family uses only the DST:
//!
//! * **GRR** — global round robin over the gPool,
//! * **GMin** — least device load, ties broken toward local GPUs ("remote
//!   GPUs are more expensive to access"),
//! * **GWtMin** — least *weighted* load using the static device weights,
//!
//! and the feedback family additionally consults the SFT:
//!
//! * **RTF** — expected-completion balancing from measured runtimes,
//! * **GUF** — avoid collocating two high-GPU-utilization applications,
//! * **DTF** — collocate contrasting data-transfer intensities so one
//!   application computes while another transfers,
//! * **MBF** — avoid collocating bandwidth-bound applications so
//!   compute-bound work hides the hogs' memory latencies.
//!
//! A post-paper extension joins the DST family:
//!
//! * **Frag** — fragmentation-aware MIG packing: on partitioned devices,
//!   prefer the placement that leaves slice free-space least fragmented
//!   (see [`crate::mapper::SliceState`]); degenerates to GWtMin scoring on
//!   unpartitioned pools.
//!
//! Each policy is one variant plus one arm of a `match` — GRR's cursor in
//! [`LbPolicy::select`], every other policy's score in its argmin — and
//! one row in [`crate::zoo::registry`].

use super::dst::{DeviceStatus, DeviceStatusTable};
use super::sft::SchedulerFeedbackTable;
use super::slices::slice_demand;
use super::WorkloadClass;
use remoting::gpool::{Gid, NodeId};
use serde::{Deserialize, Serialize};

/// Per-policy collocation-penalty weights versus the load term (DESIGN.md
/// §8 calibration). GUF's utilization products are kept gentle — its
/// signal is coarse and must not override sane load weighting — while
/// DTF/MBF's engine-level contrasts are sharp and deserve more authority.
const GUF_PENALTY_WEIGHT: f64 = 1.0;
const DTF_PENALTY_WEIGHT: f64 = 1.5;
const MBF_PENALTY_WEIGHT: f64 = 1.5;

/// Tiny preference for local GPUs used as a tie-breaker.
const REMOTE_EPSILON: f64 = 1e-3;

/// Frag's score for a partitioned device the request does not fit on:
/// far above any feasible fragmentation score (which lives in [0, 1]), so
/// overflow devices are chosen only when *nothing* fits, and then by
/// weighted load among themselves.
const FRAG_OVERFLOW_PENALTY: f64 = 1_000.0;

/// Frag's tie-break weight on load: small enough that any fragmentation
/// difference dominates, large enough to spread ties off one device.
const FRAG_LOAD_WEIGHT: f64 = 1e-3;

/// The workload-balancing policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LbPolicy {
    /// Global round robin.
    Grr,
    /// Global minimum load.
    GMin,
    /// Weighted global minimum load.
    GWtMin,
    /// Runtime feedback.
    Rtf,
    /// GPU-utilization feedback.
    Guf,
    /// Data-transfer feedback (Strings-specific).
    Dtf,
    /// Memory-bandwidth feedback (Strings-specific).
    Mbf,
    /// Fragmentation-aware MIG slice packing (post-paper extension).
    Frag,
}

impl LbPolicy {
    /// Every shipped policy, in registry order (DST family first, then
    /// the feedback family).
    pub const ALL: [LbPolicy; 8] = [
        LbPolicy::Grr,
        LbPolicy::GMin,
        LbPolicy::GWtMin,
        LbPolicy::Frag,
        LbPolicy::Rtf,
        LbPolicy::Guf,
        LbPolicy::Dtf,
        LbPolicy::Mbf,
    ];

    /// True for the policies that require SFT history.
    pub fn is_feedback(self) -> bool {
        matches!(
            self,
            LbPolicy::Rtf | LbPolicy::Guf | LbPolicy::Dtf | LbPolicy::Mbf
        )
    }

    /// Display label as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            LbPolicy::Grr => "GRR",
            LbPolicy::GMin => "GMin",
            LbPolicy::GWtMin => "GWtMin",
            LbPolicy::Rtf => "RTF",
            LbPolicy::Guf => "GUF",
            LbPolicy::Dtf => "DTF",
            LbPolicy::Mbf => "MBF",
            LbPolicy::Frag => "Frag",
        }
    }

    /// Choose a target GID.
    pub fn select(
        self,
        dst: &DeviceStatusTable,
        sft: &SchedulerFeedbackTable,
        class: WorkloadClass,
        app_node: NodeId,
        rr_next: &mut usize,
    ) -> Gid {
        assert!(!dst.is_empty(), "empty gPool");
        assert!(dst.live_len() > 0, "no surviving devices in gPool");
        match self {
            LbPolicy::Grr => {
                // Round-robin over the *live* rows; retired devices keep
                // their slot (GID stability) but are skipped.
                loop {
                    let row = &dst.rows()[*rr_next % dst.len()];
                    *rr_next = (*rr_next + 1) % dst.len();
                    if !row.is_retired() {
                        return row.gid;
                    }
                }
            }
            _ => self.argmin(dst, sft, class, app_node),
        }
    }

    fn argmin(
        self,
        dst: &DeviceStatusTable,
        sft: &SchedulerFeedbackTable,
        class: WorkloadClass,
        app_node: NodeId,
    ) -> Gid {
        let new = sft.estimate(class);
        let new_runtime_s = new.runtime_ns / 1e9;
        // Expected seconds to drain a device's queue plus the new arrival,
        // from measured GPU-specific runtimes (RTF's metric; DTF and MBF
        // build on it — the paper notes MBF "includes the benefits of both
        // RTF and DTF"). Only those three policies pay for its SFT
        // lookups; the DST-only family never touches the SFT.
        let busy_s = |row: &DeviceStatus| {
            (row.bound()
                .iter()
                .map(|c| sft.runtime_on(*c, row.gid))
                .sum::<f64>()
                + sft.runtime_on(class, row.gid))
                / 1e9
        };
        let mut best: Option<((f64, f64, Gid), Gid)> = None;
        for row in dst.rows() {
            if row.is_retired() {
                continue;
            }
            let mut score = match self {
                LbPolicy::GMin => row.load() as f64,
                LbPolicy::GWtMin => row.weighted_load(),
                LbPolicy::Rtf => busy_s(row),
                LbPolicy::Guf => {
                    let penalty: f64 = row
                        .bound()
                        .iter()
                        .map(|c| sft.estimate(*c).gpu_util * new.gpu_util)
                        .sum();
                    row.weighted_load() + GUF_PENALTY_WEIGHT * penalty
                }
                LbPolicy::Dtf => {
                    // Similar transfer intensity → both fight for the same
                    // engine; contrast → compute overlaps transfer.
                    let penalty: f64 = row
                        .bound()
                        .iter()
                        .map(|c| 1.0 - (sft.estimate(*c).transfer_frac - new.transfer_frac).abs())
                        .sum();
                    // A same-character collocation costs about a fraction
                    // of the arriving application's own runtime.
                    busy_s(row) + DTF_PENALTY_WEIGHT * penalty * new_runtime_s
                }
                LbPolicy::Mbf => {
                    // Shared bandwidth appetite is the harm: min(m_a, m_b).
                    let penalty: f64 = row
                        .bound()
                        .iter()
                        .map(|c| sft.estimate(*c).mem_intensity.min(new.mem_intensity))
                        .sum();
                    busy_s(row) + MBF_PENALTY_WEIGHT * penalty * new_runtime_s
                }
                LbPolicy::Frag => match row.slices() {
                    // Feasible placements score by post-placement
                    // fragmentation in [0, 1] (+ a tiny load tie-break);
                    // overflow placements score >= 1000 so they lose to
                    // any feasible device and fall back to weighted-load
                    // balancing among themselves.
                    Some(slices) => match slices.fragmentation_after(slice_demand(class)) {
                        Some(frag) => frag + FRAG_LOAD_WEIGHT * row.weighted_load(),
                        None => FRAG_OVERFLOW_PENALTY + row.weighted_load(),
                    },
                    // Unpartitioned pool: degenerate to GWtMin.
                    None => row.weighted_load(),
                },
                LbPolicy::Grr => unreachable!("handled in select"),
            };
            if row.node != app_node {
                score += REMOTE_EPSILON; // prefer local on ties
            }
            // Ties (e.g. an idle pool) break toward the strongest device,
            // then the lowest GID, deterministically.
            let key = (score, -row.weight, row.gid);
            let better = match &best {
                None => true,
                Some((bk, _)) => {
                    key.0 < bk.0 - 1e-12
                        || ((key.0 - bk.0).abs() <= 1e-12 && (key.1, key.2) < (bk.1, bk.2))
                }
            };
            if better {
                best = Some((key, row.gid));
            }
        }
        best.expect("non-empty pool").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::sft::FeedbackRecord;
    use remoting::gpool::{GMap, NodeSpec};

    fn fixtures() -> (DeviceStatusTable, SchedulerFeedbackTable) {
        let gmap = GMap::build(&[NodeSpec::node_a(0), NodeSpec::node_b(1)]);
        (
            DeviceStatusTable::from_gmap(&gmap),
            SchedulerFeedbackTable::new(),
        )
    }

    #[test]
    fn labels_and_feedback_flags() {
        assert_eq!(LbPolicy::GWtMin.label(), "GWtMin");
        assert!(!LbPolicy::Grr.is_feedback());
        assert!(!LbPolicy::GMin.is_feedback());
        assert!(!LbPolicy::GWtMin.is_feedback());
        for p in [LbPolicy::Rtf, LbPolicy::Guf, LbPolicy::Dtf, LbPolicy::Mbf] {
            assert!(p.is_feedback());
        }
    }

    #[test]
    fn grr_round_robins_with_state() {
        let (dst, sft) = fixtures();
        let mut rr = 0;
        let picks: Vec<Gid> = (0..5)
            .map(|_| LbPolicy::Grr.select(&dst, &sft, WorkloadClass(0), NodeId(0), &mut rr))
            .collect();
        assert_eq!(picks, vec![Gid(0), Gid(1), Gid(2), Gid(3), Gid(0)]);
    }

    #[test]
    fn gmin_ignores_weights_gwtmin_uses_them() {
        let (mut dst, sft) = fixtures();
        let mut rr = 0;
        // Quadro 2000 (gid0) has 1 app, Tesla C2050 (gid1) has 2, remote
        // GPUs have 3 each.
        dst.bind(Gid(0), WorkloadClass(0));
        for _ in 0..2 {
            dst.bind(Gid(1), WorkloadClass(0));
        }
        for g in 2..4 {
            for _ in 0..3 {
                dst.bind(Gid(g), WorkloadClass(0));
            }
        }
        // GMin: raw load → the Quadro (1 < 2 < 3).
        let g = LbPolicy::GMin.select(&dst, &sft, WorkloadClass(0), NodeId(0), &mut rr);
        assert_eq!(g, Gid(0));
        // GWtMin: weighted load 1/0.47 ≈ 2.1 vs 2/1.0 = 2.0 → the Tesla.
        let g = LbPolicy::GWtMin.select(&dst, &sft, WorkloadClass(0), NodeId(0), &mut rr);
        assert_eq!(g, Gid(1));
    }

    #[test]
    fn rtf_uses_measured_runtimes_not_queue_length() {
        let (mut dst, mut sft) = fixtures();
        let long = WorkloadClass(0);
        let short = WorkloadClass(1);
        sft.record(
            long,
            Gid(0),
            FeedbackRecord {
                runtime_ns: 50_000_000_000,
                gpu_time_ns: 1,
                transfer_ns: 0,
                bytes_moved: 0,
            },
        );
        sft.record(
            short,
            Gid(0),
            FeedbackRecord {
                runtime_ns: 1_000_000_000,
                gpu_time_ns: 1,
                transfer_ns: 0,
                bytes_moved: 0,
            },
        );
        // gid0: one long job. gid1..3: two short jobs each.
        dst.bind(Gid(0), long);
        for g in 1..4 {
            dst.bind(Gid(g), short);
            dst.bind(Gid(g), short);
        }
        let mut rr = 0;
        // GMin would pick gid0 (load 1 < 2); RTF sees 50 s of work there.
        let gmin = LbPolicy::GMin.select(&dst, &sft, short, NodeId(0), &mut rr);
        assert_eq!(gmin, Gid(0));
        let rtf = LbPolicy::Rtf.select(&dst, &sft, short, NodeId(0), &mut rr);
        assert_ne!(rtf, Gid(0), "RTF avoids the long-job queue");
    }

    #[test]
    fn dtf_collocates_contrasting_transfer_intensity() {
        let (mut dst, mut sft) = fixtures();
        let mover = WorkloadClass(0); // transfer-bound
        let cruncher = WorkloadClass(1); // compute-bound
        for _ in 0..3 {
            sft.record(
                mover,
                Gid(0),
                FeedbackRecord {
                    runtime_ns: 1_000,
                    gpu_time_ns: 1_000,
                    transfer_ns: 950,
                    bytes_moved: 0,
                },
            );
            sft.record(
                cruncher,
                Gid(0),
                FeedbackRecord {
                    runtime_ns: 1_000,
                    gpu_time_ns: 1_000,
                    transfer_ns: 10,
                    bytes_moved: 0,
                },
            );
        }
        // A mover on gid0, a cruncher on gid1 (both local to node 0).
        dst.bind(Gid(0), mover);
        dst.bind(Gid(1), cruncher);
        let mut rr = 0;
        // A new mover should land with the cruncher (gid1) or an idle GPU,
        // never with the other mover.
        let pick = LbPolicy::Dtf.select(&dst, &sft, mover, NodeId(0), &mut rr);
        assert_ne!(pick, Gid(0), "DTF must not stack two transfer-bound apps");
    }

    #[test]
    fn mbf_prior_free_classes_fall_back_to_balancing() {
        let (dst, sft) = fixtures();
        let mut rr = 0;
        // With an empty SFT all penalties are equal: MBF degenerates to
        // weighted-load balancing (Tesla first among local idle GPUs).
        let pick = LbPolicy::Mbf.select(&dst, &sft, WorkloadClass(9), NodeId(0), &mut rr);
        assert!(pick == Gid(0) || pick == Gid(1));
    }

    #[test]
    fn local_preference_epsilon_only_breaks_ties() {
        let (mut dst, sft) = fixtures();
        let mut rr = 0;
        // Remote gid2 idle; local gid0/gid1 loaded → remote wins despite ε.
        dst.bind(Gid(0), WorkloadClass(0));
        dst.bind(Gid(1), WorkloadClass(0));
        dst.bind(Gid(3), WorkloadClass(0));
        let pick = LbPolicy::GMin.select(&dst, &sft, WorkloadClass(0), NodeId(0), &mut rr);
        assert_eq!(pick, Gid(2));
    }

    #[test]
    fn retired_devices_are_never_selected() {
        let (mut dst, sft) = fixtures();
        dst.retire(Gid(0));
        dst.retire(Gid(2));
        let mut rr = 0;
        // GRR cycles only over the survivors, preserving order.
        let picks: Vec<Gid> = (0..4)
            .map(|_| LbPolicy::Grr.select(&dst, &sft, WorkloadClass(0), NodeId(0), &mut rr))
            .collect();
        assert_eq!(picks, vec![Gid(1), Gid(3), Gid(1), Gid(3)]);
        // Argmin policies skip retired rows even when they look idle.
        for p in [
            LbPolicy::GMin,
            LbPolicy::GWtMin,
            LbPolicy::Rtf,
            LbPolicy::Mbf,
        ] {
            let pick = p.select(&dst, &sft, WorkloadClass(0), NodeId(0), &mut rr);
            assert!(
                pick == Gid(1) || pick == Gid(3),
                "{p:?} picked dead {pick:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "no surviving devices")]
    fn fully_retired_pool_panics() {
        let (mut dst, sft) = fixtures();
        for g in 0..4 {
            dst.retire(Gid(g));
        }
        let mut rr = 0;
        LbPolicy::GMin.select(&dst, &sft, WorkloadClass(0), NodeId(0), &mut rr);
    }

    #[test]
    fn frag_packs_small_requests_onto_the_fragmented_device() {
        let (mut dst, sft) = fixtures();
        dst.enable_slices(8);
        // gid0 already hosts a 1g: its free space is slightly fragmented.
        // A new 1g should co-pack there (fragmentation_after is equal or
        // better and load tie-break loses to frag difference), keeping
        // gid1..3 pristine for big profiles.
        dst.bind(Gid(0), WorkloadClass(0));
        let mut rr = 0;
        let pick = LbPolicy::Frag.select(&dst, &sft, WorkloadClass(0), NodeId(0), &mut rr);
        assert_eq!(pick, Gid(0), "small request must fill the started device");
        // A 4g avoids gid0 (placing there strands units) in favour of a
        // pristine device.
        let pick = LbPolicy::Frag.select(&dst, &sft, WorkloadClass(2), NodeId(0), &mut rr);
        assert_ne!(pick, Gid(0), "big request must not fragment further");
    }

    #[test]
    fn frag_overflow_falls_back_to_weighted_load() {
        let (mut dst, sft) = fixtures();
        dst.enable_slices(4);
        // Fill every device's slices with a 4g each.
        for g in 0..4 {
            dst.bind(Gid(g), WorkloadClass(2));
        }
        // Nothing fits: Frag must still answer, preferring the strongest
        // (highest-weight) device like GWtMin would at equal load.
        let mut rr = 0;
        let pick = LbPolicy::Frag.select(&dst, &sft, WorkloadClass(2), NodeId(0), &mut rr);
        assert_eq!(pick, Gid(1), "local Tesla wins the overflow tie");
    }

    #[test]
    fn frag_without_slices_matches_gwtmin() {
        let (mut dst, sft) = fixtures();
        dst.bind(Gid(0), WorkloadClass(0));
        dst.bind(Gid(1), WorkloadClass(0));
        let mut rr = 0;
        for class in [WorkloadClass(0), WorkloadClass(1), WorkloadClass(2)] {
            for node in [NodeId(0), NodeId(1)] {
                let frag = LbPolicy::Frag.select(&dst, &sft, class, node, &mut rr);
                let gwt = LbPolicy::GWtMin.select(&dst, &sft, class, node, &mut rr);
                assert_eq!(frag, gwt, "unpartitioned Frag must equal GWtMin");
            }
        }
    }

    #[test]
    #[should_panic]
    fn empty_pool_panics() {
        let dst = DeviceStatusTable::from_gmap(&GMap::build(&[]));
        let sft = SchedulerFeedbackTable::new();
        let mut rr = 0;
        LbPolicy::Grr.select(&dst, &sft, WorkloadClass(0), NodeId(0), &mut rr);
    }

    /// A seeded placement history on a 64-node × 4-GPU heterogeneous DST:
    /// every step picks a device, binds the pick, and then either unbinds
    /// a random earlier placement, folds a feedback record into the SFT,
    /// or does nothing. Returns the picks.
    fn cluster_pick_history(policy: LbPolicy) -> Vec<u32> {
        use gpu_sim::spec::GpuModel::{Quadro2000, Quadro4000, TeslaC2050, TeslaC2070};
        let models = [Quadro2000, TeslaC2050, Quadro4000, TeslaC2070];
        let nodes: Vec<NodeSpec> = (0..64u32)
            .map(|n| NodeSpec::new(n, (0..4).map(|d| models[(n as usize + d) % 4]).collect()))
            .collect();
        let mut dst = DeviceStatusTable::from_gmap(&GMap::build(&nodes));
        if policy == LbPolicy::Frag {
            dst.enable_slices(8);
        }
        let mut sft = SchedulerFeedbackTable::new();
        let mut rr = 0;
        let mut bound: Vec<(Gid, WorkloadClass)> = Vec::new();
        let mut picks = Vec::new();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..600 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let class = WorkloadClass(((x >> 40) % 6) as u32);
            let node = NodeId(((x >> 20) % 64) as u32);
            let gid = policy.select(&dst, &sft, class, node, &mut rr);
            picks.push(gid.0);
            dst.bind(gid, class);
            bound.push((gid, class));
            match x >> 61 {
                0..=2 => {
                    let (gid, c) = bound.swap_remove((x >> 8) as usize % bound.len());
                    dst.unbind(gid, c);
                }
                3 | 4 => {
                    let runtime_ns = 1_000_000 + (x >> 30) % 50_000_000;
                    let gpu_time_ns = runtime_ns * ((x >> 12) % 100) / 100;
                    sft.record(
                        WorkloadClass(((x >> 50) % 6) as u32),
                        Gid(((x >> 3) % 256) as u32),
                        FeedbackRecord {
                            runtime_ns,
                            gpu_time_ns,
                            transfer_ns: gpu_time_ns * ((x >> 24) % 100) / 100,
                            bytes_moved: (x >> 34) % (1 << 26),
                        },
                    );
                }
                _ => {}
            }
        }
        picks
    }

    /// FNV-1a over a pick sequence.
    fn fnv1a(picks: &[u32]) -> u64 {
        picks.iter().fold(0xcbf2_9ce4_8422_2325, |h, &g| {
            g.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        })
    }

    /// The pick sequences on a 64×4 cluster are pinned per policy: the
    /// scores each policy computes, and so its placements, must not move
    /// when the scoring code is reorganised. A mismatch prints the hash
    /// to compare against.
    #[test]
    fn cluster_pick_sequences_are_pinned() {
        const PINNED: [(LbPolicy, u64); 8] = [
            (LbPolicy::Grr, 0xbcff_7e66_6f41_2e65),
            (LbPolicy::GMin, 0x74a4_3c03_47d3_a717),
            (LbPolicy::GWtMin, 0xb2f9_e29b_c76d_3456),
            (LbPolicy::Frag, 0x4348_7cac_f2a8_08bf),
            (LbPolicy::Rtf, 0x2c6d_c47a_4cf7_cb88),
            (LbPolicy::Guf, 0x555a_6b9b_9568_5581),
            (LbPolicy::Dtf, 0xeb15_f392_5e4d_147c),
            (LbPolicy::Mbf, 0x618e_ec7b_5110_dba4),
        ];
        assert_eq!(PINNED.map(|(p, _)| p), LbPolicy::ALL);
        for (policy, want) in PINNED {
            let picks = cluster_pick_history(policy);
            let got = fnv1a(&picks);
            assert_eq!(got, want, "{policy:?} pick sequence moved: 0x{got:016x}");
        }
    }
}
