//! Copy (DMA) engines.
//!
//! Fermi Teslas expose two copy engines — one per direction — so H2D, D2H
//! and kernel execution can all proceed concurrently (the "three GPU
//! engines" the paper's Design II/III and the PS policy exploit). Quadros
//! have a single bidirectional engine. A copy engine serves one transfer at
//! a time, serially.

use crate::ids::JobId;
use crate::job::{CopyDirection, Job};
use serde::{Deserialize, Serialize};
use sim_core::SimTime;

/// Which directions an engine can serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineLane {
    /// Host-to-device only (engine 0 of a dual-engine device).
    H2DOnly,
    /// Device-to-host only (engine 1 of a dual-engine device).
    D2HOnly,
    /// Either direction (the single engine of a Quadro).
    Both,
}

impl EngineLane {
    /// Whether this lane can carry a transfer in `dir`.
    pub fn accepts(self, dir: CopyDirection) -> bool {
        match self {
            EngineLane::H2DOnly => dir == CopyDirection::HostToDevice,
            EngineLane::D2HOnly => dir == CopyDirection::DeviceToHost,
            EngineLane::Both => true,
        }
    }
}

/// A transfer in flight.
#[derive(Debug, Clone)]
pub struct ActiveCopy {
    /// The copy job being served.
    pub job: Job,
    /// When it started.
    pub started_at: SimTime,
    /// When it completes.
    pub finish_at: SimTime,
}

/// One DMA engine.
#[derive(Debug)]
pub struct CopyEngine {
    lane: EngineLane,
    current: Option<ActiveCopy>,
}

impl CopyEngine {
    /// New idle engine for the given lane.
    pub fn new(lane: EngineLane) -> Self {
        CopyEngine {
            lane,
            current: None,
        }
    }

    /// Build the engine set for a device with `count` copy engines.
    pub fn engines_for(count: u32) -> Vec<CopyEngine> {
        match count {
            1 => vec![CopyEngine::new(EngineLane::Both)],
            2 => vec![
                CopyEngine::new(EngineLane::H2DOnly),
                CopyEngine::new(EngineLane::D2HOnly),
            ],
            n => panic!("unsupported copy engine count {n}"),
        }
    }

    /// The lane this engine serves.
    pub fn lane(&self) -> EngineLane {
        self.lane
    }

    /// True if no transfer is in flight.
    pub fn is_idle(&self) -> bool {
        self.current.is_none()
    }

    /// True if this engine could start `dir` right now.
    pub fn can_start(&self, dir: CopyDirection) -> bool {
        self.is_idle() && self.lane.accepts(dir)
    }

    /// The in-flight transfer, if any.
    pub fn current(&self) -> Option<&ActiveCopy> {
        self.current.as_ref()
    }

    /// Begin a transfer that will take `duration_ns`.
    ///
    /// # Panics
    /// Panics if busy or if the direction does not match the lane.
    pub fn start(&mut self, job: Job, duration_ns: u64, now: SimTime) {
        let dir = job.copy_direction().expect("copy engine got non-copy job");
        assert!(self.can_start(dir), "copy engine busy or wrong lane");
        self.current = Some(ActiveCopy {
            job,
            started_at: now,
            finish_at: now + duration_ns.max(1),
        });
    }

    /// Completion time of the in-flight transfer.
    pub fn next_completion(&self) -> Option<SimTime> {
        self.current.as_ref().map(|c| c.finish_at)
    }

    /// Harvest the transfer if it has finished by `now`.
    pub fn advance(&mut self, now: SimTime) -> Option<ActiveCopy> {
        if self.current.as_ref().is_some_and(|c| c.finish_at <= now) {
            self.current.take()
        } else {
            None
        }
    }

    /// Id of the in-flight job, if any.
    pub fn current_job(&self) -> Option<JobId> {
        self.current.as_ref().map(|c| c.job.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ContextId, StreamId};
    use crate::job::JobKind;

    fn copy_job(id: u32, dir: CopyDirection) -> Job {
        Job {
            id: JobId(id),
            ctx: ContextId(0),
            stream: StreamId(1),
            kind: JobKind::Copy {
                dir,
                bytes: 1 << 20,
                pinned: true,
            },
            tag: 0,
            submitted_at: 0,
        }
    }

    #[test]
    fn lane_direction_rules() {
        assert!(EngineLane::H2DOnly.accepts(CopyDirection::HostToDevice));
        assert!(!EngineLane::H2DOnly.accepts(CopyDirection::DeviceToHost));
        assert!(EngineLane::D2HOnly.accepts(CopyDirection::DeviceToHost));
        assert!(EngineLane::Both.accepts(CopyDirection::HostToDevice));
        assert!(EngineLane::Both.accepts(CopyDirection::DeviceToHost));
    }

    #[test]
    fn engines_for_counts() {
        let one = CopyEngine::engines_for(1);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].lane(), EngineLane::Both);
        let two = CopyEngine::engines_for(2);
        assert_eq!(two.len(), 2);
        assert_eq!(two[0].lane(), EngineLane::H2DOnly);
        assert_eq!(two[1].lane(), EngineLane::D2HOnly);
    }

    #[test]
    #[should_panic]
    fn engines_for_rejects_zero() {
        CopyEngine::engines_for(0);
    }

    #[test]
    fn serves_one_transfer_at_a_time() {
        let mut e = CopyEngine::new(EngineLane::Both);
        assert!(e.is_idle());
        e.start(copy_job(0, CopyDirection::HostToDevice), 1000, 0);
        assert!(!e.is_idle());
        assert!(!e.can_start(CopyDirection::DeviceToHost));
        assert_eq!(e.next_completion(), Some(1000));
        assert_eq!(e.current_job(), Some(JobId(0)));
        // Not done yet at t=999.
        assert!(e.advance(999).is_none());
        let done = e.advance(1000).expect("transfer finished");
        assert_eq!(done.job.id, JobId(0));
        assert_eq!(done.started_at, 0);
        assert!(e.is_idle());
    }

    #[test]
    #[should_panic]
    fn wrong_lane_panics() {
        let mut e = CopyEngine::new(EngineLane::H2DOnly);
        e.start(copy_job(0, CopyDirection::DeviceToHost), 10, 0);
    }

    #[test]
    fn zero_duration_clamped_to_one() {
        let mut e = CopyEngine::new(EngineLane::Both);
        e.start(copy_job(0, CopyDirection::HostToDevice), 0, 5);
        assert_eq!(e.next_completion(), Some(6));
    }
}
