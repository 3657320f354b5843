//! Deterministic fault injection plans.
//!
//! A [`FaultPlan`] is a seed-reproducible schedule of infrastructure
//! failures stamped in virtual time: backend-process crashes, whole-node
//! loss, GPU device failures (ECC-style fail-stop), and cross-node link
//! degradation or partition windows. The plan itself is pure data — the
//! simulation executive interprets each [`FaultKind`] against its topology
//! (blast radius per backend design, gMap rebuild, re-placement).
//!
//! Targets are raw indices (`gid`, `node`) rather than the remoting
//! crate's newtypes so the DES core stays dependency-free; the harness
//! layers the typed view on top.
//!
//! Plans come from three places:
//!
//! * programmatic builders ([`FaultPlan::crash_at`] etc.) used by the
//!   experiments,
//! * the `--faults` CLI grammar via [`FaultPlan::parse`],
//! * [`FaultPlan::seeded`], which draws a random-but-reproducible plan
//!   from a [`SimRng`] for soak scenarios.

use crate::rng::SimRng;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// One injectable failure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A backend worker process on device `gid` crashes. Transient: the
    /// daemon respawns the process; blast radius depends on the backend
    /// design (paper Figure 5).
    BackendCrash {
        /// Global device index hosting the crashed process.
        gid: u32,
    },
    /// Device `gid` fails permanently (uncorrectable ECC / fallen off the
    /// bus). The gMap marks it lost and applications re-place.
    DeviceFailure {
        /// Global device index of the failed GPU.
        gid: u32,
    },
    /// Machine `node` dies permanently: its GPUs leave the gPool and its
    /// frontends are lost.
    NodeLoss {
        /// Index of the lost node.
        node: u32,
    },
    /// The cross-node link touching `node` delivers `factor`× slower for
    /// `for_ns` of virtual time (congestion, retransmissions).
    LinkDegraded {
        /// Node whose cross-node traffic is slowed.
        node: u32,
        /// Multiplier applied to transfer times (> 1 slows).
        factor: f64,
        /// Window length in nanoseconds.
        for_ns: u64,
    },
    /// The cross-node link touching `node` drops everything for `for_ns`
    /// of virtual time; in-flight and new RPCs time out and retry.
    Partition {
        /// Node partitioned from the rest of the supernode.
        node: u32,
        /// Window length in nanoseconds.
        for_ns: u64,
    },
}

impl FaultKind {
    /// Short label used in traces and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::BackendCrash { .. } => "backend_crash",
            FaultKind::DeviceFailure { .. } => "device_failure",
            FaultKind::NodeLoss { .. } => "node_loss",
            FaultKind::LinkDegraded { .. } => "link_degraded",
            FaultKind::Partition { .. } => "partition",
        }
    }

    /// Stable numeric code for compact encodings (flight records).
    pub fn code(&self) -> u64 {
        match self {
            FaultKind::BackendCrash { .. } => 0,
            FaultKind::DeviceFailure { .. } => 1,
            FaultKind::NodeLoss { .. } => 2,
            FaultKind::LinkDegraded { .. } => 3,
            FaultKind::Partition { .. } => 4,
        }
    }

    /// The injection target (GID or node index) for compact encodings.
    pub fn target(&self) -> u64 {
        match self {
            FaultKind::BackendCrash { gid } | FaultKind::DeviceFailure { gid } => *gid as u64,
            FaultKind::NodeLoss { node }
            | FaultKind::LinkDegraded { node, .. }
            | FaultKind::Partition { node, .. } => *node as u64,
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::BackendCrash { gid } => write!(f, "backend_crash(gid{gid})"),
            FaultKind::DeviceFailure { gid } => write!(f, "device_failure(gid{gid})"),
            FaultKind::NodeLoss { node } => write!(f, "node_loss(node{node})"),
            FaultKind::LinkDegraded {
                node,
                factor,
                for_ns,
            } => write!(f, "link_degraded(node{node} x{factor} for {for_ns}ns)"),
            FaultKind::Partition { node, for_ns } => {
                write!(f, "partition(node{node} for {for_ns}ns)")
            }
        }
    }
}

/// One scheduled injection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Virtual time of the injection.
    pub at: SimTime,
    /// What fails.
    pub kind: FaultKind,
}

/// A deterministic schedule of fault injections.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan (no faults — the happy path).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled injections.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Injections in time order (ties keep insertion order).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Check every target against a topology of `n_nodes` nodes holding
    /// `n_devices` devices; the error names the first unknown target.
    ///
    /// ```
    /// use sim_core::fault::FaultPlan;
    ///
    /// let plan = FaultPlan::parse("nodeloss@1s:node3").unwrap();
    /// assert!(plan.check_targets(4, 16).is_ok());
    /// assert!(plan.check_targets(2, 16).is_err());
    /// ```
    pub fn check_targets(&self, n_nodes: usize, n_devices: usize) -> Result<(), String> {
        for ev in &self.events {
            let limit = match ev.kind {
                FaultKind::BackendCrash { .. } | FaultKind::DeviceFailure { .. } => n_devices,
                FaultKind::NodeLoss { .. }
                | FaultKind::LinkDegraded { .. }
                | FaultKind::Partition { .. } => n_nodes,
            };
            if ev.kind.target() >= limit as u64 {
                return Err(format!(
                    "fault plan references unknown target: {} \
                     (topology has {n_nodes} nodes, {n_devices} devices)",
                    ev.kind
                ));
            }
        }
        Ok(())
    }

    /// Add an injection, keeping the schedule time-sorted and stable.
    pub fn push(&mut self, at: SimTime, kind: FaultKind) -> &mut Self {
        self.events.push(FaultEvent { at, kind });
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// Builder: backend-process crash on `gid` at `at`.
    pub fn crash_at(mut self, at: SimTime, gid: u32) -> Self {
        self.push(at, FaultKind::BackendCrash { gid });
        self
    }

    /// Builder: permanent device failure of `gid` at `at`.
    pub fn device_failure_at(mut self, at: SimTime, gid: u32) -> Self {
        self.push(at, FaultKind::DeviceFailure { gid });
        self
    }

    /// Builder: permanent loss of `node` at `at`.
    pub fn node_loss_at(mut self, at: SimTime, node: u32) -> Self {
        self.push(at, FaultKind::NodeLoss { node });
        self
    }

    /// Builder: degrade `node`'s cross-node link by `factor` for `for_ns`
    /// starting at `at`.
    pub fn degrade_at(mut self, at: SimTime, node: u32, factor: f64, for_ns: u64) -> Self {
        self.push(
            at,
            FaultKind::LinkDegraded {
                node,
                factor,
                for_ns,
            },
        );
        self
    }

    /// Builder: partition `node` for `for_ns` starting at `at`.
    pub fn partition_at(mut self, at: SimTime, node: u32, for_ns: u64) -> Self {
        self.push(at, FaultKind::Partition { node, for_ns });
        self
    }

    /// Parse the `--faults` grammar: `;`- or `,`-separated entries of
    ///
    /// ```text
    /// crash@TIME:gidN            backend-process crash on device N
    /// ecc@TIME:gidN              permanent device failure of device N
    /// nodeloss@TIME:nodeN        permanent loss of node N
    /// degrade@TIME+DUR:nodeNxF   slow node N's link by F× for DUR
    /// partition@TIME+DUR:nodeN   drop node N's link for DUR
    /// ```
    ///
    /// `TIME`/`DUR` take `ns`, `us`, `ms` or `s` suffixes (bare numbers
    /// are nanoseconds).
    ///
    /// ```
    /// use sim_core::fault::{FaultKind, FaultPlan};
    ///
    /// let plan = FaultPlan::parse("crash@10s:gid0;partition@2s+500ms:node1").unwrap();
    /// assert_eq!(plan.len(), 2);
    /// // Events are kept in virtual-time order, earliest first.
    /// assert_eq!(plan.events()[0].at, 2_000_000_000);
    /// assert_eq!(
    ///     plan.events()[0].kind,
    ///     FaultKind::Partition { node: 1, for_ns: 500_000_000 },
    /// );
    /// assert_eq!(plan.events()[1].kind, FaultKind::BackendCrash { gid: 0 });
    /// assert!(FaultPlan::parse("meteor@1s:gid0").is_err());
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for raw in spec.split([';', ',']) {
            let entry = raw.trim();
            if entry.is_empty() {
                continue;
            }
            let (head, target) = entry
                .split_once(':')
                .ok_or_else(|| format!("fault '{entry}' wants KIND@TIME:TARGET"))?;
            let (kind, time_spec) = head
                .split_once('@')
                .ok_or_else(|| format!("fault '{entry}' wants KIND@TIME:TARGET"))?;
            let (at_spec, dur_spec) = match time_spec.split_once('+') {
                Some((a, d)) => (a, Some(d)),
                None => (time_spec, None),
            };
            let at = parse_time(at_spec)?;
            let dur = dur_spec.map(parse_time).transpose()?;
            match kind {
                "crash" | "ecc" => {
                    let gid = parse_target(target, "gid")?;
                    if dur.is_some() {
                        return Err(format!("'{kind}' faults take no duration"));
                    }
                    plan.push(
                        at,
                        if kind == "crash" {
                            FaultKind::BackendCrash { gid }
                        } else {
                            FaultKind::DeviceFailure { gid }
                        },
                    );
                }
                "nodeloss" => {
                    let node = parse_target(target, "node")?;
                    if dur.is_some() {
                        return Err("'nodeloss' faults take no duration".into());
                    }
                    plan.push(at, FaultKind::NodeLoss { node });
                }
                "degrade" => {
                    let (node_part, factor_part) = target
                        .split_once('x')
                        .ok_or_else(|| format!("degrade target '{target}' wants nodeNxFACTOR"))?;
                    let node = parse_target(node_part, "node")?;
                    let factor: f64 = factor_part
                        .parse()
                        .map_err(|_| format!("bad degrade factor '{factor_part}'"))?;
                    if factor < 1.0 {
                        return Err(format!("degrade factor {factor} must be >= 1"));
                    }
                    let for_ns =
                        dur.ok_or_else(|| "degrade wants a duration (TIME+DUR)".to_string())?;
                    plan.push(
                        at,
                        FaultKind::LinkDegraded {
                            node,
                            factor,
                            for_ns,
                        },
                    );
                }
                "partition" => {
                    let node = parse_target(target, "node")?;
                    let for_ns =
                        dur.ok_or_else(|| "partition wants a duration (TIME+DUR)".to_string())?;
                    plan.push(at, FaultKind::Partition { node, for_ns });
                }
                other => {
                    return Err(format!(
                        "unknown fault kind '{other}' (crash|ecc|nodeloss|degrade|partition)"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// A random-but-reproducible plan: `count` injections drawn uniformly
    /// over `(0, horizon_ns)` against a pool of `gpus` devices on `nodes`
    /// machines. Node-killing faults are excluded (they would empty small
    /// topologies); windows last 1–10% of the horizon.
    pub fn seeded(seed: u64, horizon_ns: u64, count: usize, gpus: u32, nodes: u32) -> FaultPlan {
        assert!(gpus > 0 && nodes > 0, "empty topology");
        let mut rng = SimRng::new(seed);
        let mut plan = FaultPlan::none();
        for _ in 0..count {
            let at = (rng.uniform(0.05, 0.95) * horizon_ns as f64) as u64;
            let window = (rng.uniform(0.01, 0.10) * horizon_ns as f64) as u64;
            let kind = match rng.index(4) {
                0 => FaultKind::BackendCrash {
                    gid: rng.index(gpus as usize) as u32,
                },
                1 => FaultKind::DeviceFailure {
                    gid: rng.index(gpus as usize) as u32,
                },
                2 => FaultKind::LinkDegraded {
                    node: rng.index(nodes as usize) as u32,
                    factor: (rng.uniform(2.0, 16.0) * 2.0).round() / 2.0,
                    for_ns: window,
                },
                _ => FaultKind::Partition {
                    node: rng.index(nodes as usize) as u32,
                    for_ns: window,
                },
            };
            plan.push(at, kind);
        }
        plan
    }
}

fn parse_time(s: &str) -> Result<u64, String> {
    crate::time::SimDuration::parse(s).map(|d| d.as_ns())
}

fn parse_target(s: &str, prefix: &str) -> Result<u32, String> {
    s.trim()
        .strip_prefix(prefix)
        .ok_or_else(|| format!("target '{s}' wants the '{prefix}N' form"))?
        .parse()
        .map_err(|_| format!("bad {prefix} index in '{s}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_keep_time_order() {
        let p = FaultPlan::none()
            .crash_at(5_000, 1)
            .node_loss_at(1_000, 0)
            .device_failure_at(3_000, 2);
        let ats: Vec<u64> = p.events().iter().map(|e| e.at).collect();
        assert_eq!(ats, vec![1_000, 3_000, 5_000]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn parse_full_grammar() {
        let p = FaultPlan::parse(
            "crash@10s:gid0; ecc@4ms:gid2, nodeloss@5s:node1; \
             degrade@2s+3s:node1x8; partition@2s+500ms:node0",
        )
        .unwrap();
        assert_eq!(p.len(), 5);
        assert_eq!(
            p.events()[0].kind,
            FaultKind::DeviceFailure { gid: 2 },
            "4ms sorts first"
        );
        assert!(p
            .events()
            .iter()
            .any(|e| e.at == 10_000_000_000 && e.kind == FaultKind::BackendCrash { gid: 0 }));
        assert!(p.events().iter().any(|e| matches!(
            e.kind,
            FaultKind::LinkDegraded {
                node: 1,
                factor,
                for_ns: 3_000_000_000,
            } if (factor - 8.0).abs() < 1e-12
        )));
        assert!(p.events().iter().any(|e| e.kind
            == FaultKind::Partition {
                node: 0,
                for_ns: 500_000_000
            }));
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        assert!(FaultPlan::parse("crash@10s").is_err());
        assert!(FaultPlan::parse("crash:gid0").is_err());
        assert!(FaultPlan::parse("meteor@1s:gid0").is_err());
        assert!(FaultPlan::parse("crash@1s:node0").is_err());
        assert!(FaultPlan::parse("crash@1s+2s:gid0").is_err());
        assert!(FaultPlan::parse("degrade@1s:node0x2").is_err());
        assert!(FaultPlan::parse("degrade@1s+1s:node0x0.5").is_err());
        assert!(FaultPlan::parse("partition@1s:node0").is_err());
        assert!(FaultPlan::parse("crash@-1s:gid0").is_err());
        assert!(FaultPlan::parse("crash@zz:gid0").is_err());
    }

    #[test]
    fn parse_time_suffixes() {
        let p = FaultPlan::parse("crash@250us:gid0;crash@42:gid1").unwrap();
        assert_eq!(p.events()[0].at, 42, "bare number is ns");
        assert_eq!(p.events()[1].at, 250_000);
    }

    #[test]
    fn empty_spec_is_empty_plan() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" ; ,").unwrap().is_empty());
    }

    #[test]
    fn seeded_plans_are_reproducible_and_in_bounds() {
        let a = FaultPlan::seeded(7, 1_000_000, 10, 4, 2);
        let b = FaultPlan::seeded(7, 1_000_000, 10, 4, 2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        for e in a.events() {
            assert!(e.at < 1_000_000);
            match e.kind {
                FaultKind::BackendCrash { gid } | FaultKind::DeviceFailure { gid } => {
                    assert!(gid < 4)
                }
                FaultKind::LinkDegraded { node, factor, .. } => {
                    assert!(node < 2 && factor >= 1.0)
                }
                FaultKind::Partition { node, .. } => assert!(node < 2),
                FaultKind::NodeLoss { .. } => panic!("seeded plans never kill nodes"),
            }
        }
        let c = FaultPlan::seeded(8, 1_000_000, 10, 4, 2);
        assert_ne!(a, c, "different seed, different plan");
    }
}
