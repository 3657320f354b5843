//! The scheduler zoo: a registry of every shipped policy.
//!
//! One flat, ordered list of every policy across the three decision
//! layers — cluster placement (tenant → node,
//! [`crate::placement::NodePolicy`]), device mapping (request → device,
//! [`crate::mapper::LbPolicy`]), and admission (accept/shed at the front
//! door). Each policy is one enum variant and one `match` arm in its
//! layer; adding a policy means adding both and a row here.
//! Documentation surfaces (SCHEDULING.md, the
//! `policy_explorer` example) enumerate this registry instead of
//! hardcoding variant lists, and a staleness test asserts the two never
//! drift apart.
//!
//! ```
//! use strings_core::zoo::{registry, PolicyLayer};
//!
//! let zoo = registry();
//! // Every mapper entry carries the enum variant it names.
//! for info in zoo.iter().filter(|i| i.layer == PolicyLayer::Mapper) {
//!     let lb = info.lb.expect("mapper entries carry their enum");
//!     assert_eq!(lb.label(), info.name);
//! }
//! assert!(zoo.iter().any(|i| i.name == "Frag"));
//! ```

use crate::mapper::LbPolicy;
use crate::placement::NodePolicy;

/// Which decision layer a policy plugs into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyLayer {
    /// Cluster tier: tenant → node ([`crate::placement::NodePolicy`]).
    Placement,
    /// Node/pool tier: request → device ([`crate::mapper::LbPolicy`]).
    Mapper,
    /// Front door: admit or shed ([`crate::admission`]).
    Admission,
}

impl PolicyLayer {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            PolicyLayer::Placement => "placement",
            PolicyLayer::Mapper => "mapper",
            PolicyLayer::Admission => "admission",
        }
    }
}

/// One registry row: a shipped policy and how to reach it.
#[derive(Debug, Clone, Copy)]
pub struct PolicyInfo {
    /// The layer it plugs into.
    pub layer: PolicyLayer,
    /// Canonical display name (matches the policy's `label()`).
    pub name: &'static str,
    /// The config-enum handle, for mapper policies.
    pub lb: Option<LbPolicy>,
    /// The config-enum handle, for placement policies.
    pub node: Option<NodePolicy>,
    /// True if the policy consumes runtime feedback (SFT history or
    /// measured queue waits).
    pub feedback: bool,
    /// One-line description for docs and explorers.
    pub summary: &'static str,
}

/// Every shipped policy, ordered by layer then registry order.
pub fn registry() -> Vec<PolicyInfo> {
    let mut zoo = Vec::new();
    for node in NodePolicy::ALL {
        zoo.push(PolicyInfo {
            layer: PolicyLayer::Placement,
            name: node.label(),
            lb: None,
            node: Some(node),
            feedback: false,
            summary: match node {
                NodePolicy::RoundRobin => "static striping: tenant t -> node t mod N",
                NodePolicy::Hash => "multiplicative hash decorrelates tenants from nodes",
                NodePolicy::LeastTenants => "fewest-tenants-first, lowest node id on ties",
            },
        });
    }
    for lb in LbPolicy::ALL {
        zoo.push(PolicyInfo {
            layer: PolicyLayer::Mapper,
            name: lb.label(),
            lb: Some(lb),
            node: None,
            feedback: lb.is_feedback(),
            summary: match lb {
                LbPolicy::Grr => "global round robin over live devices",
                LbPolicy::GMin => "least raw device load, local ties preferred",
                LbPolicy::GWtMin => "least load normalized by static device weight",
                LbPolicy::Frag => "fragmentation-aware MIG slice packing",
                LbPolicy::Rtf => "shortest expected drain from measured runtimes",
                LbPolicy::Guf => "keep high-GPU-utilization classes apart",
                LbPolicy::Dtf => "collocate contrasting transfer intensities",
                LbPolicy::Mbf => "keep memory-bandwidth hogs apart",
            },
        });
    }
    zoo.push(PolicyInfo {
        layer: PolicyLayer::Admission,
        name: "queue-depth",
        lb: None,
        node: None,
        feedback: false,
        summary: "bound per-tenant occupancy, shed on full",
    });
    zoo.push(PolicyInfo {
        layer: PolicyLayer::Admission,
        name: "rate-limit",
        lb: None,
        node: None,
        feedback: false,
        summary: "per-tenant token bucket in virtual time",
    });
    zoo.push(PolicyInfo {
        layer: PolicyLayer::Admission,
        name: "slo",
        lb: None,
        node: None,
        feedback: true,
        summary: "shed while the smoothed queue wait exceeds the SLO target",
    });
    zoo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_enum_variant_exactly_once() {
        let zoo = registry();
        let mappers: Vec<LbPolicy> = zoo.iter().filter_map(|i| i.lb).collect();
        assert_eq!(mappers, LbPolicy::ALL.to_vec());
        let placements: Vec<NodePolicy> = zoo.iter().filter_map(|i| i.node).collect();
        assert_eq!(placements, NodePolicy::ALL.to_vec());
        assert_eq!(
            zoo.iter()
                .filter(|i| i.layer == PolicyLayer::Admission)
                .count(),
            3
        );
    }

    #[test]
    fn names_match_the_layers_own_labels() {
        for info in registry() {
            if let Some(lb) = info.lb {
                assert_eq!(info.name, lb.label());
                assert_eq!(info.feedback, lb.is_feedback());
            }
            if let Some(node) = info.node {
                assert_eq!(info.name, node.label());
            }
        }
    }

    #[test]
    fn names_are_unique_within_a_layer() {
        let zoo = registry();
        for a in 0..zoo.len() {
            for b in a + 1..zoo.len() {
                assert!(
                    zoo[a].layer != zoo[b].layer || zoo[a].name != zoo[b].name,
                    "duplicate {} in {:?}",
                    zoo[a].name,
                    zoo[a].layer
                );
            }
        }
    }
}
