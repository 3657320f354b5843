//! Documentation staleness gates.
//!
//! SCHEDULING.md is the human-facing catalogue of the scheduler zoo and
//! the `policy_explorer` example is its executable counterpart. Both
//! must track [`strings_repro::strings::zoo::registry`] — these tests
//! fail the moment a policy ships without documentation, or a doc
//! references a policy that no longer exists in code.

use strings_repro::strings::zoo::{registry, PolicyLayer};

fn read(rel: &str) -> String {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn scheduling_md_names_every_registry_policy() {
    let doc = read("SCHEDULING.md");
    for info in registry() {
        assert!(
            doc.contains(info.name),
            "SCHEDULING.md does not mention the {} policy '{}' — document it",
            info.layer.label(),
            info.name
        );
    }
}

#[test]
fn scheduling_md_is_linked_from_the_entry_docs() {
    for doc in ["README.md", "ARCHITECTURE.md", "DESIGN.md"] {
        assert!(
            read(doc).contains("SCHEDULING.md"),
            "{doc} must link to SCHEDULING.md"
        );
    }
    // And the experiments guide covers the matrix that exercises the zoo.
    let experiments = read("EXPERIMENTS.md");
    assert!(experiments.contains("SCHEDULING.md"));
    assert!(experiments.contains("policy-matrix"));
}

#[test]
fn policy_explorer_enumerates_the_registry_not_a_hardcoded_list() {
    let src = read("examples/policy_explorer.rs");
    assert!(
        src.contains("registry()"),
        "policy_explorer must enumerate zoo::registry()"
    );
    // No mapper enum variant list: adding a policy to the zoo must not
    // require touching the example. (Single delegating references like
    // `LbPolicy::GWtMin` for the arbiter base are fine; a bracketed
    // [LbPolicy::..., LbPolicy::...] sweep list is not.)
    let mappers = registry()
        .into_iter()
        .filter(|i| i.layer == PolicyLayer::Mapper)
        .count();
    assert!(mappers >= 8, "zoo lost mapper policies? found {mappers}");
    for line in src.lines() {
        let refs = line.matches("LbPolicy::").count();
        assert!(
            refs <= 1,
            "policy_explorer hardcodes a policy list: {}",
            line.trim()
        );
    }
}

#[test]
fn scheduling_md_documents_the_policy_enums_and_slice_model() {
    let doc = read("SCHEDULING.md");
    for needle in [
        "NodePolicy",
        "LbPolicy",
        "SliceCapability",
        "fragmentation",
        "policy_matrix",
        "policy-matrix",
    ] {
        assert!(doc.contains(needle), "SCHEDULING.md lost '{needle}'");
    }
}
