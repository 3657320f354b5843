//! Documentation staleness gates.
//!
//! SCHEDULING.md is the human-facing catalogue of the scheduler zoo and
//! the `policy_explorer` example is its executable counterpart. Both
//! must track [`strings_repro::strings::zoo::registry`] — these tests
//! fail the moment a policy ships without documentation, or a doc
//! references a policy that no longer exists in code. The README must
//! likewise name every `strings-sim` experiment, and no doc may point at
//! a `strings-bench` binary other than `bench_suite`.

use std::path::Path;
use strings_repro::harness::cli::EXPERIMENTS;
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

#[test]
fn readme_names_every_experiment() {
    let readme = read("README.md");
    for exp in EXPERIMENTS {
        assert!(
            readme.contains(&format!("strings-sim -- {}", exp.name)),
            "README.md has no `strings-sim -- {}` command",
            exp.name
        );
    }
}

/// Every `.md` file under `dir`, skipping build output and vendored code.
fn markdown_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {dir:?}: {e}")) {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !matches!(name, "target" | "vendor" | ".git") {
                markdown_files(&path, out);
            }
        } else if name.ends_with(".md") {
            out.push(path);
        }
    }
}

#[test]
fn docs_run_experiments_through_strings_sim() {
    const BENCH_BIN: &str = "-p strings-bench --bin ";
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut docs = Vec::new();
    markdown_files(root, &mut docs);
    assert!(docs.iter().any(|p| p.ends_with("README.md")));
    for path in docs {
        let rel = path.strip_prefix(root).expect("under the root");
        // The change log and the plans quote the commands of their time.
        if ["CHANGES.md", "ROADMAP.md"]
            .iter()
            .any(|history| rel == Path::new(history))
        {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read doc");
        for (at, _) in text.match_indices(BENCH_BIN) {
            let bin = &text[at + BENCH_BIN.len()..];
            // A line naming the old binary next to its `strings-sim`
            // replacement records the move rather than a way to run it.
            let line_start = text[..at].rfind('\n').map_or(0, |i| i + 1);
            let line_end = at + text[at..].find('\n').unwrap_or(text.len() - at);
            if text[line_start..line_end].contains("strings-sim ") {
                continue;
            }
            assert!(
                bin.starts_with("bench_suite"),
                "{} runs a strings-bench binary other than bench_suite: {}",
                rel.display(),
                bin.lines().next().unwrap_or("")
            );
        }
    }
}
