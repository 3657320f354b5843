//! `strings-sim EXPERIMENT` flag checks: `--faults` targets are checked
//! against the cluster each experiment runs on before anything runs, and
//! an experiment rejects the flags it would ignore. Both are usage errors
//! (exit 2), not a panic and not a silent no-op.

use std::process::Command;

fn sim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_strings-sim"))
        .args(args)
        .output()
        .expect("spawn strings-sim")
}

#[test]
fn out_of_range_fault_target_is_a_usage_error() {
    // fault-isolation runs every design on one node with one GPU.
    let out = sim(&[
        "fault-isolation",
        "--quick",
        "--faults",
        "nodeloss@1s:node99",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.starts_with("error: fault plan references unknown target: node_loss(node99)"),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing runs before the check");
}

#[test]
fn serving_experiments_check_targets_against_their_topology() {
    for exp in ["serve-slo", "attribution-profile", "policy-matrix"] {
        // The supernode has two nodes; a 4x2 override has eight devices.
        for args in [
            &["--quick", "--faults", "partition@1s+1s:node2"][..],
            &["--quick", "--topology", "4x2", "--faults", "crash@1s:gid8"][..],
        ] {
            let out = sim(&[&[exp], args].concat());
            assert_eq!(out.status.code(), Some(2), "{exp} {args:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.starts_with("error: "), "{exp} {args:?}: {stderr}");
        }
    }
}

#[test]
fn a_flag_the_experiment_ignores_is_a_usage_error() {
    for (exp, flag, value) in [
        ("fig12-throughput", "--faults", "crash@1s:gid99"),
        ("fault-isolation", "--topology", "4x2"),
        ("serve-slo", "--trace", "t.json"),
        // Rows that run one seed, or a fixed one, would ignore --seeds.
        ("table1-profiles", "--seeds", "2"),
        ("table1-profiles", "--requests", "5"),
        ("fig01-characterization", "--seeds", "2"),
        ("fig02-streams", "--seeds", "2"),
        ("vmem-pressure", "--seeds", "2"),
        ("fault-isolation", "--seeds", "2"),
        ("cpu-fallback", "--seeds", "2"),
        ("serve-slo", "--seeds", "2"),
        ("attribution-profile", "--seeds", "2"),
        ("policy-matrix", "--seeds", "2"),
    ] {
        let out = sim(&[exp, "--quick", flag, value]);
        assert_eq!(out.status.code(), Some(2), "{exp} {flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr.trim_end(),
            format!("error: {exp} does not take {flag}"),
            "{exp} {flag}"
        );
        assert!(out.stdout.is_empty(), "{exp} {flag}: nothing runs");
    }
}

#[test]
fn an_unwritable_trace_path_exits_1_without_a_panic() {
    let path = "/nonexistent-dir/t.json";
    for args in [
        &["fig02-streams", "--quick", "--trace", path][..],
        &["serve", "--duration", "2s", "--trace", path][..],
    ] {
        let out = sim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: write {path}: ")),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
