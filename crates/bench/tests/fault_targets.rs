//! `--faults` targets are checked against the cluster each experiment runs
//! on before anything runs: a bad target is a usage error, not a panic.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> std::process::Output {
    Command::new(bin).args(args).output().expect("spawn binary")
}

#[test]
fn out_of_range_fault_target_is_a_usage_error() {
    // fault_isolation runs every design on one node with one GPU.
    let out = run(
        env!("CARGO_BIN_EXE_fault_isolation"),
        &["--quick", "--faults", "nodeloss@1s:node99"],
    );
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
    for bin in [
        env!("CARGO_BIN_EXE_serve_slo"),
        env!("CARGO_BIN_EXE_attribution_profile"),
        env!("CARGO_BIN_EXE_policy_matrix"),
    ] {
        // The supernode has two nodes; a 4x2 override has eight devices.
        for args in [
            &["--quick", "--faults", "partition@1s+1s:node2"][..],
            &["--quick", "--topology", "4x2", "--faults", "crash@1s:gid8"][..],
        ] {
            let out = run(bin, args);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.starts_with("error: "), "{bin} {args:?}: {stderr}");
        }
    }
}
