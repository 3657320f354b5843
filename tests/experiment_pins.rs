//! The experiment front door: `strings-sim NAME --quick` prints exactly
//! the pinned output in `tests/pins/experiments/NAME.txt` for every row of
//! the experiment table. One test per row, so the rows run in parallel.
//!
//! The pins were recorded before the experiments moved behind one
//! command and must not be edited to follow a change in output: a
//! difference here is a change in what an experiment reports.

use std::collections::BTreeSet;
use std::process::Command;
use strings_repro::harness::cli::EXPERIMENTS;

const PIN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/pins/experiments");

fn check(name: &str) {
    let pin_path = format!("{PIN_DIR}/{name}.txt");
    let pin = std::fs::read_to_string(&pin_path).unwrap_or_else(|e| panic!("read {pin_path}: {e}"));
    let out = Command::new(env!("CARGO_BIN_EXE_strings-sim"))
        .args([name, "--quick"])
        .output()
        .expect("spawn strings-sim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{name} --quick failed: {stderr}");
    let got = String::from_utf8(out.stdout).expect("utf-8 output");
    if got != pin {
        let line = got
            .lines()
            .zip(pin.lines())
            .position(|(g, p)| g != p)
            .unwrap_or_else(|| got.lines().count().min(pin.lines().count()));
        panic!(
            "{name} --quick differs from {pin_path} at line {}:\n  got: {:?}\n  pin: {:?}",
            line + 1,
            got.lines().nth(line),
            pin.lines().nth(line)
        );
    }
}

macro_rules! pins {
    ($($test:ident => $name:literal,)*) => {
        $(
            #[test]
            fn $test() {
                check($name);
            }
        )*

        const PINNED: &[&str] = &[$($name),*];
    };
}

pins! {
    table1_profiles => "table1-profiles",
    fig01_characterization => "fig01-characterization",
    fig02_streams => "fig02-streams",
    fig09_workload_balancing => "fig09-workload-balancing",
    fig10_gpu_sharing => "fig10-gpu-sharing",
    fig11_fairness => "fig11-fairness",
    fig12_throughput => "fig12-throughput",
    fig13_sched_only => "fig13-sched-only",
    fig14_feedback => "fig14-feedback",
    fig15_strings_feedback => "fig15-strings-feedback",
    ablation_design => "ablation-design",
    vmem_pressure => "vmem-pressure",
    fault_isolation => "fault-isolation",
    cpu_fallback => "cpu-fallback",
    serve_slo => "serve-slo",
    attribution_profile => "attribution-profile",
    policy_matrix => "policy-matrix",
}

#[test]
fn every_row_has_a_pin_and_a_test() {
    let rows: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let tested: BTreeSet<&str> = PINNED.iter().copied().collect();
    let files: BTreeSet<String> = std::fs::read_dir(PIN_DIR)
        .expect("read the pin directory")
        .map(|entry| {
            let name = entry.expect("pin entry").file_name();
            let name = name.to_str().expect("utf-8 pin name");
            name.strip_suffix(".txt")
                .unwrap_or_else(|| panic!("{name}: pins are NAME.txt"))
                .to_string()
        })
        .collect();
    let files: BTreeSet<&str> = files.iter().map(String::as_str).collect();
    assert_eq!(rows, files, "experiment rows vs pin files");
    assert_eq!(rows, tested, "experiment rows vs pin tests");
    assert_eq!(rows.len(), EXPERIMENTS.len(), "duplicate row names");
}
