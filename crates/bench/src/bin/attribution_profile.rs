//! Extension experiment: latency attribution per scheduler stack.
//!
//! Runs the open-loop serving scenario with stage-level latency
//! attribution enabled and prints where each stack spends its requests'
//! nanoseconds (see `experiments::attribution`).

use strings_harness::experiments::attribution;
use strings_harness::experiments::ExpScale;

fn main() {
    strings_bench::run_fault_experiment(
        "Extension — latency attribution (Poisson load, supernode)",
        "Strings moves latency out of queue-wait and into actual service",
        ExpScale::serve_topology,
        |scale| attribution::table(&attribution::run(scale)).render(),
    );
}
