//! Extension experiment: the policy matrix.
//!
//! Crosses every scheduler stack (placement × mapper × admission) with
//! workload mixes and fault plans, and ranks the stacks per cell by
//! goodput, tail latency, and shed count (see `experiments::policy_matrix`).

use strings_harness::experiments::policy_matrix;
use strings_harness::experiments::ExpScale;

fn main() {
    strings_bench::run_fault_experiment(
        "Extension — policy matrix (stacks x workload mixes x fault plans)",
        "no single policy wins every cell; feedback and slicing pay off only where their inputs exist",
        ExpScale::serve_topology,
        |scale| policy_matrix::table(&policy_matrix::run(scale)).render(),
    );
}
