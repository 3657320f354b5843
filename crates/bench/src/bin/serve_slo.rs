//! Extension experiment: open-loop serving SLOs per scheduler stack.
//!
//! Offers seeded Poisson load to the supernode through the admission
//! front door and reports tail latency, goodput, shed rate, and windowed
//! fairness for each stack (see `experiments::serve`).

use strings_harness::experiments::serve;
use strings_harness::experiments::ExpScale;

fn main() {
    strings_bench::run_fault_experiment(
        "Extension — open-loop serving SLOs (Poisson load, supernode)",
        "the interposed stacks keep tail latency and shed rate below bare CUDA",
        ExpScale::serve_topology,
        |scale| serve::table(&serve::run(scale)).render(),
    );
}
