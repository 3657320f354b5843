//! Extension experiment: fault isolation across backend designs.
//!
//! Extra injections from `--faults` are layered on top of the built-in
//! backend crash at t=10s.

use strings_harness::experiments::faults;

fn main() {
    strings_bench::run_fault_experiment(
        "Extension — fault isolation (one backend crash, busy single GPU)",
        "Design I isolates per process; Design II loses everyone; Design III replays",
        |_| faults::topology(),
        |scale| faults::table(&faults::run(scale)).render(),
    );
}
