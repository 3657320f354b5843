//! Seed-parallel scenario fan-out.
//!
//! The DES core is single-threaded and deterministic; experiments that
//! average over seeds or sweep configurations run their *independent*
//! simulations in parallel across OS threads — the idiomatic place for
//! parallelism in an HPC-style Rust codebase (parallelize the
//! embarrassingly parallel outer loop, keep the inner kernel sequential
//! and reproducible).

use crate::scenario::Scenario;
use crate::stats::RunStats;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Sweep-parallelism override: 0 means "one worker per core".
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Pin the number of sweep worker threads (0 restores the per-core
/// default). Results are order-preserving and seed-deterministic either
/// way; pinning exists so benchmark runs are reproducible machine-to-
/// machine (`bench_suite --threads N`, `--threads` on experiment CLIs).
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::Relaxed);
}

/// Current sweep parallelism: the pinned value, or the core count.
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        n => n,
    }
}

/// Run `total` independent simulations through a worker pool, preserving
/// index order in the output. The shared driver behind [`run_all`] and
/// [`run_seeds`].
fn run_indexed<F>(total: usize, run: F) -> Vec<RunStats>
where
    F: Fn(usize) -> RunStats + Sync,
{
    let threads = threads().min(total);
    if total <= 1 || threads <= 1 {
        return (0..total).map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<RunStats>>> = (0..total).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let stats = run(i);
                    // Held only for the store, so never poisoned: a
                    // panicking run unwinds before it takes the lock.
                    *slots[i].lock().expect("slot lock") = Some(stats);
                })
            })
            .collect();
        // Join explicitly so a panicking scenario resurfaces with its
        // original payload (scope's implicit join would replace it with
        // a generic "a scoped thread panicked").
        for worker in workers {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("worker loop claimed every index in 0..total")
        })
        .collect()
}

/// Run every scenario, in parallel, preserving input order in the output.
pub fn run_all(scenarios: Vec<Scenario>) -> Vec<RunStats> {
    run_indexed(scenarios.len(), |i| scenarios[i].run())
}

/// Run one shared scenario across several seeds, in parallel, preserving
/// seed order in the output. No per-seed clone: each worker replans from
/// the borrowed base via [`Scenario::run_with_seed`].
pub fn run_seeds(base: &Scenario, seeds: &[u64]) -> Vec<RunStats> {
    run_indexed(seeds.len(), |i| base.run_with_seed(seeds[i]))
}

/// Run one shared serving spec across several seeds, in parallel,
/// preserving seed order — the serve-mode analogue of [`run_seeds`].
pub fn run_serve_seeds(base: &crate::serve::ServeSpec, seeds: &[u64]) -> Vec<RunStats> {
    run_indexed(seeds.len(), |i| base.run_with_seed(seeds[i]))
}

/// Run the same scenario across several seeds and return the mean of a
/// metric extracted from each run.
pub fn mean_over_seeds(base: &Scenario, seeds: &[u64], metric: impl Fn(&RunStats) -> f64) -> f64 {
    let runs = run_seeds(base, seeds);
    let sum: f64 = runs.iter().map(&metric).sum();
    sum / runs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::StreamSpec;
    use strings_core::config::StackConfig;
    use strings_core::mapper::LbPolicy;
    use strings_workloads::profile::AppKind;

    fn tiny(seed: u64) -> Scenario {
        Scenario::single_node(
            StackConfig::strings(LbPolicy::GMin),
            vec![StreamSpec::of(AppKind::GA, 2, 1.0)],
            seed,
        )
    }

    #[test]
    fn parallel_matches_sequential() {
        let scenarios: Vec<Scenario> = (0..6).map(tiny).collect();
        let par = run_all(scenarios.clone());
        let seq: Vec<_> = scenarios.iter().map(Scenario::run).collect();
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.mean_completion_ns(), s.mean_completion_ns());
            assert_eq!(p.events, s.events);
        }
    }

    #[test]
    fn mean_over_seeds_averages() {
        let m = mean_over_seeds(&tiny(0), &[1, 2, 3], |s| s.completed_requests as f64);
        assert_eq!(m, 2.0);
    }

    #[test]
    fn run_seeds_matches_per_seed_clones() {
        // The clone-free sweep must produce exactly what the old
        // clone-scenario-and-set-seed pattern produced.
        let base = tiny(999);
        let runs = run_seeds(&base, &[1, 2, 3]);
        for (&seed, r) in [1u64, 2, 3].iter().zip(&runs) {
            let mut cloned = base.clone();
            cloned.seed = seed;
            let expect = cloned.run();
            assert_eq!(r.events, expect.events);
            assert_eq!(r.makespan_ns, expect.makespan_ns);
            assert_eq!(r.mean_completion_ns(), expect.mean_completion_ns());
        }
    }

    #[test]
    fn single_scenario_short_circuits() {
        let out = run_all(vec![tiny(5)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].completed_requests, 2);
    }

    #[test]
    fn worker_panic_resurfaces_with_original_payload() {
        // A scenario with no GPUs makes World::new panic inside a worker
        // thread; run_all must re-raise that payload, not a generic
        // "a scoped thread panicked" or a poisoned-slot expect.
        let mut bad = tiny(1);
        bad.topology = remoting::topology::TopologySpec::of_nodes(Vec::new());
        let scenarios = vec![tiny(0), bad, tiny(2), tiny(3)];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_all(scenarios)))
            .expect_err("the empty topology must panic");
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .expect("panic payload is a string");
        assert!(
            msg.contains("topology has no GPUs"),
            "original payload lost, got: {msg}"
        );
    }
}
