//! `perfbench`: the Strings simulator's end-to-end and per-layer
//! benchmark. It drives the simulator from one thread, only through its
//! public entry points, and times every call from outside. README.md
//! describes the workloads, the metrics and how to read them.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig12_batch --seed 42 --seconds 10 --trace 0
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. The
//! exit code is non-zero when any check failed or a workload panicked.

#![deny(unsafe_op_in_unsafe_fn)]

mod bench;
mod calibrate;
mod measure;
mod workload;

use bench::Outcome;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use workload::{Workload, NAMES};

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 42;

const USAGE: &str = "perfbench — end-to-end and per-layer benchmark of the Strings simulator

  perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

  --workload  fig12_batch | cluster_serve | incident_forensics | all   [all]
  --seed      workload seed; 42 by default, 1009 is the held-out seed  [42]
  --seconds   time the reps for at least this long (3 reps minimum)    [10]
  --trace     1 adds the traced pass and reports per-layer metrics     [0]
";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = "all".to_string();
        let mut args = Args {
            workloads: Vec::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} wants a value"));
            match flag.as_str() {
                "--workload" => workload = value()?,
                "--seed" => {
                    args.seed = value()?
                        .parse()
                        .map_err(|_| "--seed wants an unsigned integer".to_string())?
                }
                "--seconds" => {
                    args.seconds = value()?
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && s.is_finite())
                        .ok_or("--seconds wants a positive number")?
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace wants 0 or 1, not '{v}'")),
                    }
                }
                "-h" | "--help" => {
                    print!("{USAGE}");
                    std::process::exit(0);
                }
                other => return Err(format!("unknown option '{other}'")),
            }
        }
        let names: Vec<&str> = if workload == "all" {
            NAMES.to_vec()
        } else {
            vec![workload.as_str()]
        };
        for name in names {
            let w = Workload::named(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
            args.workloads.push(w);
        }
        Ok(args)
    }
}

/// Run one workload; a panic inside it fails every operation it started
/// instead of aborting the benchmark.
fn guarded(w: &Workload, args: &Args) -> Outcome {
    let ops = Cell::new(0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        bench::run(w, args.seed, args.seconds, args.trace, &ops)
    }));
    result.unwrap_or_else(|payload| {
        measure::stop_counting();
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "a non-text panic payload".into());
        Outcome::panicked(w.name, ops.get().max(1), message)
    })
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The result line. With several workloads their metrics are keyed
/// `workload/metric`.
fn result_json(outcomes: &[Outcome]) -> String {
    let prefix = |o: &Outcome| {
        if outcomes.len() > 1 {
            format!("{}/", o.workload)
        } else {
            String::new()
        }
    };
    let metrics: Vec<String> = outcomes
        .iter()
        .flat_map(|o| {
            let p = prefix(o);
            o.metrics.iter().map(move |m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&format!("{p}{}", m.name)),
                    if m.value.is_finite() { m.value } else { 0.0 },
                    json_str(m.unit)
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcomes.iter().all(Outcome::correct),
        outcomes.iter().map(|o| o.attempted).sum::<u64>(),
        outcomes.iter().map(|o| o.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut outcomes = Vec::new();
    for w in &args.workloads {
        let outcome = guarded(w, &args);
        for e in &outcome.errors {
            println!("CHECK FAILED {}: {e}", outcome.workload);
        }
        outcomes.push(outcome);
    }
    println!("{}", result_json(&outcomes));
    if !outcomes.iter().all(Outcome::correct) {
        std::process::exit(1);
    }
}
