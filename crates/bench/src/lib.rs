//! # strings-bench
//!
//! Benchmark harness for the Strings reproduction: one **regeneration
//! binary** per paper table/figure, printing the same rows/series the paper
//! plots, plus the `bench_suite` hot-path timer.
//!
//! Every regeneration binary is a ~10-line declaration over the shared
//! [`run_experiment`] entry point, which owns the common CLI ([`Cli`]):
//! `--quick`, `--seeds`, `--requests`, `--trace` and `--faults` parse in
//! one place and reach the experiment through
//! [`strings_harness::experiments::ExpScale`]. Experiments that inject
//! `--faults` start through [`run_fault_experiment`], which rejects a
//! fault target outside the experiment's cluster before anything runs.
//!
//! Regeneration binaries (run with `--release`; pass `--quick` for a
//! reduced run):
//!
//! ```text
//! cargo run --release -p strings-bench --bin table1_profiles
//! cargo run --release -p strings-bench --bin fig01_characterization
//! cargo run --release -p strings-bench --bin fig02_streams
//! cargo run --release -p strings-bench --bin fig09_workload_balancing
//! cargo run --release -p strings-bench --bin fig10_gpu_sharing
//! cargo run --release -p strings-bench --bin fig11_fairness
//! cargo run --release -p strings-bench --bin fig12_throughput
//! cargo run --release -p strings-bench --bin fig13_sched_only
//! cargo run --release -p strings-bench --bin fig14_feedback
//! cargo run --release -p strings-bench --bin fig15_strings_feedback
//! cargo run --release -p strings-bench --bin fault_isolation
//! cargo run --release -p strings-bench --bin serve_slo
//! cargo run --release -p strings-bench --bin attribution_profile
//! cargo run --release -p strings-bench --bin policy_matrix
//! ```
//!
//! The DES hot-path performance suite (`--bin bench_suite`) lives outside
//! this pattern: it times fixed scenarios (including an open-loop serve
//! run) and writes `BENCH_hotpath.json` for the CI regression gate.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use remoting::topology::TopologySpec;
use sim_core::fault::FaultPlan;
use strings_harness::experiments::ExpScale;

/// Options shared by every regeneration binary.
pub const USAGE: &str = "common options:
  --quick          reduced scale (fewer requests, one seed)
  --seeds N        average over N seeds
  --requests N     requests per stream
  --trace PATH     write a Perfetto-loadable Chrome trace-event JSON file
                   (.jsonl extension selects JSONL)
  --faults PLAN    inject faults, e.g. 'crash@10s:gid0;partition@2s+500ms:node1'
                   (kinds: crash ecc nodeloss degrade partition)
  --topology SPEC  cluster override for the serving experiments:
                   node-a|single, supernode|paper, or NxM[:MODEL][@NET]
                   (e.g. 64x4:c2050@calibrated); batch experiments keep
                   their canonical paper shape
  --threads N      pin seed-sweep parallelism to N worker threads
                   (default: one per core; results are identical either way)
  --help           print this text
";

/// The parsed common command line of a regeneration binary.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Experiment scale assembled from the flags.
    pub scale: ExpScale,
    /// `--threads N`: pinned sweep parallelism (None: one per core).
    pub threads: Option<usize>,
    /// `--help` was requested.
    pub help: bool,
}

impl Cli {
    /// Parse an argument list (excluding `argv[0]`). Unknown options are
    /// errors — every flag a binary honours lives in this one grammar.
    pub fn parse_from(args: &[String]) -> Result<Cli, String> {
        let mut scale = if args.iter().any(|a| a == "--quick") {
            ExpScale::quick()
        } else {
            ExpScale::full()
        };
        let mut help = false;
        let mut threads = None;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut take = || -> Result<&String, String> {
                it.next().ok_or_else(|| format!("{arg} wants a value"))
            };
            match arg.as_str() {
                "--quick" => {}
                "--help" | "-h" => help = true,
                "--seeds" => {
                    let n: u64 = take()?
                        .parse()
                        .map_err(|_| "bad --seeds (want a count)".to_string())?;
                    if n == 0 {
                        return Err("--seeds must be at least 1".into());
                    }
                    scale.seeds = (1..=n).map(|i| 100 * i + 1).collect();
                }
                "--requests" => {
                    scale.requests = take()?
                        .parse()
                        .map_err(|_| "bad --requests (want a count)".to_string())?;
                }
                "--trace" => scale.trace = Some(take()?.clone()),
                "--faults" => scale.faults = FaultPlan::parse(take()?)?,
                "--topology" => scale.topology = Some(TopologySpec::parse(take()?)?),
                "--threads" => {
                    let n: usize = take()?
                        .parse()
                        .map_err(|_| "bad --threads (want a count)".to_string())?;
                    if n == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                    threads = Some(n);
                }
                other => return Err(format!("unknown option '{other}'")),
            }
        }
        Ok(Cli {
            scale,
            threads,
            help,
        })
    }

    /// Check every `--faults` target against the cluster an experiment
    /// runs on; the error names the first target outside it.
    pub fn check_faults(&self, topology: &TopologySpec) -> Result<(), String> {
        self.scale
            .faults
            .check_targets(topology.num_nodes(), topology.num_devices())
    }

    /// Parse the process arguments; print usage and exit on `--help` or a
    /// parse error.
    pub fn parse() -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Cli::parse_from(&args) {
            Ok(cli) if cli.help => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            Ok(cli) => cli,
            Err(msg) => {
                eprintln!("error: {msg}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
}

/// The whole body of a regeneration binary: parse the common CLI, print
/// the banner, run `body` at the requested scale, print what it returns.
pub fn run_experiment(figure: &str, paper_note: &str, body: impl FnOnce(&ExpScale) -> String) {
    run_parsed(Cli::parse(), figure, paper_note, body);
}

fn run_parsed(cli: Cli, figure: &str, paper_note: &str, body: impl FnOnce(&ExpScale) -> String) {
    if let Some(n) = cli.threads {
        strings_harness::sweep::set_threads(n);
    }
    banner(figure, paper_note);
    print!("{}", body(&cli.scale));
}

/// [`run_experiment`] for an experiment that layers `--faults` onto runs
/// on the cluster `topology` returns for the scale. A fault target outside
/// that cluster is a usage error, reported as `error: ...` with exit code
/// 2 (as `strings-sim serve` does), not a panic in the middle of a run.
pub fn run_fault_experiment(
    figure: &str,
    paper_note: &str,
    topology: impl FnOnce(&ExpScale) -> TopologySpec,
    body: impl FnOnce(&ExpScale) -> String,
) {
    let cli = Cli::parse();
    if let Err(msg) = cli.check_faults(&topology(&cli.scale)) {
        eprintln!("error: {msg}");
        std::process::exit(2);
    }
    run_parsed(cli, figure, paper_note, body);
}

/// Derive a sibling path for a second trace file: `out.json` + `seq` →
/// `out.seq.json` (no extension: `out` → `out.seq`).
pub fn trace_path_with_tag(path: &str, tag: &str) -> String {
    match path.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() => format!("{stem}.{tag}.{ext}"),
        _ => format!("{path}.{tag}"),
    }
}

/// Print a standard experiment banner.
pub fn banner(figure: &str, paper_note: &str) {
    println!("== {figure} ==");
    println!("paper: {paper_note}");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn default_scale_is_full() {
        let cli = Cli::parse_from(&[]).unwrap();
        assert!(cli.scale.requests >= ExpScale::quick().requests);
        assert!(cli.scale.trace.is_none());
        assert!(cli.scale.faults.is_empty());
        assert!(!cli.help);
    }

    #[test]
    fn flags_reach_the_scale() {
        let cli = Cli::parse_from(&args(
            "--quick --seeds 2 --requests 5 --trace out.json --faults crash@10s:gid0",
        ))
        .unwrap();
        assert_eq!(cli.scale.requests, 5);
        assert_eq!(cli.scale.seeds.len(), 2);
        assert_eq!(cli.scale.trace.as_deref(), Some("out.json"));
        assert_eq!(cli.scale.faults.len(), 1);
    }

    #[test]
    fn topology_flag_reaches_the_scale() {
        let cli = Cli::parse_from(&args("--topology 16x4:c2050")).unwrap();
        let topo = cli.scale.topology.expect("topology parsed");
        assert_eq!(topo.num_nodes(), 16);
        assert_eq!(topo.num_devices(), 64);
        assert!(Cli::parse_from(&args("--topology 0x4")).is_err());
        assert!(Cli::parse_from(&[]).unwrap().scale.topology.is_none());
    }

    #[test]
    fn threads_flag_parses() {
        assert_eq!(
            Cli::parse_from(&args("--threads 4")).unwrap().threads,
            Some(4)
        );
        assert_eq!(Cli::parse_from(&args("--quick")).unwrap().threads, None);
    }

    #[test]
    fn bad_input_is_rejected() {
        assert!(Cli::parse_from(&args("--frobnicate")).is_err());
        assert!(Cli::parse_from(&args("--seeds 0")).is_err());
        assert!(Cli::parse_from(&args("--seeds")).is_err());
        assert!(Cli::parse_from(&args("--threads 0")).is_err());
        assert!(Cli::parse_from(&args("--threads x")).is_err());
        assert!(Cli::parse_from(&args("--faults meteor@1s:gid0")).is_err());
        assert!(Cli::parse_from(&args("--help")).unwrap().help);
    }

    #[test]
    fn trace_tags_insert_before_extension() {
        assert_eq!(trace_path_with_tag("out.json", "seq"), "out.seq.json");
        assert_eq!(trace_path_with_tag("out", "seq"), "out.seq");
        assert_eq!(trace_path_with_tag(".hidden", "seq"), ".hidden.seq");
    }
}
