//! `strings-sim` — run the Strings scheduler on a workload you describe,
//! or regenerate one of the paper's experiments.
//!
//! ```text
//! cargo run --release --bin strings-sim -- \
//!     --mode strings --lb gwtmin --gpu-policy ps \
//!     --app MC:20:1.5 --app DC:10:1.0:1 --nodes 2 --seeds 3
//! cargo run --release --bin strings-sim -- fig12-throughput --quick
//! ```

use std::io::Write as _;
use strings_repro::harness::cli::{
    exit_on_write_error, experiment, parse_args, parse_experiment_args, parse_explain_args,
    parse_serve_args, Experiment, EXPERIMENTS, EXPLAIN_USAGE, SERVE_USAGE, USAGE,
};
use strings_repro::harness::{explain, sweep};
use strings_repro::metrics::export;
use strings_repro::metrics::forensics;
use strings_repro::metrics::report::{fmt_pct, Table};

/// `strings-sim EXPERIMENT`: print the row's banner and run it at the
/// scale its flags ask for.
fn experiment_main(exp: &Experiment, args: &[String]) {
    let run = match parse_experiment_args(exp, args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if run.help {
        print!("{}", exp.usage());
        return;
    }
    if let Some(n) = run.threads {
        sweep::set_threads(n);
    }
    println!("== {} ==", exp.title);
    println!("paper: {}", exp.paper);
    println!();
    print!("{}", (exp.run)(&run.scale));
}

/// The `serve` subcommand: open-loop serving with an SLO report per seed.
fn serve_main(args: &[String]) {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{SERVE_USAGE}");
        return;
    }
    let run = match parse_serve_args(args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Some(n) = run.threads {
        sweep::set_threads(n);
    }
    println!(
        "serve: {} for {} over {} tenant(s)   stack: {}   topology: {} ({} GPUs, placement {})\n",
        run.spec.arrivals.label(),
        run.spec.duration,
        run.spec.tenants,
        run.spec.stack.label(),
        run.spec.topology.label(),
        run.spec.topology.num_devices(),
        run.spec.placement.label(),
    );
    let runs = sweep::run_serve_seeds(&run.spec, &run.seeds);
    for (seed, stats) in run.seeds.iter().zip(&runs) {
        let report = run.spec.slo(stats);
        println!("seed {seed}:");
        print!("{}", report.render());
        if let Some(alerts) = &stats.alerts {
            print!("{}", alerts.render());
        }
        println!();
    }
    if run.attribution {
        let report = run.spec.attribution(&runs[0]);
        println!("latency attribution (seed {}):", run.seeds[0]);
        print!("{}", report.render(5));
        println!();
    }
    if let Some(path) = &run.metrics_out {
        let registry = runs[0]
            .metrics
            .as_ref()
            .expect("metrics run records a registry");
        let written = if path.ends_with(".jsonl") {
            // Streamed: the time series can be the largest output of a run.
            std::fs::File::create(path).and_then(|file| {
                let mut out = std::io::BufWriter::new(file);
                registry.write_jsonl(&mut out)?;
                out.flush()
            })
        } else {
            std::fs::write(path, registry.render_openmetrics())
        };
        exit_on_write_error(path, written);
        println!(
            "metrics written to {path} ({} series, {} snapshots)",
            registry.series_count(),
            registry.snapshot_count()
        );
    }
    if let Some(path) = &run.trace {
        let trace = runs[0].trace.as_ref().expect("traced run records a trace");
        let body = if path.ends_with(".jsonl") {
            strings_repro::metrics::trace_export::jsonl(trace)
        } else {
            strings_repro::metrics::trace_export::chrome_json(trace)
        };
        exit_on_write_error(path, std::fs::write(path, body));
        println!("trace written to {path} ({} events)", trace.events.len());
    }
    if let Some(path) = &run.dump {
        // First trigger wins; the final snapshot is the fallback when no
        // trigger fired during the run (dump_final is set with --dump).
        match runs[0].flight_dumps.first() {
            Some(dump) => {
                let body = if path.ends_with(".jsonl") {
                    forensics::dump_jsonl(dump)
                } else {
                    forensics::dump_chrome(dump)
                };
                exit_on_write_error(path, std::fs::write(path, body));
                println!(
                    "flight dump written to {path} (reason {}, t {} ns, {} nodes)",
                    dump.reason.label(),
                    dump.at,
                    dump.nodes.len()
                );
            }
            None => println!("no flight dump: recorder disabled (--flight-depth 0)"),
        }
    }
}

/// The `explain` subcommand: rerun a serve spec with attribution forced
/// on and render request REQ's blame chain plus its stage charges.
fn explain_main(args: &[String]) {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{EXPLAIN_USAGE}");
        return;
    }
    let (req, run) = match parse_explain_args(args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let seed = run.seeds[0];
    let stats = run.spec.run_with_seed(seed);
    let attr = run.spec.attribution(&stats);
    print!("{}", explain::render(&stats, Some(&attr), req));
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "serve") {
        serve_main(&args[1..]);
        return;
    }
    if args.first().is_some_and(|a| a == "explain") {
        explain_main(&args[1..]);
        return;
    }
    if let Some(exp) = args.first().and_then(|a| experiment(a)) {
        experiment_main(exp, &args[1..]);
        return;
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        println!("experiments:");
        for exp in EXPERIMENTS {
            println!("  {:<30}  {}", exp.name, exp.title);
        }
        return;
    }
    // --export DIR writes CSV series (timelines + completions) for plotting.
    let export_dir = args.iter().position(|a| a == "--export").map(|i| {
        let dir = args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("error: --export wants a directory");
            std::process::exit(2);
        });
        args.drain(i..=i + 1);
        dir
    });
    let run = match parse_args(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "stack: {}   topology: {}   seeds: {:?}\n",
        run.scenario.stack.label(),
        run.scenario.topology.label(),
        run.seeds
    );
    // Representative run (first seed) for the detailed breakdown.
    let stats = run.scenario.run();
    let mut t = Table::new(vec!["stream", "app", "requests", "mean completion (s)"]);
    for (slot, spec) in run.scenario.streams.iter().enumerate() {
        t.row(vec![
            slot.to_string(),
            spec.app.to_string(),
            stats.completions.counts()[slot].to_string(),
            format!("{:.3}", stats.completions.mean_ct(slot) / 1e9),
        ]);
    }
    print!("{}", t.render());
    println!();
    let mut d = Table::new(vec![
        "device",
        "compute util",
        "bandwidth util",
        "kernels",
        "copies",
    ]);
    for (gid, tele) in stats.device_telemetry.iter().enumerate() {
        d.row(vec![
            format!("GID{gid}"),
            fmt_pct(tele.compute.mean_over(0, stats.makespan_ns.max(1))),
            fmt_pct(tele.bandwidth().mean_over(0, stats.makespan_ns.max(1))),
            tele.kernels_completed.to_string(),
            tele.copies_completed.to_string(),
        ]);
    }
    print!("{}", d.render());
    println!();
    println!(
        "makespan {:.2}s, context switches {}, OOM events {}, events {}",
        stats.makespan_ns as f64 / 1e9,
        stats.context_switches,
        stats.oom_events,
        stats.events
    );
    if run.seeds.len() > 1 {
        let mean = sweep::mean_over_seeds(&run.scenario, &run.seeds, |s| s.mean_completion_ns());
        println!(
            "mean completion over {} seeds: {:.3}s",
            run.seeds.len(),
            mean / 1e9
        );
    }
    if let Some(path) = &run.trace {
        let trace = stats.trace.as_ref().expect("traced run records a trace");
        let body = if path.ends_with(".jsonl") {
            strings_repro::metrics::trace_export::jsonl(trace)
        } else {
            strings_repro::metrics::trace_export::chrome_json(trace)
        };
        exit_on_write_error(path, std::fs::write(path, body));
        println!("trace written to {path} ({} events)", trace.events.len());
    }
    if let Some(dir) = export_dir {
        exit_on_write_error(&dir, std::fs::create_dir_all(&dir));
        for (gid, tele) in stats.device_telemetry.iter().enumerate() {
            let path = format!("{dir}/device{gid}_compute.csv");
            let csv = export::timeline_csv("compute", &tele.compute);
            exit_on_write_error(&path, std::fs::write(&path, csv));
        }
        let labels: Vec<String> = run
            .scenario
            .streams
            .iter()
            .map(|s| s.app.to_string())
            .collect();
        let means: Vec<f64> = (0..labels.len())
            .map(|s| stats.completions.mean_ct(s))
            .collect();
        let path = format!("{dir}/completions.csv");
        let csv = export::completions_csv(&labels, &means, &stats.completions.counts());
        exit_on_write_error(&path, std::fs::write(&path, csv));
        println!("CSV series exported to {dir}/");
    }
}
