//! Reproducible DES hot-path performance suite.
//!
//! Runs a fixed set of figure-scale scenarios and maintains
//! `BENCH_hotpath.json` as an **append-only trajectory**: each invocation
//! appends one labelled entry (`--label`), never rewriting history, so the
//! file accumulates a per-PR perf record. All simulation-derived fields
//! (events, stale counters, queue depth, makespan) are byte-stable across
//! runs and machines — only the wall-clock fields (`wall_ns_best`,
//! `events_per_sec`, `wall_ns_per_sim_s`) and the row's peak RSS
//! (`peak_rss_mb`: `VmHWM`, reset before the row where the kernel allows,
//! else cumulative and marked `peak_rss_cumulative`) vary, which is why the
//! regression gate tolerates 2x before failing. `--check` gates each
//! scenario's best wall time against the **best historical** wall time
//! across every entry in the baseline file (v1 single-report files still
//! parse). Wall time, not events/sec: a change that simulates fewer
//! events for the same outcome is a gain, not a regression. `--check`
//! also gates memory against run length: the 64×4 cluster serve runs at
//! two lengths, and the longer run's peak RSS may exceed the shorter's
//! by at most [`RSS_LENGTH_RATIO_MAX`].
//!
//! ```text
//! cargo run --release -p strings-bench --bin bench_suite                # full (5 reps)
//! cargo run --release -p strings-bench --bin bench_suite -- --smoke    # CI (2 reps)
//! cargo run --release -p strings-bench --bin bench_suite -- --check BENCH_hotpath.json
//! ```

use sim_core::SimDuration;
use std::time::Instant;
use strings_core::config::StackConfig;
use strings_core::device_sched::GpuPolicy;
use strings_core::mapper::LbPolicy;
use strings_harness::cli::parse_serve_args;
use strings_harness::experiments::common::{pair_streams, ExpScale};
use strings_harness::experiments::policy_matrix;
use strings_harness::scenario::{Scenario, StreamSpec};
use strings_harness::serve::ServeSpec;
use strings_harness::stats::{PhaseProfile, RunStats};
use strings_metrics::forensics::{dump_chrome, dump_jsonl};
use strings_workloads::arrivals::ArrivalProcess;
use strings_workloads::pairs::workload_pairs;
use strings_workloads::profile::AppKind;

const USAGE: &str = "bench_suite options:
  --smoke          fewer repetitions (CI mode; same scenarios, same scale)
  --reps N         repetitions per scenario (default 5, smoke 2)
  --out PATH       trajectory JSON to append this run's entry to (default
                   BENCH_hotpath.json; created when absent, v1 single-report
                   files are upgraded in place)
  --label S        label stamped on the appended trajectory entry
                   (default \"dev\")
  --check PATH     compare against a baseline JSON; exit 1 when any shared
                   scenario's best wall time is more than 2x the best
                   historical wall time, or when the 64x4 cluster serve's
                   peak RSS at 4x its duration exceeds its peak RSS at 1x
                   by more than the length gate allows
  --attr-gate F    exit 1 if the attributed fig12 run costs more than F
                   times the plain fig12 run's best wall time (CI: 1.15)
  --flight-gate F  exit 1 if the serve run with the always-on flight
                   recorder (default ring depth) costs more than F times
                   the same run with the recorder disabled (CI: 1.10)
  --threads N      pin sweep parallelism (bench scenarios are single runs,
                   so this only matters for future sweep-backed entries)
  --help           print this text
";

/// A named benchmark entry: any deterministic closure producing RunStats.
type Entry = (&'static str, Box<dyn Fn() -> RunStats>);

/// The fig12 headline pair (I = BO-BS) on the supernode under the
/// paper's best stack: GWtMin balancing + LAS device scheduling. Shared
/// by the scenario table, the attr-gate pair, and the phase profile.
fn fig12_scenario() -> Scenario {
    let scale = ExpScale::full();
    let pairs = workload_pairs();
    let (_, a, b) = pairs[8];
    Scenario::supernode(
        StackConfig::strings(LbPolicy::GWtMin).with_gpu_policy(GpuPolicy::Las),
        pair_streams(a, b, &scale),
        0,
    )
}

/// Open-loop serving spec shared by the scenario table and the
/// flight-recorder overhead gate.
fn serve_spec() -> ServeSpec {
    let mut serve = ServeSpec::supernode(
        StackConfig::strings(LbPolicy::GWtMin),
        ArrivalProcess::Poisson { rate_rps: 6.0 },
        SimDuration::from_secs(30),
        42,
    );
    serve.admission.queue_depth = 8;
    serve
}

/// The 64×4 capstone as `strings-sim serve` arguments: 2048 tenants under
/// Poisson 300 rps with 1 s metrics sampling, the cluster-scale row whose
/// per-event cost must not grow with the device count.
const CLUSTER_SERVE_ARGS: &str = "--topology 64x4:c2050@calibrated --tenants 2048 \
     --arrivals poisson:300rps --duration 5s --metrics-every 1s";

/// The cluster serve row at 4× its duration. Its peak RSS over the
/// `cluster_serve_64x4` row's is the length gate's ratio.
const CLUSTER_SERVE_LONG: &str = "cluster_serve_64x4_long";

/// Most the cluster serve's peak RSS may grow from 5 s to 20 s. The
/// executive's run state follows the requests in flight, so what grows is
/// the plan, the arrival cursor and the run's outputs (SLO records,
/// utilization histories, metrics snapshots): 12.1 → 16.4–16.5 MB
/// (1.36×) on a 2-vCPU VM. With an app slot and a device submit-time
/// entry kept per request it went 12.4–12.5 → 18.5 MB (1.48–1.49×).
const RSS_LENGTH_RATIO_MAX: f64 = 1.42;

/// The incident review at bench scale, as `strings-sim serve` arguments:
/// the 64×4 serve above under a link degrade and two partitions, with
/// attribution, 1 s metrics and a burn-rate alert that fires. The row
/// also renders what a review reads: the attribution report and every
/// flight dump.
const INCIDENT_ARGS: &str = "--topology 64x4:c2050@calibrated --tenants 2048 \
     --arrivals poisson:300rps --duration 5s --metrics-every 1s \
     --faults degrade@2s+1s:node5x4;partition@1s+1s:node3;partition@3s+1s:node7 \
     --attribution --burn-alert 2040ms --alert-windows 1s:3s";

/// Parse a bench row's `strings-sim serve` arguments.
fn serve_args(args: &str) -> ServeSpec {
    let args: Vec<String> = args.split_whitespace().map(String::from).collect();
    parse_serve_args(&args)
        .expect("the bench row's serve arguments parse")
        .spec
}

/// `strings-sim policy-matrix --quick`: every stack × mix × fault-plan
/// serve run of the ranked matrix and its SLO report. The row sums the
/// runs' counts and simulated time; its peak queue depth is the largest of
/// any run.
fn policy_matrix_quick() -> RunStats {
    let scale = ExpScale::quick();
    let mut total = RunStats::default();
    for (_, apps) in policy_matrix::mixes() {
        for (_, plan) in policy_matrix::fault_plans() {
            for entry in policy_matrix::stacks() {
                let spec = policy_matrix::spec(&entry, &apps, &plan, &scale);
                let stats = spec.run();
                std::hint::black_box(spec.slo(&stats));
                total.events += stats.events;
                total.completed_requests += stats.completed_requests;
                total.makespan_ns += stats.makespan_ns;
                total.cancelled_wakeups += stats.cancelled_wakeups;
                total.stale_pops += stats.stale_pops;
                total.peak_live_queue_depth =
                    total.peak_live_queue_depth.max(stats.peak_live_queue_depth);
            }
        }
    }
    total
}

/// The fixed scenario set. Names are part of the JSON contract — the CI
/// gate matches baseline entries by name; entries absent from the
/// committed baseline are measured and reported but not gated, so new
/// entries can land before their baseline is regenerated.
fn scenarios() -> Vec<Entry> {
    let fig12 = fig12_scenario();
    // A single-node mix of Monte Carlo and DXTC streams.
    let single = Scenario::single_node(
        StackConfig::strings(LbPolicy::GMin),
        vec![
            StreamSpec::of(AppKind::MC, 10, 1.5),
            StreamSpec::of(AppKind::DC, 5, 1.5),
        ],
        42,
    );
    // A three-tenant supernode mix exercising fairness accounting.
    let mix3 = Scenario::supernode(
        StackConfig::strings(LbPolicy::GWtMin),
        vec![
            StreamSpec::of(AppKind::MC, 12, 1.5),
            StreamSpec::of(AppKind::DC, 12, 1.5),
            StreamSpec::of(AppKind::HI, 6, 1.0),
        ],
        7,
    );
    // Open-loop serving: the supernode under Poisson load through the
    // admission front door (arrival planning + SLO record capture ride
    // the hot path here, unlike the closed-loop entries above).
    let serve = serve_spec();
    // The same fig12 pair with lightweight latency attribution on: the
    // wall-time delta between this row and the plain one is the whole
    // profiler overhead, which `--attr-gate` bounds in CI.
    let fig12_attr = fig12.clone().with_attribution();
    let cluster = serve_args(CLUSTER_SERVE_ARGS);
    let mut cluster_long = serve_args(CLUSTER_SERVE_ARGS);
    cluster_long.duration = SimDuration::from_ns(4 * cluster.duration.as_ns());
    let mut incident = serve_args(INCIDENT_ARGS);
    incident.dump_final = true;
    vec![
        ("fig12_pair_I_supernode", Box::new(move || fig12.run())),
        (
            "fig12_pair_I_attributed",
            Box::new(move || fig12_attr.run()),
        ),
        ("single_node_mix", Box::new(move || single.run())),
        ("supernode_mix3", Box::new(move || mix3.run())),
        ("serve_open_loop", Box::new(move || serve.run())),
        ("cluster_serve_64x4", Box::new(move || cluster.run())),
        (CLUSTER_SERVE_LONG, Box::new(move || cluster_long.run())),
        (
            "incident_fault_alert_dump",
            Box::new(move || {
                let stats = incident.run();
                let mut bytes = incident.attribution(&stats).render(10).len();
                for dump in &stats.flight_dumps {
                    bytes += dump_jsonl(dump).len() + dump_chrome(dump).len();
                }
                std::hint::black_box(bytes);
                stats
            }),
        ),
        ("policy_matrix_quick", Box::new(policy_matrix_quick)),
    ]
}

struct Row {
    name: &'static str,
    events: u64,
    completed: u64,
    makespan_ns: u64,
    cancelled: u64,
    stale_pops: u64,
    peak_live_queue_depth: u64,
    /// `VmHWM` after the row, MiB (`None` where `/proc` is unavailable).
    peak_rss_mb: Option<f64>,
    /// The high-water mark could not be reset before the row, so
    /// `peak_rss_mb` is the process's peak so far, earlier rows included.
    rss_cumulative: bool,
    wall_ns_best: u64,
    events_per_sec: u64,
    wall_ns_per_sim_s: u64,
}

/// Reset this process's peak RSS (`VmHWM`) to its current RSS. False
/// where the kernel refuses (no `/proc`, or a kernel without the reset).
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// This process's peak RSS (`VmHWM` in `/proc/self/status`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn measure(name: &'static str, run: &dyn Fn() -> RunStats, reps: usize) -> Row {
    let rss_reset = reset_peak_rss();
    let warm = run(); // warmup rep, also sources the stable fields
    let mut best = u64::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        let st = run();
        let wall = t0.elapsed().as_nanos() as u64;
        assert_eq!(st.events, warm.events, "non-deterministic event count");
        best = best.min(wall);
    }
    let sim_s = warm.makespan_ns as f64 / 1e9;
    Row {
        name,
        events: warm.events,
        completed: warm.completed_requests,
        makespan_ns: warm.makespan_ns,
        cancelled: warm.cancelled_wakeups,
        stale_pops: warm.stale_pops,
        peak_live_queue_depth: warm.peak_live_queue_depth,
        peak_rss_mb: peak_rss_mb(),
        rss_cumulative: !rss_reset,
        wall_ns_best: best,
        events_per_sec: (warm.events as f64 / (best as f64 / 1e9)) as u64,
        wall_ns_per_sim_s: (best as f64 / sim_s) as u64,
    }
}

fn stale_ratio(r: &Row) -> f64 {
    if r.events == 0 {
        0.0
    } else {
        r.stale_pops as f64 / r.events as f64
    }
}

/// Render one trajectory entry (hand-rolled JSON with a fixed key order so
/// reports diff cleanly). `phases` is the executive self-profile of one
/// fig12 run: wall-clock per event-loop phase, so the trajectory records
/// where simulator time goes PR over PR, not just how much. `gates` are
/// the paired overhead ratios measured in this run (`--attr-gate`,
/// `--flight-gate`), recorded whether or not they passed.
fn render_entry(
    label: &str,
    rows: &[Row],
    phases: Option<&PhaseProfile>,
    gates: &[(&str, f64)],
) -> String {
    let mut out = String::new();
    out.push_str("    {\n");
    out.push_str(&format!("      \"label\": \"{label}\",\n"));
    if !gates.is_empty() {
        let ratios: Vec<String> = gates
            .iter()
            .map(|(gate, ratio)| format!("\"{gate}\": {ratio:.3}"))
            .collect();
        out.push_str(&format!("      \"gates\": {{{}}},\n", ratios.join(", ")));
    }
    if let Some(p) = phases {
        out.push_str("      \"phases\": {");
        out.push_str(&format!("\"wall_ns\": {}", p.wall_ns));
        for (name, ns) in p.phases() {
            out.push_str(&format!(", \"{name}_ns\": {ns}"));
        }
        out.push_str("},\n");
    }
    out.push_str("      \"scenarios\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str("        {\n");
        out.push_str(&format!("          \"name\": \"{}\",\n", r.name));
        out.push_str(&format!("          \"events\": {},\n", r.events));
        out.push_str(&format!(
            "          \"completed_requests\": {},\n",
            r.completed
        ));
        out.push_str(&format!("          \"makespan_ns\": {},\n", r.makespan_ns));
        out.push_str(&format!(
            "          \"cancelled_wakeups\": {},\n",
            r.cancelled
        ));
        out.push_str(&format!("          \"stale_pops\": {},\n", r.stale_pops));
        out.push_str(&format!(
            "          \"stale_pop_ratio\": {:.6},\n",
            stale_ratio(r)
        ));
        out.push_str(&format!(
            "          \"peak_live_queue_depth\": {},\n",
            r.peak_live_queue_depth
        ));
        let rss = r.peak_rss_mb.map_or("null".into(), |mb| format!("{mb:.1}"));
        out.push_str(&format!("          \"peak_rss_mb\": {rss},\n"));
        out.push_str(&format!(
            "          \"peak_rss_cumulative\": {},\n",
            r.rss_cumulative
        ));
        out.push_str(&format!(
            "          \"wall_ns_best\": {},\n",
            r.wall_ns_best
        ));
        out.push_str(&format!(
            "          \"events_per_sec\": {},\n",
            r.events_per_sec
        ));
        out.push_str(&format!(
            "          \"wall_ns_per_sim_s\": {}\n",
            r.wall_ns_per_sim_s
        ));
        out.push_str(if i + 1 == rows.len() {
            "        }\n"
        } else {
            "        },\n"
        });
    }
    out.push_str("      ]\n    }\n");
    out
}

/// Append this run's entry to the trajectory at `existing` (v2), upgrade a
/// v1 single-report file into a one-entry trajectory first, or start a
/// fresh trajectory when there is no baseline. Append-only: prior entries
/// are carried over byte-for-byte.
fn render_trajectory(
    existing: Option<&str>,
    label: &str,
    rows: &[Row],
    phases: Option<&PhaseProfile>,
    gates: &[(&str, f64)],
) -> String {
    const HEADER: &str = "{\n  \"schema\": \"bench_hotpath/v2\",\n  \"trajectory\": [\n";
    const FOOTER: &str = "  ]\n}\n";
    let entry = render_entry(label, rows, phases, gates);
    match existing {
        Some(text) if text.contains("\"schema\": \"bench_hotpath/v2\"") => {
            let body = text
                .strip_suffix(FOOTER)
                .unwrap_or_else(|| panic!("malformed v2 trajectory (missing closing `{FOOTER}`)"));
            // Replace the previous entry's closing "    }\n" with "    },\n".
            let body = match body.strip_suffix("    }\n") {
                Some(b) => format!("{b}    }},\n"),
                None => body.to_string(), // empty trajectory
            };
            format!("{body}{entry}{FOOTER}")
        }
        Some(text) if text.contains("\"schema\": \"bench_hotpath/v1\"") => {
            // Upgrade: wrap the v1 scenario list as the first entry, then
            // append ours. v1 rows are at 4-space indent, v2 wants 8; the
            // line-based baseline parser is indentation-blind either way,
            // so reindent purely for readability.
            let mut first = String::from("    {\n      \"label\": \"v1-baseline\",\n");
            first.push_str("      \"scenarios\": [\n");
            let mut inside = false;
            for line in text.lines() {
                let t = line.trim_end();
                if t == "  \"scenarios\": [" {
                    inside = true;
                    continue;
                }
                if !inside {
                    continue;
                }
                if t == "  ]" {
                    break;
                }
                first.push_str("    ");
                first.push_str(t);
                first.push('\n');
            }
            first.push_str("      ]\n    },\n");
            format!("{HEADER}{first}{entry}{FOOTER}")
        }
        _ => format!("{HEADER}{entry}{FOOTER}"),
    }
}

/// Pull the **best historical** `wall_ns_best` per scenario out of a
/// baseline file. Line-based on purpose: the formats above are the only
/// producers and the vendored tree has no JSON parser; v1 single reports
/// and v2 trajectories both reduce to repeated name/wall_ns_best pairs,
/// folded here by min.
fn parse_baseline(text: &str) -> Vec<(String, u64)> {
    let mut best = std::collections::BTreeMap::<String, u64>::new();
    let mut name: Option<String> = None;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("\"name\": \"") {
            name = rest.strip_suffix("\",").map(str::to_string);
        } else if let Some(rest) = line.strip_prefix("\"wall_ns_best\": ") {
            let v: u64 = rest
                .trim_end_matches(',')
                .parse()
                .unwrap_or_else(|_| panic!("bad wall_ns_best line: {line}"));
            if let Some(n) = name.take() {
                let slot = best.entry(n).or_insert(u64::MAX);
                *slot = (*slot).min(v);
            }
        }
    }
    best.into_iter().collect()
}

fn check(rows: &[Row], baseline_text: &str) -> bool {
    let baseline = parse_baseline(baseline_text);
    let mut ok = check_rss_lengths(rows);
    for (name, base_ns) in &baseline {
        let Some(row) = rows.iter().find(|r| r.name == name.as_str()) else {
            println!("check: {name}: not in this run (skipped)");
            continue;
        };
        let factor = *base_ns as f64 / row.wall_ns_best.max(1) as f64;
        let verdict = if factor < 0.5 {
            "FAIL (>2x regression)"
        } else {
            "ok"
        };
        println!(
            "check: {name}: best {:.1} ms vs best historical {:.1} ms ({factor:.2}x, {} ev/s) {verdict}",
            row.wall_ns_best as f64 / 1e6,
            *base_ns as f64 / 1e6,
            row.events_per_sec,
        );
        if factor < 0.5 {
            ok = false;
        }
    }
    ok
}

/// The length gate: the cluster serve's peak RSS at 4× its duration over
/// its peak RSS at 1×, at most [`RSS_LENGTH_RATIO_MAX`]. Skipped, with a
/// note, where a row's peak could not be reset and so includes earlier
/// rows.
fn check_rss_lengths(rows: &[Row]) -> bool {
    let row = |name: &str| rows.iter().find(|r| r.name == name);
    let (Some(short), Some(long)) = (row("cluster_serve_64x4"), row(CLUSTER_SERVE_LONG)) else {
        println!("check: rss length gate: a cluster serve row is missing (skipped)");
        return true;
    };
    let (Some(short_mb), Some(long_mb)) = (short.peak_rss_mb, long.peak_rss_mb) else {
        println!("check: rss length gate: no peak RSS on this platform (skipped)");
        return true;
    };
    if short.rss_cumulative || long.rss_cumulative {
        println!(
            "check: rss length gate: peak RSS could not be reset between rows, so it \
             includes earlier rows (skipped)"
        );
        return true;
    }
    let ratio = long_mb / short_mb;
    let ok = ratio <= RSS_LENGTH_RATIO_MAX;
    println!(
        "check: rss length gate: {long_mb:.1} MB at 4x vs {short_mb:.1} MB at 1x \
         ({ratio:.2}x, limit {RSS_LENGTH_RATIO_MAX:.2}x) {}",
        if ok { "ok" } else { "FAIL" }
    );
    ok
}

/// Bound an instrumented run's wall-time overhead with a paired,
/// interleaved measurement: alternating plain/instrumented runs see the
/// same machine-noise environment, so the best-of ratio stays stable even
/// when background load shifts mid-suite (which regularly poisoned the
/// older comparison of two rows measured minutes apart). Used for both
/// the attribution profiler (`--attr-gate`) and the always-on flight
/// recorder (`--flight-gate`).
/// Returns the measured ratio and whether it is within `factor`.
fn check_paired_overhead(
    gate: &str,
    plain: &dyn Fn() -> RunStats,
    instrumented: &dyn Fn() -> RunStats,
    reps: usize,
    factor: f64,
) -> (f64, bool) {
    let mut best_plain = u64::MAX;
    let mut best_inst = u64::MAX;
    for _ in 0..reps.max(3) {
        let t0 = Instant::now();
        let _ = plain();
        best_plain = best_plain.min(t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        let _ = instrumented();
        best_inst = best_inst.min(t0.elapsed().as_nanos() as u64);
    }
    let got = best_inst as f64 / best_plain.max(1) as f64;
    let ok = got <= factor;
    println!(
        "{gate}: instrumented {:.1} ms vs plain {:.1} ms ({got:.3}x, limit {factor:.2}x) {}",
        best_inst as f64 / 1e6,
        best_plain as f64 / 1e6,
        if ok { "ok" } else { "FAIL" }
    );
    (got, ok)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut reps: Option<usize> = None;
    let mut smoke = false;
    let mut out_path = "BENCH_hotpath.json".to_string();
    let mut label = "dev".to_string();
    let mut check_path: Option<String> = None;
    let mut attr_gate: Option<f64> = None;
    let mut flight_gate: Option<f64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = || -> String {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("error: {arg} wants a value\n\n{USAGE}");
                    std::process::exit(2);
                })
                .clone()
        };
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--reps" => reps = Some(take().parse().expect("bad --reps")),
            "--out" => out_path = take(),
            "--label" => label = take(),
            "--check" => check_path = Some(take()),
            "--attr-gate" => attr_gate = Some(take().parse().expect("bad --attr-gate")),
            "--flight-gate" => flight_gate = Some(take().parse().expect("bad --flight-gate")),
            "--threads" => {
                strings_harness::sweep::set_threads(take().parse().expect("bad --threads"))
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            other => {
                eprintln!("error: unknown option '{other}'\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let reps = reps.unwrap_or(if smoke { 2 } else { 5 });

    let scens = scenarios();
    let mut rows = Vec::new();
    for (name, run) in &scens {
        let row = measure(name, run.as_ref(), reps);
        let name = *name;
        println!(
            "{name}: {} ev/s ({} events, stale ratio {:.4}, peak queue {}, peak rss {}{}, best {:.1} ms)",
            row.events_per_sec,
            row.events,
            stale_ratio(&row),
            row.peak_live_queue_depth,
            row.peak_rss_mb
                .map_or("-".into(), |mb| format!("{mb:.1} MB")),
            if row.rss_cumulative { " (cumulative)" } else { "" },
            row.wall_ns_best as f64 / 1e6,
        );
        rows.push(row);
    }

    // Read the baseline *before* writing: --out and --check may name the
    // same trajectory file (the CI shape), and the gate must judge against
    // history as committed, not including the entry we are appending.
    let baseline_text = check_path.as_ref().map(|path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(1);
        })
    });

    // Executive self-profile of one fig12 run: where the wall time goes
    // (queue pops, host steps, engine advance, ...), recorded into the
    // trajectory entry alongside the throughput rows.
    let profile = fig12_scenario()
        .with_self_profile()
        .run()
        .self_profile
        .expect("self-profiled run records a phase profile");
    println!(
        "phases: wall {:.1} ms = {}",
        profile.wall_ns as f64 / 1e6,
        profile
            .phases()
            .map(|(n, ns)| format!("{n} {:.1}", ns as f64 / 1e6))
            .join(" + ")
    );

    let mut ok = true;
    let mut gates: Vec<(&str, f64)> = Vec::new();
    if let Some(factor) = attr_gate {
        let find = |n: &str| {
            scens
                .iter()
                .find(|(name, _)| *name == n)
                .unwrap_or_else(|| panic!("{n} scenario missing"))
                .1
                .as_ref()
        };
        let (ratio, pass) = check_paired_overhead(
            "attr-gate",
            find("fig12_pair_I_supernode"),
            find("fig12_pair_I_attributed"),
            reps,
            factor,
        );
        gates.push(("attr_gate", ratio));
        ok &= pass;
    }
    if let Some(factor) = flight_gate {
        // Recorder-off baseline (ring depth 0) vs the always-on default
        // depth: the ISSUE-level promise is that flight recording is
        // cheap enough to never turn off.
        let mut off = serve_spec();
        off.flight_depth = Some(0);
        let on = serve_spec();
        let (ratio, pass) = check_paired_overhead(
            "flight-gate",
            &move || off.run(),
            &move || on.run(),
            reps,
            factor,
        );
        gates.push(("flight_gate", ratio));
        ok &= pass;
    }

    let existing = std::fs::read_to_string(&out_path).ok();
    let report = render_trajectory(existing.as_deref(), &label, &rows, Some(&profile), &gates);
    std::fs::write(&out_path, &report).expect("write report");
    println!("wrote {out_path} (entry \"{label}\")");
    if let Some(text) = baseline_text {
        ok &= check(&rows, &text);
    }
    if !ok {
        std::process::exit(1);
    }
}
