//! One benchmark run of one workload: the untimed reference, the timed
//! reps, the optional traced pass, and the metrics they yield.

use crate::calibrate::Calibration;
use crate::measure::{self, quartiles, CpuTimes, Spans};
use crate::workload::{Fingerprint, RepTimes, SimRun, Workload};
use std::cell::Cell;
use std::time::Instant;
use strings_harness::RunStats;

/// Timed reps per run, at least; more while `--seconds` lasts.
const MIN_REPS: usize = 3;
/// After each simulation run of a timed rep its set-up is repeated until
/// the repeats took this share of the run's host time, so set-up samples
/// come from the whole run, as host-time samples do.
const SETUP_SHARE: f64 = 0.05;
/// Set-ups of each simulation run, at least; set-up-only passes at the
/// end make up any shortfall.
const MIN_SETUPS: usize = 9;
/// Where the traced pass writes its spans, relative to the working
/// directory.
const SPAN_DIR: &str = ".perfbench";
const MIB: f64 = 1024.0 * 1024.0;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one workload run reports.
pub struct Outcome {
    pub workload: &'static str,
    /// Simulation set-ups and runs started (the benchmark's operations).
    pub attempted: u64,
    /// Operations that failed a check or panicked.
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// A run that panicked: every operation it started counts as failed.
    pub fn panicked(workload: &'static str, attempted: u64, message: String) -> Outcome {
        Outcome {
            workload,
            attempted,
            failed: attempted,
            errors: vec![format!("panicked: {message}")],
            metrics: Vec::new(),
        }
    }

    /// Record one operation's check failures.
    fn judge(&mut self, op: u64, errs: Vec<String>) {
        if !errs.is_empty() {
            self.failed += 1;
            self.errors
                .extend(errs.into_iter().map(|e| format!("operation {op}: {e}")));
        }
    }
}

/// The simulated outcome of one rep over its simulation runs: exact in
/// the seed, identical in every rep. Latencies are means over the runs
/// (each run's mean weighted by its completions; each run's p99 alike),
/// as the paper's figures average seeds.
struct SimOutcome {
    sim_s: f64,
    planned: u64,
    completed: u64,
    mean_ms: f64,
    p99_ms: f64,
}

impl SimOutcome {
    fn of(parts: &[SimRun]) -> SimOutcome {
        let completed: u64 = parts.iter().map(|p| p.slo.completed).sum();
        let weighted_mean: f64 = parts
            .iter()
            .map(|p| p.slo.mean.as_millis_f64() * p.slo.completed as f64)
            .sum();
        let p99_sum: f64 = parts.iter().map(|p| p.slo.p99.as_millis_f64()).sum();
        SimOutcome {
            sim_s: parts.iter().map(|p| p.stats.makespan_ns).sum::<u64>() as f64 / 1e9,
            planned: parts.iter().map(|p| p.planned).sum(),
            completed,
            mean_ms: weighted_mean / completed as f64,
            p99_ms: p99_sum / parts.len() as f64,
        }
    }
}

/// Samples of one host time, kept per simulation run of a rep. The
/// estimate is the sum over the runs of each run's best (lowest) sample:
/// on a shared machine a neighbour slows stretches of seconds to minutes
/// by up to 2×, and a single simulation run (0.4–2 s) is likelier than
/// a whole rep to fall in a fast stretch once in a run (README.md,
/// "Noise"). Stretches longer than a run are the calibration's part.
struct PerRun(Vec<Vec<f64>>);

impl PerRun {
    fn new(runs: usize) -> PerRun {
        PerRun(vec![Vec::new(); runs])
    }

    fn push(&mut self, run: usize, seconds: f64) {
        self.0[run].push(seconds);
    }

    /// Samples of the run with the fewest.
    fn count(&self) -> usize {
        self.0.iter().map(Vec::len).min().unwrap_or(0)
    }

    fn best_sum(&self) -> f64 {
        self.0
            .iter()
            .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
            .sum()
    }
}

/// Print one metric line and return the metric. With several `samples`
/// (whole passes: timed reps, or set-ups of every simulation run) their
/// median and quartiles are printed beside `value`, so the spread stays
/// visible.
fn report(name: &'static str, value: f64, samples: &[f64], unit: &'static str) -> Metric {
    if samples.len() > 1 {
        let (q1, median, q3) = quartiles(samples);
        println!(
            "  {name:<36} {value:>14.6} {unit:<9} whole passes (n={}): q1 {q1:.6}  median {median:.6}  q3 {q3:.6}",
            samples.len()
        );
    } else {
        println!("  {name:<36} {value:>14.6} {unit}");
    }
    metric(name, value, unit)
}

/// A metric with one exact value.
fn exact(name: &'static str, value: f64, unit: &'static str) -> Metric {
    report(name, value, &[], unit)
}

/// Run workload `w` on `seed`: reference runs, timed reps for at least
/// `seconds`, and with `traced` the traced pass. `ops` counts the
/// operations started, so a panic can report them.
pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool, ops: &Cell<u64>) -> Outcome {
    let cpu_start = CpuTimes::read();
    let mut spans = Spans::new();
    let next_op = || {
        ops.set(ops.get() + 1);
        ops.get()
    };
    let mut out = Outcome {
        workload: w.name,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        metrics: Vec::new(),
    };
    let seeds = w.seeds(seed);

    // Warm-up, and the references the outside set-up must reproduce.
    let references: Vec<RunStats> = seeds
        .iter()
        .map(|&s| {
            next_op();
            w.reference(s)
        })
        .collect();
    let ref_fps: Vec<Fingerprint> = references.iter().map(|r| w.fingerprint(r)).collect();

    // One rep runs every simulation seed once; `profile` marks the
    // traced pass.
    let mut cal = Calibration::new();
    let mut setup = PerRun::new(seeds.len());
    let mut rep = |profile: bool, out: &mut Outcome| {
        let mut times = RepTimes::default();
        let mut parts = Vec::new();
        for (k, (&s, ref_fp)) in seeds.iter().zip(&ref_fps).enumerate() {
            if !profile {
                cal.sample();
            }
            let op = next_op();
            let part = w.simulate(s, profile, &mut spans, op);
            if !profile {
                setup.push(k, part.times.setup_s());
                let mut spent = 0.0;
                while spent < SETUP_SHARE * part.times.host_s() {
                    let (_world, _, t) = w.setup(s, false, &mut spans, next_op(), None);
                    setup.push(k, t.setup_s());
                    spent += t.setup_s();
                }
            }
            let mut errs = w.check(&part);
            let fp = part.fingerprint();
            if !fp.matches(ref_fp) {
                errs.push(format!("{fp:?} differs from the spec's own run {ref_fp:?}"));
            }
            out.judge(op, errs);
            times.add(&part.times);
            parts.push(part);
        }
        (times, parts)
    };

    let mut times: Vec<RepTimes> = Vec::new();
    let mut host = PerRun::new(seeds.len());
    let mut first: Option<(Vec<Fingerprint>, SimOutcome)> = None;
    let clock = Instant::now();
    while times.len() < MIN_REPS || clock.elapsed().as_secs_f64() < seconds {
        let (t, parts) = rep(false, &mut out);
        for (k, part) in parts.iter().enumerate() {
            host.push(k, part.times.host_s());
        }
        let fps: Vec<Fingerprint> = parts.iter().map(SimRun::fingerprint).collect();
        match &first {
            None => first = Some((fps, SimOutcome::of(&parts))),
            Some((fps0, _)) if *fps0 != fps => out.errors.push(format!(
                "rep {} ran {fps:?}, the first rep {fps0:?}",
                times.len()
            )),
            Some(_) => {}
        }
        times.push(t);
    }
    let timed_s = clock.elapsed().as_secs_f64();
    let traced_rep = traced.then(|| {
        measure::start_counting();
        let (t, parts) = rep(true, &mut out);
        measure::stop_counting();
        (t, parts)
    });
    let (fps, sim) = first.expect("at least one rep ran");
    if let Some((_, parts)) = &traced_rep {
        let traced_fps: Vec<Fingerprint> = parts.iter().map(SimRun::fingerprint).collect();
        if traced_fps != fps {
            out.errors
                .push(format!("traced pass ran {traced_fps:?}, untraced {fps:?}"));
        }
    }

    let mut setups: Vec<f64> = times.iter().map(RepTimes::setup_s).collect();
    while setup.count() < MIN_SETUPS {
        let mut t = RepTimes::default();
        for (k, &s) in seeds.iter().enumerate() {
            let (_world, _, part) = w.setup(s, false, &mut spans, next_op(), None);
            setup.push(k, part.setup_s());
            t.add(&part);
        }
        setups.push(t.setup_s());
    }
    let steal = match (cpu_start, CpuTimes::read()) {
        (Some(a), Some(b)) => a.steal_share(b),
        _ => 0.0,
    };

    let (events, failed, shed) = fps.iter().fold((0, 0, 0), |(e, f, s), fp| {
        (e + fp.events, f + fp.failed, s + fp.shed)
    });
    println!(
        "{} seed {seed}: {} simulation run(s) per rep, {} timed reps in {timed_s:.1} s, at least {} set-ups of each, steal {:.1}% of busy CPU",
        w.name,
        seeds.len(),
        times.len(),
        setup.count(),
        steal * 100.0
    );
    println!(
        "  calibration: best {:.3} ms of {} samples; host times below are scaled by {:.4} to the reference machine",
        cal.best_s() * 1e3,
        cal.samples(),
        cal.scale()
    );
    println!(
        "  simulated: {events} events, {} of {} completed, {:.3} s, {failed} failed, {shed} shed; each run's p99 over ~{} latencies (~{} beyond it)",
        sim.completed,
        sim.planned,
        sim.sim_s,
        sim.completed / seeds.len() as u64,
        sim.completed / seeds.len() as u64 / 100
    );
    let ms_per_sim_s = 1e3 / sim.sim_s;
    let wall: Vec<f64> = times.iter().map(|t| t.host_s() * ms_per_sim_s).collect();
    let raw_wall = host.best_sum() * ms_per_sim_s;
    println!(
        "  unscaled: host {raw_wall:.6} ms/sim-s, set-up {:.6} s; whole passes below are unscaled",
        setup.best_sum()
    );
    let rss = measure::peak_rss_mb();
    if rss.is_none() {
        out.errors.push("no VmHWM in /proc/self/status".into());
    }
    let completed = sim.completed as f64;
    let end_to_end = vec![
        report(
            "host_ms_per_sim_s",
            raw_wall * cal.scale(),
            &wall,
            "ms/sim-s",
        ),
        report("setup_s", setup.best_sum() * cal.scale(), &setups, "s"),
        exact("peak_rss_mb", rss.unwrap_or(0.0), "MB"),
        exact("sim_goodput_rps", completed / sim.sim_s, "1/s"),
        exact("sim_latency_mean_ms", sim.mean_ms, "ms"),
        exact("sim_latency_p99_ms", sim.p99_ms, "ms"),
        exact(
            "sim_completed_share",
            completed / sim.planned as f64,
            "ratio",
        ),
    ];

    out.metrics = match &traced_rep {
        None => end_to_end,
        Some((traced_times, parts)) => {
            let bench = [
                metric("bench.wall_ms_per_sim_s", raw_wall, "ms/sim-s"),
                metric("bench.calibration_ms", cal.best_s() * 1e3, "ms"),
                metric("bench.steal_share", steal, "ratio"),
            ];
            let mut layers = layer_metrics(&references, parts, traced_times, &times);
            layers.extend(bench);
            println!(
                "  per layer (traced pass; shares are of the self-profiled World::run wall time):"
            );
            for m in &layers {
                println!("  {:<36} {:>14.6} {}", m.name, m.value, m.unit);
            }
            let path = format!("{SPAN_DIR}/spans-{}-seed{seed}.jsonl", w.name);
            match std::fs::create_dir_all(SPAN_DIR)
                .and_then(|()| std::fs::write(&path, spans.jsonl()))
            {
                Ok(()) => println!("  spans: {path}"),
                Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
            }
            layers
        }
    };
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.errors.push(format!("{} is not finite", m.name));
        }
    }
    out.attempted = ops.get();
    out
}

/// Per-crate layer numbers. Counts come from the untimed reference runs
/// and are exact; shares come from the traced pass's self-profile; call
/// times are medians over the untraced reps.
fn layer_metrics(
    refs: &[RunStats],
    traced: &[SimRun],
    traced_times: &RepTimes,
    untraced: &[RepTimes],
) -> Vec<Metric> {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let sum = |f: &dyn Fn(&RunStats) -> u64| refs.iter().map(f).sum::<u64>();
    let sim_ns = sum(&|s| s.makespan_ns);
    let per_sim_s = |n: u64| ratio(n as f64 * 1e9, sim_ns as f64);
    let median = |f: fn(&RepTimes) -> f64| quartiles(&untraced.iter().map(f).collect::<Vec<_>>()).1;
    let mut prof = strings_harness::stats::PhaseProfile::default();
    for part in traced {
        let p = part
            .stats
            .self_profile
            .expect("the traced pass turns the self-profile on");
        prof.wall_ns += p.wall_ns;
        prof.queue_ns += p.queue_ns;
        prof.arrival_ns += p.arrival_ns;
        prof.host_ns += p.host_ns;
        prof.engine_ns += p.engine_ns;
        prof.epoch_ns += p.epoch_ns;
        prof.rpc_ns += p.rpc_ns;
        prof.fault_ns += p.fault_ns;
        prof.metrics_ns += p.metrics_ns;
    }
    let share = |ns: u64| ratio(ns as f64, prof.wall_ns as f64);
    let profiled: u64 = prof.phases().iter().map(|(_, ns)| ns).sum();
    let events = sum(&|s| s.events);
    let completed = sum(&|s| s.completions.total_requests());
    let devices = |f: fn(&gpu_sim::telemetry::DeviceTelemetry, u64) -> u64| {
        sum(&|s| s.device_telemetry.iter().map(|d| f(d, s.makespan_ns)).sum())
    };
    let device_ns = sum(&|s| s.device_telemetry.len() as u64 * s.makespan_ns);
    let snapshots = sum(&|s| s.metrics.as_ref().map_or(0, |m| m.snapshot_count() as u64));
    vec![
        metric("sim_core.events_per_sim_s", per_sim_s(events), "1/sim-s"),
        metric(
            "sim_core.cancelled_share",
            ratio(sum(&|s| s.cancelled_wakeups) as f64, events as f64),
            "ratio",
        ),
        metric(
            "sim_core.stale_pops",
            sum(&|s| s.stale_pops) as f64,
            "count",
        ),
        metric(
            "sim_core.peak_live_queue_depth",
            refs.iter()
                .map(|s| s.peak_live_queue_depth)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        metric("sim_core.queue_share", share(prof.queue_ns), "ratio"),
        metric("device_sched.epoch_share", share(prof.epoch_ns), "ratio"),
        metric("core.arrival_share", share(prof.arrival_ns), "ratio"),
        metric(
            "core.admitted",
            sum(&|s| {
                s.admission
                    .map_or(s.completions.total_requests(), |a| a.admitted)
            }) as f64,
            "count",
        ),
        metric("core.shed", sum(&|s| s.shed_requests) as f64, "count"),
        metric(
            "core.binds_per_request",
            ratio(
                sum(&|s| s.placements.values().sum()) as f64,
                completed as f64,
            ),
            "ratio",
        ),
        metric("gpu_sim.engine_share", share(prof.engine_ns), "ratio"),
        metric(
            "gpu_sim.kernels_completed",
            devices(|d, _| d.kernels_completed) as f64,
            "count",
        ),
        metric(
            "gpu_sim.copies_completed",
            devices(|d, _| d.copies_completed) as f64,
            "count",
        ),
        metric(
            "gpu_sim.context_switches",
            sum(&|s| s.context_switches) as f64,
            "count",
        ),
        metric(
            "gpu_sim.compute_busy_share",
            ratio(
                devices(|d, end| d.compute.busy_ns(0, end)) as f64,
                device_ns as f64,
            ),
            "ratio",
        ),
        metric("cuda_sim.host_share", share(prof.host_ns), "ratio"),
        metric("remoting.rpc_share", share(prof.rpc_ns), "ratio"),
        metric(
            "remoting.rpc_timeouts",
            sum(&|s| s.rpc_timeouts) as f64,
            "count",
        ),
        metric(
            "remoting.rpc_retries",
            sum(&|s| s.rpc_retries) as f64,
            "count",
        ),
        metric("remoting.failovers", sum(&|s| s.failovers) as f64, "count"),
        metric(
            "remoting.gmap_rebuilds",
            sum(&|s| s.gmap_rebuilds) as f64,
            "count",
        ),
        metric("workloads.plan_s", median(|t| t.plan_s), "s"),
        metric(
            "workloads.plan_live_mb",
            traced_times.plan_live_bytes as f64 / MIB,
            "MB",
        ),
        metric("harness.world_new_s", median(|t| t.world_new_s), "s"),
        metric("harness.fault_share", share(prof.fault_ns), "ratio"),
        metric(
            "harness.flight_records_per_sim_s",
            per_sim_s(sum(&|s| s.flight_recorded)),
            "1/sim-s",
        ),
        metric(
            "harness.run_peak_live_mb",
            traced_times.run_peak_bytes as f64 / MIB,
            "MB",
        ),
        metric(
            "harness.profile_unattributed_share",
            share(prof.wall_ns.saturating_sub(profiled)),
            "ratio",
        ),
        metric("metrics.slo_report_s", median(|t| t.slo_s), "s"),
        metric("metrics.attribution_s", median(|t| t.attribution_s), "s"),
        metric("metrics.openmetrics_s", median(|t| t.openmetrics_s), "s"),
        metric("metrics.dump_render_s", median(|t| t.dump_s), "s"),
        metric("metrics.snapshots", snapshots as f64, "count"),
        metric("metrics.sample_share", share(prof.metrics_ns), "ratio"),
        metric(
            "bench.trace_overhead_share",
            ratio(traced_times.host_s(), median(RepTimes::host_s)) - 1.0,
            "ratio",
        ),
    ]
}
