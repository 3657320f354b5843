//! The benchmark's workloads: each is built from the simulator's public
//! entry points, set up and run from outside, rendered, and checked.
//! Nothing here reaches inside a crate; every timing is taken around a
//! public call.

use crate::measure::{self, Spans};
use sim_core::SimDuration;
use std::hint::black_box;
use strings_core::config::StackConfig;
use strings_core::device_sched::GpuPolicy;
use strings_core::mapper::LbPolicy;
use strings_harness::cli::parse_serve_args;
use strings_harness::experiments::common::{pair_streams, ExpScale};
use strings_harness::{PlannedRequest, RunStats, Scenario, ServeSpec, World};
use strings_metrics::slo::SloReport;
use strings_metrics::{forensics, AttributionReport};
use strings_workloads::pairs::workload_pairs;

/// The workloads `--workload all` runs, in order.
pub const NAMES: [&str; 3] = ["fig12_batch", "cluster_serve", "incident_forensics"];

/// Requests per stream of `fig12_batch`: ten times the figure's 30, so a
/// run lasts well over 100 ms of host time (2.4M events).
const FIG12_REQUESTS_PER_STREAM: usize = 300;

/// Independent pair-I batches per `fig12_batch` rep, each on its own seed
/// derived from `--seed`. Like the figure, which averages seeds, this
/// keeps one seed's backlog episodes from swinging the latency tail.
const FIG12_RUNS: u64 = 12;

/// The 64×4 capstone, as `strings-sim serve` arguments: 2048 GA tenants,
/// Poisson 300 rps for 60 s of virtual time, round-robin placement,
/// global GWtMin, no device dispatcher, default flight recorder.
const CLUSTER_SERVE: &str =
    "--topology 64x4:c2050@calibrated --tenants 2048 --arrivals poisson:300rps --duration 60s";

/// What `incident_forensics` adds to `CLUSTER_SERVE`: a link degrade and
/// two partitions mid-run, attribution, 1 s metrics sampling, and a
/// burn-rate rule tight enough to fire. No node loss and no backend
/// crash: with attribution on, either panics on some seeds (README.md,
/// known panics).
const INCIDENT: &str =
    "--faults degrade@25s+10s:node5x4;partition@20s+5s:node3;partition@40s+2s:node7 \
     --attribution --metrics-every 1s --burn-alert 2040ms --alert-windows 5s:30s";

/// A known panic (README.md): the GA,MC mix with attribution and a node
/// loss. Not a listed workload; it exercises the panic guard.
const GA_MC_NODELOSS: &str = "--topology 64x4:c2050@calibrated --tenants 512 --apps GA,MC \
     --arrivals poisson:300rps --duration 60s --faults nodeloss@20s:node3 --attribution";

/// Rows of the rendered attribution report's slowest-requests table.
const ATTRIBUTION_TOP_K: usize = 10;

enum Spec {
    Batch(Scenario),
    Serve(ServeSpec),
}

/// One named workload.
pub struct Workload {
    /// The name `--workload` selects it by.
    pub name: &'static str,
    spec: Spec,
}

/// Host seconds of one rep's calls, and the live heap the counting
/// allocator saw (zero unless counting).
#[derive(Clone, Copy, Default)]
pub struct RepTimes {
    pub plan_s: f64,
    pub world_new_s: f64,
    pub run_s: f64,
    pub slo_s: f64,
    pub attribution_s: f64,
    pub openmetrics_s: f64,
    pub dump_s: f64,
    pub plan_live_bytes: isize,
    pub run_peak_bytes: isize,
}

impl RepTimes {
    /// Accumulate another simulation run's times; live-heap numbers keep
    /// the larger.
    pub fn add(&mut self, o: &RepTimes) {
        self.plan_s += o.plan_s;
        self.world_new_s += o.world_new_s;
        self.run_s += o.run_s;
        self.slo_s += o.slo_s;
        self.attribution_s += o.attribution_s;
        self.openmetrics_s += o.openmetrics_s;
        self.dump_s += o.dump_s;
        self.plan_live_bytes = self.plan_live_bytes.max(o.plan_live_bytes);
        self.run_peak_bytes = self.run_peak_bytes.max(o.run_peak_bytes);
    }

    /// Planning plus `World::new` and its setters.
    pub fn setup_s(&self) -> f64 {
        self.plan_s + self.world_new_s
    }

    /// `World::run` plus every report build and render.
    pub fn host_s(&self) -> f64 {
        self.run_s + self.slo_s + self.attribution_s + self.openmetrics_s + self.dump_s
    }
}

/// The simulated outcome a simulation run must reproduce exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub events: u64,
    pub completed: u64,
    pub makespan_ns: u64,
    /// `None` when the run kept no request log.
    pub p99_ns: Option<u64>,
    pub failed: u64,
    pub shed: u64,
}

impl Fingerprint {
    fn of(stats: &RunStats, p99_ns: Option<u64>) -> Fingerprint {
        Fingerprint {
            events: stats.events,
            completed: stats.completions.total_requests(),
            makespan_ns: stats.makespan_ns,
            p99_ns,
            failed: stats.failed_requests,
            shed: stats.shed_requests,
        }
    }

    /// Equal on every field both runs observed.
    pub fn matches(&self, other: &Fingerprint) -> bool {
        let p99 = match (self.p99_ns, other.p99_ns) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        };
        p99 && Fingerprint {
            p99_ns: None,
            ..*self
        } == Fingerprint {
            p99_ns: None,
            ..*other
        }
    }
}

/// The attribution report's additivity, as the checks need it.
pub struct AttributionCheck {
    consistent: u64,
    non_additive: u64,
}

impl AttributionCheck {
    fn of(report: &AttributionReport) -> AttributionCheck {
        AttributionCheck {
            consistent: report.consistent().count() as u64,
            non_additive: report
                .consistent()
                .filter(|r| r.stage_ns.iter().sum::<u64>() != r.total_ns())
                .count() as u64,
        }
    }
}

/// One simulation run of a rep: its statistics, reports and timings.
pub struct SimRun {
    pub stats: RunStats,
    pub slo: SloReport,
    pub attribution: Option<AttributionCheck>,
    pub planned: u64,
    pub times: RepTimes,
}

impl SimRun {
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint::of(&self.stats, Some(self.slo.p99.as_ns()))
    }
}

fn fig12() -> Scenario {
    let scale = ExpScale {
        requests: FIG12_REQUESTS_PER_STREAM,
        ..ExpScale::full()
    };
    let (_, a, b) = workload_pairs()[8]; // pair I: BO-BS
    Scenario::supernode(
        StackConfig::strings(LbPolicy::GWtMin).with_gpu_policy(GpuPolicy::Las),
        pair_streams(a, b, &scale),
        0,
    )
}

fn serve(args: &str) -> Spec {
    let args: Vec<String> = args.split_whitespace().map(String::from).collect();
    let run = parse_serve_args(&args).expect("the benchmark's serve arguments parse");
    Spec::Serve(run.spec)
}

impl Workload {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Workload> {
        let (name, spec) = match name {
            "fig12_batch" => ("fig12_batch", Spec::Batch(fig12())),
            "cluster_serve" => ("cluster_serve", serve(CLUSTER_SERVE)),
            "incident_forensics" => (
                "incident_forensics",
                serve(&format!("{CLUSTER_SERVE} {INCIDENT}")),
            ),
            "ga_mc_nodeloss" => ("ga_mc_nodeloss", serve(GA_MC_NODELOSS)),
            _ => return None,
        };
        Some(Workload { name, spec })
    }

    /// The simulation seeds one rep runs, derived from the workload seed.
    pub fn seeds(&self, seed: u64) -> Vec<u64> {
        match &self.spec {
            Spec::Batch(_) => (0..FIG12_RUNS)
                .map(|k| seed.wrapping_mul(FIG12_RUNS).wrapping_add(k))
                .collect(),
            Spec::Serve(_) => vec![seed],
        }
    }

    /// The spec's own entry point, untimed: the run the outside set-up
    /// must reproduce.
    pub fn reference(&self, seed: u64) -> RunStats {
        match &self.spec {
            Spec::Batch(s) => s.run_with_seed(seed),
            Spec::Serve(s) => s.run_with_seed(seed),
        }
    }

    /// The fingerprint of a [`Workload::reference`] run.
    pub fn fingerprint(&self, stats: &RunStats) -> Fingerprint {
        let p99 = (!stats.slo_records.is_empty()).then(|| self.slo(stats).p99.as_ns());
        Fingerprint::of(stats, p99)
    }

    fn plan(&self, seed: u64) -> Vec<PlannedRequest> {
        match &self.spec {
            Spec::Batch(s) => s.plan_with_seed(seed),
            Spec::Serve(s) => s.plan_with_seed(seed),
        }
    }

    /// `World::new` and the setters the spec's own `run_with_seed`
    /// applies, in its order; batch runs also keep the request log, for
    /// latency percentiles.
    fn world(&self, seed: u64, requests: Vec<PlannedRequest>, profile: bool) -> World {
        let mut world = match &self.spec {
            Spec::Batch(s) => {
                let mut w = World::new(
                    &s.topology,
                    s.device_cfg,
                    s.stack,
                    s.scope,
                    s.costs,
                    requests,
                    s.fairness_horizon,
                );
                w.set_seed(seed);
                w.set_fault_plan(&s.faults);
                w.enable_request_log();
                w
            }
            Spec::Serve(s) => {
                let mut w = World::new(
                    &s.topology,
                    s.device_cfg,
                    s.stack,
                    s.scope,
                    s.costs,
                    requests,
                    None,
                );
                w.set_seed(seed);
                w.set_admission(s.tenants, s.admission);
                w.enable_request_log();
                w.set_fault_plan(&s.faults);
                if s.trace {
                    w.enable_tracing();
                } else if s.attribution {
                    w.enable_attribution();
                }
                if let Some(every) = s.metrics_every {
                    w.enable_metrics(every);
                    if s.node_metrics {
                        w.enable_node_metrics();
                    }
                }
                if let Some(depth) = s.flight_depth {
                    w.set_flight_depth(depth);
                }
                if let Some(cfg) = s.burn_alert {
                    w.set_burn_alert(cfg);
                }
                if let Some(at) = s.dump_at {
                    w.set_dump_at(at.as_ns());
                }
                if s.dump_final {
                    w.set_dump_final();
                }
                if let Some(req) = s.explain {
                    w.set_explain(req);
                }
                w
            }
        };
        if profile {
            world.enable_self_profile();
        }
        world
    }

    fn slo(&self, stats: &RunStats) -> SloReport {
        match &self.spec {
            Spec::Batch(s) => stats.slo_report(
                s.streams.len(),
                SimDuration::from_ns(stats.makespan_ns),
                SimDuration::from_secs(1),
            ),
            Spec::Serve(s) => s.slo(stats),
        }
    }

    /// Plan and build a world from outside, each call a span under
    /// `parent`. Returns the world, the planned request count and the
    /// set-up times.
    pub fn setup(
        &self,
        seed: u64,
        profile: bool,
        spans: &mut Spans,
        run: u64,
        parent: Option<usize>,
    ) -> (World, u64, RepTimes) {
        let mut t = RepTimes::default();
        let id = spans.open(run, parent, "plan");
        let requests = self.plan(seed);
        t.plan_s = spans.close(id);
        t.plan_live_bytes = measure::live_bytes();
        let planned = requests.len() as u64;
        let id = spans.open(run, parent, "world_new");
        let world = self.world(seed, requests, profile);
        t.world_new_s = spans.close(id);
        (world, planned, t)
    }

    /// One simulation run: set up, run, then build and render every
    /// report the run produced.
    pub fn simulate(&self, seed: u64, profile: bool, spans: &mut Spans, run: u64) -> SimRun {
        let root = spans.open(run, None, "simulation");
        let (world, planned, mut t) = self.setup(seed, profile, spans, run, Some(root));
        measure::reset_peak();
        let id = spans.open(run, Some(root), "run");
        let stats = world.run();
        t.run_s = spans.close(id);
        t.run_peak_bytes = measure::peak_bytes();

        let id = spans.open(run, Some(root), "slo_report");
        let slo = self.slo(&stats);
        let mut bytes = slo.render().len();
        if let Some(alerts) = &stats.alerts {
            bytes += alerts.render().len();
        }
        t.slo_s = spans.close(id);

        let mut attribution = None;
        if let Some(trace) = &stats.trace {
            let id = spans.open(run, Some(root), "attribution");
            let report = AttributionReport::from_trace(trace);
            bytes += report.render(ATTRIBUTION_TOP_K).len();
            t.attribution_s = spans.close(id);
            attribution = Some(AttributionCheck::of(&report));
        }
        if let Some(registry) = &stats.metrics {
            let id = spans.open(run, Some(root), "openmetrics");
            bytes += registry.render_openmetrics().len();
            t.openmetrics_s = spans.close(id);
        }
        if !stats.flight_dumps.is_empty() {
            let id = spans.open(run, Some(root), "dump_render");
            for dump in &stats.flight_dumps {
                bytes += forensics::dump_jsonl(dump).len() + forensics::dump_chrome(dump).len();
            }
            t.dump_s = spans.close(id);
        }
        spans.close(root);
        black_box(bytes);
        SimRun {
            stats,
            slo,
            attribution,
            planned,
            times: t,
        }
    }

    /// Every output check of one simulation run, one line per failure.
    pub fn check(&self, sim: &SimRun) -> Vec<String> {
        let s = &sim.stats;
        let completed = s.completions.total_requests();
        let (shed, failed, planned) = (s.shed_requests, s.failed_requests, sim.planned);
        let mut errs = Vec::new();
        let mut ensure = |ok: bool, msg: String| {
            if !ok {
                errs.push(msg);
            }
        };
        ensure(
            completed == s.slo_records.len() as u64 && completed == sim.slo.completed,
            format!(
                "{completed} completions, {} request-log records, {} in the SLO report",
                s.slo_records.len(),
                sim.slo.completed
            ),
        );
        ensure(
            completed + shed + failed == planned,
            format!("completed {completed} + shed {shed} + failed {failed} != planned {planned}"),
        );
        match &self.spec {
            Spec::Batch(_) => ensure(
                completed == planned,
                format!("batch completed {completed} of {planned} planned"),
            ),
            Spec::Serve(spec) => {
                let adm = s.admission.unwrap_or_default();
                // Requests whose frontend node was already lost fail
                // before they reach admission.
                let lost_at_door = planned.saturating_sub(adm.offered());
                ensure(
                    adm.offered() <= planned && adm.shed() == shed,
                    format!(
                        "admission offered {} and shed {}; planned {planned}, shed {shed}",
                        adm.offered(),
                        adm.shed()
                    ),
                );
                ensure(
                    adm.admitted + lost_at_door == completed + failed,
                    format!(
                        "admitted {} + lost at a dead frontend {lost_at_door} != completed {completed} + failed {failed}",
                        adm.admitted
                    ),
                );
                if spec.faults.is_empty() {
                    ensure(
                        failed == 0 && lost_at_door == 0,
                        format!("{failed} requests failed without a fault plan"),
                    );
                } else {
                    let nodes = spec.topology.num_nodes();
                    ensure(
                        s.flight_dumps.iter().any(|d| d.nodes.len() == nodes),
                        format!("the fault plan yielded no {nodes}-node flight dump"),
                    );
                }
                // Each workload's burn-rate rule is set tight enough to fire.
                if spec.burn_alert.is_some() {
                    let fired = s.alerts.as_ref().map_or(0, |a| a.fired());
                    ensure(fired >= 1, "the burn-rate rule never fired".into());
                }
            }
        }
        if let Some(a) = &sim.attribution {
            ensure(
                a.consistent > 0 && a.non_additive == 0,
                format!(
                    "{} of {} consistent requests have stage charges that do not sum to their latency",
                    a.non_additive, a.consistent
                ),
            );
        }
        errs
    }
}
