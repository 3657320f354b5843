//! Command-line scenario construction.
//!
//! Powers the `strings-sim` binary: a tiny, dependency-free argument
//! grammar that builds a [`Scenario`] so users can explore the scheduler
//! without writing Rust.
//!
//! ```text
//! strings-sim --mode strings --lb gwtmin --gpu-policy ps \
//!             --app MC:20:1.5 --app DC:10:1.0:1 --nodes 2 --seed 7
//! ```
//!
//! Every paper table and figure, and every extension experiment, is one
//! row of [`EXPERIMENTS`]: `strings-sim fig12-throughput --quick` looks the
//! row up and parses its flags with [`parse_experiment_args`].

use crate::experiments::common::default_seeds;
use crate::experiments::{
    ablation, attribution, cpu_fallback, faults, fig01, fig02, fig09, fig10, fig11, fig12, fig13,
    fig14, fig15, policy_matrix, serve, table1, vmem, ExpScale,
};
use crate::scenario::{LbScope, Scenario, StreamSpec};
use crate::serve::ServeSpec;
use remoting::gpool::NodeId;
use remoting::topology::TopologySpec;
use sim_core::fault::FaultPlan;
use sim_core::SimDuration;
use strings_core::admission::{RateLimit, SloAdmission};
use strings_core::config::StackConfig;
use strings_core::device_sched::{GpuPolicy, TenantId};
use strings_core::mapper::LbPolicy;
use strings_core::placement::NodePolicy;
use strings_metrics::alerts::BurnRateConfig;
use strings_workloads::arrivals::ArrivalProcess;
use strings_workloads::profile::AppKind;

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// `flag`'s value as a count of at least 1.
fn parse_count(flag: &str, value: &str) -> Result<usize, CliError> {
    match value.parse() {
        Ok(0) => err(format!("{flag} must be at least 1")),
        Ok(n) => Ok(n),
        Err(_) => err(format!("bad {flag}")),
    }
}

/// The `--nodes 1|2` sugar's topology (`--topology` wins over it).
fn parse_nodes(value: &str) -> Result<TopologySpec, CliError> {
    match value.parse() {
        Ok(1) => Ok(TopologySpec::node_a()),
        Ok(2) => Ok(TopologySpec::supernode()),
        Ok(_) => err("--nodes must be 1 or 2"),
        Err(_) => err("bad --nodes"),
    }
}

/// A `--scope` value.
fn parse_scope(value: &str) -> Result<LbScope, CliError> {
    match value {
        "global" => Ok(LbScope::Global),
        "local" => Ok(LbScope::Local),
        other => err(format!("unknown scope '{other}'")),
    }
}

/// The stack a `--mode`, `--lb` and `--gpu-policy` name.
fn parse_stack(mode: &str, lb: &str, gpu: &str) -> Result<StackConfig, CliError> {
    let stack = match mode {
        "cuda" => StackConfig::cuda_runtime(),
        "rain" => StackConfig::rain(parse_lb(lb)?),
        "strings" => StackConfig::strings(parse_lb(lb)?),
        other => return err(format!("unknown mode '{other}'")),
    };
    Ok(stack.with_gpu_policy(parse_gpu_policy(gpu)?))
}

/// Parse an application kind mnemonic (Table I two-letter code).
pub fn parse_app(s: &str) -> Result<AppKind, CliError> {
    AppKind::ALL
        .into_iter()
        .find(|k| k.short().eq_ignore_ascii_case(s))
        .ok_or_else(|| {
            CliError(format!(
                "unknown app '{s}' (expected one of DC SC BO MM HI EV BS MC GA SN)"
            ))
        })
}

/// Parse a balancing policy name.
pub fn parse_lb(s: &str) -> Result<LbPolicy, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "grr" => Ok(LbPolicy::Grr),
        "gmin" => Ok(LbPolicy::GMin),
        "gwtmin" => Ok(LbPolicy::GWtMin),
        "frag" => Ok(LbPolicy::Frag),
        "rtf" => Ok(LbPolicy::Rtf),
        "guf" => Ok(LbPolicy::Guf),
        "dtf" => Ok(LbPolicy::Dtf),
        "mbf" => Ok(LbPolicy::Mbf),
        other => err(format!("unknown balancing policy '{other}'")),
    }
}

/// Parse a device-level policy name.
pub fn parse_gpu_policy(s: &str) -> Result<GpuPolicy, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "none" => Ok(GpuPolicy::None),
        "tfs" => Ok(GpuPolicy::Tfs),
        "las" => Ok(GpuPolicy::Las),
        "ps" => Ok(GpuPolicy::Ps),
        other => err(format!("unknown GPU policy '{other}'")),
    }
}

/// Parse one `--app KIND:COUNT:LOAD[:NODE]` stream spec. The tenant id is
/// assigned by position.
pub fn parse_stream(s: &str, tenant: u32) -> Result<StreamSpec, CliError> {
    let parts: Vec<&str> = s.split(':').collect();
    if !(3..=4).contains(&parts.len()) {
        return err(format!("--app wants KIND:COUNT:LOAD[:NODE], got '{s}'"));
    }
    let app = parse_app(parts[0])?;
    let count: usize = parts[1]
        .parse()
        .map_err(|_| CliError(format!("bad count '{}'", parts[1])))?;
    let load: f64 = parts[2]
        .parse()
        .map_err(|_| CliError(format!("bad load '{}'", parts[2])))?;
    if load <= 0.0 {
        return err("load must be positive");
    }
    let node: u32 = match parts.get(3) {
        Some(n) => n.parse().map_err(|_| CliError(format!("bad node '{n}'")))?,
        None => 0,
    };
    Ok(StreamSpec {
        app,
        node: NodeId(node),
        tenant: TenantId(tenant),
        weight: 1.0,
        count,
        load,
        server_threads: 6,
    })
}

/// Parsed command line.
#[derive(Debug)]
pub struct CliRun {
    /// The scenario to execute.
    pub scenario: Scenario,
    /// Seeds to average over.
    pub seeds: Vec<u64>,
    /// Write a trace of the representative run to this path (Chrome
    /// trace-event JSON; `.jsonl` extension selects the JSONL form).
    pub trace: Option<String>,
}

/// Usage text for `--help`.
pub const USAGE: &str = "strings-sim — run the Strings GPU scheduler simulator

options:
  --mode cuda|rain|strings        scheduling stack        [strings]
  --lb   grr|gmin|gwtmin|frag|rtf|guf|dtf|mbf   balancer   [gwtmin]
  --gpu-policy none|tfs|las|ps    device dispatcher        [none]
  --feedback POLICY:MIN           arbiter switch after MIN records
  --app KIND:COUNT:LOAD[:NODE]    request stream (repeatable) [MC:10:1.5]
  --nodes 1|2                     NodeA or NodeA+NodeB     [1]
  --topology SPEC                 cluster shape (overrides --nodes):
                                  node-a|single, supernode|paper, or
                                  NxM[:MODEL][@NET], e.g. 64x4:c2050
                                  NET: calibrated|gbe|ideal|LAT_US:BW_MBPS
  --scope global|local            balancer scope           [global]
  --vmem                          enable device virtual memory
  --seed N                        base RNG seed            [42]
  --seeds N                       average over N seeds     [1]
  --trace PATH                    write a Perfetto-loadable trace of the
                                  run (.jsonl extension selects JSONL)

subcommands:
  serve                           open-loop cloud serving (see
                                  `strings-sim serve --help`)
  explain REQ [serve options]     blame chain for one request of a serve
                                  run (see `strings-sim explain --help`)
  EXPERIMENT [options]            regenerate a paper table/figure or an
                                  extension experiment (listed below; see
                                  `strings-sim EXPERIMENT --help`)
";

/// Usage text for `strings-sim serve --help`.
pub const SERVE_USAGE: &str = "strings-sim serve — open-loop cloud serving with SLO reporting

Requests arrive at a configured rate for a configured duration regardless
of completions; an admission front door sheds what the supernode cannot
absorb, and the run is summarized by an SLO report (latency percentiles,
goodput, shed rate, windowed per-tenant fairness).

options:
  --arrivals SPEC       offered load            [poisson:3rps]
                          poisson:RATErps               seeded Poisson
                          fixed:RATErps                 deterministic
                          mmpp:BURSTrps:BASErps:DW:DW   bursty two-state
                          replay:PATH                   JSONL trace
  --duration DUR        arrival window, e.g. 600s [30s]
  --tenants N           tenant count             [4]
  --apps K1,K2,...      app mix (tenant t serves apps[t % len]) [GA]
  --queue-depth N       per-tenant in-system bound before shedding [8]
  --rate-limit RPS[:BURST]   per-tenant token-bucket admission limit
  --slo-target DUR      shed while a tenant's smoothed queue wait exceeds
                        this target (e.g. 50ms); off by default
  --window DUR          sliding fairness window  [1s]
  --server-threads N    per-tenant in-flight cap past admission [8]
  --mode cuda|rain|strings        scheduling stack        [strings]
  --lb   grr|gmin|gwtmin|frag|rtf|guf|dtf|mbf   balancer   [gwtmin]
  --gpu-policy none|tfs|las|ps    device dispatcher        [none]
  --nodes 1|2           NodeA or NodeA+NodeB     [2]
  --topology SPEC       cluster shape (overrides --nodes): node-a|single,
                        supernode|paper, or NxM[:MODEL][@NET], e.g.
                        64x4:c2050@calibrated — N nodes of M GPUs
  --placement rr|hash|least   tenant → node placement policy   [rr]
  --node-metrics        add per-node rollup families to sampled metrics
  --threads N           sweep worker threads for multi-seed runs
  --scope global|local  balancer scope           [global]
  --seed N              base RNG seed            [42]
  --seeds N             rerun over N seeds       [1]
  --trace PATH          write a Perfetto-loadable trace of the run
  --attribution         print the per-request latency attribution report
                        (stage breakdown: admission/host/rpc/engine waits
                        and service; exactly additive per request)
  --metrics-every DUR   sample the unified metrics registry on this
                        virtual-time cadence (e.g. 1s)      [1s]
  --metrics-out PATH    write sampled metrics; `.jsonl` extension selects
                        the JSONL time series, anything else the
                        OpenMetrics text exposition (implies sampling)
  --faults SPEC         inject faults; `;`-separated entries of
                        crash@TIME:gidN, ecc@TIME:gidN, nodeloss@TIME:nodeN,
                        degrade@TIME+DUR:nodeNxF, partition@TIME+DUR:nodeN
  --burn-alert DUR[:BUDGET]  SLO burn-rate rule: completions slower than
                        DUR are \"bad\"; BUDGET is the bad fraction budget
                        (default 0.01). FIRED transitions dump the flight
                        recorder and are listed per seed.
  --alert-windows S:L   burn-rate windows (virtual time)  [300s:3600s]
  --alert-factor F      burn factor both windows must exceed [2]
  --flight-depth N      flight-recorder ring depth per node (0 disables
                        the always-on recorder)             [256]
  --dump PATH           write the first flight-recorder dump window;
                        `.jsonl` extension selects JSONL, anything else
                        Chrome trace-event JSON. Without a trigger the
                        end-of-run window is written.
  --dump-at DUR         force an explicit dump trigger at this virtual
                        time (requires --dump)
";

/// Usage text for `strings-sim explain --help`.
pub const EXPLAIN_USAGE: &str = "strings-sim explain — blame chain for one request of a serve run

  strings-sim explain REQ [serve options]

Reruns the serve scenario described by the options (same grammar as
`strings-sim serve`; the run is deterministic in --seed) with request
REQ's flight-record chain captured in full, then prints the blame chain —
arrival, admission, dispatch, device bind, every RPC hop, faults,
failovers, completion — with causal links into the DES event chain, plus
the attribution profiler's per-stage charges, which sum exactly to the
request's end-to-end latency.
";

/// Parsed `serve` command line.
#[derive(Debug)]
pub struct ServeRun {
    /// The serving scenario to execute.
    pub spec: ServeSpec,
    /// Seeds to run (reports are per-seed, not averaged).
    pub seeds: Vec<u64>,
    /// Write a trace of the representative run to this path.
    pub trace: Option<String>,
    /// Print the latency-attribution report.
    pub attribution: bool,
    /// Write sampled metrics to this path (`.jsonl` = JSONL time series,
    /// otherwise OpenMetrics text).
    pub metrics_out: Option<String>,
    /// Pin the sweep worker-thread count for multi-seed runs.
    pub threads: Option<usize>,
    /// Write the first flight-recorder dump window to this path
    /// (`.jsonl` = JSONL, otherwise Chrome trace-event JSON).
    pub dump: Option<String>,
}

/// Parse a `serve` argument list (everything after the `serve` word).
pub fn parse_serve_args(args: &[String]) -> Result<ServeRun, CliError> {
    let mut arrivals = "poisson:3rps".to_string();
    let mut duration = SimDuration::from_secs(30);
    let mut tenants = 4usize;
    let mut apps: Vec<AppKind> = vec![AppKind::GA];
    let mut queue_depth = 8usize;
    let mut rate_limit: Option<RateLimit> = None;
    let mut slo_target: Option<SimDuration> = None;
    let mut window = SimDuration::from_secs(1);
    let mut server_threads = 8usize;
    let mut mode = "strings".to_string();
    let mut lb = "gwtmin".to_string();
    let mut gpu = "none".to_string();
    let mut nodes = TopologySpec::supernode();
    let mut topology: Option<TopologySpec> = None;
    let mut placement = NodePolicy::RoundRobin;
    let mut node_metrics = false;
    let mut threads: Option<usize> = None;
    let mut scope = LbScope::Global;
    let mut seed = 42u64;
    let mut n_seeds = 1u64;
    let mut trace: Option<String> = None;
    let mut attribution = false;
    let mut metrics_every: Option<SimDuration> = None;
    let mut metrics_out: Option<String> = None;
    let mut faults = FaultPlan::none();
    let mut burn_alert: Option<(SimDuration, f64)> = None;
    let mut alert_windows: Option<(SimDuration, SimDuration)> = None;
    let mut alert_factor: Option<f64> = None;
    let mut flight_depth: Option<usize> = None;
    let mut dump: Option<String> = None;
    let mut dump_at: Option<SimDuration> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = || -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| CliError(format!("{arg} wants a value")))
        };
        match arg.as_str() {
            "--arrivals" => arrivals = take()?.clone(),
            "--attribution" => attribution = true,
            "--metrics-every" => {
                metrics_every = Some(SimDuration::parse(take()?).map_err(CliError)?)
            }
            "--metrics-out" => metrics_out = Some(take()?.clone()),
            "--duration" => duration = SimDuration::parse(take()?).map_err(CliError)?,
            "--tenants" => tenants = parse_count(arg, take()?)?,
            "--apps" => {
                apps = take()?
                    .split(',')
                    .map(parse_app)
                    .collect::<Result<Vec<_>, _>>()?;
                if apps.is_empty() {
                    return err("--apps wants at least one app");
                }
            }
            "--queue-depth" => queue_depth = parse_count(arg, take()?)?,
            "--rate-limit" => rate_limit = Some(RateLimit::parse(take()?).map_err(CliError)?),
            "--slo-target" => {
                let d = SimDuration::parse(take()?).map_err(CliError)?;
                if d.is_zero() {
                    return err("--slo-target must be positive");
                }
                slo_target = Some(d);
            }
            "--window" => window = SimDuration::parse(take()?).map_err(CliError)?,
            "--server-threads" => server_threads = parse_count(arg, take()?)?,
            "--mode" => mode = take()?.clone(),
            "--lb" => lb = take()?.clone(),
            "--gpu-policy" => gpu = take()?.clone(),
            "--nodes" => nodes = parse_nodes(take()?)?,
            "--topology" => topology = Some(TopologySpec::parse(take()?).map_err(CliError)?),
            "--placement" => placement = NodePolicy::parse(take()?).map_err(CliError)?,
            "--node-metrics" => node_metrics = true,
            "--threads" => threads = Some(parse_count(arg, take()?)?),
            "--scope" => scope = parse_scope(take()?)?,
            "--seed" => {
                seed = take()?.parse().map_err(|_| CliError("bad --seed".into()))?;
            }
            "--seeds" => n_seeds = parse_count(arg, take()?)? as u64,
            "--trace" => trace = Some(take()?.clone()),
            "--faults" => faults = FaultPlan::parse(take()?).map_err(CliError)?,
            "--burn-alert" => {
                let v = take()?;
                let (target_spec, budget_spec) = match v.split_once(':') {
                    Some((t, b)) => (t, Some(b)),
                    None => (v.as_str(), None),
                };
                let target = SimDuration::parse(target_spec).map_err(CliError)?;
                if target.is_zero() {
                    return err("--burn-alert target must be positive");
                }
                let budget = match budget_spec {
                    Some(b) => b
                        .parse::<f64>()
                        .ok()
                        .filter(|b| *b > 0.0 && *b <= 1.0)
                        .ok_or_else(|| {
                            CliError(format!("bad budget '{b}' (want a fraction in (0, 1])"))
                        })?,
                    None => 0.01,
                };
                burn_alert = Some((target, budget));
            }
            "--alert-windows" => {
                let v = take()?;
                let (s, l) = v
                    .split_once(':')
                    .ok_or_else(|| CliError("--alert-windows wants SHORT:LONG".into()))?;
                let short = SimDuration::parse(s).map_err(CliError)?;
                let long = SimDuration::parse(l).map_err(CliError)?;
                if short.is_zero() || long < short {
                    return err("--alert-windows wants 0 < SHORT <= LONG");
                }
                alert_windows = Some((short, long));
            }
            "--alert-factor" => {
                let f: f64 = take()?
                    .parse()
                    .map_err(|_| CliError("bad --alert-factor".into()))?;
                if f <= 0.0 {
                    return err("--alert-factor must be positive");
                }
                alert_factor = Some(f);
            }
            "--flight-depth" => {
                flight_depth = Some(
                    take()?
                        .parse()
                        .map_err(|_| CliError("bad --flight-depth".into()))?,
                );
            }
            "--dump" => dump = Some(take()?.clone()),
            "--dump-at" => {
                let d = SimDuration::parse(take()?).map_err(CliError)?;
                if d.is_zero() {
                    return err("--dump-at must be positive");
                }
                dump_at = Some(d);
            }
            other => return err(format!("unknown option '{other}'\n\n{SERVE_USAGE}")),
        }
    }
    if duration.is_zero() {
        return err("--duration must be positive");
    }
    if burn_alert.is_none() && (alert_windows.is_some() || alert_factor.is_some()) {
        return err("--alert-windows/--alert-factor need --burn-alert");
    }
    if dump_at.is_some() && dump.is_none() {
        return err("--dump-at needs --dump PATH");
    }

    let stack = parse_stack(&mode, &lb, &gpu)?;

    let process = ArrivalProcess::parse(&arrivals).map_err(CliError)?;
    // --topology wins over the --nodes 1|2 sugar when both are given.
    let topo = topology.unwrap_or(nodes);
    faults
        .check_targets(topo.num_nodes(), topo.num_devices())
        .map_err(CliError)?;
    let mut spec = ServeSpec::on(topo, stack, process, duration, seed);
    spec.placement = placement;
    spec.node_metrics = node_metrics;
    spec.scope = scope;
    spec.tenants = tenants;
    spec.apps = apps;
    spec.admission.queue_depth = queue_depth;
    spec.admission.rate_limit = rate_limit;
    spec.admission.slo = slo_target.map(|d| SloAdmission {
        target_wait_ns: d.as_ns(),
    });
    spec.window = window;
    spec.server_threads = server_threads;
    spec.faults = faults;
    spec.trace = trace.is_some();
    spec.attribution = attribution;
    spec.flight_depth = flight_depth;
    if let Some((target, budget)) = burn_alert {
        let mut cfg = BurnRateConfig::new(target);
        cfg.budget = budget;
        if let Some((short, long)) = alert_windows {
            cfg.short_ns = short.as_ns();
            cfg.long_ns = long.as_ns();
        }
        if let Some(f) = alert_factor {
            cfg.factor = f;
        }
        spec.burn_alert = Some(cfg);
    }
    spec.dump_at = dump_at;
    spec.dump_final = dump.is_some();
    if metrics_every.is_some_and(|d| d.is_zero()) {
        return err("--metrics-every must be positive");
    }
    // A metrics output path implies sampling at the default cadence.
    if metrics_out.is_some() && metrics_every.is_none() {
        metrics_every = Some(SimDuration::from_secs(1));
    }
    spec.metrics_every = metrics_every;
    let seeds: Vec<u64> = (0..n_seeds).map(|i| seed + i * 7919).collect();
    Ok(ServeRun {
        spec,
        seeds,
        trace,
        attribution,
        metrics_out,
        threads,
        dump,
    })
}

/// Parse an `explain` argument list: `REQ [serve options]`. The serve
/// spec reruns with attribution forced on and request `REQ`'s flight
/// chain captured in full.
pub fn parse_explain_args(args: &[String]) -> Result<(u64, ServeRun), CliError> {
    let Some((req_arg, rest)) = args.split_first() else {
        return err(format!("explain wants a request id\n\n{EXPLAIN_USAGE}"));
    };
    let req: u64 = req_arg
        .parse()
        .map_err(|_| CliError(format!("bad request id '{req_arg}'\n\n{EXPLAIN_USAGE}")))?;
    let mut run = parse_serve_args(rest)?;
    // The blame chain needs stage charges; attribution is a superset of
    // nothing and byte-invisible to the SLO surfaces, so force it on.
    run.spec.attribution = true;
    run.attribution = false;
    run.spec.explain = Some(req);
    Ok((req, run))
}

/// Parse a full argument list (excluding `argv[0]`).
pub fn parse_args(args: &[String]) -> Result<CliRun, CliError> {
    let mut mode = "strings".to_string();
    let mut lb = "gwtmin".to_string();
    let mut gpu = "none".to_string();
    let mut feedback: Option<(LbPolicy, u64)> = None;
    let mut streams: Vec<StreamSpec> = Vec::new();
    let mut nodes = TopologySpec::node_a();
    let mut topology: Option<TopologySpec> = None;
    let mut scope = LbScope::Global;
    let mut vmem = false;
    let mut seed = 42u64;
    let mut n_seeds = 1u64;
    let mut trace: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = || -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| CliError(format!("{arg} wants a value")))
        };
        match arg.as_str() {
            "--mode" => mode = take()?.clone(),
            "--lb" => lb = take()?.clone(),
            "--gpu-policy" => gpu = take()?.clone(),
            "--feedback" => {
                let v = take()?;
                let (p, m) = v
                    .split_once(':')
                    .ok_or_else(|| CliError("--feedback wants POLICY:MIN".into()))?;
                let policy = parse_lb(p)?;
                if !policy.is_feedback() {
                    return err(format!("'{p}' is not a feedback policy"));
                }
                let min: u64 = m
                    .parse()
                    .map_err(|_| CliError(format!("bad feedback threshold '{m}'")))?;
                feedback = Some((policy, min));
            }
            "--app" => {
                let spec = take()?.clone();
                let tenant = streams.len() as u32;
                streams.push(parse_stream(&spec, tenant)?);
            }
            "--nodes" => nodes = parse_nodes(take()?)?,
            "--topology" => topology = Some(TopologySpec::parse(take()?).map_err(CliError)?),
            "--scope" => scope = parse_scope(take()?)?,
            "--vmem" => vmem = true,
            "--seed" => {
                seed = take()?.parse().map_err(|_| CliError("bad --seed".into()))?;
            }
            "--seeds" => n_seeds = parse_count(arg, take()?)? as u64,
            "--trace" => trace = Some(take()?.clone()),
            other => return err(format!("unknown option '{other}'\n\n{USAGE}")),
        }
    }
    if streams.is_empty() {
        streams.push(parse_stream("MC:10:1.5", 0)?);
    }
    // --topology wins over the --nodes 1|2 sugar when both are given.
    let topo = topology.unwrap_or(nodes);
    let n_nodes = topo.num_nodes();
    for s in &streams {
        if s.node.0 as usize >= n_nodes {
            return err(format!(
                "stream targets node {} but only {n_nodes} node(s) configured",
                s.node.0
            ));
        }
    }

    let mut stack = parse_stack(&mode, &lb, &gpu)?;
    if let Some((p, m)) = feedback {
        if mode == "cuda" {
            return err("--feedback needs an interposed mode (rain/strings)");
        }
        stack = stack.with_feedback(p, m);
    }

    let mut scenario = Scenario::on(topo, stack, streams, seed).with_scope(scope);
    scenario.device_cfg.vmem = vmem;
    scenario.trace = trace.is_some();
    let seeds: Vec<u64> = (0..n_seeds).map(|i| seed + i * 7919).collect();
    Ok(CliRun {
        scenario,
        seeds,
        trace,
    })
}

/// One experiment of the paper's evaluation (or an extension of it): a
/// row of [`EXPERIMENTS`], run as `strings-sim NAME [options]`.
pub struct Experiment {
    /// Subcommand name, e.g. `fig12-throughput`.
    pub name: &'static str,
    /// Banner title.
    pub title: &'static str,
    /// What the paper reports, printed under the title.
    pub paper: &'static str,
    /// Run the experiment at a scale and render its output.
    pub run: fn(&ExpScale) -> String,
    /// The size flags the row reads besides `--quick` and `--threads`.
    pub sizes: Sizes,
    /// The flags the row reads beyond its size flags.
    pub reads: Reads,
}

/// The size flags an experiment reads besides `--quick` and `--threads`.
/// A row rejects the ones it would ignore.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Sizes {
    /// `--seeds` and `--requests`: the row averages over the seeds.
    Seeds,
    /// `--requests` only: the row runs one seed, the first default one or
    /// a fixed one of its own.
    OneSeed,
    /// Neither: the row's size is fixed.
    Fixed,
}

/// What an experiment reads besides `--quick`, its [`Sizes`] and
/// `--threads`. A row rejects the flags it would ignore.
#[derive(Clone, Copy)]
pub enum Reads {
    /// Nothing more.
    Nothing,
    /// `--trace PATH`.
    Trace,
    /// `--faults`, injected on this fixed cluster.
    Faults(fn() -> TopologySpec),
    /// `--faults` and `--topology`: the cluster is this function of the
    /// scale, which carries the `--topology` override.
    ScaledFaults(fn(&ExpScale) -> TopologySpec),
}

impl Reads {
    /// The cluster `--faults` targets are checked against.
    fn cluster(self, scale: &ExpScale) -> Option<TopologySpec> {
        match self {
            Reads::Faults(topology) => Some(topology()),
            Reads::ScaledFaults(topology) => Some(topology(scale)),
            Reads::Nothing | Reads::Trace => None,
        }
    }
}

/// Every experiment, in the paper's order, then the extensions.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1-profiles",
        title: "Table I — benchmark applications",
        paper: "GPU time %, data transfer %, memory bandwidth per application",
        run: |_| table1::table(&table1::run()).render(),
        sizes: Sizes::Fixed,
        reads: Reads::Nothing,
    },
    Experiment {
        name: "fig01-characterization",
        title: "Figure 1 — compute and memory characteristics",
        paper: "heat bands red (>90%), yellow, green (<10%); idle gaps even for MC",
        run: |scale| fig01::table(&fig01::run(scale)).render(),
        sizes: Sizes::OneSeed,
        reads: Reads::Nothing,
    },
    Experiment {
        name: "fig02-streams",
        title: "Figure 2 — GPU utilization of Monte Carlo request sets",
        paper: "sequential contexts show switching glitches; streams are uniform",
        run: fig02::render,
        sizes: Sizes::OneSeed,
        reads: Reads::Trace,
    },
    Experiment {
        name: "fig09-workload-balancing",
        title: "Figure 9 — workload balancing, single node (Quadro 2000 + Tesla C2050)",
        paper: "paper AVG: Rain 2.16/2.37/2.34x; Strings 3.10/4.90/4.73x (GRR/GMin/GWtMin)",
        run: |scale| fig09::table(&fig09::run(scale)).render(),
        sizes: Sizes::Seeds,
        reads: Reads::Nothing,
    },
    Experiment {
        name: "fig10-gpu-sharing",
        title: "Figure 10 — GPU sharing, emulated 4-GPU supernode, pairs A..X",
        paper: "paper AVG: Rain 1.60/1.80/1.82x; Strings 2.64/2.69/2.88x vs single-node GRR",
        run: |scale| fig10::table(&fig10::run(scale)).render(),
        sizes: Sizes::Seeds,
        reads: Reads::Nothing,
    },
    Experiment {
        name: "fig11-fairness",
        title: "Figure 11 — Jain fairness, pairs sharing one GPU (equal shares)",
        paper: "paper: TFS-Strings avg 91%, +13% vs CUDA runtime, +7.14% vs TFS-Rain",
        run: |scale| fig11::table(&fig11::run(scale)).render(),
        sizes: Sizes::Seeds,
        reads: Reads::Nothing,
    },
    Experiment {
        name: "fig12-throughput",
        title: "Figure 12 — GWtMin + LAS/PS vs single-node GRR, 24 pairs",
        paper: "paper AVG: LAS-Rain 2.18x, LAS-Strings 3.10x, PS-Strings 2.97x",
        run: |scale| fig12::table(&fig12::run(scale)).render(),
        sizes: Sizes::Seeds,
        reads: Reads::Nothing,
    },
    Experiment {
        name: "fig13-sched-only",
        title: "Figure 13 — GPU scheduling vs GRR with 4 GPUs shared",
        paper: "paper AVG: LAS-Rain 1.40x, LAS-Strings 1.95x, PS-Strings 1.90x",
        run: |scale| fig13::table(&fig13::run(scale)).render(),
        sizes: Sizes::Seeds,
        reads: Reads::Nothing,
    },
    Experiment {
        name: "fig14-feedback",
        title: "Figure 14 — RTF/GUF feedback balancing vs single-node GRR, 24 pairs",
        paper: "paper AVG: RTF-Rain 2.22x, GUF-Rain 2.51x, RTF-Strings 3.23x, GUF-Strings 3.96x",
        run: |scale| fig14::table(&fig14::run(scale)).render(),
        sizes: Sizes::Seeds,
        reads: Reads::Nothing,
    },
    Experiment {
        name: "fig15-strings-feedback",
        title: "Figure 15 — DTF and MBF vs single-node GRR, 24 pairs",
        paper: "paper AVG: DTF 3.73x, MBF 4.02x (8.06x/8.70x vs bare CUDA runtime)",
        run: |scale| fig15::table(&fig15::run(scale)).render(),
        sizes: Sizes::Seeds,
        reads: Reads::Nothing,
    },
    Experiment {
        name: "ablation-design",
        title: "Ablation — design choices (pair B: DXTC + MonteCarlo, supernode)",
        paper: "slowdown of each removed mechanism vs full Strings (paper §III.B)",
        run: |scale| ablation::table(&ablation::run(scale)).render(),
        sizes: Sizes::Seeds,
        reads: Reads::Nothing,
    },
    Experiment {
        name: "vmem-pressure",
        title: "Extension — vmem under memory pressure (MC burst on a 1 GiB Quadro)",
        paper: "paper assumes arrivals never exhaust memory; the Gdev/Becchi vmem removes it",
        run: |scale| vmem::table(&vmem::run(scale)).render(),
        sizes: Sizes::OneSeed,
        reads: Reads::Nothing,
    },
    Experiment {
        name: "fault-isolation",
        title: "Extension — fault isolation (one backend crash, busy single GPU)",
        paper: "Design I isolates per process; Design II loses everyone; Design III replays",
        run: |scale| faults::table(&faults::run(scale)).render(),
        sizes: Sizes::OneSeed,
        reads: Reads::Faults(faults::topology),
    },
    Experiment {
        name: "cpu-fallback",
        title: "Extension — CPU fallback via binary translation (paper future work)",
        paper: "the Xeon joins the gPool; RTF feedback learns what work suits it",
        run: |scale| cpu_fallback::table(&cpu_fallback::run(scale)).render(),
        sizes: Sizes::OneSeed,
        reads: Reads::Nothing,
    },
    Experiment {
        name: "serve-slo",
        title: "Extension — open-loop serving SLOs (Poisson load, supernode)",
        paper: "the interposed stacks keep tail latency and shed rate below bare CUDA",
        run: |scale| serve::table(&serve::run(scale)).render(),
        sizes: Sizes::OneSeed,
        reads: Reads::ScaledFaults(ExpScale::serve_topology),
    },
    Experiment {
        name: "attribution-profile",
        title: "Extension — latency attribution (Poisson load, supernode)",
        paper: "Strings moves latency out of queue-wait and into actual service",
        run: |scale| attribution::table(&attribution::run(scale)).render(),
        sizes: Sizes::OneSeed,
        reads: Reads::ScaledFaults(ExpScale::serve_topology),
    },
    Experiment {
        name: "policy-matrix",
        title: "Extension — policy matrix (stacks x workload mixes x fault plans)",
        paper: "no single policy wins every cell; feedback and slicing pay off only where their inputs exist",
        run: |scale| policy_matrix::table(&policy_matrix::run(scale)).render(),
        sizes: Sizes::OneSeed,
        reads: Reads::ScaledFaults(ExpScale::serve_topology),
    },
];

/// The experiment named `name`, if any.
pub fn experiment(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Options of `strings-sim EXPERIMENT`; [`Experiment::usage`] keeps the
/// lines of the flags a row takes.
const EXPERIMENT_OPTIONS: &str = "  --quick          reduced scale (fewer requests, one seed)
  --seeds N        average over the first N of the default seeds (101, 202, ...)
  --requests N     requests per stream
  --trace PATH     write Perfetto-loadable Chrome trace-event JSON: the
                   concurrent run at PATH, the sequential one beside it
                   (out.json -> out.sequential.json)
  --faults PLAN    inject faults, e.g. 'crash@10s:gid0;partition@2s+500ms:node1'
                   (kinds: crash ecc nodeloss degrade partition)
  --topology SPEC  cluster override for the serving experiments:
                   node-a|single, supernode|paper, or NxM[:MODEL][@NET]
                   (e.g. 64x4:c2050@calibrated)
  --threads N      pin seed-sweep parallelism to N worker threads
                   (default: one per core; results are identical either way)
  --help           print this text
";

impl Experiment {
    fn takes(&self, flag: &str) -> bool {
        match flag {
            "--seeds" => self.sizes == Sizes::Seeds,
            "--requests" => self.sizes != Sizes::Fixed,
            "--trace" => matches!(self.reads, Reads::Trace),
            "--faults" => matches!(self.reads, Reads::Faults(_) | Reads::ScaledFaults(_)),
            "--topology" => matches!(self.reads, Reads::ScaledFaults(_)),
            _ => true,
        }
    }

    /// Usage text for `strings-sim NAME --help`: the flags this row takes.
    pub fn usage(&self) -> String {
        let mut out = format!("strings-sim {} — {}\n\noptions:\n", self.name, self.title);
        let mut keep = true;
        for line in EXPERIMENT_OPTIONS.lines() {
            if let Some(flag) = line
                .trim_start()
                .split(' ')
                .next()
                .filter(|f| f.starts_with("--"))
            {
                keep = self.takes(flag);
            }
            if keep {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}

/// A parsed `strings-sim EXPERIMENT` command line.
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// Experiment scale assembled from the flags.
    pub scale: ExpScale,
    /// `--threads N`: pinned sweep parallelism (None: one per core).
    pub threads: Option<usize>,
    /// `--help` was requested.
    pub help: bool,
}

/// Parse an experiment's argument list (everything after its name). A flag
/// the row would ignore is an error, and so is a `--faults` target outside
/// the row's cluster; both are reported before anything runs.
pub fn parse_experiment_args(exp: &Experiment, args: &[String]) -> Result<ExperimentRun, CliError> {
    let usage = |msg: String| CliError(format!("{msg}\n\n{}", exp.usage()));
    let mut scale = if args.iter().any(|a| a == "--quick") {
        ExpScale::quick()
    } else {
        ExpScale::full()
    };
    let mut help = false;
    let mut threads = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !exp.takes(arg) {
            return err(format!("{} does not take {arg}", exp.name));
        }
        let mut take = || -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| usage(format!("{arg} wants a value")))
        };
        match arg.as_str() {
            "--quick" => {}
            "--help" | "-h" => help = true,
            "--seeds" => {
                let n: u64 = take()?
                    .parse()
                    .map_err(|_| usage("bad --seeds (want a count)".into()))?;
                if n == 0 {
                    return Err(usage("--seeds must be at least 1".into()));
                }
                scale.seeds = default_seeds(n);
            }
            "--requests" => {
                scale.requests = take()?
                    .parse()
                    .map_err(|_| usage("bad --requests (want a count)".into()))?;
                if scale.requests == 0 {
                    // Zero requests divide 0 by 0 in every speedup.
                    return Err(usage("--requests must be at least 1".into()));
                }
            }
            "--trace" => scale.trace = Some(take()?.clone()),
            "--faults" => scale.faults = FaultPlan::parse(take()?).map_err(usage)?,
            "--topology" => scale.topology = Some(TopologySpec::parse(take()?).map_err(usage)?),
            "--threads" => {
                let n: usize = take()?
                    .parse()
                    .map_err(|_| usage("bad --threads (want a count)".into()))?;
                if n == 0 {
                    return Err(usage("--threads must be at least 1".into()));
                }
                threads = Some(n);
            }
            other => return Err(usage(format!("unknown option '{other}'"))),
        }
    }
    if !help {
        if let Some(topo) = exp.reads.cluster(&scale) {
            scale
                .faults
                .check_targets(topo.num_nodes(), topo.num_devices())
                .map_err(CliError)?;
        }
    }
    Ok(ExperimentRun {
        scale,
        threads,
        help,
    })
}

/// Unwrap the result of writing an output file the user named. A failure
/// (a missing directory, no permission) is the user's to fix, not a crash:
/// print `error: write PATH: ERR` and exit 1.
pub fn exit_on_write_error<T>(path: &str, result: std::io::Result<T>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: write {path}: {e}");
        std::process::exit(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_build_a_valid_run() {
        let run = parse_args(&[]).unwrap();
        assert_eq!(run.scenario.streams.len(), 1);
        assert_eq!(run.scenario.streams[0].app, AppKind::MC);
        assert_eq!(run.seeds, vec![42]);
        assert_eq!(run.scenario.topology.num_nodes(), 1);
    }

    #[test]
    fn full_argument_set_parses() {
        let run = parse_args(&args(
            "--mode strings --lb gwtmin --gpu-policy ps --feedback mbf:6 \
             --app DC:10:1.0 --app MC:20:1.5:1 --nodes 2 --scope global \
             --vmem --seed 9 --seeds 3",
        ))
        .unwrap();
        assert_eq!(run.scenario.streams.len(), 2);
        assert_eq!(run.scenario.streams[1].node, NodeId(1));
        assert_eq!(run.scenario.streams[1].tenant, TenantId(1));
        assert!(run.scenario.device_cfg.vmem);
        assert_eq!(run.seeds.len(), 3);
        assert_eq!(run.scenario.stack.label(), "MBFPS-Strings");
    }

    #[test]
    fn stream_spec_grammar() {
        let s = parse_stream("hi:5:2.5", 3).unwrap();
        assert_eq!(s.app, AppKind::HI);
        assert_eq!(s.count, 5);
        assert_eq!(s.tenant, TenantId(3));
        assert_eq!(s.node, NodeId(0));
        assert!(parse_stream("HI:5", 0).is_err());
        assert!(parse_stream("HI:x:1.0", 0).is_err());
        assert!(parse_stream("HI:5:-1.0", 0).is_err());
        assert!(parse_stream("ZZ:5:1.0", 0).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args("--mode quantum")).is_err());
        assert!(parse_args(&args("--lb fastest")).is_err());
        assert!(parse_args(&args("--nodes 3")).is_err());
        assert!(parse_args(&args("--seeds 0")).is_err());
        assert!(parse_args(&args("--frobnicate")).is_err());
        // Feedback target must be a feedback policy; cuda can't feedback.
        assert!(parse_args(&args("--feedback gmin:3")).is_err());
        assert!(parse_args(&args("--mode cuda --feedback mbf:3")).is_err());
        // Stream on an unconfigured node.
        assert!(parse_args(&args("--app MC:5:1.0:1")).is_err());
    }

    #[test]
    fn parsed_scenario_actually_runs() {
        let run = parse_args(&args("--app GA:3:1.0 --gpu-policy tfs")).unwrap();
        let stats = run.scenario.run();
        assert_eq!(stats.completed_requests, 3);
        assert!(stats.trace.is_none(), "tracing must default off");
    }

    #[test]
    fn serve_defaults_build_a_valid_run() {
        let run = parse_serve_args(&[]).unwrap();
        assert_eq!(run.spec.tenants, 4);
        assert_eq!(run.spec.topology.num_nodes(), 2);
        assert_eq!(run.spec.placement, NodePolicy::RoundRobin);
        assert!(!run.spec.node_metrics);
        assert!(run.threads.is_none());
        assert_eq!(run.spec.duration, SimDuration::from_secs(30));
        assert_eq!(run.seeds, vec![42]);
        assert!(run.trace.is_none());
    }

    #[test]
    fn serve_full_argument_set_parses() {
        let run = parse_serve_args(&args(
            "--arrivals mmpp:40rps:5rps:500ms:2s --duration 20s --tenants 8 \
             --apps GA,MC --queue-depth 16 --rate-limit 10:4 --window 2s \
             --server-threads 6 --mode rain --lb gmin --gpu-policy tfs \
             --nodes 1 --scope local --seed 9 --seeds 2",
        ))
        .unwrap();
        assert_eq!(run.spec.tenants, 8);
        assert_eq!(run.spec.apps, vec![AppKind::GA, AppKind::MC]);
        assert_eq!(run.spec.admission.queue_depth, 16);
        let rl = run.spec.admission.rate_limit.unwrap();
        assert_eq!((rl.rate_rps, rl.burst), (10.0, 4.0));
        assert_eq!(run.spec.window, SimDuration::from_secs(2));
        assert_eq!(run.spec.server_threads, 6);
        assert_eq!(run.spec.topology.num_nodes(), 1);
        assert_eq!(run.spec.scope, LbScope::Local);
        assert_eq!(run.seeds.len(), 2);
        assert_eq!(run.spec.stack.label(), "GMinTFS-Rain");
    }

    #[test]
    fn topology_flag_builds_clusters() {
        let run = parse_args(&args("--topology 4x2:c2050 --app MC:4:1.0:3")).unwrap();
        assert_eq!(run.scenario.topology.num_nodes(), 4);
        assert_eq!(run.scenario.topology.num_devices(), 8);
        // --topology overrides the --nodes sugar.
        let run = parse_args(&args("--nodes 2 --topology single")).unwrap();
        assert_eq!(run.scenario.topology.num_nodes(), 1);
        // Stream validation follows the parsed topology.
        assert!(parse_args(&args("--topology 2x1 --app MC:4:1.0:5")).is_err());
        assert!(parse_args(&args("--topology 0x4")).is_err());
    }

    #[test]
    fn serve_topology_placement_and_threads_parse() {
        let run = parse_serve_args(&args(
            "--topology 8x4:c2050@calibrated --placement least --threads 4 --node-metrics",
        ))
        .unwrap();
        assert_eq!(run.spec.topology.num_nodes(), 8);
        assert_eq!(run.spec.topology.num_devices(), 32);
        assert_eq!(run.spec.placement, NodePolicy::LeastTenants);
        assert!(run.spec.node_metrics);
        assert_eq!(run.threads, Some(4));
        assert!(parse_serve_args(&args("--placement random")).is_err());
        assert!(parse_serve_args(&args("--threads 0")).is_err());
        assert!(parse_serve_args(&args("--topology 4x4@warp9")).is_err());
    }

    #[test]
    fn serve_rejects_bad_input() {
        assert!(parse_serve_args(&args("--arrivals lognormal:3rps")).is_err());
        assert!(parse_serve_args(&args("--duration 0s")).is_err());
        assert!(parse_serve_args(&args("--tenants 0")).is_err());
        assert!(parse_serve_args(&args("--apps ZZ")).is_err());
        assert!(parse_serve_args(&args("--queue-depth 0")).is_err());
        assert!(parse_serve_args(&args("--rate-limit 0")).is_err());
        assert!(parse_serve_args(&args("--slo-target 0s")).is_err());
        assert!(parse_serve_args(&args("--frobnicate")).is_err());
        // Absurd sizes are rejected at parse time, before any allocation.
        for topo in ["99999999999x1", "16385x1", "4x18446744073709551615"] {
            let err = parse_serve_args(&args(&format!("--topology {topo}"))).unwrap_err();
            assert!(err.0.contains("more than 16384 devices"), "{topo}: {err}");
        }
    }

    #[test]
    fn serve_slo_target_and_frag_balancer_parse() {
        let run = parse_serve_args(&args("--slo-target 50ms --lb frag")).unwrap();
        let slo = run.spec.admission.slo.expect("--slo-target sets the gate");
        assert_eq!(slo.target_wait_ns, 50_000_000);
        assert_eq!(parse_lb("frag").unwrap(), LbPolicy::Frag);
        // Off by default: the SLO gate is opt-in.
        assert!(parse_serve_args(&[]).unwrap().spec.admission.slo.is_none());
    }

    #[test]
    fn serve_parsed_spec_actually_runs() {
        let run = parse_serve_args(&args(
            "--arrivals fixed:2rps --duration 5s --nodes 1 --tenants 2",
        ))
        .unwrap();
        let stats = run.spec.run();
        let report = run.spec.slo(&stats);
        assert!(report.completed > 0);
        assert!(stats.admission.is_some());
    }

    #[test]
    fn trace_flag_records_a_trace() {
        let run = parse_args(&args("--app GA:2:1.0 --trace out.json")).unwrap();
        assert!(run.scenario.trace);
        assert_eq!(run.trace.as_deref(), Some("out.json"));
        let stats = run.scenario.run();
        let trace = stats.trace.expect("traced run records a trace");
        assert!(!trace.tracks.is_empty());
        assert!(!trace.events.is_empty());
    }

    #[test]
    fn serve_observability_flags_parse() {
        let run = parse_serve_args(&args(
            "--faults nodeloss@10s:node1 --burn-alert 40ms:0.02 \
             --alert-windows 60s:600s --alert-factor 3 --flight-depth 128 \
             --dump out.jsonl --dump-at 12s",
        ))
        .unwrap();
        assert_eq!(run.spec.faults.len(), 1);
        let cfg = run.spec.burn_alert.expect("--burn-alert sets the rule");
        assert_eq!(cfg.target_ns, 40_000_000);
        assert!((cfg.budget - 0.02).abs() < 1e-12);
        assert_eq!(cfg.short_ns, 60_000_000_000);
        assert_eq!(cfg.long_ns, 600_000_000_000);
        assert!((cfg.factor - 3.0).abs() < 1e-12);
        assert_eq!(run.spec.flight_depth, Some(128));
        assert_eq!(run.dump.as_deref(), Some("out.jsonl"));
        assert_eq!(run.spec.dump_at, Some(SimDuration::from_secs(12)));
        assert!(run.spec.dump_final, "--dump implies a final snapshot");
        // Budget defaults to 1% when omitted.
        let run = parse_serve_args(&args("--burn-alert 40ms")).unwrap();
        let cfg = run.spec.burn_alert.unwrap();
        assert!((cfg.budget - 0.01).abs() < 1e-12);
        assert_eq!(cfg.short_ns, 300_000_000_000);
        // All off by default: the observability surface is opt-in except
        // the always-on recorder (flight_depth None = default depth).
        let run = parse_serve_args(&[]).unwrap();
        assert!(run.spec.burn_alert.is_none());
        assert!(run.spec.flight_depth.is_none());
        assert!(run.dump.is_none());
        assert!(!run.spec.dump_final);
    }

    #[test]
    fn serve_observability_flags_reject_bad_input() {
        assert!(parse_serve_args(&args("--faults warp9@10s:node1")).is_err());
        // Targets beyond the topology: the default 2-node supernode has 4
        // devices, and 4x2 has 4 nodes.
        assert!(parse_serve_args(&args("--faults nodeloss@1s:node99 --duration 2s")).is_err());
        assert!(parse_serve_args(&args("--faults crash@1s:gid99")).is_err());
        assert!(parse_serve_args(&args("--topology 4x2 --faults partition@1s+1s:node9")).is_err());
        assert!(parse_serve_args(&args("--burn-alert 0s")).is_err());
        assert!(parse_serve_args(&args("--burn-alert 40ms:1.5")).is_err());
        assert!(parse_serve_args(&args("--burn-alert 40ms --alert-windows 600s:60s")).is_err());
        assert!(parse_serve_args(&args("--burn-alert 40ms --alert-factor 0")).is_err());
        // Tuning flags without the rule they tune.
        assert!(parse_serve_args(&args("--alert-windows 60s:600s")).is_err());
        assert!(parse_serve_args(&args("--alert-factor 2")).is_err());
        // --dump-at without a dump path to write.
        assert!(parse_serve_args(&args("--dump-at 10s")).is_err());
    }

    fn exp_args(name: &str, s: &str) -> Result<ExperimentRun, CliError> {
        parse_experiment_args(experiment(name).expect("a row"), &args(s))
    }

    #[test]
    fn experiment_default_scale_is_full() {
        let run = exp_args("fig12-throughput", "").unwrap();
        assert_eq!(run.scale.requests, ExpScale::full().requests);
        assert!(run.scale.trace.is_none());
        assert!(run.scale.faults.is_empty());
        assert!(!run.help);
    }

    #[test]
    fn experiment_seeds_are_a_prefix_of_the_default_seeds() {
        // `--seeds 3` is the default run.
        let run = exp_args("fig15-strings-feedback", "--seeds 3").unwrap();
        assert_eq!(run.scale.seeds, ExpScale::full().seeds);
        let run = exp_args("fig15-strings-feedback", "--quick --seeds 1").unwrap();
        assert_eq!(run.scale.seeds, ExpScale::quick().seeds);
    }

    #[test]
    fn experiment_flags_reach_the_scale() {
        let run = exp_args("fig02-streams", "--quick --requests 5 --trace out.json").unwrap();
        assert_eq!(run.scale.requests, 5);
        assert_eq!(run.scale.trace.as_deref(), Some("out.json"));
        let run = exp_args("fig12-throughput", "--quick --seeds 2").unwrap();
        assert_eq!(run.scale.seeds.len(), 2);
        let run = exp_args("fault-isolation", "--faults crash@10s:gid0").unwrap();
        assert_eq!(run.scale.faults.len(), 1);
    }

    #[test]
    fn experiment_topology_flag_reaches_the_scale() {
        let run = exp_args("serve-slo", "--topology 16x4:c2050").unwrap();
        let topo = run.scale.topology.expect("topology parsed");
        assert_eq!(topo.num_nodes(), 16);
        assert_eq!(topo.num_devices(), 64);
        assert!(exp_args("serve-slo", "--topology 0x4").is_err());
        assert!(exp_args("serve-slo", "").unwrap().scale.topology.is_none());
    }

    #[test]
    fn experiment_threads_flag_parses() {
        assert_eq!(
            exp_args("fig10-gpu-sharing", "--threads 4")
                .unwrap()
                .threads,
            Some(4)
        );
        assert_eq!(
            exp_args("fig10-gpu-sharing", "--quick").unwrap().threads,
            None
        );
    }

    #[test]
    fn experiment_bad_input_is_rejected() {
        let e = "fault-isolation";
        assert!(exp_args(e, "--frobnicate").is_err());
        assert!(exp_args("fig12-throughput", "--seeds 0").is_err());
        assert!(exp_args(e, "--requests 0").is_err());
        assert!(exp_args("fig12-throughput", "--seeds").is_err());
        assert!(exp_args(e, "--threads 0").is_err());
        assert!(exp_args(e, "--threads x").is_err());
        assert!(exp_args(e, "--faults meteor@1s:gid0").is_err());
        assert!(exp_args(e, "--help").unwrap().help);
    }

    #[test]
    fn experiments_reject_the_flags_they_ignore() {
        let rejected = |name: &str, flag: &str, value: &str| {
            let msg = exp_args(name, &format!("--quick {flag} {value}"))
                .unwrap_err()
                .0;
            assert_eq!(msg, format!("{name} does not take {flag}"));
        };
        rejected("fig12-throughput", "--faults", "crash@1s:gid0");
        rejected("fig12-throughput", "--trace", "t.json");
        rejected("fig02-streams", "--topology", "4x2");
        rejected("fault-isolation", "--topology", "4x2");
        rejected("policy-matrix", "--trace", "t.json");
        // A row that runs one seed, or a fixed one, takes no --seeds.
        for name in [
            "table1-profiles",
            "fig01-characterization",
            "fig02-streams",
            "vmem-pressure",
            "fault-isolation",
            "cpu-fallback",
            "serve-slo",
            "attribution-profile",
            "policy-matrix",
        ] {
            rejected(name, "--seeds", "2");
        }
        rejected("table1-profiles", "--requests", "5");
        // A row's usage lists only what it takes.
        let usage = experiment("fig12-throughput").unwrap().usage();
        assert!(usage.contains("--seeds N") && !usage.contains("--faults"));
        let usage = experiment("serve-slo").unwrap().usage();
        assert!(usage.contains("--topology SPEC") && !usage.contains("--trace"));
        assert!(!usage.contains("--seeds") && usage.contains("--requests"));
    }

    #[test]
    fn experiment_fault_targets_are_checked_against_the_row_cluster() {
        // fault-isolation's cluster is one node with one GPU.
        assert!(exp_args("fault-isolation", "--faults crash@1s:gid0").is_ok());
        assert!(exp_args("fault-isolation", "--faults crash@1s:gid1").is_err());
        // The serving rows follow --topology.
        assert!(exp_args("serve-slo", "--faults crash@1s:gid7").is_err());
        assert!(exp_args("serve-slo", "--topology 4x2 --faults crash@1s:gid7").is_ok());
    }

    #[test]
    fn experiment_names_are_unique_kebab_case() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        for name in &names {
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-'),
                "{name}"
            );
            assert!(
                !matches!(*name, "serve" | "explain"),
                "{name} shadows a subcommand"
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }

    #[test]
    fn explain_args_force_attribution() {
        let (req, run) = parse_explain_args(&args("17 --duration 5s --seed 9")).unwrap();
        assert_eq!(req, 17);
        assert_eq!(run.spec.explain, Some(17));
        assert!(run.spec.attribution, "explain needs stage charges");
        assert!(!run.attribution, "no attribution report dump on stdout");
        assert_eq!(run.seeds, vec![9]);
        assert!(parse_explain_args(&args("")).is_err());
        assert!(parse_explain_args(&args("not-a-number")).is_err());
        assert!(parse_explain_args(&args("17 --frobnicate")).is_err());
    }
}
