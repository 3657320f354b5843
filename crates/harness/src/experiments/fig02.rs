//! Figure 2 — Monte Carlo utilization: sequential contexts vs concurrent
//! streams.
//!
//! The motivating experiment: independent Monte Carlo request sets on one
//! GPU, (a) each in its own process/context — the driver multiplexes with
//! context-switch "glitches" — versus (b) dispatched over CUDA streams in
//! one shared context, giving much more uniform utilization.

use super::common::ExpScale;
use crate::cli::exit_on_write_error;
use crate::scenario::{Scenario, StreamSpec};
use gpu_sim::spec::GpuModel;
use remoting::gpool::{NodeId, NodeSpec};
use remoting::topology::TopologySpec;
use sim_core::telemetry::{combined_busy_fraction, combined_idle_gaps};
use sim_core::trace::Trace;
use strings_core::config::StackConfig;
use strings_core::device_sched::TenantId;
use strings_core::mapper::LbPolicy;
use strings_metrics::report::{fmt_pct, sparkline, Table};
use strings_metrics::trace_export::chrome_json;
use strings_workloads::profile::AppKind;

/// Idle gaps at or above this length count as visible glitches (longer
/// than a single context switch, so each switch shows up).
const GLITCH_NS: u64 = 1_000_000;

/// One execution mode's utilization measurements.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Mode label.
    pub label: &'static str,
    /// Bucketized compute utilization over the busy window.
    pub buckets: Vec<f64>,
    /// Mean compute utilization.
    pub mean_util: f64,
    /// Idle glitches (all-engine gaps ≥ `GLITCH_NS`, 1 ms), derived from the
    /// recorded trace's engine-occupancy spans.
    pub glitches: usize,
    /// The same glitch count derived from aggregate telemetry — an
    /// independent path over the same start/finish instants; must agree
    /// with [`Timeline::glitches`] exactly.
    pub glitches_telemetry: usize,
    /// Context switches performed by the driver.
    pub context_switches: u64,
    /// The run's recorded trace (engine spans, scheduler decisions,
    /// request spans) for export.
    pub trace: Trace,
}

/// Figure 2 results.
#[derive(Debug, Clone)]
pub struct Results {
    /// Sequential (per-process contexts) execution.
    pub sequential: Timeline,
    /// Concurrent (packed context, CUDA streams) execution.
    pub concurrent: Timeline,
}

fn measure(cfg: StackConfig, label: &'static str, scale: &ExpScale) -> Timeline {
    let node = NodeSpec::new(0, vec![GpuModel::TeslaC2050]);
    // Two independent MC request sets on one GPU, as in the paper's
    // experiment; load high enough to keep the device backlogged so idle
    // time reflects scheduling, not arrival lulls.
    let mk = |tenant: u32| StreamSpec {
        app: AppKind::MC,
        node: NodeId(0),
        tenant: TenantId(tenant),
        weight: 1.0,
        count: scale.requests,
        load: 3.0,
        server_threads: 8,
    };
    let mut scen = Scenario::single_node(cfg, vec![mk(0), mk(1)], scale.seeds[0]);
    scen.topology = TopologySpec::of_nodes(vec![node]);
    scen.trace = true;
    let mut stats = scen.run();
    let trace = stats.trace.take().expect("fig02 always records a trace");
    let t = &stats.device_telemetry[0];
    let end = stats.makespan_ns.max(1);
    // "GPU utilization" is any-engine activity: MC is transfer-dominated,
    // so the copy engines carry most of its busy time.
    let engines = [&t.compute, &t.copy];
    let cb = t.compute.bucketize(0, end, 60);
    let pb = t.copy.bucketize(0, end, 60);
    let buckets: Vec<f64> = cb.iter().zip(&pb).map(|(a, b)| a.max(*b)).collect();
    // Glitches as a trace query: union the engine tracks' span intervals
    // (kernels on "compute", transfers on "copy*") and count the maximal
    // uncovered gaps. The telemetry count is kept alongside as an
    // independent derivation of the same instants.
    let engine_tracks = trace.find_tracks(|d| {
        d.process == "GID0" && (d.thread == "compute" || d.thread.starts_with("copy"))
    });
    Timeline {
        label,
        buckets,
        mean_util: combined_busy_fraction(&engines, 0, end),
        glitches: sim_core::trace::combined_idle_gaps(&trace, &engine_tracks, 0, end, GLITCH_NS),
        glitches_telemetry: combined_idle_gaps(&engines, 0, end, GLITCH_NS),
        context_switches: t.context_switches,
        trace,
    }
}

/// Run both modes.
pub fn run(scale: &ExpScale) -> Results {
    Results {
        sequential: measure(StackConfig::cuda_runtime(), "sequential (contexts)", scale),
        concurrent: measure(
            StackConfig::strings(LbPolicy::GMin),
            "concurrent (streams)",
            scale,
        ),
    }
}

/// Render as a comparison table (the timeline column is a sparkline).
pub fn table(r: &Results) -> Table {
    let mut t = Table::new(vec![
        "mode",
        "mean util",
        "glitches",
        "ctx switches",
        "timeline",
    ]);
    for tl in [&r.sequential, &r.concurrent] {
        t.row(vec![
            tl.label.to_string(),
            fmt_pct(tl.mean_util),
            tl.glitches.to_string(),
            tl.context_switches.to_string(),
            sparkline(&tl.buckets),
        ]);
    }
    t
}

/// The `fig02-streams` output: the table, plus, with `--trace PATH`, the
/// concurrent run's Chrome trace at `PATH` and the sequential run's at
/// `<stem>.sequential.<ext>` (both loadable in Perfetto).
pub fn render(scale: &ExpScale) -> String {
    let r = run(scale);
    let mut out = table(&r).render();
    if let Some(path) = &scale.trace {
        let seq_path = trace_path_with_tag(path, "sequential");
        exit_on_write_error(path, std::fs::write(path, chrome_json(&r.concurrent.trace)));
        exit_on_write_error(
            &seq_path,
            std::fs::write(&seq_path, chrome_json(&r.sequential.trace)),
        );
        out.push_str(&format!(
            "\ntraces written: {path} (concurrent), {seq_path} (sequential)\n"
        ));
    }
    out
}

/// Derive a sibling path for a second trace file: `out.json` + `seq` →
/// `out.seq.json` (no extension: `out` → `out.seq`).
pub fn trace_path_with_tag(path: &str, tag: &str) -> String {
    match path.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() => format!("{stem}.{tag}.{ext}"),
        _ => format!("{path}.{tag}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_remove_context_switching() {
        let r = run(&ExpScale::quick());
        // The trace-derived glitch count and the telemetry-derived one
        // walk different representations of the same engine instants.
        for tl in [&r.sequential, &r.concurrent] {
            assert_eq!(
                tl.glitches, tl.glitches_telemetry,
                "{}: trace says {} glitches, telemetry {}",
                tl.label, tl.glitches, tl.glitches_telemetry
            );
        }
        assert!(
            r.sequential.context_switches > 0,
            "sequential mode must context-switch"
        );
        assert_eq!(
            r.concurrent.context_switches, 0,
            "packed context never switches"
        );
        assert!(
            r.concurrent.glitches < r.sequential.glitches,
            "streams must remove glitches: {} !< {}",
            r.concurrent.glitches,
            r.sequential.glitches
        );
        // Concurrent execution drains the same backlog sooner, so its mean
        // utilization over the (shorter) makespan may dip slightly; it must
        // not collapse.
        assert!(
            r.concurrent.mean_util > r.sequential.mean_util * 0.8,
            "concurrent utilization collapsed: {} vs {}",
            r.concurrent.mean_util,
            r.sequential.mean_util
        );
        assert_eq!(r.sequential.buckets.len(), 60);
    }

    #[test]
    fn trace_tags_insert_before_extension() {
        assert_eq!(trace_path_with_tag("out.json", "seq"), "out.seq.json");
        assert_eq!(trace_path_with_tag("out", "seq"), "out.seq");
        assert_eq!(trace_path_with_tag(".hidden", "seq"), ".hidden.seq");
    }
}
