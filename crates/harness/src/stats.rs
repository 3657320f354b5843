//! Run results.

use gpu_sim::telemetry::DeviceTelemetry;
use sim_core::flight::{FlightDump, FlightRecord};
use sim_core::trace::Trace;
use sim_core::{SimDuration, SimTime};
use std::collections::BTreeMap;
use strings_core::admission::AdmissionStats;
use strings_core::device_sched::TenantId;
use strings_metrics::alerts::AlertReport;
use strings_metrics::disruption::{DisruptionReport, TenantDisruption};
use strings_metrics::registry::MetricsRegistry;
use strings_metrics::slo::{SloRecord, SloReport};
use strings_metrics::CompletionSet;

/// Per-tenant request-outcome buckets under fault injection.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TenantOutcomes {
    /// Requests that completed untouched by any fault.
    pub completed: u64,
    /// Requests killed by a fault (never completed).
    pub lost: u64,
    /// Requests that completed after an RPC retry or failover replay.
    pub retried: u64,
    /// Requests that completed but crossed a degraded/partitioned link.
    pub degraded: u64,
    /// Virtual time spent waiting out failovers.
    pub downtime_ns: u64,
}

/// Everything one simulation run reports.
#[derive(Default)]
pub struct RunStats {
    /// Per-slot (logical application) request completion times.
    pub completions: CompletionSet,
    /// Engine time attained per tenant within the fairness horizon, ns.
    pub tenant_service_ns: BTreeMap<TenantId, u64>,
    /// Virtual time at which the last request finished.
    pub makespan_ns: SimTime,
    /// Device-memory allocation failures observed (the paper assumes the
    /// arrival rate keeps this at zero; we verify).
    pub oom_events: u64,
    /// Events popped from the queue: every dispatched event, arrivals
    /// included (diagnostics). Cancelled wakeups never pop and are not
    /// counted.
    pub events: u64,
    /// Requests that completed. Failed and shed requests are counted in
    /// their own fields; the three add up to the planned requests.
    pub completed_requests: u64,
    /// Requests killed by injected backend faults.
    pub failed_requests: u64,
    /// RPC calls whose deadline expired before any reply.
    pub rpc_timeouts: u64,
    /// Retransmissions issued after a deadline expiry.
    pub rpc_retries: u64,
    /// Application failover restarts (backend replay after a crash or a
    /// permanent device/node loss).
    pub failovers: u64,
    /// gMap rebuilds performed after permanent device/node losses.
    pub gmap_rebuilds: u64,
    /// Request-outcome buckets per tenant (always populated; all-zero
    /// fault counters when no faults were injected).
    pub tenant_outcomes: BTreeMap<TenantId, TenantOutcomes>,
    /// Telemetry per device (indexed by GID).
    pub device_telemetry: Vec<DeviceTelemetry>,
    /// Placement histogram: (slot, gid) → bound request count.
    pub placements: BTreeMap<(usize, usize), u64>,
    /// Total context switches across devices.
    pub context_switches: u64,
    /// Events whose schedule time lay in the past and were clamped to
    /// "now" by the event queue (diagnostics; should stay 0).
    pub clamped_events: u64,
    /// Keyed wakeups (device and epoch-handover) cancelled or superseded
    /// before they popped. They never dispatch, so they are not in
    /// [`RunStats::events`].
    pub cancelled_wakeups: u64,
    /// Always 0. It counted superseded wakeups that were still popped and
    /// discarded; the queue now drops every cancelled entry without
    /// popping it. Kept because the golden `RunStats` lines, the trace
    /// counter and the benchmarks still read it.
    pub stale_pops: u64,
    /// High-water mark of *live* backlog: cancelled and superseded entries
    /// are excluded the moment they die. Rendered as `peak_queue_depth` by
    /// the `Debug` impl.
    pub peak_live_queue_depth: u64,
    /// Structured trace of the run (None unless the scenario asked for
    /// tracing; see [`crate::scenario::Scenario::trace`]).
    pub trace: Option<Trace>,
    /// Requests shed at the admission front door (serve mode only; 0 in
    /// batch scenarios, which run without an admission controller).
    pub shed_requests: u64,
    /// Aggregate admission counters (None outside serve mode).
    pub admission: Option<AdmissionStats>,
    /// Per-completion SLO records — one per completed request, collected
    /// only when [`crate::world::World::enable_request_log`] was called.
    pub slo_records: Vec<SloRecord>,
    /// The unified metrics registry after the end-of-run sample (None
    /// unless [`crate::world::World::enable_metrics`] was called).
    pub metrics: Option<MetricsRegistry>,
    /// Flight-recorder dumps (at most one per trigger class; empty when
    /// no trigger fired or the recorder was disabled with depth 0).
    /// Deliberately absent from the byte-pinned `Debug` rendering.
    pub flight_dumps: Vec<FlightDump>,
    /// Trigger counts per dump class: `[fault, slo_breach, alert,
    /// explicit]`.
    pub flight_triggers: [u64; 4],
    /// Total flight records written over the run.
    pub flight_recorded: u64,
    /// Burn-rate alert log (None unless a rule was configured via
    /// [`crate::world::World::set_burn_alert`]).
    pub alerts: Option<AlertReport>,
    /// The complete flight-record chain of the request singled out by
    /// [`crate::world::World::set_explain`], immune to ring eviction.
    pub explain_records: Vec<FlightRecord>,
    /// Stream-table rows left across all devices' contexts at the end of
    /// the run. Private streams are dropped when their app exits, so this
    /// stays bounded by the apps alive at the end plus default streams,
    /// however many apps ran.
    pub stream_rows: u64,
    /// Latency-attribution windows left in the executive's side tables at
    /// the end of the run (0 without attribution). A job window exists
    /// only while a synchronous copy waits on it and an app's stream
    /// window goes when it detaches, so this stays bounded by the apps
    /// alive at the end plus shared contexts, however many apps ran.
    pub attr_windows: u64,
    /// App slots the executive allocated: the most requests that held
    /// executive state at once. A request holds a slot from its start
    /// until the event that finished it has been dispatched, so this
    /// stays bounded by the server threads (plus the requests one event
    /// finishes), however many requests the run plans.
    pub peak_app_slots: u64,
    /// Wall-clock self-profile (None unless
    /// [`crate::world::World::enable_self_profile`] was called). Never
    /// rendered into any golden surface — wall-clock is nondeterministic.
    pub self_profile: Option<PhaseProfile>,
}

/// Wall-clock nanoseconds the run spent in each executive phase: the
/// self-profiler satellite behind the bench trajectory's phase
/// breakdown. Virtual time plays no part here — this is host time, for
/// tracking the overhead of always-on observability over the PR
/// history.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Whole event loop, pop to finish.
    pub wall_ns: u64,
    /// Event-queue pops (scheduling structure maintenance).
    pub queue_ns: u64,
    /// Arrival handling (admission, placement, request start).
    pub arrival_ns: u64,
    /// Host-thread steps (request program execution, replies).
    pub host_ns: u64,
    /// Device engine advance (kernel/copy completion harvesting).
    pub engine_ns: u64,
    /// Scheduler epoch processing (LAS decay, quantum rotation).
    pub epoch_ns: u64,
    /// RPC delivery/timeout/retry/restart machinery.
    pub rpc_ns: u64,
    /// Fault-plan event handling.
    pub fault_ns: u64,
    /// Metrics sampling cadence events.
    pub metrics_ns: u64,
}

impl PhaseProfile {
    /// `(label, ns)` rows in fixed order, for rendering and the bench
    /// trajectory JSON.
    pub fn phases(&self) -> [(&'static str, u64); 8] {
        [
            ("queue", self.queue_ns),
            ("arrival", self.arrival_ns),
            ("host", self.host_ns),
            ("engine", self.engine_ns),
            ("epoch", self.epoch_ns),
            ("rpc", self.rpc_ns),
            ("fault", self.fault_ns),
            ("metrics", self.metrics_ns),
        ]
    }
}

/// Byte-compatibility with the pre-serve golden outputs: this impl emits
/// exactly what `#[derive(Debug)]` used to, and appends the serve-mode
/// fields only when they carry data (batch runs leave them empty, so every
/// committed `{:?}` rendering is unchanged).
impl std::fmt::Debug for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("RunStats");
        d.field("completions", &self.completions)
            .field("tenant_service_ns", &self.tenant_service_ns)
            .field("makespan_ns", &self.makespan_ns)
            .field("oom_events", &self.oom_events)
            .field("events", &self.events)
            .field("completed_requests", &self.completed_requests)
            .field("failed_requests", &self.failed_requests)
            .field("rpc_timeouts", &self.rpc_timeouts)
            .field("rpc_retries", &self.rpc_retries)
            .field("failovers", &self.failovers)
            .field("gmap_rebuilds", &self.gmap_rebuilds)
            .field("tenant_outcomes", &self.tenant_outcomes)
            .field("device_telemetry", &self.device_telemetry)
            .field("placements", &self.placements)
            .field("context_switches", &self.context_switches)
            .field("clamped_events", &self.clamped_events)
            .field("cancelled_wakeups", &self.cancelled_wakeups)
            .field("stale_pops", &self.stale_pops)
            .field("peak_queue_depth", &self.peak_live_queue_depth)
            .field("trace", &self.trace);
        if self.shed_requests != 0 {
            d.field("shed_requests", &self.shed_requests);
        }
        if let Some(adm) = &self.admission {
            d.field("admission", adm);
        }
        if !self.slo_records.is_empty() {
            d.field("slo_records", &self.slo_records.len());
        }
        if let Some(m) = &self.metrics {
            d.field("metrics_snapshots", &m.snapshot_count());
            d.field("metrics_series", &m.series_count());
        }
        d.finish()
    }
}

impl RunStats {
    /// Mean completion time across every slot's requests, ns.
    pub fn mean_completion_ns(&self) -> f64 {
        let slots = self.completions.apps();
        let mut sum = 0.0;
        let mut n = 0u64;
        for s in 0..slots {
            let c = self.completions.counts()[s];
            if c > 0 {
                sum += self.completions.mean_ct(s) * c as f64;
                n += c;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Normalized per-tenant service vector (service / weight), for Jain.
    pub fn tenant_service_vec(&self, weights: &BTreeMap<TenantId, f64>) -> Vec<f64> {
        self.tenant_service_ns
            .iter()
            .map(|(t, s)| *s as f64 / weights.get(t).copied().unwrap_or(1.0))
            .collect()
    }

    /// Condense a serve-mode run into its [`SloReport`]: latency
    /// percentiles over the request log, goodput over `duration`, shed
    /// rate from the admission counters, and windowed fairness over
    /// `tenants` tenants. Requires the run to have collected
    /// [`RunStats::slo_records`].
    pub fn slo_report(
        &self,
        tenants: usize,
        duration: SimDuration,
        window: SimDuration,
    ) -> SloReport {
        SloReport::from_records(
            &self.slo_records,
            self.shed_requests,
            self.failed_requests,
            tenants,
            duration,
            window,
        )
    }

    /// Build the availability/disruption report (per-tenant outcomes plus
    /// RPC-recovery counters). Deterministic: tenants render in id order.
    pub fn disruption_report(&self) -> DisruptionReport {
        let mut r = DisruptionReport::new();
        for (tenant, o) in &self.tenant_outcomes {
            r.push(TenantDisruption {
                tenant: tenant.0,
                completed: o.completed,
                lost: o.lost,
                retried: o.retried,
                degraded: o.degraded,
                downtime_ns: o.downtime_ns,
            });
        }
        r.rpc_timeouts = self.rpc_timeouts;
        r.rpc_retries = self.rpc_retries;
        r.failovers = self.failovers;
        r.gmap_rebuilds = self.gmap_rebuilds;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_completion_weighs_by_request_count() {
        let mut s = RunStats {
            completions: CompletionSet::new(2),
            ..Default::default()
        };
        s.completions.record(0, 100);
        s.completions.record(0, 100);
        s.completions.record(1, 400);
        // (100+100+400)/3 = 200.
        assert!((s.mean_completion_ns() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_mean_is_zero() {
        let s = RunStats {
            completions: CompletionSet::new(1),
            ..Default::default()
        };
        assert_eq!(s.mean_completion_ns(), 0.0);
    }

    #[test]
    fn disruption_report_rolls_up_in_tenant_order() {
        let mut s = RunStats::default();
        s.tenant_outcomes.insert(
            TenantId(1),
            TenantOutcomes {
                completed: 3,
                lost: 1,
                ..Default::default()
            },
        );
        s.tenant_outcomes.insert(
            TenantId(0),
            TenantOutcomes {
                completed: 5,
                retried: 2,
                downtime_ns: 7_000,
                ..Default::default()
            },
        );
        s.rpc_timeouts = 2;
        s.failovers = 1;
        let r = s.disruption_report();
        assert_eq!(r.tenants().len(), 2);
        assert_eq!(r.tenants()[0].tenant, 0, "BTreeMap iteration is sorted");
        assert_eq!(r.totals().completed, 8);
        assert_eq!(r.totals().lost, 1);
        assert_eq!(r.totals().downtime_ns, 7_000);
        assert_eq!(r.rpc_timeouts, 2);
        assert_eq!(r.failovers, 1);
    }

    #[test]
    fn tenant_vector_normalizes_by_weight() {
        let mut s = RunStats::default();
        s.tenant_service_ns.insert(TenantId(0), 1000);
        s.tenant_service_ns.insert(TenantId(1), 500);
        let mut w = BTreeMap::new();
        w.insert(TenantId(0), 2.0);
        w.insert(TenantId(1), 1.0);
        let v = s.tenant_service_vec(&w);
        assert_eq!(v, vec![500.0, 500.0]);
    }
}
