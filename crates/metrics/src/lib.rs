//! # strings-metrics
//!
//! The paper's evaluation metrics:
//!
//! * [`speedup`] — **weighted speedup** (Eq. 2): the mean over applications
//!   of `CT_alone / CT_shared`, computed over per-request completion times,
//! * [`fairness`] — **Jain's fairness index** (Eq. 3) over per-tenant
//!   normalized service,
//! * [`disruption`] — availability accounting for fault-injection runs
//!   (per-tenant lost/retried/degraded requests and downtime),
//! * [`attribution`] — request-level latency attribution: exact additive
//!   per-stage breakdowns ([`attribution::AttributionReport`])
//!   reconstructed from a recorded trace,
//! * [`alerts`] — multi-window SLO burn-rate alerting
//!   ([`alerts::BurnRateEngine`]): deterministic virtual-time window
//!   math producing a byte-stable alert log consumed by the flight
//!   recorder as a dump trigger,
//! * [`forensics`] — flight-recorder dump rendering
//!   ([`forensics::dump_jsonl`] / [`forensics::dump_chrome`]): the
//!   byte-stable incident window `strings-sim serve --dump` writes,
//! * [`registry`] — the unified metrics registry
//!   ([`registry::MetricsRegistry`]): virtual-time-sampled counters,
//!   gauges and fixed-bucket histograms with deterministic
//!   Prometheus/OpenMetrics and JSONL exports,
//! * [`report`] — plain-text table rendering for the `strings-sim`
//!   experiments (one row/series per paper figure),
//! * [`slo`] — serving-mode SLO summary ([`slo::SloReport`]): latency
//!   percentiles, goodput, shed rate, and windowed per-tenant fairness
//!   for `strings-sim serve`,
//! * [`trace_export`] — Chrome trace-event JSON (Perfetto) and JSONL
//!   exporters for recorded [`sim_core::trace::Trace`]s.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod alerts;
pub mod attribution;
pub mod disruption;
pub mod export;
pub mod fairness;
pub mod forensics;
pub mod registry;
pub mod report;
pub mod slo;
pub mod speedup;
pub mod trace_export;

pub use alerts::{AlertEvent, AlertReport, BurnRateConfig, BurnRateEngine};
pub use attribution::{AttributionReport, RequestAttribution};
pub use disruption::{DisruptionReport, TenantDisruption};
pub use fairness::jain_fairness;
pub use registry::{HistogramId, MetricKind, MetricsRegistry, SeriesId};
pub use slo::{SloRecord, SloReport};
pub use speedup::{weighted_speedup, CompletionSet};
