//! # sim-core
//!
//! Deterministic discrete-event simulation (DES) core used by the whole
//! Strings reproduction stack.
//!
//! The crate provides these building blocks:
//!
//! * [`time`] — virtual time as integer nanoseconds ([`SimTime`],
//!   [`SimDuration`]) with ergonomic constructors and formatting,
//! * [`event`] — a total-ordered event queue ([`event::EventQueue`]): one
//!   binary heap of 24-byte `(time, seq, slot)` handles whose payloads
//!   wait in a slab of reused slots, keyed wakeups with one live entry
//!   per key for components that re-schedule themselves (cancelled
//!   entries are skipped when they surface), and a cursor for planned
//!   arrivals,
//! * [`rng`] — a seedable deterministic random source ([`rng::SimRng`])
//!   including the paper's negative-exponential inter-arrival sampler
//!   (Eq. 4: `T = -λ · ln X`),
//! * [`stats`] / [`telemetry`] — online statistics and time-weighted
//!   utilization tracking used for Figures 1 and 2 and for all reported
//!   completion-time aggregates,
//! * [`fault`] — deterministic fault-injection plans ([`FaultPlan`]):
//!   seeded, virtual-time-stamped backend crashes, device/node loss, and
//!   link degradation/partition windows, interpreted by the harness,
//! * [`trace`] — optional structured tracing: virtual-time spans,
//!   instants and counters on named tracks, recorded by a [`Tracer`]
//!   and exportable to Perfetto (via `strings-metrics`),
//! * [`flight`] — the always-on flight recorder: fixed-capacity per-node
//!   rings of compact lifecycle records ([`flight::FlightRecord`]) with
//!   causal provenance (DES event ids from
//!   [`event::EventQueue::current_id`]), snapshotted deterministically
//!   on faults, SLO breaches, burn-rate alerts, or an explicit trigger.
//!
//! Everything here is single-threaded and bit-deterministic for a given
//! seed; parallelism lives one level up (independent simulation runs are
//! fanned out across threads by the harness).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod event;
pub mod fault;
pub mod flight;
pub mod fxhash;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use event::{EventId, EventKey, EventQueue};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use flight::{DumpReason, FlightDump, FlightKind, FlightRecord, FlightRecorder};
pub use rng::SimRng;
pub use stats::OnlineStats;
pub use telemetry::UtilizationTracker;
pub use time::{SimDuration, SimTime};
pub use trace::{
    RequestAttribution, Stage, StageFold, StageLedger, Trace, TraceEvent, Tracer, TrackDesc,
    TrackId,
};
