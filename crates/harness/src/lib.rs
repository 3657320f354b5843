//! # strings-harness
//!
//! The simulation executive ("world") that glues every substrate together —
//! host threads ([`cuda_sim`]), the interposer/remoting layer
//! ([`remoting`]), the Strings scheduler stack ([`strings_core`]), and the
//! GPU devices ([`gpu_sim`]) — plus the scenario builders and experiment
//! definitions that regenerate every figure and table of the paper.
//!
//! * [`world`] — the deterministic event loop. One [`world::World`] is one
//!   simulation run: a set of planned requests executed against a device
//!   topology under a [`strings_core::StackConfig`].
//! * [`scenario`] — declarative run descriptions (topology, request
//!   streams, scheduler stack, seed) that compile into a `World`.
//! * [`serve`] — open-loop serving scenarios: a seeded arrival process
//!   offers multi-tenant load for a fixed duration through an admission
//!   front door, summarized by an SLO report (`strings-sim serve`).
//! * [`stats`] — what a run reports: per-slot completion times, per-tenant
//!   attained service, device telemetry.
//! * [`experiments`] — one module per paper figure/table, each exposing a
//!   `run(...) -> Table`-style entry point; [`cli::EXPERIMENTS`] makes
//!   each one a `strings-sim` subcommand.
//! * [`explain`] — the `strings-sim explain` blame-chain renderer: one
//!   request's flight-record chain plus its attribution stage charges.
//! * [`sweep`] — seed-parallel scenario fan-out across OS threads (the DES
//!   itself stays single-threaded for determinism).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cli;
mod cluster;
pub mod experiments;
pub mod explain;
mod gpu;
mod observe;
pub mod scenario;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod world;

pub use scenario::{HostCosts, LbScope, Scenario, StreamSpec};
pub use serve::ServeSpec;
pub use stats::RunStats;
pub use world::{PlannedRequest, RequestProgram, World};
