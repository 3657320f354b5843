//! # remoting
//!
//! The GPU-remoting substrate of Figure 3 of the paper: a **frontend**
//! interposer library intercepts CUDA runtime calls, marshals them into RPC
//! packets, and ships them over a channel (shared memory locally, the
//! network for remote GPUs) to a **backend** daemon that dispatches the real
//! calls and returns error codes / output parameters.
//!
//! * [`rpc`] — the RPC cost model (per-call marshal time + per-byte
//!   costs),
//! * [`channel`] — shared-memory and Gigabit-Ethernet channel timing,
//! * [`network`] — the [`NetworkSpec`] graph between nodes; the canned
//!   shm/GbE media live here as constants,
//! * [`topology`] — [`TopologySpec`]: N nodes × M devices plus the network
//!   joining them, with a builder and the `--topology` CLI grammar,
//! * [`gpool`] — the logical aggregation of every GPU in the supernode into
//!   a single pool (gPool) with its GID → (node, local device) map (gMap),
//!   sharded per node by [`ShardedGPool`],
//! * [`backend`] — the three frontend→backend worker mappings of Figure 5
//!   (Design I: process per app; Design II: one master thread per GPU;
//!   Design III: per-GPU process with a thread per app — Strings),
//! * [`error`] — the unified [`Error`]/[`Result`] the gMap's lookups and
//!   device failures report through,
//! * [`retry`] — per-call deadlines and bounded exponential backoff
//!   ([`RetryPolicy`]) used by the frontend when a backend stops answering,
//! * [`telemetry`] — monotonic [`RpcCounters`] over the RPC path, sampled
//!   by the unified metrics registry.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod backend;
pub mod channel;
pub mod error;
pub mod gpool;
pub mod network;
pub mod retry;
pub mod rpc;
pub mod telemetry;
pub mod topology;

pub use backend::BackendDesign;
pub use channel::{ChannelKind, ChannelSpec};
pub use error::{Error, Result};
pub use gpool::{GMap, Gid, NodeId, NodeSpec, ShardedGPool};
pub use network::NetworkSpec;
pub use retry::RetryPolicy;
pub use rpc::RpcCostModel;
pub use telemetry::RpcCounters;
pub use topology::{SliceCapability, TopologySpec};
