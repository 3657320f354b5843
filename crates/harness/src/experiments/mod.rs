//! Experiment definitions — one module per paper figure/table.
//!
//! Each module exposes `run(&ExpScale) -> Results` plus a `table(&Results)`
//! renderer. Each is one row of [`crate::cli::EXPERIMENTS`], which
//! `strings-sim NAME` prints under a banner (`--quick` runs at
//! [`common::ExpScale::quick`] scale). EXPERIMENTS.md records
//! paper-vs-measured values for each.

pub mod ablation;
pub mod attribution;
pub mod common;
pub mod cpu_fallback;
pub mod faults;
pub mod fig01;
pub mod fig02;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod policy_matrix;
pub mod serve;
pub mod table1;
pub mod vmem;

pub use common::ExpScale;
