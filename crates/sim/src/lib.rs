//! Simulation driver and the paper's experiments.
//!
//! This crate wires the architecture models, workloads, and energy model
//! into the evaluation of §VI:
//!
//! | Module | Regenerates |
//! |--------|-------------|
//! | [`experiments::table2`] | Table II — application behaviour summary |
//! | [`experiments::table3`] | Table III — hardware parameters |
//! | [`experiments::table4`] | Table IV — benchmark characteristics |
//! | [`experiments::fig3`]   | Fig. 3 — performance vs GPGPU |
//! | [`experiments::fig4`]   | Fig. 4 — energy breakdown |
//! | [`experiments::fig5`]   | Fig. 5 — Millipede vs conventional multicore |
//! | [`experiments::fig6`]   | Fig. 6 — speedup vs system size |
//! | [`experiments::fig7`]   | Fig. 7 — speedup vs prefetch-buffer count |
//!
//! [`Arch`] names the compared architectures, [`SimConfig`] carries the
//! swept parameters, and [`runner`] executes (optionally in parallel across
//! benchmarks) and attaches energy numbers.

#![warn(missing_docs)]

pub mod arch;
pub mod config;
pub mod determinism;
pub mod experiments;
pub mod manifest;
pub mod report;
pub mod runner;
pub mod system;

pub use arch::Arch;
pub use config::SimConfig;
pub use determinism::{check_determinism, digest_run, Divergence, Fnv1a};
pub use manifest::{ManifestRun, SCHEMA as MANIFEST_SCHEMA};
pub use millipede_telemetry::{Telemetry, TelemetryConfig};
pub use runner::{
    env_flag, run_many, run_many_with, run_one, sweep_progress_from_env, sweep_threads, RunResult,
};
pub use system::{run_system, SystemResult};
