//! Run-manifest JSON and host self-profiling for the Millipede simulators.
//!
//! Two pieces, both host-side and purely observational:
//!
//! 1. **A strict JSON layer** ([`json`]): a dependency-free parser and the
//!    escaping/number-formatting helpers every manifest writer and the
//!    `millipede-cli report` reader share.
//! 2. **Host self-profiling** ([`selfprof`]): wall-clock phase timers
//!    (decode/run/report) for the run manifest. That module is the one
//!    sanctioned wall-clock consumer in this crate — the `wall-clock`
//!    audit lint covers `crates/metrics` and exempts only
//!    `src/selfprof.rs`.
//!
//! Determinism contract: nothing in this crate is ever read back by a
//! timing model. Manifests are written *from* finished results, so
//! metrics are digest-invisible by construction (pinned by
//! `tests/manifest.rs`).

#![warn(missing_docs)]

pub mod json;
pub mod selfprof;

pub use selfprof::SelfProfile;
