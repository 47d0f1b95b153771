//! The Millipede processor — the paper's primary contribution (§IV).
//!
//! A Millipede processor is a "sea of simple MIMD cores" (SSMC) skeleton —
//! 32 simple 4-way-multithreaded corelets with per-corelet local memories
//! and I-caches — augmented with the paper's three novel memory
//! optimizations:
//!
//! 1. **Row-orientedness** ([`pbuf`]): the corelets collectively but
//!    asynchronously fetch and operate on *entire DRAM rows* before moving
//!    to the next row. One corelet's first demand access to a prefetched
//!    row triggers the next sequential row prefetch (the per-entry PFT
//!    full/empty bit, an MSHR-like filter against redundant triggers).
//! 2. **Flow-controlled cross-corelet prefetch** ([`pbuf`]): per-entry
//!    demand-fetch (DF) counters saturate when every corelet has consumed
//!    its slab; the circular buffer's head entry may only be re-allocated
//!    once saturated, so a leading corelet cannot prematurely evict data
//!    that lagging corelets still need.
//! 3. **Coarse-grain compute–memory rate-matching** ([`rate`]):
//!    hill-climbing DFS nudges the processor clock −5% when a corelet finds
//!    the buffers empty (memory-bound) and +5% when the flow control finds
//!    them full (compute-bound).
//!
//! [`processor`] ties these to the shared execution engine and DRAM model;
//! [`result`] defines the cross-architecture run-result type every
//! architecture crate returns.

#![warn(missing_docs)]

pub mod audit;
pub mod config;
pub mod pbuf;
pub mod processor;
pub mod rate;
pub mod result;

pub use audit::{ClockDomain, InvariantChecker};
pub use config::{MillipedeConfig, DEFAULT_RATE_COOLDOWN, LOCAL_BYTES_PER_CORELET};
pub use pbuf::{ConsumeOutcome, Lookup, RowPrefetchBuffer};
pub use processor::run;
pub use rate::{OccupancySignal, RateMatcher};
pub use result::NodeResult;
