//! On-die memory structures shared by the PNM architecture models.
//!
//! The paper holds on-processor-die memory capacity constant across the four
//! compared architectures (160 KB per processor/SM, Table III) but each
//! architecture spends it differently:
//!
//! * **Millipede** — 4 KB local memory + 1 KB prefetch-buffer slice per
//!   corelet ([`LocalMem`]; the prefetch buffer itself lives in
//!   `millipede-core` because it embodies the paper's novel flow control);
//! * **SSMC** — 5 KB L1 D-cache per core ([`Cache`] + [`Mshr`] +
//!   [`SequentialPrefetcher`]);
//! * **GPGPU/VWS** — 32 KB L1 D-cache + 128 KB banked Shared Memory per SM
//!   ([`Cache`], [`SequentialPrefetcher`], [`SharedMemoryBanks`],
//!   [`coalesce_blocks`]).
//!
//! This crate also owns the *functional* backing stores: the read-only
//! [`InputImage`] of the dataset resident in die-stacked DRAM (§IV-E) and the
//! per-thread [`LocalMem`] live state.

#![warn(missing_docs)]

pub mod cache;
pub mod coalesce;
pub mod image;
pub mod local;
pub mod mshr;
pub mod prefetch;
pub mod sharedmem;

pub use cache::{Cache, CacheStats};
pub use coalesce::coalesce_blocks;
pub use image::InputImage;
pub use local::{LocalMem, MemFault};
pub use mshr::{Mshr, MshrOutcome};
pub use prefetch::{PrefetchStop, SequentialPrefetcher};
pub use sharedmem::{SharedMemoryBanks, MAX_LANES};
