//! Die-stacked DRAM model.
//!
//! Models the memory side of the paper's Table III: a Hybrid-Memory-Cube /
//! HBM-like die stack where each PNM processor owns one 128-bit channel
//! clocked at 1.2 GHz with 4 banks per channel, 2 KB rows, DRAM timing
//! tCAS-tRP-tRCD-tRAS = 9-9-9-27 (channel cycles), and an FR-FCFS memory
//! controller with a 16-deep request queue.
//!
//! The model is *event-scheduled* rather than per-cycle-ticked: the
//! architecture simulators push read requests as simulated time advances and
//! tick [`MemoryController::tick`], which schedules requests First-Ready
//! First-Come-First-Served (row hits first, then oldest), honours bank state
//! machine timing (activate / precharge / column access, tRAS), serializes
//! data transfers on the shared channel data bus, and reports completions
//! with picosecond timestamps.
//!
//! Row locality is the paper's central memory metric: every serviced request
//! is either a **row hit** (the bank's open row already holds the data; pay
//! tCAS only) or a **row miss** (precharge + activate + tCAS). The
//! controller counts both — Table IV's "SSMC row miss rate" column and
//! Fig. 4's DRAM-energy gap come straight from these counters.

#![warn(missing_docs)]

pub mod audit;
pub mod bank;
pub mod controller;
pub mod geometry;
pub mod timing;

pub use audit::TimingAudit;
pub use bank::Bank;
pub use controller::{Completion, MemoryController, ReqId, Request, QUEUE_DEPTH};
pub use geometry::DramGeometry;
pub use timing::DramTiming;

/// Simulated time in picoseconds.
///
/// All clock domains (the 1.2 GHz channel clock and the DFS-scaled compute
/// clock) are expressed in picoseconds so the multi-clock main loops never
/// need fractional cycles.
pub type TimePs = u64;

/// Aggregate DRAM statistics for one channel.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DramStats {
    /// Requests serviced with the row already open (tCAS only).
    pub row_hits: u64,
    /// Requests that required precharge + activate.
    pub row_misses: u64,
    /// Row activations issued (equals `row_misses` plus cold first-touches).
    pub activations: u64,
    /// Bytes moved over the channel data bus.
    pub bytes_transferred: u64,
    /// Picoseconds the data bus spent transferring data.
    pub bus_busy_ps: u64,
    /// Total requests serviced.
    pub requests: u64,
}

impl DramStats {
    /// The counters by name, in declaration order: the one list the
    /// determinism digest and the run manifest read. The pattern names
    /// every field, so a new one does not compile until it is listed here.
    pub fn counters(&self) -> [(&'static str, u64); 6] {
        let DramStats {
            row_hits,
            row_misses,
            activations,
            bytes_transferred,
            bus_busy_ps,
            requests,
        } = *self;
        [
            ("row_hits", row_hits),
            ("row_misses", row_misses),
            ("activations", activations),
            ("bytes_transferred", bytes_transferred),
            ("bus_busy_ps", bus_busy_ps),
            ("requests", requests),
        ]
    }

    /// Row miss rate = row misses / row accesses, as reported in Table IV.
    pub fn row_miss_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_misses as f64 / total as f64
        }
    }

    /// Achieved bandwidth over `elapsed_ps`, in GB/s.
    pub fn bandwidth_gbps(&self, elapsed_ps: TimePs) -> f64 {
        if elapsed_ps == 0 {
            0.0
        } else {
            // bytes/ps × 1e12 ps/s ÷ 1e9 B/GB = bytes/ps × 1000.
            self.bytes_transferred as f64 / elapsed_ps as f64 * 1000.0
        }
    }

    /// Merges another channel's statistics into this one.
    pub fn merge(&mut self, other: &DramStats) {
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.activations += other.activations;
        self.bytes_transferred += other.bytes_transferred;
        self.bus_busy_ps += other.bus_busy_ps;
        self.requests += other.requests;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate_handles_zero_accesses() {
        assert_eq!(DramStats::default().row_miss_rate(), 0.0);
    }

    #[test]
    fn miss_rate_computation() {
        let s = DramStats {
            row_hits: 3,
            row_misses: 1,
            ..Default::default()
        };
        assert!((s.row_miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_computation() {
        let s = DramStats {
            bytes_transferred: 19_200,
            ..Default::default()
        };
        // 19200 bytes in 1000 ns = 19.2 GB/s (the channel peak).
        assert!((s.bandwidth_gbps(1_000_000) - 19.2).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = DramStats {
            row_hits: 1,
            row_misses: 2,
            activations: 3,
            bytes_transferred: 4,
            bus_busy_ps: 5,
            requests: 6,
        };
        a.merge(&a.clone());
        assert_eq!(a.row_hits, 2);
        assert_eq!(a.requests, 12);
    }
}
