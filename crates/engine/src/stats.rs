//! Architecture-timing statistics.
//!
//! Every architecture model fills a [`CoreStats`]; the energy model and the
//! experiment harness consume it. Fields an architecture does not have
//! (e.g. shared-memory passes on Millipede) simply stay zero.

/// Compute-side statistics of one simulated processor run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct CoreStats {
    /// Thread-level instructions executed.
    pub instructions: u64,
    /// Issue events: one per warp-issue on SIMT machines, one per
    /// instruction on MIMD machines. Instruction fetch/decode energy is per
    /// issue (that amortization is SIMT's energy advantage, §III-E).
    pub issues: u64,
    /// Conditional branches executed (thread-level).
    pub branches: u64,
    /// Warp-level divergent branches (SIMT only).
    pub divergent_branches: u64,
    /// Input-space loads (thread-level).
    pub input_loads: u64,
    /// Local live-state loads (thread-level).
    pub local_loads: u64,
    /// Local live-state stores (thread-level).
    pub local_stores: u64,
    /// Shared-memory serialized bank passes (GPGPU only).
    pub shared_passes: u64,
    /// L1 D-cache demand hits (GPGPU / SSMC).
    pub l1_hits: u64,
    /// L1 D-cache demand misses.
    pub l1_misses: u64,
    /// Prefetch-buffer demand hits (Millipede).
    pub pbuf_hits: u64,
    /// Demand accesses that stalled on a still-filling or missing row/block.
    pub demand_stalls: u64,
    /// Prefetch requests issued to DRAM (rows for Millipede, blocks else).
    pub prefetches: u64,
    /// Demand (non-prefetch) requests issued to DRAM — premature-eviction
    /// refetches in Millipede-no-flow-control, MSHR-primary misses
    /// elsewhere.
    pub demand_fetches: u64,
    /// Compute-clock cycles elapsed over the run.
    pub compute_cycles: u64,
    /// Total issue opportunities (compute_cycles × issue slots).
    pub issue_slots: u64,
    /// Issue opportunities with no ready work (memory stalls, drained MT).
    pub stall_slots: u64,
    /// SIMT lane-issue opportunities wasted by inactive lanes during issued
    /// instructions (divergence cost).
    pub lane_idle: u64,
    /// Flow-control trigger blocks (Millipede: prefetch deferred because the
    /// head entry was not fully consumed).
    pub flow_blocks: u64,
    /// Premature evictions (Millipede-no-flow-control: rows re-allocated
    /// before full consumption).
    pub premature_evictions: u64,
    /// Compute cycles covered by idle-cycle fast-forward instead of being
    /// ticked individually. Always `<= compute_cycles`; purely an
    /// instrumentation counter, deliberately *excluded* from determinism
    /// digests (a fast-forwarded run must digest identically to a
    /// cycle-by-cycle one).
    pub ff_skipped_cycles: u64,
    /// Converged rate-matched compute clock in MHz (0 when rate-matching is
    /// off).
    pub rate_match_final_mhz: f64,
    /// The DFS convergence trace: every applied adjustment as
    /// `(compute cycle, resulting clock MHz)`.
    pub rate_trace: Vec<(u64, f64)>,
}

impl CoreStats {
    /// The simulated counters by name, in declaration order: every field
    /// except the host-side `ff_skipped_cycles` and the rate-match results.
    /// This is the one list the determinism digest and the run manifest
    /// read. The pattern names every field, so a new one does not compile
    /// until it is listed here or bound to `_`.
    pub fn counters(&self) -> [(&'static str, u64); 20] {
        let CoreStats {
            instructions,
            issues,
            branches,
            divergent_branches,
            input_loads,
            local_loads,
            local_stores,
            shared_passes,
            l1_hits,
            l1_misses,
            pbuf_hits,
            demand_stalls,
            prefetches,
            demand_fetches,
            compute_cycles,
            issue_slots,
            stall_slots,
            lane_idle,
            flow_blocks,
            premature_evictions,
            ff_skipped_cycles: _,
            rate_match_final_mhz: _,
            rate_trace: _,
        } = *self;
        [
            ("instructions", instructions),
            ("issues", issues),
            ("branches", branches),
            ("divergent_branches", divergent_branches),
            ("input_loads", input_loads),
            ("local_loads", local_loads),
            ("local_stores", local_stores),
            ("shared_passes", shared_passes),
            ("l1_hits", l1_hits),
            ("l1_misses", l1_misses),
            ("pbuf_hits", pbuf_hits),
            ("demand_stalls", demand_stalls),
            ("prefetches", prefetches),
            ("demand_fetches", demand_fetches),
            ("compute_cycles", compute_cycles),
            ("issue_slots", issue_slots),
            ("stall_slots", stall_slots),
            ("lane_idle", lane_idle),
            ("flow_blocks", flow_blocks),
            ("premature_evictions", premature_evictions),
        ]
    }

    /// Fraction of issue opportunities spent stalled.
    pub fn stall_fraction(&self) -> f64 {
        if self.issue_slots == 0 {
            0.0
        } else {
            self.stall_slots as f64 / self.issue_slots as f64
        }
    }

    /// Thread-level IPC relative to issue slots.
    pub fn utilization(&self) -> f64 {
        if self.issue_slots == 0 {
            0.0
        } else {
            self.issues as f64 / self.issue_slots as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_guard_zero() {
        let s = CoreStats::default();
        assert_eq!(s.stall_fraction(), 0.0);
        assert_eq!(s.utilization(), 0.0);
    }

    #[test]
    fn fractions_compute() {
        let s = CoreStats {
            issues: 30,
            issue_slots: 100,
            stall_slots: 70,
            ..Default::default()
        };
        assert!((s.stall_fraction() - 0.7).abs() < 1e-12);
        assert!((s.utilization() - 0.3).abs() < 1e-12);
    }
}
