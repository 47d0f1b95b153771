//! Cross-architecture run results.

use millipede_dram::DramStats;
use millipede_engine::{CoreStats, Driven, JumpProfile, TimePs};
use millipede_mapreduce::ThreadGrid;
use millipede_telemetry::Telemetry;
use millipede_workloads::{Reduced, Workload};

/// The outcome of simulating one workload on one processor node.
///
/// Every architecture model (Millipede, SSMC, GPGPU/VWS, multicore) returns
/// this; the experiment harness compares `elapsed_ps` across architectures
/// (Fig. 3, 5–7) and feeds the statistics to the energy model (Fig. 4).
#[derive(Debug, Clone)]
pub struct NodeResult {
    /// Compute-side statistics.
    pub stats: CoreStats,
    /// DRAM channel statistics.
    pub dram: DramStats,
    /// Simulated wall-clock time.
    pub elapsed_ps: TimePs,
    /// The host-reduced output of the run.
    pub output: Reduced,
    /// Whether `output` matched the workload's golden reference — a full
    /// end-to-end functional check of the timing simulation.
    pub output_ok: bool,
    /// Recorded telemetry (an empty no-op sink unless the run's
    /// [`millipede_telemetry::TelemetryConfig`] enabled it). Excluded from
    /// determinism digests exactly like `ff_skipped_cycles`.
    pub telemetry: Telemetry,
    /// Fast-forward jump counters (all zero with fast-forward off). Host
    /// observability for run manifests; excluded from determinism digests
    /// exactly like `ff_skipped_cycles`.
    pub profile: JumpProfile,
}

impl NodeResult {
    /// The result of a driven run of `workload` on `grid`: reduces the
    /// threads' final live `states` (in the grid's corelet-major order),
    /// checks the output against the workload's reference, and records
    /// the run's cycles, end time and jump counters from `driven`.
    pub fn finish(
        workload: &Workload,
        grid: &ThreadGrid,
        states: &[&[u32]],
        mut stats: CoreStats,
        dram: DramStats,
        driven: Driven,
        telemetry: Telemetry,
    ) -> NodeResult {
        stats.compute_cycles = driven.cycles;
        let output = workload.reduce(states);
        let output_ok = output == workload.reference(grid);
        NodeResult {
            stats,
            dram,
            elapsed_ps: driven.last_time,
            output,
            output_ok,
            telemetry,
            profile: driven.profile,
        }
    }

    /// Simulated runtime in microseconds.
    pub fn runtime_us(&self) -> f64 {
        self.elapsed_ps as f64 / 1e6
    }

    /// This node's speedup over `baseline` (>1 means this node is faster).
    pub fn speedup_over(&self, baseline: &NodeResult) -> f64 {
        baseline.elapsed_ps as f64 / self.elapsed_ps as f64
    }

    /// Achieved DRAM bandwidth in GB/s.
    pub fn dram_bandwidth_gbps(&self) -> f64 {
        self.dram.bandwidth_gbps(self.elapsed_ps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(elapsed_ps: TimePs) -> NodeResult {
        NodeResult {
            stats: CoreStats::default(),
            dram: DramStats::default(),
            elapsed_ps,
            output: Reduced::Ints(vec![]),
            output_ok: true,
            telemetry: Telemetry::off(),
            profile: JumpProfile::default(),
        }
    }

    #[test]
    fn speedup_and_runtime() {
        let fast = result(1_000_000);
        let slow = result(2_000_000);
        assert!((fast.speedup_over(&slow) - 2.0).abs() < 1e-12);
        assert!((slow.speedup_over(&fast) - 0.5).abs() < 1e-12);
        assert!((fast.runtime_us() - 1.0).abs() < 1e-12);
    }
}
