//! Cross-architecture run results.

use millipede_dram::DramStats;
use millipede_engine::{CoreStats, JumpProfile, TimePs};
use millipede_telemetry::Telemetry;
use millipede_workloads::Reduced;

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
