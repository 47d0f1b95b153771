//! Simulation configuration.
//!
//! [`SimConfig`] is plain data: its default never reads the process
//! environment, so a run's configuration is exactly what its caller wrote.
//! [`crate::arch`] maps it onto each model family's configuration.

use millipede_dram::{DramGeometry, DramTiming};
use millipede_energy::EnergyParams;
use millipede_telemetry::TelemetryConfig;

/// Parameters of one simulated comparison point.
///
/// Everything the paper holds constant across architectures lives here so
/// the experiments cannot accidentally compare apples to oranges.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Input size in chunks (each chunk = one row of records per field;
    /// 512 records with 2 KB rows). The paper uses 128 MB inputs and argues
    /// steady state is reached long before that (§V); our default reaches
    /// steady state in a few dozen chunks.
    pub num_chunks: usize,
    /// Dataset generator seed.
    pub seed: u64,
    /// DRAM row bytes (Table III: 2048).
    pub row_bytes: u64,
    /// Corelets / lanes / cores per processor (Table III: 32; Fig. 6
    /// doubles it).
    pub corelets: usize,
    /// Hardware contexts per corelet (Table III: 4).
    pub contexts: usize,
    /// Memory-bandwidth multiplier (Fig. 6 doubles bandwidth with cores).
    pub bandwidth_factor: u32,
    /// Millipede / VWS-row prefetch-buffer entries (Table III: 16; Fig. 7
    /// sweeps it).
    pub pbuf_entries: usize,
    /// Energy-model constants.
    pub energy: EnergyParams,
    /// Idle-cycle fast-forward in every event-driven timing model
    /// (bit-exact; see DESIGN.md). On by default; off walks every compute
    /// edge, the schedule the differential tests compare against.
    pub fast_forward: bool,
    /// Cycle-domain telemetry for every model (off by default; the bench
    /// binaries' `--trace-out` and `--telemetry-epoch` turn it on).
    /// Observational only: determinism digests are bit-identical on or
    /// off.
    pub telemetry: TelemetryConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            num_chunks: 48,
            seed: 42,
            row_bytes: 2048,
            corelets: 32,
            contexts: 4,
            bandwidth_factor: 1,
            pbuf_entries: 16,
            energy: EnergyParams::default(),
            fast_forward: true,
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl SimConfig {
    /// The DRAM geometry shared by every architecture.
    pub fn geometry(&self) -> DramGeometry {
        DramGeometry {
            row_bytes: self.row_bytes,
            ..DramGeometry::default()
        }
    }

    /// The DRAM timing shared by every architecture (with the Fig. 6
    /// bandwidth factor applied).
    pub fn timing(&self) -> DramTiming {
        DramTiming::default().scale_bandwidth(self.bandwidth_factor)
    }

    /// Records in the dataset for a given record arity.
    pub fn records(&self) -> usize {
        self.num_chunks * (self.row_bytes / 4) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_defaults() {
        let c = SimConfig::default();
        assert_eq!(c.corelets, 32);
        assert_eq!(c.contexts, 4);
        assert_eq!(c.pbuf_entries, 16);
        assert_eq!(c.row_bytes, 2048);
        assert_eq!(c.records(), 48 * 512);
    }

    #[test]
    fn bandwidth_factor_scales_timing() {
        let c = SimConfig {
            bandwidth_factor: 2,
            ..Default::default()
        };
        assert_eq!(c.timing().width_bits, 2 * DramTiming::default().width_bits);
    }
}
