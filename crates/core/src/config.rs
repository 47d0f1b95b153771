//! Millipede processor configuration (Table III defaults).

use millipede_dram::{DramGeometry, DramTiming};
use millipede_telemetry::TelemetryConfig;

/// Local memory per corelet in bytes (Table III: 4 KB), partitioned across
/// the corelet's contexts: a workload whose live state × contexts exceeds
/// it cannot run.
pub const LOCAL_BYTES_PER_CORELET: usize = 4096;

/// Default minimum compute cycles between DFS adjustments.
pub const DEFAULT_RATE_COOLDOWN: u64 = 256;

/// Configuration of one Millipede processor and its DRAM channel.
///
/// Holds only what a caller varies; the Table III values every run shares
/// are constants: the compute clock ([`millipede_engine::COMPUTE_MHZ`]), the
/// FR-FCFS queue depth ([`millipede_dram::QUEUE_DEPTH`]), the local memory
/// ([`LOCAL_BYTES_PER_CORELET`]), and the deadlock guard
/// ([`millipede_engine::MAX_IDLE_CYCLES`]).
#[derive(Debug, Clone)]
pub struct MillipedeConfig {
    /// Corelets per processor (Table III: 32).
    pub corelets: usize,
    /// Hardware thread contexts per corelet (Table III: 4).
    pub contexts: usize,
    /// Prefetch-buffer entries (Table III: 16 × 64 B per corelet, i.e. 16
    /// row entries processor-wide).
    pub pbuf_entries: usize,
    /// Cross-corelet flow control (§IV-C); off = the paper's
    /// `Millipede-no-flow-control` ablation.
    pub flow_control: bool,
    /// Compute–memory rate matching (§IV-F); off = the paper's
    /// `Millipede-no-rate-match` ablation.
    pub rate_match: bool,
    /// Minimum compute cycles between DFS adjustments.
    pub rate_cooldown: u64,
    /// DRAM channel geometry.
    pub geometry: DramGeometry,
    /// DRAM channel timing.
    pub timing: DramTiming,
    /// Run the runtime invariant sanitizer ([`crate::audit`]): DF-counter
    /// monotonicity, flow-control head protection, blocked-trigger
    /// liveness, DRAM tRC spacing, and per-domain clock monotonicity.
    /// Defaults to on in debug builds, off in release.
    pub invariant_checks: bool,
    /// Use the slab-interleaved ("wide column") record assignment. The
    /// paper notes Millipede tolerates wider columns ("Millipede can use
    /// wider columns for layout flexibility", §IV-C): the corelet still
    /// consumes its own 64 B slab either way.
    pub wide_columns: bool,
    /// Idle-cycle fast-forward: when a compute edge is proven quiescent
    /// (no issue, no observable state change), jump the clock to the memory
    /// controller's next event instead of ticking cycle-by-cycle. Results
    /// are bit-identical either way (see DESIGN.md); off reproduces the
    /// original cycle-by-cycle schedule for differential testing.
    pub fast_forward: bool,
    /// Cycle-domain telemetry (off by default). Purely observational:
    /// results and determinism digests are bit-identical with telemetry on
    /// or off.
    pub telemetry: TelemetryConfig,
}

impl Default for MillipedeConfig {
    fn default() -> Self {
        MillipedeConfig {
            corelets: 32,
            contexts: 4,
            pbuf_entries: 16,
            flow_control: true,
            rate_match: true,
            rate_cooldown: DEFAULT_RATE_COOLDOWN,
            geometry: DramGeometry::default(),
            timing: DramTiming::default(),
            invariant_checks: cfg!(debug_assertions),
            wide_columns: false,
            fast_forward: true,
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl MillipedeConfig {
    /// The Fig. 3 ablation: row-orientedness without flow control.
    pub fn no_flow_control() -> Self {
        MillipedeConfig {
            flow_control: false,
            rate_match: false,
            ..Default::default()
        }
    }

    /// The Fig. 4 ablation: flow control without rate matching.
    pub fn no_rate_match() -> Self {
        MillipedeConfig {
            rate_match: false,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_iii() {
        let c = MillipedeConfig::default();
        assert_eq!(c.corelets, 32);
        assert_eq!(c.contexts, 4);
        assert_eq!(c.pbuf_entries, 16);
        assert_eq!(LOCAL_BYTES_PER_CORELET, 4096);
        assert!(c.flow_control);
        assert!(c.rate_match);
    }

    #[test]
    fn ablation_constructors() {
        assert!(!MillipedeConfig::no_flow_control().flow_control);
        assert!(!MillipedeConfig::no_rate_match().rate_match);
        assert!(MillipedeConfig::no_rate_match().flow_control);
    }
}
