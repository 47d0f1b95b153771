//! The compared architectures.

use crate::config::SimConfig;
use millipede_core::{MillipedeConfig, NodeResult, DEFAULT_RATE_COOLDOWN};
use millipede_dram::QUEUE_DEPTH;
use millipede_energy::ArchKind;
use millipede_gpgpu::vws::NARROW;
use millipede_gpgpu::GpgpuConfig;
use millipede_multicore::MulticoreConfig;
use millipede_ssmc::SsmcConfig;
use millipede_workloads::Workload;

/// Every architecture configuration the paper's figures compare.
///
/// The `Ord` derive (declaration order) keys deterministic collections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Arch {
    /// 32-wide-warp GPGPU SM with cache-block prefetch.
    Gpgpu,
    /// Variable Warp Sizing at its converged 4-wide point.
    Vws,
    /// Plain sea-of-simple-MIMD-cores with cache-block prefetch.
    Ssmc,
    /// Millipede with row-orientedness but no flow control (Fig. 3
    /// ablation).
    MillipedeNoFlowControl,
    /// VWS with row-orientedness and flow control grafted on.
    VwsRow,
    /// Millipede without rate matching (Fig. 4 ablation).
    MillipedeNoRateMatch,
    /// Full Millipede (flow control + rate matching).
    Millipede,
    /// The conventional 8-core out-of-order multicore (Fig. 5).
    Multicore,
}

impl Arch {
    /// The architectures of Fig. 3, in its bar order. The paper's Fig. 3
    /// isolates row-orientedness and flow control; rate matching is the
    /// energy knob analyzed in Fig. 4 ("Millipede's rate-matching is an
    /// energy optimization analyzed next", §VI-A), so the Millipede bar
    /// here runs without DFS.
    pub const FIG3: [Arch; 6] = [
        Arch::Gpgpu,
        Arch::Vws,
        Arch::Ssmc,
        Arch::MillipedeNoFlowControl,
        Arch::VwsRow,
        Arch::MillipedeNoRateMatch,
    ];

    /// The architectures of Fig. 4, in its bar order.
    pub const FIG4: [Arch; 6] = [
        Arch::Gpgpu,
        Arch::Vws,
        Arch::Ssmc,
        Arch::VwsRow,
        Arch::MillipedeNoRateMatch,
        Arch::Millipede,
    ];

    /// Display label (matching the paper's legends).
    pub fn label(self) -> &'static str {
        match self {
            Arch::Gpgpu => "GPGPU",
            Arch::Vws => "VWS",
            Arch::Ssmc => "SSMC",
            Arch::MillipedeNoFlowControl => "Millipede-no-flow-control",
            Arch::VwsRow => "VWS-row",
            Arch::MillipedeNoRateMatch => "Millipede-no-rate-match",
            Arch::Millipede => "Millipede",
            Arch::Multicore => "multicore",
        }
    }

    /// The energy model's structural kind and lane count.
    pub fn energy_kind(self, cfg: &SimConfig) -> (ArchKind, usize) {
        match self {
            Arch::Gpgpu | Arch::Vws | Arch::VwsRow => (ArchKind::Gpgpu, cfg.corelets),
            Arch::Ssmc => (ArchKind::Ssmc, cfg.corelets),
            Arch::Millipede | Arch::MillipedeNoFlowControl | Arch::MillipedeNoRateMatch => {
                (ArchKind::Millipede, cfg.corelets)
            }
            Arch::Multicore => (ArchKind::Multicore, millipede_multicore::CORES),
        }
    }

    /// Runs `workload` on this architecture under `cfg`.
    pub fn run(self, workload: &Workload, cfg: &SimConfig) -> NodeResult {
        match self {
            // A wider SM keeps full-SM-wide warps (Fig. 6: GPGPU branch
            // inefficiency grows with lane count).
            Arch::Gpgpu => millipede_gpgpu::run(workload, &gpgpu_config(cfg, cfg.corelets, false)),
            Arch::Vws => millipede_gpgpu::run(workload, &gpgpu_config(cfg, NARROW, false)),
            Arch::VwsRow => millipede_gpgpu::run(workload, &gpgpu_config(cfg, NARROW, true)),
            Arch::Ssmc => millipede_ssmc::run(workload, &ssmc_config(cfg)),
            Arch::MillipedeNoFlowControl => {
                millipede_core::run(workload, &millipede_config(cfg, false, false))
            }
            Arch::MillipedeNoRateMatch => {
                millipede_core::run(workload, &millipede_config(cfg, true, false))
            }
            Arch::Millipede => millipede_core::run(workload, &millipede_config(cfg, true, true)),
            Arch::Multicore => millipede_multicore::run(workload, &multicore_config(cfg)),
        }
    }
}

// The one `SimConfig` → model-config mapping per model family. `Arch::run`
// and every ablation build their configs here, so a swept value or an
// observation switch (`fast_forward`, `telemetry`) reaches every run the
// same way. Each field is spelled out: a new model-config field fails to
// compile here until it is mapped.

/// The Millipede family's configuration: the three variants differ only in
/// `flow_control` (off = `Millipede-no-flow-control`, Fig. 3) and
/// `rate_match` (off = `Millipede-no-rate-match`, Fig. 4).
pub fn millipede_config(cfg: &SimConfig, flow_control: bool, rate_match: bool) -> MillipedeConfig {
    MillipedeConfig {
        corelets: cfg.corelets,
        contexts: cfg.contexts,
        pbuf_entries: cfg.pbuf_entries,
        flow_control,
        rate_match,
        rate_cooldown: DEFAULT_RATE_COOLDOWN,
        geometry: cfg.geometry(),
        timing: cfg.timing(),
        invariant_checks: cfg!(debug_assertions),
        wide_columns: false,
        fast_forward: cfg.fast_forward,
        telemetry: cfg.telemetry.clone(),
    }
}

/// The GPGPU family's configuration: GPGPU runs SM-wide warps, VWS and
/// VWS-row the converged [`NARROW`] width, and VWS-row alone takes the
/// `row_oriented` input path.
pub fn gpgpu_config(cfg: &SimConfig, warp_width: usize, row_oriented: bool) -> GpgpuConfig {
    GpgpuConfig {
        lanes: cfg.corelets,
        contexts: cfg.contexts,
        warp_width,
        row_oriented,
        wide_columns: false,
        pbuf_entries: cfg.pbuf_entries,
        geometry: cfg.geometry(),
        timing: cfg.timing(),
        fast_forward: cfg.fast_forward,
        telemetry: cfg.telemetry.clone(),
    }
}

/// SSMC's configuration. The L1 line is one slab (DESIGN.md): a row split
/// evenly over the cores.
pub fn ssmc_config(cfg: &SimConfig) -> SsmcConfig {
    SsmcConfig {
        cores: cfg.corelets,
        contexts: cfg.contexts,
        l1_bytes: millipede_ssmc::L1_BYTES,
        l1_block: cfg.row_bytes / cfg.corelets as u64,
        l1_assoc: millipede_ssmc::L1_ASSOC,
        geometry: cfg.geometry(),
        timing: cfg.timing(),
        dram_queue: QUEUE_DEPTH,
        fast_forward: cfg.fast_forward,
        telemetry: cfg.telemetry.clone(),
    }
}

/// The multicore reference's configuration: the machine is fixed, only
/// the observation varies.
pub fn multicore_config(cfg: &SimConfig) -> MulticoreConfig {
    MulticoreConfig {
        telemetry: cfg.telemetry.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use millipede_workloads::Benchmark;

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = Arch::FIG3.iter().map(|a| a.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn every_arch_runs_count_correctly() {
        let cfg = SimConfig {
            num_chunks: 2,
            ..Default::default()
        };
        let w = Workload::build(Benchmark::Count, cfg.num_chunks, cfg.row_bytes, cfg.seed);
        for arch in [
            Arch::Gpgpu,
            Arch::Vws,
            Arch::Ssmc,
            Arch::MillipedeNoFlowControl,
            Arch::VwsRow,
            Arch::MillipedeNoRateMatch,
            Arch::Millipede,
            Arch::Multicore,
        ] {
            let r = arch.run(&w, &cfg);
            assert!(r.output_ok, "{} produced a wrong answer", arch.label());
            assert!(r.elapsed_ps > 0);
        }
    }
}
