//! The compared architectures.

use crate::config::SimConfig;
use millipede_core::{MillipedeConfig, NodeResult};
use millipede_energy::ArchKind;
use millipede_gpgpu::GpgpuConfig;
use millipede_multicore::MulticoreConfig;
use millipede_ssmc::SsmcConfig;
use millipede_workloads::Workload;

/// Every architecture configuration the paper's figures compare.
///
/// The `Ord` derive (declaration order) keys deterministic sweep
/// collections ([`crate::runner::run_grid`]).
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
            Arch::Multicore => (ArchKind::Multicore, MulticoreConfig::default().cores),
        }
    }

    /// Runs `workload` on this architecture under `cfg`.
    pub fn run(self, workload: &Workload, cfg: &SimConfig) -> NodeResult {
        match self {
            Arch::Gpgpu | Arch::Vws | Arch::VwsRow => {
                let mut c = match self {
                    Arch::Gpgpu => GpgpuConfig::gpgpu(),
                    Arch::Vws => GpgpuConfig::vws(),
                    _ => GpgpuConfig::vws_row(),
                };
                // A wider SM keeps full-SM-wide warps (Fig. 6: GPGPU branch
                // inefficiency grows with lane count).
                if self == Arch::Gpgpu {
                    c.warp_width = cfg.corelets;
                }
                c.lanes = cfg.corelets;
                c.contexts = cfg.contexts;
                c.pbuf_entries = cfg.pbuf_entries;
                c.geometry = cfg.geometry();
                c.timing = cfg.timing();
                c.fast_forward = cfg.fast_forward;
                c.telemetry = cfg.telemetry.clone();
                millipede_gpgpu::run(workload, &c)
            }
            Arch::Ssmc => {
                let c = SsmcConfig {
                    cores: cfg.corelets,
                    contexts: cfg.contexts,
                    l1_block: cfg.row_bytes / cfg.corelets as u64,
                    geometry: cfg.geometry(),
                    timing: cfg.timing(),
                    fast_forward: cfg.fast_forward,
                    telemetry: cfg.telemetry.clone(),
                    ..SsmcConfig::default()
                };
                millipede_ssmc::run(workload, &c)
            }
            Arch::Millipede | Arch::MillipedeNoFlowControl | Arch::MillipedeNoRateMatch => {
                let mut c = match self {
                    Arch::Millipede => MillipedeConfig::default(),
                    Arch::MillipedeNoFlowControl => MillipedeConfig::no_flow_control(),
                    _ => MillipedeConfig::no_rate_match(),
                };
                c.corelets = cfg.corelets;
                c.contexts = cfg.contexts;
                c.pbuf_entries = cfg.pbuf_entries;
                c.geometry = cfg.geometry();
                c.timing = cfg.timing();
                c.fast_forward = cfg.fast_forward;
                c.telemetry = cfg.telemetry.clone();
                millipede_core::run(workload, &c)
            }
            Arch::Multicore => {
                let c = MulticoreConfig {
                    telemetry: cfg.telemetry.clone(),
                    ..MulticoreConfig::default()
                };
                millipede_multicore::run(workload, &c)
            }
        }
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
