//! Variable Warp Sizing's dynamic width selection \[41\].
//!
//! "Because narrower GPGPU warps lose less performance in the presence of
//! branch divergence and wider warps achieve lower energy otherwise, VWS
//! dynamically chooses between 4-wide and 32-wide warps based on branch
//! divergence" (§V). This module implements that choice: it probes a short
//! prefix of the workload at both widths and picks narrow warps whenever
//! divergence costs measurable time, falling back to wide warps for their
//! fetch-amortization energy advantage otherwise — exactly the trade the
//! paper describes.
//!
//! On the divergent BMLA kernels the probe picks 4-wide (the paper observes
//! "VWS always chooses 4-wide warps"); on kernels whose divergence hides
//! behind memory-boundedness either width performs identically and the
//! probe keeps the wide, energy-cheaper configuration. The evaluation
//! figures use the converged [`GpgpuConfig::vws`] configuration directly;
//! this module demonstrates the selection mechanism itself.

use crate::{run, GpgpuConfig};
use millipede_core::NodeResult;
use millipede_energy::{ArchKind, EnergyParams};
use millipede_workloads::Workload;

/// The narrow width VWS switches to under divergence.
pub const NARROW: usize = 4;
/// Narrow warps are chosen when they beat wide warps by more than this
/// fraction of runtime (below it, the wide warp's energy advantage rules).
pub const PERF_MARGIN: f64 = 0.02;

/// The outcome of the width probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VwsChoice {
    /// The chosen warp width.
    pub width: usize,
    /// Probe runtime at the narrow width (ps).
    pub narrow_ps: u64,
    /// Probe runtime at the full width (ps).
    pub wide_ps: u64,
    /// Probe energy-delay at the narrow width (pJ·s).
    pub narrow_edp: f64,
    /// Probe energy-delay at the full width (pJ·s).
    pub wide_edp: f64,
}

fn probe_workload(workload: &Workload) -> Workload {
    let chunks = workload.dataset.layout.num_chunks;
    if chunks <= 2 {
        return workload.clone();
    }
    // Probe on the first shard of ~2 chunks (steady-state behaviour is
    // chunk-periodic, so a short prefix is representative).
    let shards = if chunks.is_multiple_of(2) {
        workload.shard(chunks / 2)
    } else {
        workload.shard(chunks)
    };
    // audit:allow(unwrap-in-hot-path): shard() yields one shard per corelet, never zero
    shards.into_iter().next().expect("at least one shard")
}

fn edp_of(workload: &Workload, cfg: &GpgpuConfig, energy: &EnergyParams) -> (f64, NodeResult) {
    let r = run(workload, cfg);
    let e = millipede_energy::compute(
        ArchKind::Gpgpu,
        cfg.lanes,
        &r.stats,
        &r.dram,
        r.elapsed_ps,
        energy,
    );
    (e.edp(r.elapsed_ps), r)
}

/// Probes both widths on a prefix of `workload` and returns the chosen
/// width.
pub fn choose_width(workload: &Workload, base: &GpgpuConfig, energy: &EnergyParams) -> VwsChoice {
    let probe = probe_workload(workload);
    let narrow_cfg = GpgpuConfig {
        warp_width: NARROW,
        ..base.clone()
    };
    let wide_cfg = GpgpuConfig {
        warp_width: base.lanes,
        ..base.clone()
    };
    let (narrow_edp, narrow_run) = edp_of(&probe, &narrow_cfg, energy);
    let (wide_edp, wide_run) = edp_of(&probe, &wide_cfg, energy);
    let divergence_pays =
        (narrow_run.elapsed_ps as f64) < wide_run.elapsed_ps as f64 * (1.0 - PERF_MARGIN);
    VwsChoice {
        width: if divergence_pays { NARROW } else { base.lanes },
        narrow_ps: narrow_run.elapsed_ps,
        wide_ps: wide_run.elapsed_ps,
        narrow_edp,
        wide_edp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use millipede_isa::reg::{r, Reg};
    use millipede_isa::AddrSpace;
    use millipede_mapreduce::{Dataset, InterleavedLayout};
    use millipede_workloads::skeleton::{emit_single_field_kernel, R_ADDR};
    use millipede_workloads::{Benchmark, Workload};

    #[test]
    fn divergent_benchmarks_choose_narrow_warps() {
        // The paper: "VWS (with prefetch) always chooses 4-wide warps for
        // better branch handling". At our calibration point the left-side
        // kernels' divergence costs real time, so the probe goes narrow;
        // kernels whose divergence hides behind memory-boundedness are
        // width-indifferent (and keep the energy-cheaper wide warps).
        let energy = EnergyParams::default();
        for bench in [Benchmark::Count, Benchmark::Variance] {
            let w = Workload::build(bench, 4, 2048, 7);
            let c = choose_width(&w, &GpgpuConfig::gpgpu(), &energy);
            assert_eq!(
                c.width,
                NARROW,
                "{}: narrow {}ps vs wide {}ps",
                bench.name(),
                c.narrow_ps,
                c.wide_ps
            );
        }
    }

    #[test]
    fn a_branchless_kernel_chooses_wide_warps() {
        // Uniform code has no divergence, so the wide warp's fetch
        // amortization wins on energy at equal performance.
        let base = Workload::build(Benchmark::Count, 4, 2048, 7);
        let program = emit_single_field_kernel(
            "branchless",
            |_| {},
            |b| {
                b.ld(r(10), R_ADDR, 0, AddrSpace::Input);
                b.ld(r(11), Reg::ZERO, 0, AddrSpace::Local);
                b.alu(millipede_isa::AluOp::Add, r(11), r(11), r(10));
                b.st_local(r(11), Reg::ZERO, 0);
            },
        );
        let layout = InterleavedLayout::new(1, 2048, 4);
        let dataset = Dataset::generate(layout, |i| vec![i as u32 & 0xff]);
        let w = Workload {
            program,
            dataset,
            live_bytes: 64,
            live_init: Vec::new(),
            ..base
        };
        // The branchless kernel has a different reduce contract, so run the
        // probe directly instead of the full validated runner.
        let energy = EnergyParams::default();
        let c = choose_width(&w, &GpgpuConfig::gpgpu(), &energy);
        assert_eq!(
            c.width, 32,
            "narrow {} vs wide {}",
            c.narrow_edp, c.wide_edp
        );
    }
}
