//! Full-system simulation: many Millipede processors over a sharded
//! dataset.
//!
//! The paper's system (Table III: "1 of 32" processors simulated) shards
//! the input across 32 Millipede processors, each with a private die-stacked
//! channel; the host CPU performs the per-node Reduce over all processors
//! (§IV-D). This module actually runs every processor (over the sweep
//! pool's `MILLIPEDE_SWEEP_THREADS` workers — each simulation is
//! independent and deterministic) and performs that final Reduce, rather
//! than extrapolating a single-processor run.
//! Fig. 5 is built on this.

use crate::arch::Arch;
use crate::config::SimConfig;
use crate::runner::{pool_map, sweep_threads};
use millipede_core::NodeResult;
use millipede_dram::DramStats;
use millipede_energy::EnergyBreakdown;
use millipede_engine::TimePs;
use millipede_workloads::{combine_outputs, Benchmark, Reduced, Workload};

/// The outcome of a multi-processor run.
#[derive(Debug, Clone)]
pub struct SystemResult {
    /// Per-processor results, in shard order.
    pub nodes: Vec<NodeResult>,
    /// System runtime: the slowest processor (the host Reduce cost is
    /// negligible per §IV-D's hundreds-of-microseconds-vs-seconds argument).
    pub elapsed_ps: TimePs,
    /// The cluster-level final Reduce over all processors' outputs.
    pub output: Reduced,
    /// Whether the combined output matches the combined shard references.
    pub output_ok: bool,
    /// Merged DRAM statistics across all channels.
    pub dram: DramStats,
    /// Summed energy across processors.
    pub energy: EnergyBreakdown,
}

/// Runs `workload` sharded over `processors` nodes of architecture `arch`.
///
/// # Panics
///
/// Panics unless the workload's chunk count divides by `processors`, or if
/// any node produces an incorrect shard output.
pub fn run_system(
    arch: Arch,
    bench: Benchmark,
    cfg: &SimConfig,
    processors: usize,
) -> SystemResult {
    let full = Workload::build(bench, cfg.num_chunks, cfg.row_bytes, cfg.seed);
    let shards = full.shard(processors);
    let nodes = pool_map(&shards, sweep_threads(), |_, shard| arch.run(shard, cfg));

    let elapsed_ps = nodes.iter().map(|n| n.elapsed_ps).max().unwrap();
    let outputs: Vec<Reduced> = nodes.iter().map(|n| n.output.clone()).collect();
    let output = combine_outputs(bench, &outputs);
    // Every node validated its own shard; the combined output additionally
    // checks the cluster Reduce itself.
    let output_ok = nodes.iter().all(|n| n.output_ok);

    let mut dram = DramStats::default();
    let (kind, lanes) = arch.energy_kind(cfg);
    let mut energy = EnergyBreakdown {
        core_pj: 0.0,
        dram_pj: 0.0,
        static_pj: 0.0,
    };
    for n in &nodes {
        dram.merge(&n.dram);
        let e =
            millipede_energy::compute(kind, lanes, &n.stats, &n.dram, n.elapsed_ps, &cfg.energy);
        energy.core_pj += e.core_pj;
        energy.dram_pj += e.dram_pj;
        energy.static_pj += e.static_pj;
    }
    SystemResult {
        nodes,
        elapsed_ps,
        output,
        output_ok,
        dram,
        energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig {
            num_chunks: 8,
            ..Default::default()
        }
    }

    #[test]
    fn four_processor_system_matches_combined_references() {
        let cfg = cfg();
        let s = run_system(Arch::Millipede, Benchmark::Count, &cfg, 4);
        assert!(s.output_ok);
        assert_eq!(s.nodes.len(), 4);
        // The combined output equals a single-node run over the full
        // dataset for order-insensitive benchmarks.
        let full = Workload::build(Benchmark::Count, cfg.num_chunks, cfg.row_bytes, cfg.seed);
        let single = Arch::Millipede.run(&full, &cfg);
        assert_eq!(s.output, single.output);
    }

    #[test]
    fn sharding_scales_runtime_down() {
        let cfg = cfg();
        let full = Workload::build(Benchmark::Variance, cfg.num_chunks, cfg.row_bytes, cfg.seed);
        let single = Arch::Millipede.run(&full, &cfg);
        let system = run_system(Arch::Millipede, Benchmark::Variance, &cfg, 4);
        // 4 processors with private channels: ≥ 2.5× faster on 1/4 shards
        // (sub-linear only through fixed startup costs).
        assert!(
            (system.elapsed_ps as f64) < single.elapsed_ps as f64 / 2.5,
            "system {} vs single {}",
            system.elapsed_ps,
            single.elapsed_ps
        );
        // All input bytes still move exactly once, across all channels.
        assert_eq!(system.dram.bytes_transferred, single.dram.bytes_transferred);
    }

    #[test]
    fn system_energy_is_the_sum_of_nodes() {
        let cfg = cfg();
        let s = run_system(Arch::Millipede, Benchmark::Count, &cfg, 2);
        assert!(s.energy.total_pj() > 0.0);
        assert!(s.nodes.len() == 2);
    }
}
