//! Fig. 5 — Millipede versus the conventional multicore.
//!
//! The paper compares a full 32-processor Millipede system (4096 threads)
//! against one 8-core out-of-order multicore over the same dataset. Unlike
//! the single-node figures, this experiment *actually simulates all 32
//! processors* over a sharded dataset ([`crate::system`]) and lets the host
//! perform the cluster-level final Reduce; the multicore runs the full
//! (unsharded) dataset through the coarse model of `millipede-multicore`
//! (documented in DESIGN.md) — the paper itself flags this comparison as
//! dominated by thread count and off-chip memory energy.
//!
//! To keep 32-node simulation tractable the per-node shard is
//! `cfg.num_chunks / SHARD_DIVISOR` chunks (total dataset =
//! 32 × per-node).

use crate::arch::Arch;
use crate::config::SimConfig;
use crate::report::{f2, geomean, Table};
use crate::runner::run_one;
use crate::system::{run_system, SystemResult};
use millipede_workloads::Benchmark;

/// Millipede processors in the full system (Table III: 32).
pub const MILLIPEDE_PROCESSORS: usize = 32;
/// Per-node shard = `cfg.num_chunks / SHARD_DIVISOR` (min 2).
pub const SHARD_DIVISOR: usize = 8;

/// One Fig. 5 comparison row.
#[derive(Debug, Clone)]
pub struct Row {
    /// The benchmark.
    pub bench: Benchmark,
    /// 32-processor Millipede speedup over the multicore.
    pub speedup: f64,
    /// Multicore energy ÷ Millipede-system energy.
    pub energy_ratio: f64,
    /// Multicore EDP ÷ Millipede-system EDP.
    pub edp_ratio: f64,
}

/// The Fig. 5 results.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Rows in benchmark order.
    pub rows: Vec<Row>,
    /// The underlying system runs per benchmark.
    pub systems: Vec<SystemResult>,
}

/// Runs the Fig. 5 comparison.
pub fn run(cfg: &SimConfig) -> Fig5 {
    let per_node = (cfg.num_chunks / SHARD_DIVISOR).max(2);
    let full_cfg = SimConfig {
        num_chunks: per_node * MILLIPEDE_PROCESSORS,
        ..cfg.clone()
    };
    let mut rows = Vec::new();
    let mut systems = Vec::new();
    for &bench in &Benchmark::BMLA {
        let system = run_system(Arch::Millipede, bench, &full_cfg, MILLIPEDE_PROCESSORS);
        assert!(system.output_ok, "{}: bad system output", bench.name());
        let mc = run_one(Arch::Multicore, bench, &full_cfg);

        let milli_time = system.elapsed_ps as f64;
        let mc_time = mc.node.elapsed_ps as f64;
        let milli_energy = system.energy.total_pj();
        let mc_energy = mc.energy.total_pj();
        rows.push(Row {
            bench,
            speedup: mc_time / milli_time,
            energy_ratio: mc_energy / milli_energy,
            edp_ratio: (mc_energy * mc_time) / (milli_energy * milli_time),
        });
        systems.push(system);
    }
    Fig5 { rows, systems }
}

impl Fig5 {
    /// Geometric mean of a row metric.
    fn geomean(&self, f: impl Fn(&Row) -> f64) -> f64 {
        geomean(self.rows.iter().map(f))
    }

    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "Benchmark",
            "Speedup (32-proc Millipede / multicore)",
            "Energy ratio (multicore / Millipede)",
            "EDP ratio",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.bench.name().to_string(),
                f2(r.speedup),
                f2(r.energy_ratio),
                f2(r.edp_ratio),
            ]);
        }
        t.row(vec![
            "geomean".to_string(),
            f2(self.geomean(|r| r.speedup)),
            f2(self.geomean(|r| r.energy_ratio)),
            f2(self.geomean(|r| r.edp_ratio)),
        ]);
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn millipede_system_dominates_the_multicore() {
        let cfg = SimConfig {
            num_chunks: 16, // → 2 chunks per node × 32 nodes
            ..Default::default()
        };
        let f = run(&cfg);
        for r in &f.rows {
            assert!(r.speedup > 3.0, "{}: speedup {}", r.bench.name(), r.speedup);
            assert!(
                r.energy_ratio > 2.0,
                "{}: energy ratio {}",
                r.bench.name(),
                r.energy_ratio
            );
            assert!(
                r.edp_ratio > 10.0,
                "{}: edp {}",
                r.bench.name(),
                r.edp_ratio
            );
        }
    }
}
