//! Table IV — benchmark parameters and characteristics.
//!
//! Columns: dynamic instructions per input word and branches per
//! instruction (functional, architecture-independent), SSMC's row miss rate
//! (from the SSMC timing run), and the converged rate-matched clock (from
//! the full Millipede run).

use crate::arch::Arch;
use crate::config::SimConfig;
use crate::report::{f0, f3, Table};
use crate::runner::{sweep, RunResult};
use millipede_engine::DEFAULT_STEP_LIMIT;
use millipede_mapreduce::ThreadGrid;
use millipede_workloads::{Benchmark, Workload};

/// One Table IV row.
#[derive(Debug, Clone)]
pub struct Row {
    /// The benchmark.
    pub bench: Benchmark,
    /// Dynamic instructions per input word.
    pub insts_per_word: f64,
    /// Branches per instruction.
    pub branches_per_inst: f64,
    /// SSMC's row miss rate.
    pub ssmc_row_miss_rate: f64,
    /// Millipede's converged rate-matched clock in MHz.
    pub rate_match_mhz: f64,
}

/// The regenerated Table IV.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// One row per benchmark, in Table IV order.
    pub rows: Vec<Row>,
    /// The underlying timing runs (`[SSMC, Millipede]` per benchmark),
    /// retained so the binaries can profile the sweep.
    pub runs: Vec<RunResult>,
}

/// Runs the Table IV measurements.
pub fn run(cfg: &SimConfig) -> Table4 {
    let timing = sweep(&Benchmark::BMLA, &[Arch::Ssmc, Arch::Millipede], cfg);
    let grid = ThreadGrid::slab(cfg.corelets, cfg.contexts);
    let rows = Benchmark::BMLA
        .iter()
        .zip(&timing)
        .map(|(&bench, runs)| {
            let w = Workload::build(bench, cfg.num_chunks, cfg.row_bytes, cfg.seed);
            let func = w
                .run_functional(&grid, DEFAULT_STEP_LIMIT)
                .unwrap_or_else(|t| panic!("{}: {t}", bench.name()))
                .stats;
            let (ssmc, milli) = (&runs[0], &runs[1]);
            Row {
                bench,
                insts_per_word: func.insts_per_input_word(),
                branches_per_inst: func.branches_per_inst(),
                ssmc_row_miss_rate: ssmc.node.dram.row_miss_rate(),
                rate_match_mhz: milli.node.stats.rate_match_final_mhz,
            }
        })
        .collect();
    Table4 {
        rows,
        runs: timing.into_iter().flatten().collect(),
    }
}

impl Table4 {
    /// Builds the table in the paper's column layout.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "Benchmark",
            "insts/word",
            "branches/inst",
            "SSMC row miss rate",
            "Rate-match clock (MHz)",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.bench.name().to_string(),
                format!("{:.1}", r.insts_per_word),
                f3(r.branches_per_inst),
                f3(r.ssmc_row_miss_rate),
                f0(r.rate_match_mhz),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characteristics_are_ordered_like_the_paper() {
        let cfg = SimConfig {
            num_chunks: 2,
            ..Default::default()
        };
        let grid = ThreadGrid::slab(cfg.corelets, cfg.contexts);
        let ipw: Vec<f64> = Benchmark::BMLA
            .iter()
            .map(|&b| {
                let w = Workload::build(b, cfg.num_chunks, cfg.row_bytes, cfg.seed);
                let run = w.run_functional(&grid, DEFAULT_STEP_LIMIT).unwrap();
                run.stats.insts_per_input_word()
            })
            .collect();
        // Table IV lists the benchmarks in increasing insts-per-word order.
        for w in ipw.windows(2) {
            assert!(w[0] < w[1], "ordering violated: {ipw:?}");
        }
    }
}
