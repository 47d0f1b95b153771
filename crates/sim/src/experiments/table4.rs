//! Table IV — benchmark parameters and characteristics.
//!
//! Columns: dynamic instructions per input word and branches per
//! instruction (functional, architecture-independent), SSMC's row miss rate
//! (from the SSMC timing run), and the converged rate-matched clock (from
//! the full Millipede run).

use crate::arch::Arch;
use crate::config::SimConfig;
use crate::report::{f0, f3, Table};
use crate::runner::{run_many, RunResult};
use millipede_engine::{run_functional, FuncStats, DEFAULT_STEP_LIMIT};
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

/// Measures the functional characteristics of `bench`.
pub fn functional_characteristics(bench: Benchmark, cfg: &SimConfig) -> FuncStats {
    let w = Workload::build(bench, cfg.num_chunks, cfg.row_bytes, cfg.seed);
    let grid = ThreadGrid::slab(cfg.corelets, cfg.contexts);
    let mut totals = FuncStats::default();
    for c in 0..grid.corelets {
        for x in 0..grid.contexts {
            let mut ctx = w.make_ctx(&grid, c, x);
            let s = run_functional(&mut ctx, &w.program, &w.dataset.image, DEFAULT_STEP_LIMIT)
                .expect("kernel must not trap");
            totals.merge(&s);
        }
    }
    totals
}

/// Runs the Table IV measurements.
pub fn run(cfg: &SimConfig) -> Table4 {
    let pairs: Vec<(Arch, Benchmark)> = Benchmark::BMLA
        .iter()
        .flat_map(|&b| [(Arch::Ssmc, b), (Arch::Millipede, b)])
        .collect();
    let timing = run_many(&pairs, cfg);
    let rows = Benchmark::BMLA
        .iter()
        .enumerate()
        .map(|(i, &bench)| {
            let func = functional_characteristics(bench, cfg);
            let ssmc = &timing[2 * i];
            let milli = &timing[2 * i + 1];
            Row {
                bench,
                insts_per_word: func.insts_per_input_word(),
                branches_per_inst: func.branches_per_inst(),
                ssmc_row_miss_rate: ssmc.node.dram.row_miss_rate(),
                rate_match_mhz: milli.node.stats.rate_match_final_mhz,
            }
        })
        .collect();
    Table4 { rows, runs: timing }
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
        let ipw: Vec<f64> = Benchmark::BMLA
            .iter()
            .map(|&b| functional_characteristics(b, &cfg).insts_per_input_word())
            .collect();
        // Table IV lists the benchmarks in increasing insts-per-word order.
        for w in ipw.windows(2) {
            assert!(w[0] < w[1], "ordering violated: {ipw:?}");
        }
    }
}
