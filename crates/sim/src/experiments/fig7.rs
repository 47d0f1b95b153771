//! Fig. 7 — speedup versus prefetch-buffer count.
//!
//! Sweeps Millipede's prefetch-buffer entries over 2/4/8/16/32 and reports
//! performance normalized to the 2-entry configuration. More buffers absorb
//! more cross-corelet work imbalance; the paper observes performance
//! leveling off around 32 entries.

use crate::arch::Arch;
use crate::config::SimConfig;
use crate::report::{f2, geomean, Table};
use crate::runner::{run_many, RunResult};
use millipede_workloads::Benchmark;

/// The swept buffer counts (paper's x-axis).
pub const COUNTS: [usize; 5] = [2, 4, 8, 16, 32];

/// The Fig. 7 sweep: `runs[count][bench]`.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// All runs, indexed `[buffer-count][bench]`.
    pub runs: Vec<Vec<RunResult>>,
}

/// Runs the Fig. 7 sweep (rate matching off, isolating performance).
pub fn run(cfg: &SimConfig) -> Fig7 {
    let mut runs = Vec::new();
    for &count in &COUNTS {
        let swept = SimConfig {
            pbuf_entries: count,
            ..cfg.clone()
        };
        let pairs: Vec<(Arch, Benchmark)> = Benchmark::BMLA
            .iter()
            .map(|&b| (Arch::MillipedeNoRateMatch, b))
            .collect();
        runs.push(run_many(&pairs, &swept));
    }
    Fig7 { runs }
}

impl Fig7 {
    /// Speedup of buffer-count index `ci` on benchmark `bi`, normalized to
    /// the 2-entry configuration.
    pub fn speedup(&self, ci: usize, bi: usize) -> f64 {
        self.runs[ci][bi].speedup_over(&self.runs[0][bi])
    }

    /// Geometric-mean speedup of buffer-count index `ci`.
    pub fn geomean(&self, ci: usize) -> f64 {
        geomean((0..self.runs[ci].len()).map(|bi| self.speedup(ci, bi)))
    }

    /// Builds the sweep table.
    pub fn table(&self) -> Table {
        let mut header = vec!["Benchmark".to_string()];
        header.extend(COUNTS.iter().map(|c| format!("{c} buffers")));
        let mut t = Table::new(header);
        for (bi, bench) in Benchmark::BMLA.iter().enumerate() {
            let mut row = vec![bench.name().to_string()];
            row.extend((0..COUNTS.len()).map(|ci| f2(self.speedup(ci, bi))));
            t.row(row);
        }
        let mut row = vec!["geomean".to_string()];
        row.extend((0..COUNTS.len()).map(|ci| f2(self.geomean(ci))));
        t.row(row);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_buffers_monotonically_help_and_level_off() {
        let cfg = SimConfig {
            num_chunks: 8,
            ..Default::default()
        };
        let f = run(&cfg);
        #[allow(clippy::needless_range_loop)]
        for ci in 1..COUNTS.len() {
            assert!(
                f.geomean(ci) >= f.geomean(ci - 1) * 0.995,
                "{} buffers regressed: {:.3} vs {:.3}",
                COUNTS[ci],
                f.geomean(ci),
                f.geomean(ci - 1)
            );
        }
        // The 16→32 step is smaller than the 2→4 step (leveling off).
        let first_step = f.geomean(1) / f.geomean(0);
        let last_step = f.geomean(4) / f.geomean(3);
        assert!(
            last_step <= first_step + 1e-9,
            "no leveling off: first {first_step:.3}, last {last_step:.3}"
        );
    }
}
