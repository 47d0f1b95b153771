//! Fig. 3 — performance of the PNM architectures, normalized to GPGPU.
//!
//! As in the paper, the Millipede performance bar runs with flow control
//! but without rate matching: DFS is Fig. 4's energy optimization and its
//! hill-climbing transient would otherwise blur the performance isolation.

use crate::arch::Arch;
use crate::config::SimConfig;
use crate::report::{f2, geomean, Table};
use crate::runner::{sweep, RunResult};
use millipede_workloads::Benchmark;

/// The Fig. 3 sweep: `runs[bench][arch]` in `Benchmark::BMLA` ×
/// [`Arch::FIG3`] order.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// All runs.
    pub runs: Vec<Vec<RunResult>>,
}

/// Runs the Fig. 3 sweep.
pub fn run(cfg: &SimConfig) -> Fig3 {
    Fig3 {
        runs: sweep(&Benchmark::BMLA, &Arch::FIG3, cfg),
    }
}

impl Fig3 {
    /// Speedup of `arch` over GPGPU on benchmark row `bi`.
    pub fn speedup(&self, bi: usize, ai: usize) -> f64 {
        self.runs[bi][ai].speedup_over(&self.runs[bi][0])
    }

    /// Geometric-mean speedup of architecture `ai` over GPGPU.
    pub fn geomean(&self, ai: usize) -> f64 {
        geomean((0..self.runs.len()).map(|bi| self.speedup(bi, ai)))
    }

    /// Builds the speedup table.
    pub fn table(&self) -> Table {
        let mut header = vec!["Benchmark".to_string()];
        header.extend(Arch::FIG3.iter().map(|a| match a {
            Arch::MillipedeNoRateMatch => "Millipede".to_string(),
            other => other.label().to_string(),
        }));
        let mut t = Table::new(header);
        for (bi, bench) in Benchmark::BMLA.iter().enumerate() {
            let mut row = vec![bench.name().to_string()];
            row.extend((0..Arch::FIG3.len()).map(|ai| f2(self.speedup(bi, ai))));
            t.row(row);
        }
        let mut row = vec!["geomean".to_string()];
        row.extend((0..Arch::FIG3.len()).map(|ai| f2(self.geomean(ai))));
        t.row(row);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_shape_holds_on_a_small_run() {
        // Large enough that steady state dominates the prefetch warm-up
        // (tiny inputs fit entirely in the baselines' L1 lookahead and skew
        // the comparison).
        let cfg = SimConfig {
            num_chunks: 24,
            ..Default::default()
        };
        let f = run(&cfg);
        let milli = Arch::FIG3.len() - 1;
        for (bi, bench) in Benchmark::BMLA.iter().enumerate() {
            // Millipede is never slower than GPGPU, SSMC, or VWS.
            for ai in 0..Arch::FIG3.len() - 1 {
                assert!(
                    self_speedup(&f, bi, milli) >= self_speedup(&f, bi, ai) * 0.97,
                    "{}: Millipede ({:.2}) slower than {} ({:.2})",
                    bench.name(),
                    self_speedup(&f, bi, milli),
                    Arch::FIG3[ai].label(),
                    self_speedup(&f, bi, ai),
                );
            }
        }
        // Overall: Millipede ahead of GPGPU on geomean.
        assert!(f.geomean(milli) > 1.0);
    }

    fn self_speedup(f: &Fig3, bi: usize, ai: usize) -> f64 {
        f.speedup(bi, ai)
    }
}
