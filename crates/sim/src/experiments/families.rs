//! Workload-families comparison — the Fig. 3/Fig. 4 cross-architecture
//! sweep rerun on the graph-analytics and dense-kernel families.
//!
//! The paper's figures only ever sweep its eight regular BMLAs. This
//! experiment asks the question the paper never could: what do the three
//! Millipede optimizations do on workloads that *bracket* the BMLAs —
//! irregular graph analytics (Tesseract-style `pagerank`/`bfs`, indexed
//! vertex state + divergent frontier branches) on one side, and dense
//! regular kernels (`gemm` + the PrIM-style microkernels) on the other?
//! Per benchmark it reports runtime speedup and energy vs GPGPU across
//! all eight architecture variants ([`ARCHES`]: the Fig. 3 bar order plus
//! the full Millipede design and the conventional-multicore baseline);
//! `EXPERIMENTS.md` records the findings and `millipede-bench` pins
//! representative points.

use crate::arch::Arch;
use crate::config::SimConfig;
use crate::report::{f2, geomean, Table};
use crate::runner::{run_many, RunResult};
use millipede_workloads::Benchmark;

/// The benchmarks this experiment sweeps: both non-BMLA families, in
/// `Benchmark::ALL` order.
pub const BENCHES: [Benchmark; 6] = [
    Benchmark::Pagerank,
    Benchmark::Bfs,
    Benchmark::Gemm,
    Benchmark::StreamAdd,
    Benchmark::Reduction,
    Benchmark::Scan,
];

/// All eight architecture variants: the Fig. 3 ablation ladder, then the
/// full Millipede design, then the conventional multicore of Fig. 5.
pub const ARCHES: [Arch; 8] = [
    Arch::Gpgpu,
    Arch::Vws,
    Arch::Ssmc,
    Arch::MillipedeNoFlowControl,
    Arch::VwsRow,
    Arch::MillipedeNoRateMatch,
    Arch::Millipede,
    Arch::Multicore,
];

/// The families sweep: `runs[bench][arch]` in [`BENCHES`] × [`ARCHES`]
/// order.
#[derive(Debug, Clone)]
pub struct Families {
    /// All runs.
    pub runs: Vec<Vec<RunResult>>,
}

/// Runs the families sweep.
pub fn run(cfg: &SimConfig) -> Families {
    let pairs: Vec<(Arch, Benchmark)> = BENCHES
        .iter()
        .flat_map(|&b| ARCHES.iter().map(move |&a| (a, b)))
        .collect();
    let flat = run_many(&pairs, cfg);
    Families {
        runs: flat.chunks(ARCHES.len()).map(<[_]>::to_vec).collect(),
    }
}

impl Families {
    /// Speedup of `arch` over GPGPU on benchmark row `bi`.
    pub fn speedup(&self, bi: usize, ai: usize) -> f64 {
        self.runs[bi][ai].speedup_over(&self.runs[bi][0])
    }

    /// Energy of `(bi, ai)` relative to GPGPU on the same benchmark.
    pub fn rel_energy(&self, bi: usize, ai: usize) -> f64 {
        self.runs[bi][ai].energy_vs(&self.runs[bi][0])
    }

    /// Geometric-mean speedup of architecture `ai` over GPGPU across one
    /// family (rows `lo..hi` of [`BENCHES`]).
    pub fn geomean_range(&self, ai: usize, lo: usize, hi: usize) -> f64 {
        geomean((lo..hi).map(|bi| self.speedup(bi, ai)))
    }

    /// Builds the speedup + energy table.
    pub fn table(&self) -> Table {
        let mut header = vec!["Benchmark".to_string()];
        header.extend(ARCHES.iter().map(|a| format!("{} (spd/en)", a.label())));
        let mut t = Table::new(header);
        for (bi, bench) in BENCHES.iter().enumerate() {
            let mut row = vec![format!("{} [{}]", bench.name(), bench.family().name())];
            row.extend((0..ARCHES.len()).map(|ai| {
                format!(
                    "{}/{}",
                    f2(self.speedup(bi, ai)),
                    f2(self.rel_energy(bi, ai))
                )
            }));
            t.row(row);
        }
        for (label, lo, hi) in [("geomean graph", 0usize, 2usize), ("geomean dense", 2, 6)] {
            let mut row = vec![label.to_string()];
            row.extend((0..ARCHES.len()).map(|ai| f2(self.geomean_range(ai, lo, hi))));
            t.row(row);
        }
        t
    }

    /// Renders the comparison as a table.
    pub fn render(&self) -> String {
        self.table().render()
    }

    /// Renders the comparison as CSV.
    pub fn to_csv(&self) -> String {
        self.table().to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_sweep_runs_and_keeps_row_order() {
        let cfg = SimConfig {
            num_chunks: 4,
            ..Default::default()
        };
        let f = run(&cfg);
        assert_eq!(f.runs.len(), BENCHES.len());
        for (bi, bench) in BENCHES.iter().enumerate() {
            assert_eq!(f.runs[bi].len(), ARCHES.len());
            for (ai, arch) in ARCHES.iter().enumerate() {
                assert_eq!(f.runs[bi][ai].bench, *bench);
                assert_eq!(f.runs[bi][ai].arch, *arch);
                // run_one already asserted output_ok; speedups are finite.
                assert!(f.speedup(bi, ai).is_finite());
            }
        }
        // The render mentions every benchmark.
        let text = f.render();
        for bench in BENCHES {
            assert!(text.contains(bench.name()), "{} missing", bench.name());
        }
    }
}
