//! Fig. 6 — speedup versus system size.
//!
//! Doubles the corelet/lane/core count from 32 to 64 (with memory bandwidth
//! doubled to match, as the paper does) and reports performance normalized
//! to the 32-lane GPGPU.

use crate::arch::Arch;
use crate::config::SimConfig;
use crate::report::{f2, geomean, Table};
use crate::runner::{run_many, RunResult};
use millipede_workloads::Benchmark;

/// The architectures Fig. 6 scales.
pub const ARCHS: [Arch; 3] = [Arch::Gpgpu, Arch::Ssmc, Arch::Millipede];
/// The swept system sizes.
pub const SIZES: [usize; 2] = [32, 64];

/// The Fig. 6 sweep: `runs[size][bench][arch]`.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// All runs, indexed `[size][bench][arch]`.
    pub runs: Vec<Vec<Vec<RunResult>>>,
}

/// Runs the Fig. 6 sweep.
pub fn run(cfg: &SimConfig) -> Fig6 {
    let mut runs = Vec::new();
    for (si, &size) in SIZES.iter().enumerate() {
        let scaled = SimConfig {
            corelets: size,
            bandwidth_factor: cfg.bandwidth_factor * (si as u32 + 1),
            ..cfg.clone()
        };
        let pairs: Vec<(Arch, Benchmark)> = Benchmark::BMLA
            .iter()
            .flat_map(|&b| ARCHS.iter().map(move |&a| (a, b)))
            .collect();
        let flat = run_many(&pairs, &scaled);
        runs.push(flat.chunks(ARCHS.len()).map(<[_]>::to_vec).collect());
    }
    Fig6 { runs }
}

impl Fig6 {
    /// Speedup of `(size, arch)` on benchmark `bi`, normalized to the
    /// 32-lane GPGPU.
    pub fn speedup(&self, si: usize, bi: usize, ai: usize) -> f64 {
        self.runs[si][bi][ai].speedup_over(&self.runs[0][bi][0])
    }

    /// Geometric-mean speedup for `(size, arch)`.
    pub fn geomean(&self, si: usize, ai: usize) -> f64 {
        geomean((0..self.runs[si].len()).map(|bi| self.speedup(si, bi, ai)))
    }

    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut header = vec!["Benchmark".to_string()];
        for &size in &SIZES {
            for a in ARCHS {
                header.push(format!("{}-{}", a.label(), size));
            }
        }
        let mut t = Table::new(header);
        for (bi, bench) in Benchmark::BMLA.iter().enumerate() {
            let mut row = vec![bench.name().to_string()];
            for si in 0..SIZES.len() {
                for ai in 0..ARCHS.len() {
                    row.push(f2(self.speedup(si, bi, ai)));
                }
            }
            t.row(row);
        }
        let mut row = vec!["geomean".to_string()];
        for si in 0..SIZES.len() {
            for ai in 0..ARCHS.len() {
                row.push(f2(self.geomean(si, ai)));
            }
        }
        t.row(row);
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn millipede_gains_grow_with_system_size() {
        let cfg = SimConfig {
            num_chunks: 8,
            ..Default::default()
        };
        let f = run(&cfg);
        // Millipede (index 2) scales: 64-corelet beats 32-corelet.
        assert!(f.geomean(1, 2) > f.geomean(0, 2));
        // Millipede's advantage over GPGPU does not shrink when doubling.
        let adv32 = f.geomean(0, 2) / f.geomean(0, 0);
        let adv64 = f.geomean(1, 2) / f.geomean(1, 0);
        assert!(
            adv64 >= 0.95 * adv32,
            "advantage shrank: 32→{adv32:.2}, 64→{adv64:.2}"
        );
    }
}
