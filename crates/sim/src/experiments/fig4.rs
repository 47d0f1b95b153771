//! Fig. 4 — energy, normalized to GPGPU, split core / DRAM / static.

use crate::arch::Arch;
use crate::config::SimConfig;
use crate::report::{f2, f3, Table};
use crate::runner::{sweep, RunResult};
use millipede_workloads::Benchmark;

/// The Fig. 4 sweep: `runs[bench][arch]` in `Benchmark::BMLA` ×
/// [`Arch::FIG4`] order.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// All runs.
    pub runs: Vec<Vec<RunResult>>,
}

/// Runs the Fig. 4 sweep.
pub fn run(cfg: &SimConfig) -> Fig4 {
    Fig4 {
        runs: sweep(&Benchmark::BMLA, &Arch::FIG4, cfg),
    }
}

impl Fig4 {
    /// Energy of `(bi, ai)` relative to GPGPU on the same benchmark.
    pub fn rel_energy(&self, bi: usize, ai: usize) -> f64 {
        self.runs[bi][ai].energy_vs(&self.runs[bi][0])
    }

    /// Arithmetic-mean relative energy of architecture `ai`.
    pub fn mean_energy(&self, ai: usize) -> f64 {
        (0..self.runs.len())
            .map(|bi| self.rel_energy(bi, ai))
            .sum::<f64>()
            / self.runs.len() as f64
    }

    /// Mean relative energy-delay product of architecture `ai` vs GPGPU.
    pub fn mean_edp(&self, ai: usize) -> f64 {
        (0..self.runs.len())
            .map(|bi| {
                let a = &self.runs[bi][ai];
                let g = &self.runs[bi][0];
                a.energy.edp(a.node.elapsed_ps) / g.energy.edp(g.node.elapsed_ps)
            })
            .sum::<f64>()
            / self.runs.len() as f64
    }

    /// Renders per-benchmark stacked components (core/dram/static), each
    /// normalized to the GPGPU total on that benchmark.
    pub fn render(&self) -> String {
        let mut header = vec!["Benchmark".to_string()];
        for a in Arch::FIG4 {
            header.push(format!("{} (core+dram+static)", a.label()));
        }
        let mut t = Table::new(header);
        for (bi, bench) in Benchmark::BMLA.iter().enumerate() {
            let g_total = self.runs[bi][0].energy.total_pj();
            let mut row = vec![bench.name().to_string()];
            for ai in 0..Arch::FIG4.len() {
                let e = &self.runs[bi][ai].energy;
                row.push(format!(
                    "{}={} ({}+{}+{})",
                    f2(e.total_pj() / g_total),
                    f2(e.total_uj()),
                    f3(e.core_pj / g_total),
                    f3(e.dram_pj / g_total),
                    f3(e.static_pj / g_total),
                ));
            }
            t.row(row);
        }
        let mut out = t.render();
        out.push('\n');
        for (ai, a) in Arch::FIG4.iter().enumerate() {
            out.push_str(&format!(
                "{:<28} mean energy vs GPGPU: {}   mean EDP vs GPGPU: {}\n",
                a.label(),
                f2(self.mean_energy(ai)),
                f2(self.mean_edp(ai)),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_shape_holds_on_a_small_run() {
        let cfg = SimConfig {
            num_chunks: 24,
            ..Default::default()
        };
        let f = run(&cfg);
        let milli = Arch::FIG4.len() - 1;
        let no_rm = Arch::FIG4.len() - 2;
        // Millipede uses no more energy than GPGPU on average, and rate
        // matching only helps.
        assert!(f.mean_energy(milli) < 1.0, "mean {}", f.mean_energy(milli));
        assert!(f.mean_energy(milli) <= f.mean_energy(no_rm) + 1e-9);
        // Millipede's EDP beats every *baseline* (its no-rate-match sibling
        // trades a sliver of delay for the energy win, so EDP between the
        // two Millipede variants is a wash).
        for ai in 0..Arch::FIG4.len() - 2 {
            assert!(
                f.mean_edp(milli) <= f.mean_edp(ai) + 1e-9,
                "EDP: Millipede {} vs {} {}",
                f.mean_edp(milli),
                Arch::FIG4[ai].label(),
                f.mean_edp(ai)
            );
        }
    }
}
