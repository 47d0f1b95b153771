//! Conventional out-of-order multicore reference (Fig. 5 of the paper).
//!
//! The paper compares a 32-processor Millipede system against an 8-core
//! Xeon-like machine: 4-wide out-of-order issue, 4-way SMT, 3.6 GHz,
//! 64 KB L1 + 1 MB L2 per core, and *off-chip* memory at one quarter of the
//! die-stacked system's aggregate bandwidth at 70 pJ/bit \[44\]. The paper
//! itself caveats this comparison: "the far fewer compute threads in the
//! multicore (32) compared to those in Millipede (4096) account for most of
//! the speedups", and the energy gap is dominated by off-chip DRAM energy
//! and the high clock.
//!
//! Because those first-order effects — thread count, effective issue
//! throughput, and memory bandwidth/energy — fully determine the result,
//! this model is deliberately *coarse* (documented in DESIGN.md): it uses
//! the workload's measured dynamic instruction profile and bounds runtime
//! by both compute throughput and off-chip bandwidth, rather than
//! simulating an out-of-order pipeline cycle by cycle. The kernels are
//! executed functionally, so the output is still validated bit-for-bit.

#![warn(missing_docs)]

use millipede_core::NodeResult;
use millipede_dram::DramStats;
use millipede_engine::{
    run_functional, CoreStats, FuncStats, Instrumented, JumpProfile, TimePs, DEFAULT_STEP_LIMIT,
};
use millipede_mapreduce::ThreadGrid;
use millipede_telemetry::{Telemetry, TelemetryConfig};
use millipede_workloads::Workload;

/// Instrumentation view over the analytic model's results, implementing the
/// shared [`Instrumented`] contract. The model has no cycle loop, so epoch
/// samples linearly interpolate the end-of-run totals between the run's
/// start and end anchors (enough to give the run a labelled span in a
/// combined Chrome trace), and there are no timing audits to check.
struct Model<'a> {
    stats: &'a CoreStats,
    dram: &'a DramStats,
    /// Total modelled cycles; epoch samples scale counters by `due / end`.
    end_cycle: u64,
}

impl Instrumented for Model<'_> {
    fn prefix(&self) -> &'static str {
        "multicore"
    }

    // No quiescence loop to guard: the fingerprint is just the run's
    // dynamic instruction count, a stable identity for the manifest layer.
    fn fingerprint(&self) -> u64 {
        self.stats.instructions
    }

    fn sample_epoch(&self, tel: &mut Telemetry, due: u64, at: TimePs, _rewind: u64) {
        let frac = if self.end_cycle == 0 {
            1.0
        } else {
            due as f64 / self.end_cycle as f64
        };
        tel.counter(
            "multicore::core",
            "instructions",
            due,
            at,
            self.stats.instructions as f64 * frac,
        );
        tel.counter(
            "multicore::dram",
            "bytes_transferred",
            due,
            at,
            self.dram.bytes_transferred as f64 * frac,
        );
    }

    fn assert_clean(&self) {}
}

/// Configuration of the Xeon-like reference machine (§VI-C defaults).
#[derive(Debug, Clone)]
pub struct MulticoreConfig {
    /// Cores (paper: 8).
    pub cores: usize,
    /// SMT contexts per core (paper: 4).
    pub smt: usize,
    /// Clock in MHz (paper: 3.6 GHz).
    pub clock_mhz: f64,
    /// Issue width per core (paper: 4-wide OoO).
    pub issue_width: f64,
    /// Effective sustained IPC per core on these streaming kernels, as a
    /// fraction of issue width. BMLA inner loops are short dependence
    /// chains with one load per few instructions; half the peak is a
    /// generous sustained estimate for a 4-wide OoO core.
    pub ipc_efficiency: f64,
    /// Off-chip memory bandwidth in GB/s (paper: ¼ of the die-stacked
    /// system's 32 channels).
    pub mem_bw_gbps: f64,
    /// Off-chip access energy in pJ/bit (paper: 70 pJ/bit \[44\]).
    pub mem_pj_per_bit: f64,
    /// Cycle-domain telemetry (off by default). The analytic model has no
    /// cycle loop, so only coarse start/end samples are recorded.
    pub telemetry: TelemetryConfig,
}

impl Default for MulticoreConfig {
    fn default() -> Self {
        MulticoreConfig {
            cores: 8,
            smt: 4,
            clock_mhz: 3600.0,
            issue_width: 4.0,
            ipc_efficiency: 0.5,
            // 32 die-stacked channels × 4.8 GB/s ÷ 4.
            mem_bw_gbps: 32.0 * 4.8 / 4.0,
            mem_pj_per_bit: 70.0,
            telemetry: TelemetryConfig::from_env(),
        }
    }
}

impl MulticoreConfig {
    /// Hardware threads.
    pub fn threads(&self) -> usize {
        self.cores * self.smt
    }

    /// Sustained instruction throughput in instructions per nanosecond.
    pub fn throughput_per_ns(&self) -> f64 {
        self.cores as f64 * self.issue_width * self.ipc_efficiency * self.clock_mhz / 1000.0
    }
}

/// Runs `workload` on the multicore reference: functional execution for
/// output correctness, bounded-throughput timing for performance.
pub fn run(workload: &Workload, cfg: &MulticoreConfig) -> NodeResult {
    // Execute functionally on the standard grid (the dynamic instruction
    // profile is assignment-independent: same records, same work).
    let grid = ThreadGrid::paper_default();
    let mut totals = FuncStats::default();
    let mut ctxs = Vec::with_capacity(grid.num_threads());
    for corelet in 0..grid.corelets {
        for context in 0..grid.contexts {
            let mut ctx = workload.make_ctx(&grid, corelet, context);
            let s = run_functional(
                &mut ctx,
                &workload.program,
                &workload.dataset.image,
                DEFAULT_STEP_LIMIT,
            )
            .expect("kernel must not trap"); // audit:allow(unwrap-in-hot-path): a trapping kernel is a workload bug; fail loudly
            totals.merge(&s);
            ctxs.push(ctx);
        }
    }

    // Runtime: the slower of compute throughput and off-chip bandwidth.
    let compute_ns = totals.instructions as f64 / cfg.throughput_per_ns();
    let bytes = workload.dataset.total_bytes();
    let memory_ns = bytes as f64 / cfg.mem_bw_gbps; // GB/s == bytes/ns
    let elapsed_ns = compute_ns.max(memory_ns);

    let states: Vec<&[u32]> = ctxs.iter().map(|c| c.local.words()).collect();
    let output = workload.reduce(&states);
    let output_ok = output == workload.reference(&grid);

    let stats = CoreStats {
        instructions: totals.instructions,
        issues: totals.instructions,
        branches: totals.branches,
        input_loads: totals.input_words,
        local_loads: totals.local_loads,
        local_stores: totals.local_stores,
        // audit:allow(cast-truncation): analytic model; sub-cycle truncation is immaterial
        compute_cycles: (elapsed_ns * cfg.clock_mhz / 1000.0) as u64,
        // audit:allow(cast-truncation): analytic model; sub-cycle truncation is immaterial
        issue_slots: ((elapsed_ns * cfg.clock_mhz / 1000.0) as u64)
            .saturating_mul(cfg.cores as u64),
        ..Default::default()
    };
    let dram = DramStats {
        bytes_transferred: bytes,
        // Open-page streaming on a conventional controller: approximate one
        // activation per 2 KB of streamed data.
        activations: bytes / 2048,
        row_hits: bytes / 64,
        requests: bytes / 64,
        ..Default::default()
    };
    // audit:allow(cast-truncation): sub-picosecond truncation of an analytic runtime
    let elapsed_ps = (elapsed_ns * 1000.0) as u64;
    // Coarse telemetry: the analytic model has no cycle loop, so the
    // series are just their start/end points (still enough to give the
    // run a labelled span in a combined Chrome trace).
    let mut tel = Telemetry::new(&cfg.telemetry);
    if tel.enabled() {
        let model = Model {
            stats: &stats,
            dram: &dram,
            end_cycle: stats.compute_cycles,
        };
        model.sample_epoch(&mut tel, 0, 0, 0);
        model.sample_epoch(&mut tel, stats.compute_cycles, elapsed_ps, 0);
        model.assert_clean();
    }
    NodeResult {
        stats,
        dram,
        elapsed_ps,
        output,
        output_ok,
        telemetry: tel,
        profile: JumpProfile::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use millipede_workloads::{Benchmark, Workload};

    #[test]
    fn defaults_match_paper() {
        let c = MulticoreConfig::default();
        assert_eq!(c.threads(), 32);
        assert!((c.mem_bw_gbps - 38.4).abs() < 1e-9);
        assert!((c.clock_mhz - 3600.0).abs() < 1e-9);
    }

    #[test]
    fn runs_and_validates() {
        let w = Workload::build(Benchmark::Count, 2, 2048, 7);
        let r = run(&w, &MulticoreConfig::default());
        assert!(r.output_ok);
        assert!(r.elapsed_ps > 0);
        assert_eq!(r.dram.bytes_transferred, w.dataset.total_bytes());
    }

    #[test]
    fn heavier_kernels_achieve_lower_bandwidth() {
        // With our kernels' instruction densities the 32-thread multicore
        // is compute-bound throughout; bandwidth utilization falls with
        // instructions per word.
        let cfg = MulticoreConfig::default();
        let count = run(&Workload::build(Benchmark::Count, 4, 2048, 7), &cfg);
        let gda = run(&Workload::build(Benchmark::Gda, 4, 2048, 7), &cfg);
        let count_bw = count.dram.bytes_transferred as f64 / (count.elapsed_ps as f64 / 1000.0);
        let gda_bw = gda.dram.bytes_transferred as f64 / (gda.elapsed_ps as f64 / 1000.0);
        assert!(count_bw <= cfg.mem_bw_gbps + 1e-9);
        assert!(gda_bw < count_bw, "gda {gda_bw} vs count {count_bw}");
    }

    #[test]
    fn throughput_model() {
        let cfg = MulticoreConfig::default();
        // 8 cores × 4-wide × 0.5 × 3.6 GHz = 57.6 inst/ns.
        assert!((cfg.throughput_per_ns() - 57.6).abs() < 1e-9);
    }
}
