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
    run_functional, CoreStats, Driven, FuncStats, JumpProfile, DEFAULT_STEP_LIMIT,
};
use millipede_mapreduce::ThreadGrid;
use millipede_telemetry::{Telemetry, TelemetryConfig};
use millipede_workloads::Workload;

/// Cores (paper: 8).
pub const CORES: usize = 8;
/// SMT contexts per core (paper: 4).
pub const SMT: usize = 4;
/// Hardware threads.
pub const THREADS: usize = CORES * SMT;
/// Clock in MHz (paper: 3.6 GHz).
pub const CLOCK_MHZ: f64 = 3600.0;
/// Issue width per core (paper: 4-wide OoO).
pub const ISSUE_WIDTH: f64 = 4.0;
/// Effective sustained IPC per core on these streaming kernels, as a
/// fraction of issue width. BMLA inner loops are short dependence chains
/// with one load per few instructions; half the peak is a generous
/// sustained estimate for a 4-wide OoO core.
pub const IPC_EFFICIENCY: f64 = 0.5;
/// Off-chip memory bandwidth in GB/s (paper: ¼ of the die-stacked system's
/// 32 channels × 4.8 GB/s). The off-chip access energy (70 pJ/bit \[44\])
/// lives in the energy model.
pub const MEM_BW_GBPS: f64 = 32.0 * 4.8 / 4.0;
/// Sustained instruction throughput in instructions per nanosecond.
pub const THROUGHPUT_PER_NS: f64 = CORES as f64 * ISSUE_WIDTH * IPC_EFFICIENCY * CLOCK_MHZ / 1000.0;

/// Configuration of the Xeon-like reference machine (§VI-C). The machine
/// itself is fixed (the constants above); only the observation varies.
#[derive(Debug, Clone, Default)]
pub struct MulticoreConfig {
    /// Cycle-domain telemetry (off by default). The analytic model has no
    /// cycle loop, so only coarse start/end samples are recorded.
    pub telemetry: TelemetryConfig,
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
    let compute_ns = totals.instructions as f64 / THROUGHPUT_PER_NS;
    let bytes = workload.dataset.total_bytes();
    let memory_ns = bytes as f64 / MEM_BW_GBPS; // GB/s == bytes/ns
    let elapsed_ns = compute_ns.max(memory_ns);

    let stats = CoreStats {
        instructions: totals.instructions,
        issues: totals.instructions,
        branches: totals.branches,
        input_loads: totals.input_words,
        local_loads: totals.local_loads,
        local_stores: totals.local_stores,
        // audit:allow(cast-truncation): analytic model; sub-cycle truncation is immaterial
        compute_cycles: (elapsed_ns * CLOCK_MHZ / 1000.0) as u64,
        // audit:allow(cast-truncation): analytic model; sub-cycle truncation is immaterial
        issue_slots: ((elapsed_ns * CLOCK_MHZ / 1000.0) as u64).saturating_mul(CORES as u64),
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
        for (due, at, frac) in [(0, 0, 0.0), (stats.compute_cycles, elapsed_ps, 1.0)] {
            let instructions = stats.instructions as f64 * frac;
            tel.counter("multicore::core", "instructions", due, at, instructions);
            let bytes = dram.bytes_transferred as f64 * frac;
            tel.counter("multicore::dram", "bytes_transferred", due, at, bytes);
        }
    }
    // No cycle loop, so no jumps: the analytic runtime is the whole run.
    let driven = Driven {
        cycles: stats.compute_cycles,
        last_time: elapsed_ps,
        profile: JumpProfile::default(),
    };
    let states: Vec<&[u32]> = ctxs.iter().map(|c| c.local.words()).collect();
    NodeResult::finish(workload, &grid, &states, stats, dram, driven, tel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use millipede_workloads::{Benchmark, Workload};

    #[test]
    fn constants_match_paper() {
        assert_eq!(THREADS, 32);
        assert!((MEM_BW_GBPS - 38.4).abs() < 1e-9);
        assert!((CLOCK_MHZ - 3600.0).abs() < 1e-9);
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
        assert!(count_bw <= MEM_BW_GBPS + 1e-9);
        assert!(gda_bw < count_bw, "gda {gda_bw} vs count {count_bw}");
    }

    #[test]
    fn throughput_model() {
        // 8 cores × 4-wide × 0.5 × 3.6 GHz = 57.6 inst/ns.
        assert!((THROUGHPUT_PER_NS - 57.6).abs() < 1e-9);
    }
}
