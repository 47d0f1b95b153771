//! Cross-crate integration: every architecture model runs every BMLA
//! benchmark end to end and reproduces the golden reference output, while
//! obeying the memory-conservation invariants the paper's comparison
//! methodology depends on.

use millipede::engine::{run_functional, FuncStats, DEFAULT_STEP_LIMIT};
use millipede::mapreduce::ThreadGrid;
use millipede::sim::{Arch, SimConfig};
use millipede::workloads::{Benchmark, Workload};

fn cfg() -> SimConfig {
    SimConfig {
        num_chunks: 4,
        ..Default::default()
    }
}

fn workload(bench: Benchmark) -> Workload {
    let c = cfg();
    Workload::build(bench, c.num_chunks, c.row_bytes, c.seed)
}

#[test]
fn every_architecture_reproduces_every_benchmark() {
    let cfg = cfg();
    for bench in Benchmark::ALL {
        let w = workload(bench);
        for arch in [
            Arch::Gpgpu,
            Arch::Vws,
            Arch::Ssmc,
            Arch::MillipedeNoFlowControl,
            Arch::VwsRow,
            Arch::MillipedeNoRateMatch,
            Arch::Millipede,
            Arch::Multicore,
        ] {
            let r = arch.run(&w, &cfg);
            assert!(
                r.output_ok,
                "{} / {}: wrong output",
                arch.label(),
                bench.name()
            );
            assert!(r.elapsed_ps > 0);
        }
    }
}

#[test]
fn millipede_fetches_each_row_exactly_once() {
    // Row-orientedness with flow control: one activation and one 2 KB
    // transfer per data row, nothing more.
    let cfg = cfg();
    for bench in [Benchmark::Count, Benchmark::NBayes, Benchmark::Gda] {
        let w = workload(bench);
        let r = Arch::Millipede.run(&w, &cfg);
        let rows = w.dataset.layout.total_rows();
        assert_eq!(r.dram.activations, rows, "{}", bench.name());
        assert_eq!(
            r.dram.bytes_transferred,
            rows * cfg.row_bytes,
            "{}",
            bench.name()
        );
    }
}

#[test]
fn baselines_transfer_each_input_byte_exactly_once() {
    // GPGPU's coalesced blocks and SSMC's slab-sized lines both fetch the
    // dataset without duplication (prefetches are 100% accurate).
    let cfg = cfg();
    for bench in [Benchmark::Count, Benchmark::Classify] {
        let w = workload(bench);
        for arch in [Arch::Gpgpu, Arch::Vws, Arch::Ssmc] {
            let r = arch.run(&w, &cfg);
            assert_eq!(
                r.dram.bytes_transferred,
                w.dataset.total_bytes(),
                "{} / {}",
                arch.label(),
                bench.name()
            );
        }
    }
}

#[test]
fn thread_level_work_is_architecture_independent() {
    // The controlled-comparison premise (§V): all architectures execute the
    // same thread-level instruction streams; they differ only in schedule
    // and memory behaviour. MIMD archs share the slab assignment; the SIMT
    // archs share the word-interleaved one (same totals, §III-B).
    let cfg = cfg();
    let w = workload(Benchmark::Variance);
    let ssmc = Arch::Ssmc.run(&w, &cfg);
    let milli = Arch::Millipede.run(&w, &cfg);
    let gpgpu = Arch::Gpgpu.run(&w, &cfg);
    let vws = Arch::Vws.run(&w, &cfg);
    assert_eq!(ssmc.stats.instructions, milli.stats.instructions);
    assert_eq!(gpgpu.stats.instructions, vws.stats.instructions);
    assert_eq!(ssmc.stats.input_loads, gpgpu.stats.input_loads);
    assert_eq!(
        ssmc.stats.input_loads,
        w.dataset.num_records() as u64 * w.dataset.layout.num_fields as u64
    );
}

/// Asserts that `arches`' thread-level totals on every BMLA are exactly
/// the sum of `grid`'s single-threaded functional runs, although the
/// models retire runs ahead of their issue slots and count them as they
/// run.
fn assert_thread_level_totals(arches: &[Arch], grid: ThreadGrid) {
    let cfg = cfg();
    for bench in Benchmark::BMLA {
        let w = workload(bench);
        let mut want = FuncStats::default();
        for c in 0..grid.corelets {
            for x in 0..grid.contexts {
                let mut ctx = w.make_ctx(&grid, c, x);
                let stats =
                    run_functional(&mut ctx, &w.program, &w.dataset.image, DEFAULT_STEP_LIMIT)
                        .expect("kernel must not trap");
                want.merge(&stats);
            }
        }
        for &arch in arches {
            let s = arch.run(&w, &cfg).stats;
            let label = format!("{} / {}", arch.label(), bench.name());
            assert_eq!(s.instructions, want.instructions, "{label}: instructions");
            assert_eq!(s.branches, want.branches, "{label}: branches");
            assert_eq!(s.input_loads, want.input_words, "{label}: input loads");
            assert_eq!(s.local_loads, want.local_loads, "{label}: local loads");
            assert_eq!(s.local_stores, want.local_stores, "{label}: local stores");
        }
    }
}

#[test]
fn mimd_thread_level_totals_equal_the_functional_run() {
    let cfg = cfg();
    assert_thread_level_totals(
        &[Arch::Millipede, Arch::MillipedeNoFlowControl, Arch::Ssmc],
        ThreadGrid::slab(cfg.corelets, cfg.contexts),
    );
}

#[test]
fn simt_thread_level_totals_equal_the_functional_run() {
    // SIMT warps count every lane's instruction, branch and access, so a
    // warp's lockstep run-ahead must add up to the same per-thread totals.
    let cfg = cfg();
    assert_thread_level_totals(
        &[Arch::Gpgpu, Arch::Vws, Arch::VwsRow],
        ThreadGrid::coalesced(cfg.corelets, cfg.contexts),
    );
}

#[test]
fn simt_issues_fewer_but_wider() {
    let cfg = cfg();
    let w = workload(Benchmark::Count);
    let g = Arch::Gpgpu.run(&w, &cfg);
    let m = Arch::Millipede.run(&w, &cfg);
    // MIMD: one issue per instruction. SIMT: one issue per warp, so far
    // fewer issues for the same instruction count.
    assert_eq!(m.stats.issues, m.stats.instructions);
    assert!(g.stats.issues < g.stats.instructions / 4);
    // ... but divergence wastes lanes.
    assert!(g.stats.lane_idle > 0);
    assert_eq!(m.stats.lane_idle, 0);
}

#[test]
fn flow_control_protects_under_buffer_pressure() {
    // At simulable input sizes the corelets stay memory-paced and rarely
    // stray past even a tiny buffer (the paper itself observes evictions
    // are "not frequent with 16 buffers" — drift accumulates as a random
    // walk and needs ~10⁵ rows to exceed the window; the adversarial
    // straying cases are covered by the pbuf unit and property tests).
    // What must hold at every size: flow control never evicts and never
    // refetches, even squeezed to 2 entries.
    let mut cfg = cfg();
    let w = workload(Benchmark::Gda);
    let with_fc = Arch::Millipede.run(&w, &cfg);
    assert_eq!(with_fc.stats.premature_evictions, 0);
    for entries in [2, 4] {
        cfg.pbuf_entries = entries;
        let fc = Arch::Millipede.run(&w, &cfg);
        assert!(fc.output_ok);
        assert_eq!(fc.stats.premature_evictions, 0, "{entries} entries");
        assert_eq!(fc.dram.bytes_transferred, w.dataset.total_bytes());
        // The no-flow-control ablation must stay functionally correct too
        // (its bypass path is exercised whenever straying does occur).
        let nofc = Arch::MillipedeNoFlowControl.run(&w, &cfg);
        assert!(nofc.output_ok);
        assert!(nofc.dram.bytes_transferred >= w.dataset.total_bytes());
    }
}

#[test]
fn rate_matching_converges_below_nominal_for_light_kernels() {
    let cfg = SimConfig {
        num_chunks: 16,
        ..Default::default()
    };
    let w = Workload::build(Benchmark::Count, cfg.num_chunks, cfg.row_bytes, cfg.seed);
    let r = Arch::Millipede.run(&w, &cfg);
    let clk = r.stats.rate_match_final_mhz;
    assert!(
        (170.0..660.0).contains(&clk),
        "count is memory-bound; expected a reduced clock, got {clk}"
    );
}

#[test]
fn deterministic_across_repeated_runs() {
    let cfg = cfg();
    let w = workload(Benchmark::Kmeans);
    let a = Arch::Millipede.run(&w, &cfg);
    let b = Arch::Millipede.run(&w, &cfg);
    assert_eq!(a.elapsed_ps, b.elapsed_ps);
    assert_eq!(a.stats.instructions, b.stats.instructions);
    assert_eq!(a.output, b.output);
}
