//! Reference-model differential suite for the graph and dense workload
//! families.
//!
//! Every new benchmark carries a plain-Rust host-side reference model in
//! its workload module (`pagerank::`/`bfs::`/`gemm::`/`prim::reference_*`).
//! This suite is the acceptance bar from the workload-families issue: the
//! *simulated* observable result must match that reference bit-exactly on
//! every architecture variant, with fast-forward on and off. Three layers
//! of checks:
//!
//! 1. `output_ok` — each timing model compares its reduced output against
//!    `Workload::reference` on its own thread grid (processor.rs); a
//!    mismatch anywhere fails the run.
//! 2. Cross-combo equality — within one (arch, bench) point, the FF off
//!    and on runs must produce the *same* full digest (`digest_run`:
//!    stats, DRAM counters, elapsed time, energy, output), so the knob
//!    cannot perturb anything observable.
//! 3. A direct functional check on the paper-default grid: executing the
//!    kernel thread-by-thread on the predecoded engine and reducing must
//!    reproduce the host reference with no timing model involved at all.

use millipede::mapreduce::ThreadGrid;
use millipede::sim::{digest_run, run_one, Arch, SimConfig};
use millipede::workloads::{Benchmark, Workload};

/// All eight architecture variants (Fig. 3 order plus the multicore
/// baseline).
const ARCHES: [Arch; 8] = [
    Arch::Gpgpu,
    Arch::Vws,
    Arch::Ssmc,
    Arch::MillipedeNoFlowControl,
    Arch::VwsRow,
    Arch::MillipedeNoRateMatch,
    Arch::Millipede,
    Arch::Multicore,
];

/// The six new benchmarks: both graph workloads and all four dense
/// kernels.
fn new_benches() -> Vec<Benchmark> {
    Benchmark::GRAPH
        .iter()
        .chain(Benchmark::DENSE.iter())
        .copied()
        .collect()
}

/// Run `bench` on `arch` with FF off and on and assert both runs validate
/// and agree bit-exactly.
fn check_all_combos(arch: Arch, bench: Benchmark) {
    let mut digests = Vec::new();
    let mut outputs = Vec::new();
    for fast_forward in [false, true] {
        let cfg = SimConfig {
            num_chunks: 3,
            fast_forward,
            ..SimConfig::default()
        };
        // run_one panics with the arch/bench label if output_ok is false,
        // i.e. if the simulated output diverges from the host-side
        // reference on the model's own grid.
        let r = run_one(arch, bench, &cfg);
        assert!(
            r.node.output_ok,
            "{} on {}: ff={fast_forward} diverged from the host reference",
            bench.name(),
            arch.label()
        );
        digests.push(digest_run(&r));
        outputs.push(r.node.output.clone());
    }
    for i in 1..digests.len() {
        assert_eq!(
            digests[0],
            digests[i],
            "{} on {}: combo {i} digest diverged from combo 0",
            bench.name(),
            arch.label()
        );
        assert_eq!(
            outputs[0],
            outputs[i],
            "{} on {}: combo {i} output diverged from combo 0",
            bench.name(),
            arch.label()
        );
    }
}

#[test]
fn graph_family_matches_reference_on_every_variant_and_combo() {
    for &bench in &Benchmark::GRAPH {
        for &arch in &ARCHES {
            check_all_combos(arch, bench);
        }
    }
}

#[test]
fn dense_family_matches_reference_on_every_variant_and_combo() {
    for &bench in &Benchmark::DENSE {
        for &arch in &ARCHES {
            check_all_combos(arch, bench);
        }
    }
}

#[test]
fn functional_execution_reproduces_the_host_reference() {
    // No timing model at all: run every thread of the paper-default grid
    // on the predecoded functional engine, reduce, and compare against the
    // plain-Rust reference. This isolates kernel-vs-reference agreement
    // from everything the architecture models add on top.
    let grid = ThreadGrid::paper_default();
    for bench in new_benches() {
        let w = Workload::build(bench, 2, 2048, 7);
        let run = w
            .run_functional(&grid, 10_000_000)
            .unwrap_or_else(|t| panic!("{}: {t}", bench.name()));
        assert_eq!(
            w.reduce(&run.states()),
            w.reference(&grid),
            "{}: reduced functional output diverged from the host reference",
            bench.name()
        );
    }
}

#[test]
fn references_are_deterministic_across_rebuilds() {
    // The reference model must be a pure function of (bench, chunks, seed):
    // rebuilds may not perturb the dataset or the reference output.
    let grid = ThreadGrid::paper_default();
    for bench in new_benches() {
        let a = Workload::build(bench, 2, 2048, 7);
        let b = Workload::build(bench, 2, 2048, 7);
        assert_eq!(a.reference(&grid), b.reference(&grid), "{}", bench.name());
        assert_eq!(
            a.dataset.image.words(),
            b.dataset.image.words(),
            "{}: dataset not deterministic",
            bench.name()
        );
    }
}
