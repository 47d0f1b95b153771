//! Differential tests for idle-cycle fast-forwarding and parallel sweeps.
//!
//! Fast-forwarding (DESIGN.md, "One driver") claims to be a
//! pure wall-clock optimization: a fast-forwarded run must be *bit
//! identical* to its cycle-by-cycle baseline in every observable quantity —
//! digests, per-domain cycle accounting, DRAM counters, energy, and reduced
//! output. Likewise the parallel sweep harness must return exactly what the
//! serial loop returns. This suite checks both claims across every
//! architecture variant, running each point with fast-forward off and on
//! in-process.
//!
//! Beyond the fixed points, the claim is driven across *randomized* sweep
//! points (architecture × benchmark × input size × prefetch-buffer
//! entries), the graph and dense families, and randomized DFS periods —
//! the jump's hardest case (rate matching reschedules the compute clock
//! from its last edge, which after a jump is the last *skipped* edge). The
//! generators run on the in-repo seeded xorshift PRNG of `tests/common`:
//! every case derives deterministically from a fixed seed, so a failure's
//! printed case number reproduces it exactly.

use millipede::core_arch::MillipedeConfig;
use millipede_engine::JumpProfile;
use millipede_sim::{digest_run, run_many_with, run_one, Arch, SimConfig};
use millipede_workloads::{Benchmark, Workload};

mod common;
use common::Rng;

const ALL_ARCHS: [Arch; 8] = [
    Arch::Gpgpu,
    Arch::Vws,
    Arch::Ssmc,
    Arch::MillipedeNoFlowControl,
    Arch::VwsRow,
    Arch::MillipedeNoRateMatch,
    Arch::Millipede,
    Arch::Multicore,
];

/// The event-driven variants (the multicore model is analytic and never
/// fast-forwards).
const EVENT_DRIVEN: [Arch; 7] = [
    Arch::Gpgpu,
    Arch::Vws,
    Arch::Ssmc,
    Arch::MillipedeNoFlowControl,
    Arch::VwsRow,
    Arch::MillipedeNoRateMatch,
    Arch::Millipede,
];

fn config(fast_forward: bool) -> SimConfig {
    SimConfig {
        num_chunks: 4,
        fast_forward,
        ..SimConfig::default()
    }
}

#[test]
fn fast_forward_is_observably_invisible_on_every_arch() {
    let slow_cfg = config(false);
    let fast_cfg = config(true);
    for arch in ALL_ARCHS {
        let mut jumped = false;
        for bench in [
            Benchmark::Count,
            Benchmark::Sample,
            Benchmark::Variance,
            Benchmark::NBayes,
        ] {
            let slow = run_one(arch, bench, &slow_cfg);
            let fast = run_one(arch, bench, &fast_cfg);
            let label = format!("{} on {}", arch.label(), bench.name());

            // The baseline must never fast-forward; the optimized run may,
            // over idle edges (sleeps) or credit-only ones (credit jumps).
            let jumps = |p: &JumpProfile| p.sleeps + p.credit_jumps;
            assert_eq!(slow.node.stats.ff_skipped_cycles, 0, "{label}");
            assert_eq!(jumps(&slow.node.profile), 0, "{label}: walked run jumped");
            assert_eq!(
                fast.node.stats.ff_skipped_cycles > 0,
                jumps(&fast.node.profile) > 0,
                "{label}: skipped cycles without a jump, or a jump that skipped none"
            );
            jumped |= fast.node.profile.sleeps > 0;

            // Full observable equality, digest first for a compact witness.
            assert_eq!(digest_run(&slow), digest_run(&fast), "{label}");

            // Per-domain cycle accounting must match *exactly*: skipped
            // compute cycles still count as compute cycles, and the channel
            // domain's time base is untouched.
            let (s, f) = (&slow.node.stats, &fast.node.stats);
            assert_eq!(s.compute_cycles, f.compute_cycles, "{label}");
            assert_eq!(s.issue_slots, f.issue_slots, "{label}");
            assert_eq!(s.stall_slots, f.stall_slots, "{label}");
            assert_eq!(slow.node.elapsed_ps, fast.node.elapsed_ps, "{label}");
            assert_eq!(slow.node.dram, fast.node.dram, "{label}");
            assert_eq!(slow.node.output, fast.node.output, "{label}");
        }
        // Every event-driven variant must jump on some input, or the
        // differential would be vacuous there; the analytic model never
        // does.
        assert_eq!(
            jumped,
            EVENT_DRIVEN.contains(&arch),
            "{}: fast-forward engaged on the analytic model or never on an \
             event-driven one",
            arch.label()
        );
    }
}

#[test]
fn compute_bound_mimd_points_take_credit_jumps() {
    // The benchmark's compute-bound MIMD points spend most edges paying
    // run-ahead credits; the driver must jump those edges, and the jumps
    // must stay invisible.
    for (arch, bench) in [
        (Arch::Ssmc, Benchmark::Gda),
        (Arch::Ssmc, Benchmark::Gemm),
        (Arch::Millipede, Benchmark::Pca),
    ] {
        let slow = run_one(arch, bench, &config(false));
        let fast = run_one(arch, bench, &config(true));
        let label = format!("{} on {}", arch.label(), bench.name());
        assert!(
            fast.node.profile.credit_jumps > 0,
            "{label}: no credit jump"
        );
        assert_eq!(slow.node.profile.credit_jumps, 0, "{label}");
        assert_eq!(digest_run(&slow), digest_run(&fast), "{label}");
        assert_eq!(slow.node.stats.issues, fast.node.stats.issues, "{label}");
        assert_eq!(slow.node.output, fast.node.output, "{label}");
    }
}

#[test]
fn ssmc_sleeps_match_the_walk_above_64_cores() {
    // Each SSMC core sleeps through its own credit runs; with more cores
    // than a 64-bit mask has bits, no bit set may stand in for the
    // sleepers.
    for bench in [Benchmark::Count, Benchmark::Gda, Benchmark::Gemm] {
        let cfg = |fast_forward| SimConfig {
            num_chunks: 2,
            corelets: 128,
            fast_forward,
            ..SimConfig::default()
        };
        let slow = run_one(Arch::Ssmc, bench, &cfg(false));
        let fast = run_one(Arch::Ssmc, bench, &cfg(true));
        let label = format!("SSMC x128 on {}", bench.name());
        assert!(fast.node.output_ok, "{label}");
        assert!(fast.node.profile.slept > 0, "{label}: no core slept");
        assert_eq!(slow.node.profile.slept, 0, "{label}: a walked core slept");
        assert_eq!(digest_run(&slow), digest_run(&fast), "{label}");
        let mut stats = fast.node.stats.clone();
        stats.ff_skipped_cycles = 0;
        assert_eq!(stats, slow.node.stats, "{label}");
    }
}

#[test]
fn fast_forward_digests_agree_on_random_points() {
    let mut rng = Rng::new(0x5eed);
    for case in 0..10 {
        let arch = *rng.pick(&EVENT_DRIVEN);
        let bench = *rng.pick(&Benchmark::ALL);
        let num_chunks = rng.usize_in(1, 5);
        let pbuf_entries = *rng.pick(&[8usize, 16, 32]);
        let mk = |fast_forward| SimConfig {
            num_chunks,
            pbuf_entries,
            fast_forward,
            ..SimConfig::default()
        };
        let slow = run_one(arch, bench, &mk(false));
        let fast = run_one(arch, bench, &mk(true));
        let label = format!(
            "case {case}: {} on {} (chunks={num_chunks} pbuf={pbuf_entries})",
            arch.label(),
            bench.name()
        );
        // digest_run covers stats (minus ff_skipped_cycles), DRAM counters,
        // elapsed time, energy, and the reduced output.
        assert_eq!(digest_run(&slow), digest_run(&fast), "{label}");
        assert_eq!(slow.node.elapsed_ps, fast.node.elapsed_ps, "{label}");
        assert_eq!(slow.node.output, fast.node.output, "{label}");
    }
}

#[test]
fn fast_forward_matches_the_walk_on_every_new_family_workload() {
    // The randomized sweep above may or may not draw the graph/dense
    // benchmarks; pin them explicitly. Their kernels stress exactly what a
    // jump bug would perturb — data-dependent indexed LOCAL traffic
    // (pagerank/bfs), divergent skip paths (bfs), and long finalize bursts
    // (gemm) — so each must be bit-identical with and without jumps on the
    // full Millipede model and on the plain GPGPU baseline.
    for &bench in Benchmark::GRAPH.iter().chain(Benchmark::DENSE.iter()) {
        for arch in [Arch::Gpgpu, Arch::Millipede] {
            let mk = |fast_forward| SimConfig {
                num_chunks: 3,
                fast_forward,
                ..SimConfig::default()
            };
            let slow = run_one(arch, bench, &mk(false));
            let fast = run_one(arch, bench, &mk(true));
            let label = format!("{} on {}", bench.name(), arch.label());
            assert!(slow.node.output_ok && fast.node.output_ok, "{label}");
            assert_eq!(digest_run(&slow), digest_run(&fast), "{label}");
            assert_eq!(slow.node.elapsed_ps, fast.node.elapsed_ps, "{label}");
            assert_eq!(slow.node.output, fast.node.output, "{label}");
        }
    }
}

#[test]
fn fast_forward_matches_the_walk_across_random_dfs_periods() {
    // A DFS adjustment changes the compute period mid-run and reschedules
    // from the *last* compute edge, so a jump that left the clock anchored
    // anywhere but its last skipped edge would shift every later edge.
    // Randomize the DFS cooldown (and thus where adjustments land).
    let mut rng = Rng::new(0xd5f);
    for case in 0..6 {
        let rate_cooldown = rng.range(16, 1024);
        let bench = *rng.pick(&Benchmark::ALL);
        let seed = rng.range(1, 1 << 20);
        let w = Workload::build(bench, 2, 2048, seed);
        let mk = |fast_forward| MillipedeConfig {
            rate_cooldown,
            fast_forward,
            ..MillipedeConfig::default()
        };
        let slow = millipede::core_arch::run(&w, &mk(false));
        let fast = millipede::core_arch::run(&w, &mk(true));
        let label = format!(
            "case {case}: {} cooldown={rate_cooldown} seed={seed}",
            bench.name()
        );
        assert_eq!(slow.stats.ff_skipped_cycles, 0, "{label}");
        let mut fs = fast.stats.clone();
        fs.ff_skipped_cycles = 0;
        assert_eq!(fs, slow.stats, "{label}: stats diverged");
        assert_eq!(fast.dram, slow.dram, "{label}: DRAM diverged");
        assert_eq!(fast.elapsed_ps, slow.elapsed_ps, "{label}");
        assert_eq!(fast.output, slow.output, "{label}");
    }
}

#[test]
fn serial_and_parallel_sweeps_are_identical() {
    let cfg = config(true);
    let pairs: Vec<(Arch, Benchmark)> = ALL_ARCHS
        .iter()
        .map(|&a| (a, Benchmark::Count))
        .chain([(Arch::Millipede, Benchmark::Sample)])
        .collect();
    let serial = run_many_with(&pairs, &cfg, 1);
    let parallel = run_many_with(&pairs, &cfg, 4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!((s.arch, s.bench), (p.arch, p.bench));
        assert_eq!(digest_run(s), digest_run(p), "{}", s.arch.label());
        assert_eq!(s.node.stats, p.node.stats, "{}", s.arch.label());
    }
}
