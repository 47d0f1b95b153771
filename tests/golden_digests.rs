//! Golden-digest snapshot of every architecture variant.
//!
//! Pins the FNV-1a digest of the complete observable result
//! ([`millipede_sim::digest_run`]) for all eight architecture variants on a
//! small reference configuration, plus one compute-bound SSMC point of the
//! repo benchmark. The digests capture every core counter,
//! every DRAM counter, the picosecond runtime, the energy split, and the
//! reduced output — so *any* behavioural change to *any* simulator layer
//! shows up here as a digest mismatch.
//!
//! These values are intentionally independent of host and of the
//! observation settings: idle-cycle fast-forwarding (DESIGN.md, "One
//! driver") is bit-exact by construction and its `ff_skipped_cycles`
//! counter is excluded from the digest, and telemetry is purely
//! observational. The pins are checked in-process in three modes —
//! fast-forward off, fast-forward on, and fast-forward on with telemetry
//! recording.
//!
//! If a change is *supposed* to alter simulated behaviour, re-pin: run this
//! test, and each failure message prints the actual digest to paste in.

use millipede_sim::{digest_run, run_one, Arch, SimConfig, TelemetryConfig};
use millipede_workloads::Benchmark;

/// The reference configuration: small enough to run all variants in a few
/// hundred milliseconds, large enough to exercise prefetch, flow control,
/// and rate matching past their startup transients.
fn reference_config() -> SimConfig {
    SimConfig {
        num_chunks: 4,
        ..SimConfig::default()
    }
}

/// `(arch, bench, pinned digest)` for the reference configuration.
const GOLDEN: &[(Arch, Benchmark, u64)] = &[
    (Arch::Gpgpu, Benchmark::Count, 0x6d7f787395bdbaf0),
    (Arch::Vws, Benchmark::Count, 0xd4db1a0742b56bde),
    (Arch::Ssmc, Benchmark::Count, 0x54ae9016e81b1e91),
    (
        Arch::MillipedeNoFlowControl,
        Benchmark::Count,
        0x4e75e015e0fd9b3e,
    ),
    (Arch::VwsRow, Benchmark::Count, 0xbd6d463439bc993f),
    (
        Arch::MillipedeNoRateMatch,
        Benchmark::Count,
        0x695f59d14266aa1c,
    ),
    (Arch::Millipede, Benchmark::Count, 0x1bf0a35db1c73f8c),
    (Arch::Multicore, Benchmark::Count, 0x129e8c69bfd0782a),
    (Arch::Gpgpu, Benchmark::Sample, 0xdb967dbde0e16dc5),
    (Arch::Vws, Benchmark::Sample, 0x20d728a668dcebd5),
    (Arch::Ssmc, Benchmark::Sample, 0x34fee896c6df7c54),
    (
        Arch::MillipedeNoFlowControl,
        Benchmark::Sample,
        0xcd336883b9bda3ff,
    ),
    (Arch::VwsRow, Benchmark::Sample, 0x814c07e47a4f8963),
    (
        Arch::MillipedeNoRateMatch,
        Benchmark::Sample,
        0x0bc211b012fda095,
    ),
    (Arch::Millipede, Benchmark::Sample, 0xc5fc82864f4e07c0),
    (Arch::Multicore, Benchmark::Sample, 0xbbba073acf853af9),
    // Workload families (graph + dense): one benchmark from each family
    // pinned on all eight variants, so a behavioural change that only
    // affects the new kernels' irregular access patterns (indexed LOCAL
    // stores, divergent branches, finalize loops) still trips the snapshot.
    (Arch::Gpgpu, Benchmark::Pagerank, 0xcc2501f1d3f725e6),
    (Arch::Vws, Benchmark::Pagerank, 0xaa4edd074c3e7c80),
    (Arch::Ssmc, Benchmark::Pagerank, 0x7692ff0cd89f70cf),
    (
        Arch::MillipedeNoFlowControl,
        Benchmark::Pagerank,
        0x1e9fca47162cf748,
    ),
    (Arch::VwsRow, Benchmark::Pagerank, 0x0ae2ad7fd44e3cf8),
    (
        Arch::MillipedeNoRateMatch,
        Benchmark::Pagerank,
        0x9c33ddfb90878d6e,
    ),
    (Arch::Millipede, Benchmark::Pagerank, 0x6164af4df389b6aa),
    (Arch::Multicore, Benchmark::Pagerank, 0x16d3f2b3eb5e8e6c),
    (Arch::Gpgpu, Benchmark::StreamAdd, 0x3af2364f824e6b7d),
    (Arch::Vws, Benchmark::StreamAdd, 0xf060266d93c18976),
    (Arch::Ssmc, Benchmark::StreamAdd, 0xc08703321c1d3a00),
    (
        Arch::MillipedeNoFlowControl,
        Benchmark::StreamAdd,
        0x175f2b1b394aa3d0,
    ),
    (Arch::VwsRow, Benchmark::StreamAdd, 0x4fc9ade33b926aaf),
    (
        Arch::MillipedeNoRateMatch,
        Benchmark::StreamAdd,
        0xe29c7eae7b18c6fa,
    ),
    (Arch::Millipede, Benchmark::StreamAdd, 0x0b0ee745b3c488eb),
    (Arch::Multicore, Benchmark::StreamAdd, 0x4d2f03b6f8f9a7fd),
];

/// `(bench, pinned digest)` for SSMC at 16 chunks: the benchmark's
/// `ssmc-gemm` point (`src/bin/millipede-benchmark/digests.rs`). Its long
/// ALU runs let a core's prefetch pump park on its window and later raise
/// its lookahead limit, which the 4-chunk points above never do; a pump
/// left parked past that raise changes this digest (and the benchmark's
/// `ssmc-gda`) and no other pinned here.
const SSMC_COMPUTE: &[(Benchmark, u64)] = &[(Benchmark::Gemm, 0x465fbc7cebc0a85c)];

#[test]
fn golden_digests_hold_for_every_arch() {
    let walked = SimConfig {
        fast_forward: false,
        ..reference_config()
    };
    let traced = SimConfig {
        telemetry: TelemetryConfig {
            enabled: true,
            ..TelemetryConfig::default()
        },
        ..reference_config()
    };
    let modes = [
        ("fast-forward off", walked),
        ("fast-forward on", reference_config()),
        ("fast-forward on + telemetry", traced),
    ];
    let mut failures = Vec::new();
    for (mode, cfg) in &modes {
        let compute = SimConfig {
            num_chunks: 16,
            ..cfg.clone()
        };
        let ssmc = SSMC_COMPUTE
            .iter()
            .map(|&(bench, digest)| (Arch::Ssmc, bench, digest, &compute));
        let points = GOLDEN.iter().map(|&(a, b, d)| (a, b, d, cfg)).chain(ssmc);
        for (arch, bench, expected, cfg) in points {
            let digest = digest_run(&run_one(arch, bench, cfg));
            if digest != expected {
                failures.push(format!(
                    "{mode}: ({arch:?}, {bench:?}, {} chunks): pinned {expected:#018x}, \
                     got {digest:#018x}",
                    cfg.num_chunks
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "golden digests diverged (if intentional, re-pin with the values \
         below):\n{}",
        failures.join("\n")
    );
}

#[test]
fn golden_table_covers_every_variant() {
    // The snapshot must never silently lose coverage of a variant.
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
        assert!(
            GOLDEN.iter().filter(|(a, _, _)| *a == arch).count() >= 2,
            "{} missing from the golden table",
            arch.label()
        );
    }
}
