//! Run-to-run determinism checker.
//!
//! The simulator is a pure function of `(architecture, benchmark, config)`:
//! no wall-clock time, no OS randomness, and — after the repo-wide
//! `hash-iteration` lint — no hash-map iteration order feeds simulated
//! state. This module *checks* that property instead of assuming it: it
//! digests the complete observable result of a run (every core counter,
//! every DRAM counter, the picosecond runtime, the energy split, the
//! reduced output bytes, and the rate-matching trace) with FNV-1a, runs the
//! same configuration twice in fresh processes of the same address space,
//! and compares digests.
//!
//! A divergence means a nondeterminism bug (unordered iteration, uninit
//! read, address-dependent behaviour) crept back in — the class of bug that
//! silently invalidates every A/B comparison the paper's figures rest on.

use crate::arch::Arch;
use crate::config::SimConfig;
use crate::runner::{run_one, RunResult};
use millipede_workloads::{Benchmark, Reduced};

/// 64-bit FNV-1a — tiny, dependency-free, and good enough to witness
/// equality of two runs (we compare full digests of identical-length
/// streams, not resist adversaries).
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Creates a hasher at the FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(Self::OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs an `f64` bit-exactly.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs an `f32` bit-exactly.
    pub fn write_f32(&mut self, v: f32) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn write_reduced(h: &mut Fnv1a, r: &Reduced) {
    match r {
        Reduced::Ints(v) => {
            h.write_u64(1);
            h.write_u64(v.len() as u64);
            for &x in v {
                h.write_u64(x as u64);
            }
        }
        Reduced::Floats(v) => {
            h.write_u64(2);
            h.write_u64(v.len() as u64);
            for &x in v {
                h.write_f32(x);
            }
        }
        Reduced::Mixed { ints, floats } => {
            h.write_u64(3);
            h.write_u64(ints.len() as u64);
            for &x in ints {
                h.write_u64(x as u64);
            }
            h.write_u64(floats.len() as u64);
            for &x in floats {
                h.write_f32(x);
            }
        }
    }
}

/// Digests everything observable about a completed run.
///
/// Host-side profiling metadata — `RunResult::wall` and
/// `CoreStats::ff_skipped_cycles` — is deliberately excluded: a
/// fast-forwarded run must digest identically to its cycle-by-cycle
/// baseline, on any host.
pub fn digest_run(r: &RunResult) -> u64 {
    let mut h = Fnv1a::new();
    h.write(r.arch.label().as_bytes());
    h.write(r.bench.name().as_bytes());

    let s = &r.node.stats;
    for (_, v) in s.counters() {
        h.write_u64(v);
    }
    h.write_f64(s.rate_match_final_mhz);
    h.write_u64(s.rate_trace.len() as u64);
    for &(cycle, mhz) in &s.rate_trace {
        h.write_u64(cycle);
        h.write_f64(mhz);
    }

    for (_, v) in r.node.dram.counters() {
        h.write_u64(v);
    }

    h.write_u64(r.node.elapsed_ps);
    write_reduced(&mut h, &r.node.output);
    h.write_u64(u64::from(r.node.output_ok));

    h.write_f64(r.energy.core_pj);
    h.write_f64(r.energy.dram_pj);
    h.write_f64(r.energy.static_pj);
    h.finish()
}

/// A determinism failure: two identical invocations diverged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The architecture that diverged.
    pub arch: Arch,
    /// The benchmark that diverged.
    pub bench: Benchmark,
    /// Digest of the first run.
    pub first: u64,
    /// Digest of the second run.
    pub second: u64,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} on {} is nondeterministic: {:#018x} vs {:#018x}",
            self.arch.label(),
            self.bench.name(),
            self.first,
            self.second
        )
    }
}

/// Runs `(arch, bench, cfg)` twice and compares full-result digests.
///
/// Returns the (common) digest on success.
pub fn check_determinism(arch: Arch, bench: Benchmark, cfg: &SimConfig) -> Result<u64, Divergence> {
    let first = digest_run(&run_one(arch, bench, cfg));
    let second = digest_run(&run_one(arch, bench, cfg));
    if first == second {
        Ok(first)
    } else {
        Err(Divergence {
            arch,
            bench,
            first,
            second,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a test vectors.
        let mut h = Fnv1a::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325); // empty
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn digest_is_sensitive_to_every_field() {
        let cfg = SimConfig {
            num_chunks: 2,
            ..Default::default()
        };
        let base = run_one(Arch::Ssmc, Benchmark::Count, &cfg);
        let d0 = digest_run(&base);
        let mut t = base.clone();
        t.node.elapsed_ps += 1;
        assert_ne!(digest_run(&t), d0);
        let mut t = base.clone();
        t.node.stats.l1_hits ^= 1;
        assert_ne!(digest_run(&t), d0);
        let mut t = base.clone();
        t.energy.dram_pj += 1.0;
        assert_ne!(digest_run(&t), d0);
        let mut t = base;
        if let Reduced::Ints(v) = &mut t.node.output {
            v[0] ^= 1;
        }
        assert_ne!(digest_run(&t), d0);
    }

    #[test]
    fn digest_ignores_host_profiling_fields() {
        let cfg = SimConfig {
            num_chunks: 2,
            ..Default::default()
        };
        let base = run_one(Arch::Ssmc, Benchmark::Count, &cfg);
        let d0 = digest_run(&base);
        let mut t = base;
        t.wall += std::time::Duration::from_secs(1);
        t.node.stats.ff_skipped_cycles += 12345;
        assert_eq!(
            digest_run(&t),
            d0,
            "wall time and skipped-cycle counters must stay out of digests"
        );
    }

    #[test]
    fn identical_runs_share_a_digest() {
        let cfg = SimConfig {
            num_chunks: 2,
            ..Default::default()
        };
        let digest = check_determinism(Arch::Millipede, Benchmark::Count, &cfg)
            .expect("millipede must be deterministic");
        assert_ne!(digest, 0);
    }
}
