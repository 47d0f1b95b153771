//! `variance` — per-bin count/sum/sum-of-squares statistics (Table II
//! row 3).
//!
//! Each record is a rating word, 10% of which are an *invalid* sentinel the
//! Map must skip — the data-dependent branch for this benchmark. Valid
//! ratings update three per-bin accumulators; the host computes the final
//! variance per bin from the reduced `(count, sum, sumsq)` triples.
//!
//! Live-state layout (per context): 8 bins × 16 bytes, each
//! `[count, sum, sumsq, pad]`.

use crate::gen::SplitMix64;
use crate::skeleton::{emit_single_field_kernel, R_ADDR, R_CONST9};
use crate::{Reduced, Workload};
use millipede_isa::reg::{r, Reg};
use millipede_isa::{AddrSpace, AluOp, CmpOp};
use millipede_mapreduce::{Dataset, InterleavedLayout, ThreadGrid};

/// Histogram bins.
pub const NUM_BINS: usize = 8;
/// Ratings are uniform in `[0, RATING_RANGE)`.
pub const RATING_RANGE: u32 = 256;
/// Sentinel marking an invalid record (skipped by the Map).
pub const INVALID: u32 = 0xFFFF_FFFF;
/// Fraction of invalid records.
pub const INVALID_FRAC: f64 = 0.10;
/// Per-context live-state bytes (8 bins × 16 B plus the invalid counter).
pub const LIVE_BYTES: usize = NUM_BINS * 16 + 32;
const INVALID_OFF: i32 = (NUM_BINS * 16) as i32;

/// Builds the `variance` workload.
pub fn build(num_chunks: usize, row_bytes: u64, seed: u64) -> Workload {
    let layout = InterleavedLayout::new(1, row_bytes, num_chunks);
    let mut rng = SplitMix64::new(seed);
    let dataset = Dataset::generate(layout, |_| {
        if rng.chance(INVALID_FRAC) {
            vec![INVALID]
        } else {
            vec![rng.below(RATING_RANGE)]
        }
    });
    let program = emit_single_field_kernel(
        "variance",
        |b| {
            b.li(R_CONST9, INVALID);
        },
        |b| {
            b.ld(r(10), R_ADDR, 0, AddrSpace::Input); // rating
            let invalid = b.label();
            let join = b.label();
            b.br(CmpOp::Eq, r(10), R_CONST9, invalid); // invalid (10%)
                                                       // Bin by bits 4–6, pre-scaled to a byte offset (bin*16).
            b.alui(AluOp::And, r(11), r(10), ((NUM_BINS - 1) << 4) as i32);
            b.ld(r(12), r(11), 0, AddrSpace::Local); // count
            b.alui(AluOp::Add, r(12), r(12), 1);
            b.st_local(r(12), r(11), 0);
            b.ld(r(13), r(11), 4, AddrSpace::Local); // sum
            b.alu(AluOp::Add, r(13), r(13), r(10));
            b.st_local(r(13), r(11), 4);
            b.alu(AluOp::Mul, r(14), r(10), r(10));
            b.ld(r(15), r(11), 8, AddrSpace::Local); // sumsq
            b.alu(AluOp::Add, r(15), r(15), r(14));
            b.st_local(r(15), r(11), 8);
            b.jmp(join);
            b.bind(invalid);
            b.ld(r(12), Reg::ZERO, INVALID_OFF, AddrSpace::Local);
            b.alui(AluOp::Add, r(12), r(12), 1);
            b.st_local(r(12), Reg::ZERO, INVALID_OFF);
            b.bind(join);
        },
    );
    Workload {
        bench: crate::Benchmark::Variance,
        program,
        dataset,
        live_bytes: LIVE_BYTES,
        live_init: Vec::new(),
    }
}

/// Host Reduce: the per-bin triples plus the invalid count; output
/// `[counts, sums, sumsqs, invalid]`.
pub fn reduce(states: &[&[u32]]) -> Reduced {
    let mut out = vec![0i64; 3 * NUM_BINS + 1];
    for s in states {
        for bin in 0..NUM_BINS {
            out[bin] += s[bin * 4] as i64;
            out[NUM_BINS + bin] += s[bin * 4 + 1] as i64;
            out[2 * NUM_BINS + bin] += s[bin * 4 + 2] as i64;
        }
        out[3 * NUM_BINS] += s[(INVALID_OFF / 4) as usize] as i64;
    }
    Reduced::Ints(out)
}

/// Golden reference (integer accumulation — order irrelevant).
pub fn reference(w: &Workload, _grid: &ThreadGrid) -> Reduced {
    let mut out = vec![0i64; 3 * NUM_BINS + 1];
    for rec in &w.dataset.records {
        let rating = rec[0];
        if rating == INVALID {
            out[3 * NUM_BINS] += 1;
            continue;
        }
        let bin = (rating as usize >> 4) & (NUM_BINS - 1);
        out[bin] += 1;
        out[NUM_BINS + bin] += rating as i64;
        out[2 * NUM_BINS + bin] += (rating as i64) * (rating as i64);
    }
    Reduced::Ints(out)
}

/// Final per-bin variance from a reduced output (host post-processing).
pub fn variances(reduced: &Reduced) -> Vec<f64> {
    let v = match reduced {
        Reduced::Ints(v) => v,
        other => panic!("variance output must be Ints, got {other:?}"),
    };
    (0..NUM_BINS)
        .map(|bin| {
            if v[bin] == 0 {
                return 0.0;
            }
            let n = v[bin] as f64;
            let mean = v[NUM_BINS + bin] as f64 / n;
            v[2 * NUM_BINS + bin] as f64 / n - mean * mean
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Benchmark;

    #[test]
    fn functional_matches_reference() {
        let w = Workload::build(Benchmark::Variance, 3, 256, 21);
        let grid = ThreadGrid::slab(8, 4);
        assert_eq!(w.functional_output(&grid), w.reference(&grid));
    }

    #[test]
    fn invalid_records_are_skipped() {
        let w = Workload::build(Benchmark::Variance, 8, 2048, 2);
        let grid = ThreadGrid::slab(32, 4);
        match w.functional_output(&grid) {
            Reduced::Ints(v) => {
                let counted: i64 = v[..NUM_BINS].iter().sum();
                let total = w.dataset.num_records() as i64;
                let frac = counted as f64 / total as f64;
                assert!((0.85..0.95).contains(&frac), "valid fraction {frac}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn variance_of_uniform_ratings_is_plausible() {
        let w = Workload::build(Benchmark::Variance, 8, 2048, 13);
        let grid = ThreadGrid::slab(32, 4);
        let out = w.functional_output(&grid);
        for var in variances(&out) {
            // Bin members are 128m + 16·bin + k (m ∈ {0,1}, k ∈ 0..16):
            // variance ≈ 128²/4 + (16²−1)/12 ≈ 4117.
            assert!((3200.0..5200.0).contains(&var), "variance {var}");
        }
    }

    #[test]
    fn variances_handles_empty_bins() {
        let out = Reduced::Ints(vec![0i64; 3 * NUM_BINS + 1]);
        assert!(variances(&out).iter().all(|&v| v == 0.0));
    }
}
