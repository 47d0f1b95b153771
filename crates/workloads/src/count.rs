//! `count` — histogram of movie ratings via a comparison tree (Table II
//! row 1).
//!
//! The lightest benchmark (Table IV: fewest instructions per input word,
//! highest branch frequency). Each record is a single rating word; the Map
//! classifies it into one of [`NUM_BINS`] equal ranges down a three-level
//! tree of data-dependent compare-and-branch instructions, then bumps that
//! bin's counter. The paper notes this very implementation choice:
//! "replacing the indirect accesses with if-then-else constructs, to
//! increment the appropriate counters, would lead to more control-flow
//! irregularity" (§III-A) — on a MIMD corelet each record walks *one* path
//! (constant cost), while a 32-wide SIMT warp's threads scatter across all
//! eight leaves and serialize, which is exactly the left-edge behaviour of
//! Fig. 3.
//!
//! Live-state layout (per context): `bins[8]` counters at bytes 0–31.

use crate::gen::SplitMix64;
use crate::skeleton::{emit_single_field_kernel, emit_single_field_kernel_sync, R_ADDR};
use crate::{Reduced, Workload};
use millipede_isa::reg::{r, Reg};
use millipede_isa::{AddrSpace, AluOp, CmpOp, Label, ProgramBuilder};
use millipede_mapreduce::{Dataset, InterleavedLayout, ThreadGrid};

/// Histogram bins (ranges of `RATING_RANGE / NUM_BINS`).
pub const NUM_BINS: usize = 8;
/// Ratings are uniform in `[0, RATING_RANGE)`.
pub const RATING_RANGE: u32 = 256;
/// Per-context live-state bytes.
pub const LIVE_BYTES: usize = 64;

/// Recursively emits the compare tree over bins `[lo, hi)`; the rating sits
/// in `r10`, `r13` is the comparison scratch register, and `join` is the
/// common exit.
fn emit_tree(b: &mut ProgramBuilder, lo: usize, hi: usize, join: Label) {
    if hi - lo == 1 {
        // Leaf: bins[lo]++.
        let off = (lo * 4) as i32;
        b.ld(r(12), Reg::ZERO, off, AddrSpace::Local);
        b.alui(AluOp::Add, r(12), r(12), 1);
        b.st_local(r(12), Reg::ZERO, off);
        if lo != 0 {
            // Bin 0 is emitted last and falls through to `join`.
            b.jmp(join);
        }
        return;
    }
    let mid = (lo + hi) / 2;
    let threshold = (RATING_RANGE as usize / NUM_BINS * mid) as u32;
    let lower = b.label();
    b.li(r(13), threshold);
    b.br(CmpOp::Ltu, r(10), r(13), lower);
    emit_tree(b, mid, hi, join);
    b.bind(lower);
    emit_tree(b, lo, mid, join);
}

/// Builds the `count` workload.
pub fn build(num_chunks: usize, row_bytes: u64, seed: u64) -> Workload {
    build_inner(num_chunks, row_bytes, seed, false)
}

/// Builds `count` with a software barrier after every record — §IV-C's
/// alternative to hardware flow control (used by the ablation experiment).
pub fn build_with_barriers(num_chunks: usize, row_bytes: u64, seed: u64) -> Workload {
    build_inner(num_chunks, row_bytes, seed, true)
}

fn build_inner(num_chunks: usize, row_bytes: u64, seed: u64, barriers: bool) -> Workload {
    let layout = InterleavedLayout::new(1, row_bytes, num_chunks);
    let mut rng = SplitMix64::new(seed);
    let dataset = Dataset::generate(layout, |_| vec![rng.below(RATING_RANGE)]);
    let body = |b: &mut ProgramBuilder| {
        b.ld(r(10), R_ADDR, 0, AddrSpace::Input); // rating
        let join = b.label();
        emit_tree(b, 0, NUM_BINS, join);
        b.bind(join);
    };
    let program = if barriers {
        emit_single_field_kernel_sync("count-barriers", |_| {}, body, true)
    } else {
        emit_single_field_kernel("count", |_| {}, body)
    };
    Workload {
        bench: crate::Benchmark::Count,
        program,
        dataset,
        live_bytes: LIVE_BYTES,
        live_init: Vec::new(),
    }
}

/// Host Reduce: sum each bin over all thread states.
pub fn reduce(states: &[&[u32]]) -> Reduced {
    let mut out = vec![0i64; NUM_BINS];
    for s in states {
        for bin in 0..NUM_BINS {
            out[bin] += s[bin] as i64;
        }
    }
    Reduced::Ints(out)
}

/// Golden reference (integer outputs — visit order is irrelevant).
pub fn reference(w: &Workload, _grid: &ThreadGrid) -> Reduced {
    let width = RATING_RANGE as usize / NUM_BINS;
    let mut out = vec![0i64; NUM_BINS];
    for rec in &w.dataset.records {
        out[(rec[0] as usize / width).min(NUM_BINS - 1)] += 1;
    }
    Reduced::Ints(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Benchmark;

    #[test]
    fn functional_matches_reference() {
        let w = Workload::build(Benchmark::Count, 2, 256, 1);
        let grid = ThreadGrid::slab(8, 4);
        assert_eq!(w.functional_output(&grid), w.reference(&grid));
    }

    #[test]
    fn bins_sum_to_record_count_and_are_balanced() {
        let w = Workload::build(Benchmark::Count, 3, 2048, 7);
        let grid = ThreadGrid::slab(16, 4);
        match w.functional_output(&grid) {
            Reduced::Ints(v) => {
                let total: i64 = v.iter().sum();
                assert_eq!(total, w.dataset.num_records() as i64);
                // Uniform ratings → every eighth roughly equal.
                let expect = total as f64 / NUM_BINS as f64;
                for (bin, &n) in v.iter().enumerate() {
                    let dev = (n as f64 - expect).abs() / expect;
                    assert!(dev < 0.35, "bin {bin}: {n} vs {expect}");
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tree_covers_every_rating() {
        // Boundary ratings land in exactly the reference bin.
        let width = RATING_RANGE as usize / NUM_BINS;
        for rating in [0u32, 31, 32, 63, 64, 127, 128, 191, 192, 255] {
            let layout = InterleavedLayout::new(1, 64, 1);
            let dataset = Dataset::new(layout, vec![vec![rating]; 16]);
            let base = Workload::build(Benchmark::Count, 1, 64, 0);
            let w = Workload { dataset, ..base };
            let grid = ThreadGrid::slab(4, 4);
            match w.functional_output(&grid) {
                Reduced::Ints(v) => {
                    let bin = rating as usize / width;
                    assert_eq!(v[bin], 16, "rating {rating} → bin {bin}: {v:?}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn deterministic_across_builds() {
        let a = Workload::build(Benchmark::Count, 2, 256, 5);
        let b = Workload::build(Benchmark::Count, 2, 256, 5);
        assert_eq!(a.dataset.records, b.dataset.records);
    }

    #[test]
    fn different_seeds_give_different_data() {
        let a = Workload::build(Benchmark::Count, 2, 256, 5);
        let b = Workload::build(Benchmark::Count, 2, 256, 6);
        assert_ne!(a.dataset.records, b.dataset.records);
    }
}
