//! `sample` — systematic per-bin sample selection (Table II row 2).
//!
//! Each record is a rating word; the Map bins it, counts it, and keeps every
//! 8th element of each bin as a representative sample. The keep decision
//! branches on the running per-bin count — a data-dependent branch whose
//! probability (87.5% skip) is intrinsic to the algorithm, not the data
//! distribution.
//!
//! Live-state layout (per context): 8 bins × 16 bytes, each
//! `[count, n_kept, element, pad]`.

use crate::gen::SplitMix64;
use crate::skeleton::{emit_single_field_kernel, R_ADDR};
use crate::{Reduced, Workload};
use millipede_isa::reg::{r, Reg};
use millipede_isa::{AddrSpace, AluOp, CmpOp};
use millipede_mapreduce::{Dataset, InterleavedLayout, ThreadGrid};

/// Histogram bins.
pub const NUM_BINS: usize = 8;
/// Keep every `KEEP_EVERY`-th element of a bin.
pub const KEEP_EVERY: u32 = 8;
/// Ratings are uniform in `[0, RATING_RANGE)`.
pub const RATING_RANGE: u32 = 256;
/// Per-context live-state bytes (8 bins × 16 B, plus the skipped counter).
pub const LIVE_BYTES: usize = NUM_BINS * 16 + 32;
const SKIP_OFF: i32 = (NUM_BINS * 16) as i32;

/// Builds the `sample` workload.
pub fn build(num_chunks: usize, row_bytes: u64, seed: u64) -> Workload {
    let layout = InterleavedLayout::new(1, row_bytes, num_chunks);
    let mut rng = SplitMix64::new(seed);
    let dataset = Dataset::generate(layout, |_| vec![rng.below(RATING_RANGE)]);
    let program = emit_single_field_kernel(
        "sample",
        |_| {},
        |b| {
            b.ld(r(10), R_ADDR, 0, AddrSpace::Input); // rating
            b.alui(AluOp::And, r(11), r(10), (NUM_BINS - 1) as i32);
            b.alui(AluOp::Sll, r(11), r(11), 4); // bin*16
            b.ld(r(12), r(11), 0, AddrSpace::Local); // count
            b.alui(AluOp::Add, r(12), r(12), 1);
            b.st_local(r(12), r(11), 0);
            // Keep every 8th element of the bin; both sides of the
            // data-dependent branch do work (keep vs count-as-skipped).
            b.alui(AluOp::And, r(13), r(12), (KEEP_EVERY - 1) as i32);
            let skipped = b.label();
            let join = b.label();
            b.br(CmpOp::Ne, r(13), Reg::ZERO, skipped);
            b.ld(r(14), r(11), 4, AddrSpace::Local); // n_kept
            b.alui(AluOp::Add, r(14), r(14), 1);
            b.st_local(r(14), r(11), 4);
            b.st_local(r(10), r(11), 8); // kept element
            b.st_local(r(12), r(11), 12); // count snapshot at keep time
            b.jmp(join);
            b.bind(skipped);
            b.ld(r(14), Reg::ZERO, SKIP_OFF, AddrSpace::Local);
            b.alui(AluOp::Add, r(14), r(14), 1);
            b.st_local(r(14), Reg::ZERO, SKIP_OFF);
            b.bind(join);
        },
    );
    Workload {
        bench: crate::Benchmark::Sample,
        program,
        dataset,
        live_bytes: LIVE_BYTES,
        live_init: Vec::new(),
    }
}

/// Host Reduce: per bin, sum counts and kept counts; combine the kept
/// representatives by taking the maximum (deterministic and associative);
/// the final element is the skipped count.
pub fn reduce(states: &[&[u32]]) -> Reduced {
    let mut out = vec![0i64; 3 * NUM_BINS + 1];
    for s in states {
        for bin in 0..NUM_BINS {
            out[bin] += s[bin * 4] as i64;
            out[NUM_BINS + bin] += s[bin * 4 + 1] as i64;
            out[2 * NUM_BINS + bin] = out[2 * NUM_BINS + bin].max(s[bin * 4 + 2] as i64);
        }
        out[3 * NUM_BINS] += s[(SKIP_OFF / 4) as usize] as i64;
    }
    Reduced::Ints(out)
}

/// Golden reference: replays each thread's record visit order, because the
/// systematic keep rule depends on the per-thread running count.
pub fn reference(w: &Workload, grid: &ThreadGrid) -> Reduced {
    let layout = &w.dataset.layout;
    let mut out = vec![0i64; 3 * NUM_BINS + 1];
    for corelet in 0..grid.corelets {
        for context in 0..grid.contexts {
            let mut count = [0u32; NUM_BINS];
            let mut kept = [0u32; NUM_BINS];
            let mut elem = [0u32; NUM_BINS];
            for rec in grid.records_of_thread(layout, corelet, context) {
                let rating = w.dataset.records[rec][0];
                let bin = (rating as usize) & (NUM_BINS - 1);
                count[bin] += 1;
                if count[bin] % KEEP_EVERY == 0 {
                    kept[bin] += 1;
                    elem[bin] = rating;
                } else {
                    out[3 * NUM_BINS] += 1;
                }
            }
            for bin in 0..NUM_BINS {
                out[bin] += count[bin] as i64;
                out[NUM_BINS + bin] += kept[bin] as i64;
                out[2 * NUM_BINS + bin] = out[2 * NUM_BINS + bin].max(elem[bin] as i64);
            }
        }
    }
    Reduced::Ints(out)
}

/// Cluster-level combine: counts and kept/skipped totals add; the kept
/// representatives combine by maximum, mirroring [`reduce`].
pub fn combine(outputs: &[crate::Reduced]) -> crate::Reduced {
    let mut acc = match &outputs[0] {
        crate::Reduced::Ints(v) => v.clone(),
        other => panic!("sample output must be Ints, got {other:?}"),
    };
    for out in &outputs[1..] {
        let crate::Reduced::Ints(v) = out else {
            panic!("sample output must be Ints");
        };
        assert_eq!(v.len(), acc.len());
        for (i, (x, y)) in acc.iter_mut().zip(v).enumerate() {
            if (2 * NUM_BINS..3 * NUM_BINS).contains(&i) {
                *x = (*x).max(*y);
            } else {
                *x += y;
            }
        }
    }
    crate::Reduced::Ints(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Benchmark;

    #[test]
    fn functional_matches_reference() {
        let w = Workload::build(Benchmark::Sample, 3, 256, 11);
        let grid = ThreadGrid::slab(8, 4);
        assert_eq!(w.functional_output(&grid), w.reference(&grid));
    }

    #[test]
    fn kept_is_about_one_eighth_of_count() {
        let w = Workload::build(Benchmark::Sample, 32, 2048, 3);
        let grid = ThreadGrid::slab(32, 4);
        match w.functional_output(&grid) {
            Reduced::Ints(v) => {
                let counts: i64 = v[..NUM_BINS].iter().sum();
                let kept: i64 = v[NUM_BINS..2 * NUM_BINS].iter().sum();
                assert_eq!(counts, w.dataset.num_records() as i64);
                let ratio = kept as f64 / counts as f64;
                // Per-thread systematic sampling truncates, so the ratio
                // sits below 1/8.
                assert!((0.03..=0.125).contains(&ratio), "keep ratio {ratio}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn kept_elements_fall_in_their_bin() {
        let w = Workload::build(Benchmark::Sample, 4, 512, 9);
        let grid = ThreadGrid::slab(16, 4);
        match w.functional_output(&grid) {
            Reduced::Ints(v) => {
                for bin in 0..NUM_BINS {
                    let e = v[2 * NUM_BINS + bin];
                    if e != 0 {
                        assert_eq!(e as usize & (NUM_BINS - 1), bin);
                    }
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
