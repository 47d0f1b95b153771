//! `gda` — Gaussian discriminant analysis: per-class mean and covariance
//! accumulation (Table II row 8).
//!
//! Records are `[class, X[0..DIMS]]` where the class label (70/30 split —
//! the paper's data-dependent branch ratio) selects which of the two mean /
//! covariance accumulator sets each point updates. Heaviest benchmark in
//! Table IV: the finalize pass walks the full upper-triangular outer
//! product *and* the per-class mean for every record.
//!
//! Live-state layout (per context):
//!
//! | bytes    | contents |
//! |----------|----------|
//! | 0–15     | `class[j]` scratch (j < 4) |
//! | 16–271   | `xs[j][DIMS]` scratch, 64-B stride |
//! | 272–367  | `meansum[2][DIMS]` |
//! | 368–991  | `covsum[2][TRI]` |
//! | 992–999  | `classCount[2]` |

use crate::gen::SplitMix64;
use crate::skeleton::{emit_multi_field_kernel, mv, R_ADDR, R_FIELD, R_SLOT};
use crate::{Reduced, Workload};
use millipede_isa::reg::{r, Reg};
use millipede_isa::{AddrSpace, AluOp, CmpOp, FAluOp, ProgramBuilder};
use millipede_mapreduce::{Dataset, InterleavedLayout, ThreadGrid, ABI_RPTC};

/// Point dimensionality.
pub const DIMS: usize = 12;
/// Upper-triangle entries per class.
pub const TRI: usize = DIMS * (DIMS + 1) / 2;
/// Record arity (class + coordinates).
pub const NUM_FIELDS: usize = 1 + DIMS;
/// Probability of class 1.
pub const CLASS1_PROB: f64 = 0.30;
/// Coordinates are uniform in `[0, COORD_RANGE)`.
pub const COORD_RANGE: f32 = 100.0;

const CLS_OFF: i32 = 0;
const XS_OFF: i32 = 16;
const XS_STRIDE_LOG2: i32 = 6;
const MEAN_OFF: i32 = 272;
const COV_OFF: i32 = 368;
const CNT_OFF: i32 = 992;
/// Per-context live-state bytes (fills the whole 1 KB partition).
pub const LIVE_BYTES: usize = 1024;

/// Builds the `gda` workload.
pub fn build(num_chunks: usize, row_bytes: u64, seed: u64) -> Workload {
    let layout = InterleavedLayout::new(NUM_FIELDS, row_bytes, num_chunks);
    let mut rng = SplitMix64::new(seed);
    let dataset = Dataset::generate(layout, |_| {
        let mut rec = Vec::with_capacity(NUM_FIELDS);
        rec.push(u32::from(rng.chance(CLASS1_PROB)));
        for _ in 0..DIMS {
            rec.push(rng.range_f32(0.0, COORD_RANGE).to_bits());
        }
        rec
    });
    let program = emit_multi_field_kernel(
        "gda",
        NUM_FIELDS,
        |_| {},
        Some(Box::new(|b: &mut ProgramBuilder| {
            // Class pass: stash the label, count the prior with a
            // two-sided data-dependent branch (class 0 ~70%).
            b.ld(r(10), R_ADDR, 0, AddrSpace::Input); // class
            b.alui(AluOp::Sll, r(12), R_SLOT, 2);
            b.st_local(r(10), r(12), CLS_OFF);
            let cls1 = b.label();
            let done = b.label();
            b.br(CmpOp::Ne, r(10), Reg::ZERO, cls1); // 30% taken
            b.ld(r(14), Reg::ZERO, CNT_OFF, AddrSpace::Local);
            b.alui(AluOp::Add, r(14), r(14), 1);
            b.st_local(r(14), Reg::ZERO, CNT_OFF);
            b.jmp(done);
            b.bind(cls1);
            b.ld(r(14), Reg::ZERO, CNT_OFF + 4, AddrSpace::Local);
            b.alui(AluOp::Add, r(14), r(14), 1);
            b.st_local(r(14), Reg::ZERO, CNT_OFF + 4);
            b.bind(done);
        })),
        |b| {
            // Coordinate pass: stash x in the slot's scratch row.
            // Scratch byte = XS_OFF + j*64 + (field-1)*4 = (XS_OFF-4) + j*64
            // + R_FIELD.
            b.ld(r(10), R_ADDR, 0, AddrSpace::Input);
            b.alui(AluOp::Sll, r(12), R_SLOT, XS_STRIDE_LOG2);
            b.alu(AluOp::Add, r(12), r(12), R_FIELD);
            b.st_local(r(10), r(12), XS_OFF - 4);
        },
        |b| {
            // Per slot: select the class's accumulator set, then fold the
            // point into its mean sums and upper-triangular covariance.
            b.li(R_SLOT, 0);
            let sloop = b.label();
            b.bind(sloop);
            b.alui(AluOp::Sll, r(13), R_SLOT, 2);
            b.ld(r(11), r(13), CLS_OFF, AddrSpace::Local); // class
                                                           // mean pointer: MEAN_OFF + class*DIMS*4
            b.alui(AluOp::Mul, r(15), r(11), (DIMS * 4) as i32);
            b.alui(AluOp::Add, r(15), r(15), MEAN_OFF);
            // cov pointer: COV_OFF + class*TRI*4
            b.alui(AluOp::Mul, r(20), r(11), (TRI * 4) as i32);
            b.alui(AluOp::Add, r(20), r(20), COV_OFF);
            // xi pointer and end
            b.alui(AluOp::Sll, r(12), R_SLOT, XS_STRIDE_LOG2);
            b.alui(AluOp::Add, r(18), r(12), XS_OFF);
            b.alui(AluOp::Add, r(24), r(18), (DIMS * 4) as i32);
            let iloop = b.label();
            b.bind(iloop);
            b.ld(r(17), r(18), 0, AddrSpace::Local); // xi
            b.ld(r(16), r(15), 0, AddrSpace::Local); // meansum
            b.falu(FAluOp::Fadd, r(16), r(16), r(17));
            b.st_local(r(16), r(15), 0);
            b.alui(AluOp::Add, r(15), r(15), 4);
            mv(b, r(19), r(18)); // xj pointer
            let jloop = b.label();
            b.bind(jloop);
            b.ld(r(21), r(19), 0, AddrSpace::Local); // xj
            b.falu(FAluOp::Fmul, r(21), r(21), r(17));
            b.ld(r(22), r(20), 0, AddrSpace::Local);
            b.falu(FAluOp::Fadd, r(22), r(22), r(21));
            b.st_local(r(22), r(20), 0);
            b.alui(AluOp::Add, r(19), r(19), 4);
            b.alui(AluOp::Add, r(20), r(20), 4);
            b.br(CmpOp::Lt, r(19), r(24), jloop);
            b.alui(AluOp::Add, r(18), r(18), 4);
            b.br(CmpOp::Lt, r(18), r(24), iloop);
            b.alui(AluOp::Add, R_SLOT, R_SLOT, 1);
            b.br(CmpOp::Lt, R_SLOT, ABI_RPTC, sloop);
        },
    );
    Workload {
        bench: crate::Benchmark::Gda,
        program,
        dataset,
        live_bytes: LIVE_BYTES,
        live_init: Vec::new(),
    }
}

/// Host Reduce: class counts (ints) and `[meansum[2][DIMS],
/// covsum[2][TRI]]` (`f32`, folded in thread order).
pub fn reduce(states: &[&[u32]]) -> Reduced {
    let mut ints = vec![0i64; 2];
    let mut floats = vec![0.0f32; 2 * DIMS + 2 * TRI];
    for s in states {
        ints[0] += s[(CNT_OFF / 4) as usize] as i64;
        ints[1] += s[(CNT_OFF / 4) as usize + 1] as i64;
        for i in 0..2 * DIMS {
            floats[i] += f32::from_bits(s[(MEAN_OFF / 4) as usize + i]);
        }
        for i in 0..2 * TRI {
            floats[2 * DIMS + i] += f32::from_bits(s[(COV_OFF / 4) as usize + i]);
        }
    }
    Reduced::Mixed { ints, floats }
}

/// Golden reference, replaying per-thread visit order and pair order.
pub fn reference(w: &Workload, grid: &ThreadGrid) -> Reduced {
    let layout = &w.dataset.layout;
    let mut ints = vec![0i64; 2];
    let mut floats = vec![0.0f32; 2 * DIMS + 2 * TRI];
    for corelet in 0..grid.corelets {
        for context in 0..grid.contexts {
            let mut mean = [0.0f32; 2 * DIMS];
            let mut cov = vec![0.0f32; 2 * TRI];
            for rec in grid.records_of_thread(layout, corelet, context) {
                let record = &w.dataset.records[rec];
                let class = record[0] as usize;
                ints[class] += 1;
                let xs: Vec<f32> = record[1..].iter().map(|&b| f32::from_bits(b)).collect();
                let mut idx = 0;
                for i in 0..DIMS {
                    mean[class * DIMS + i] += xs[i];
                    for j in i..DIMS {
                        cov[class * TRI + idx] += xs[i] * xs[j];
                        idx += 1;
                    }
                }
            }
            for i in 0..2 * DIMS {
                floats[i] += mean[i];
            }
            for i in 0..2 * TRI {
                floats[2 * DIMS + i] += cov[i];
            }
        }
    }
    Reduced::Mixed { ints, floats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Benchmark;

    #[test]
    fn functional_matches_reference() {
        let w = Workload::build(Benchmark::Gda, 2, 256, 71);
        let grid = ThreadGrid::slab(8, 4);
        assert_eq!(w.functional_output(&grid), w.reference(&grid));
    }

    #[test]
    fn class_priors_are_70_30() {
        let w = Workload::build(Benchmark::Gda, 2, 2048, 29);
        let grid = ThreadGrid::slab(32, 4);
        match w.functional_output(&grid) {
            Reduced::Mixed { ints, .. } => {
                let total = ints[0] + ints[1];
                assert_eq!(total, w.dataset.num_records() as i64);
                let frac1 = ints[1] as f64 / total as f64;
                assert!((0.22..0.38).contains(&frac1), "class-1 fraction {frac1}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn per_class_means_are_near_center() {
        let w = Workload::build(Benchmark::Gda, 4, 2048, 37);
        let grid = ThreadGrid::slab(32, 4);
        match w.functional_output(&grid) {
            Reduced::Mixed { ints, floats } => {
                for class in 0..2 {
                    let n = ints[class] as f32;
                    for d in 0..DIMS {
                        let m = floats[class * DIMS + d] / n;
                        assert!((40.0..60.0).contains(&m), "class {class} dim {d}: {m}");
                    }
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn live_layout_exactly_fills_partition() {
        assert_eq!(LIVE_BYTES, 1024);
        assert_eq!(CNT_OFF as usize + 8, 1000);
        assert!(COV_OFF as usize + 2 * TRI * 4 <= CNT_OFF as usize);
    }
}
