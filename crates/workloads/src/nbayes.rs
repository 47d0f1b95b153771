//! `nbayes` — Naive Bayes conditional-probability counting (Table I of the
//! paper, Table II row 4).
//!
//! Records are `[year, X[0..DIMS]]` with discrete feature values
//! `X[d] ∈ [0, VALS)`. The class is derived from the year by a
//! data-dependent branch (`year > THRESHOLD`, ~30% taken — the paper's
//! 70/30 split), and each feature word increments the conditional
//! probability counter `Cprob[d][X[d]][class]` through an *indirect*,
//! data-dependent local access — the two irregularity sources the paper
//! calls out for this kernel.
//!
//! Live-state layout (per context):
//!
//! | bytes   | contents |
//! |---------|----------|
//! | 0–15    | `class[j]` scratch per record slot (j < 4) |
//! | 16–23   | `classCount[2]` |
//! | 24–151  | `Cprob[DIMS][VALS][2]` |
//! | 152–215 | `valueCount[DIMS][VALS]` (class-independent histogram) |

use crate::gen::SplitMix64;
use crate::skeleton::{emit_multi_field_kernel, R_ADDR, R_CONST8, R_FIELD, R_SLOT};
use crate::{Reduced, Workload};
use millipede_isa::reg::{r, Reg};
use millipede_isa::{AddrSpace, AluOp, CmpOp, ProgramBuilder};
use millipede_mapreduce::{Dataset, InterleavedLayout, ThreadGrid};

/// Feature dimensions per record.
pub const DIMS: usize = 4;
/// Distinct values per feature.
pub const VALS: usize = 4;
/// Years are uniform in `[0, YEAR_RANGE)`.
pub const YEAR_RANGE: u32 = 100;
/// Class-1 threshold: `year > THRESHOLD`.
pub const THRESHOLD: u32 = 70;
/// Record arity (year + features).
pub const NUM_FIELDS: usize = 1 + DIMS;

const CLASS_OFF: i32 = 0;
const CC_OFF: i32 = 16;
const CPROB_OFF: i32 = 24;
const VC_OFF: i32 = CPROB_OFF + (DIMS * VALS * 2 * 4) as i32;
/// Per-context live-state bytes.
pub const LIVE_BYTES: usize = (VC_OFF as usize) + DIMS * VALS * 4;

/// Builds the `nbayes` workload.
pub fn build(num_chunks: usize, row_bytes: u64, seed: u64) -> Workload {
    let layout = InterleavedLayout::new(NUM_FIELDS, row_bytes, num_chunks);
    let mut rng = SplitMix64::new(seed);
    let dataset = Dataset::generate(layout, |_| {
        let mut rec = Vec::with_capacity(NUM_FIELDS);
        rec.push(rng.below(YEAR_RANGE));
        for _ in 0..DIMS {
            rec.push(rng.below(VALS as u32));
        }
        rec
    });
    let program = emit_multi_field_kernel(
        "nbayes",
        NUM_FIELDS,
        |b| {
            b.li(R_CONST8, THRESHOLD);
        },
        Some(Box::new(|b: &mut ProgramBuilder| {
            // Year pass: derive the class with a two-sided data-dependent
            // branch (the paper's 70/30 split), count it on each side, and
            // stash it per slot.
            b.ld(r(10), R_ADDR, 0, AddrSpace::Input); // year
            let class0 = b.label();
            let join = b.label();
            b.li(r(11), 0);
            b.br(CmpOp::Geu, R_CONST8, r(10), class0); // thresh >= year (70%)
            b.li(r(11), 1);
            b.ld(r(14), Reg::ZERO, CC_OFF + 4, AddrSpace::Local);
            b.alui(AluOp::Add, r(14), r(14), 1);
            b.st_local(r(14), Reg::ZERO, CC_OFF + 4);
            b.jmp(join);
            b.bind(class0);
            b.ld(r(14), Reg::ZERO, CC_OFF, AddrSpace::Local);
            b.alui(AluOp::Add, r(14), r(14), 1);
            b.st_local(r(14), Reg::ZERO, CC_OFF);
            b.bind(join);
            b.alui(AluOp::Sll, r(12), R_SLOT, 2);
            b.st_local(r(11), r(12), CLASS_OFF);
        })),
        |b| {
            // Feature pass: Cprob[d][x][class]++ with
            // byte index = (d*VALS + x)*8 + class*4.
            b.ld(r(10), R_ADDR, 0, AddrSpace::Input); // x
            b.alui(AluOp::Sll, r(12), R_SLOT, 2);
            b.ld(r(11), r(12), CLASS_OFF, AddrSpace::Local); // class[j]
            b.alui(AluOp::Add, r(13), R_FIELD, -4); // d*4
            b.alui(AluOp::Sll, r(13), r(13), 2); // d*VALS*4
            b.alui(AluOp::Sll, r(14), r(10), 2); // x*4
            b.alu(AluOp::Add, r(13), r(13), r(14));
            // Class-independent per-value histogram: valueCount[d][x]++.
            b.ld(r(17), r(13), VC_OFF, AddrSpace::Local);
            b.alui(AluOp::Add, r(17), r(17), 1);
            b.st_local(r(17), r(13), VC_OFF);
            b.alui(AluOp::Sll, r(13), r(13), 1); // (d*VALS+x)*8
            b.alui(AluOp::Sll, r(15), r(11), 2); // class*4
            b.alu(AluOp::Add, r(13), r(13), r(15));
            b.ld(r(16), r(13), CPROB_OFF, AddrSpace::Local);
            b.alui(AluOp::Add, r(16), r(16), 1);
            b.st_local(r(16), r(13), CPROB_OFF);
        },
        |_| {},
    );
    Workload {
        bench: crate::Benchmark::NBayes,
        program,
        dataset,
        live_bytes: LIVE_BYTES,
        live_init: Vec::new(),
    }
}

/// Host Reduce: `[classCount[2], Cprob[DIMS][VALS][2],
/// valueCount[DIMS][VALS]]`.
pub fn reduce(states: &[&[u32]]) -> Reduced {
    let mut out = vec![0i64; 2 + DIMS * VALS * 3];
    for s in states {
        out[0] += s[(CC_OFF / 4) as usize] as i64;
        out[1] += s[(CC_OFF / 4) as usize + 1] as i64;
        for i in 0..DIMS * VALS * 2 {
            out[2 + i] += s[(CPROB_OFF / 4) as usize + i] as i64;
        }
        for i in 0..DIMS * VALS {
            out[2 + DIMS * VALS * 2 + i] += s[(VC_OFF / 4) as usize + i] as i64;
        }
    }
    Reduced::Ints(out)
}

/// Golden reference (integer accumulation — order irrelevant).
pub fn reference(w: &Workload, _grid: &ThreadGrid) -> Reduced {
    let mut out = vec![0i64; 2 + DIMS * VALS * 3];
    for rec in &w.dataset.records {
        let class = usize::from(rec[0] > THRESHOLD);
        out[class] += 1;
        for d in 0..DIMS {
            let x = rec[1 + d] as usize;
            out[2 + (d * VALS + x) * 2 + class] += 1;
            out[2 + DIMS * VALS * 2 + d * VALS + x] += 1;
        }
    }
    Reduced::Ints(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Benchmark;

    #[test]
    fn functional_matches_reference() {
        let w = Workload::build(Benchmark::NBayes, 2, 256, 31);
        let grid = ThreadGrid::slab(8, 4);
        assert_eq!(w.functional_output(&grid), w.reference(&grid));
    }

    #[test]
    fn class_split_is_roughly_70_30() {
        let w = Workload::build(Benchmark::NBayes, 4, 2048, 17);
        let grid = ThreadGrid::slab(32, 4);
        match w.functional_output(&grid) {
            Reduced::Ints(v) => {
                let total = v[0] + v[1];
                assert_eq!(total, w.dataset.num_records() as i64);
                let frac1 = v[1] as f64 / total as f64;
                assert!((0.2..0.4).contains(&frac1), "class-1 fraction {frac1}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cprob_totals_match_class_counts() {
        let w = Workload::build(Benchmark::NBayes, 2, 512, 5);
        let grid = ThreadGrid::slab(16, 4);
        match w.functional_output(&grid) {
            Reduced::Ints(v) => {
                // For each dim, sum over values of Cprob[d][*][c] equals
                // classCount[c].
                for d in 0..DIMS {
                    for c in 0..2 {
                        let s: i64 = (0..VALS).map(|x| v[2 + (d * VALS + x) * 2 + c]).sum();
                        assert_eq!(s, v[c], "dim {d} class {c}");
                    }
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    // Compile-time check: the live state fits the 1 KB context partition.
    const _: () = assert!(LIVE_BYTES <= 1024);
}
