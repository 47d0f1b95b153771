//! `pca` — principal component analysis: mean + covariance accumulation
//! (Table II row 7).
//!
//! Records are `DIMS`-dimensional `f32` points. The field pass stashes each
//! coordinate in per-slot scratch and accumulates the per-dimension mean
//! sums; the per-chunk finalize pass walks the upper-triangular outer
//! product of every slot's point, accumulating `DIMS·(DIMS+1)/2` covariance
//! sums. This is the paper's compute-heavy, *regular* end of the benchmark
//! spectrum (few branches, all uniform loop branches — the regime where the
//! GPGPU closes most of the gap, §VI-A).
//!
//! Live-state layout (per context):
//!
//! | bytes   | contents |
//! |---------|----------|
//! | 0–255   | `xs[j][DIMS]` scratch, 64-B stride (j < 4) |
//! | 256–295 | `meansum[DIMS]` |
//! | 296–515 | `covsum[TRI]` upper triangle, row-major |

use crate::gen::SplitMix64;
use crate::skeleton::{emit_multi_field_kernel, mv, R_ADDR, R_FIELD, R_SLOT};
use crate::{Reduced, Workload};
use millipede_isa::reg::r;
use millipede_isa::{AddrSpace, AluOp, CmpOp, FAluOp};
use millipede_mapreduce::{Dataset, InterleavedLayout, ThreadGrid, ABI_RPTC};

/// Point dimensionality.
pub const DIMS: usize = 10;
/// Upper-triangle entries.
pub const TRI: usize = DIMS * (DIMS + 1) / 2;
/// Coordinates are uniform in `[0, COORD_RANGE)`.
pub const COORD_RANGE: f32 = 100.0;

const XS_OFF: i32 = 0;
const XS_STRIDE_LOG2: i32 = 6; // 64-byte padded scratch rows
const MEAN_OFF: i32 = 256;
const COV_OFF: i32 = 296;
/// Per-context live-state bytes.
pub const LIVE_BYTES: usize = 640;

/// Builds the `pca` workload.
pub fn build(num_chunks: usize, row_bytes: u64, seed: u64) -> Workload {
    let layout = InterleavedLayout::new(DIMS, row_bytes, num_chunks);
    let mut rng = SplitMix64::new(seed);
    let dataset = Dataset::generate(layout, |_| {
        (0..DIMS)
            .map(|_| rng.range_f32(0.0, COORD_RANGE).to_bits())
            .collect()
    });
    let program = emit_multi_field_kernel(
        "pca",
        DIMS,
        |_| {},
        None,
        |b| {
            // Stash the coordinate and accumulate its mean sum.
            b.ld(r(10), R_ADDR, 0, AddrSpace::Input); // x
            b.alui(AluOp::Sll, r(12), R_SLOT, XS_STRIDE_LOG2);
            b.alu(AluOp::Add, r(12), r(12), R_FIELD);
            b.st_local(r(10), r(12), XS_OFF);
            b.ld(r(13), R_FIELD, MEAN_OFF, AddrSpace::Local);
            b.falu(FAluOp::Fadd, r(13), r(13), r(10));
            b.st_local(r(13), R_FIELD, MEAN_OFF);
        },
        |b| {
            // Per slot: covsum[tri(i,j)] += x[i]*x[j] for i ≤ j, walking the
            // triangle row-major with a linearly advancing cov pointer.
            b.li(R_SLOT, 0);
            let sloop = b.label();
            b.bind(sloop);
            b.alui(AluOp::Sll, r(12), R_SLOT, XS_STRIDE_LOG2); // scratch base
            b.li(r(20), COV_OFF as u32); // cov pointer
            mv(b, r(18), r(12)); // xi pointer
            b.alui(AluOp::Add, r(24), r(12), (DIMS * 4) as i32); // scratch end
            let iloop = b.label();
            b.bind(iloop);
            b.ld(r(17), r(18), XS_OFF, AddrSpace::Local); // xi
            mv(b, r(19), r(18)); // xj pointer starts at xi
            let jloop = b.label();
            b.bind(jloop);
            b.ld(r(21), r(19), XS_OFF, AddrSpace::Local); // xj
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
        bench: crate::Benchmark::Pca,
        program,
        dataset,
        live_bytes: LIVE_BYTES,
        live_init: Vec::new(),
    }
}

/// Host Reduce: `[meansum[DIMS], covsum[TRI]]`, folded in thread order.
pub fn reduce(states: &[&[u32]]) -> Reduced {
    let mut floats = vec![0.0f32; DIMS + TRI];
    for s in states {
        for d in 0..DIMS {
            floats[d] += f32::from_bits(s[(MEAN_OFF / 4) as usize + d]);
        }
        for i in 0..TRI {
            floats[DIMS + i] += f32::from_bits(s[(COV_OFF / 4) as usize + i]);
        }
    }
    Reduced::Floats(floats)
}

/// Golden reference, replaying per-thread visit order and pair order.
pub fn reference(w: &Workload, grid: &ThreadGrid) -> Reduced {
    let layout = &w.dataset.layout;
    let mut floats = vec![0.0f32; DIMS + TRI];
    for corelet in 0..grid.corelets {
        for context in 0..grid.contexts {
            let mut mean = [0.0f32; DIMS];
            let mut cov = vec![0.0f32; TRI];
            for rec in grid.records_of_thread(layout, corelet, context) {
                let point = &w.dataset.records[rec];
                let xs: Vec<f32> = point.iter().map(|&b| f32::from_bits(b)).collect();
                for d in 0..DIMS {
                    mean[d] += xs[d];
                }
                let mut idx = 0;
                for i in 0..DIMS {
                    for j in i..DIMS {
                        cov[idx] += xs[i] * xs[j];
                        idx += 1;
                    }
                }
            }
            for d in 0..DIMS {
                floats[d] += mean[d];
            }
            for i in 0..TRI {
                floats[DIMS + i] += cov[i];
            }
        }
    }
    Reduced::Floats(floats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Benchmark;

    #[test]
    fn functional_matches_reference() {
        let w = Workload::build(Benchmark::Pca, 2, 256, 61);
        let grid = ThreadGrid::slab(8, 4);
        assert_eq!(w.functional_output(&grid), w.reference(&grid));
    }

    #[test]
    fn mean_of_uniform_data_is_near_center() {
        let w = Workload::build(Benchmark::Pca, 4, 2048, 23);
        let grid = ThreadGrid::slab(32, 4);
        match w.functional_output(&grid) {
            Reduced::Floats(v) => {
                let n = w.dataset.num_records() as f32;
                for d in 0..DIMS {
                    let mean = v[d] / n;
                    assert!((40.0..60.0).contains(&mean), "dim {d} mean {mean}");
                }
                // Diagonal second moments E[x²] ≈ 100²/3.
                let mut idx = 0;
                for i in 0..DIMS {
                    let diag = v[DIMS + idx] / n;
                    assert!(
                        (2800.0..3900.0).contains(&diag),
                        "dim {i} second moment {diag}"
                    );
                    idx += DIMS - i;
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    // Compile-time checks: the triangle size and the 1 KB partition.
    const _: () = assert!(TRI == 55);
    const _: () = assert!(LIVE_BYTES <= 1024);
}
