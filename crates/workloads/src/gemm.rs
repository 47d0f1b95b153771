//! `gemm` — tiled dense matrix multiply streamed along the inner (k)
//! dimension (dense-kernel family; not in the paper).
//!
//! `C = A · B` with an `M×N` output tile held in local memory and the k
//! dimension streamed as records: record k carries column k of `A` (`M`
//! words) and row k of `B` (`N` words), and the kernel applies the
//! rank-1 update `C[i][j] += a[i] * b[j]` — the classic PIM-DRAM /
//! output-stationary GEMM decomposition. This is the *regular dense*
//! extreme: 16-word records, `M·N` fused multiply-adds per record
//! (ops/byte an order of magnitude above any BMLA), zero divergence,
//! and a perfectly sequential input stream — the case where the paper's
//! row-oriented optimizations should neither help nor hurt.
//!
//! Live-state layout (per context):
//!
//! | bytes   | contents |
//! |---------|----------|
//! | 0–255   | per-slot record scratch (64 B each: `a[M]` then `b[N]`) |
//! | 256–511 | `C[M*N]` (`f32`, output-stationary accumulator tile) |

use crate::gen::SplitMix64;
use crate::skeleton::{emit_multi_field_kernel, mv, R_ADDR, R_FIELD, R_SLOT};
use crate::{Reduced, Workload};
use millipede_isa::reg::r;
use millipede_isa::{AddrSpace, AluOp, CmpOp, FAluOp};
use millipede_mapreduce::{Dataset, InterleavedLayout, ThreadGrid, ABI_RPTC};

/// Output-tile rows (length of the `A` column per record).
pub const M: usize = 8;
/// Output-tile columns (length of the `B` row per record).
pub const N: usize = 8;
/// Record arity: `a[M]` then `b[N]`.
pub const NUM_FIELDS: usize = M + N;
/// Matrix entries are uniform in `[-ENTRY_RANGE, ENTRY_RANGE)`.
pub const ENTRY_RANGE: f32 = 1.0;

const XS_OFF: i32 = 0;
const XS_STRIDE_LOG2: i32 = 6; // 64-byte record scratch per slot
const C_OFF: i32 = 256;
/// Per-context live-state bytes.
pub const LIVE_BYTES: usize = C_OFF as usize + M * N * 4;

/// Builds the `gemm` workload.
pub fn build(num_chunks: usize, row_bytes: u64, seed: u64) -> Workload {
    let layout = InterleavedLayout::new(NUM_FIELDS, row_bytes, num_chunks);
    let mut rng = SplitMix64::new(seed);
    let dataset = Dataset::generate(layout, |_| {
        (0..NUM_FIELDS)
            .map(|_| rng.range_f32(-ENTRY_RANGE, ENTRY_RANGE).to_bits())
            .collect()
    });
    let program = emit_multi_field_kernel(
        "gemm",
        NUM_FIELDS,
        |_| {},
        None,
        |b| {
            // Stash this record's word into the slot's scratch row.
            b.ld(r(10), R_ADDR, 0, AddrSpace::Input);
            b.alui(AluOp::Sll, r(12), R_SLOT, XS_STRIDE_LOG2);
            b.alu(AluOp::Add, r(12), r(12), R_FIELD);
            b.st_local(r(10), r(12), XS_OFF);
        },
        |b| {
            // Per slot: rank-1 update C[i][j] += a[i] * b[j], walking C
            // row-major with a linearly advancing pointer.
            b.li(R_SLOT, 0);
            let sloop = b.label();
            b.bind(sloop);
            b.alui(AluOp::Sll, r(12), R_SLOT, XS_STRIDE_LOG2); // scratch base
            b.alui(AluOp::Add, r(14), r(12), (M * 4) as i32); // b[] base
            b.alui(AluOp::Add, r(15), r(14), (N * 4) as i32); // scratch end
            b.li(r(20), C_OFF as u32); // C pointer
            mv(b, r(16), r(12)); // a_i pointer
            let iloop = b.label();
            b.bind(iloop);
            b.ld(r(17), r(16), XS_OFF, AddrSpace::Local); // a_i
            mv(b, r(18), r(14)); // b_j pointer
            let jloop = b.label();
            b.bind(jloop);
            b.ld(r(19), r(18), XS_OFF, AddrSpace::Local); // b_j
            b.falu(FAluOp::Fmul, r(19), r(19), r(17));
            b.ld(r(21), r(20), 0, AddrSpace::Local);
            b.falu(FAluOp::Fadd, r(21), r(21), r(19));
            b.st_local(r(21), r(20), 0);
            b.alui(AluOp::Add, r(18), r(18), 4);
            b.alui(AluOp::Add, r(20), r(20), 4);
            b.br(CmpOp::Lt, r(18), r(15), jloop);
            b.alui(AluOp::Add, r(16), r(16), 4);
            b.br(CmpOp::Lt, r(16), r(14), iloop);
            b.alui(AluOp::Add, R_SLOT, R_SLOT, 1);
            b.br(CmpOp::Lt, R_SLOT, ABI_RPTC, sloop);
        },
    );
    Workload {
        bench: crate::Benchmark::Gemm,
        program,
        dataset,
        live_bytes: LIVE_BYTES,
        live_init: Vec::new(),
    }
}

/// Host Reduce: the `M×N` tile, per-thread accumulators folded in thread
/// order.
pub fn reduce(states: &[&[u32]]) -> Reduced {
    let mut c = vec![0.0f32; M * N];
    for s in states {
        for (i, slot) in c.iter_mut().enumerate() {
            *slot += f32::from_bits(s[(C_OFF / 4) as usize + i]);
        }
    }
    Reduced::Floats(c)
}

/// Golden reference: replays each thread's record order (f32 adds into a
/// C cell must fold exactly as the kernel's chunk-major, slot-order,
/// i-outer/j-inner walk does), then folds per-thread tiles in thread
/// order, mirroring [`reduce`].
pub fn reference(w: &Workload, grid: &ThreadGrid) -> Reduced {
    let layout = &w.dataset.layout;
    let mut c = vec![0.0f32; M * N];
    for corelet in 0..grid.corelets {
        for context in 0..grid.contexts {
            let mut tile = [0.0f32; M * N];
            for rec in grid.records_of_thread(layout, corelet, context) {
                let words = &w.dataset.records[rec];
                for i in 0..M {
                    let a = f32::from_bits(words[i]);
                    for j in 0..N {
                        let b = f32::from_bits(words[M + j]);
                        tile[i * N + j] += a * b;
                    }
                }
            }
            for (acc, t) in c.iter_mut().zip(tile) {
                *acc += t;
            }
        }
    }
    Reduced::Floats(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Benchmark;

    #[test]
    fn functional_matches_reference() {
        let w = Workload::build(Benchmark::Gemm, 3, 256, 17);
        let grid = ThreadGrid::slab(8, 4);
        assert_eq!(w.functional_output(&grid), w.reference(&grid));
    }

    #[test]
    fn functional_matches_reference_on_coalesced_grids() {
        let w = Workload::build(Benchmark::Gemm, 2, 512, 31);
        for grid in [
            ThreadGrid::coalesced(16, 4),
            ThreadGrid::block_columns(16, 4),
        ] {
            assert_eq!(w.functional_output(&grid), w.reference(&grid));
        }
    }

    #[test]
    fn tile_matches_a_naive_host_gemm_numerically() {
        // Independently of fold order: C ≈ Σ_k a_k ⊗ b_k computed in f64.
        let w = Workload::build(Benchmark::Gemm, 2, 1024, 41);
        let grid = ThreadGrid::slab(16, 4);
        let mut want = vec![0.0f64; M * N];
        for words in &w.dataset.records {
            for i in 0..M {
                for j in 0..N {
                    want[i * N + j] += f64::from(f32::from_bits(words[i]))
                        * f64::from(f32::from_bits(words[M + j]));
                }
            }
        }
        match w.functional_output(&grid) {
            Reduced::Floats(c) => {
                for (i, (&got, &exp)) in c.iter().zip(&want).enumerate() {
                    assert!(
                        (f64::from(got) - exp).abs() < 1e-2,
                        "C[{i}]: got {got}, want {exp}"
                    );
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    // Compile-time check: the live state fits the 1 KB context partition.
    const _: () = assert!(LIVE_BYTES <= 1024);
    const _: () = assert!(NUM_FIELDS * 4 <= 64, "slot scratch stride is 64 B");
}
