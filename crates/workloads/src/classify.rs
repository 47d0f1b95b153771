//! `classify` — supervised classification via Euclidean distance to fixed
//! centroids (Table II row 5).
//!
//! Records are `DIMS`-dimensional `f32` points; the Map accumulates squared
//! distances to `K` constant centroids (pre-loaded live state) field by
//! field, then — once per chunk — assigns each record slot to its nearest
//! centroid (data-dependent min-tracking branches) and counts it. The
//! per-centroid work gives this kernel the paper's `O(k)` operations per
//! point.
//!
//! Live-state layout (per context):
//!
//! | bytes    | contents |
//! |----------|----------|
//! | 0–63     | `acc[j][K]` running squared distances (j < 4) |
//! | 64–191   | `cent[K][DIMS]` centroid constants |
//! | 192–207  | `counts[K]` |

use crate::gen::SplitMix64;
use crate::skeleton::{emit_multi_field_kernel, mv, R_ADDR, R_FIELD, R_SLOT};
use crate::{Reduced, Workload};
use millipede_isa::reg::{r, Reg};
use millipede_isa::{AddrSpace, AluOp, CmpOp};
use millipede_mapreduce::{Dataset, InterleavedLayout, ThreadGrid, ABI_RPTC};

/// Point dimensionality.
pub const DIMS: usize = 8;
/// Number of centroids.
pub const K: usize = 4;
/// Coordinates are uniform in `[0, COORD_RANGE)`.
pub const COORD_RANGE: f32 = 100.0;

const ACC_OFF: i32 = 0;
const CENT_OFF: i32 = 64;
const CNT_OFF: i32 = 192;
/// Per-context live-state bytes.
pub const LIVE_BYTES: usize = 256;

/// The fixed centroid constant `cent[c][d]`.
pub fn centroid(c: usize, d: usize) -> f32 {
    12.5 + 25.0 * c as f32 + 1.5 * d as f32
}

/// Live-state initialization: the centroid constants.
pub fn live_init() -> Vec<(u64, u32)> {
    let mut init = Vec::with_capacity(K * DIMS);
    for c in 0..K {
        for d in 0..DIMS {
            let addr = CENT_OFF as u64 + (c * DIMS + d) as u64 * 4;
            init.push((addr, centroid(c, d).to_bits()));
        }
    }
    init
}

/// Emits the per-chunk finalize pass: argmin over `acc[j][*]`, count the
/// winner, reset the accumulators. Shared with `kmeans`, which passes a
/// callback to also fold the record into its new centroid sum.
pub(crate) fn emit_finalize(
    b: &mut millipede_isa::ProgramBuilder,
    cnt_off: i32,
    extra: impl FnOnce(&mut millipede_isa::ProgramBuilder),
) {
    b.li(R_SLOT, 0);
    let floop = b.label();
    b.bind(floop);
    b.alui(AluOp::Sll, r(12), R_SLOT, 4); // acc row base: j*16
    b.ld(r(16), r(12), ACC_OFF, AddrSpace::Local); // best = acc[0]
    b.li(r(17), 0); // bestc
    for c in 1..K as i32 {
        b.ld(r(18), r(12), ACC_OFF + 4 * c, AddrSpace::Local);
        let keep = b.label();
        b.br(CmpOp::Fge, r(18), r(16), keep);
        mv(b, r(16), r(18));
        b.li(r(17), c as u32);
        b.bind(keep);
    }
    b.alui(AluOp::Sll, r(19), r(17), 2);
    b.ld(r(20), r(19), cnt_off, AddrSpace::Local);
    b.alui(AluOp::Add, r(20), r(20), 1);
    b.st_local(r(20), r(19), cnt_off);
    extra(b);
    for c in 0..K as i32 {
        b.st_local(Reg::ZERO, r(12), ACC_OFF + 4 * c);
    }
    b.alui(AluOp::Add, R_SLOT, R_SLOT, 1);
    b.br(CmpOp::Lt, R_SLOT, ABI_RPTC, floop);
}

/// Builds the `classify` workload.
pub fn build(num_chunks: usize, row_bytes: u64, seed: u64) -> Workload {
    let layout = InterleavedLayout::new(DIMS, row_bytes, num_chunks);
    let mut rng = SplitMix64::new(seed);
    let dataset = Dataset::generate(layout, |_| {
        (0..DIMS)
            .map(|_| rng.range_f32(0.0, COORD_RANGE).to_bits())
            .collect()
    });
    let program = emit_multi_field_kernel(
        "classify",
        DIMS,
        |_| {},
        None,
        |b| {
            // acc[j][c] += (x - cent[c][d])², c unrolled.
            b.ld(r(10), R_ADDR, 0, AddrSpace::Input); // x
            b.alui(AluOp::Sll, r(12), R_SLOT, 4); // j*16
            for c in 0..K as i32 {
                b.ld(
                    r(13),
                    R_FIELD,
                    CENT_OFF + c * (DIMS as i32) * 4,
                    AddrSpace::Local,
                );
                b.falu(millipede_isa::FAluOp::Fsub, r(14), r(10), r(13));
                b.falu(millipede_isa::FAluOp::Fmul, r(14), r(14), r(14));
                b.ld(r(15), r(12), ACC_OFF + 4 * c, AddrSpace::Local);
                b.falu(millipede_isa::FAluOp::Fadd, r(15), r(15), r(14));
                b.st_local(r(15), r(12), ACC_OFF + 4 * c);
            }
        },
        |b| emit_finalize(b, CNT_OFF, |_| {}),
    );
    Workload {
        bench: crate::Benchmark::Classify,
        program,
        dataset,
        live_bytes: LIVE_BYTES,
        live_init: live_init(),
    }
}

/// Host Reduce: per-centroid assignment counts.
pub fn reduce(states: &[&[u32]]) -> Reduced {
    let mut out = vec![0i64; K];
    for s in states {
        for c in 0..K {
            out[c] += s[(CNT_OFF / 4) as usize + c] as i64;
        }
    }
    Reduced::Ints(out)
}

/// Reference nearest-centroid assignment for one record, replaying the
/// kernel's `f32` arithmetic and tie-breaking exactly.
pub fn nearest_centroid(point: &[u32]) -> usize {
    let mut best = 0.0f32;
    for d in 0..DIMS {
        let x = f32::from_bits(point[d]);
        let diff = x - centroid(0, d);
        best += diff * diff;
    }
    let mut bestc = 0;
    for c in 1..K {
        let mut acc = 0.0f32;
        for d in 0..DIMS {
            let x = f32::from_bits(point[d]);
            let diff = x - centroid(c, d);
            acc += diff * diff;
        }
        if acc < best {
            best = acc;
            bestc = c;
        }
    }
    bestc
}

/// Golden reference.
pub fn reference(w: &Workload, _grid: &ThreadGrid) -> Reduced {
    let mut out = vec![0i64; K];
    for rec in &w.dataset.records {
        out[nearest_centroid(rec)] += 1;
    }
    Reduced::Ints(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Benchmark;

    #[test]
    fn functional_matches_reference() {
        let w = Workload::build(Benchmark::Classify, 2, 256, 41);
        let grid = ThreadGrid::slab(8, 4);
        assert_eq!(w.functional_output(&grid), w.reference(&grid));
    }

    #[test]
    fn counts_cover_all_records() {
        let w = Workload::build(Benchmark::Classify, 2, 2048, 3);
        let grid = ThreadGrid::slab(32, 4);
        match w.functional_output(&grid) {
            Reduced::Ints(v) => {
                assert_eq!(v.iter().sum::<i64>(), w.dataset.num_records() as i64);
                // Uniform data over [0,100) vs spread centroids: every
                // cluster should get a healthy share.
                for (c, &n) in v.iter().enumerate() {
                    assert!(n > 0, "cluster {c} empty");
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nearest_centroid_prefers_closest() {
        // A point sitting exactly on centroid 2.
        let point: Vec<u32> = (0..DIMS).map(|d| centroid(2, d).to_bits()).collect();
        assert_eq!(nearest_centroid(&point), 2);
    }

    // Compile-time check: the live state fits the 1 KB context partition.
    const _: () = assert!(LIVE_BYTES <= 1024);

    #[test]
    fn live_init_stays_within_live_bytes() {
        for (addr, _) in live_init() {
            assert!(addr + 4 <= LIVE_BYTES as u64);
        }
    }
}
