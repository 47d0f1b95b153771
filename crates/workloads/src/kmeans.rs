//! `kmeans` — one k-means iteration: assign each point to its nearest
//! centroid and accumulate the new centroid sums (Table II row 6).
//!
//! Same distance computation as `classify` (the finalize pass is shared),
//! plus: the field pass stashes each coordinate in per-slot scratch, and the
//! finalize pass folds the winning record into its cluster's running
//! coordinate sums — the paper's `O(1)`-per-point new-centroid accumulation.
//!
//! Live-state layout (per context):
//!
//! | bytes   | contents |
//! |---------|----------|
//! | 0–63    | `acc[j][K]` running squared distances (j < 4) |
//! | 64–191  | `cent[K][DIMS]` centroid constants |
//! | 192–207 | `counts[K]` |
//! | 208–335 | `xs[j][DIMS]` coordinate scratch |
//! | 336–463 | `sums[K][DIMS]` new-centroid sums |

use crate::classify::{centroid, emit_finalize, nearest_centroid, COORD_RANGE, DIMS, K};
use crate::gen::SplitMix64;
use crate::skeleton::{emit_multi_field_kernel, R_ADDR, R_FIELD, R_SLOT};
use crate::{Reduced, Workload};
use millipede_isa::reg::r;
use millipede_isa::{AddrSpace, AluOp, FAluOp};
use millipede_mapreduce::{Dataset, InterleavedLayout, ThreadGrid};

const CENT_OFF: i32 = 64;
const CNT_OFF: i32 = 192;
const XS_OFF: i32 = 208;
const SUMS_OFF: i32 = 336;
/// Per-context live-state bytes.
pub const LIVE_BYTES: usize = 512;

/// Builds the `kmeans` workload.
pub fn build(num_chunks: usize, row_bytes: u64, seed: u64) -> Workload {
    let layout = InterleavedLayout::new(DIMS, row_bytes, num_chunks);
    let mut rng = SplitMix64::new(seed);
    let dataset = Dataset::generate(layout, |_| {
        (0..DIMS)
            .map(|_| rng.range_f32(0.0, COORD_RANGE).to_bits())
            .collect()
    });
    let mut live_init = Vec::with_capacity(K * DIMS);
    for c in 0..K {
        for d in 0..DIMS {
            let addr = CENT_OFF as u64 + (c * DIMS + d) as u64 * 4;
            live_init.push((addr, centroid(c, d).to_bits()));
        }
    }
    let program = emit_multi_field_kernel(
        "kmeans",
        DIMS,
        |_| {},
        None,
        |b| {
            b.ld(r(10), R_ADDR, 0, AddrSpace::Input); // x
            b.alui(AluOp::Sll, r(12), R_SLOT, 4); // j*16 (acc row)
            for c in 0..K as i32 {
                b.ld(
                    r(13),
                    R_FIELD,
                    CENT_OFF + c * (DIMS as i32) * 4,
                    AddrSpace::Local,
                );
                b.falu(FAluOp::Fsub, r(14), r(10), r(13));
                b.falu(FAluOp::Fmul, r(14), r(14), r(14));
                b.ld(r(15), r(12), 4 * c, AddrSpace::Local);
                b.falu(FAluOp::Fadd, r(15), r(15), r(14));
                b.st_local(r(15), r(12), 4 * c);
            }
            // Stash x in the slot's coordinate scratch.
            b.alui(AluOp::Sll, r(21), R_SLOT, 5); // j*32
            b.alu(AluOp::Add, r(21), r(21), R_FIELD);
            b.st_local(r(10), r(21), XS_OFF);
        },
        |b| {
            emit_finalize(b, CNT_OFF, |b| {
                // sums[bestc][d] += xs[j][d], d unrolled.
                b.alui(AluOp::Sll, r(21), R_SLOT, 5); // j*32
                b.alui(AluOp::Sll, r(22), r(17), 5); // bestc*32
                for d in 0..DIMS as i32 {
                    b.ld(r(23), r(21), XS_OFF + 4 * d, AddrSpace::Local);
                    b.ld(r(24), r(22), SUMS_OFF + 4 * d, AddrSpace::Local);
                    b.falu(FAluOp::Fadd, r(24), r(24), r(23));
                    b.st_local(r(24), r(22), SUMS_OFF + 4 * d);
                }
            });
        },
    );
    Workload {
        bench: crate::Benchmark::Kmeans,
        program,
        dataset,
        live_bytes: LIVE_BYTES,
        live_init,
    }
}

/// Host Reduce: cluster counts (ints) and new-centroid coordinate sums
/// (`f32`, folded in thread order).
pub fn reduce(states: &[&[u32]]) -> Reduced {
    let mut ints = vec![0i64; K];
    let mut floats = vec![0.0f32; K * DIMS];
    for s in states {
        for c in 0..K {
            ints[c] += s[(CNT_OFF / 4) as usize + c] as i64;
        }
        for i in 0..K * DIMS {
            floats[i] += f32::from_bits(s[(SUMS_OFF / 4) as usize + i]);
        }
    }
    Reduced::Mixed { ints, floats }
}

/// Golden reference: replays per-thread visit order so the `f32` sums fold
/// identically.
pub fn reference(w: &Workload, grid: &ThreadGrid) -> Reduced {
    let layout = &w.dataset.layout;
    let mut ints = vec![0i64; K];
    let mut floats = vec![0.0f32; K * DIMS];
    for corelet in 0..grid.corelets {
        for context in 0..grid.contexts {
            let mut sums = [0.0f32; K * DIMS];
            for rec in grid.records_of_thread(layout, corelet, context) {
                let point = &w.dataset.records[rec];
                let c = nearest_centroid(point);
                ints[c] += 1;
                for d in 0..DIMS {
                    sums[c * DIMS + d] += f32::from_bits(point[d]);
                }
            }
            for i in 0..K * DIMS {
                floats[i] += sums[i];
            }
        }
    }
    Reduced::Mixed { ints, floats }
}

/// Host post-processing: the new centroids (sums / counts).
pub fn new_centroids(reduced: &Reduced) -> Vec<Vec<f32>> {
    let (ints, floats) = match reduced {
        Reduced::Mixed { ints, floats } => (ints, floats),
        other => panic!("kmeans output must be Mixed, got {other:?}"),
    };
    (0..K)
        .map(|c| {
            (0..DIMS)
                .map(|d| {
                    if ints[c] == 0 {
                        0.0
                    } else {
                        floats[c * DIMS + d] / ints[c] as f32
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Benchmark;

    #[test]
    fn functional_matches_reference() {
        let w = Workload::build(Benchmark::Kmeans, 2, 256, 51);
        let grid = ThreadGrid::slab(8, 4);
        assert_eq!(w.functional_output(&grid), w.reference(&grid));
    }

    #[test]
    fn counts_cover_all_records_and_sums_are_positive() {
        let w = Workload::build(Benchmark::Kmeans, 2, 2048, 7);
        let grid = ThreadGrid::slab(32, 4);
        match w.functional_output(&grid) {
            Reduced::Mixed { ints, floats } => {
                assert_eq!(ints.iter().sum::<i64>(), w.dataset.num_records() as i64);
                assert!(floats.iter().all(|&f| f >= 0.0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn new_centroids_move_toward_their_clusters() {
        let w = Workload::build(Benchmark::Kmeans, 4, 2048, 19);
        let grid = ThreadGrid::slab(32, 4);
        let out = w.functional_output(&grid);
        let cents = new_centroids(&out);
        // The new centroids stay within the data range, and the extreme
        // clusters keep their ordering along dimension 0 (clusters overlap
        // in the middle because the centroids also differ in higher dims).
        for c in 0..K {
            for d in 0..DIMS {
                assert!((0.0..COORD_RANGE).contains(&cents[c][d]));
            }
        }
        assert!(cents[K - 1][0] > cents[0][0]);
    }

    // Compile-time check: the live state fits the 1 KB context partition.
    const _: () = assert!(LIVE_BYTES <= 1024);
}
