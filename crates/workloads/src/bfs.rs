//! `bfs` — one frontier-relaxation sweep of breadth-first search over a
//! synthetic CSR edge stream (graph-analytics family; not in the paper).
//!
//! Records are `(src, dst)` edges in CSR order over the same hub-skewed
//! [`SynthGraph`] as `pagerank`. The host
//! preloads `dist[v]` with a deliberately *partial* BFS from vertex 0
//! (levels beyond [`FRONTIER_LEVEL`] stay [`UNREACHED`]) and `next[v]`
//! with the sentinel; the kernel performs one edge-parallel relaxation:
//!
//! ```text
//! if dist[src] != UNREACHED { next[dst] = min(next[dst], dist[src]+1) }
//! ```
//!
//! The frontier check is a *divergent data-dependent branch* (whether an
//! edge does any work depends on graph structure, the classic BFS
//! irregularity), and both vertex-table accesses are data-dependent
//! indexed local loads. `min` makes the per-vertex result
//! order-independent, so the golden reference needs no visit-order
//! replay — but the cross-thread combine is elementwise *minimum*, the
//! second benchmark (after `sample`) whose cluster-level Reduce is not a
//! plain sum.
//!
//! Live-state layout (per context):
//!
//! | bytes   | contents |
//! |---------|----------|
//! | 0–15    | `src[j]` scratch per record slot (j < 4) |
//! | 16–23   | `relaxed`, `skipped` edge counters |
//! | 24–279  | `dist[VERTICES]` (preloaded partial BFS) |
//! | 280–535 | `next[VERTICES]` (relaxation target, preloaded sentinel) |

use crate::graph::{SynthGraph, UNREACHED};
use crate::skeleton::{emit_multi_field_kernel, R_ADDR, R_CONST8, R_SLOT};
use crate::{Reduced, Workload};
use millipede_isa::reg::{r, Reg};
use millipede_isa::{AddrSpace, AluOp, CmpOp, ProgramBuilder};
use millipede_mapreduce::{Dataset, InterleavedLayout, ThreadGrid};

/// Vertex count (shared with `pagerank`).
pub const VERTICES: usize = 64;
/// The preloaded BFS stops at this level; deeper vertices stay
/// [`UNREACHED`], so the sweep sees a realistic frontier mix.
pub const FRONTIER_LEVEL: u32 = 1;
/// Record arity: `(src, dst)`.
pub const NUM_FIELDS: usize = 2;

const SRC_OFF: i32 = 0;
const CNT_OFF: i32 = 16;
const DIST_OFF: i32 = 24;
const NEXT_OFF: i32 = DIST_OFF + (VERTICES * 4) as i32;
/// Per-context live-state bytes.
pub const LIVE_BYTES: usize = NEXT_OFF as usize + VERTICES * 4;

/// The synthetic graph behind a `bfs` dataset of `num_records` edges.
pub fn graph_for(num_records: usize, seed: u64) -> SynthGraph {
    SynthGraph::generate(VERTICES, num_records, seed)
}

/// Builds the `bfs` workload.
pub fn build(num_chunks: usize, row_bytes: u64, seed: u64) -> Workload {
    let layout = InterleavedLayout::new(NUM_FIELDS, row_bytes, num_chunks);
    let g = graph_for(layout.num_records(), seed);
    let dataset = Dataset::new(layout, g.edges.iter().map(|&(s, d)| vec![s, d]).collect());
    let dist = g.bfs_levels(0, FRONTIER_LEVEL);
    let mut live_init: Vec<(u64, u32)> = Vec::with_capacity(2 * VERTICES);
    for v in 0..VERTICES {
        live_init.push((DIST_OFF as u64 + 4 * v as u64, dist[v]));
        live_init.push((NEXT_OFF as u64 + 4 * v as u64, UNREACHED));
    }
    let mask = (VERTICES - 1) as i32;
    let program = emit_multi_field_kernel(
        "bfs",
        NUM_FIELDS,
        |b| {
            b.li(R_CONST8, UNREACHED);
        },
        Some(Box::new(move |b: &mut ProgramBuilder| {
            // Source pass: stash the (masked) source vertex per slot.
            b.ld(r(10), R_ADDR, 0, AddrSpace::Input); // src
            b.alui(AluOp::And, r(10), r(10), mask);
            b.alui(AluOp::Sll, r(12), R_SLOT, 2);
            b.st_local(r(10), r(12), SRC_OFF);
        })),
        move |b| {
            // Destination pass: relax the edge if its source is on the
            // frontier — the divergent branch both sides of which do work.
            b.ld(r(10), R_ADDR, 0, AddrSpace::Input); // dst
            b.alui(AluOp::And, r(10), r(10), mask);
            b.alui(AluOp::Sll, r(12), R_SLOT, 2);
            b.ld(r(11), r(12), SRC_OFF, AddrSpace::Local); // src[j]
            b.alui(AluOp::Sll, r(13), r(11), 2); // src*4
            b.ld(r(14), r(13), DIST_OFF, AddrSpace::Local); // dist[src]
            let skip = b.label();
            let join = b.label();
            b.br(CmpOp::Eq, r(14), R_CONST8, skip); // src unreached
            b.alui(AluOp::Add, r(14), r(14), 1); // dist[src]+1
            b.alui(AluOp::Sll, r(15), r(10), 2); // dst*4
            b.ld(r(16), r(15), NEXT_OFF, AddrSpace::Local);
            b.alu(AluOp::Min, r(16), r(16), r(14));
            b.st_local(r(16), r(15), NEXT_OFF);
            b.ld(r(17), Reg::ZERO, CNT_OFF, AddrSpace::Local);
            b.alui(AluOp::Add, r(17), r(17), 1);
            b.st_local(r(17), Reg::ZERO, CNT_OFF); // relaxed++
            b.jmp(join);
            b.bind(skip);
            b.ld(r(17), Reg::ZERO, CNT_OFF + 4, AddrSpace::Local);
            b.alui(AluOp::Add, r(17), r(17), 1);
            b.st_local(r(17), Reg::ZERO, CNT_OFF + 4); // skipped++
            b.bind(join);
        },
        |_| {},
    );
    Workload {
        bench: crate::Benchmark::Bfs,
        program,
        dataset,
        live_bytes: LIVE_BYTES,
        live_init,
    }
}

/// Host Reduce: `[relaxed, skipped, next[VERTICES]]` — counters sum,
/// the per-vertex relaxation targets combine by elementwise minimum.
pub fn reduce(states: &[&[u32]]) -> Reduced {
    let mut out = vec![0i64; 2 + VERTICES];
    for v in 0..VERTICES {
        out[2 + v] = i64::from(UNREACHED);
    }
    for s in states {
        out[0] += s[(CNT_OFF / 4) as usize] as i64;
        out[1] += s[(CNT_OFF / 4) as usize + 1] as i64;
        for v in 0..VERTICES {
            out[2 + v] = out[2 + v].min(s[(NEXT_OFF / 4) as usize + v] as i64);
        }
    }
    Reduced::Ints(out)
}

/// Golden reference. `min` is order-independent, so no per-thread replay
/// is needed — any partition of the edges yields the same minima.
pub fn reference(w: &Workload, _grid: &ThreadGrid) -> Reduced {
    let dist: Vec<u32> = (0..VERTICES)
        .map(|v| {
            w.live_init
                .iter()
                .find(|&&(a, _)| a == DIST_OFF as u64 + 4 * v as u64)
                .map_or(UNREACHED, |&(_, d)| d)
        })
        .collect();
    let mut out = vec![0i64; 2 + VERTICES];
    for v in 0..VERTICES {
        out[2 + v] = i64::from(UNREACHED);
    }
    for rec in &w.dataset.records {
        let src = rec[0] as usize & (VERTICES - 1);
        let dst = rec[1] as usize & (VERTICES - 1);
        if dist[src] == UNREACHED {
            out[1] += 1;
        } else {
            out[0] += 1;
            out[2 + dst] = out[2 + dst].min(i64::from(dist[src] + 1));
        }
    }
    Reduced::Ints(out)
}

/// Cluster-level combine: counters add, the relaxation targets combine by
/// minimum, mirroring [`reduce`].
pub fn combine(outputs: &[crate::Reduced]) -> crate::Reduced {
    let mut acc = match &outputs[0] {
        crate::Reduced::Ints(v) => v.clone(),
        other => panic!("bfs output must be Ints, got {other:?}"),
    };
    for out in &outputs[1..] {
        let crate::Reduced::Ints(v) = out else {
            panic!("bfs output must be Ints");
        };
        assert_eq!(v.len(), acc.len());
        for (i, (x, y)) in acc.iter_mut().zip(v).enumerate() {
            if i < 2 {
                *x += y;
            } else {
                *x = (*x).min(*y);
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
        let w = Workload::build(Benchmark::Bfs, 3, 256, 19);
        let grid = ThreadGrid::slab(8, 4);
        assert_eq!(w.functional_output(&grid), w.reference(&grid));
    }

    #[test]
    fn functional_matches_reference_on_coalesced_grids() {
        let w = Workload::build(Benchmark::Bfs, 2, 512, 3);
        for grid in [
            ThreadGrid::coalesced(16, 4),
            ThreadGrid::block_columns(16, 4),
        ] {
            assert_eq!(w.functional_output(&grid), w.reference(&grid));
        }
    }

    #[test]
    fn one_sweep_discovers_exactly_the_next_level() {
        let w = Workload::build(Benchmark::Bfs, 4, 2048, 29);
        let g = graph_for(w.dataset.num_records(), 29);
        let dist = g.bfs_levels(0, FRONTIER_LEVEL);
        let full = g.bfs_levels(0, FRONTIER_LEVEL + 1);
        let grid = ThreadGrid::slab(32, 4);
        match w.functional_output(&grid) {
            Reduced::Ints(out) => {
                assert_eq!(out[0] + out[1], w.dataset.num_records() as i64);
                // Both branch sides actually run.
                assert!(out[0] > 0, "no edge relaxed");
                assert!(out[1] > 0, "no edge skipped");
                for v in 0..VERTICES {
                    let next = out[2 + v];
                    // next[v] is the best one-step relaxation: the true
                    // level when the full BFS reaches v one level deeper,
                    // never better than the truth, and UNREACHED when no
                    // frontier edge touches v.
                    if next != i64::from(UNREACHED) {
                        assert!(
                            next >= i64::from(full[v]),
                            "vertex {v}: relaxed below the true level"
                        );
                        assert!(next <= i64::from(FRONTIER_LEVEL) + 1);
                    }
                    if dist[v] != UNREACHED {
                        // Already-reached vertices with an in-edge from the
                        // frontier still get relaxed; unreached-and-
                        // untouched ones stay at the sentinel.
                        continue;
                    }
                    if full[v] == FRONTIER_LEVEL + 1 {
                        assert_eq!(
                            next,
                            i64::from(full[v]),
                            "vertex {v} should be discovered this sweep"
                        );
                    }
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sharded_outputs_combine_to_the_full_reference() {
        let grid = ThreadGrid::slab(8, 4);
        let w = Workload::build(Benchmark::Bfs, 4, 256, 9);
        let outs: Vec<Reduced> = w
            .shard(2)
            .iter()
            .map(|s| s.functional_output(&grid))
            .collect();
        assert_eq!(
            crate::combine_outputs(Benchmark::Bfs, &outs),
            w.reference(&grid)
        );
    }

    // Compile-time check: the live state fits the 1 KB context partition.
    const _: () = assert!(LIVE_BYTES <= 1024);
    const _: () = assert!(VERTICES.is_power_of_two());
}
