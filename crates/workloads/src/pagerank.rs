//! `pagerank` — one push-style PageRank power-iteration step over a
//! synthetic CSR edge stream (graph-analytics family; not in the paper).
//!
//! Records are `(src, dst)` edges in CSR (source-sorted) order over a
//! [`SynthGraph`] with hub-skewed degrees. The host preloads each
//! context's live state with the per-vertex contribution table
//! `contrib[v] = rank0[v] / out_degree(v)` (`rank0` uniform, the classic
//! first iteration); the kernel then pushes `acc[dst] += contrib[src]`
//! per edge. Both vertex accesses are *data-dependent indexed local
//! loads* — the graph-analytics irregularity the paper's regular
//! record-streaming BMLAs never exercise — while the edge stream itself
//! stays row-dense, as the prefetch-buffer contract requires. A
//! data-dependent two-sided branch classifies each edge by whether its
//! destination is a hub, giving the SIMT baselines real divergence.
//!
//! Live-state layout (per context):
//!
//! | bytes   | contents |
//! |---------|----------|
//! | 0–15    | `src[j]` scratch per record slot (j < 4) |
//! | 16–23   | `hub_edges`, `other_edges` |
//! | 24–279  | `contrib[VERTICES]` (`f32`, preloaded) |
//! | 280–535 | `acc[VERTICES]` (`f32` rank accumulator) |

use crate::graph::SynthGraph;
use crate::skeleton::{emit_multi_field_kernel, R_ADDR, R_CONST8, R_SLOT};
use crate::{Reduced, Workload};
use millipede_isa::reg::{r, Reg};
use millipede_isa::{AddrSpace, AluOp, CmpOp, FAluOp, ProgramBuilder};
use millipede_mapreduce::{Dataset, InterleavedLayout, ThreadGrid};

/// Vertex count (fits two `f32` vertex tables in the 1 KB partition).
pub const VERTICES: usize = 64;
/// Destinations below this count as hubs (the skewed generator's heavy
/// quartile).
pub const HUB_CUT: u32 = 16;
/// Record arity: `(src, dst)`.
pub const NUM_FIELDS: usize = 2;

const SRC_OFF: i32 = 0;
const HUB_OFF: i32 = 16;
const CONTRIB_OFF: i32 = 24;
const ACC_OFF: i32 = CONTRIB_OFF + (VERTICES * 4) as i32;
/// Per-context live-state bytes.
pub const LIVE_BYTES: usize = ACC_OFF as usize + VERTICES * 4;

/// The synthetic graph behind a `pagerank` dataset of `num_records` edges.
pub fn graph_for(num_records: usize, seed: u64) -> SynthGraph {
    SynthGraph::generate(VERTICES, num_records, seed)
}

/// Per-vertex contribution table (`rank0 / out_degree`, 0 for sinks), as
/// `f32` bit patterns — shared by `live_init` and the reference.
fn contrib_bits(g: &SynthGraph) -> Vec<u32> {
    let rank0 = 1.0f32 / VERTICES as f32;
    (0..VERTICES)
        .map(|v| {
            let deg = g.out_degree(v);
            if deg == 0 {
                0.0f32.to_bits()
            } else {
                (rank0 / deg as f32).to_bits()
            }
        })
        .collect()
}

/// Builds the `pagerank` workload.
pub fn build(num_chunks: usize, row_bytes: u64, seed: u64) -> Workload {
    let layout = InterleavedLayout::new(NUM_FIELDS, row_bytes, num_chunks);
    let g = graph_for(layout.num_records(), seed);
    let dataset = Dataset::new(layout, g.edges.iter().map(|&(s, d)| vec![s, d]).collect());
    let live_init: Vec<(u64, u32)> = contrib_bits(&g)
        .into_iter()
        .enumerate()
        .map(|(v, bits)| (CONTRIB_OFF as u64 + 4 * v as u64, bits))
        .collect();
    let mask = (VERTICES - 1) as i32;
    let program = emit_multi_field_kernel(
        "pagerank",
        NUM_FIELDS,
        |b| {
            b.li(R_CONST8, HUB_CUT);
        },
        Some(Box::new(move |b: &mut ProgramBuilder| {
            // Source pass: stash the (masked) source vertex per slot.
            b.ld(r(10), R_ADDR, 0, AddrSpace::Input); // src
            b.alui(AluOp::And, r(10), r(10), mask);
            b.alui(AluOp::Sll, r(12), R_SLOT, 2);
            b.st_local(r(10), r(12), SRC_OFF);
        })),
        move |b| {
            // Destination pass: acc[dst] += contrib[src] (two indexed,
            // data-dependent local accesses), then classify the edge.
            b.ld(r(10), R_ADDR, 0, AddrSpace::Input); // dst
            b.alui(AluOp::And, r(10), r(10), mask);
            b.alui(AluOp::Sll, r(12), R_SLOT, 2);
            b.ld(r(11), r(12), SRC_OFF, AddrSpace::Local); // src[j]
            b.alui(AluOp::Sll, r(13), r(11), 2); // src*4
            b.ld(r(14), r(13), CONTRIB_OFF, AddrSpace::Local); // contrib[src]
            b.alui(AluOp::Sll, r(15), r(10), 2); // dst*4
            b.ld(r(16), r(15), ACC_OFF, AddrSpace::Local);
            b.falu(FAluOp::Fadd, r(16), r(16), r(14));
            b.st_local(r(16), r(15), ACC_OFF);
            // Hub classification: both sides of the data-dependent branch
            // do work (degree skew makes the split uneven by design).
            let other = b.label();
            let join = b.label();
            b.br(CmpOp::Geu, r(10), R_CONST8, other); // dst >= HUB_CUT
            b.ld(r(17), Reg::ZERO, HUB_OFF, AddrSpace::Local);
            b.alui(AluOp::Add, r(17), r(17), 1);
            b.st_local(r(17), Reg::ZERO, HUB_OFF);
            b.jmp(join);
            b.bind(other);
            b.ld(r(17), Reg::ZERO, HUB_OFF + 4, AddrSpace::Local);
            b.alui(AluOp::Add, r(17), r(17), 1);
            b.st_local(r(17), Reg::ZERO, HUB_OFF + 4);
            b.bind(join);
        },
        |_| {},
    );
    Workload {
        bench: crate::Benchmark::Pagerank,
        program,
        dataset,
        live_bytes: LIVE_BYTES,
        live_init,
    }
}

/// Host Reduce: `ints = [hub_edges, other_edges]`, `floats =
/// acc[VERTICES]` folded in thread order.
pub fn reduce(states: &[&[u32]]) -> Reduced {
    let mut ints = vec![0i64; 2];
    let mut floats = vec![0.0f32; VERTICES];
    for s in states {
        ints[0] += s[(HUB_OFF / 4) as usize] as i64;
        ints[1] += s[(HUB_OFF / 4) as usize + 1] as i64;
        for v in 0..VERTICES {
            floats[v] += f32::from_bits(s[(ACC_OFF / 4) as usize + v]);
        }
    }
    Reduced::Mixed { ints, floats }
}

/// Golden reference: replays each thread's edge visit order (the `f32`
/// pushes into one accumulator slot must fold in kernel order), then
/// folds the per-thread accumulators in thread order, mirroring
/// [`reduce`].
pub fn reference(w: &Workload, grid: &ThreadGrid) -> Reduced {
    let layout = &w.dataset.layout;
    let contrib: Vec<f32> = (0..VERTICES)
        .map(|v| {
            let bits = w
                .live_init
                .iter()
                .find(|&&(a, _)| a == CONTRIB_OFF as u64 + 4 * v as u64)
                .map_or(0, |&(_, bits)| bits);
            f32::from_bits(bits)
        })
        .collect();
    let mut ints = vec![0i64; 2];
    let mut floats = vec![0.0f32; VERTICES];
    for corelet in 0..grid.corelets {
        for context in 0..grid.contexts {
            let mut acc = [0.0f32; VERTICES];
            for rec in grid.records_of_thread(layout, corelet, context) {
                let src = w.dataset.records[rec][0] as usize & (VERTICES - 1);
                let dst = w.dataset.records[rec][1] as usize & (VERTICES - 1);
                acc[dst] += contrib[src];
                if (dst as u32) < HUB_CUT {
                    ints[0] += 1;
                } else {
                    ints[1] += 1;
                }
            }
            for v in 0..VERTICES {
                floats[v] += acc[v];
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
        let w = Workload::build(Benchmark::Pagerank, 3, 256, 13);
        let grid = ThreadGrid::slab(8, 4);
        assert_eq!(w.functional_output(&grid), w.reference(&grid));
    }

    #[test]
    fn functional_matches_reference_on_coalesced_grids() {
        let w = Workload::build(Benchmark::Pagerank, 2, 512, 7);
        for grid in [
            ThreadGrid::coalesced(16, 4),
            ThreadGrid::block_columns(16, 4),
        ] {
            assert_eq!(w.functional_output(&grid), w.reference(&grid));
        }
    }

    #[test]
    fn pushed_mass_sums_to_the_pushing_rank() {
        // Total pushed mass equals the rank mass of non-sink vertices:
        // every out-edge of v carries rank0/deg(v), and all deg(v) of them
        // are in the stream.
        let w = Workload::build(Benchmark::Pagerank, 4, 2048, 23);
        let g = graph_for(w.dataset.num_records(), 23);
        let grid = ThreadGrid::slab(32, 4);
        match w.functional_output(&grid) {
            Reduced::Mixed { ints, floats } => {
                assert_eq!(
                    ints[0] + ints[1],
                    w.dataset.num_records() as i64,
                    "every edge classified exactly once"
                );
                let pushed: f64 = floats.iter().map(|&x| f64::from(x)).sum();
                let expect: f64 = (0..VERTICES)
                    .filter(|&v| g.out_degree(v) > 0)
                    .map(|_| f64::from(1.0f32 / VERTICES as f32))
                    .sum();
                assert!(
                    (pushed - expect).abs() < 1e-3,
                    "pushed {pushed} vs {expect}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn hub_edges_dominate_under_degree_skew() {
        // Destinations are uniform, so hubs see ~HUB_CUT/VERTICES of the
        // edges — the classification split is 1:3, not the sources' skew.
        let w = Workload::build(Benchmark::Pagerank, 4, 2048, 5);
        let grid = ThreadGrid::slab(32, 4);
        match w.functional_output(&grid) {
            Reduced::Mixed { ints, .. } => {
                let frac = ints[0] as f64 / (ints[0] + ints[1]) as f64;
                assert!((0.15..0.35).contains(&frac), "hub fraction {frac}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    // Compile-time check: the live state fits the 1 KB context partition.
    const _: () = assert!(LIVE_BYTES <= 1024);
    const _: () = assert!(VERTICES.is_power_of_two());
}
