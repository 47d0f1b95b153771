//! PrIM-style streaming microkernels (dense-kernel family; not in the
//! paper): `streamadd`, `reduction`, and `scan`.
//!
//! The UPMEM PrIM study characterizes processing-in-memory hardware with
//! deliberately tiny, memory-bound kernels whose arithmetic intensity is
//! near zero — the opposite corner from `gemm` within the dense family,
//! and the regular-streaming extreme against the graph family's
//! irregularity. The three microkernels here are its VA (vector add),
//! RED (reduction), and SCAN analogues, integer-only and divergence-free:
//!
//! * `streamadd` — `c = a + b` per record, accumulating a running sum and
//!   an XOR checksum of the `c` stream (two fields, lowest ops/byte of
//!   any benchmark).
//! * `reduction` — single-pass sum / min / max of one field.
//! * `scan` — per-thread inclusive prefix sum; the observable is the sum
//!   of all prefix values, which is *order-sensitive within a thread*, so
//!   it pins the exact record-visit order end to end.
//!
//! All arithmetic is wrapping `u32` (the ALU's native behaviour), and the
//! host references replay it bit-exactly.

use crate::gen::SplitMix64;
use crate::skeleton::{emit_multi_field_kernel, emit_single_field_kernel, R_ADDR, R_SLOT};
use crate::{Reduced, Workload};
use millipede_isa::reg::{r, Reg};
use millipede_isa::{AddrSpace, AluOp, ProgramBuilder};
use millipede_mapreduce::{Dataset, InterleavedLayout, ThreadGrid};

/// `streamadd` inputs are below this (sums stay far from wrapping, so
/// tests can cross-check against exact integer arithmetic).
pub const STREAMADD_RANGE: u32 = 1 << 15;
/// `reduction` inputs are below this (positive as signed words, so the
/// ALU's signed min/max agree with unsigned order, and small enough that
/// per-thread sums stay exact at every sweep size in the repo).
pub const REDUCTION_RANGE: u32 = 1 << 20;
/// `scan` inputs are below this (prefix checksums stay well inside u32).
pub const SCAN_RANGE: u32 = 1 << 8;

/// Sentinel the `reduction` min slot starts from (`i32::MAX`, above every
/// input).
pub const REDUCTION_MIN_INIT: u32 = 0x7fff_ffff;

const SA_STASH_OFF: i32 = 0; // a[j] scratch, slot-indexed
const SA_SUM_OFF: i32 = 16;
const SA_XOR_OFF: i32 = 20;
/// `streamadd` per-context live-state bytes.
pub const STREAMADD_LIVE_BYTES: usize = 24;

const RED_SUM_OFF: i32 = 0;
const RED_MIN_OFF: i32 = 4;
const RED_MAX_OFF: i32 = 8;
/// `reduction` per-context live-state bytes.
pub const REDUCTION_LIVE_BYTES: usize = 12;

const SCAN_RUN_OFF: i32 = 0;
const SCAN_CHK_OFF: i32 = 4;
/// `scan` per-context live-state bytes.
pub const SCAN_LIVE_BYTES: usize = 8;

// ---------------------------------------------------------------------
// streamadd
// ---------------------------------------------------------------------

/// Builds the `streamadd` workload (`(a, b)` records).
pub fn build_streamadd(num_chunks: usize, row_bytes: u64, seed: u64) -> Workload {
    let layout = InterleavedLayout::new(2, row_bytes, num_chunks);
    let mut rng = SplitMix64::new(seed);
    let dataset = Dataset::generate(layout, |_| {
        vec![rng.below(STREAMADD_RANGE), rng.below(STREAMADD_RANGE)]
    });
    let program = emit_multi_field_kernel(
        "streamadd",
        2,
        |_| {},
        Some(Box::new(|b: &mut ProgramBuilder| {
            // First field: stash a[j] per slot.
            b.ld(r(10), R_ADDR, 0, AddrSpace::Input);
            b.alui(AluOp::Sll, r(12), R_SLOT, 2);
            b.st_local(r(10), r(12), SA_STASH_OFF);
        })),
        |b| {
            // Second field: c = a + b; sum += c; xorsum ^= c.
            b.ld(r(10), R_ADDR, 0, AddrSpace::Input); // b
            b.alui(AluOp::Sll, r(12), R_SLOT, 2);
            b.ld(r(11), r(12), SA_STASH_OFF, AddrSpace::Local); // a[j]
            b.alu(AluOp::Add, r(10), r(10), r(11)); // c
            b.ld(r(13), Reg::ZERO, SA_SUM_OFF, AddrSpace::Local);
            b.alu(AluOp::Add, r(13), r(13), r(10));
            b.st_local(r(13), Reg::ZERO, SA_SUM_OFF);
            b.ld(r(14), Reg::ZERO, SA_XOR_OFF, AddrSpace::Local);
            b.alu(AluOp::Xor, r(14), r(14), r(10));
            b.st_local(r(14), Reg::ZERO, SA_XOR_OFF);
        },
        |_| {},
    );
    Workload {
        bench: crate::Benchmark::StreamAdd,
        program,
        dataset,
        live_bytes: STREAMADD_LIVE_BYTES,
        live_init: Vec::new(),
    }
}

/// `streamadd` Reduce: `[Σ sums, Σ per-thread XOR checksums]`.
pub fn reduce_streamadd(states: &[&[u32]]) -> Reduced {
    let mut out = vec![0i64; 2];
    for s in states {
        out[0] += s[(SA_SUM_OFF / 4) as usize] as i64;
        out[1] += s[(SA_XOR_OFF / 4) as usize] as i64;
    }
    Reduced::Ints(out)
}

/// `streamadd` reference: wrapping-u32 replay per thread, folded in
/// thread order.
pub fn reference_streamadd(w: &Workload, grid: &ThreadGrid) -> Reduced {
    let layout = &w.dataset.layout;
    let mut out = vec![0i64; 2];
    for corelet in 0..grid.corelets {
        for context in 0..grid.contexts {
            let (mut sum, mut xorsum) = (0u32, 0u32);
            for rec in grid.records_of_thread(layout, corelet, context) {
                let c = w.dataset.records[rec][0].wrapping_add(w.dataset.records[rec][1]);
                sum = sum.wrapping_add(c);
                xorsum ^= c;
            }
            out[0] += sum as i64;
            out[1] += xorsum as i64;
        }
    }
    Reduced::Ints(out)
}

// ---------------------------------------------------------------------
// reduction
// ---------------------------------------------------------------------

/// Builds the `reduction` workload (single-field sum/min/max).
pub fn build_reduction(num_chunks: usize, row_bytes: u64, seed: u64) -> Workload {
    let layout = InterleavedLayout::new(1, row_bytes, num_chunks);
    let mut rng = SplitMix64::new(seed);
    let dataset = Dataset::generate(layout, |_| vec![rng.below(REDUCTION_RANGE)]);
    let program = emit_single_field_kernel(
        "reduction",
        |_| {},
        |b| {
            b.ld(r(10), R_ADDR, 0, AddrSpace::Input);
            b.ld(r(11), Reg::ZERO, RED_SUM_OFF, AddrSpace::Local);
            b.alu(AluOp::Add, r(11), r(11), r(10));
            b.st_local(r(11), Reg::ZERO, RED_SUM_OFF);
            b.ld(r(12), Reg::ZERO, RED_MIN_OFF, AddrSpace::Local);
            b.alu(AluOp::Min, r(12), r(12), r(10));
            b.st_local(r(12), Reg::ZERO, RED_MIN_OFF);
            b.ld(r(13), Reg::ZERO, RED_MAX_OFF, AddrSpace::Local);
            b.alu(AluOp::Max, r(13), r(13), r(10));
            b.st_local(r(13), Reg::ZERO, RED_MAX_OFF);
        },
    );
    Workload {
        bench: crate::Benchmark::Reduction,
        program,
        dataset,
        live_bytes: REDUCTION_LIVE_BYTES,
        live_init: vec![(RED_MIN_OFF as u64, REDUCTION_MIN_INIT)],
    }
}

/// `reduction` Reduce: `[Σ sums, min of mins, max of maxes]`.
pub fn reduce_reduction(states: &[&[u32]]) -> Reduced {
    let mut out = vec![0i64, i64::from(REDUCTION_MIN_INIT), 0];
    for s in states {
        out[0] += s[(RED_SUM_OFF / 4) as usize] as i64;
        out[1] = out[1].min(s[(RED_MIN_OFF / 4) as usize] as i64);
        out[2] = out[2].max(s[(RED_MAX_OFF / 4) as usize] as i64);
    }
    Reduced::Ints(out)
}

/// `reduction` reference: wrapping-u32 sums per thread, global min/max.
pub fn reference_reduction(w: &Workload, grid: &ThreadGrid) -> Reduced {
    let layout = &w.dataset.layout;
    let mut out = vec![0i64, i64::from(REDUCTION_MIN_INIT), 0];
    for corelet in 0..grid.corelets {
        for context in 0..grid.contexts {
            let mut sum = 0u32;
            for rec in grid.records_of_thread(layout, corelet, context) {
                let x = w.dataset.records[rec][0];
                sum = sum.wrapping_add(x);
                out[1] = out[1].min(i64::from(x));
                out[2] = out[2].max(i64::from(x));
            }
            out[0] += sum as i64;
        }
    }
    Reduced::Ints(out)
}

// ---------------------------------------------------------------------
// scan
// ---------------------------------------------------------------------

/// Builds the `scan` workload (per-thread inclusive prefix sum).
pub fn build_scan(num_chunks: usize, row_bytes: u64, seed: u64) -> Workload {
    let layout = InterleavedLayout::new(1, row_bytes, num_chunks);
    let mut rng = SplitMix64::new(seed);
    let dataset = Dataset::generate(layout, |_| vec![rng.below(SCAN_RANGE)]);
    let program = emit_single_field_kernel(
        "scan",
        |_| {},
        |b| {
            b.ld(r(10), R_ADDR, 0, AddrSpace::Input);
            b.ld(r(11), Reg::ZERO, SCAN_RUN_OFF, AddrSpace::Local);
            b.alu(AluOp::Add, r(11), r(11), r(10)); // run += x
            b.st_local(r(11), Reg::ZERO, SCAN_RUN_OFF);
            b.ld(r(12), Reg::ZERO, SCAN_CHK_OFF, AddrSpace::Local);
            b.alu(AluOp::Add, r(12), r(12), r(11)); // check += run
            b.st_local(r(12), Reg::ZERO, SCAN_CHK_OFF);
        },
    );
    Workload {
        bench: crate::Benchmark::Scan,
        program,
        dataset,
        live_bytes: SCAN_LIVE_BYTES,
        live_init: Vec::new(),
    }
}

/// `scan` Reduce: `[Σ final prefix values, Σ prefix checksums]`.
pub fn reduce_scan(states: &[&[u32]]) -> Reduced {
    let mut out = vec![0i64; 2];
    for s in states {
        out[0] += s[(SCAN_RUN_OFF / 4) as usize] as i64;
        out[1] += s[(SCAN_CHK_OFF / 4) as usize] as i64;
    }
    Reduced::Ints(out)
}

/// `scan` reference: the prefix checksum is order-sensitive within a
/// thread, so this replays the exact record-visit order.
pub fn reference_scan(w: &Workload, grid: &ThreadGrid) -> Reduced {
    let layout = &w.dataset.layout;
    let mut out = vec![0i64; 2];
    for corelet in 0..grid.corelets {
        for context in 0..grid.contexts {
            let (mut run, mut check) = (0u32, 0u32);
            for rec in grid.records_of_thread(layout, corelet, context) {
                run = run.wrapping_add(w.dataset.records[rec][0]);
                check = check.wrapping_add(run);
            }
            out[0] += run as i64;
            out[1] += check as i64;
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
        for bench in [Benchmark::StreamAdd, Benchmark::Reduction, Benchmark::Scan] {
            let w = Workload::build(bench, 3, 256, 37);
            for grid in [
                ThreadGrid::slab(8, 4),
                ThreadGrid::coalesced(16, 4),
                ThreadGrid::block_columns(16, 4),
            ] {
                assert_eq!(
                    w.functional_output(&grid),
                    w.reference(&grid),
                    "{}",
                    bench.name()
                );
            }
        }
    }

    #[test]
    fn streamadd_sum_is_exact() {
        let w = Workload::build(Benchmark::StreamAdd, 4, 512, 2);
        let want: i64 = w
            .dataset
            .records
            .iter()
            .map(|rec| i64::from(rec[0]) + i64::from(rec[1]))
            .sum();
        match w.functional_output(&ThreadGrid::slab(8, 4)) {
            Reduced::Ints(out) => assert_eq!(out[0], want),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reduction_matches_host_min_max_sum() {
        let w = Workload::build(Benchmark::Reduction, 4, 512, 21);
        let xs: Vec<u32> = w.dataset.records.iter().map(|rec| rec[0]).collect();
        match w.functional_output(&ThreadGrid::slab(8, 4)) {
            Reduced::Ints(out) => {
                assert_eq!(out[0], xs.iter().map(|&x| i64::from(x)).sum::<i64>());
                assert_eq!(out[1], i64::from(*xs.iter().min().unwrap()));
                assert_eq!(out[2], i64::from(*xs.iter().max().unwrap()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scan_checksum_depends_on_visit_order() {
        // The prefix checksum is the one observable that changes when the
        // per-thread record partition changes — exactly why `scan` pins
        // the visit order. (The plain sum must not change.)
        let w = Workload::build(Benchmark::Scan, 4, 1024, 13);
        let a = w.functional_output(&ThreadGrid::slab(8, 4));
        let b = w.functional_output(&ThreadGrid::slab(32, 4));
        match (&a, &b) {
            (Reduced::Ints(a), Reduced::Ints(b)) => {
                assert_eq!(a[0], b[0], "total sum is partition-invariant");
                assert_ne!(a[1], b[1], "prefix checksum should see the partition");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
