//! Layer replays for the traced run.
//!
//! Each replay drives one simulator layer from outside, through its public
//! API, over work sized from the point it follows, so that layer's cost per
//! operation can be timed apart from the rest of the model. A layer's share
//! of a point's simulate time is then its cost per operation × the number of
//! operations the simulation counted ÷ the simulate time; whatever the four
//! replays do not explain — the issue scan, the scheduler and the model glue
//! — is left as the residual.

use millipede::core_arch::{Lookup, RowPrefetchBuffer};
use millipede::dram::{DramGeometry, DramTiming, MemoryController, Request};
use millipede::engine::{run_functional, DEFAULT_STEP_LIMIT};
use millipede::mapreduce::ThreadGrid;
use millipede::mem::Cache;
use millipede::ssmc::SsmcConfig;
use millipede::workloads::Workload;
use std::hint::black_box;

/// Fewest operations a cache or DRAM replay performs, so every workload
/// measures a per-operation cost even where its points count none.
pub const MIN_OPS: u64 = 4096;

/// Runs every thread of `grid` through the functional interpreter over the
/// workload's own input; returns the instructions retired.
pub fn interp(w: &Workload, grid: &ThreadGrid) -> u64 {
    let mut retired = 0;
    for corelet in 0..grid.corelets {
        for context in 0..grid.contexts {
            let mut ctx = w.make_ctx(grid, corelet, context);
            let stats = run_functional(&mut ctx, &w.program, &w.dataset.image, DEFAULT_STEP_LIMIT)
                .expect("benchmark kernels run to completion");
            retired += stats.instructions;
        }
    }
    black_box(retired)
}

/// Streams `rows` rows through a flow-controlled row prefetch buffer: every
/// pending fetch fills at once, then each of `groups` consumer groups reads
/// its `words_per_group` words of the row. Returns the consume calls.
pub fn pbuf(entries: usize, groups: usize, words_per_group: u32, rows: u64) -> u64 {
    let mut buf = RowPrefetchBuffer::new(entries, groups, words_per_group, rows, true);
    let mut consumed = 0;
    for row in 0..rows {
        while let Some((slot, _)) = buf.pop_fetch() {
            buf.fill_complete(slot);
        }
        let Lookup::Ready { slot } = buf.lookup(row) else {
            panic!("row {row} is not resident after its fill");
        };
        for group in 0..groups {
            for _ in 0..words_per_group {
                black_box(buf.consume(slot, group));
                consumed += 1;
            }
        }
    }
    consumed
}

/// Probes `probes` sequential input words through an L1 of SSMC's default
/// geometry, filling each miss at once. Returns the probes made.
pub fn cache(probes: u64) -> u64 {
    let cfg = SsmcConfig::default();
    let mut l1 = Cache::new(cfg.l1_bytes as u64, cfg.l1_assoc, cfg.l1_block);
    for word in 0..probes {
        let addr = word * 4;
        if !l1.access(addr) {
            l1.fill(addr);
        }
    }
    black_box(l1.stats().hits);
    probes
}

/// The request size a DRAM replay uses for a point whose requests averaged
/// `avg_bytes`: the largest power of two not above it, within `[4,
/// row_bytes]`, so aligned sequential requests never span a row.
pub fn request_bytes(avg_bytes: u64, row_bytes: u64) -> u64 {
    let pow2 = if avg_bytes == 0 {
        4
    } else {
        1u64 << (63 - avg_bytes.leading_zeros())
    };
    pow2.clamp(4, row_bytes)
}

/// Streams `requests` sequential reads of `bytes` each through an FR-FCFS
/// controller via `try_push` / `tick` / `pop_completed`, ticking every
/// channel cycle until all complete. Returns the requests served.
pub fn dram(requests: u64, bytes: u64, geometry: DramGeometry, timing: DramTiming) -> u64 {
    let mut mc = MemoryController::new(geometry, timing);
    let wrap = geometry.capacity_bytes / bytes * bytes;
    let (mut pushed, mut served, mut now) = (0u64, 0u64, 0u64);
    while served < requests {
        while pushed < requests {
            let req = Request {
                addr: (pushed * bytes) % wrap,
                bytes,
                tag: pushed,
            };
            if mc.try_push(req, now).is_err() {
                break;
            }
            pushed += 1;
        }
        mc.tick(now);
        now += timing.channel_period_ps;
        served += mc.pop_completed(now).len() as u64;
    }
    served
}

#[cfg(test)]
mod tests {
    use super::*;
    use millipede::workloads::Benchmark;

    #[test]
    fn replays_do_the_work_they_report() {
        let w = Workload::build(Benchmark::Count, 2, 2048, 1);
        assert!(interp(&w, &ThreadGrid::slab(4, 1)) > 0);
        let rows = w.dataset.layout.total_rows();
        assert_eq!(pbuf(16, 32, 16, rows), rows * 512);
        assert_eq!(cache(MIN_OPS), MIN_OPS);
        let geometry = DramGeometry::default();
        let bytes = request_bytes(100, geometry.row_bytes);
        assert_eq!(bytes, 64);
        assert_eq!(dram(300, bytes, geometry, DramTiming::default()), 300);
    }

    #[test]
    fn request_bytes_stay_within_a_row() {
        assert_eq!(request_bytes(0, 2048), 4);
        assert_eq!(request_bytes(2048, 2048), 2048);
        assert_eq!(request_bytes(5000, 2048), 2048);
        assert_eq!(request_bytes(1, 2048), 4);
    }
}
