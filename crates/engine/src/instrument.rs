//! Instrumentation helpers shared by the timing models.
//!
//! - [`ReplayDeltas`] holds the per-retry-edge recounts a model replays by
//!   count over a jump ([`crate::NodeModel::replay`]).
//! - [`register_core_stats`] is the one stats→metrics naming the manifest
//!   writer uses for every model.
//! - [`sample_dram`] is the DRAM-controller sample trio every model
//!   records at each telemetry epoch boundary.
//! - [`row_conflicts`] is the per-fill row-conflict event every model
//!   records on its channel edges.
//!
//! Everything here is observational: replayed accounting is bit-exact by
//! construction (skipped edges are proven no-ops), and the golden-digest
//! and fast-forward differential suites pin that.

use crate::clock::TimePs;
use crate::stats::CoreStats;
use millipede_metrics::Registry;
use millipede_telemetry::Telemetry;

/// Per-retry-edge recount rates: counters a stalled (quiescent) compute
/// edge re-records every cycle, replayed by count across a skipped span.
/// Fields a model does not recount simply stay zero (Millipede recounts
/// none; SSMC recounts L1 misses; GPGPU recounts demand stalls and L1
/// hits/misses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayDeltas {
    /// Demand-stall recounts per skipped edge.
    pub stalls: u64,
    /// L1-hit recounts per skipped edge.
    pub hits: u64,
    /// L1-miss recounts per skipped edge.
    pub misses: u64,
}

/// Registers every [`CoreStats`] field under `<prefix>.stats.*` — the one
/// place the stats→registry naming lives, so all four models share it in
/// the manifest writer.
pub fn register_core_stats(reg: &mut Registry, prefix: &str, stats: &CoreStats) {
    let c = |reg: &mut Registry, name: &str, v: u64| {
        reg.counter_add(&format!("{prefix}.stats.{name}"), v);
    };
    c(reg, "instructions", stats.instructions);
    c(reg, "issues", stats.issues);
    c(reg, "branches", stats.branches);
    c(reg, "divergent_branches", stats.divergent_branches);
    c(reg, "input_loads", stats.input_loads);
    c(reg, "local_loads", stats.local_loads);
    c(reg, "local_stores", stats.local_stores);
    c(reg, "shared_passes", stats.shared_passes);
    c(reg, "l1_hits", stats.l1_hits);
    c(reg, "l1_misses", stats.l1_misses);
    c(reg, "pbuf_hits", stats.pbuf_hits);
    c(reg, "demand_stalls", stats.demand_stalls);
    c(reg, "prefetches", stats.prefetches);
    c(reg, "demand_fetches", stats.demand_fetches);
    c(reg, "compute_cycles", stats.compute_cycles);
    c(reg, "issue_slots", stats.issue_slots);
    c(reg, "stall_slots", stats.stall_slots);
    c(reg, "lane_idle", stats.lane_idle);
    c(reg, "flow_blocks", stats.flow_blocks);
    c(reg, "premature_evictions", stats.premature_evictions);
    c(reg, "ff_skipped_cycles", stats.ff_skipped_cycles);
    reg.gauge_set(
        &format!("{prefix}.stats.rate_match_final_mhz"),
        stats.rate_match_final_mhz,
    );
    c(reg, "rate_steps", stats.rate_trace.len() as u64);
}

/// Emits the shared DRAM-controller sample trio every model records at
/// each epoch boundary.
pub fn sample_dram(
    tel: &mut Telemetry,
    due: u64,
    at: TimePs,
    row_hits: u64,
    row_misses: u64,
    queue_depth: usize,
) {
    tel.counter("dram::controller", "row_hits", due, at, row_hits as f64);
    tel.counter("dram::controller", "row_misses", due, at, row_misses as f64);
    tel.counter(
        "dram::controller",
        "queue_depth",
        due,
        at,
        queue_depth as f64,
    );
}

/// Records one `row_conflict` event for each completed fill, given as
/// `(row_hit, addr)`, that had to open its row. Channel edges have no
/// compute cycle of their own, so the events carry the last completed
/// one, `cycle`.
pub fn row_conflicts(
    tel: &mut Telemetry,
    cycle: u64,
    at: TimePs,
    row_bytes: u64,
    fills: impl Iterator<Item = (bool, u64)>,
) {
    if !tel.enabled() {
        return;
    }
    for (row_hit, addr) in fills {
        if !row_hit {
            let row = addr / row_bytes;
            tel.event("dram::controller", "row_conflict", cycle, at, row as f64);
        }
    }
}
