//! The one stats→metrics naming the manifest writer uses for every model
//! ([`register_core_stats`]).
//!
//! The per-run telemetry every model shares (the DRAM-controller samples
//! and `row_conflict` events) is recorded by the driver
//! ([`crate::driver`]).

use crate::stats::CoreStats;
use millipede_metrics::Registry;

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
