//! Shared instrumentation layer for the timing models.
//!
//! Quiescence fingerprinting, fast-forward counter replication, telemetry
//! epoch sampling, metrics registration, and end-of-run invariant hooks
//! used to be hand-duplicated across core/ssmc/gpgpu/multicore (ROADMAP
//! item 3). This module centralizes them:
//!
//! - [`Instrumented`] is the contract every cycle-driven model implements
//!   once: the quiescence fingerprint, per-epoch-boundary sampling, and
//!   the invariant hooks. The anchor arithmetic that reconstructs sample
//!   timestamps inside fast-forwarded regions
//!   ([`Instrumented::emit_epoch_samples`]) is provided by the trait
//!   layer, so a new architecture variant gets it for free.
//! - [`register_core_stats`] is the one stats→metrics naming the manifest
//!   writer uses for every model.
//! - [`Quiescence`] owns the shared run-loop bookkeeping the driver
//!   ([`crate::drive`]) applies: the idle-streak deadlock guard and the
//!   per-cycle accounting every proven-no-op edge replays by count
//!   (`ff_skipped_cycles`, issue/stall slots; the model replays its own
//!   [`ReplayDeltas`]).
//!
//! Everything here is observational: replayed accounting is bit-exact by
//! construction (skipped edges are proven no-ops), and the golden-digest
//! and fast-forward differential suites pin that.

use crate::clock::TimePs;
use crate::stats::CoreStats;
use millipede_metrics::Registry;
use millipede_telemetry::Telemetry;

/// Per-retry-edge recount rates: counters a stalled (quiescent) compute
/// edge re-records every cycle, replayed by count across a skipped span
/// and rewound linearly by telemetry sampling. Fields a model does not
/// recount simply stay zero (Millipede recounts none; SSMC recounts L1
/// misses; GPGPU recounts demand stalls and L1 hits/misses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayDeltas {
    /// Demand-stall recounts per skipped edge.
    pub stalls: u64,
    /// L1-hit recounts per skipped edge.
    pub hits: u64,
    /// L1-miss recounts per skipped edge.
    pub misses: u64,
}

/// Deadlock guard: a run panics once no issue slot has issued for this
/// many consecutive compute cycles.
pub const MAX_IDLE_CYCLES: u64 = 2_000_000;

/// Shared quiescence bookkeeping for the run loop ([`crate::drive`]): the
/// idle-streak deadlock guard and the replay-by-count accounting of
/// proven-no-op compute edges.
#[derive(Debug)]
pub struct Quiescence {
    label: &'static str,
    slots_per_cycle: u64,
    idle_streak: u64,
}

impl Quiescence {
    /// Creates the bookkeeping for a model with `slots_per_cycle` issue
    /// slots per compute edge; `label` names the model in deadlock panics.
    pub fn new(label: &'static str, slots_per_cycle: u64) -> Quiescence {
        Quiescence {
            label,
            slots_per_cycle,
            idle_streak: 0,
        }
    }

    fn guard(&self) {
        assert!(
            self.idle_streak <= MAX_IDLE_CYCLES,
            "{} deadlock: no issue for {} cycles",
            self.label,
            self.idle_streak
        );
    }

    /// Records one ticked compute edge's issue outcome and enforces the
    /// deadlock bound.
    pub(crate) fn note_edge(&mut self, any_issued: bool) {
        self.idle_streak = if any_issued { 0 } else { self.idle_streak + 1 };
        self.guard();
    }

    /// Replays the shared per-cycle accounting of `skipped` proven-no-op
    /// edges: each visits every issue slot and stalls it. The caller
    /// replays its own [`ReplayDeltas`]-scaled counters with the same
    /// count.
    pub(crate) fn replay(&mut self, cycle: &mut u64, stats: &mut CoreStats, skipped: u64) {
        *cycle += skipped;
        stats.ff_skipped_cycles += skipped;
        stats.issue_slots += skipped * self.slots_per_cycle;
        stats.stall_slots += skipped * self.slots_per_cycle;
        self.idle_streak += skipped;
        self.guard();
    }
}

/// The shared instrumentation contract every timing model implements.
///
/// A model implements it on the struct that holds its run-loop state (the
/// same struct implements [`crate::NodeModel`]); the trait layer provides
/// the fast-forward-aware epoch walker on top of the model-specific hooks.
pub trait Instrumented {
    /// Quiescence fingerprint: a sum of monotone counters that is
    /// unchanged across a compute edge iff that edge observably changed
    /// nothing (see DESIGN.md, "One driver"). Per-retry-edge
    /// recounts are deliberately excluded and replayed via
    /// [`ReplayDeltas`] instead.
    fn fingerprint(&self) -> u64;

    /// Emits one telemetry epoch boundary's samples. `rewind` is the
    /// number of proven-no-op edges between `due` and the current cycle;
    /// per-cycle replayed counters are rewound linearly by it.
    fn sample_epoch(&self, tel: &mut Telemetry, due: u64, at: TimePs, rewind: u64);

    /// End-of-run invariant hooks (timing audits, buffer audits, clock
    /// monotonicity); panics on any violation.
    fn assert_clean(&self);

    /// Walks every telemetry epoch boundary due up to `cycle`,
    /// reconstructing each boundary's timestamp from the anchor (sample
    /// `due` happened at `anchor_now + (due − anchor_cycle)·period`; the
    /// compute schedule is rigid across any skipped span) and handing it
    /// to [`Instrumented::sample_epoch`].
    fn emit_epoch_samples(
        &self,
        tel: &mut Telemetry,
        cycle: u64,
        anchor_cycle: u64,
        anchor_now: TimePs,
        period: TimePs,
    ) {
        while let Some(due) = tel.next_due(cycle) {
            let at = anchor_now + (due - anchor_cycle) * period;
            self.sample_epoch(tel, due, at, cycle - due);
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy;
    impl Instrumented for Dummy {
        fn fingerprint(&self) -> u64 {
            0
        }
        fn sample_epoch(&self, tel: &mut Telemetry, due: u64, at: TimePs, rewind: u64) {
            tel.counter("dummy::core", "rewind", due, at, rewind as f64);
        }
        fn assert_clean(&self) {}
    }

    #[test]
    fn epoch_walker_reconstructs_anchored_boundaries() {
        let cfg = millipede_telemetry::TelemetryConfig::enabled_with_epoch(10);
        let mut tel = Telemetry::new(&cfg);
        // Anchor at cycle 5, time 500, period 7: boundaries 10 and 20 due
        // by cycle 25, at times 500+5*7 and 500+15*7.
        Dummy.emit_epoch_samples(&mut tel, 25, 5, 500, 7);
        let samples = tel.samples("dummy::core", "rewind");
        assert_eq!(samples.len(), 2);
        assert_eq!((samples[0].cycle, samples[0].time_ps), (10, 535));
        assert_eq!((samples[1].cycle, samples[1].time_ps), (20, 605));
        assert_eq!(samples[0].value, 15.0);
        assert_eq!(samples[1].value, 5.0);
    }

    #[test]
    fn replay_accounts_slots_and_streak() {
        let mut q = Quiescence::new("Test", 4);
        let mut stats = CoreStats::default();
        let mut cycle = 10u64;
        q.note_edge(false);
        q.replay(&mut cycle, &mut stats, 5);
        assert_eq!(cycle, 15);
        assert_eq!(stats.ff_skipped_cycles, 5);
        assert_eq!(stats.issue_slots, 20);
        assert_eq!(stats.stall_slots, 20);
        q.note_edge(true); // an issue resets the streak
        q.replay(&mut cycle, &mut stats, 3);
        assert_eq!(stats.ff_skipped_cycles, 8);
    }

    #[test]
    #[should_panic(expected = "Test deadlock")]
    fn deadlock_guard_fires() {
        let mut q = Quiescence::new("Test", 1);
        let (mut cycle, mut stats) = (0, CoreStats::default());
        q.replay(&mut cycle, &mut stats, MAX_IDLE_CYCLES);
        q.note_edge(false);
    }
}
