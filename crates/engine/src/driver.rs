//! The one event-driven run loop every timing model runs on.
//!
//! A PNM node has two clock domains (§IV-F, Table III): the compute clock,
//! which rate-matching DFS rescales, and the fixed channel clock. [`drive`]
//! pops their edges off a [`DualClock`] in time order and hands each one
//! to the model ([`NodeModel`]). Everything around the two edge handlers
//! is the driver's: the cycle count and last-edge time, the quiescence
//! fingerprint taken around each compute edge, the deadlock guard, the
//! bulk jump over proven-no-op edges, telemetry epoch sampling, and the
//! end-of-run invariant check.
//!
//! **The jump.** A compute edge that issues nothing and leaves the model's
//! fingerprint unchanged changed nothing at all, so every later compute
//! edge repeats it verbatim until the memory controller acts. The driver
//! then fast-forwards both domains to the first channel edge at or after
//! the controller's next event ([`DualClock::fast_forward`]) and replays
//! the skipped edges' accounting by count: the shared slot counters via
//! [`Quiescence`], the model's own per-retry recounts via
//! [`NodeModel::replay`]. A jump stops on every telemetry epoch boundary
//! it crosses, replays up to it and samples there, so each sample reads
//! the state the walked edge would have left. With fast-forward off every
//! edge is walked; the two schedules are bit-identical (DESIGN.md, "One
//! driver").

use crate::clock::{DualClock, Edge, TimePs};
use crate::stats::CoreStats;
use millipede_telemetry::Telemetry;

/// A timing model the driver can run: two edge handlers plus the hooks
/// the jump, telemetry and the end-of-run check need. The model's
/// run-loop state lives in the implementor.
pub trait NodeModel {
    /// Whether every thread has finished (the loop's exit test).
    fn done(&self) -> bool;

    /// Ticks the `cycle`-th compute edge, at `now`. `clock` is lent for
    /// DFS retunes ([`DualClock::set_compute_period`]). Returns whether
    /// any issue slot issued.
    fn compute_edge(
        &mut self,
        now: TimePs,
        cycle: u64,
        clock: &mut DualClock,
        tel: &mut Telemetry,
    ) -> bool;

    /// Ticks the channel edge at `now` and returns the number of fills it
    /// completed. `cycle` is the last compute cycle: channel edges have no
    /// cycle of their own.
    fn channel_edge(&mut self, now: TimePs, cycle: u64, tel: &mut Telemetry) -> usize;

    /// Quiescence fingerprint: a sum of monotone counters that is
    /// unchanged across a compute edge iff that edge observably changed
    /// nothing (see DESIGN.md, "One driver"). Per-retry-edge recounts are
    /// deliberately excluded and replayed via [`NodeModel::replay`]
    /// instead.
    fn fingerprint(&self) -> u64;

    /// The memory controller's exact next-event bound: no channel edge
    /// before it changes anything a compute edge can see. `None` means
    /// the controller is idle, and a quiescent edge is not jumped.
    fn next_event_at(&self) -> Option<TimePs>;

    /// An extra gate on the jump, for state that wakes on a compute-cycle
    /// timer rather than on memory (a GPGPU warp or LSU busy timer).
    fn may_jump(&self, _cycle: u64) -> bool {
        true
    }

    /// Replays the model's own per-retry recounts (its
    /// [`crate::ReplayDeltas`] for the quiescent edge just ticked) for
    /// `skipped` jumped edges.
    fn replay(&mut self, _skipped: u64) {}

    /// The statistics the shared per-cycle accounting replays into.
    fn stats_mut(&mut self) -> &mut CoreStats;

    /// Records the telemetry epoch sample of compute cycle `cycle`, whose
    /// edge fell at `at`. The driver calls it with the state that edge
    /// left, walked or jumped.
    fn sample_epoch(&self, tel: &mut Telemetry, cycle: u64, at: TimePs);

    /// End-of-run invariant hooks (timing audits, buffer audits, clock
    /// monotonicity); panics on any violation.
    fn assert_clean(&self);
}

/// Deadlock guard: a run panics once no issue slot has issued for this
/// many consecutive compute cycles.
pub const MAX_IDLE_CYCLES: u64 = 2_000_000;

/// Shared quiescence bookkeeping for [`drive`]: the idle-streak deadlock
/// guard and the replay-by-count accounting of proven-no-op compute
/// edges.
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
    fn note_edge(&mut self, any_issued: bool) {
        self.idle_streak = if any_issued { 0 } else { self.idle_streak + 1 };
        self.guard();
    }

    /// Replays the shared per-cycle accounting of `skipped` proven-no-op
    /// edges: each visits every issue slot and stalls it. The model
    /// replays its own recounts with the same count.
    fn replay(&mut self, cycle: &mut u64, stats: &mut CoreStats, skipped: u64) {
        *cycle += skipped;
        stats.ff_skipped_cycles += skipped;
        stats.issue_slots += skipped * self.slots_per_cycle;
        stats.stall_slots += skipped * self.slots_per_cycle;
        self.idle_streak += skipped;
        self.guard();
    }
}

/// Host-side counters of one run: fast-forward jumps and issue credits.
///
/// Host observability for run manifests; never read back by the driver
/// or a model, so like `ff_skipped_cycles` it is outside the digests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JumpProfile {
    /// Bulk jumps taken (each skipped at least one compute edge).
    pub sleeps: u64,
    /// Jumps whose landing channel edge completed at least one fill.
    /// `sleeps − wakes` counts the jumps that landed on an edge with
    /// nothing for compute to see.
    pub wakes: u64,
    /// Issue slots paid from run-ahead credits instead of a commit (set
    /// by the model after [`drive`] returns; `issues − credit_issues`
    /// slots went through the full per-instruction dispatch).
    pub credit_issues: u64,
}

/// What a driven run reports back to its model's `run`.
#[derive(Debug, Clone, Copy)]
pub struct Driven {
    /// Compute cycles, walked and skipped.
    pub cycles: u64,
    /// Time of the last edge, in picoseconds (the run's elapsed time).
    pub last_time: TimePs,
    /// Jump counters.
    pub profile: JumpProfile,
}

/// Samples `model` if `cycle` is the next telemetry epoch boundary. The
/// driver never passes a boundary unsampled, so at most one is due.
fn sample_if_due<M: NodeModel>(model: &M, tel: &mut Telemetry, cycle: u64, at: TimePs) {
    if let Some(due) = tel.next_due(cycle) {
        debug_assert_eq!(due, cycle, "a telemetry epoch boundary was skipped");
        model.sample_epoch(tel, cycle, at);
    }
}

/// Runs `model` to completion on `clock`, then runs its end-of-run
/// invariant check ([`NodeModel::assert_clean`]).
///
/// `quiesce` carries the model's deadlock bound and issue slots per
/// compute edge; `fast_forward` enables the bulk jump (off, every edge is
/// walked — the oracle the differential suites compare against).
///
/// # Panics
///
/// Panics if the model issues nothing for longer than its deadlock bound,
/// if its invariant check fails, or on whatever the model's handlers
/// panic on.
pub fn drive<M: NodeModel>(
    model: &mut M,
    clock: &mut DualClock,
    mut quiesce: Quiescence,
    fast_forward: bool,
    tel: &mut Telemetry,
) -> Driven {
    let mut cycle = 0u64;
    let mut last_time: TimePs = 0;
    let mut profile = JumpProfile::default();
    // Whether the next edge is a jump's landing channel edge.
    let mut landing = false;
    while !model.done() {
        match clock.pop() {
            Edge::Compute(now) => {
                last_time = now;
                cycle += 1;
                let fp_before = model.fingerprint();
                let issued = model.compute_edge(now, cycle, clock, tel);
                quiesce.note_edge(issued);
                sample_if_due(model, tel, cycle, now);
                if fast_forward
                    && !issued
                    && model.may_jump(cycle)
                    && model.fingerprint() == fp_before
                {
                    if let Some(event) = model.next_event_at() {
                        // One jump, cut into pieces that each end on an
                        // epoch boundary or at the target.
                        let start = cycle;
                        loop {
                            let max = tel.next_boundary().map_or(u64::MAX, |b| b - cycle);
                            let skipped = clock.fast_forward(event, max);
                            if skipped == 0 {
                                break;
                            }
                            quiesce.replay(&mut cycle, model.stats_mut(), skipped);
                            model.replay(skipped);
                            sample_if_due(model, tel, cycle, clock.last_compute());
                            if skipped < max {
                                break;
                            }
                        }
                        if cycle > start {
                            profile.sleeps += 1;
                            landing = true;
                        }
                    }
                }
            }
            Edge::Channel(now) => {
                last_time = now;
                let fills = model.channel_edge(now, cycle, tel);
                if std::mem::take(&mut landing) && fills > 0 {
                    profile.wakes += 1;
                }
            }
        }
    }
    model.assert_clean();
    Driven {
        cycles: cycle,
        last_time,
        profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use millipede_telemetry::TelemetryConfig;

    /// A one-slot toy node: each fill the channel delivers lets one
    /// compute edge issue; a stalled edge re-counts a miss (its replayed
    /// delta). The first and third issues retune the compute clock.
    struct Toy {
        fills: Vec<TimePs>,
        ready: u32,
        consumed: u32,
        misses: u64,
        miss_delta: u64,
        retunes: Vec<(u32, TimePs)>,
        issued_at: Vec<(u64, TimePs)>,
        stats: CoreStats,
    }

    impl Toy {
        fn new() -> Toy {
            Toy {
                fills: vec![95, 100, 400, 1_000, 1_010, 2_345, 5_000],
                ready: 0,
                consumed: 0,
                misses: 0,
                miss_delta: 0,
                retunes: vec![(1, 17), (3, 29)],
                issued_at: Vec::new(),
                stats: CoreStats::default(),
            }
        }
    }

    impl NodeModel for Toy {
        fn done(&self) -> bool {
            self.fills.is_empty() && self.ready == 0
        }
        fn compute_edge(
            &mut self,
            now: TimePs,
            cycle: u64,
            clock: &mut DualClock,
            _tel: &mut Telemetry,
        ) -> bool {
            self.stats.issue_slots += 1;
            if self.ready == 0 {
                self.stats.stall_slots += 1;
                self.misses += 1;
                self.miss_delta = 1;
                return false;
            }
            self.ready -= 1;
            self.consumed += 1;
            self.miss_delta = 0;
            self.issued_at.push((cycle, now));
            if let Some(&(_, period)) = self.retunes.iter().find(|r| r.0 == self.consumed) {
                clock.set_compute_period(period);
            }
            true
        }
        fn channel_edge(&mut self, now: TimePs, _cycle: u64, _tel: &mut Telemetry) -> usize {
            let n = self.fills.iter().take_while(|&&t| t <= now).count();
            self.fills.drain(..n);
            self.ready += n as u32;
            n
        }
        fn fingerprint(&self) -> u64 {
            u64::from(self.consumed)
        }
        fn next_event_at(&self) -> Option<TimePs> {
            self.fills.first().copied()
        }
        fn replay(&mut self, skipped: u64) {
            self.misses += self.miss_delta * skipped;
        }
        fn stats_mut(&mut self) -> &mut CoreStats {
            &mut self.stats
        }
        fn sample_epoch(&self, tel: &mut Telemetry, cycle: u64, at: TimePs) {
            tel.counter("toy::core", "misses", cycle, at, self.misses as f64);
            let slots = self.stats.stall_slots as f64;
            tel.counter("toy::core", "stall_slots", cycle, at, slots);
        }
        fn assert_clean(&self) {}
    }

    fn run(fast_forward: bool) -> (Toy, Driven, Telemetry) {
        run_with(fast_forward, TelemetryConfig::enabled_with_epoch(7))
    }

    fn run_with(fast_forward: bool, telemetry: TelemetryConfig) -> (Toy, Driven, Telemetry) {
        let mut toy = Toy::new();
        let mut clock = DualClock::new(10, 35);
        let mut tel = Telemetry::new(&telemetry);
        let q = Quiescence::new("Toy", 1);
        let driven = drive(&mut toy, &mut clock, q, fast_forward, &mut tel);
        (toy, driven, tel)
    }

    #[test]
    fn jumps_match_the_per_edge_walk() {
        let (slow, slow_run, slow_tel) = run(false);
        let (fast, fast_run, fast_tel) = run(true);
        assert_eq!(fast_run.cycles, slow_run.cycles);
        assert_eq!(fast_run.last_time, slow_run.last_time);
        assert_eq!(fast.stats.issue_slots, slow.stats.issue_slots);
        assert_eq!(fast.stats.stall_slots, slow.stats.stall_slots);
        assert_eq!(fast.misses, slow.misses, "replayed deltas");
        assert_eq!(fast.issued_at, slow.issued_at);
        assert_eq!(slow.stats.ff_skipped_cycles, 0);
        assert_eq!(slow_run.profile, JumpProfile::default());
        assert!(fast.stats.ff_skipped_cycles > 0, "never jumped");
        assert!(fast_run.profile.sleeps > 0);
        assert!(fast_run.profile.wakes <= fast_run.profile.sleeps);
        for name in ["misses", "stall_slots"] {
            let key = |s: &millipede_telemetry::Sample| (s.cycle, s.time_ps, s.value.to_bits());
            let slow_s: Vec<_> = slow_tel
                .samples("toy::core", name)
                .iter()
                .map(key)
                .collect();
            let fast_s: Vec<_> = fast_tel
                .samples("toy::core", name)
                .iter()
                .map(key)
                .collect();
            assert!(!slow_s.is_empty());
            assert_eq!(fast_s, slow_s, "{name} samples");
        }
    }

    #[test]
    fn telemetry_does_not_change_the_jumps() {
        // The 7-cycle epoch is far shorter than the longest jump, so
        // jumps stop on boundaries; they still count once each and skip
        // the same edges as with telemetry off.
        let (traced, traced_run, tel) = run(true);
        let (plain, plain_run, _) = run_with(true, TelemetryConfig::default());
        let mean_jump = traced.stats.ff_skipped_cycles / traced_run.profile.sleeps;
        assert!(mean_jump > 7, "no jump crosses an epoch boundary");
        assert!(tel.total_samples() > 0);
        assert_eq!(traced_run.profile, plain_run.profile);
        assert_eq!(traced_run.cycles, plain_run.cycles);
        assert_eq!(traced.stats, plain.stats);
        assert_eq!(traced.misses, plain.misses);
        assert_eq!(traced.issued_at, plain.issued_at);
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

    #[test]
    fn retune_after_a_jump_reschedules_from_the_last_skipped_edge() {
        // Fill 400 arrives after a jump at the 17 ps period; the third
        // issue retunes to 29 ps, so every later compute edge hangs off
        // the first one walked after that jump.
        let (fast, _, _) = run(true);
        let (slow, _, _) = run(false);
        let third = fast.issued_at[2];
        assert_eq!(third, slow.issued_at[2]);
        let (prev_cycle, prev_at) = fast.issued_at[1];
        assert!(third.0 > prev_cycle + 1, "a jump or stall separates them");
        assert_eq!((third.1 - prev_at) % 17, 0, "17 ps grid up to the retune");
        for &(cycle, at) in &fast.issued_at[3..] {
            assert_eq!(at - third.1, (cycle - third.0) * 29, "29 ps after it");
        }
    }
}
