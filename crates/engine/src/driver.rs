//! The one event-driven run loop every timing model runs on.
//!
//! A PNM node has two clock domains (§IV-F, Table III): the compute clock,
//! which rate-matching DFS rescales, and the fixed channel clock. [`drive`]
//! pops their edges off a [`DualClock`] in time order and hands each one
//! to the model ([`NodeModel`]). Everything around the two edge handlers
//! is the driver's: the cycle count and last-edge time, the quiescence
//! fingerprint taken around each compute edge, the deadlock guard, the
//! bulk jump over proven-no-op edges, and the telemetry epoch walk.
//!
//! **The jump.** A compute edge that issues nothing and leaves the model's
//! fingerprint unchanged changed nothing at all, so every later compute
//! edge repeats it verbatim until the memory controller acts. The driver
//! then fast-forwards both domains to the first channel edge at or after
//! the controller's next event ([`DualClock::fast_forward`]) and replays
//! the skipped edges' accounting by count: the shared slot counters via
//! `Quiescence::replay`, the model's own per-retry recounts via
//! [`NodeModel::replay`]. With fast-forward off every edge is walked; the
//! two schedules are bit-identical (DESIGN.md, "One driver").

use crate::clock::{DualClock, Edge, TimePs};
use crate::instrument::{Instrumented, Quiescence};
use crate::stats::CoreStats;
use millipede_telemetry::Telemetry;

/// A timing model the driver can run: two edge handlers plus the hooks
/// the jump needs. The model's run-loop state lives in the implementor.
pub trait NodeModel: Instrumented {
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
}

/// Fast-forward jump counters of one run.
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

/// Runs `model` to completion on `clock`.
///
/// `quiesce` carries the model's deadlock bound and issue slots per
/// compute edge; `fast_forward` enables the bulk jump (off, every edge is
/// walked — the oracle the differential suites compare against).
///
/// # Panics
///
/// Panics if the model issues nothing for longer than its deadlock bound,
/// or on whatever the model's handlers panic on.
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
                let anchor = cycle;
                if fast_forward
                    && !issued
                    && model.may_jump(cycle)
                    && model.fingerprint() == fp_before
                {
                    if let Some(event) = model.next_event_at() {
                        let skipped = clock.fast_forward(event);
                        if skipped > 0 {
                            quiesce.replay(&mut cycle, model.stats_mut(), skipped);
                            model.replay(skipped);
                            profile.sleeps += 1;
                            landing = true;
                        }
                    }
                }
                // Epoch boundaries inside a jump are reconstructed exactly:
                // the skipped edges were no-ops at a constant period, so
                // a boundary's time is `now + offset·period` and only the
                // replayed per-cycle counters differ (rewound linearly).
                if tel.enabled() {
                    model.emit_epoch_samples(tel, cycle, anchor, now, clock.compute_period());
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

    impl Instrumented for Toy {
        fn fingerprint(&self) -> u64 {
            u64::from(self.consumed)
        }
        fn sample_epoch(&self, tel: &mut Telemetry, due: u64, at: TimePs, rewind: u64) {
            let misses = self.misses - self.miss_delta * rewind;
            tel.counter("toy::core", "misses", due, at, misses as f64);
            let slots = self.stats.stall_slots - rewind;
            tel.counter("toy::core", "stall_slots", due, at, slots as f64);
        }
        fn assert_clean(&self) {}
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
        fn next_event_at(&self) -> Option<TimePs> {
            self.fills.first().copied()
        }
        fn replay(&mut self, skipped: u64) {
            self.misses += self.miss_delta * skipped;
        }
        fn stats_mut(&mut self) -> &mut CoreStats {
            &mut self.stats
        }
    }

    fn run(fast_forward: bool) -> (Toy, Driven, Telemetry) {
        let mut toy = Toy::new();
        let mut clock = DualClock::new(10, 35);
        let mut tel = Telemetry::new(&TelemetryConfig::enabled_with_epoch(7));
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
