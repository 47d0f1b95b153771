//! Multi-clock-domain bookkeeping.
//!
//! Each simulated PNM node has two clock domains (§V, Table III): the
//! compute clock (nominal 700 MHz — and *variable* under Millipede's
//! rate-matching DFS) and the die-stacked channel clock (1.2 GHz). Time is
//! kept in picoseconds; the main loop repeatedly asks which domain's edge
//! comes next and ticks that component.

pub use millipede_dram::TimePs;

/// Nominal compute clock in MHz of every simulated node (Table III: 700 MHz
/// for Millipede's corelets, the GPGPU's SM, and SSMC's cores alike; §V
/// holds it constant across architectures). Millipede's rate-matching DFS
/// only ever slows the clock below it.
pub const COMPUTE_MHZ: f64 = 700.0;

/// Picosecond period for a frequency in MHz (rounded to the nearest ps).
pub fn period_ps_for_mhz(mhz: f64) -> TimePs {
    assert!(mhz > 0.0);
    // audit:allow(cast-truncation): rounded before the cast; periods are tiny positive integers
    (1.0e6 / mhz).round() as TimePs
}

/// Frequency in MHz for a picosecond period.
pub fn mhz_for_period_ps(period: TimePs) -> f64 {
    assert!(period > 0);
    1.0e6 / period as f64
}

/// Which domain's edge fires, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// A compute-clock edge at this time.
    Compute(TimePs),
    /// A channel-clock edge at this time.
    Channel(TimePs),
}

/// A two-domain clock: compute (variable period) and memory channel (fixed).
#[derive(Debug, Clone)]
pub struct DualClock {
    compute_period: TimePs,
    channel_period: TimePs,
    last_compute: TimePs,
    next_compute: TimePs,
    next_channel: TimePs,
}

impl DualClock {
    /// Creates a clock pair with both domains' first edges at their period.
    pub fn new(compute_period: TimePs, channel_period: TimePs) -> DualClock {
        assert!(compute_period > 0 && channel_period > 0);
        DualClock {
            compute_period,
            channel_period,
            last_compute: 0,
            next_compute: compute_period,
            next_channel: channel_period,
        }
    }

    /// The current compute period in picoseconds.
    pub fn compute_period(&self) -> TimePs {
        self.compute_period
    }

    /// The channel period in picoseconds.
    pub fn channel_period(&self) -> TimePs {
        self.channel_period
    }

    /// Rescales the compute clock (dynamic frequency scaling). The next
    /// compute edge is rescheduled one new period after the last one.
    pub fn set_compute_period(&mut self, period: TimePs) {
        assert!(period > 0);
        self.compute_period = period;
        self.next_compute = self.last_compute + period;
    }

    /// Returns and consumes the next clock edge (compute wins ties, so a
    /// compute edge sees all memory completions with strictly earlier
    /// timestamps).
    pub fn pop(&mut self) -> Edge {
        if self.next_compute <= self.next_channel {
            let t = self.next_compute;
            self.last_compute = t;
            self.next_compute += self.compute_period;
            Edge::Compute(t)
        } else {
            let t = self.next_channel;
            self.next_channel += self.channel_period;
            Edge::Channel(t)
        }
    }

    /// The first channel-grid edge at or after `event`: the edge a
    /// component whose earliest action is at `event` fires on next.
    fn channel_edge_for(&self, event: TimePs) -> TimePs {
        if self.next_channel >= event {
            self.next_channel
        } else {
            let delta = event - self.next_channel;
            self.next_channel + delta.div_ceil(self.channel_period) * self.channel_period
        }
    }

    /// Time of the last compute edge popped or fast-forwarded over.
    pub fn last_compute(&self) -> TimePs {
        self.last_compute
    }

    /// Fast-forwards both domains toward the first channel edge at or
    /// after `event`, skipping at most `max` compute edges, and returns
    /// how many it skipped. With no `event` the controller has nothing
    /// pending, and the call skips exactly `max` compute edges.
    ///
    /// The caller asserts that, until the component driving the channel
    /// domain acts at or after `event`, every intervening edge is an exact
    /// no-op or one whose accounting it replays (see DESIGN.md, "One
    /// driver"). Under that contract the skip is *exact*, not approximate:
    ///
    /// * channel edges strictly before the target are dropped (nothing
    ///   fires on them, and they carry no accounting);
    /// * compute edges at or before the target are dropped — including a
    ///   compute edge tied with the target, because ties resolve
    ///   compute-first and a tied compute edge still observes the
    ///   pre-event state. The caller must replay their per-cycle
    ///   accounting using the returned count;
    /// * `last_compute` advances to the last skipped compute edge so a
    ///   subsequent [`DualClock::set_compute_period`] reschedules exactly
    ///   as if the skipped edges had been popped one by one.
    ///
    /// A call that would skip more than `max` compute edges stops after
    /// the `max`-th and drops only the channel edges strictly before it
    /// (a channel edge tied with it pops next, as in the walk); calling
    /// again with the same `event` goes on from there. The call that
    /// reaches the target leaves the channel edge at the target as the
    /// next [`DualClock::pop`].
    pub fn fast_forward(&mut self, event: Option<TimePs>, max: u64) -> u64 {
        let target = event.map(|e| self.channel_edge_for(e));
        let due = match target {
            Some(t) if self.next_compute > t => 0,
            Some(t) => (t - self.next_compute) / self.compute_period + 1,
            None => u64::MAX,
        };
        let skipped = due.min(max);
        if skipped > 0 {
            self.last_compute = self.next_compute + (skipped - 1) * self.compute_period;
            self.next_compute = self.last_compute + self.compute_period;
        }
        match target {
            Some(t) if skipped == due => self.next_channel = t,
            _ if skipped > 0 => self.next_channel = self.channel_edge_for(self.last_compute),
            _ => {}
        }
        skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_conversions() {
        assert_eq!(period_ps_for_mhz(700.0), 1429);
        assert_eq!(period_ps_for_mhz(1200.0), 833);
        let mhz = mhz_for_period_ps(1429);
        assert!((mhz - 699.8).abs() < 0.2);
    }

    #[test]
    fn edges_interleave_by_time() {
        let mut c = DualClock::new(1000, 400);
        let mut seq = Vec::new();
        for _ in 0..7 {
            seq.push(c.pop());
        }
        assert_eq!(
            seq,
            vec![
                Edge::Channel(400),
                Edge::Channel(800),
                Edge::Compute(1000),
                Edge::Channel(1200),
                Edge::Channel(1600),
                Edge::Compute(2000),
                Edge::Channel(2000),
            ]
        );
    }

    #[test]
    fn compute_wins_ties() {
        let mut c = DualClock::new(500, 500);
        assert_eq!(c.pop(), Edge::Compute(500));
        assert_eq!(c.pop(), Edge::Channel(500));
    }

    #[test]
    fn dfs_changes_future_edges() {
        let mut c = DualClock::new(1000, 10_000);
        assert_eq!(c.pop(), Edge::Compute(1000));
        c.set_compute_period(2000);
        assert_eq!(c.pop(), Edge::Compute(3000));
        assert_eq!(c.pop(), Edge::Compute(5000));
    }

    /// Pops edges one at a time up to (and including) the first channel
    /// edge at or after `event`, counting compute edges at or before that
    /// channel edge — the reference behaviour `fast_forward` must match.
    fn slow_forward(c: &mut DualClock, event: TimePs) -> (u64, TimePs) {
        let mut skipped = 0;
        loop {
            match c.pop() {
                Edge::Compute(_) => skipped += 1,
                Edge::Channel(t) if t >= event => return (skipped, t),
                Edge::Channel(_) => {}
            }
        }
    }

    #[test]
    fn fast_forward_matches_cycle_by_cycle() {
        for event in [1, 399, 400, 401, 999, 1000, 1001, 3999, 4000, 12_345] {
            let mut fast = DualClock::new(1000, 400);
            let mut slow = fast.clone();
            let skipped = fast.fast_forward(Some(event), u64::MAX);
            let (slow_skipped, channel_t) = slow_forward(&mut slow, event);
            assert_eq!(skipped, slow_skipped, "event={event}");
            // The next pop on the fast clock is the channel edge slow
            // stopped at (or the tied compute edge slow already counted
            // cannot exist: fast_forward consumed it too).
            assert_eq!(fast.pop(), Edge::Channel(channel_t), "event={event}");
            // Both clocks now agree on all future edges.
            for _ in 0..8 {
                assert_eq!(fast.pop(), slow.pop(), "event={event}");
            }
        }
    }

    #[test]
    fn capped_pieces_add_up_to_one_uncapped_jump() {
        for event in [1, 401, 999, 2000, 3650, 12_345] {
            for max in [1, 2, 3, 5] {
                let mut whole = DualClock::new(1000, 400);
                let mut pieces = whole.clone();
                let mut slow = whole.clone();
                let skipped = whole.fast_forward(Some(event), u64::MAX);
                let mut total = 0;
                loop {
                    let n = pieces.fast_forward(Some(event), max);
                    total += n;
                    // Every piece stops on a skipped compute edge.
                    assert_eq!(
                        pieces.last_compute(),
                        total * 1000,
                        "event={event} max={max}"
                    );
                    if n < max {
                        break;
                    }
                }
                let (slow_skipped, channel_t) = slow_forward(&mut slow, event);
                assert_eq!(total, skipped, "event={event} max={max}");
                assert_eq!(total, slow_skipped, "event={event} max={max}");
                assert_eq!(pieces.last_compute(), whole.last_compute());
                assert_eq!(pieces.last_compute(), slow.last_compute());
                assert_eq!(pieces.pop(), Edge::Channel(channel_t));
                assert_eq!(whole.pop(), Edge::Channel(channel_t));
                for _ in 0..8 {
                    let next = slow.pop();
                    assert_eq!(pieces.pop(), next, "event={event} max={max}");
                    assert_eq!(whole.pop(), next, "event={event} max={max}");
                }
            }
        }
    }

    /// Pops edges one at a time until `n` compute edges have popped —
    /// the walk a capped or event-less `fast_forward` must leave the clock
    /// in step with.
    fn slow_skip(c: &mut DualClock, n: u64) {
        let mut popped = 0;
        while popped < n {
            if let Edge::Compute(_) = c.pop() {
                popped += 1;
            }
        }
    }

    #[test]
    fn fast_forward_without_an_event_skips_exactly_max() {
        // Compute edges at 1000, 2000, …; channel edges at 400, 800, ….
        // Skipping 5 lands on 5000, where a channel edge ties: the walk
        // pops it after the compute edge, so it must come next.
        for (compute, channel) in [(1000, 400), (400, 1000), (700, 700)] {
            for max in [1, 2, 5, 13] {
                let mut fast = DualClock::new(compute, channel);
                let mut slow = fast.clone();
                assert_eq!(fast.fast_forward(None, max), max);
                slow_skip(&mut slow, max);
                assert_eq!(fast.last_compute(), max * compute);
                assert_eq!(fast.last_compute(), slow.last_compute());
                for _ in 0..8 {
                    assert_eq!(fast.pop(), slow.pop(), "{compute}/{channel} max={max}");
                }
            }
        }
    }

    #[test]
    fn a_capped_piece_drops_the_channel_edges_it_passes() {
        // The target is channel edge 12_400; a piece capped at 3 compute
        // edges ends at 3000 and drops channel edges 400..=2800, and the
        // one at 3200 pops before compute edge 4000.
        let mut fast = DualClock::new(1000, 400);
        let mut slow = fast.clone();
        assert_eq!(fast.fast_forward(Some(12_345), 3), 3);
        slow_skip(&mut slow, 3);
        assert_eq!(fast.pop(), Edge::Channel(3200));
        assert_eq!(slow.pop(), Edge::Channel(3200));
        for _ in 0..8 {
            assert_eq!(fast.pop(), slow.pop());
        }
        // A tie at the cap: compute 2000 and channel 2000 both lie before
        // the target; the tied channel edge survives the piece.
        let mut tied = DualClock::new(1000, 400);
        assert_eq!(tied.fast_forward(Some(12_345), 2), 2);
        assert_eq!(tied.pop(), Edge::Channel(2000));
        assert_eq!(tied.pop(), Edge::Channel(2400));
    }

    #[test]
    fn fast_forward_to_past_event_is_next_channel_edge() {
        let mut c = DualClock::new(1000, 400);
        c.pop(); // Channel(400)
        c.pop(); // Channel(800)
                 // A completion already in the past still lands on the next channel
                 // edge (1200); the compute edge at 1000 is skipped.
        assert_eq!(c.fast_forward(Some(500), u64::MAX), 1);
        assert_eq!(c.pop(), Edge::Channel(1200));
    }

    #[test]
    fn fast_forward_skips_tied_compute_edge() {
        // Compute and channel tie at 2000; the tied compute edge observes
        // pre-event state, so it is skipped along with earlier ones.
        let mut c = DualClock::new(1000, 400);
        assert_eq!(c.fast_forward(Some(2000), u64::MAX), 2);
        assert_eq!(c.pop(), Edge::Channel(2000));
        assert_eq!(c.pop(), Edge::Channel(2400));
    }

    #[test]
    fn fast_forward_zero_skip_keeps_compute_schedule() {
        let mut c = DualClock::new(10_000, 400);
        assert_eq!(c.fast_forward(Some(800), u64::MAX), 0);
        assert_eq!(c.pop(), Edge::Channel(800));
        assert_eq!(c.pop(), Edge::Channel(1200));
    }

    #[test]
    fn dfs_after_fast_forward_reschedules_from_last_skipped_edge() {
        let mut fast = DualClock::new(1000, 400);
        let mut slow = fast.clone();
        // Event 3650 lands on channel edge 4000; compute edges 1000..=4000
        // (the tied one included) are skipped.
        assert_eq!(fast.fast_forward(Some(3650), u64::MAX), 4);
        assert_eq!(fast.pop(), Edge::Channel(4000));
        slow_forward(&mut slow, 3650);
        fast.set_compute_period(700);
        slow.set_compute_period(700);
        for _ in 0..8 {
            assert_eq!(fast.pop(), slow.pop());
        }
    }
}
