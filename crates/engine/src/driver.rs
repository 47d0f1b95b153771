//! The one event-driven run loop every timing model runs on.
//!
//! A PNM node has two clock domains (§IV-F, Table III): the compute clock,
//! which rate-matching DFS rescales, and the fixed channel clock of the
//! node's one FR-FCFS channel. [`drive`] pops their edges off a
//! [`DualClock`] in time order. The channel edge is the driver's: it ticks
//! the [`MemoryController`] it is lent, pops the completed fills, records
//! their `row_conflict` events and hands the fills to the model
//! ([`NodeModel::channel_edge`]). The compute edge is the model's; the
//! driver keeps its issue-slot ledger. Everything else is the driver's
//! too: the cycle count and last-edge time, the quiescence fingerprint
//! taken around each compute edge, the deadlock guard, the bulk jump over
//! proven-no-op edges, telemetry epoch sampling (the slot ledger and the
//! replayed stalls on the `node` track, then the model's samples, then the
//! controller's), and the end-of-run invariant checks.
//!
//! **The jump.** A compute edge that issues nothing and leaves the model's
//! fingerprint unchanged changed nothing at all, so every later compute
//! edge repeats it verbatim until the memory controller acts. The driver
//! then fast-forwards both domains to the first channel edge at or after
//! the controller's next event ([`DualClock::fast_forward`]) and replays
//! the skipped edges' accounting by count ([`Quiescence`]): the slot
//! ledger, and the per-retry recounts the quiescent edge made in
//! [`CoreStats`]. A jump stops on every telemetry epoch boundary it
//! crosses, replays up to it and samples there, so each sample reads the
//! state the walked edge would have left.
//!
//! **The credit jump.** A compute edge whose issuing slots all paid banked
//! run-ahead credits, and that left the fingerprint unchanged, changed
//! nothing but those credits and the round-robin cursors. The following
//! edges repeat it until some slot's next pick runs out of credits
//! ([`NodeModel::credit_horizon`]) or the controller acts. The driver
//! jumps them in the same piece loop, and the model pays them by count
//! ([`NodeModel::pay_credits`]). With fast-forward off every edge is
//! walked; the schedules are bit-identical (DESIGN.md, "One driver" and
//! "Credit jump").

use crate::clock::{DualClock, Edge, TimePs};
use crate::stats::CoreStats;
use millipede_dram::{Completion, MemoryController};
use millipede_telemetry::Telemetry;

/// A timing model the driver can run: its two halves of the clock edges
/// plus the hooks the jump, telemetry and the end-of-run check need. The
/// model's run-loop state lives in the implementor; the memory channel is
/// the driver's.
pub trait NodeModel {
    /// Whether every thread has finished (the loop's exit test).
    fn done(&self) -> bool;

    /// Ticks the `cycle`-th compute edge, at `now`. `clock` is lent for
    /// DFS retunes ([`DualClock::set_compute_period`]) and `mc` for the
    /// requests the edge enqueues. Returns how many of the edge's issue
    /// slots issued; the driver charges the slot ledger from it.
    fn compute_edge(
        &mut self,
        now: TimePs,
        cycle: u64,
        clock: &mut DualClock,
        mc: &mut MemoryController,
        tel: &mut Telemetry,
    ) -> u64;

    /// The model's half of the channel edge at `now`: applies `fills`, the
    /// completions the driver just popped, in completion order.
    /// `queue_freed` says whether the edge's controller tick freed a
    /// request-queue slot.
    fn channel_edge(&mut self, now: TimePs, fills: &[Completion], queue_freed: bool);

    /// Quiescence fingerprint: a sum of monotone counters that is
    /// unchanged across a compute edge iff that edge observably changed
    /// nothing (see DESIGN.md, "One driver"). The per-retry recounts in
    /// [`CoreStats`] (`demand_stalls`, `l1_hits`, `l1_misses`) may be left
    /// out: the driver replays them by count.
    fn fingerprint(&self) -> u64;

    /// An extra gate on the jump, for state that wakes on a compute-cycle
    /// timer rather than on memory (a GPGPU warp or LSU busy timer).
    fn may_jump(&self, _cycle: u64) -> bool {
        true
    }

    /// Issue slots paid from run-ahead credits so far (a monotone count;
    /// the driver reports it as [`JumpProfile::credit_issues`]). An edge
    /// whose issues all paid credits committed nothing. The default, 0,
    /// says that no edge does.
    fn credit_issues(&self) -> u64 {
        0
    }

    /// How many compute edges from now are credit-only: each repeats the
    /// walked edge just taken, except that its issuing slots pay banked
    /// run-ahead credits (see DESIGN.md, "Credit jump"). The driver asks
    /// only after an edge that issued, paid a credit on every issue (so
    /// committed nothing) and left the fingerprint unchanged. 0, the
    /// default, means no credit jump.
    fn credit_horizon(&mut self) -> u64 {
        0
    }

    /// Pays `edges` credit-only edges by count, at most the last
    /// [`NodeModel::credit_horizon`]: the credits, the round-robin
    /// cursors, the instruction and issue counts, and the per-visit
    /// recounts those edges would have made. The driver charges the slot
    /// ledger from the `issues` it adds.
    fn pay_credits(&mut self, _edges: u64) {}

    /// Walked compute edges on which a core skipped its issue scan because
    /// it was asleep through a run of its own credit-only edges (a
    /// monotone count; the driver reports it as [`JumpProfile::slept`]).
    /// The default, 0, says that no core sleeps.
    fn slept_core_edges(&self) -> u64 {
        0
    }

    /// The statistics the driver's slot ledger and replay write into.
    fn stats_mut(&mut self) -> &mut CoreStats;

    /// Records the telemetry epoch sample of compute cycle `cycle`, whose
    /// edge fell at `at`. The driver calls it with the state that edge
    /// left, walked or jumped, after it has sampled the `issue_slots`,
    /// `stall_slots` and `demand_stalls` it accounts on the `node` track;
    /// the model records only the series the driver cannot see.
    fn sample_epoch(&self, tel: &mut Telemetry, cycle: u64, at: TimePs);

    /// End-of-run invariant hooks (buffer audits, clock monotonicity);
    /// panics on any violation. The driver audits the controller itself.
    fn assert_clean(&self) {}
}

/// Deadlock guard: a run panics once no issue slot has issued for this
/// many consecutive compute cycles.
pub const MAX_IDLE_CYCLES: u64 = 2_000_000;

/// The per-retry recounts a stalled compute edge re-records every cycle:
/// a context or warp that retries its stall counts it again. They are
/// replayed by count over a jump, as the delta the quiescent edge made.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Recounts {
    demand_stalls: u64,
    l1_hits: u64,
    l1_misses: u64,
}

impl Recounts {
    fn of(stats: &CoreStats) -> Recounts {
        Recounts {
            demand_stalls: stats.demand_stalls,
            l1_hits: stats.l1_hits,
            l1_misses: stats.l1_misses,
        }
    }

    /// The recounts made since `before` was read.
    fn since(self, before: Recounts) -> Recounts {
        Recounts {
            demand_stalls: self.demand_stalls - before.demand_stalls,
            l1_hits: self.l1_hits - before.l1_hits,
            l1_misses: self.l1_misses - before.l1_misses,
        }
    }
}

/// The driver's issue-slot ledger and quiescence bookkeeping: the
/// idle-streak deadlock guard, the per-edge slot charge, and the
/// replay-by-count accounting of proven-no-op compute edges.
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
            "{} deadlock: no issue slot has issued for {} consecutive compute cycles (MAX_IDLE_CYCLES)",
            self.label,
            self.idle_streak
        );
    }

    /// Charges `edges` compute edges on which `issued` slots issued in
    /// all: every slot is an issue opportunity, and every one that did
    /// not issue is a stall.
    fn charge(&self, stats: &mut CoreStats, edges: u64, issued: u64) {
        let slots = edges * self.slots_per_cycle;
        debug_assert!(
            issued <= slots,
            "{} issued {issued} of {slots} slots",
            self.label
        );
        stats.issue_slots += slots;
        stats.stall_slots += slots - issued;
    }

    /// Charges one walked compute edge that issued `issued` slots and
    /// enforces the deadlock bound.
    fn walked(&mut self, stats: &mut CoreStats, issued: u64) {
        self.charge(stats, 1, issued);
        self.idle_streak = if issued > 0 { 0 } else { self.idle_streak + 1 };
        self.guard();
    }

    /// Charges `skipped` jumped edges on which `issued` slots issued in
    /// all, each of which re-records `recounts`: the cycle count, the slot
    /// ledger, the recounts and the idle streak. An idle jump repeats the
    /// quiescent edge (`issued` is 0); a credit jump's payment makes its
    /// own recounts (`recounts` is zero).
    fn jumped(
        &mut self,
        cycle: &mut u64,
        stats: &mut CoreStats,
        skipped: u64,
        issued: u64,
        recounts: Recounts,
    ) {
        *cycle += skipped;
        stats.ff_skipped_cycles += skipped;
        self.charge(stats, skipped, issued);
        stats.demand_stalls += recounts.demand_stalls * skipped;
        stats.l1_hits += recounts.l1_hits * skipped;
        stats.l1_misses += recounts.l1_misses * skipped;
        self.idle_streak = if issued > 0 {
            0
        } else {
            self.idle_streak + skipped
        };
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
    /// Credit jumps taken: jumps over credit-only edges, where the issuing
    /// slots only paid run-ahead credits (each skipped at least one
    /// compute edge; not counted in `sleeps`).
    pub credit_jumps: u64,
    /// Issue slots paid from run-ahead credits instead of a commit
    /// ([`NodeModel::credit_issues`]; `issues − credit_issues` slots went
    /// through the full per-instruction dispatch).
    pub credit_issues: u64,
    /// Issue scans run: one per issue slot of each walked compute edge,
    /// less the core-edges slept.
    pub scans: u64,
    /// Core-edges slept: walked compute edges on which a core skipped its
    /// issue scan ([`NodeModel::slept_core_edges`]).
    pub slept: u64,
}

impl JumpProfile {
    /// The counters by their manifest names, in declaration order: the
    /// one place `sleeps` and `wakes` are named `jumps` and `fill_wakes`.
    /// The pattern names every field, so a new one does not compile until
    /// it is listed here.
    pub fn counters(&self) -> [(&'static str, u64); 6] {
        let JumpProfile {
            sleeps,
            wakes,
            credit_jumps,
            credit_issues,
            scans,
            slept,
        } = *self;
        [
            ("jumps", sleeps),
            ("fill_wakes", wakes),
            ("credit_jumps", credit_jumps),
            ("credit_issues", credit_issues),
            ("scans", scans),
            ("slept", slept),
        ]
    }
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

/// Samples the epoch if `cycle` is the next telemetry epoch boundary. The
/// driver never passes a boundary unsampled, so at most one is due.
/// Inlined: the check runs on every compute edge.
#[inline(always)]
fn sample_if_due<M: NodeModel>(
    model: &mut M,
    mc: &MemoryController,
    tel: &mut Telemetry,
    cycle: u64,
    at: TimePs,
) {
    if let Some(due) = tel.next_due(cycle) {
        debug_assert_eq!(due, cycle, "a telemetry epoch boundary was skipped");
        record_epoch(model, mc, tel, cycle, at);
    }
}

/// Records the epoch sample of compute cycle `cycle`: the slots the
/// driver charges and the stalls it replays on the `node` track, then
/// `model`'s own series, then the controller's. Cold: at most once per
/// epoch, and never with telemetry off.
#[cold]
fn record_epoch<M: NodeModel>(
    model: &mut M,
    mc: &MemoryController,
    tel: &mut Telemetry,
    cycle: u64,
    at: TimePs,
) {
    let s = model.stats_mut();
    for (name, v) in [
        ("issue_slots", s.issue_slots),
        ("stall_slots", s.stall_slots),
        ("demand_stalls", s.demand_stalls),
    ] {
        tel.counter("node", name, cycle, at, v as f64);
    }
    model.sample_epoch(tel, cycle, at);
    let d = mc.stats();
    let track = "dram::controller";
    tel.counter(track, "row_hits", cycle, at, d.row_hits as f64);
    tel.counter(track, "row_misses", cycle, at, d.row_misses as f64);
    tel.counter(track, "queue_depth", cycle, at, mc.queue_len() as f64);
}

/// Records one `row_conflict` event for each fill that had to open its
/// row. Channel edges have no compute cycle of their own, so the events
/// carry the last completed one, `cycle`.
fn row_conflicts(
    tel: &mut Telemetry,
    cycle: u64,
    at: TimePs,
    row_bytes: u64,
    fills: &[Completion],
) {
    if !tel.enabled() {
        return;
    }
    for fill in fills.iter().filter(|f| !f.row_hit) {
        let row = fill.addr / row_bytes;
        tel.event("dram::controller", "row_conflict", cycle, at, row as f64);
    }
}

/// Runs `model` to completion on `clock` and the lent channel `mc`, then
/// runs the end-of-run invariant checks: the model's
/// ([`NodeModel::assert_clean`]) and the controller's timing audit.
///
/// `quiesce` carries the model's deadlock bound and issue slots per
/// compute edge; `fast_forward` enables the idle and credit jumps (off,
/// every edge is walked — the oracle the differential suites compare
/// against).
///
/// # Panics
///
/// Panics if the model issues nothing for longer than its deadlock bound,
/// if an invariant check fails, or on whatever the model's handlers panic
/// on.
pub fn drive<M: NodeModel>(
    model: &mut M,
    clock: &mut DualClock,
    mc: &mut MemoryController,
    mut quiesce: Quiescence,
    fast_forward: bool,
    tel: &mut Telemetry,
) -> Driven {
    let row_bytes = mc.geometry().row_bytes;
    let mut cycle = 0u64;
    let mut last_time: TimePs = 0;
    let mut profile = JumpProfile::default();
    let mut walked = 0u64;
    // Whether the next edge is a jump's landing channel edge.
    let mut landing = false;
    while !model.done() {
        match clock.pop() {
            Edge::Compute(now) => {
                last_time = now;
                cycle += 1;
                walked += 1;
                let fp_before = model.fingerprint();
                let credits_before = model.credit_issues();
                let before = Recounts::of(model.stats_mut());
                let issued = model.compute_edge(now, cycle, clock, mc, tel);
                quiesce.walked(model.stats_mut(), issued);
                sample_if_due(model, mc, tel, cycle, now);
                // Only an idle edge or one that committed nothing repeats;
                // the cheap test goes first.
                let committed = issued > model.credit_issues() - credits_before;
                if !fast_forward
                    || committed
                    || !model.may_jump(cycle)
                    || model.fingerprint() != fp_before
                {
                    continue;
                }
                // An idle edge repeats until the controller acts; a
                // credit-only edge also until a slot runs out of credits.
                let horizon = if issued == 0 {
                    u64::MAX
                } else {
                    model.credit_horizon()
                };
                if horizon == 0 {
                    continue;
                }
                let event = mc.next_event_at();
                if horizon == u64::MAX && event.is_none() {
                    continue;
                }
                let recounts = if issued == 0 {
                    Recounts::of(model.stats_mut()).since(before)
                } else {
                    Recounts::default()
                };
                // One jump, cut into pieces that each end on an epoch
                // boundary or at the jump's end.
                let start = cycle;
                let mut left = horizon;
                while left > 0 {
                    let max = tel.next_boundary().map_or(left, |b| left.min(b - cycle));
                    let skipped = clock.fast_forward(event, max);
                    if skipped == 0 {
                        break;
                    }
                    let issues = model.stats_mut().issues;
                    if issued > 0 {
                        model.pay_credits(skipped);
                    }
                    let paid = model.stats_mut().issues - issues;
                    quiesce.jumped(&mut cycle, model.stats_mut(), skipped, paid, recounts);
                    sample_if_due(model, mc, tel, cycle, clock.last_compute());
                    if skipped < max {
                        break;
                    }
                    left -= skipped;
                }
                if cycle > start {
                    if issued == 0 {
                        profile.sleeps += 1;
                        landing = true;
                    } else {
                        profile.credit_jumps += 1;
                    }
                }
            }
            Edge::Channel(now) => {
                last_time = now;
                let free_before = mc.free_slots();
                mc.tick(now);
                let fills = mc.pop_completed(now);
                row_conflicts(tel, cycle, now, row_bytes, &fills);
                model.channel_edge(now, &fills, mc.free_slots() > free_before);
                if std::mem::take(&mut landing) && !fills.is_empty() {
                    profile.wakes += 1;
                }
            }
        }
    }
    model.assert_clean();
    mc.timing_audit().assert_clean(&format!(
        "the {} node's FR-FCFS memory controller",
        quiesce.label
    ));
    profile.credit_issues = model.credit_issues();
    profile.slept = model.slept_core_edges();
    profile.scans = walked * quiesce.slots_per_cycle - profile.slept;
    Driven {
        cycles: cycle,
        last_time,
        profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use millipede_dram::{DramGeometry, DramTiming, ReqId, Request};
    use millipede_telemetry::{Sample, TelemetryConfig};

    /// Issue slots per toy compute edge.
    const SLOTS: u64 = 3;

    /// Run-ahead credits a token banks on slots 1 and 2.
    const CREDITS: [u64; SLOTS as usize] = [0, 5, 11];

    /// A three-slot toy node on a real controller. Slot 0 sends the next
    /// request while fewer than two are in flight; each fill brings two
    /// tokens, and slots 1 and 2 issue by spending one each, which banks
    /// [`CREDITS`] run-ahead credits that they pay on later edges before
    /// spending another token. So an edge can issue on some slots and
    /// stall on others, and runs of credit-only edges follow each spend.
    /// An issuing slot counts an L1 hit; a stalled one recounts a demand
    /// stall and one L1 miss per request in flight, so each quiescent
    /// edge's recounts depend on when it falls. The first commit (a send
    /// or a spend) after the first fill retunes the compute clock to
    /// 17 ps, the first after the third fill to 29 ps.
    struct Toy {
        to_send: Vec<u64>,
        sent: usize,
        /// Ids of the completions handed over, in arrival order.
        received: Vec<ReqId>,
        tokens: u32,
        consumed: u64,
        credits: [u64; SLOTS as usize],
        retunes: Vec<(usize, TimePs)>,
        retuned_at: Vec<(u64, TimePs)>,
        /// Edges that committed: a send or a spend.
        committed_at: Vec<(u64, TimePs)>,
        /// Cycles of compute edges that followed a jump.
        landed_at: Vec<u64>,
        last_cycle: u64,
        /// The toy's own slot count: visited and stalled.
        visited: u64,
        stalled: u64,
        /// Edges that issued on some slots and stalled on others.
        mixed: u64,
        /// The edge counts `pay_credits` was handed, in order.
        payments: Vec<u64>,
        /// Slots that paid a credit.
        credit_issues: u64,
        stats: CoreStats,
    }

    impl Toy {
        fn new() -> Toy {
            Toy {
                to_send: vec![0, 64, 4 * 2048, 128, 2048, 8 * 2048 + 64, 192],
                sent: 0,
                received: Vec::new(),
                tokens: 0,
                consumed: 0,
                credits: [0; SLOTS as usize],
                retunes: vec![(1, 17), (3, 29)],
                retuned_at: Vec::new(),
                committed_at: Vec::new(),
                landed_at: Vec::new(),
                last_cycle: 0,
                visited: 0,
                stalled: 0,
                mixed: 0,
                payments: Vec::new(),
                credit_issues: 0,
                stats: CoreStats::default(),
            }
        }

        fn in_flight(&self) -> u64 {
            (self.sent - self.received.len()) as u64
        }

        /// Whether slot 0 would try to send on the next edge.
        fn may_send(&self) -> bool {
            self.sent < self.to_send.len() && self.in_flight() < 2
        }

        fn stall(&mut self, in_flight: u64) {
            self.stalled += 1;
            self.stats.demand_stalls += 1;
            self.stats.l1_misses += in_flight;
        }

        /// Counts one edge's slots once it has `issued` of them.
        fn close_edge(&mut self, issued: u64) {
            self.visited += SLOTS;
            self.stats.issues += issued;
            self.stats.l1_hits += issued;
            self.mixed += u64::from(0 < issued && issued < SLOTS);
        }
    }

    impl NodeModel for Toy {
        fn done(&self) -> bool {
            self.sent == self.to_send.len() && self.received.len() == self.sent && self.tokens == 0
        }
        fn compute_edge(
            &mut self,
            now: TimePs,
            cycle: u64,
            clock: &mut DualClock,
            mc: &mut MemoryController,
            _tel: &mut Telemetry,
        ) -> u64 {
            if cycle > self.last_cycle + 1 {
                self.landed_at.push(cycle);
            }
            self.last_cycle = cycle;
            let in_flight = self.in_flight();
            let mut issued = 0;
            let mut committed = false;
            let next = self.to_send.get(self.sent).copied();
            let sent = next.filter(|_| in_flight < 2).is_some_and(|addr| {
                let req = Request {
                    addr,
                    bytes: 64,
                    tag: self.sent as u64,
                };
                mc.try_push(req, now).is_ok()
            });
            if sent {
                self.sent += 1;
                issued += 1;
                committed = true;
            } else {
                self.stall(in_flight);
            }
            for (slot, &banked) in CREDITS.iter().enumerate().skip(1) {
                if self.credits[slot] > 0 {
                    self.credits[slot] -= 1;
                    self.credit_issues += 1;
                    issued += 1;
                } else if self.tokens > 0 {
                    self.tokens -= 1;
                    self.consumed += 1;
                    self.credits[slot] = banked;
                    issued += 1;
                    committed = true;
                } else {
                    self.stall(in_flight);
                }
            }
            self.close_edge(issued);
            if committed {
                self.committed_at.push((cycle, now));
                let fills = self.received.len();
                if let Some(i) = self.retunes.iter().position(|r| r.0 <= fills) {
                    clock.set_compute_period(self.retunes.remove(i).1);
                    self.retuned_at.push((cycle, now));
                }
            }
            issued
        }
        fn channel_edge(&mut self, _now: TimePs, fills: &[Completion], _queue_freed: bool) {
            for fill in fills {
                self.received.push(fill.id);
                self.tokens += 2;
            }
        }
        fn fingerprint(&self) -> u64 {
            self.sent as u64 + self.consumed
        }
        fn credit_issues(&self) -> u64 {
            self.credit_issues
        }
        fn credit_horizon(&mut self) -> u64 {
            if self.may_send() {
                return 0;
            }
            let slots = self.credits[1..].iter();
            let spend = self.tokens > 0;
            slots.fold(u64::MAX, |h, &c| match c {
                0 if spend => 0,
                0 => h,
                c => h.min(c),
            })
        }
        fn pay_credits(&mut self, edges: u64) {
            self.payments.push(edges);
            let in_flight = self.in_flight();
            let mut issued = 0;
            for _ in 0..edges {
                self.stall(in_flight); // slot 0 cannot send
            }
            for slot in 1..SLOTS as usize {
                if self.credits[slot] > 0 {
                    self.credits[slot] -= edges;
                    self.credit_issues += edges;
                    issued += 1;
                } else {
                    for _ in 0..edges {
                        self.stall(in_flight);
                    }
                }
            }
            for _ in 0..edges {
                self.close_edge(issued);
            }
        }
        fn stats_mut(&mut self) -> &mut CoreStats {
            &mut self.stats
        }
        fn sample_epoch(&self, tel: &mut Telemetry, cycle: u64, at: TimePs) {
            let misses = self.stats.l1_misses as f64;
            tel.counter("toy::core", "misses", cycle, at, misses);
            let credits = self.credits.iter().sum::<u64>() as f64;
            tel.counter("toy::core", "credits", cycle, at, credits);
        }
    }

    fn run(fast_forward: bool) -> (Toy, Driven, Telemetry, MemoryController) {
        run_with(fast_forward, TelemetryConfig::enabled_with_epoch(7))
    }

    fn run_with(
        fast_forward: bool,
        telemetry: TelemetryConfig,
    ) -> (Toy, Driven, Telemetry, MemoryController) {
        let mut toy = Toy::new();
        let mut mc = MemoryController::new(DramGeometry::default(), DramTiming::default());
        let mut clock = DualClock::new(50, mc.timing().channel_period_ps);
        let mut tel = Telemetry::new(&telemetry);
        let q = Quiescence::new("Toy", SLOTS);
        let driven = drive(&mut toy, &mut clock, &mut mc, q, fast_forward, &mut tel);
        (toy, driven, tel, mc)
    }

    #[test]
    fn jumps_match_the_per_edge_walk() {
        let (slow, slow_run, slow_tel, _) = run(false);
        let (fast, fast_run, fast_tel, _) = run(true);
        // The walk's ledger is the toy's own slot count: every slot
        // charged once, and only the slots that did not issue stalled.
        assert_eq!(slow.stats.issue_slots, slow.visited);
        assert_eq!(slow.stats.stall_slots, slow.stalled);
        assert!(slow.mixed > 0, "no edge both issued and stalled");
        assert_eq!(fast_run.cycles, slow_run.cycles);
        assert_eq!(fast_run.last_time, slow_run.last_time);
        let mut fs = fast.stats.clone();
        fs.ff_skipped_cycles = 0;
        assert_eq!(fs, slow.stats, "ledger and replayed recounts");
        assert_eq!(fast.committed_at, slow.committed_at);
        assert_eq!(fast.received, slow.received);
        assert_eq!(slow.stats.ff_skipped_cycles, 0);
        assert_eq!(
            (slow_run.profile.sleeps, slow_run.profile.credit_jumps),
            (0, 0)
        );
        assert_eq!(
            fast_run.profile.credit_issues,
            slow_run.profile.credit_issues
        );
        assert!(slow_run.profile.credit_issues > 0);
        assert!(fast.stats.ff_skipped_cycles > 0, "never jumped");
        assert!(fast_run.profile.sleeps > 0);
        assert!(fast_run.profile.wakes <= fast_run.profile.sleeps);
        assert!(fast_run.profile.credit_jumps > 0, "no credit jump");
        assert!(slow.payments.is_empty(), "the walk paid credits by count");
        assert_eq!(fast.credits, slow.credits);
        let key = |s: &Sample| (s.cycle, s.time_ps, s.value.to_bits());
        for (track, name) in [
            ("toy::core", "misses"),
            ("toy::core", "credits"),
            ("node", "issue_slots"),
            ("node", "stall_slots"),
            ("node", "demand_stalls"),
            ("dram::controller", "row_hits"),
            ("dram::controller", "row_misses"),
            ("dram::controller", "queue_depth"),
        ] {
            let slow_s: Vec<_> = slow_tel.samples(track, name).iter().map(key).collect();
            let fast_s: Vec<_> = fast_tel.samples(track, name).iter().map(key).collect();
            assert!(!slow_s.is_empty());
            assert_eq!(fast_s, slow_s, "{track} {name} samples");
        }
        let event = |e: &millipede_telemetry::Event| (e.cycle, e.time_ps, e.value.to_bits());
        let slow_e: Vec<_> = slow_tel.events().iter().map(event).collect();
        let fast_e: Vec<_> = fast_tel.events().iter().map(event).collect();
        assert!(!slow_e.is_empty(), "no row conflicts recorded");
        assert_eq!(fast_e, slow_e, "row_conflict events");
    }

    #[test]
    fn every_popped_completion_reaches_the_model_once() {
        for fast_forward in [false, true] {
            let (toy, _, _, mc) = run(fast_forward);
            let mut ids = toy.received.clone();
            ids.sort_unstable();
            let sent: Vec<ReqId> = (0..toy.to_send.len() as ReqId).collect();
            assert_eq!(ids, sent, "fast_forward={fast_forward}");
            assert_eq!(mc.stats().requests, sent.len() as u64);
            assert_eq!(mc.next_event_at(), None, "a fill was left undelivered");
        }
    }

    #[test]
    fn telemetry_does_not_change_the_jumps() {
        // The 7-cycle epoch is far shorter than the longest idle jump and
        // than a run of credit-only edges after slot 2 banks its credits,
        // so both kinds of jump stop on boundaries; they still count once
        // each and skip the same edges as with telemetry off.
        let (traced, traced_run, tel, _) = run(true);
        let (plain, plain_run, _, _) = run_with(true, TelemetryConfig::default());
        let p = traced_run.profile;
        let mean_jump = traced.stats.ff_skipped_cycles / (p.sleeps + p.credit_jumps);
        assert!(mean_jump > 7, "no jump crosses an epoch boundary");
        assert!(tel.total_samples() > 0);
        assert_eq!(traced_run.profile, plain_run.profile);
        assert_eq!(traced_run.cycles, plain_run.cycles);
        assert_eq!(traced.stats, plain.stats);
        assert_eq!(traced.committed_at, plain.committed_at);
        assert_eq!(traced.landed_at, plain.landed_at);
        // Untraced, each credit jump is paid at once; traced, some are
        // cut into pieces that add up to the same edges.
        assert_eq!(plain.payments.len() as u64, p.credit_jumps);
        assert!(
            traced.payments.len() as u64 > p.credit_jumps,
            "no credit jump was cut"
        );
        let paid = |t: &Toy| t.payments.iter().sum::<u64>();
        assert_eq!(paid(&traced), paid(&plain));
    }

    #[test]
    fn jumps_account_cycles_slots_recounts_and_streak() {
        let mut q = Quiescence::new("Test", 4);
        let mut stats = CoreStats::default();
        let mut cycle = 10u64;
        q.walked(&mut stats, 1);
        assert_eq!((stats.issue_slots, stats.stall_slots), (4, 3));
        q.walked(&mut stats, 0);
        // An idle jump replays the quiescent edge's recounts.
        let recounts = Recounts {
            demand_stalls: 2,
            l1_hits: 1,
            l1_misses: 3,
        };
        q.jumped(&mut cycle, &mut stats, 5, 0, recounts);
        assert_eq!(cycle, 15);
        assert_eq!(stats.ff_skipped_cycles, 5);
        assert_eq!(stats.issue_slots, 28);
        assert_eq!(stats.stall_slots, 27);
        assert_eq!(
            (stats.demand_stalls, stats.l1_hits, stats.l1_misses),
            (10, 5, 15)
        );
        assert_eq!(q.idle_streak, 6);
        q.walked(&mut stats, 2); // an issue resets the streak
        assert_eq!(q.idle_streak, 0);
        q.jumped(&mut cycle, &mut stats, 3, 0, Recounts::default());
        assert_eq!((cycle, stats.ff_skipped_cycles), (18, 8));
        assert_eq!(q.idle_streak, 3);
        // A credit jump: three of the four slots pay a credit on each of
        // five edges.
        let (slots, stalls) = (stats.issue_slots, stats.stall_slots);
        q.jumped(&mut cycle, &mut stats, 5, 15, Recounts::default());
        assert_eq!((cycle, stats.ff_skipped_cycles), (23, 13));
        assert_eq!(
            (stats.issue_slots, stats.stall_slots),
            (slots + 20, stalls + 5)
        );
        assert_eq!(stats.demand_stalls, 10);
        assert_eq!(q.idle_streak, 0);
        // Credit-jumped edges on which no slot issued extend the streak.
        q.jumped(&mut cycle, &mut stats, 2, 0, Recounts::default());
        assert_eq!(q.idle_streak, 2);
    }

    #[test]
    #[should_panic(expected = "Test deadlock")]
    fn deadlock_guard_fires() {
        let mut q = Quiescence::new("Test", 1);
        let (mut cycle, mut stats) = (0, CoreStats::default());
        q.jumped(
            &mut cycle,
            &mut stats,
            MAX_IDLE_CYCLES,
            0,
            Recounts::default(),
        );
        q.walked(&mut stats, 0);
    }

    #[test]
    fn retune_after_a_jump_reschedules_from_the_last_skipped_edge() {
        // The third fill lands after a jump at the 17 ps period; the issue
        // it enables retunes to 29 ps, so every later compute edge hangs
        // off the first one walked after that jump.
        let (fast, _, _, _) = run(true);
        let (slow, _, _, _) = run(false);
        assert_eq!(fast.retuned_at, slow.retuned_at);
        let [(c17, t17), (c29, t29)] = fast.retuned_at[..] else {
            panic!("expected two retunes, got {:?}", fast.retuned_at);
        };
        assert!(
            fast.landed_at.iter().any(|&c| c17 < c && c <= c29),
            "no jump between the retunes"
        );
        assert!(slow.landed_at.is_empty(), "the walk jumped");
        assert_eq!(t29 - t17, (c29 - c17) * 17, "17 ps grid up to the retune");
        let after: Vec<_> = fast.committed_at.iter().filter(|i| i.0 > c29).collect();
        assert!(!after.is_empty());
        for &&(cycle, at) in &after {
            assert_eq!(at - t29, (cycle - c29) * 29, "29 ps after it");
        }
    }
}
