//! The MIMD hardware-context set shared by the Millipede and SSMC models.
//!
//! Both processors are a "sea of simple MIMD cores" (§II, §V): each core
//! holds a few hardware thread contexts and issues one instruction per
//! compute edge from the first ready one, round-robin. They differ only in
//! how an input load is served (row prefetch buffer vs L1), so each model
//! keeps its own issue scan and input-load arm, and both scans call into
//! one [`Contexts`] for everything per-context they have in common: the
//! round-robin order, issue credits, the stall transition, the commit,
//! and the halted count.
//!
//! **Local-run retire.** Only input loads, barriers and halts reach outside
//! a context: its registers and its partition of local memory are its own
//! (PAPER.md, modeling decision 1), and every instruction costs one issue
//! slot. So after an issuing instruction commits, [`Contexts::commit`]
//! runs the context ahead through its context-local instructions up to
//! the next input load, barrier, halt or trapping instruction, and banks
//! the count as issue credits. The context runs as a one-lane warp of
//! [`DecodedProgram::run_ahead`]: no divergence, no reconvergence PC, and
//! every in-bounds local access accepted.
//! The scans then pay one credit per slot ([`Contexts::charge_burst`]),
//! the same schedule as committing each instruction in its own slot,
//! because a context mid-run always issues when the scan reaches it.

use crate::arena::{Arena2, FlagGrid};
use crate::context::ThreadCtx;
use crate::decoded::{DecodedProgram, StepEffect, RUN_AHEAD_CAP};
use crate::stats::CoreStats;
use millipede_mem::InputImage;
use std::slice;

/// The hardware contexts of every core of one processor, struct-of-arrays
/// (see [`crate::arena`]): contexts live core-major in one arena and each
/// per-context boolean is one bit mask per core.
#[derive(Debug, Clone)]
pub struct Contexts {
    t: Arena2<ThreadCtx>,
    done: FlagGrid,
    /// Set while a context is blocked on memory; dedups demand-stall
    /// counting (and Millipede's rate-matcher Empty signal).
    stalled: FlagGrid,
    /// Outstanding issue credits per context: a local run executes
    /// functionally in one go and its instructions are charged one issue
    /// slot each from this counter (replay-by-count; see DESIGN.md,
    /// "Run-ahead").
    burst: Arena2<u32>,
    /// Per core, the context the next round-robin scan starts at.
    rr: Vec<usize>,
    halted: usize,
    /// Issue slots paid from `burst` credits (host observability).
    credit_issues: u64,
}

impl Contexts {
    /// `cores × slots` contexts, each built by `init(core, slot)`.
    pub fn new(
        cores: usize,
        slots: usize,
        init: impl FnMut(usize, usize) -> ThreadCtx,
    ) -> Contexts {
        Contexts {
            t: Arena2::from_fn(cores, slots, init),
            done: FlagGrid::new(cores, slots),
            stalled: FlagGrid::new(cores, slots),
            burst: Arena2::from_fn(cores, slots, |_, _| 0),
            rr: vec![0; cores],
            halted: 0,
            credit_issues: 0,
        }
    }

    /// The context at `(core, slot)`.
    #[inline(always)]
    pub fn ctx(&self, core: usize, slot: usize) -> &ThreadCtx {
        self.t.get(core, slot)
    }

    /// One bit per halted context.
    #[inline(always)]
    pub fn done(&self) -> &FlagGrid {
        &self.done
    }

    /// Whether every context has halted.
    pub fn all_halted(&self) -> bool {
        self.halted == self.t.as_slice().len()
    }

    /// `core`'s contexts in round-robin order: from the one after the last
    /// issue, wrapping around.
    #[inline(always)]
    pub fn round_robin(&self, core: usize) -> impl Iterator<Item = usize> {
        let (start, slots) = (self.rr[core], self.t.slots());
        // `start + k < 2 × slots`, so a conditional subtract replaces the
        // hardware divide a `%` would cost on this per-cycle path.
        (start..start + slots).map(move |x| if x >= slots { x - slots } else { x })
    }

    /// Records an issue from `slot`: the next scan of `core` starts after
    /// it.
    #[inline(always)]
    fn issued(&mut self, core: usize, slot: usize) {
        self.rr[core] = if slot + 1 == self.t.slots() {
            0
        } else {
            slot + 1
        };
    }

    /// Whether the context at `(core, slot)` keeps the credit invariant: a
    /// context holding issue credits is mid-run, so it is neither done nor
    /// stalled, nor `parked` by the caller's own rules (Millipede's
    /// barrier). The scans debug-assert it on every context they reach.
    pub fn credits_consistent(&self, core: usize, slot: usize, parked: bool) -> bool {
        *self.burst.get(core, slot) == 0
            || !(parked || self.done.get(core, slot) || self.stalled.get(core, slot))
    }

    /// Charges one banked issue credit, if the context has one, and
    /// returns whether it did. The instruction already executed
    /// functionally (it was context-local, invisible to every other
    /// context and to the memory system), so this slot only pays its
    /// issue: the same schedule as committing it here, since a mid-run
    /// context always issues.
    #[inline(always)]
    pub fn charge_burst(&mut self, core: usize, slot: usize, stats: &mut CoreStats) -> bool {
        let credits = self.burst.get_mut(core, slot);
        if *credits == 0 {
            return false;
        }
        *credits -= 1;
        self.credit_issues += 1;
        stats.instructions += 1;
        stats.issues += 1;
        self.issued(core, slot);
        true
    }

    /// Marks the context blocked on memory. Returns whether it was running
    /// until now; only that transition counts a demand stall.
    #[inline(always)]
    pub fn stall(&mut self, core: usize, slot: usize, stats: &mut CoreStats) -> bool {
        if self.stalled.get(core, slot) {
            return false;
        }
        self.stalled.set(core, slot, true);
        stats.demand_stalls += 1;
        true
    }

    /// Issues the context's next instruction: executes it functionally,
    /// counts it, and returns its effect for the caller's own rules
    /// (Millipede's barrier).
    ///
    /// Unless the instruction was a barrier or a halt, the context then
    /// runs ahead through its local run (see the module docs): the run is
    /// counted here and banked as issue credits, and only the issuing
    /// instruction is charged this slot.
    ///
    /// # Panics
    ///
    /// Panics if the kernel traps.
    #[inline]
    pub fn commit(
        &mut self,
        core: usize,
        slot: usize,
        decoded: &DecodedProgram,
        image: &InputImage,
        stats: &mut CoreStats,
    ) -> StepEffect {
        self.stalled.set(core, slot, false);
        self.issued(core, slot);
        stats.instructions += 1;
        stats.issues += 1;
        let ctx = self.t.get_mut(core, slot);
        let effect = decoded
            .commit(ctx, image)
            .unwrap_or_else(|trap| panic!("kernel trap on core {core} ctx {slot}: {trap}"));
        match effect {
            StepEffect::Branch { .. } => stats.branches += 1,
            StepEffect::InputLoad { .. } => stats.input_loads += 1,
            StepEffect::LocalLoad { .. } => stats.local_loads += 1,
            StepEffect::LocalStore { .. } => stats.local_stores += 1,
            StepEffect::Halt => {
                self.done.set(core, slot, true);
                self.halted += 1;
                return effect;
            }
            StepEffect::Barrier => return effect,
            _ => {}
        }
        let run = decoded.run_ahead(slice::from_mut(ctx), 1, None, RUN_AHEAD_CAP, |_, _| true);
        stats.branches += u64::from(run.branches);
        stats.local_loads += u64::from(run.local_loads);
        stats.local_stores += u64::from(run.local_stores);
        *self.burst.get_mut(core, slot) = run.instructions;
        effect
    }

    /// How many compute edges from now `core` can issue on from credits
    /// alone ([`CreditScan::horizon`]); `run` holds the contexts its scan
    /// acts on.
    pub fn credit_horizon(&self, core: usize, run: u64) -> u64 {
        let scan = CreditScan::new(run, self.rr[core], self.t.slots());
        scan.horizon(|slot| u64::from(*self.burst.get(core, slot)))
    }

    /// Pays `edges` edges of `core` from credits at once, as that many
    /// one-slot scans would ([`Contexts::charge_burst`]); `edges` is at
    /// most [`Contexts::credit_horizon`] for the same `run`. The
    /// [`Contexts::settle_credits`] part and the
    /// [`Contexts::count_credit_issues`] part in one call. Returns how
    /// many times the scans would have passed a context of `recount`.
    pub fn pay_credits(
        &mut self,
        core: usize,
        run: u64,
        recount: u64,
        edges: u64,
        stats: &mut CoreStats,
    ) -> u64 {
        let passes = self.settle_credits(core, run, recount, edges);
        if run != 0 {
            self.count_credit_issues(edges, stats);
        }
        passes
    }

    /// The state part of paying `edges` credit-only edges of `core`: the
    /// credits each pick loses and the cursor past the last pick, but not
    /// the issue counts, which a caller that counts them edge by edge
    /// keeps eager ([`Contexts::count_credit_issues`]). `edges` is at most
    /// [`Contexts::credit_horizon`] for the same `run`. Returns how many
    /// times the scans would have passed a context of `recount`
    /// ([`CreditScan::pay`]), for the caller's own per-visit statistic.
    pub fn settle_credits(&mut self, core: usize, run: u64, recount: u64, edges: u64) -> u64 {
        let scan = CreditScan::new(run, self.rr[core], self.t.slots());
        let burst = &mut self.burst;
        let (last, passes) = scan.pay(edges, recount, |slot, taken| {
            let credits = burst.get_mut(core, slot);
            debug_assert!(u64::from(*credits) >= taken, "paid past the horizon");
            // audit:allow(cast-truncation): at most the u32 credits it is taken from
            *credits -= taken as u32;
        });
        if let Some(slot) = last {
            self.issued(core, slot);
        }
        passes
    }

    /// The recounts [`Contexts::settle_credits`] would return for the same
    /// arguments, without settling anything.
    pub fn owed_recounts(&self, core: usize, run: u64, recount: u64, edges: u64) -> u64 {
        let scan = CreditScan::new(run, self.rr[core], self.t.slots());
        scan.pay(edges, recount, |_, _| {}).1
    }

    /// The count part of `slots` issue slots paid from credits:
    /// `instructions`, `issues` and the credit count grow by `slots`.
    #[inline(always)]
    pub fn count_credit_issues(&mut self, slots: u64, stats: &mut CoreStats) {
        self.credit_issues += slots;
        stats.instructions += slots;
        stats.issues += slots;
    }

    /// One bit per context blocked on memory.
    #[inline(always)]
    pub fn stalled(&self) -> &FlagGrid {
        &self.stalled
    }

    /// Issue slots paid from credits so far ([`Contexts::charge_burst`]).
    pub fn credit_issues(&self) -> u64 {
        self.credit_issues
    }

    /// Every context's live state, core-major: the slice a workload's
    /// host reduction takes.
    pub fn states(&self) -> Vec<&[u32]> {
        self.t.as_slice().iter().map(|t| t.local.words()).collect()
    }
}

/// One core's round-robin scan over a run of credit-only edges: the
/// arithmetic of a credit jump (DESIGN.md, "Credit jump"), shared by the
/// MIMD contexts and the GPGPU's warps.
///
/// `run` holds, one bit per slot, the slots the scan acts on: every slot
/// it does not pass over unchanged. Each edge picks the next of them in
/// round-robin order from the cursor `start`, so with `m` of them the
/// `i`-th is picked on edges `i, i + m, …`.
#[derive(Debug, Clone, Copy)]
pub struct CreditScan {
    run: u64,
    start: usize,
    slots: usize,
}

impl CreditScan {
    /// The scan of `run` over `slots` slots (at most 64) from `start`.
    pub fn new(run: u64, start: usize, slots: usize) -> CreditScan {
        debug_assert!(start < slots && slots <= 64);
        CreditScan { run, start, slots }
    }

    /// How many edges from now every pick pays a credit. The `i`-th pick,
    /// holding `credits(slot)`, runs out on edge `i + c_i·m`; the horizon
    /// is the least such edge, and is unbounded when `run` is empty.
    pub fn horizon(self, credits: impl Fn(usize) -> u64) -> u64 {
        let m = u64::from(self.run.count_ones());
        let mut horizon = u64::MAX;
        for (i, (_, slot)) in (0..).zip(picks(self.run, self.start, self.slots)) {
            if i >= horizon {
                break;
            }
            horizon = horizon.min(i + credits(slot) * m);
        }
        horizon
    }

    /// Pays `edges` edges, at most [`CreditScan::horizon`]: calls
    /// `take(slot, n)` for each pick taken `n ≥ 1` times, and returns the
    /// slot of the last pick (none if nothing was picked) and how many
    /// times the scans passed a slot of `recount` (a stall they recount on
    /// every visit; disjoint from `run`).
    ///
    /// The `i`-th pick is taken `⌈(edges − i)/m⌉` times. Edge 0 passes the
    /// recounted slots from the cursor up to the first pick, and each
    /// later edge those between its pick and the previous one, so every
    /// `m` edges pass each recounted slot once.
    pub fn pay(
        self,
        edges: u64,
        recount: u64,
        mut take: impl FnMut(usize, u64),
    ) -> (Option<usize>, u64) {
        debug_assert_eq!(self.run & recount, 0, "a recounted slot cannot issue");
        let m = u64::from(self.run.count_ones());
        if edges == 0 || m == 0 {
            return (None, edges * u64::from(recount.count_ones()));
        }
        // One division: `edges = rounds·m + extra`, so the `i`-th pick is
        // taken `rounds + [i < extra]` times, and the last edge picks
        // `(edges − 1) mod m`.
        let (rounds, extra) = (edges / m, edges % m);
        let last = if extra == 0 { m - 1 } else { extra - 1 };
        let (mut first, mut end, mut last_slot) = (0, 0, None);
        for (i, (at, slot)) in (0..).zip(picks(self.run, self.start, self.slots)) {
            if i == 0 {
                first = at;
            }
            let taken = rounds + u64::from(i < extra);
            if taken > 0 {
                take(slot, taken);
            }
            if i == last {
                (end, last_slot) = (at, Some(slot));
            }
        }
        // Edge 0's gap, whole rounds of every gap, then the gaps before
        // picks 1..=last.
        let every = u64::from(recount.count_ones());
        let recount = rotate(recount, self.start, self.slots);
        let before_first = (recount & below(first)).count_ones();
        let to_last = (recount & below(end) & !below(first + 1)).count_ones();
        let whole = if extra == 0 { rounds - 1 } else { rounds };
        let passes = u64::from(before_first) + whole * every + u64::from(to_last);
        (last_slot, passes)
    }
}

/// The slots of `run` in round-robin order from `start`, each as its
/// position from `start` and its slot.
fn picks(run: u64, start: usize, slots: usize) -> impl Iterator<Item = (u32, usize)> {
    let mut rest = rotate(run, start, slots);
    std::iter::from_fn(move || {
        if rest == 0 {
            return None;
        }
        let at = rest.trailing_zeros();
        rest &= rest - 1;
        let slot = at as usize + start;
        Some((at, if slot >= slots { slot - slots } else { slot }))
    })
}

/// `mask` over `slots` bits, rotated so bit `by` becomes bit 0.
fn rotate(mask: u64, by: usize, slots: usize) -> u64 {
    if by == 0 {
        return mask;
    }
    let full = u64::MAX >> (64 - slots);
    (mask >> by | mask << (slots - by)) & full
}

/// The bits below bit `at`.
fn below(at: u32) -> u64 {
    1u64.checked_shl(at).map_or(u64::MAX, |bit| bit - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::LaunchParams;
    use millipede_isa::assemble;
    use millipede_isa::reg::r;
    use std::sync::Arc;

    fn contexts(src: &str, cores: usize, slots: usize) -> (Contexts, Arc<DecodedProgram>) {
        let program = assemble("t", src).expect("assembles");
        let decoded = DecodedProgram::of(&program);
        let set = Contexts::new(cores, slots, |_, _| {
            ThreadCtx::new(64, &LaunchParams::new())
        });
        (set, decoded)
    }

    #[test]
    fn round_robin_starts_after_the_last_issue() {
        let (mut set, decoded) = contexts("halt", 1, 3);
        let image = InputImage::new(vec![]);
        let mut stats = CoreStats::default();
        assert_eq!(set.round_robin(0).collect::<Vec<_>>(), [0, 1, 2]);
        set.commit(0, 1, &decoded, &image, &mut stats);
        assert_eq!(set.round_robin(0).collect::<Vec<_>>(), [2, 0, 1]);
        set.commit(0, 2, &decoded, &image, &mut stats);
        assert_eq!(set.round_robin(0).next(), Some(0), "the cursor wraps");
    }

    #[test]
    fn a_run_is_committed_once_and_charged_per_instruction() {
        let (mut set, decoded) = contexts("li r1, 1\naddi r1, r1, 1\naddi r1, r1, 1\nhalt", 1, 1);
        let image = InputImage::new(vec![]);
        let mut stats = CoreStats::default();
        assert_eq!(
            set.commit(0, 0, &decoded, &image, &mut stats),
            StepEffect::Alu
        );
        assert_eq!(set.ctx(0, 0).pc, 3, "the whole run retired");
        assert!(set.charge_burst(0, 0, &mut stats));
        assert!(set.charge_burst(0, 0, &mut stats));
        assert!(!set.charge_burst(0, 0, &mut stats), "credits drained");
        assert_eq!((stats.instructions, stats.issues), (3, 3));
        assert_eq!(set.credit_issues(), 2);
        assert_eq!(
            set.commit(0, 0, &decoded, &image, &mut stats),
            StepEffect::Halt
        );
        assert!(set.done().get(0, 0) && set.all_halted());
    }

    /// One issue slot of core 0, scanned the way the models scan it: the
    /// first live context in round-robin order pays a credit or commits.
    fn issue(set: &mut Contexts, decoded: &DecodedProgram, stats: &mut CoreStats) -> bool {
        let image = InputImage::new(vec![7; 16]);
        for x in set.round_robin(0) {
            assert!(set.credits_consistent(0, x, false));
            if set.done().get(0, x) {
                continue;
            }
            if !set.charge_burst(0, x, stats) {
                set.commit(0, x, decoded, &image, stats);
            }
            return true;
        }
        false
    }

    #[test]
    fn a_local_run_is_counted_at_commit_and_stops_at_an_input_load() {
        let (mut set, decoded) = contexts(
            "li r1, 3\n\
             top: st.local r1, 0(r0)\n\
             ld.local r2, 0(r0)\n\
             subi r1, r1, 1\n\
             bne r1, r0, top\n\
             ld.in r3, 0(r0)\n\
             halt",
            1,
            1,
        );
        let mut stats = CoreStats::default();
        assert_eq!(
            set.commit(0, 0, &decoded, &InputImage::new(vec![7]), &mut stats),
            StepEffect::Alu
        );
        assert_eq!(set.ctx(0, 0).pc, 5, "stopped before the input load");
        assert_eq!(stats.instructions, 1, "only the issuing instruction so far");
        assert_eq!(
            (stats.branches, stats.local_loads, stats.local_stores),
            (3, 3, 3),
            "the run's branches and local accesses count when it runs"
        );
        let mut slots = 1;
        while issue(&mut set, &decoded, &mut stats) {
            slots += 1;
        }
        assert_eq!(slots, 15, "one slot per instruction");
        assert_eq!(
            (stats.instructions, stats.issues, stats.input_loads),
            (15, 15, 1)
        );
    }

    /// Context 0 is scanned first and faults on a `st.local` late in a
    /// long local run; context 1 faults early. The trap must fire in the
    /// faulting instruction's own issue slot, so context 1's comes first:
    /// a run-ahead that executed the faulting store would trap context 0
    /// at its first issue instead.
    #[test]
    #[should_panic(expected = "kernel trap on core 0 ctx 1")]
    fn a_trap_fires_in_its_own_issue_slot() {
        let program =
            assemble("t", "top: st.local r0, 0(r2)\naddi r2, r2, 4\njmp top").expect("assembles");
        let decoded = DecodedProgram::of(&program);
        let mut set = Contexts::new(1, 2, |_, slot| {
            let mut ctx = ThreadCtx::new(64, &LaunchParams::new());
            ctx.write_reg(r(2), if slot == 0 { 0 } else { 60 });
            ctx
        });
        let mut stats = CoreStats::default();
        while issue(&mut set, &decoded, &mut stats) {}
    }

    /// One issue slot of core 0 as the scans take it when `run` holds the
    /// contexts they act on and `recount` those they pass and recount:
    /// the first context of `run` in round-robin order pays a credit.
    /// Returns the recounted contexts passed on the way.
    fn scan(set: &mut Contexts, run: u64, recount: u64, stats: &mut CoreStats) -> u64 {
        let mut passed = 0;
        for x in set.round_robin(0).collect::<Vec<_>>() {
            if run >> x & 1 == 1 {
                assert!(set.charge_burst(0, x, stats), "ctx {x} ran out of credits");
                return passed;
            }
            passed += recount >> x & 1;
        }
        passed
    }

    #[test]
    fn paying_credits_equals_one_slot_scans_on_random_sets() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for slots in (1..=8).chain([64]) {
            let full = u64::MAX >> (64 - slots);
            for case in 0..400 {
                let (mut set, _) = contexts("halt", 1, slots);
                set.rr[0] = (next() % slots as u64) as usize;
                let run = next() & full;
                let recount = next() & full & !run;
                for slot in 0..slots {
                    if run >> slot & 1 == 1 {
                        *set.burst.get_mut(0, slot) = (next() % 7) as u32;
                    }
                }
                let label = format!("slots={slots} case={case} run={run:#x} recount={recount:#x}");
                let horizon = set.credit_horizon(0, run);
                let mut walked = set.clone();
                let mut walked_stats = CoreStats::default();
                let cap = horizon.min(8 * slots as u64);
                let edges = if cap == 0 { 0 } else { next() % (cap + 1) };
                let mut passed = 0;
                for _ in 0..edges {
                    passed += scan(&mut walked, run, recount, &mut walked_stats);
                }
                let mut stats = CoreStats::default();
                let owed = set.owed_recounts(0, run, recount, edges);
                let recounts = set.pay_credits(0, run, recount, edges, &mut stats);
                assert_eq!(recounts, passed, "{label}: recounts");
                assert_eq!(owed, passed, "{label}: owed recounts");
                assert_eq!(set.burst.as_slice(), walked.burst.as_slice(), "{label}");
                assert_eq!(set.rr, walked.rr, "{label}: cursor");
                assert_eq!(set.credit_issues(), walked.credit_issues(), "{label}");
                assert_eq!(stats, walked_stats, "{label}: issues");
                // The horizon is tight: past it, a pick is out of credits.
                if run != 0 && horizon <= cap {
                    for _ in edges..horizon {
                        scan(&mut walked, run, recount, &mut walked_stats);
                    }
                    let pick = walked.round_robin(0).find(|&x| run >> x & 1 == 1);
                    let pick = pick.expect("run is not empty");
                    assert_eq!(*walked.burst.get(0, pick), 0, "{label}: loose horizon");
                }
            }
        }
    }

    #[test]
    fn only_the_stall_transition_counts() {
        let (mut set, decoded) = contexts("halt", 1, 2);
        let mut stats = CoreStats::default();
        assert!(set.stall(0, 1, &mut stats));
        assert!(!set.stall(0, 1, &mut stats));
        assert_eq!(stats.demand_stalls, 1);
        set.commit(0, 1, &decoded, &InputImage::new(vec![]), &mut stats);
        assert!(set.stall(0, 1, &mut stats), "a commit clears the stall");
        assert_eq!(stats.demand_stalls, 2);
    }
}
