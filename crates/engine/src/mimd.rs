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
    /// (Millipede's barrier). `mem_addr` carries the effective address the
    /// issue scan already computed for a load, so it is not recomputed.
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
        mem_addr: Option<u64>,
    ) -> StepEffect {
        self.stalled.set(core, slot, false);
        self.issued(core, slot);
        stats.instructions += 1;
        stats.issues += 1;
        let ctx = self.t.get_mut(core, slot);
        let committed = match mem_addr {
            Some(addr) => decoded.commit_mem_at(ctx, addr, image),
            None => decoded.commit(ctx, image),
        };
        let effect = committed
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
        set.commit(0, 1, &decoded, &image, &mut stats, None);
        assert_eq!(set.round_robin(0).collect::<Vec<_>>(), [2, 0, 1]);
        set.commit(0, 2, &decoded, &image, &mut stats, None);
        assert_eq!(set.round_robin(0).next(), Some(0), "the cursor wraps");
    }

    #[test]
    fn a_run_is_committed_once_and_charged_per_instruction() {
        let (mut set, decoded) = contexts("li r1, 1\naddi r1, r1, 1\naddi r1, r1, 1\nhalt", 1, 1);
        let image = InputImage::new(vec![]);
        let mut stats = CoreStats::default();
        assert_eq!(
            set.commit(0, 0, &decoded, &image, &mut stats, None),
            StepEffect::Alu
        );
        assert_eq!(set.ctx(0, 0).pc, 3, "the whole run retired");
        assert!(set.charge_burst(0, 0, &mut stats));
        assert!(set.charge_burst(0, 0, &mut stats));
        assert!(!set.charge_burst(0, 0, &mut stats), "credits drained");
        assert_eq!((stats.instructions, stats.issues), (3, 3));
        assert_eq!(set.credit_issues(), 2);
        assert_eq!(
            set.commit(0, 0, &decoded, &image, &mut stats, None),
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
                set.commit(0, x, decoded, &image, stats, None);
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
            set.commit(0, 0, &decoded, &InputImage::new(vec![7]), &mut stats, None),
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

    #[test]
    fn only_the_stall_transition_counts() {
        let (mut set, decoded) = contexts("halt", 1, 2);
        let mut stats = CoreStats::default();
        assert!(set.stall(0, 1, &mut stats));
        assert!(!set.stall(0, 1, &mut stats));
        assert_eq!(stats.demand_stalls, 1);
        set.commit(0, 1, &decoded, &InputImage::new(vec![]), &mut stats, None);
        assert!(set.stall(0, 1, &mut stats), "a commit clears the stall");
        assert_eq!(stats.demand_stalls, 2);
    }
}
