//! The Millipede processor timing model.
//!
//! Two clock domains drive the simulation: on each compute edge every
//! corelet tries to issue one instruction from one of its 4 hardware
//! contexts (round-robin, skipping contexts whose next input load cannot be
//! served); on each channel edge the FR-FCFS controller advances and
//! completed fills are applied.
//!
//! Input loads go through the row prefetch buffer:
//!
//! * **hit** — consume a word of the corelet's slab (driving the DF
//!   counters, PFT triggers, and flow control);
//! * **filling / future** — the context stalls (and signals the rate
//!   matcher that the buffers ran empty);
//! * **evicted** (no-flow-control only) — the corelet re-fetches its 64 B
//!   slab directly from DRAM into a small per-corelet bypass store,
//!   exposing full memory latency and re-activating old rows — the cost
//!   Fig. 3's `Millipede-no-flow-control` bars show.

use crate::audit::{ClockDomain, InvariantChecker};
use crate::config::MillipedeConfig;
use crate::pbuf::{Lookup, RowPrefetchBuffer};
use crate::rate::{OccupancySignal, RateMatcher};
use crate::result::NodeResult;
use millipede_dram::{MemoryController, Request, TimePs};

pub use run_impl::run;

mod run_impl {
    use super::*;
    use millipede_engine::{
        drive, instrument, mhz_for_period_ps, period_ps_for_mhz, AccessClass, Arena2, CoreStats,
        DecodedProgram, DualClock, FlagGrid, Instrumented, NodeModel, Quiescence, StepEffect,
        ThreadCtx,
    };
    use millipede_mapreduce::ThreadGrid;
    use millipede_telemetry::Telemetry;
    use millipede_workloads::Workload;
    use std::collections::BTreeMap;

    const TAG_PREFETCH_BASE: u64 = 1 << 32;
    const TAG_BYPASS: u64 = 1 << 33;

    /// Per-context hot state, struct-of-arrays: thread contexts live in a
    /// flat lane-major arena and each scheduling flag is one bit per
    /// context, so the issue loop's whole-corelet queries are word ops.
    struct Threads {
        t: Arena2<ThreadCtx>,
        done: FlagGrid,
        /// Set while a context is blocked on memory (dedups rate-matcher
        /// Empty signals and demand-stall counting).
        stalled: FlagGrid,
        /// Set while a context waits at a processor-wide software barrier
        /// (§IV-C's alternative to hardware flow control).
        at_barrier: FlagGrid,
        /// Outstanding burst-retire issue credits per context: when a
        /// context reaches the head of a pure-ALU run, the run executes
        /// functionally in one go and the remaining instructions are
        /// charged one issue cycle each from this counter
        /// (replay-by-count; see DESIGN.md, "Predecoded interpreter").
        burst: Arena2<u32>,
    }

    /// One Millipede processor's run-loop state, driven by
    /// [`millipede_engine::drive`].
    struct Node<'a> {
        cfg: &'a MillipedeConfig,
        decoded: &'a DecodedProgram,
        image: &'a millipede_mem::InputImage,
        row_bytes: u64,
        slab_bytes: u64,
        threads: Threads,
        rr: Vec<usize>,
        /// Per-corelet bypass store: row → slab-fill-arrived (the
        /// no-flow-control premature-eviction recovery path). Ordered so
        /// the eviction of the lowest (oldest) row is deterministic.
        bypass: Vec<BTreeMap<u64, bool>>,
        pbuf: RowPrefetchBuffer,
        mc: MemoryController,
        rate: RateMatcher,
        clock_audit: InvariantChecker,
        stats: CoreStats,
        halted: usize,
        total_threads: usize,
        /// Rate-matcher trace entries already converted to freq_step
        /// events.
        rate_drained: usize,
        /// Current compute period (the rate matcher's DFS output).
        period: TimePs,
        slots_per_cycle: u64,
    }

    impl Instrumented for Node<'_> {
        fn prefix(&self) -> &'static str {
            "core"
        }

        // Quiescence fingerprint: a sum of monotone counters that every
        // observable compute-edge state change bumps (prefetch push,
        // stall transition, demand fetch, pbuf allocation / flow block /
        // premature eviction). If a compute edge issues nothing *and*
        // leaves this sum unchanged, it changed nothing at all: the fetch
        // pump either had nothing to take or restored the queue exactly
        // (`untake_fetch`), every context saw the same pbuf/bypass state
        // it will see next cycle, and no rate-matcher signal fired (Full
        // needs an issue, Empty needs a stall transition). Such edges
        // repeat verbatim until the memory controller acts, so they can
        // be skipped in bulk (see DESIGN.md, "One driver").
        fn fingerprint(&self) -> u64 {
            let p = self.pbuf.stats();
            self.stats.prefetches
                + self.stats.demand_stalls
                + self.stats.demand_fetches
                + p.prefetches
                + p.flow_blocks
                + p.premature_evictions
        }

        fn sample_epoch(&self, tel: &mut Telemetry, due: u64, at: TimePs, rewind: u64) {
            let slots = rewind * self.slots_per_cycle;
            let p = self.pbuf.stats();
            tel.counter(
                "core::pbuf",
                "occupancy",
                due,
                at,
                self.pbuf.occupancy() as f64,
            );
            tel.counter("core::pbuf", "flow_blocks", due, at, p.flow_blocks as f64);
            tel.counter(
                "core::pbuf",
                "demand_stalls",
                due,
                at,
                self.stats.demand_stalls as f64,
            );
            tel.counter(
                "core::rate",
                "frequency_mhz",
                due,
                at,
                mhz_for_period_ps(self.period),
            );
            tel.counter(
                "core::processor",
                "issue_slots",
                due,
                at,
                (self.stats.issue_slots - slots) as f64,
            );
            tel.counter(
                "core::processor",
                "stall_slots",
                due,
                at,
                (self.stats.stall_slots - slots) as f64,
            );
            let d = self.mc.stats();
            instrument::sample_dram(tel, due, at, d.row_hits, d.row_misses, self.mc.queue_len());
        }

        // End-of-run sanitizer report (all no-ops when the checks are
        // off).
        fn assert_clean(&self) {
            self.pbuf.audit().assert_clean("row prefetch buffer");
            self.rate.audit().assert_clean("rate matcher");
            self.mc.timing_audit().assert_clean("memory controller");
            self.clock_audit.assert_clean("clock domains");
        }
    }

    impl NodeModel for Node<'_> {
        fn done(&self) -> bool {
            self.halted == self.total_threads
        }

        fn compute_edge(
            &mut self,
            now: TimePs,
            cycle: u64,
            clock: &mut DualClock,
            tel: &mut Telemetry,
        ) -> bool {
            self.clock_audit.on_clock_edge(ClockDomain::Compute, now);
            let tel_flow_blocks_before = self.pbuf.stats().flow_blocks;
            // Hand pending row prefetches to the controller.
            while self.mc.free_slots() > 0 {
                let Some((slot, row)) = self.pbuf.pop_fetch() else {
                    break;
                };
                let req = Request {
                    addr: row * self.row_bytes,
                    bytes: self.row_bytes,
                    tag: TAG_PREFETCH_BASE + slot as u64,
                };
                if self.mc.try_push(req, now).is_err() {
                    self.pbuf.untake_fetch(slot);
                    break;
                }
                self.stats.prefetches += 1;
            }

            // The scan takes each piece of state as its own argument, so
            // the optimizer may keep it in registers across the scan.
            let (cfg, decoded, image) = (self.cfg, self.decoded, self.image);
            let (row_bytes, slab_bytes) = (self.row_bytes, self.slab_bytes);
            let Node {
                threads,
                rr,
                bypass,
                pbuf,
                mc,
                rate,
                stats,
                halted,
                ..
            } = self;
            let mut any_issued = false;
            for c in 0..cfg.corelets {
                stats.issue_slots += 1;
                if corelet_tick(
                    c, now, cycle, cfg, decoded, image, row_bytes, slab_bytes, threads, rr, bypass,
                    pbuf, mc, clock, rate, stats, halted,
                ) {
                    any_issued = true;
                } else {
                    stats.stall_slots += 1;
                }
            }
            self.period = clock.compute_period();
            // Telemetry: purely observational, never feeds back into
            // simulated state, bit-identical results on or off.
            if tel.enabled() {
                let trace = self.rate.trace();
                for &(at_cycle, mhz) in &trace[self.rate_drained..] {
                    tel.event("core::rate", "freq_step", at_cycle, now, mhz);
                }
                self.rate_drained = trace.len();
                for _ in tel_flow_blocks_before..self.pbuf.stats().flow_blocks {
                    tel.event("core::pbuf", "flow_block", cycle, now, 1.0);
                }
            }
            any_issued
        }

        fn channel_edge(&mut self, now: TimePs, cycle: u64, tel: &mut Telemetry) -> usize {
            self.clock_audit.on_clock_edge(ClockDomain::Channel, now);
            self.mc.tick(now);
            let completions = self.mc.pop_completed(now);
            let fills = completions.len();
            for comp in completions {
                if !comp.row_hit {
                    // Stamped with the last completed compute cycle:
                    // channel edges have no compute-cycle identity.
                    tel.event(
                        "dram::controller",
                        "row_conflict",
                        cycle,
                        now,
                        (comp.addr / self.row_bytes) as f64,
                    );
                }
                if comp.tag >= TAG_BYPASS {
                    let corelet = ((comp.addr % self.row_bytes) / self.slab_bytes) as usize;
                    let row = comp.addr / self.row_bytes;
                    self.bypass[corelet].insert(row, true);
                } else {
                    let slot = (comp.tag - TAG_PREFETCH_BASE) as usize;
                    self.pbuf.fill_complete(slot);
                }
            }
            fills
        }

        fn next_event_at(&self) -> Option<TimePs> {
            self.mc.next_event_at()
        }

        fn stats_mut(&mut self) -> &mut CoreStats {
            &mut self.stats
        }
    }

    /// Runs `workload` to completion on one Millipede processor.
    ///
    /// ```
    /// use millipede_core::{run, MillipedeConfig};
    /// use millipede_workloads::{Benchmark, Workload};
    ///
    /// let workload = Workload::build(Benchmark::Count, 2, 2048, 7);
    /// let result = run(&workload, &MillipedeConfig::default());
    /// assert!(result.output_ok); // validated against the golden reference
    /// assert!(result.stats.rate_match_final_mhz <= 700.0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the workload's live state does not fit the corelet local
    /// memory, if a kernel traps, or if the processor deadlocks (no issue
    /// for `max_idle_cycles`).
    pub fn run(workload: &Workload, cfg: &MillipedeConfig) -> NodeResult {
        let layout = workload.dataset.layout;
        let grid = if cfg.wide_columns {
            ThreadGrid::block_columns(cfg.corelets, cfg.contexts)
        } else {
            ThreadGrid::slab(cfg.corelets, cfg.contexts)
        };
        assert!(
            workload.live_bytes * cfg.contexts <= cfg.local_bytes_per_corelet,
            "live state {}×{} exceeds {} B local memory",
            workload.live_bytes,
            cfg.contexts,
            cfg.local_bytes_per_corelet
        );
        let row_bytes = layout.row_bytes;
        let slab_bytes = grid.slab_bytes(&layout);
        let slab_words = (slab_bytes / 4) as u32;
        let total_rows = layout.total_rows();

        let mut pbuf = RowPrefetchBuffer::new(
            cfg.pbuf_entries,
            cfg.corelets,
            slab_words,
            total_rows,
            cfg.flow_control,
        );
        let mut mc = MemoryController::with_capacity(cfg.geometry, cfg.timing, cfg.dram_queue);
        let nominal = period_ps_for_mhz(cfg.compute_mhz);
        let mut clock = DualClock::new(nominal, cfg.timing.channel_period_ps);
        let mut rate = RateMatcher::new(cfg.rate_match, nominal, cfg.rate_cooldown);
        pbuf.set_invariant_checks(cfg.invariant_checks);
        rate.set_invariant_checks(cfg.invariant_checks);
        mc.set_invariant_checks(cfg.invariant_checks);

        let slots_per_cycle = cfg.corelets as u64;
        let decoded = DecodedProgram::of(&workload.program);
        let mut node = Node {
            cfg,
            decoded: &decoded,
            image: &workload.dataset.image,
            row_bytes,
            slab_bytes,
            threads: Threads {
                t: Arena2::from_fn(cfg.corelets, cfg.contexts, |c, x| {
                    workload.make_ctx(&grid, c, x)
                }),
                done: FlagGrid::new(cfg.corelets, cfg.contexts),
                stalled: FlagGrid::new(cfg.corelets, cfg.contexts),
                at_barrier: FlagGrid::new(cfg.corelets, cfg.contexts),
                burst: Arena2::from_fn(cfg.corelets, cfg.contexts, |_, _| 0u32),
            },
            rr: vec![0; cfg.corelets],
            bypass: vec![BTreeMap::new(); cfg.corelets],
            pbuf,
            mc,
            rate,
            clock_audit: InvariantChecker::new(cfg.invariant_checks),
            stats: CoreStats::default(),
            halted: 0,
            total_threads: cfg.corelets * cfg.contexts,
            rate_drained: 0,
            period: nominal,
            slots_per_cycle,
        };
        let mut tel = Telemetry::new(&cfg.telemetry);
        let quiesce = Quiescence::new("Millipede", slots_per_cycle, cfg.max_idle_cycles);
        let driven = drive(&mut node, &mut clock, quiesce, cfg.fast_forward, &mut tel);

        let stats = &mut node.stats;
        stats.compute_cycles = driven.cycles;
        stats.flow_blocks = node.pbuf.stats().flow_blocks;
        stats.premature_evictions = node.pbuf.stats().premature_evictions;
        stats.rate_match_final_mhz = if cfg.rate_match {
            RateMatcher::final_mhz(&clock)
        } else {
            0.0
        };
        stats.rate_trace = node.rate.trace().to_vec();
        node.assert_clean();

        let states: Vec<&[u32]> = node
            .threads
            .t
            .as_slice()
            .iter()
            .map(|t| t.local.words())
            .collect();
        let output = workload.reduce(&states);
        let output_ok = output == workload.reference(&grid);
        NodeResult {
            stats: node.stats,
            dram: node.mc.stats().clone(),
            elapsed_ps: driven.last_time,
            output,
            output_ok,
            telemetry: tel,
            profile: driven.profile,
        }
    }

    /// One compute-cycle issue attempt for corelet `c`. Returns whether an
    /// instruction issued.
    ///
    /// Always inlined into the compute edge's scan: left to the optimizer's
    /// inlining choice, compute-bound Millipede points ran ~15% slower.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn corelet_tick(
        c: usize,
        now: TimePs,
        cycle: u64,
        cfg: &MillipedeConfig,
        decoded: &DecodedProgram,
        image: &millipede_mem::InputImage,
        row_bytes: u64,
        slab_bytes: u64,
        threads: &mut Threads,
        rr: &mut [usize],
        bypass: &mut [BTreeMap<u64, bool>],
        pbuf: &mut RowPrefetchBuffer,
        mc: &mut MemoryController,
        clock: &mut DualClock,
        rate: &mut RateMatcher,
        stats: &mut CoreStats,
        halted: &mut usize,
    ) -> bool {
        // Whole-corelet early out: every context done or parked at the
        // barrier means the scan below would be all `continue`s.
        if threads.done.mask(c) | threads.at_barrier.mask(c) == threads.done.full_mask() {
            return false;
        }
        for k in 0..cfg.contexts {
            let mut x = rr[c] + k;
            if x >= cfg.contexts {
                x -= cfg.contexts;
            }
            if threads.done.get(c, x) || threads.at_barrier.get(c, x) {
                continue;
            }
            // Charge one banked burst-retire credit: the instruction
            // already executed functionally (it was pure ALU — invisible
            // to every other context and to the memory system), so this
            // cycle only pays its issue slot. Identical scheduling to
            // committing it here: a mid-run context always issues.
            {
                let credits = threads.burst.get_mut(c, x);
                if *credits > 0 {
                    *credits -= 1;
                    stats.instructions += 1;
                    stats.issues += 1;
                    rr[c] = if x + 1 == cfg.contexts { 0 } else { x + 1 };
                    return true;
                }
            }
            if decoded.access_class(threads.t.get(c, x).pc) == AccessClass::InputLoad {
                let addr = decoded.mem_addr_at(threads.t.get(c, x));
                let row = addr / row_bytes;
                match pbuf.lookup(row) {
                    Lookup::Ready { slot } => {
                        commit(c, x, threads, decoded, image, stats, halted, Some(addr));
                        stats.pbuf_hits += 1;
                        let out = pbuf.consume(slot, c);
                        if out.trigger_blocked {
                            rate.on_signal(OccupancySignal::Full, cycle, clock);
                        }
                        rr[c] = if x + 1 == cfg.contexts { 0 } else { x + 1 };
                        return true;
                    }
                    Lookup::Future => {
                        // The accessor is ahead of the prefetch stream. With
                        // flow control it stalls; without, its demand wraps
                        // the buffer, prematurely evicting unconsumed heads.
                        if !cfg.flow_control {
                            pbuf.force_allocate_for_demand(row);
                        }
                        if !threads.stalled.get(c, x) {
                            threads.stalled.set(c, x, true);
                            stats.demand_stalls += 1;
                            rate.on_signal(OccupancySignal::Empty, cycle, clock);
                        }
                        continue;
                    }
                    Lookup::Filling => {
                        if !threads.stalled.get(c, x) {
                            threads.stalled.set(c, x, true);
                            stats.demand_stalls += 1;
                            rate.on_signal(OccupancySignal::Empty, cycle, clock);
                        }
                        continue;
                    }
                    Lookup::Evicted => {
                        debug_assert!(
                            !cfg.flow_control,
                            "eviction under flow control is impossible"
                        );
                        match bypass[c].get(&row) {
                            Some(true) => {
                                commit(c, x, threads, decoded, image, stats, halted, Some(addr));
                                rr[c] = if x + 1 == cfg.contexts { 0 } else { x + 1 };
                                return true;
                            }
                            Some(false) => {
                                // Fill in flight.
                                continue;
                            }
                            None => {
                                let addr = row * row_bytes + c as u64 * slab_bytes;
                                let req = Request {
                                    addr,
                                    bytes: slab_bytes,
                                    tag: TAG_BYPASS,
                                };
                                if mc.try_push(req, now).is_ok() {
                                    if bypass[c].len() >= 32 {
                                        // Bound the store: oldest (lowest)
                                        // rows are never needed again.
                                        if let Some(oldest) = bypass[c].keys().next().copied() {
                                            bypass[c].remove(&oldest);
                                        }
                                    }
                                    bypass[c].insert(row, false);
                                    stats.demand_fetches += 1;
                                }
                                if !threads.stalled.get(c, x) {
                                    threads.stalled.set(c, x, true);
                                    stats.demand_stalls += 1;
                                }
                                continue;
                            }
                        }
                    }
                }
            } else {
                commit(c, x, threads, decoded, image, stats, halted, None);
                rr[c] = if x + 1 == cfg.contexts { 0 } else { x + 1 };
                return true;
            }
        }
        false
    }

    /// Functionally executes the context's next instruction and updates
    /// statistics. `mem_addr` carries the effective address the issue scan
    /// already computed for a load (so it is not recomputed to commit).
    ///
    /// A context at the head of a pure-ALU run retires the *whole run*
    /// here and banks the remaining issue cycles as burst credits; only
    /// the first instruction is charged this cycle.
    #[allow(clippy::too_many_arguments)]
    fn commit(
        c: usize,
        x: usize,
        threads: &mut Threads,
        decoded: &DecodedProgram,
        image: &millipede_mem::InputImage,
        stats: &mut CoreStats,
        halted: &mut usize,
        mem_addr: Option<u64>,
    ) {
        threads.stalled.set(c, x, false);
        let ctx = threads.t.get_mut(c, x);
        if decoded.run_len(ctx.pc) > 0 {
            // Pure ALU: never traps, never halts, never barriers — no
            // effect bookkeeping beyond the per-cycle issue charge.
            let n = decoded.burst_retire(ctx, u32::MAX);
            *threads.burst.get_mut(c, x) = n - 1;
            stats.instructions += 1;
            stats.issues += 1;
            return;
        }
        let committed = match mem_addr {
            Some(addr) => decoded.commit_mem_at(ctx, addr, image),
            None => decoded.commit(ctx, image),
        };
        let effect =
            committed.unwrap_or_else(|trap| panic!("kernel trap on corelet {c} ctx {x}: {trap}"));
        stats.instructions += 1;
        stats.issues += 1;
        let mut sync_check = false;
        match effect {
            StepEffect::Branch { .. } => stats.branches += 1,
            StepEffect::InputLoad { .. } => stats.input_loads += 1,
            StepEffect::LocalLoad { .. } => stats.local_loads += 1,
            StepEffect::LocalStore { .. } => stats.local_stores += 1,
            StepEffect::Barrier => {
                sync_check = true;
            }
            StepEffect::Halt => {
                threads.done.set(c, x, true);
                *halted += 1;
                // A halting thread stops participating in barriers; waiters
                // may now be releasable.
                sync_check = true;
            }
            _ => {}
        }
        if sync_check {
            if matches!(effect, StepEffect::Barrier) {
                threads.at_barrier.set(c, x, true);
            }
            release_barrier_if_ready(threads);
        }
    }

    /// Releases every waiting context once all live contexts on the
    /// processor have reached the barrier.
    fn release_barrier_if_ready(threads: &mut Threads) {
        let full = threads.done.full_mask();
        let all_waiting = (0..threads.done.lanes())
            .all(|c| threads.done.mask(c) | threads.at_barrier.mask(c) == full);
        if all_waiting {
            threads.at_barrier.clear_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use millipede_workloads::{Benchmark, Workload};

    fn small(bench: Benchmark) -> Workload {
        Workload::build(bench, 2, 2048, 7)
    }

    fn cfg() -> MillipedeConfig {
        MillipedeConfig::default()
    }

    #[test]
    fn count_runs_and_validates() {
        let w = small(Benchmark::Count);
        let r = run(&w, &cfg());
        assert!(r.output_ok, "timing run must reproduce the golden output");
        assert!(r.elapsed_ps > 0);
        assert!(r.stats.instructions > 0);
        assert_eq!(r.stats.premature_evictions, 0);
        // Every input word flows through the prefetch buffer.
        assert_eq!(r.stats.pbuf_hits, r.stats.input_loads);
    }

    #[test]
    fn nbayes_runs_and_validates() {
        let w = small(Benchmark::NBayes);
        let r = run(&w, &cfg());
        assert!(r.output_ok);
        // Row-orientedness: each input row is fetched exactly once.
        let rows = w.dataset.layout.total_rows();
        assert_eq!(r.dram.activations, rows, "one activation per row");
        assert_eq!(r.dram.bytes_transferred, rows * 2048);
        assert!(
            r.dram.row_miss_rate() > 0.99,
            "every row request opens its row once"
        );
    }

    #[test]
    fn flow_control_prevents_premature_eviction() {
        let w = small(Benchmark::Count);
        let r = run(&w, &cfg());
        assert_eq!(r.stats.premature_evictions, 0);
    }

    #[test]
    fn no_flow_control_still_produces_correct_output() {
        let w = small(Benchmark::Variance);
        let mut c = MillipedeConfig::no_flow_control();
        // A tiny buffer makes premature evictions likely.
        c.pbuf_entries = 2;
        let r = run(&w, &c);
        assert!(r.output_ok, "bypass path must preserve functional results");
    }

    #[test]
    fn tiny_buffer_with_flow_control_does_not_deadlock() {
        let w = small(Benchmark::Count);
        let mut c = cfg();
        c.pbuf_entries = 2;
        c.rate_match = false;
        let r = run(&w, &c);
        assert!(r.output_ok);
        assert_eq!(r.stats.premature_evictions, 0);
    }

    #[test]
    fn rate_matching_reports_converged_clock() {
        let w = small(Benchmark::Count);
        let r = run(&w, &cfg());
        assert!(r.stats.rate_match_final_mhz > 100.0);
        assert!(r.stats.rate_match_final_mhz <= 701.0);
        let r2 = run(&w, &MillipedeConfig::no_rate_match());
        assert_eq!(r2.stats.rate_match_final_mhz, 0.0);
    }

    #[test]
    fn wide_columns_leave_millipede_unaffected() {
        // §IV-C: the corelet owns the same 64 B slab under either
        // interleaving, so row-oriented prefetch performance is unchanged.
        let w = small(Benchmark::Count);
        let narrow = run(&w, &MillipedeConfig::no_rate_match());
        let mut cfg = MillipedeConfig::no_rate_match();
        cfg.wide_columns = true;
        let wide = run(&w, &cfg);
        assert!(wide.output_ok);
        let ratio = wide.elapsed_ps as f64 / narrow.elapsed_ps as f64;
        assert!(
            (0.95..1.05).contains(&ratio),
            "wide/narrow runtime ratio {ratio}"
        );
        assert_eq!(wide.dram.bytes_transferred, narrow.dram.bytes_transferred);
    }

    #[test]
    fn fast_forward_is_bit_exact() {
        for bench in [Benchmark::Count, Benchmark::NBayes] {
            let w = small(bench);
            for mut c in [
                MillipedeConfig::default(),
                MillipedeConfig::no_flow_control(),
                MillipedeConfig::no_rate_match(),
            ] {
                c.fast_forward = false;
                let slow = run(&w, &c);
                c.fast_forward = true;
                let fast = run(&w, &c);
                let label = format!(
                    "{bench:?} flow_control={} rate_match={}",
                    c.flow_control, c.rate_match
                );
                assert_eq!(slow.stats.ff_skipped_cycles, 0);
                assert_eq!(slow.profile.sleeps, 0, "{label}: walked run jumped");
                assert!(
                    fast.stats.ff_skipped_cycles > 0 && fast.profile.sleeps > 0,
                    "{label}: fast-forward never engaged"
                );
                let mut fs = fast.stats.clone();
                fs.ff_skipped_cycles = 0;
                assert_eq!(fs, slow.stats, "{label}: stats diverged");
                assert_eq!(fast.dram, slow.dram, "{label}: DRAM stats diverged");
                assert_eq!(fast.elapsed_ps, slow.elapsed_ps, "{label}");
                assert_eq!(fast.output, slow.output, "{label}");
            }
        }
    }

    #[test]
    fn more_buffers_never_hurt() {
        let w = small(Benchmark::NBayes);
        let mut c2 = MillipedeConfig::no_rate_match();
        c2.pbuf_entries = 2;
        let mut c16 = MillipedeConfig::no_rate_match();
        c16.pbuf_entries = 16;
        let r2 = run(&w, &c2);
        let r16 = run(&w, &c16);
        assert!(
            r16.elapsed_ps <= r2.elapsed_ps,
            "16 entries {} vs 2 entries {}",
            r16.elapsed_ps,
            r2.elapsed_ps
        );
    }
}
