//! The Millipede processor timing model.
//!
//! Two clock domains drive the simulation: on each compute edge every
//! corelet tries to issue one instruction from one of its 4 hardware
//! contexts (round-robin, skipping contexts whose next input load cannot be
//! served); on each channel edge the driver advances the FR-FCFS controller
//! and the model applies the fills it completed.
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
use crate::config::{MillipedeConfig, LOCAL_BYTES_PER_CORELET};
use crate::pbuf::{Lookup, RowPrefetchBuffer};
use crate::rate::{OccupancySignal, RateMatcher};
use crate::result::NodeResult;
use millipede_dram::{Completion, MemoryController, Request, TimePs};

pub use run_impl::run;

mod run_impl {
    use super::*;
    use millipede_engine::{
        drive, mhz_for_period_ps, period_ps_for_mhz, AccessClass, Contexts, CoreStats,
        DecodedProgram, DualClock, FlagGrid, NodeModel, Quiescence, StepEffect, COMPUTE_MHZ,
    };
    use millipede_mapreduce::ThreadGrid;
    use millipede_telemetry::Telemetry;
    use millipede_workloads::Workload;
    use std::collections::BTreeMap;

    const TAG_PREFETCH_BASE: u64 = 1 << 32;
    const TAG_BYPASS: u64 = 1 << 33;
    /// Bound on each corelet's bypass store. Past it the oldest (lowest)
    /// row is dropped: it is never needed again.
    const BYPASS_ROWS: usize = 32;

    /// One Millipede processor's run-loop state, driven by
    /// [`millipede_engine::drive`].
    struct Node<'a> {
        cfg: &'a MillipedeConfig,
        decoded: &'a DecodedProgram,
        image: &'a millipede_mem::InputImage,
        row_bytes: u64,
        slab_bytes: u64,
        threads: Contexts,
        /// Set while a context waits at a processor-wide software barrier
        /// (§IV-C's alternative to hardware flow control).
        at_barrier: FlagGrid,
        /// Per-corelet bypass store: row → slab-fill-arrived (the
        /// no-flow-control premature-eviction recovery path). Ordered so
        /// the eviction of the lowest (oldest) row is deterministic.
        bypass: Vec<BTreeMap<u64, bool>>,
        pbuf: RowPrefetchBuffer,
        rate: RateMatcher,
        clock_audit: InvariantChecker,
        stats: CoreStats,
        /// Rate-matcher trace entries already converted to freq_step
        /// events.
        rate_drained: usize,
        /// Current compute period (the rate matcher's DFS output).
        period: TimePs,
    }

    impl NodeModel for Node<'_> {
        // Quiescence fingerprint: a sum of monotone counters that every
        // observable compute-edge state change bumps (prefetch push,
        // stall transition, demand fetch, pbuf allocation / flow block /
        // premature eviction). If a compute edge issues nothing *and*
        // leaves this sum unchanged, it changed nothing at all: the fetch
        // pump either had nothing to take or left the queue exactly as it
        // was (`RowPrefetchBuffer::pump`), every context saw the same
        // pbuf/bypass state it will see next cycle, and no rate-matcher
        // signal fired (Full needs an issue, Empty needs a stall
        // transition). Such edges repeat verbatim until the memory
        // controller acts, so they can be skipped in bulk (see DESIGN.md,
        // "One driver").
        fn fingerprint(&self) -> u64 {
            let p = self.pbuf.stats();
            self.stats.prefetches
                + self.stats.demand_stalls
                + self.stats.demand_fetches
                + p.prefetches
                + p.flow_blocks
                + p.premature_evictions
        }

        fn credit_issues(&self) -> u64 {
            self.threads.credit_issues()
        }

        fn credit_horizon(&mut self) -> u64 {
            let mut horizon = u64::MAX;
            for c in 0..self.cfg.corelets {
                horizon = horizon.min(self.threads.credit_horizon(c, self.scan_mask(c)));
                if horizon == 0 {
                    break;
                }
            }
            horizon
        }

        fn pay_credits(&mut self, edges: u64) {
            for c in 0..self.cfg.corelets {
                let run = self.scan_mask(c);
                self.threads.settle_credits(c, run, 0, edges);
                if run != 0 {
                    self.threads.count_credit_issues(edges, &mut self.stats);
                }
            }
        }

        fn sample_epoch(&self, tel: &mut Telemetry, due: u64, at: TimePs) {
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
                "core::rate",
                "frequency_mhz",
                due,
                at,
                mhz_for_period_ps(self.period),
            );
        }

        // End-of-run sanitizer report (all no-ops when the checks are
        // off).
        fn assert_clean(&self) {
            self.pbuf.audit().assert_clean("row prefetch buffer");
            self.rate.audit().assert_clean("rate matcher");
            self.clock_audit.assert_clean("clock domains");
        }

        fn done(&self) -> bool {
            self.threads.all_halted()
        }

        fn compute_edge(
            &mut self,
            now: TimePs,
            cycle: u64,
            clock: &mut DualClock,
            mc: &mut MemoryController,
            tel: &mut Telemetry,
        ) -> u64 {
            self.clock_audit.on_clock_edge(ClockDomain::Compute, now);
            let tel_flow_blocks_before = self.pbuf.stats().flow_blocks;
            self.stats.prefetches += self.pbuf.pump(mc, now, self.row_bytes, TAG_PREFETCH_BASE);

            // The scan takes each piece of state as its own argument, so
            // the optimizer may keep it in registers across the scan.
            let (cfg, decoded, image) = (self.cfg, self.decoded, self.image);
            let (row_bytes, slab_bytes) = (self.row_bytes, self.slab_bytes);
            let Node {
                threads,
                at_barrier,
                bypass,
                pbuf,
                rate,
                stats,
                ..
            } = self;
            let mut issued = 0;
            for c in 0..cfg.corelets {
                issued += u64::from(corelet_tick(
                    c, now, cycle, cfg, decoded, image, row_bytes, slab_bytes, threads, at_barrier,
                    bypass, pbuf, mc, clock, rate, stats,
                ));
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
            issued
        }

        fn channel_edge(&mut self, now: TimePs, fills: &[Completion], _queue_freed: bool) {
            self.clock_audit.on_clock_edge(ClockDomain::Channel, now);
            for comp in fills {
                if comp.tag >= TAG_BYPASS {
                    let corelet = ((comp.addr % self.row_bytes) / self.slab_bytes) as usize;
                    let row = comp.addr / self.row_bytes;
                    self.bypass[corelet].insert(row, true);
                } else {
                    let slot = (comp.tag - TAG_PREFETCH_BASE) as usize;
                    self.pbuf.fill_complete(slot);
                }
            }
        }

        fn stats_mut(&mut self) -> &mut CoreStats {
            &mut self.stats
        }
    }

    impl<'a> Node<'a> {
        /// The run-loop state of `workload` on one processor configured by
        /// `cfg`, with its contexts assigned records by `grid`.
        fn new(
            workload: &'a Workload,
            cfg: &'a MillipedeConfig,
            grid: &ThreadGrid,
            decoded: &'a DecodedProgram,
        ) -> Node<'a> {
            assert!(
                workload.live_bytes * cfg.contexts <= LOCAL_BYTES_PER_CORELET,
                "live state {}×{} exceeds {} B local memory",
                workload.live_bytes,
                cfg.contexts,
                LOCAL_BYTES_PER_CORELET
            );
            let layout = workload.dataset.layout;
            let slab_bytes = grid.slab_bytes(&layout);
            let mut pbuf = RowPrefetchBuffer::new(
                cfg.pbuf_entries,
                cfg.corelets,
                (slab_bytes / 4) as u32,
                layout.total_rows(),
                cfg.flow_control,
            );
            let nominal = period_ps_for_mhz(COMPUTE_MHZ);
            let mut rate = RateMatcher::new(cfg.rate_match, nominal, cfg.rate_cooldown);
            pbuf.set_invariant_checks(cfg.invariant_checks);
            rate.set_invariant_checks(cfg.invariant_checks);
            Node {
                cfg,
                decoded,
                image: &workload.dataset.image,
                row_bytes: layout.row_bytes,
                slab_bytes,
                threads: Contexts::new(cfg.corelets, cfg.contexts, |c, x| {
                    workload.make_ctx(grid, c, x)
                }),
                at_barrier: FlagGrid::new(cfg.corelets, cfg.contexts),
                bypass: vec![BTreeMap::new(); cfg.corelets],
                pbuf,
                rate,
                clock_audit: InvariantChecker::new(cfg.invariant_checks),
                stats: CoreStats::default(),
                rate_drained: 0,
                period: nominal,
            }
        }

        /// Corelet `c`'s contexts a scan acts on. It passes done contexts,
        /// those at the barrier, and stalled ones whose re-probe is a
        /// no-op.
        fn scan_mask(&self, c: usize) -> u64 {
            let done = self.threads.done();
            let live = done.full_mask() & !done.mask(c) & !self.at_barrier.mask(c);
            let mut stalled = live & self.threads.stalled().mask(c);
            let mut run = live;
            while stalled != 0 {
                let x = stalled.trailing_zeros() as usize;
                stalled &= stalled - 1;
                if self.stall_is_stable(c, x) {
                    run &= !(1 << x);
                }
            }
            run
        }

        /// Whether stalled context `x` of corelet `c` would change nothing
        /// when the scan re-probes it: its row is still filling, lies ahead
        /// of the prefetch stream under flow control, or was evicted with
        /// the corelet's bypass fill in flight.
        fn stall_is_stable(&self, c: usize, x: usize) -> bool {
            let ctx = self.threads.ctx(c, x);
            debug_assert_eq!(self.decoded.access_class(ctx.pc), AccessClass::InputLoad);
            let row = self.decoded.mem_addr_at(ctx) / self.row_bytes;
            match self.pbuf.lookup(row) {
                Lookup::Filling => true,
                Lookup::Future => self.cfg.flow_control,
                Lookup::Evicted => self.bypass[c].get(&row) == Some(&false),
                Lookup::Ready { .. } => false,
            }
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
    /// for [`millipede_engine::MAX_IDLE_CYCLES`] cycles).
    pub fn run(workload: &Workload, cfg: &MillipedeConfig) -> NodeResult {
        let grid = if cfg.wide_columns {
            ThreadGrid::block_columns(cfg.corelets, cfg.contexts)
        } else {
            ThreadGrid::slab(cfg.corelets, cfg.contexts)
        };
        let decoded = DecodedProgram::of(&workload.program);
        let mut node = Node::new(workload, cfg, &grid, &decoded);
        let mut mc = MemoryController::new(cfg.geometry, cfg.timing);
        let mut clock = DualClock::new(node.period, cfg.timing.channel_period_ps);
        mc.set_invariant_checks(cfg.invariant_checks);
        let mut tel = Telemetry::new(&cfg.telemetry);
        let quiesce = Quiescence::new("Millipede", cfg.corelets as u64);
        let driven = drive(
            &mut node,
            &mut clock,
            &mut mc,
            quiesce,
            cfg.fast_forward,
            &mut tel,
        );

        let stats = &mut node.stats;
        stats.flow_blocks = node.pbuf.stats().flow_blocks;
        stats.premature_evictions = node.pbuf.stats().premature_evictions;
        stats.rate_match_final_mhz = if cfg.rate_match {
            RateMatcher::final_mhz(&clock)
        } else {
            0.0
        };
        stats.rate_trace = node.rate.trace().to_vec();
        NodeResult::finish(
            workload,
            &grid,
            &node.threads.states(),
            node.stats,
            mc.stats().clone(),
            driven,
            tel,
        )
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
        threads: &mut Contexts,
        at_barrier: &mut FlagGrid,
        bypass: &mut [BTreeMap<u64, bool>],
        pbuf: &mut RowPrefetchBuffer,
        mc: &mut MemoryController,
        clock: &mut DualClock,
        rate: &mut RateMatcher,
        stats: &mut CoreStats,
    ) -> bool {
        for x in threads.round_robin(c) {
            debug_assert!(
                threads.credits_consistent(c, x, at_barrier.get(c, x)),
                "corelet {c} ctx {x} holds issue credits while done, stalled or at the barrier"
            );
            if threads.done().get(c, x) || at_barrier.get(c, x) {
                continue;
            }
            if threads.charge_burst(c, x, stats) {
                return true;
            }
            let ctx = threads.ctx(c, x);
            if decoded.access_class(ctx.pc) != AccessClass::InputLoad {
                commit(c, x, threads, at_barrier, decoded, image, stats);
                return true;
            }
            let addr = decoded.mem_addr_at(ctx);
            let row = addr / row_bytes;
            let lookup = pbuf.lookup(row);
            match lookup {
                Lookup::Ready { slot } => {
                    commit(c, x, threads, at_barrier, decoded, image, stats);
                    stats.pbuf_hits += 1;
                    let out = pbuf.consume(slot, c);
                    if out.trigger_blocked {
                        rate.on_signal(OccupancySignal::Full, cycle, clock);
                    }
                    return true;
                }
                Lookup::Future | Lookup::Filling => {
                    // Future: the accessor is ahead of the prefetch
                    // stream. With flow control it stalls; without, its
                    // demand wraps the buffer, prematurely evicting
                    // unconsumed heads.
                    if lookup == Lookup::Future && !cfg.flow_control {
                        pbuf.force_allocate_for_demand(row);
                    }
                    if threads.stall(c, x, stats) {
                        rate.on_signal(OccupancySignal::Empty, cycle, clock);
                    }
                }
                Lookup::Evicted => {
                    debug_assert!(
                        !cfg.flow_control,
                        "eviction under flow control is impossible"
                    );
                    match bypass[c].get(&row) {
                        Some(true) => {
                            commit(c, x, threads, at_barrier, decoded, image, stats);
                            return true;
                        }
                        // Fill in flight.
                        Some(false) => {}
                        None => {
                            let req = Request {
                                addr: row * row_bytes + c as u64 * slab_bytes,
                                bytes: slab_bytes,
                                tag: TAG_BYPASS,
                            };
                            if mc.try_push(req, now).is_ok() {
                                if bypass[c].len() >= BYPASS_ROWS {
                                    if let Some(oldest) = bypass[c].keys().next().copied() {
                                        bypass[c].remove(&oldest);
                                    }
                                }
                                bypass[c].insert(row, false);
                                stats.demand_fetches += 1;
                            }
                            threads.stall(c, x, stats);
                        }
                    }
                }
            }
        }
        false
    }

    /// Issues context `x` of corelet `c` and applies the processor-wide
    /// software barrier: a context that reaches it waits, and a halting
    /// one stops taking part, so either may release the waiters.
    #[allow(clippy::too_many_arguments)]
    fn commit(
        c: usize,
        x: usize,
        threads: &mut Contexts,
        at_barrier: &mut FlagGrid,
        decoded: &DecodedProgram,
        image: &millipede_mem::InputImage,
        stats: &mut CoreStats,
    ) {
        match threads.commit(c, x, decoded, image, stats) {
            StepEffect::Barrier => at_barrier.set(c, x, true),
            StepEffect::Halt => {}
            _ => return,
        }
        // Release every waiter once all live contexts on the processor
        // have reached the barrier.
        let done = threads.done();
        if (0..done.lanes()).all(|c| done.mask(c) | at_barrier.mask(c) == done.full_mask()) {
            at_barrier.clear_all();
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use millipede_workloads::Benchmark;

        #[test]
        fn a_stalled_context_whose_row_is_ready_ends_the_credit_horizon() {
            // A commit at pc 0 runs ahead to the input load at pc 4 and
            // banks the three instructions in between as credits.
            let program = millipede_isa::assemble(
                "ready",
                "addi r2, r0, 1\n\
                 addi r2, r2, 1\n\
                 addi r2, r2, 1\n\
                 addi r2, r2, 1\n\
                 ld.in r7, (r0)\n\
                 halt",
            )
            .expect("assembles");
            let w = Workload {
                program,
                ..Workload::build(Benchmark::Count, 2, 2048, 7)
            };
            let cfg = MillipedeConfig::default();
            let grid = ThreadGrid::slab(cfg.corelets, cfg.contexts);
            let decoded = DecodedProgram::of(&w.program);
            let mut node = Node::new(&w, &cfg, &grid, &decoded);
            let mut stats = CoreStats::default();
            let image = &w.dataset.image;
            // Context 1 pays its credits and stalls on row 0, which then
            // lands; contexts 0, 2 and 3 hold three credits each, and the
            // scan starts at context 0.
            node.threads.commit(0, 1, &decoded, image, &mut stats);
            while node.threads.charge_burst(0, 1, &mut stats) {}
            node.threads.stall(0, 1, &mut stats);
            for x in [0, 2, 3] {
                node.threads.commit(0, x, &decoded, image, &mut stats);
            }
            assert_eq!(node.threads.round_robin(0).next(), Some(0));
            let (slot, row) = node.pbuf.pop_fetch().expect("row 0 is queued");
            assert_eq!(row, 0);
            node.pbuf.fill_complete(slot);
            assert_eq!(node.pbuf.lookup(0), Lookup::Ready { slot });
            // Its next visit commits the load, so the scan keeps it, and
            // credits pay only the edge before that visit.
            let run = node.scan_mask(0);
            assert_eq!(run, 0b1111);
            assert_eq!(node.threads.credit_horizon(0, run), 1);
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
