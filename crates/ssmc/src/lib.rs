//! The plain SSMC baseline: a "sea of simple MIMD cores" *without*
//! row-orientedness (§II, §V of the paper).
//!
//! SSMC matches Millipede in every well-known respect — 32 simple in-order
//! cores, 4-way hardware multithreading, identical on-die memory capacity,
//! 100%-accurate sequential prefetch of the input stream — but fetches and
//! operates on *cache blocks* rather than whole DRAM rows. Each core
//! prefetches its own slab stream into its private 5 KB L1 D-cache. Because
//! the cores' MIMD execution lets them stray from each other (the
//! per-record work is data-dependent), their block fetches interleave
//! accesses to many different DRAM rows at the shared FR-FCFS controller,
//! degrading row locality — the row-miss-rate column of Table IV and the
//! SSMC bars of Figs. 3–4.
//!
//! Modeling notes (deviations documented in DESIGN.md):
//!
//! * The L1 line size is one slab (64 B) rather than Table III's 128 B; a
//!   128 B line would straddle two cores' slabs and double-fetch every row,
//!   a pathology the paper's SSMC clearly does not have.
//! * Live state is held resident in the L1 (it fits: 4 contexts × ≤1 KB in
//!   5 KB); only the input stream competes for the remaining capacity.

#![warn(missing_docs)]

use millipede_core::NodeResult;
use millipede_dram::{Completion, MemoryController, Request, TimePs, QUEUE_DEPTH};
use millipede_dram::{DramGeometry, DramTiming};
use millipede_engine::{
    drive, period_ps_for_mhz, AccessClass, Arena2, Contexts, CoreStats, DecodedProgram, DualClock,
    FlagGrid, NodeModel, Quiescence, COMPUTE_MHZ,
};
use millipede_mapreduce::ThreadGrid;
use millipede_mem::{Cache, Mshr, PrefetchStop, SequentialPrefetcher};
use millipede_telemetry::{Telemetry, TelemetryConfig};
use millipede_workloads::Workload;

/// MSHR entries per core.
pub const MSHRS: usize = 4;
/// L1 D-cache bytes per core (Table III: 5 KB).
pub const L1_BYTES: usize = 5 * 1024;
/// L1 associativity.
pub const L1_ASSOC: usize = 4;

/// Configuration of one SSMC processor (Table III defaults).
///
/// Holds only what a caller varies; the values every run shares are
/// constants: the compute clock ([`millipede_engine::COMPUTE_MHZ`]), the
/// MSHRs ([`MSHRS`]), and the deadlock guard
/// ([`millipede_engine::MAX_IDLE_CYCLES`]). The prefetch lookahead is
/// derived from the L1's input share.
#[derive(Debug, Clone)]
pub struct SsmcConfig {
    /// Cores per processor (Table III: 32).
    pub cores: usize,
    /// Hardware thread contexts per core (Table III: 4).
    pub contexts: usize,
    /// L1 D-cache per core in bytes (default [`L1_BYTES`]).
    pub l1_bytes: usize,
    /// L1 line size in bytes (one slab; see module docs).
    pub l1_block: u64,
    /// L1 associativity (default [`L1_ASSOC`]).
    pub l1_assoc: usize,
    /// DRAM channel geometry.
    pub geometry: DramGeometry,
    /// DRAM channel timing.
    pub timing: DramTiming,
    /// FR-FCFS queue depth (Table III: [`QUEUE_DEPTH`]; the queue-depth
    /// ablation sweeps it).
    pub dram_queue: usize,
    /// Idle-cycle fast-forward (bit-exact; see DESIGN.md). Off reproduces
    /// the cycle-by-cycle schedule for differential testing.
    pub fast_forward: bool,
    /// Cycle-domain telemetry (off by default; purely observational).
    pub telemetry: TelemetryConfig,
}

impl Default for SsmcConfig {
    fn default() -> Self {
        SsmcConfig {
            cores: 32,
            contexts: 4,
            l1_bytes: L1_BYTES,
            l1_block: 64,
            l1_assoc: L1_ASSOC,
            geometry: DramGeometry::default(),
            timing: DramTiming::default(),
            dram_queue: QUEUE_DEPTH,
            fast_forward: true,
            telemetry: TelemetryConfig::default(),
        }
    }
}

struct Core {
    l1: Cache,
    mshr: Mshr,
    /// The core's input stream: its slab of every row, so the stride is
    /// one row.
    pf: SequentialPrefetcher,
    /// The prefetcher last stopped on MSHR or DRAM-queue space. Both only
    /// free on a channel edge (a fill completes, or the controller issues
    /// a CAS and pops the request from its queue), which clears this for
    /// every core. Until then a pump provably issues nothing, so it is not
    /// run: pure memoization, bit-exact by construction. Without it the
    /// benchmark's `stream` workload measured 1.05–1.08× `wall_s`, `sweep`
    /// 1.01–1.07× and `compute` 1.07× (2-vCPU VM, two A/Bs of 6
    /// interleaved pairs).
    pf_parked: bool,
}

/// One SSMC processor's run-loop state, driven by [`millipede_engine::drive`].
struct Node<'a> {
    cfg: &'a SsmcConfig,
    decoded: &'a DecodedProgram,
    image: &'a millipede_mem::InputImage,
    row_bytes: u64,
    slab_bytes: u64,
    /// Prefetch lookahead past the demand row, in bytes.
    lookahead: u64,
    threads: Contexts,
    /// Stalled on an *in-flight* fill: every scan visit is then a
    /// guaranteed re-miss that changes nothing but the L1 miss count, so
    /// the scan counts the miss instead of probing.
    /// Cleared by the channel arm when the fill for `stall_block` lands
    /// (after which the slow path handles hit — or re-miss, if the block
    /// was evicted before the context rescanned — exactly as before).
    /// Without it the benchmark's `compute` workload measured 1.12–1.40×
    /// `wall_s` and `stream` 1.22–1.24× (2-vCPU VM, two A/Bs, none of 14
    /// interleaved pairs won).
    stall_fast: FlagGrid,
    /// Block base the context is stalled on (valid while `stall_fast`).
    stall_block: Arena2<u64>,
    cores: Vec<Core>,
    /// Counted live by the scan, L1 misses included (`stats.l1_misses`),
    /// so the driver can replay them over a jump.
    stats: CoreStats,
}

impl NodeModel for Node<'_> {
    // Quiescence fingerprint (see DESIGN.md, "One driver"):
    // every observable compute-edge mutation either bumps one of these
    // monotone counters (prefetch, stall transition, demand fetch) or
    // advances a prefetcher's monotone cursor or demand-raised limit,
    // both included in the sum.
    // L1 demand-miss recounting is deliberately excluded — it *does* recur
    // on stalled edges, and the driver replays it by count. (Repeat misses
    // never touch LRU state, so only the counter is observable.)
    fn fingerprint(&self) -> u64 {
        let cursors: u64 = self
            .cores
            .iter()
            .map(|c| c.pf.cursor() + c.pf.limit())
            .sum();
        self.stats.prefetches + self.stats.demand_stalls + self.stats.demand_fetches + cursors
    }

    fn credit_issues(&self) -> u64 {
        self.threads.credit_issues()
    }

    // A scan passes done contexts and recounts one L1 miss for each
    // `stall_fast` one; it acts on every other context (see DESIGN.md,
    // "Credit jump").
    fn credit_horizon(&mut self) -> u64 {
        let mut horizon = u64::MAX;
        for c in 0..self.cfg.cores {
            let (run, _) = self.scan_masks(c);
            horizon = horizon.min(self.threads.credit_horizon(c, run));
            if horizon == 0 {
                break;
            }
        }
        horizon
    }

    fn pay_credits(&mut self, edges: u64) {
        for c in 0..self.cfg.cores {
            let (run, recount) = self.scan_masks(c);
            let misses = self
                .threads
                .pay_credits(c, run, recount, edges, &mut self.stats);
            self.stats.l1_misses += misses;
        }
    }

    fn sample_epoch(&self, tel: &mut Telemetry, due: u64, at: TimePs) {
        let hits: u64 = self.cores.iter().map(|c| c.l1.stats().hits).sum();
        tel.counter("ssmc::l1", "hits", due, at, hits as f64);
        let misses = self.stats.l1_misses as f64;
        tel.counter("ssmc::l1", "misses", due, at, misses);
    }

    fn done(&self) -> bool {
        self.threads.all_halted()
    }

    fn compute_edge(
        &mut self,
        now: TimePs,
        _cycle: u64,
        _clock: &mut DualClock,
        mc: &mut MemoryController,
        _tel: &mut Telemetry,
    ) -> u64 {
        // The scan takes each piece of state as its own argument, so the
        // optimizer may keep it in registers across the scan.
        let (cfg, decoded, image) = (self.cfg, self.decoded, self.image);
        let (row_bytes, slab_bytes) = (self.row_bytes, self.slab_bytes);
        let lookahead = self.lookahead;
        let Node {
            threads,
            stall_fast,
            stall_block,
            cores,
            stats,
            ..
        } = self;
        let mut issued = 0;
        for c in 0..cfg.cores {
            issued += u64::from(core_tick(
                c,
                now,
                decoded,
                image,
                row_bytes,
                slab_bytes,
                lookahead,
                threads,
                stall_fast,
                stall_block,
                &mut cores[c],
                mc,
                stats,
            ));
        }
        issued
    }

    // Completion tags: core index (slab fills are per-core).
    fn channel_edge(&mut self, _now: TimePs, fills: &[Completion], queue_freed: bool) {
        for comp in fills {
            let ci = comp.tag as usize;
            let core = &mut self.cores[ci];
            let block = comp.addr;
            core.l1.fill(block);
            core.mshr.complete(block);
            // The fill ends the guaranteed-re-miss regime for any context
            // stalled on this block (see `Node::stall_fast`).
            for x in 0..self.cfg.contexts {
                if self.stall_fast.get(ci, x) && *self.stall_block.get(ci, x) == block {
                    self.stall_fast.set(ci, x, false);
                }
            }
        }
        // A fill frees an MSHR and a CAS issue frees a queue slot; either
        // can unblock a resource-parked prefetch pump.
        if !fills.is_empty() || queue_freed {
            for core in &mut self.cores {
                core.pf_parked = false;
            }
        }
    }

    fn stats_mut(&mut self) -> &mut CoreStats {
        &mut self.stats
    }
}

impl Node<'_> {
    /// Core `c`'s contexts a scan acts on, and those it recounts.
    fn scan_masks(&self, c: usize) -> (u64, u64) {
        let done = self.threads.done();
        let live = done.full_mask() & !done.mask(c);
        let recount = live & self.stall_fast.mask(c);
        (live & !recount, recount)
    }
}

/// Runs `workload` to completion on one SSMC processor.
///
/// # Panics
///
/// Panics if the live state cannot be L1-resident, a kernel traps, or the
/// simulation deadlocks.
pub fn run(workload: &Workload, cfg: &SsmcConfig) -> NodeResult {
    let layout = workload.dataset.layout;
    let grid = ThreadGrid::slab(cfg.cores, cfg.contexts);
    let live_total = workload.live_bytes * cfg.contexts;
    assert!(
        live_total + (cfg.l1_assoc as u64 * cfg.l1_block * 2) as usize <= cfg.l1_bytes,
        "live state {live_total} B leaves no input room in the {} B L1",
        cfg.l1_bytes
    );
    let row_bytes = layout.row_bytes;
    let slab_bytes = grid.slab_bytes(&layout);
    assert!(
        slab_bytes == cfg.l1_block,
        "this model fetches one slab per L1 line (slab {slab_bytes} B vs line {} B)",
        cfg.l1_block
    );
    let total_rows = layout.total_rows();

    // Input share of the L1: whatever the live state leaves, rounded down
    // to whole sets.
    let set_bytes = cfg.l1_assoc as u64 * cfg.l1_block;
    let input_capacity = {
        let free = (cfg.l1_bytes - live_total) as u64;
        (free / set_bytes).max(2) * set_bytes
    };
    // Prefetch lookahead in rows: stream as far ahead as the input share of
    // the L1 can hold — what a 100%-accurate sequential prefetcher
    // naturally does — minus a safety margin so demand blocks are not
    // evicted by their own prefetches.
    let degree = (input_capacity / cfg.l1_block).saturating_sub(4).max(2);
    let lookahead = degree * row_bytes;

    let decoded = DecodedProgram::of(&workload.program);
    let mut node = Node {
        cfg,
        decoded: &decoded,
        image: &workload.dataset.image,
        row_bytes,
        slab_bytes,
        lookahead,
        threads: Contexts::new(cfg.cores, cfg.contexts, |c, x| {
            workload.make_ctx(&grid, c, x)
        }),
        stall_fast: FlagGrid::new(cfg.cores, cfg.contexts),
        stall_block: Arena2::from_fn(cfg.cores, cfg.contexts, |_, _| 0),
        cores: (0..cfg.cores as u64)
            .map(|c| {
                let slab = c * slab_bytes;
                Core {
                    l1: Cache::new(input_capacity, cfg.l1_assoc, cfg.l1_block),
                    mshr: Mshr::new(MSHRS),
                    pf: SequentialPrefetcher::new(
                        slab,
                        row_bytes,
                        total_rows * row_bytes + slab,
                        lookahead + slab,
                    ),
                    pf_parked: false,
                }
            })
            .collect(),
        stats: CoreStats::default(),
    };
    let mut mc = MemoryController::with_capacity(cfg.geometry, cfg.timing, cfg.dram_queue);
    let mut clock = DualClock::new(period_ps_for_mhz(COMPUTE_MHZ), cfg.timing.channel_period_ps);
    let mut tel = Telemetry::new(&cfg.telemetry);
    let quiesce = Quiescence::new("SSMC", cfg.cores as u64);
    let driven = drive(
        &mut node,
        &mut clock,
        &mut mc,
        quiesce,
        cfg.fast_forward,
        &mut tel,
    );

    let stats = &mut node.stats;
    for core in &node.cores {
        stats.l1_hits += core.l1.stats().hits;
    }
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

/// One issue attempt for core `c`; returns whether an instruction issued.
///
/// Always inlined into the compute edge's scan: left to the optimizer's
/// inlining choice, compute-bound SSMC points ran ~10% slower.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn core_tick(
    c: usize,
    now: TimePs,
    decoded: &DecodedProgram,
    image: &millipede_mem::InputImage,
    row_bytes: u64,
    slab_bytes: u64,
    lookahead: u64,
    threads: &mut Contexts,
    stall_fast: &mut FlagGrid,
    stall_block: &mut Arena2<u64>,
    core: &mut Core,
    mc: &mut MemoryController,
    stats: &mut CoreStats,
) -> bool {
    pump_prefetch(c, now, slab_bytes, core, mc, stats);
    for x in threads.round_robin(c) {
        debug_assert!(
            threads.credits_consistent(c, x, false),
            "core {c} ctx {x} holds issue credits while done or stalled"
        );
        if threads.done().get(c, x) {
            continue;
        }
        if stall_fast.get(c, x) {
            // Stalled on an in-flight fill: the full probe would count one
            // L1 miss and change nothing else, so count just that.
            stats.l1_misses += 1;
            continue;
        }
        if threads.charge_burst(c, x, stats) {
            return true;
        }
        let ctx = threads.ctx(c, x);
        if decoded.access_class(ctx.pc) != AccessClass::InputLoad {
            threads.commit(c, x, decoded, image, stats);
            return true;
        }
        let addr = decoded.mem_addr_at(ctx);
        // The prefetch window runs `lookahead` past this core's slab of
        // the demanded row.
        let row_base = addr / row_bytes * row_bytes;
        core.pf
            .raise_limit(row_base + lookahead + c as u64 * slab_bytes);
        if core.l1.access(addr) {
            threads.commit(c, x, decoded, image, stats);
            return true;
        }
        demand_miss(
            c,
            x,
            now,
            addr,
            slab_bytes,
            threads,
            stall_fast,
            stall_block,
            core,
            mc,
            stats,
        );
    }
    false
}

/// Context `x` of core `c` missed the L1 on its input load at `addr`:
/// merges into an in-flight fill or starts a demand fetch, and stalls the
/// context.
///
/// Kept out of line: inlined, the scan's loop calls nothing that may write
/// `threads`, so the optimizer hoists every `Contexts` field load into
/// each core's prologue and spills them there, which made compute-bound
/// SSMC points ~12% slower.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn demand_miss(
    c: usize,
    x: usize,
    now: TimePs,
    addr: u64,
    slab_bytes: u64,
    threads: &mut Contexts,
    stall_fast: &mut FlagGrid,
    stall_block: &mut Arena2<u64>,
    core: &mut Core,
    mc: &mut MemoryController,
    stats: &mut CoreStats,
) {
    stats.l1_misses += 1;
    // Merge into an in-flight fill or start a demand fetch.
    let block = addr & !(slab_bytes - 1);
    if !core.mshr.pending(block) && !core.mshr.is_full() {
        let req = Request {
            addr: block,
            bytes: slab_bytes,
            tag: c as u64,
        };
        if mc.try_push(req, now).is_ok() {
            core.mshr.allocate(block, x as u64);
            stats.demand_fetches += 1;
        }
    }
    threads.stall(c, x, stats);
    if core.mshr.pending(block) {
        // Fill in flight (just allocated, merged, or a racing prefetch):
        // retries are pure re-misses until it lands.
        stall_fast.set(c, x, true);
        *stall_block.get_mut(c, x) = block;
    }
}

/// Runs core `c`'s slab prefetcher ahead of its leading context, unless
/// it is parked on resources (see [`Core::pf_parked`]).
fn pump_prefetch(
    c: usize,
    now: TimePs,
    slab_bytes: u64,
    core: &mut Core,
    mc: &mut MemoryController,
    stats: &mut CoreStats,
) {
    if core.pf_parked {
        return;
    }
    let Core { l1, mshr, pf, .. } = core;
    let stop = pf.pump(l1, mshr, |block| {
        let req = Request {
            addr: block,
            bytes: slab_bytes,
            tag: c as u64,
        };
        let pushed = mc.free_slots() > 0 && mc.try_push(req, now).is_ok();
        stats.prefetches += u64::from(pushed);
        pushed
    });
    core.pf_parked = stop == PrefetchStop::Resource;
}

#[cfg(test)]
mod tests {
    use super::*;
    use millipede_workloads::Benchmark;

    fn small(bench: Benchmark) -> Workload {
        Workload::build(bench, 2, 2048, 7)
    }

    #[test]
    fn count_runs_and_validates() {
        let r = run(&small(Benchmark::Count), &SsmcConfig::default());
        assert!(r.output_ok);
        assert!(r.elapsed_ps > 0);
        assert!(r.stats.l1_hits > 0);
    }

    #[test]
    fn nbayes_runs_and_validates() {
        let r = run(&small(Benchmark::NBayes), &SsmcConfig::default());
        assert!(r.output_ok);
        // Every input byte is fetched exactly once (prefetch + demand,
        // no duplication across cores thanks to slab-sized lines).
        let w = small(Benchmark::NBayes);
        assert_eq!(r.dram.bytes_transferred, w.dataset.total_bytes());
    }

    #[test]
    fn gda_live_state_fits() {
        let r = run(&small(Benchmark::Gda), &SsmcConfig::default());
        assert!(r.output_ok);
    }

    #[test]
    fn determinism() {
        let w = small(Benchmark::Variance);
        let a = run(&w, &SsmcConfig::default());
        let b = run(&w, &SsmcConfig::default());
        assert_eq!(a.elapsed_ps, b.elapsed_ps);
        assert_eq!(a.dram.row_misses, b.dram.row_misses);
    }

    #[test]
    fn sixty_four_cores_shrink_the_slab() {
        let w = small(Benchmark::Count);
        let c = SsmcConfig {
            cores: 64,
            l1_block: 2048 / 64,
            ..SsmcConfig::default()
        };
        let r = run(&w, &c);
        assert!(r.output_ok);
        assert_eq!(r.dram.bytes_transferred, w.dataset.total_bytes());
    }

    #[test]
    fn prefetches_cover_the_stream() {
        let w = small(Benchmark::Count);
        let r = run(&w, &SsmcConfig::default());
        // Demand misses only happen when the prefetcher was beaten to a
        // block; the stream itself is fully covered either way.
        assert_eq!(
            (r.stats.prefetches + r.stats.demand_fetches) * 64,
            w.dataset.total_bytes()
        );
    }

    #[test]
    fn ssmc_degrades_row_locality_vs_millipede() {
        // SSMC's interleaved block streams cause extra row activations
        // compared to Millipede's one-activation-per-row floor.
        let w = Workload::build(Benchmark::Count, 8, 2048, 11);
        let r = run(&w, &SsmcConfig::default());
        assert!(r.output_ok);
        let rows = w.dataset.layout.total_rows();
        assert!(
            r.dram.activations > rows,
            "expected straying to reactivate rows: {} activations for {} rows",
            r.dram.activations,
            rows
        );
    }
}
