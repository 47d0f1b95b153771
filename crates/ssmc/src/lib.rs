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
use millipede_dram::{DramGeometry, DramTiming};
use millipede_dram::{MemoryController, Request, TimePs};
use millipede_engine::{
    drive, instrument, period_ps_for_mhz, AccessClass, Arena2, CoreStats, DecodedProgram,
    DualClock, FlagGrid, Instrumented, NodeModel, Quiescence, StepEffect, ThreadCtx,
};
use millipede_mapreduce::ThreadGrid;
use millipede_mem::{Cache, Mshr};
use millipede_telemetry::{Telemetry, TelemetryConfig};
use millipede_workloads::Workload;

/// Configuration of one SSMC processor (Table III defaults).
#[derive(Debug, Clone)]
pub struct SsmcConfig {
    /// Cores per processor (Table III: 32).
    pub cores: usize,
    /// Hardware thread contexts per core (Table III: 4).
    pub contexts: usize,
    /// Compute clock in MHz (Table III: 700).
    pub compute_mhz: f64,
    /// L1 D-cache per core in bytes (Table III: 5 KB).
    pub l1_bytes: usize,
    /// L1 line size in bytes (one slab; see module docs).
    pub l1_block: u64,
    /// L1 associativity.
    pub l1_assoc: usize,
    /// MSHR entries per core.
    pub mshrs: usize,
    /// Prefetch lookahead in rows (the next-slab stride prefetcher).
    /// `None` (default) derives the lookahead from the L1's input share —
    /// the stream runs as far ahead as the cache can hold, which is what a
    /// 100%-accurate sequential prefetcher naturally does.
    pub prefetch_degree: Option<u64>,
    /// DRAM channel geometry.
    pub geometry: DramGeometry,
    /// DRAM channel timing.
    pub timing: DramTiming,
    /// FR-FCFS queue depth (Table III: 16).
    pub dram_queue: usize,
    /// Deadlock guard.
    pub max_idle_cycles: u64,
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
            compute_mhz: 700.0,
            l1_bytes: 5 * 1024,
            l1_block: 64,
            l1_assoc: 4,
            mshrs: 4,
            prefetch_degree: None,
            geometry: DramGeometry::default(),
            timing: DramTiming::default(),
            dram_queue: 16,
            max_idle_cycles: 2_000_000,
            fast_forward: true,
            telemetry: TelemetryConfig::from_env(),
        }
    }
}

/// Per-core next-slab stride prefetcher: the input stream of core *c* is
/// its 64 B slab of every sequential row, so the stream stride is one row.
#[derive(Debug, Clone)]
struct SlabPrefetcher {
    /// Next row index whose slab should be prefetched.
    next_row: u64,
    end_row: u64,
    degree: u64,
}

impl SlabPrefetcher {
    fn wanted(&mut self, demand_row: u64) -> Option<u64> {
        if self.next_row < self.end_row && self.next_row <= demand_row + self.degree {
            Some(self.next_row)
        } else {
            None
        }
    }

    fn advance(&mut self) {
        self.next_row += 1;
    }
}

/// Why a core's prefetch pump is parked (pure memoization: a parked pump
/// is one whose probes provably could not issue anything, so re-running it
/// would change no state — see `pump_prefetch`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PfPark {
    /// Probing could issue a prefetch; run the pump.
    Ready,
    /// Blocked on MSHR or DRAM-queue space. Both only free on a channel
    /// edge (a fill completes, or the controller issues a CAS and pops the
    /// request from its queue), which unparks every `Resource` core.
    Resource,
    /// Lookahead window exhausted: nothing to prefetch until `demand_row`
    /// reaches the stored row (`u64::MAX` once the stream has ended).
    Window(u64),
}

struct Core {
    rr: usize,
    l1: Cache,
    mshr: Mshr,
    pf: SlabPrefetcher,
    pf_parked: PfPark,
    /// Highest row any of this core's contexts has demanded.
    demand_row: u64,
}

/// Per-context hot state, struct-of-arrays (see `millipede_engine::arena`):
/// the contexts live core-major in one arena and the done/stalled booleans
/// are one bit mask per core.
struct Threads {
    t: Arena2<ThreadCtx>,
    done: FlagGrid,
    stalled: FlagGrid,
    /// Outstanding burst-retire issue credits per context: a pure-ALU run
    /// executes functionally in one shot and the timing model replays its
    /// cycles by count (see DESIGN.md, "Predecoded interpreter").
    burst: Arena2<u32>,
    /// Stalled on an *in-flight* fill: every scan visit is then a
    /// guaranteed re-miss that changes nothing but the L1 miss counter, so
    /// the scan replays it via [`Cache::recount_miss`] instead of probing.
    /// Cleared by the channel arm when the fill for [`Threads::stall_block`]
    /// lands (after which the slow path handles hit — or re-miss, if the
    /// block was evicted before the context rescanned — exactly as before).
    stall_fast: FlagGrid,
    /// Block base the context is stalled on (valid while `stall_fast`).
    stall_block: Arena2<u64>,
}

/// One SSMC processor's run-loop state, driven by [`millipede_engine::drive`].
struct Node<'a> {
    cfg: &'a SsmcConfig,
    decoded: &'a DecodedProgram,
    image: &'a millipede_mem::InputImage,
    /// Row division is on the demand-probe path; layouts use power-of-two
    /// rows in practice, so the shift is hoisted (divide fallback
    /// otherwise).
    row_shift: Option<u32>,
    row_bytes: u64,
    slab_bytes: u64,
    threads: Threads,
    cores: Vec<Core>,
    mc: MemoryController,
    stats: CoreStats,
    halted: usize,
    total_threads: usize,
    /// L1 misses replayed for fast-forwarded edges so far (stalled
    /// contexts re-probe their missing block every cycle); folded into
    /// `stats.l1_misses` at the end so fast-forward stays bit-exact.
    ff_l1_misses: u64,
    /// L1 misses the last compute edge re-counted (its replayed delta).
    miss_delta: u64,
    slots_per_cycle: u64,
}

impl Node<'_> {
    fn l1_misses(&self) -> u64 {
        self.cores.iter().map(|c| c.l1.stats().misses).sum()
    }
}

impl Instrumented for Node<'_> {
    fn prefix(&self) -> &'static str {
        "ssmc"
    }

    // Quiescence fingerprint (see DESIGN.md, "One driver"):
    // every observable compute-edge mutation either bumps one of these
    // monotone counters (prefetch, stall transition, demand fetch) or
    // advances the monotone prefetcher/demand cursors included in the sum.
    // L1 demand-miss recounting is deliberately excluded — it *does* recur
    // on stalled edges and is replayed via `ff_l1_misses` instead. (Repeat
    // misses never touch LRU state, so only the counter is observable.)
    fn fingerprint(&self) -> u64 {
        let cursors: u64 = self
            .cores
            .iter()
            .map(|c| c.pf.next_row + c.demand_row)
            .sum();
        self.stats.prefetches + self.stats.demand_stalls + self.stats.demand_fetches + cursors
    }

    fn sample_epoch(&self, tel: &mut Telemetry, due: u64, at: TimePs, rewind: u64) {
        let hits: u64 = self.cores.iter().map(|c| c.l1.stats().hits).sum();
        let l1_misses: u64 = self.cores.iter().map(|c| c.l1.stats().misses).sum();
        let misses = l1_misses + self.ff_l1_misses - self.miss_delta * rewind;
        let slots = rewind * self.slots_per_cycle;
        tel.counter("ssmc::l1", "hits", due, at, hits as f64);
        tel.counter("ssmc::l1", "misses", due, at, misses as f64);
        tel.counter(
            "ssmc::core",
            "issue_slots",
            due,
            at,
            (self.stats.issue_slots - slots) as f64,
        );
        tel.counter(
            "ssmc::core",
            "stall_slots",
            due,
            at,
            (self.stats.stall_slots - slots) as f64,
        );
        tel.counter(
            "ssmc::core",
            "demand_stalls",
            due,
            at,
            self.stats.demand_stalls as f64,
        );
        let d = self.mc.stats();
        instrument::sample_dram(tel, due, at, d.row_hits, d.row_misses, self.mc.queue_len());
    }

    fn assert_clean(&self) {
        self.mc
            .timing_audit()
            .assert_clean("SSMC memory controller");
    }
}

impl NodeModel for Node<'_> {
    fn done(&self) -> bool {
        self.halted == self.total_threads
    }

    fn compute_edge(
        &mut self,
        now: TimePs,
        _cycle: u64,
        _clock: &mut DualClock,
        _tel: &mut Telemetry,
    ) -> bool {
        let misses_before = self.l1_misses();
        // The scan takes each piece of state as its own argument, so the
        // optimizer may keep it in registers across the scan.
        let (cfg, decoded, image) = (self.cfg, self.decoded, self.image);
        let (row_shift, row_bytes, slab_bytes) = (self.row_shift, self.row_bytes, self.slab_bytes);
        let Node {
            threads,
            cores,
            mc,
            stats,
            halted,
            ..
        } = self;
        let mut any_issued = false;
        for c in 0..cfg.cores {
            stats.issue_slots += 1;
            if core_tick(
                c, now, cfg, decoded, image, row_shift, row_bytes, slab_bytes, threads, cores, mc,
                stats, halted,
            ) {
                any_issued = true;
            } else {
                stats.stall_slots += 1;
            }
        }
        self.miss_delta = self.l1_misses() - misses_before;
        any_issued
    }

    // Completion tags: core index (slab fills are per-core).
    fn channel_edge(&mut self, now: TimePs, cycle: u64, tel: &mut Telemetry) -> usize {
        let free_before = self.mc.free_slots();
        self.mc.tick(now);
        let completions = self.mc.pop_completed(now);
        let fills = completions.len();
        for comp in completions {
            if !comp.row_hit {
                tel.event(
                    "dram::controller",
                    "row_conflict",
                    cycle,
                    now,
                    (comp.addr / self.row_bytes) as f64,
                );
            }
            let ci = comp.tag as usize;
            let core = &mut self.cores[ci];
            let block = comp.addr;
            core.l1.fill(block);
            core.mshr.complete(block);
            // The fill ends the guaranteed-re-miss regime for any context
            // stalled on this block (see `Threads::stall_fast`).
            let threads = &mut self.threads;
            for x in 0..self.cfg.contexts {
                if threads.stall_fast.get(ci, x) && *threads.stall_block.get(ci, x) == block {
                    threads.stall_fast.set(ci, x, false);
                }
            }
        }
        // A fill frees an MSHR and a CAS issue frees a queue slot; either
        // can unblock a resource-parked prefetch pump.
        if fills > 0 || self.mc.free_slots() > free_before {
            for core in &mut self.cores {
                if core.pf_parked == PfPark::Resource {
                    core.pf_parked = PfPark::Ready;
                }
            }
        }
        fills
    }

    fn next_event_at(&self) -> Option<TimePs> {
        self.mc.next_event_at()
    }

    fn replay(&mut self, skipped: u64) {
        self.ff_l1_misses += self.miss_delta * skipped;
    }

    fn stats_mut(&mut self) -> &mut CoreStats {
        &mut self.stats
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
    // Stream as far ahead as the input share of the L1 can hold (minus a
    // safety margin so demand blocks are not evicted by their own
    // prefetches).
    let degree = cfg
        .prefetch_degree
        .unwrap_or((input_capacity / cfg.l1_block).saturating_sub(4).max(2));

    let slots_per_cycle = cfg.cores as u64;
    let decoded = DecodedProgram::of(&workload.program);
    let mut node = Node {
        cfg,
        decoded: &decoded,
        image: &workload.dataset.image,
        row_shift: row_bytes
            .is_power_of_two()
            .then(|| row_bytes.trailing_zeros()),
        row_bytes,
        slab_bytes,
        threads: Threads {
            t: Arena2::from_fn(cfg.cores, cfg.contexts, |c, x| {
                workload.make_ctx(&grid, c, x)
            }),
            done: FlagGrid::new(cfg.cores, cfg.contexts),
            stalled: FlagGrid::new(cfg.cores, cfg.contexts),
            burst: Arena2::from_fn(cfg.cores, cfg.contexts, |_, _| 0u32),
            stall_fast: FlagGrid::new(cfg.cores, cfg.contexts),
            stall_block: Arena2::from_fn(cfg.cores, cfg.contexts, |_, _| 0u64),
        },
        cores: (0..cfg.cores)
            .map(|_| Core {
                rr: 0,
                l1: Cache::new(input_capacity, cfg.l1_assoc, cfg.l1_block),
                mshr: Mshr::new(cfg.mshrs),
                pf: SlabPrefetcher {
                    next_row: 0,
                    end_row: total_rows,
                    degree,
                },
                pf_parked: PfPark::Ready,
                demand_row: 0,
            })
            .collect(),
        mc: MemoryController::with_capacity(cfg.geometry, cfg.timing, cfg.dram_queue),
        stats: CoreStats::default(),
        halted: 0,
        total_threads: cfg.cores * cfg.contexts,
        ff_l1_misses: 0,
        miss_delta: 0,
        slots_per_cycle,
    };
    let mut clock = DualClock::new(
        period_ps_for_mhz(cfg.compute_mhz),
        cfg.timing.channel_period_ps,
    );
    let mut tel = Telemetry::new(&cfg.telemetry);
    let quiesce = Quiescence::new("SSMC", slots_per_cycle, cfg.max_idle_cycles);
    let driven = drive(&mut node, &mut clock, quiesce, cfg.fast_forward, &mut tel);

    let stats = &mut node.stats;
    stats.compute_cycles = driven.cycles;
    for core in &node.cores {
        stats.l1_hits += core.l1.stats().hits;
        stats.l1_misses += core.l1.stats().misses;
    }
    stats.l1_misses += node.ff_l1_misses;
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

/// One issue attempt for core `c`; returns whether an instruction issued.
///
/// Always inlined into the compute edge's scan: left to the optimizer's
/// inlining choice, compute-bound SSMC points ran ~10% slower.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn core_tick(
    c: usize,
    now: TimePs,
    cfg: &SsmcConfig,
    decoded: &DecodedProgram,
    image: &millipede_mem::InputImage,
    row_shift: Option<u32>,
    row_bytes: u64,
    slab_bytes: u64,
    threads: &mut Threads,
    cores: &mut [Core],
    mc: &mut MemoryController,
    stats: &mut CoreStats,
    halted: &mut usize,
) -> bool {
    // Keep the slab prefetcher running off the leading context's position.
    pump_prefetch(c, now, row_bytes, slab_bytes, cores, mc, stats);

    // Whole-core early-out: a core whose contexts all halted scans nothing
    // (its prefetcher may still be draining the tail of the stream above).
    if threads.done.all_set(c) {
        return false;
    }
    for k in 0..cfg.contexts {
        // `rr + k < 2 × contexts`, so a conditional subtract replaces the
        // hardware divide a `%` would cost on this per-cycle path.
        let mut x = cores[c].rr + k;
        if x >= cfg.contexts {
            x -= cfg.contexts;
        }
        if threads.done.get(c, x) {
            continue;
        }
        if threads.stall_fast.get(c, x) {
            // Stalled on an in-flight fill: the full probe would recount
            // one L1 miss and change nothing else, so replay just that.
            cores[c].l1.recount_miss();
            continue;
        }
        // Charge one banked burst cycle: the instructions already executed
        // functionally, so the context always issues until credits drain.
        {
            let credits = threads.burst.get_mut(c, x);
            if *credits > 0 {
                *credits -= 1;
                stats.instructions += 1;
                stats.issues += 1;
                cores[c].rr = if x + 1 == cfg.contexts { 0 } else { x + 1 };
                return true;
            }
        }
        if decoded.access_class(threads.t.get(c, x).pc) == AccessClass::InputLoad {
            let addr = decoded.mem_addr_at(threads.t.get(c, x));
            let core = &mut cores[c];
            let drow = match row_shift {
                Some(s) => addr >> s,
                None => addr / row_bytes,
            };
            core.demand_row = core.demand_row.max(drow);
            if core.l1.access(addr) {
                commit(c, x, threads, decoded, image, stats, halted, Some(addr));
                cores[c].rr = if x + 1 == cfg.contexts { 0 } else { x + 1 };
                return true;
            }
            // Miss: merge into an in-flight fill or start a demand fetch.
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
            if !threads.stalled.get(c, x) {
                threads.stalled.set(c, x, true);
                stats.demand_stalls += 1;
            }
            if core.mshr.pending(block) {
                // Fill in flight (just allocated, merged, or a racing
                // prefetch): retries are pure re-misses until it lands.
                threads.stall_fast.set(c, x, true);
                *threads.stall_block.get_mut(c, x) = block;
            }
            continue;
        }
        commit(c, x, threads, decoded, image, stats, halted, None);
        cores[c].rr = if x + 1 == cfg.contexts { 0 } else { x + 1 };
        return true;
    }
    false
}

/// Issues slab prefetches for core `c` up to its lookahead, as MSHR and
/// DRAM-queue space allow.
fn pump_prefetch(
    c: usize,
    now: TimePs,
    row_bytes: u64,
    slab_bytes: u64,
    cores: &mut [Core],
    mc: &mut MemoryController,
    stats: &mut CoreStats,
) {
    let core = &mut cores[c];
    // Parked pumps are provably no-ops (the park reason still holds), so
    // skip their probes entirely — bit-exact by construction.
    match core.pf_parked {
        PfPark::Resource => return,
        PfPark::Window(need) if core.demand_row < need => return,
        _ => core.pf_parked = PfPark::Ready,
    }
    let demand_row = core.demand_row;
    loop {
        let Some(row) = core.pf.wanted(demand_row) else {
            // Window exhausted: park until the demand cursor catches up
            // (forever, once the stream has ended — `wanted` can then
            // never fire again regardless of `demand_row`).
            core.pf_parked = PfPark::Window(if core.pf.next_row >= core.pf.end_row {
                u64::MAX
            } else {
                core.pf.next_row.saturating_sub(core.pf.degree)
            });
            return;
        };
        let block = row * row_bytes + c as u64 * slab_bytes;
        if core.l1.contains(block) || core.mshr.pending(block) {
            core.pf.advance();
            continue;
        }
        if core.mshr.is_full() || mc.free_slots() == 0 {
            core.pf_parked = PfPark::Resource;
            return;
        }
        let req = Request {
            addr: block,
            bytes: slab_bytes,
            tag: c as u64,
        };
        if mc.try_push(req, now).is_err() {
            core.pf_parked = PfPark::Resource;
            return;
        }
        core.mshr.allocate_prefetch(block);
        core.pf.advance();
        stats.prefetches += 1;
    }
}

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
        // Pure-ALU run: execute it all now, bank the remaining cycles as
        // issue credits so the timing schedule is unchanged.
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
    let effect = committed.unwrap_or_else(|trap| panic!("kernel trap on core {c} ctx {x}: {trap}"));
    stats.instructions += 1;
    stats.issues += 1;
    match effect {
        StepEffect::Branch { .. } => stats.branches += 1,
        StepEffect::InputLoad { .. } => stats.input_loads += 1,
        StepEffect::LocalLoad { .. } => stats.local_loads += 1,
        StepEffect::LocalStore { .. } => stats.local_stores += 1,
        StepEffect::Halt => {
            threads.done.set(c, x, true);
            *halted += 1;
        }
        _ => {}
    }
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
    fn fast_forward_is_bit_exact() {
        for bench in [Benchmark::Count, Benchmark::Variance] {
            let w = small(bench);
            let slow = run(
                &w,
                &SsmcConfig {
                    fast_forward: false,
                    ..SsmcConfig::default()
                },
            );
            let fast = run(&w, &SsmcConfig::default());
            assert_eq!(slow.stats.ff_skipped_cycles, 0);
            assert_eq!(slow.profile.sleeps, 0, "{bench:?}: walked run jumped");
            assert!(
                fast.stats.ff_skipped_cycles > 0 && fast.profile.sleeps > 0,
                "{bench:?}: fast-forward never engaged"
            );
            let mut fs = fast.stats.clone();
            fs.ff_skipped_cycles = 0;
            assert_eq!(fs, slow.stats, "{bench:?}: stats diverged");
            assert_eq!(fast.dram, slow.dram, "{bench:?}: DRAM stats diverged");
            assert_eq!(fast.elapsed_ps, slow.elapsed_ps);
            assert_eq!(fast.output, slow.output);
        }
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
