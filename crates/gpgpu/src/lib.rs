//! GPGPU / VWS baseline architectures (§II, §III-E, §V of the paper).
//!
//! One streaming multiprocessor (SM) with 32 lanes and 4-way warp
//! multithreading — the same 128 hardware threads, record assignment
//! excepted, as a 32-corelet Millipede processor:
//!
//! * **GPGPU** — 32-wide warps. Input loads coalesce into 128 B L1 blocks
//!   (the word-interleaved assignment makes every warp access contiguous);
//!   live state sits in banked Shared Memory striped per thread so the
//!   kernels' indirect accesses are conflict-free (§III-E). Data-dependent
//!   branches serialize through the IPDOM stack — the GPGPU's fundamental
//!   BMLA problem.
//! * **VWS** — Variable Warp Sizing \[41\]: dynamically narrows warps when
//!   divergence hurts. The paper observes VWS always converges to 4-wide
//!   warps on BMLAs; we model that converged operating point (8 clusters of
//!   4 lanes, each issuing one 4-wide warp per cycle).
//! * **VWS-row** — VWS plus Millipede's row-orientedness and flow control
//!   grafted on (the paper's generality experiment): input loads are served
//!   from a row prefetch buffer whose consumer groups are the warps.
//!
//! All three share this module; [`GpgpuConfig`] selects the variant.

#![warn(missing_docs)]

pub mod config;
pub mod vws;
pub mod warp;

pub use config::{GpgpuConfig, L1_BLOCK, L1_BYTES, SHARED_BANKS};

use config::{L1_ASSOC, MSHRS, PREFETCH_DEGREE};
use millipede_core::pbuf::{Lookup, RowPrefetchBuffer};
use millipede_core::NodeResult;
use millipede_dram::{Completion, MemoryController, Request, TimePs};
use millipede_engine::{
    drive, period_ps_for_mhz, AccessClass, CoreStats, CreditScan, DecodedProgram, DualClock,
    NodeModel, Quiescence, StepEffect, ThreadCtx, COMPUTE_MHZ, RUN_AHEAD_CAP,
};
use millipede_isa::ReconvergenceMap;
use millipede_mapreduce::ThreadGrid;
use millipede_mem::{
    coalesce_blocks, Cache, Mshr, SequentialPrefetcher, SharedMemoryBanks, MAX_LANES,
};
use millipede_telemetry::Telemetry;
use millipede_workloads::Workload;
use warp::Warp;

const TAG_PREFETCH_BASE: u64 = 1 << 40;
const TAG_BLOCK_FILL: u64 = 1 << 41;
/// How far the block prefetcher runs past the farthest demanded block.
const LOOKAHEAD: u64 = PREFETCH_DEGREE * L1_BLOCK;

struct Sm {
    threads: Vec<ThreadCtx>,
    warps: Vec<Warp>,
    /// Outstanding memory fills per warp.
    outstanding: Vec<u32>,
    /// Warp busy (shared-memory serialization) until this cycle.
    busy_until: Vec<u64>,
    /// Outstanding issue credits per warp: a lockstep run executes
    /// functionally in one go and the timing model charges its issue slots
    /// by count (see DESIGN.md, "Run-ahead").
    burst: Vec<u32>,
    /// Live lanes of each warp's in-flight run, for per-slot charge
    /// accounting (instructions and lane-idle replay).
    burst_lanes: Vec<u64>,
    /// Issue slots paid from `burst` credits (host observability).
    credit_issues: u64,
    /// Per cluster, the warp slot its round-robin scan starts from.
    rr: Vec<usize>,
    l1: Cache,
    mshr: Mshr,
    shared: SharedMemoryBanks,
    /// The shared L1 load/store port is busy until this cycle (multi-block
    /// coalesced accesses occupy it for one cycle per transaction).
    lsu_busy_until: u64,
    /// Block prefetcher over the whole input (non-row-oriented variants).
    pf: SequentialPrefetcher,
}

impl Sm {
    /// Whether warp `wi` keeps the credit invariant at `cycle`: a warp
    /// holding issue credits is mid-run, so it has no outstanding fills,
    /// no pending bank-conflict wait, and live lanes. `cluster_tick`
    /// debug-asserts it on every warp it reaches.
    fn credits_consistent(&self, wi: usize, cycle: u64) -> bool {
        self.burst[wi] == 0
            || (self.outstanding[wi] == 0
                && self.busy_until[wi] <= cycle
                && !self.warps[wi].finished())
    }

    /// Starts `cluster`'s next round-robin scan at the warp slot after
    /// `slot`, the one that just issued.
    fn rotate_past(&mut self, cluster: usize, slot: usize, warps_in_cluster: usize) {
        self.rr[cluster] = if slot + 1 == warps_in_cluster {
            0
        } else {
            slot + 1
        };
    }
}

/// The Shared Memory address lane `thread`'s access to its live-state byte
/// `addr` lands on: live state is striped per thread (§III-E), so thread
/// *t*'s words sit in bank *t* mod [`SHARED_BANKS`].
#[inline]
fn striped_addr(thread: usize, addr: u64) -> u64 {
    let banks = SHARED_BANKS as u64;
    (addr / 4) * (banks * 4) + (thread as u64 % banks) * 4
}

/// One SM's run-loop state, driven by [`millipede_engine::drive`].
struct Node<'a> {
    cfg: &'a GpgpuConfig,
    decoded: &'a DecodedProgram,
    image: &'a millipede_mem::InputImage,
    rm: ReconvergenceMap,
    row_bytes: u64,
    sm: Sm,
    pbuf: Option<RowPrefetchBuffer>,
    /// Counted live by the scan, L1 probes included (`stats.l1_hits`,
    /// `stats.l1_misses`), so the driver can replay them over a jump.
    stats: CoreStats,
    live_warps: usize,
}

impl NodeModel for Node<'_> {
    // Quiescence fingerprint (see DESIGN.md, "One driver"):
    // every observable compute-edge mutation either bumps one of these
    // monotone counters/cursors or is a per-retry-edge recount
    // (demand_stalls, L1 hit/miss probes) that the driver replays by count
    // instead. `outstanding` catches MSHR secondary
    // allocations, which bump no statistic. Warp wakeup timers
    // (`busy_until`, `lsu_busy_until`) are cycle-keyed and independent of
    // memory, so fast-forward is gated off entirely while any is pending.
    fn fingerprint(&self) -> u64 {
        let pbuf_sum = self.pbuf.as_ref().map_or(0, |p| {
            let s = p.stats();
            s.prefetches + s.flow_blocks + s.premature_evictions
        });
        let outstanding: u64 = self.sm.outstanding.iter().map(|&n| u64::from(n)).sum();
        self.stats.prefetches
            + self.stats.demand_fetches
            + self.sm.pf.cursor()
            + self.sm.pf.limit()
            + outstanding
            + pbuf_sum
    }

    fn credit_issues(&self) -> u64 {
        self.sm.credit_issues
    }

    // Per cluster, as for the MIMD contexts (see DESIGN.md, "Credit
    // jump"); `may_jump` has already ruled out pending busy timers.
    fn credit_horizon(&mut self) -> u64 {
        let (clusters, warps) = (self.cfg.clusters(), self.warps_per_cluster());
        let mut horizon = u64::MAX;
        for cluster in 0..clusters {
            let (run, _) = self.scan_masks(cluster);
            let scan = CreditScan::new(run, self.sm.rr[cluster], warps);
            let burst = &self.sm.burst;
            horizon = horizon.min(scan.horizon(|slot| u64::from(burst[cluster + clusters * slot])));
            if horizon == 0 {
                break;
            }
        }
        horizon
    }

    fn pay_credits(&mut self, edges: u64) {
        let (clusters, warps) = (self.cfg.clusters(), self.warps_per_cluster());
        let width = self.cfg.warp_width as u64;
        for cluster in 0..clusters {
            let (run, recount) = self.scan_masks(cluster);
            let scan = CreditScan::new(run, self.sm.rr[cluster], warps);
            let Node { sm, stats, .. } = self;
            let (last, passes) = scan.pay(edges, recount, |slot, taken| {
                let wi = cluster + clusters * slot;
                // audit:allow(cast-truncation): at most the u32 credits it is taken from
                sm.burst[wi] -= taken as u32;
                stats.instructions += taken * sm.burst_lanes[wi];
                stats.lane_idle += taken * (width - sm.burst_lanes[wi]);
            });
            if let Some(slot) = last {
                sm.rotate_past(cluster, slot, warps);
                sm.credit_issues += edges;
                stats.issues += edges;
            }
            stats.demand_stalls += passes;
        }
    }

    fn sample_epoch(&self, tel: &mut Telemetry, due: u64, at: TimePs) {
        tel.counter("gpgpu::sm", "l1_hits", due, at, self.stats.l1_hits as f64);
        tel.counter(
            "gpgpu::sm",
            "l1_misses",
            due,
            at,
            self.stats.l1_misses as f64,
        );
        if let Some(pbuf) = &self.pbuf {
            tel.counter("gpgpu::pbuf", "occupancy", due, at, pbuf.occupancy() as f64);
        }
    }

    fn assert_clean(&self) {
        if let Some(pbuf) = &self.pbuf {
            pbuf.audit().assert_clean("VWS-row prefetch buffer");
        }
    }

    fn done(&self) -> bool {
        self.live_warps == 0
    }

    fn compute_edge(
        &mut self,
        now: TimePs,
        cycle: u64,
        _clock: &mut DualClock,
        mc: &mut MemoryController,
        _tel: &mut Telemetry,
    ) -> u64 {
        if let Some(pbuf) = self.pbuf.as_mut() {
            self.stats.prefetches += pbuf.pump(mc, now, self.row_bytes, TAG_PREFETCH_BASE);
        } else {
            let Sm { l1, mshr, pf, .. } = &mut self.sm;
            let stats = &mut self.stats;
            pf.pump(l1, mshr, |block| {
                let req = Request {
                    addr: block,
                    bytes: L1_BLOCK,
                    tag: TAG_BLOCK_FILL,
                };
                let pushed = mc.free_slots() > 0 && mc.try_push(req, now).is_ok();
                stats.prefetches += u64::from(pushed);
                pushed
            });
        }
        // The scan takes each piece of state as its own argument, so the
        // optimizer may keep it in registers across the scan.
        let (cfg, decoded, image, row_bytes) = (self.cfg, self.decoded, self.image, self.row_bytes);
        let Node {
            rm,
            sm,
            pbuf,
            stats,
            live_warps,
            ..
        } = self;
        let mut issued = 0;
        for cluster in 0..cfg.clusters() {
            issued += u64::from(cluster_tick(
                cluster,
                cycle,
                now,
                cfg,
                decoded,
                image,
                rm,
                row_bytes,
                sm,
                pbuf.as_mut(),
                mc,
                stats,
                live_warps,
            ));
        }
        issued
    }

    fn channel_edge(&mut self, _now: TimePs, fills: &[Completion], _queue_freed: bool) {
        for comp in fills {
            if comp.tag >= TAG_BLOCK_FILL {
                let sm = &mut self.sm;
                sm.l1.fill(comp.addr);
                for waiter in sm.mshr.complete(comp.addr) {
                    sm.outstanding[waiter as usize] -= 1;
                }
            } else {
                let slot = (comp.tag - TAG_PREFETCH_BASE) as usize;
                self.pbuf
                    .as_mut()
                    // audit:allow(unwrap-in-hot-path): prefetch tags are only issued when a pbuf exists
                    .expect("row fill completed on an SM without a prefetch buffer")
                    .fill_complete(slot);
            }
        }
    }

    // Warp wakeup timers are cycle-keyed, not memory events: no jump while
    // any is pending.
    fn may_jump(&self, cycle: u64) -> bool {
        self.sm.lsu_busy_until <= cycle && self.sm.busy_until.iter().all(|&b| b <= cycle)
    }

    fn stats_mut(&mut self) -> &mut CoreStats {
        &mut self.stats
    }
}

impl<'a> Node<'a> {
    fn warps_per_cluster(&self) -> usize {
        self.cfg.num_warps() / self.cfg.clusters()
    }

    /// `cluster`'s warp slots its scan acts on, and those it recounts. It
    /// passes warps waiting on fills and finished warps, and recounts a
    /// demand stall for each VWS-row warp whose input row is still filling
    /// or ahead of the prefetch stream. Settles the stack of each warp
    /// with no credits, as the scan's own visit would.
    fn scan_masks(&mut self, cluster: usize) -> (u64, u64) {
        let clusters = self.cfg.clusters();
        let (mut run, mut recount) = (0, 0);
        for slot in 0..self.warps_per_cluster() {
            let wi = cluster + clusters * slot;
            let bit = 1u64 << slot;
            if self.sm.outstanding[wi] > 0 {
                continue;
            }
            if self.sm.burst[wi] > 0 {
                run |= bit;
                continue;
            }
            let Some((pc, live)) = self.sm.warps[wi].current() else {
                continue;
            };
            if self.row_stall_is_stable(wi, pc, live) {
                recount |= bit;
            } else {
                run |= bit;
            }
        }
        (run, recount)
    }

    /// Whether VWS-row warp `wi`, about to issue `pc` on lanes `live`, would
    /// only recount its stall: an input load whose row is still filling or
    /// ahead of the prefetch stream (flow control is always on).
    fn row_stall_is_stable(&self, wi: usize, pc: u32, live: u64) -> bool {
        let Some(pbuf) = &self.pbuf else {
            return false;
        };
        if self.decoded.access_class(pc) != AccessClass::InputLoad {
            return false;
        }
        let lane = self.sm.warps[wi].first_thread + live.trailing_zeros() as usize;
        let row = self.decoded.mem_addr_at(&self.sm.threads[lane]) / self.row_bytes;
        matches!(pbuf.lookup(row), Lookup::Filling | Lookup::Future)
    }

    /// The run-loop state of `workload` on one SM configured by `cfg`,
    /// with its threads assigned records by `grid`.
    fn new(
        workload: &'a Workload,
        cfg: &'a GpgpuConfig,
        grid: &ThreadGrid,
        decoded: &'a DecodedProgram,
    ) -> Node<'a> {
        assert_eq!(
            cfg.lanes % cfg.warp_width,
            0,
            "lanes must divide into warps"
        );
        let layout = workload.dataset.layout;
        let row_bytes = layout.row_bytes;
        let total_rows = layout.total_rows();

        let num_warps = cfg.num_warps();
        let words_per_warp_per_row = (layout.row_words() / num_warps) as u32;
        let pbuf = cfg.row_oriented.then(|| {
            RowPrefetchBuffer::new(
                cfg.pbuf_entries,
                num_warps,
                words_per_warp_per_row,
                total_rows,
                true,
            )
        });

        // Threads in linear (grid thread-index) order: warp w covers
        // [w*width, (w+1)*width).
        let threads: Vec<ThreadCtx> = {
            let mut slots: Vec<Option<ThreadCtx>> = (0..cfg.threads()).map(|_| None).collect();
            for lane in 0..cfg.lanes {
                for warp_slot in 0..cfg.contexts {
                    slots[grid.thread_index(lane, warp_slot)] =
                        Some(workload.make_ctx(grid, lane, warp_slot));
                }
            }
            // audit:allow(unwrap-in-hot-path): thread_index is a bijection over the grid
            slots.into_iter().map(|s| s.expect("dense index")).collect()
        };
        let sm = Sm {
            warps: (0..num_warps)
                .map(|w| Warp::new(w * cfg.warp_width, cfg.warp_width))
                .collect(),
            outstanding: vec![0; num_warps],
            busy_until: vec![0; num_warps],
            burst: vec![0; num_warps],
            burst_lanes: vec![0; num_warps],
            credit_issues: 0,
            rr: vec![0; cfg.clusters()],
            threads,
            l1: Cache::new(L1_BYTES, L1_ASSOC, L1_BLOCK),
            mshr: Mshr::new(MSHRS),
            shared: SharedMemoryBanks::new(SHARED_BANKS),
            lsu_busy_until: 0,
            pf: SequentialPrefetcher::new(0, L1_BLOCK, layout.total_bytes(), LOOKAHEAD),
        };

        Node {
            cfg,
            decoded,
            image: &workload.dataset.image,
            rm: ReconvergenceMap::compute(&workload.program),
            row_bytes,
            sm,
            pbuf,
            stats: CoreStats::default(),
            live_warps: num_warps,
        }
    }
}

/// Runs `workload` to completion on one SM.
///
/// # Panics
///
/// Panics on kernel traps or simulated deadlock.
pub fn run(workload: &Workload, cfg: &GpgpuConfig) -> NodeResult {
    let grid = if cfg.wide_columns {
        ThreadGrid::block_columns(cfg.lanes, cfg.contexts)
    } else {
        ThreadGrid::coalesced(cfg.lanes, cfg.contexts)
    };
    let decoded = DecodedProgram::of(&workload.program);
    let mut node = Node::new(workload, cfg, &grid, &decoded);
    let mut mc = MemoryController::new(cfg.geometry, cfg.timing);
    let mut clock = DualClock::new(period_ps_for_mhz(COMPUTE_MHZ), cfg.timing.channel_period_ps);
    let mut tel = Telemetry::new(&cfg.telemetry);
    let quiesce = Quiescence::new("GPGPU", cfg.clusters() as u64);
    let driven = drive(
        &mut node,
        &mut clock,
        &mut mc,
        quiesce,
        cfg.fast_forward,
        &mut tel,
    );

    let stats = &mut node.stats;
    stats.shared_passes = node.sm.shared.passes();
    if let Some(pbuf) = &node.pbuf {
        stats.flow_blocks = pbuf.stats().flow_blocks;
        stats.premature_evictions = pbuf.stats().premature_evictions;
    }

    // Reduce in the grid's (corelet=lane, context=warp-slot) order.
    let states: Vec<&[u32]> = (0..cfg.lanes)
        .flat_map(|lane| (0..cfg.contexts).map(move |x| grid.thread_index(lane, x)))
        .map(|t| node.sm.threads[t].local.words())
        .collect();
    NodeResult::finish(
        workload,
        &grid,
        &states,
        node.stats,
        mc.stats().clone(),
        driven,
        tel,
    )
}

/// One issue attempt for `cluster`; returns whether a warp issued.
#[allow(clippy::too_many_arguments)]
fn cluster_tick(
    cluster: usize,
    cycle: u64,
    now: TimePs,
    cfg: &GpgpuConfig,
    decoded: &DecodedProgram,
    image: &millipede_mem::InputImage,
    rm: &ReconvergenceMap,
    row_bytes: u64,
    sm: &mut Sm,
    mut pbuf: Option<&mut RowPrefetchBuffer>,
    mc: &mut MemoryController,
    stats: &mut CoreStats,
    live_warps: &mut usize,
) -> bool {
    let clusters = cfg.clusters();
    let warps_in_cluster = cfg.num_warps() / clusters;
    for k in 0..warps_in_cluster {
        // `rr + k < 2 × warps_in_cluster`, so conditional subtracts replace
        // the hardware divides `%` would cost on this per-cycle path.
        let mut slot = sm.rr[cluster] + k;
        if slot >= warps_in_cluster {
            slot -= warps_in_cluster;
        }
        let wi = cluster + clusters * slot;
        debug_assert!(
            sm.credits_consistent(wi, cycle),
            "warp {wi} holds credits it cannot pay"
        );
        if sm.outstanding[wi] > 0 || sm.busy_until[wi] > cycle {
            continue;
        }
        // Charge one banked run credit before consulting the IPDOM stack:
        // the run's instructions already executed (and its path may already
        // have reached reconvergence), so the stack must not be touched
        // until every credit is repaid.
        if sm.burst[wi] > 0 {
            sm.burst[wi] -= 1;
            sm.credit_issues += 1;
            stats.instructions += sm.burst_lanes[wi];
            stats.issues += 1;
            stats.lane_idle += cfg.warp_width as u64 - sm.burst_lanes[wi];
            sm.rotate_past(cluster, slot, warps_in_cluster);
            return true;
        }
        let Some((pc, live)) = sm.warps[wi].current() else {
            continue;
        };
        debug_assert_ne!(live, 0);
        if try_issue_warp(
            wi,
            pc,
            live,
            cycle,
            now,
            cfg,
            decoded,
            image,
            rm,
            row_bytes,
            sm,
            pbuf.as_deref_mut(),
            mc,
            stats,
        ) {
            if sm.warps[wi].done() {
                *live_warps -= 1;
            }
            sm.rotate_past(cluster, slot, warps_in_cluster);
            return true;
        }
    }
    false
}

/// Attempts to issue warp `wi` at `pc` with active mask `live`.
///
/// When the instruction is eligible the warp runs ahead in lockstep
/// ([`DecodedProgram::run_ahead`]): the run executes now, its
/// branches, local accesses and Shared Memory accesses are counted as they
/// run, and every instruction after the issuing one is banked as an issue
/// credit. Input loads, barriers, halts, divergent branches and serializing
/// or trapping local accesses fire in their own slot below.
#[allow(clippy::too_many_arguments)]
fn try_issue_warp(
    wi: usize,
    pc: u32,
    live: u64,
    cycle: u64,
    now: TimePs,
    cfg: &GpgpuConfig,
    decoded: &DecodedProgram,
    image: &millipede_mem::InputImage,
    rm: &ReconvergenceMap,
    row_bytes: u64,
    sm: &mut Sm,
    pbuf: Option<&mut RowPrefetchBuffer>,
    mc: &mut MemoryController,
    stats: &mut CoreStats,
) -> bool {
    // Lane sets come straight from the `live` mask: the branch arm walks
    // its set bits with `trailing_zeros` and never materializes a lane
    // list; the other arms build one in a stack buffer (`live_threads`;
    // warp width is at most 64 — heap allocations here dominated the
    // wall-clock profile).
    let first = sm.warps[wi].first_thread;
    let lane_count = live.count_ones() as usize;
    debug_assert!(
        sm.warps[wi]
            .threads_of(live)
            .all(|t| sm.threads[t].pc == pc),
        "warp threads out of sync"
    );

    let class = decoded.access_class(pc);
    if !matches!(
        class,
        AccessClass::InputLoad | AccessClass::Barrier | AccessClass::Halt
    ) {
        let reconv = sm.warps[wi].current_reconv();
        let Sm {
            threads, shared, ..
        } = &mut *sm;
        let lanes = &mut threads[first..first + cfg.warp_width];
        let run = decoded.run_ahead(lanes, live, reconv, RUN_AHEAD_CAP, |idx, addrs| {
            let mut keys = [0u64; MAX_LANES];
            for (k, (&i, &a)) in keys.iter_mut().zip(idx.iter().zip(addrs)) {
                *k = striped_addr(first + i, a);
            }
            let conflict_free = shared.passes_of(&keys[..idx.len()]) == 1;
            if conflict_free {
                shared.record(1);
            }
            conflict_free
        });
        if run.instructions > 0 {
            let lanes = lane_count as u64;
            stats.branches += u64::from(run.branches) * lanes;
            stats.local_loads += u64::from(run.local_loads) * lanes;
            stats.local_stores += u64::from(run.local_stores) * lanes;
            let end = sm.threads[first + live.trailing_zeros() as usize].pc;
            sm.warps[wi].advance_to(end);
            sm.burst[wi] = run.instructions - 1;
            sm.burst_lanes[wi] = lanes;
            stats.instructions += lanes;
            stats.issues += 1;
            stats.lane_idle += cfg.warp_width as u64 - lanes;
            return true;
        }
    }

    match class {
        AccessClass::InputLoad => {
            if sm.lsu_busy_until > cycle {
                // The L1 port is still draining a previous multi-block
                // access; the warp retries next cycle (address computation
                // is pure, so checking the port first is bit-exact).
                stats.demand_stalls += 1;
                return false;
            }
            let mut lanes_buf = [0usize; MAX_LANES];
            let lanes = live_threads(first, live, &mut lanes_buf);
            let mut addrs_buf = [0u64; MAX_LANES];
            for (a, &t) in addrs_buf.iter_mut().zip(lanes) {
                *a = decoded.mem_addr_at(&sm.threads[t]);
            }
            let addrs = &addrs_buf[..lane_count];
            if let Some(pbuf) = pbuf {
                // VWS-row: all of a warp's addresses fall in one row.
                let row = addrs[0] / row_bytes;
                debug_assert!(addrs.iter().all(|a| a / row_bytes == row));
                match pbuf.lookup(row) {
                    Lookup::Ready { slot } => {
                        for _ in lanes {
                            pbuf.consume(slot, wi);
                        }
                        stats.pbuf_hits += lanes.len() as u64;
                        exec_lanes(wi, lanes, sm, decoded, image, stats, cfg);
                        true
                    }
                    Lookup::Filling | Lookup::Future => {
                        stats.demand_stalls += 1;
                        false
                    }
                    Lookup::Evicted => unreachable!("flow control is on for VWS-row"),
                }
            } else {
                let mut blocks_buf = [0u64; MAX_LANES];
                let blocks = coalesce_blocks(addrs, L1_BLOCK, &mut blocks_buf);
                if let Some(far) = blocks.iter().copied().max() {
                    sm.pf.raise_limit(far.saturating_add(LOOKAHEAD));
                }
                let mut missing_buf = [0u64; MAX_LANES];
                let mut missing_count = 0;
                for &b in blocks {
                    if sm.l1.access(b) {
                        stats.l1_hits += 1;
                    } else {
                        stats.l1_misses += 1;
                        missing_buf[missing_count] = b;
                        missing_count += 1;
                    }
                }
                if missing_count == 0 {
                    // Each additional coalesced transaction occupies the
                    // shared L1 port for another cycle — the cost of an
                    // uncoalesceable layout (§IV-C).
                    if blocks.len() > 1 {
                        sm.lsu_busy_until = cycle + blocks.len() as u64 - 1;
                    }
                    exec_lanes(wi, lanes, sm, decoded, image, stats, cfg);
                    return true;
                }
                for &block in &missing_buf[..missing_count] {
                    if sm.mshr.pending(block) {
                        sm.mshr.allocate(block, wi as u64);
                        sm.outstanding[wi] += 1;
                    } else if !sm.mshr.is_full() && mc.free_slots() > 0 {
                        let req = Request {
                            addr: block,
                            bytes: L1_BLOCK,
                            tag: TAG_BLOCK_FILL,
                        };
                        if mc.try_push(req, now).is_ok() {
                            sm.mshr.allocate(block, wi as u64);
                            sm.outstanding[wi] += 1;
                            stats.demand_fetches += 1;
                        }
                    }
                }
                stats.demand_stalls += 1;
                false
            }
        }
        AccessClass::LocalLoad | AccessClass::LocalStore => {
            // A local access the run-ahead refused: it serializes into
            // several Shared Memory passes (the warp waits them out), or a
            // lane traps on it.
            let mut lanes_buf = [0usize; MAX_LANES];
            let lanes = live_threads(first, live, &mut lanes_buf);
            let mut bank_buf = [0u64; MAX_LANES];
            for (b, &t) in bank_buf.iter_mut().zip(lanes) {
                *b = striped_addr(t, decoded.mem_addr_at(&sm.threads[t]));
            }
            let passes = sm.shared.passes_of(&bank_buf[..lane_count]);
            sm.shared.record(passes);
            if passes > 1 {
                sm.busy_until[wi] = cycle + u64::from(passes) - 1;
            }
            exec_lanes(wi, lanes, sm, decoded, image, stats, cfg);
            true
        }
        AccessClass::Branch => {
            // A divergent branch (the run-ahead takes uniform ones): the
            // warp splits on the IPDOM stack.
            let mut taken_mask = 0u64;
            let mut nt_mask = 0u64;
            let mut target = 0u32;
            let mut m = live;
            while m != 0 {
                let i = m.trailing_zeros();
                m &= m - 1;
                let t = first + i as usize;
                let effect = decoded
                    .commit(&mut sm.threads[t], image)
                    .unwrap_or_else(|trap| panic!("kernel trap thread {t}: {trap}"));
                stats.instructions += 1;
                stats.branches += 1;
                match effect {
                    StepEffect::Branch { taken } => {
                        let bit = 1u64 << i;
                        if taken {
                            taken_mask |= bit;
                            target = sm.threads[t].pc;
                        } else {
                            nt_mask |= bit;
                        }
                    }
                    other => unreachable!("branch stepped to {other:?}"),
                }
            }
            stats.issues += 1;
            stats.lane_idle += (cfg.warp_width - lane_count) as u64;
            if nt_mask == 0 {
                sm.warps[wi].advance_to(target);
            } else if taken_mask == 0 {
                sm.warps[wi].advance_to(pc + 1);
            } else {
                stats.divergent_branches += 1;
                sm.warps[wi].diverge(taken_mask, target, nt_mask, pc + 1, rm.reconvergence_pc(pc));
            }
            true
        }
        // Barriers and halts commit here. ALU ops and jumps never do:
        // `Warp::current` settles any path sitting at its reconvergence PC,
        // and the run-ahead above executes at least one of them under a
        // non-zero cap. The check is a debug assert because an arm of its
        // own changes the register allocation of the whole inlined issue
        // path in release builds.
        AccessClass::Barrier | AccessClass::Halt | AccessClass::Alu | AccessClass::Jump => {
            debug_assert!(
                matches!(class, AccessClass::Barrier | AccessClass::Halt),
                "an ALU op or jump always runs ahead"
            );
            let mut lanes_buf = [0usize; MAX_LANES];
            let lanes = live_threads(first, live, &mut lanes_buf);
            exec_lanes(wi, lanes, sm, decoded, image, stats, cfg);
            true
        }
    }
}

/// Writes the thread index of every lane set in `live`, lowest lane first,
/// into `buf` and returns them; `first` is the warp's first thread.
#[inline]
fn live_threads(first: usize, live: u64, buf: &mut [usize; MAX_LANES]) -> &[usize] {
    let mut m = live;
    let mut j = 0;
    while m != 0 {
        buf[j] = first + m.trailing_zeros() as usize;
        m &= m - 1;
        j += 1;
    }
    &buf[..j]
}

/// Commits one (non-branch) instruction on every selected lane and advances
/// the warp.
#[allow(clippy::too_many_arguments)]
fn exec_lanes(
    wi: usize,
    lanes: &[usize],
    sm: &mut Sm,
    decoded: &DecodedProgram,
    image: &millipede_mem::InputImage,
    stats: &mut CoreStats,
    cfg: &GpgpuConfig,
) {
    let first = sm.warps[wi].first_thread;
    let mut next_pc = None;
    let mut any_live = false;
    for &t in lanes {
        let effect = decoded
            .commit(&mut sm.threads[t], image)
            .unwrap_or_else(|trap| panic!("kernel trap thread {t}: {trap}"));
        stats.instructions += 1;
        match effect {
            StepEffect::InputLoad { .. } => stats.input_loads += 1,
            StepEffect::LocalLoad { .. } => stats.local_loads += 1,
            StepEffect::LocalStore { .. } => stats.local_stores += 1,
            StepEffect::Halt => {
                sm.warps[wi].halt_thread(t - first);
            }
            _ => {}
        }
        if !sm.threads[t].halted {
            next_pc = Some(sm.threads[t].pc);
            any_live = true;
        }
    }
    stats.issues += 1;
    stats.lane_idle += (cfg.warp_width - lanes.len()) as u64;
    if any_live {
        // audit:allow(unwrap-in-hot-path): any_live guarantees a surviving pc
        sm.warps[wi].advance_to(next_pc.expect("live thread has a pc"));
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
    fn gpgpu_count_runs_and_validates() {
        let r = run(&small(Benchmark::Count), &GpgpuConfig::gpgpu());
        assert!(r.output_ok);
        assert!(
            r.stats.divergent_branches > 0,
            "count's 75/25 branch diverges"
        );
        assert!(r.stats.lane_idle > 0);
    }

    #[test]
    fn gpgpu_nbayes_runs_and_validates() {
        let r = run(&small(Benchmark::NBayes), &GpgpuConfig::gpgpu());
        assert!(r.output_ok);
        // Coalesced input: no duplicated fetches.
        let w = small(Benchmark::NBayes);
        assert_eq!(r.dram.bytes_transferred, w.dataset.total_bytes());
    }

    #[test]
    fn vws_narrow_warps_waste_fewer_lanes() {
        let w = small(Benchmark::Count);
        let g = run(&w, &GpgpuConfig::gpgpu());
        let v = run(&w, &GpgpuConfig::vws());
        assert!(v.output_ok);
        // Same thread work, less SIMT waste.
        assert_eq!(g.stats.instructions, v.stats.instructions);
        assert!(v.stats.lane_idle < g.stats.lane_idle);
        assert!(v.elapsed_ps <= g.elapsed_ps);
    }

    #[test]
    fn vws_row_runs_and_validates() {
        let r = run(&small(Benchmark::Variance), &GpgpuConfig::vws_row());
        assert!(r.output_ok);
        assert_eq!(r.stats.premature_evictions, 0);
        assert!(r.stats.pbuf_hits > 0);
    }

    #[test]
    fn classify_float_kernel_on_gpgpu() {
        let r = run(&small(Benchmark::Classify), &GpgpuConfig::gpgpu());
        assert!(r.output_ok);
    }

    #[test]
    fn sixty_four_lane_sm_runs_fig6_config() {
        let mut c = GpgpuConfig::gpgpu();
        c.lanes = 64;
        c.warp_width = 64;
        let r = run(&small(Benchmark::Count), &c);
        assert!(r.output_ok);
        // Wider warps diverge at least as much per issue.
        assert!(r.stats.divergent_branches > 0);
    }

    #[test]
    fn vws_row_and_vws_compute_identical_outputs() {
        let w = small(Benchmark::Kmeans);
        let a = run(&w, &GpgpuConfig::vws());
        let b = run(&w, &GpgpuConfig::vws_row());
        assert_eq!(a.output, b.output);
        // Row-oriented input path: whole rows, one activation each.
        assert_eq!(b.dram.activations, w.dataset.layout.total_rows());
        assert_eq!(
            b.dram.bytes_transferred,
            w.dataset.layout.total_rows() * 2048
        );
    }

    #[test]
    fn shared_memory_accesses_are_conflict_free_under_striping() {
        // The per-thread striping of live state (§III-E) must never
        // serialize: total passes equals total shared accesses.
        let r = run(&small(Benchmark::NBayes), &GpgpuConfig::gpgpu());
        let shared_accesses = r.stats.shared_passes;
        assert!(shared_accesses > 0);
        // passes == warp-level accesses means one pass each (no conflicts);
        // recompute by running VWS too and checking proportionality.
        let v = run(&small(Benchmark::NBayes), &GpgpuConfig::vws());
        assert!(
            v.stats.shared_passes >= shared_accesses,
            "4-wide issues more, narrower accesses"
        );
    }

    #[test]
    fn wide_columns_break_coalescing() {
        // §IV-C: "GPGPUs must use word-size columns to achieve coalesceable
        // accesses". Slab-interleaving multiplies the L1 transactions per
        // warp load and slows the SM down.
        let w = small(Benchmark::Count);
        let narrow = run(&w, &GpgpuConfig::gpgpu());
        let mut cfg = GpgpuConfig::gpgpu();
        cfg.wide_columns = true;
        let wide = run(&w, &cfg);
        assert!(wide.output_ok);
        let narrow_txns = narrow.stats.l1_hits + narrow.stats.l1_misses;
        let wide_txns = wide.stats.l1_hits + wide.stats.l1_misses;
        assert!(
            wide_txns >= 3 * narrow_txns,
            "wide {wide_txns} vs narrow {narrow_txns} L1 transactions"
        );
        assert!(wide.elapsed_ps >= narrow.elapsed_ps);
    }

    #[test]
    fn a_serializing_local_access_stops_the_run_and_waits_out_its_passes() {
        // One 64-wide warp (the Fig. 6 SM). Lanes i and i+32 share a bank
        // under the per-thread striping, so a store whose address differs
        // between the two halves takes two passes.
        let program = millipede_isa::assemble(
            "serialize",
            "addi r7, r0, 1\n\
             addi r7, r7, 1\n\
             st.local r7, 0(r6)\n\
             addi r7, r7, 1\n\
             halt",
        )
        .expect("assembles");
        let w = Workload {
            program,
            ..small(Benchmark::Count)
        };
        let cfg = GpgpuConfig {
            lanes: 64,
            contexts: 1,
            warp_width: 64,
            ..GpgpuConfig::gpgpu()
        };
        let grid = ThreadGrid::coalesced(cfg.lanes, cfg.contexts);
        let decoded = DecodedProgram::of(&w.program);
        let mut node = Node::new(&w, &cfg, &grid, &decoded);
        for (t, ctx) in node.sm.threads.iter_mut().enumerate() {
            ctx.write_reg(millipede_isa::reg::r(6), if t < 32 { 0 } else { 4 });
        }
        let period = period_ps_for_mhz(COMPUTE_MHZ);
        let mut clock = DualClock::new(period, cfg.timing.channel_period_ps);
        let mut mc = MemoryController::new(cfg.geometry, cfg.timing);
        let mut tel = Telemetry::off();
        let mut edge = |node: &mut Node, cycle: u64| {
            let now = cycle * period;
            assert_eq!(
                node.compute_edge(now, cycle, &mut clock, &mut mc, &mut tel),
                1
            );
        };

        edge(&mut node, 0);
        assert_eq!(node.sm.threads[0].pc, 2, "the run stopped before the store");
        assert_eq!(node.sm.burst[0], 1, "one credit banked");
        assert_eq!(node.sm.shared.accesses(), 0);
        edge(&mut node, 1);
        assert_eq!(node.sm.burst[0], 0);
        edge(&mut node, 2);
        assert_eq!(node.sm.threads[0].pc, 3, "the store issued in its own slot");
        assert_eq!(node.sm.busy_until[0], 3, "busy_until marks the second pass");
        assert_eq!(node.stats.local_stores, 64);
        assert_eq!((node.sm.shared.accesses(), node.sm.shared.passes()), (1, 2));
        assert_eq!(node.sm.credit_issues, 1);
    }

    #[test]
    fn divergence_decreases_with_narrower_warps() {
        let w = small(Benchmark::Count);
        let g = run(&w, &GpgpuConfig::gpgpu());
        let v = run(&w, &GpgpuConfig::vws());
        // Per issue, a 4-wide warp wastes fewer lanes.
        let g_waste = g.stats.lane_idle as f64 / g.stats.issues as f64;
        let v_waste = v.stats.lane_idle as f64 / v.stats.issues as f64;
        assert!(v_waste < g_waste, "VWS {v_waste:.2} vs GPGPU {g_waste:.2}");
    }
}
