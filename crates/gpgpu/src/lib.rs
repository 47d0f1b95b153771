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

pub use config::GpgpuConfig;

use millipede_core::pbuf::{Lookup, RowPrefetchBuffer};
use millipede_core::NodeResult;
use millipede_dram::{MemoryController, Request, TimePs};
use millipede_engine::{
    drive, instrument, period_ps_for_mhz, AccessClass, CoreStats, DecodedProgram, DualClock,
    Instrumented, NodeModel, Quiescence, ReplayDeltas, StepEffect, ThreadCtx,
};
use millipede_isa::ReconvergenceMap;
use millipede_mapreduce::ThreadGrid;
use millipede_mem::{coalesce_blocks, Cache, Mshr, SharedMemoryBanks};
use millipede_telemetry::Telemetry;
use millipede_workloads::Workload;
use warp::Warp;

const TAG_PREFETCH_BASE: u64 = 1 << 40;
const TAG_BLOCK_FILL: u64 = 1 << 41;

struct Sm {
    threads: Vec<ThreadCtx>,
    warps: Vec<Warp>,
    /// Outstanding memory fills per warp.
    outstanding: Vec<u32>,
    /// Sum of `outstanding`, maintained at the three mutation sites so the
    /// per-edge quiescence fingerprint reads one counter instead of
    /// re-summing the per-warp vector.
    outstanding_total: u64,
    /// Warp busy (shared-memory serialization) until this cycle.
    busy_until: Vec<u64>,
    /// Outstanding burst-retire issue credits per warp: a pure-ALU run
    /// executes functionally in one shot and the timing model replays its
    /// cycles by count (see DESIGN.md, "Predecoded interpreter").
    burst: Vec<u32>,
    /// Live lanes of each warp's in-flight burst, for per-cycle charge
    /// accounting (instructions and lane-idle replay).
    burst_lanes: Vec<u64>,
    rr: Vec<usize>,
    l1: Cache,
    mshr: Mshr,
    shared: SharedMemoryBanks,
    /// The shared L1 load/store port is busy until this cycle (multi-block
    /// coalesced accesses occupy it for one cycle per transaction).
    lsu_busy_until: u64,
    /// Row each warp is stalled on in the prefetch buffer (`u64::MAX` when
    /// not stalled): while the row is not `Ready`, every retry recomputes
    /// the same addresses and row only to stall again, so the scan replays
    /// the stall (`demand_stalls += 1`) off this memo instead. The warp
    /// cannot change while stalled (a stalling issue mutates nothing else),
    /// so the memoized row stays exact.
    wait_row: Vec<u64>,
    /// Block prefetcher state (non-row-oriented): next block to fetch.
    pf_next: u64,
    pf_end: u64,
    pf_degree: u64,
    demand_block: u64,
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
    mc: MemoryController,
    stats: CoreStats,
    live_warps: usize,
    /// L1 probes replayed for fast-forwarded edges so far (stalled warps
    /// re-probe their coalesced blocks every cycle); folded into the L1
    /// stats at the end so fast-forward stays bit-exact.
    ff_l1_hits: u64,
    ff_l1_misses: u64,
    /// Per-retry-edge recount rates of the last compute edge, replayed
    /// over a jump and rewound by telemetry sampling.
    deltas: ReplayDeltas,
    slots_per_cycle: u64,
}

impl Instrumented for Node<'_> {
    fn prefix(&self) -> &'static str {
        "gpgpu"
    }

    // Quiescence fingerprint (see DESIGN.md, "One driver"):
    // every observable compute-edge mutation either bumps one of these
    // monotone counters/cursors or is a per-retry-edge recount
    // (demand_stalls, L1 hit/miss probes) that is replayed via the `ff_*`
    // accumulators instead. `outstanding` catches MSHR secondary
    // allocations, which bump no statistic. Warp wakeup timers
    // (`busy_until`, `lsu_busy_until`) are cycle-keyed and independent of
    // memory, so fast-forward is gated off entirely while any is pending.
    fn fingerprint(&self) -> u64 {
        let pbuf_sum = self.pbuf.as_ref().map_or(0, |p| {
            let s = p.stats();
            s.prefetches + s.flow_blocks + s.premature_evictions
        });
        self.stats.prefetches
            + self.stats.demand_fetches
            + self.sm.pf_next
            + self.sm.demand_block
            + self.sm.outstanding_total
            + pbuf_sum
    }

    fn sample_epoch(&self, tel: &mut Telemetry, due: u64, at: TimePs, rewind: u64) {
        tel.counter(
            "gpgpu::sm",
            "l1_hits",
            due,
            at,
            (self.sm.l1.stats().hits + self.ff_l1_hits - self.deltas.hits * rewind) as f64,
        );
        tel.counter(
            "gpgpu::sm",
            "l1_misses",
            due,
            at,
            (self.sm.l1.stats().misses + self.ff_l1_misses - self.deltas.misses * rewind) as f64,
        );
        tel.counter(
            "gpgpu::sm",
            "demand_stalls",
            due,
            at,
            (self.stats.demand_stalls - self.deltas.stalls * rewind) as f64,
        );
        let slots = rewind * self.slots_per_cycle;
        tel.counter(
            "gpgpu::sm",
            "issue_slots",
            due,
            at,
            (self.stats.issue_slots - slots) as f64,
        );
        tel.counter(
            "gpgpu::sm",
            "stall_slots",
            due,
            at,
            (self.stats.stall_slots - slots) as f64,
        );
        if let Some(pbuf) = &self.pbuf {
            tel.counter("gpgpu::pbuf", "occupancy", due, at, pbuf.occupancy() as f64);
        }
        let d = self.mc.stats();
        instrument::sample_dram(tel, due, at, d.row_hits, d.row_misses, self.mc.queue_len());
    }

    fn assert_clean(&self) {
        if let Some(pbuf) = &self.pbuf {
            pbuf.audit().assert_clean("VWS-row prefetch buffer");
        }
        self.mc
            .timing_audit()
            .assert_clean("GPGPU memory controller");
    }
}

impl NodeModel for Node<'_> {
    fn done(&self) -> bool {
        self.live_warps == 0
    }

    fn compute_edge(
        &mut self,
        now: TimePs,
        cycle: u64,
        _clock: &mut DualClock,
        _tel: &mut Telemetry,
    ) -> bool {
        let stalls_before = self.stats.demand_stalls;
        let hits_before = self.sm.l1.stats().hits;
        let misses_before = self.sm.l1.stats().misses;
        if let Some(pbuf) = self.pbuf.as_mut() {
            pump_rows(pbuf, &mut self.mc, now, self.row_bytes, &mut self.stats);
        } else {
            pump_blocks(&mut self.sm, &mut self.mc, now, self.cfg, &mut self.stats);
        }
        // The scan takes each piece of state as its own argument, so the
        // optimizer may keep it in registers across the scan.
        let (cfg, decoded, image, row_bytes) = (self.cfg, self.decoded, self.image, self.row_bytes);
        let Node {
            rm,
            sm,
            pbuf,
            mc,
            stats,
            live_warps,
            ..
        } = self;
        let mut any_issued = false;
        for cluster in 0..cfg.clusters() {
            stats.issue_slots += 1;
            if cluster_tick(
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
            ) {
                any_issued = true;
            } else {
                stats.stall_slots += 1;
            }
        }
        self.deltas = ReplayDeltas {
            stalls: self.stats.demand_stalls - stalls_before,
            hits: self.sm.l1.stats().hits - hits_before,
            misses: self.sm.l1.stats().misses - misses_before,
        };
        any_issued
    }

    fn channel_edge(&mut self, now: TimePs, cycle: u64, tel: &mut Telemetry) -> usize {
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
            if comp.tag >= TAG_BLOCK_FILL {
                let sm = &mut self.sm;
                sm.l1.fill(comp.addr);
                for waiter in sm.mshr.complete(comp.addr) {
                    sm.outstanding[waiter as usize] -= 1;
                    sm.outstanding_total -= 1;
                }
            } else {
                let slot = (comp.tag - TAG_PREFETCH_BASE) as usize;
                self.pbuf
                    .as_mut()
                    // audit:allow(unwrap-in-hot-path): prefetch tags are only issued when a pbuf exists
                    .expect("row fill without pbuf")
                    .fill_complete(slot);
            }
        }
        fills
    }

    fn next_event_at(&self) -> Option<TimePs> {
        self.mc.next_event_at()
    }

    // Warp wakeup timers are cycle-keyed, not memory events: no jump while
    // any is pending.
    fn may_jump(&self, cycle: u64) -> bool {
        self.sm.lsu_busy_until <= cycle && self.sm.busy_until.iter().all(|&b| b <= cycle)
    }

    fn replay(&mut self, skipped: u64) {
        self.stats.demand_stalls += self.deltas.stalls * skipped;
        self.ff_l1_hits += self.deltas.hits * skipped;
        self.ff_l1_misses += self.deltas.misses * skipped;
    }

    fn stats_mut(&mut self) -> &mut CoreStats {
        &mut self.stats
    }
}

/// Runs `workload` to completion on one SM.
///
/// # Panics
///
/// Panics on kernel traps or simulated deadlock.
pub fn run(workload: &Workload, cfg: &GpgpuConfig) -> NodeResult {
    assert_eq!(
        cfg.lanes % cfg.warp_width,
        0,
        "lanes must divide into warps"
    );
    let layout = workload.dataset.layout;
    let grid = if cfg.wide_columns {
        ThreadGrid::block_columns(cfg.lanes, cfg.contexts)
    } else {
        ThreadGrid::coalesced(cfg.lanes, cfg.contexts)
    };
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
                    Some(workload.make_ctx(&grid, lane, warp_slot));
            }
        }
        // audit:allow(unwrap-in-hot-path): thread_index is a bijection over the grid
        slots.into_iter().map(|s| s.expect("dense index")).collect()
    };
    // Default lookahead: a quarter of the L1. Running the stream to the
    // cache edge would let fills evict blocks that lagging warps still
    // need.
    let pf_degree = cfg
        .prefetch_degree
        .unwrap_or((cfg.l1_bytes / cfg.l1_block / 4).max(2));
    let sm = Sm {
        warps: (0..num_warps)
            .map(|w| Warp::new(w * cfg.warp_width, cfg.warp_width))
            .collect(),
        outstanding: vec![0; num_warps],
        outstanding_total: 0,
        busy_until: vec![0; num_warps],
        burst: vec![0; num_warps],
        burst_lanes: vec![0; num_warps],
        rr: vec![0; cfg.clusters()],
        threads,
        l1: Cache::new(cfg.l1_bytes, cfg.l1_assoc, cfg.l1_block),
        mshr: Mshr::new(cfg.mshrs),
        shared: SharedMemoryBanks::new(cfg.shared_banks),
        lsu_busy_until: 0,
        wait_row: vec![u64::MAX; num_warps],
        pf_next: 0,
        pf_end: layout.total_bytes(),
        pf_degree,
        demand_block: 0,
    };

    let slots_per_cycle = cfg.clusters() as u64;
    let decoded = DecodedProgram::of(&workload.program);
    let mut node = Node {
        cfg,
        decoded: &decoded,
        image: &workload.dataset.image,
        rm: ReconvergenceMap::compute(&workload.program),
        row_bytes,
        sm,
        pbuf,
        mc: MemoryController::with_capacity(cfg.geometry, cfg.timing, cfg.dram_queue),
        stats: CoreStats::default(),
        live_warps: num_warps,
        ff_l1_hits: 0,
        ff_l1_misses: 0,
        deltas: ReplayDeltas::default(),
        slots_per_cycle,
    };
    let mut clock = DualClock::new(
        period_ps_for_mhz(cfg.compute_mhz),
        cfg.timing.channel_period_ps,
    );
    let mut tel = Telemetry::new(&cfg.telemetry);
    let quiesce = Quiescence::new("GPGPU", slots_per_cycle, cfg.max_idle_cycles);
    let driven = drive(&mut node, &mut clock, quiesce, cfg.fast_forward, &mut tel);

    let stats = &mut node.stats;
    stats.compute_cycles = driven.cycles;
    stats.shared_passes = node.sm.shared.passes();
    stats.l1_hits = node.sm.l1.stats().hits + node.ff_l1_hits;
    stats.l1_misses = node.sm.l1.stats().misses + node.ff_l1_misses;
    if let Some(pbuf) = &node.pbuf {
        stats.flow_blocks = pbuf.stats().flow_blocks;
        stats.premature_evictions = pbuf.stats().premature_evictions;
    }
    node.assert_clean();

    // Reduce in the grid's (corelet=lane, context=warp-slot) order.
    let states: Vec<&[u32]> = (0..cfg.lanes)
        .flat_map(|lane| (0..cfg.contexts).map(move |x| grid.thread_index(lane, x)))
        .map(|t| node.sm.threads[t].local.words())
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

/// Hands pending row prefetches to the controller (VWS-row).
fn pump_rows(
    pbuf: &mut RowPrefetchBuffer,
    mc: &mut MemoryController,
    now: TimePs,
    row_bytes: u64,
    stats: &mut CoreStats,
) {
    while mc.free_slots() > 0 {
        let Some((slot, row)) = pbuf.pop_fetch() else {
            break;
        };
        let req = Request {
            addr: row * row_bytes,
            bytes: row_bytes,
            tag: TAG_PREFETCH_BASE + slot as u64,
        };
        if mc.try_push(req, now).is_err() {
            pbuf.untake_fetch(slot);
            break;
        }
        stats.prefetches += 1;
    }
}

/// Issues sequential block prefetches up to the L1-derived lookahead.
fn pump_blocks(
    sm: &mut Sm,
    mc: &mut MemoryController,
    now: TimePs,
    cfg: &GpgpuConfig,
    stats: &mut CoreStats,
) {
    let limit = sm.demand_block.saturating_add(sm.pf_degree * cfg.l1_block);
    while sm.pf_next < sm.pf_end && sm.pf_next <= limit {
        let block = sm.pf_next;
        if sm.l1.contains(block) || sm.mshr.pending(block) {
            sm.pf_next += cfg.l1_block;
            continue;
        }
        if sm.mshr.is_full() || mc.free_slots() == 0 {
            break;
        }
        let req = Request {
            addr: block,
            bytes: cfg.l1_block,
            tag: TAG_BLOCK_FILL,
        };
        if mc.try_push(req, now).is_err() {
            break;
        }
        sm.mshr.allocate_prefetch(block);
        sm.pf_next += cfg.l1_block;
        stats.prefetches += 1;
    }
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
        if sm.outstanding[wi] > 0 || sm.busy_until[wi] > cycle {
            continue;
        }
        // Charge one banked burst cycle before consulting the IPDOM stack:
        // the run's instructions already executed (and its path may already
        // have settled at reconvergence), so the stack must not be touched
        // until every credit is repaid.
        if sm.burst[wi] > 0 {
            sm.burst[wi] -= 1;
            stats.instructions += sm.burst_lanes[wi];
            stats.issues += 1;
            stats.lane_idle += cfg.warp_width as u64 - sm.burst_lanes[wi];
            sm.rr[cluster] = if slot + 1 == warps_in_cluster {
                0
            } else {
                slot + 1
            };
            return true;
        }
        if sm.wait_row[wi] != u64::MAX {
            // Stalled on a prefetch-buffer row: the retry issues iff the
            // row became ready (and the LSU port is free, mirroring the
            // slow path's check order); otherwise replay the stall.
            let ready = matches!(
                pbuf.as_deref().map(|p| p.lookup(sm.wait_row[wi])),
                Some(Lookup::Ready { .. })
            );
            if !ready || sm.lsu_busy_until > cycle {
                stats.demand_stalls += 1;
                continue;
            }
            sm.wait_row[wi] = u64::MAX;
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
            sm.rr[cluster] = if slot + 1 == warps_in_cluster {
                0
            } else {
                slot + 1
            };
            return true;
        }
    }
    false
}

/// Attempts to execute one instruction for warp `wi` at `pc` with active
/// mask `live`.
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
    // Lane sets come straight from the `live` mask: the hot arms (ALU,
    // branch) walk its set bits with `trailing_zeros` and never materialize
    // a lane list; the memory arms build stack buffers (warp width is at
    // most 64 — heap allocations here dominated the wall-clock profile).
    let first = sm.warps[wi].first_thread;
    let lane_count = live.count_ones() as usize;
    debug_assert!(
        sm.warps[wi]
            .threads_of(live)
            .all(|t| sm.threads[t].pc == pc),
        "warp threads out of sync"
    );

    match decoded.access_class(pc) {
        AccessClass::InputLoad => {
            if sm.lsu_busy_until > cycle {
                // The L1 port is still draining a previous multi-block
                // access; the warp retries next cycle (address computation
                // is pure, so checking the port first is bit-exact).
                stats.demand_stalls += 1;
                return false;
            }
            // Compute each lane's address once; the commit below reuses it
            // instead of re-resolving the access.
            let mut lanes_buf = [0usize; 64];
            let mut addrs_buf = [0u64; 64];
            let mut m = live;
            let mut j = 0;
            while m != 0 {
                let t = first + m.trailing_zeros() as usize;
                m &= m - 1;
                lanes_buf[j] = t;
                addrs_buf[j] = decoded.mem_addr_at(&sm.threads[t]);
                j += 1;
            }
            let lanes = &lanes_buf[..lane_count];
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
                        exec_lanes(wi, lanes, Some(addrs), sm, decoded, image, stats, cfg);
                        true
                    }
                    Lookup::Filling | Lookup::Future => {
                        sm.wait_row[wi] = row;
                        stats.demand_stalls += 1;
                        false
                    }
                    Lookup::Evicted => unreachable!("flow control is on for VWS-row"),
                }
            } else {
                let blocks = coalesce_blocks(addrs, cfg.l1_block);
                if let Some(far) = blocks.iter().copied().max() {
                    sm.demand_block = sm.demand_block.max(far);
                }
                let mut missing_buf = [0u64; 64];
                let mut missing_count = 0;
                for &b in &blocks {
                    if !sm.l1.access(b) {
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
                    exec_lanes(wi, lanes, Some(addrs), sm, decoded, image, stats, cfg);
                    return true;
                }
                for &block in &missing_buf[..missing_count] {
                    if sm.mshr.pending(block) {
                        sm.mshr.allocate(block, wi as u64);
                        sm.outstanding[wi] += 1;
                        sm.outstanding_total += 1;
                    } else if !sm.mshr.is_full() && mc.free_slots() > 0 {
                        let req = Request {
                            addr: block,
                            bytes: cfg.l1_block,
                            tag: TAG_BLOCK_FILL,
                        };
                        if mc.try_push(req, now).is_ok() {
                            sm.mshr.allocate(block, wi as u64);
                            sm.outstanding[wi] += 1;
                            sm.outstanding_total += 1;
                            stats.demand_fetches += 1;
                        }
                    }
                }
                stats.demand_stalls += 1;
                false
            }
        }
        AccessClass::LocalLoad | AccessClass::LocalStore => {
            // Shared memory: per-thread state striped so lane i's words live
            // in bank i — conflict-free for these kernels, but the banking
            // model is consulted for generality and energy accounting. Each
            // lane's address is computed once and reused by the commit.
            let mut lanes_buf = [0usize; 64];
            let mut addrs_buf = [0u64; 64];
            let mut bank_buf = [0u64; 64];
            let mut m = live;
            let mut j = 0;
            while m != 0 {
                let t = first + m.trailing_zeros() as usize;
                m &= m - 1;
                let a = decoded.mem_addr_at(&sm.threads[t]);
                lanes_buf[j] = t;
                addrs_buf[j] = a;
                bank_buf[j] = (a / 4) * (cfg.shared_banks as u64 * 4)
                    + (t as u64 % cfg.shared_banks as u64) * 4;
                j += 1;
            }
            let lanes = &lanes_buf[..lane_count];
            let addrs = &addrs_buf[..lane_count];
            let passes = sm.shared.conflict_passes(&bank_buf[..lane_count]).max(1) as u64;
            if passes > 1 {
                sm.busy_until[wi] = cycle + passes - 1;
            }
            exec_lanes(wi, lanes, Some(addrs), sm, decoded, image, stats, cfg);
            true
        }
        AccessClass::Branch => {
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
        AccessClass::Alu => {
            // Pure-ALU run: execute it for every lane now and bank the
            // remaining cycles as per-warp issue credits (replay-by-count).
            // The run is capped at the path's reconvergence PC so the IPDOM
            // stack settles exactly where cycle-by-cycle execution would.
            let mut cap = decoded.run_len(pc);
            if let Some(r) = sm.warps[wi].current_reconv() {
                if r > pc {
                    cap = cap.min(r - pc);
                }
            }
            let mut n = 1;
            let mut m = live;
            while m != 0 {
                let t = first + m.trailing_zeros() as usize;
                m &= m - 1;
                n = decoded.burst_retire(&mut sm.threads[t], cap);
            }
            sm.warps[wi].advance_to(pc + n);
            sm.burst[wi] = n - 1;
            sm.burst_lanes[wi] = lane_count as u64;
            stats.instructions += lane_count as u64;
            stats.issues += 1;
            stats.lane_idle += (cfg.warp_width - lane_count) as u64;
            true
        }
        AccessClass::Jump | AccessClass::Barrier | AccessClass::Halt => {
            let mut lanes_buf = [0usize; 64];
            let mut m = live;
            let mut j = 0;
            while m != 0 {
                lanes_buf[j] = first + m.trailing_zeros() as usize;
                m &= m - 1;
                j += 1;
            }
            exec_lanes(
                wi,
                &lanes_buf[..lane_count],
                None,
                sm,
                decoded,
                image,
                stats,
                cfg,
            );
            true
        }
    }
}

/// Commits one (non-branch) instruction on every selected lane and advances
/// the warp. `addrs`, when given, carries each lane's already-computed
/// memory address so the commit does not re-resolve it.
#[allow(clippy::too_many_arguments)]
fn exec_lanes(
    wi: usize,
    lanes: &[usize],
    addrs: Option<&[u64]>,
    sm: &mut Sm,
    decoded: &DecodedProgram,
    image: &millipede_mem::InputImage,
    stats: &mut CoreStats,
    cfg: &GpgpuConfig,
) {
    let first = sm.warps[wi].first_thread;
    let mut next_pc = None;
    let mut any_live = false;
    for (j, &t) in lanes.iter().enumerate() {
        let committed = match addrs {
            Some(a) => decoded.commit_mem_at(&mut sm.threads[t], a[j], image),
            None => decoded.commit(&mut sm.threads[t], image),
        };
        let effect = committed.unwrap_or_else(|trap| panic!("kernel trap thread {t}: {trap}"));
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
    fn fast_forward_is_bit_exact() {
        for (name, base) in [
            ("gpgpu", GpgpuConfig::gpgpu()),
            ("vws", GpgpuConfig::vws()),
            ("vws_row", GpgpuConfig::vws_row()),
        ] {
            let w = small(Benchmark::Variance);
            let slow = run(
                &w,
                &GpgpuConfig {
                    fast_forward: false,
                    ..base.clone()
                },
            );
            let fast = run(&w, &base);
            assert_eq!(slow.stats.ff_skipped_cycles, 0);
            assert_eq!(slow.profile.sleeps, 0, "{name}: walked run jumped");
            assert!(
                fast.stats.ff_skipped_cycles > 0 && fast.profile.sleeps > 0,
                "{name}: fast-forward never engaged"
            );
            let mut fs = fast.stats.clone();
            fs.ff_skipped_cycles = 0;
            assert_eq!(fs, slow.stats, "{name}: stats diverged");
            assert_eq!(fast.dram, slow.dram, "{name}: DRAM stats diverged");
            assert_eq!(fast.elapsed_ps, slow.elapsed_ps);
            assert_eq!(fast.output, slow.output);
        }
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
