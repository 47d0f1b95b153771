//! FR-FCFS memory controller.

use crate::audit::TimingAudit;
use crate::bank::Bank;
use crate::geometry::DramGeometry;
use crate::timing::DramTiming;
use crate::{DramStats, TimePs};
use std::collections::VecDeque;

/// Identifier assigned to every accepted request.
pub type ReqId = u64;

/// A read request for a byte range that lies within a single DRAM row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// First byte address.
    pub addr: u64,
    /// Number of bytes (must stay within one row).
    pub bytes: u64,
    /// Caller-defined tag returned in the [`Completion`] (e.g. which
    /// prefetch-buffer entry or MSHR this fill belongs to).
    pub tag: u64,
}

/// A finished request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The id returned by [`MemoryController::try_push`].
    pub id: ReqId,
    /// The caller-defined tag.
    pub tag: u64,
    /// Time the last byte crossed the channel.
    pub done_at: TimePs,
    /// First byte address of the request.
    pub addr: u64,
    /// Request size in bytes.
    pub bytes: u64,
    /// Whether the request was serviced from an already-open row.
    pub row_hit: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqState {
    /// Waiting for its row to be opened in the bank.
    Queued,
    /// An activate was issued on this request's behalf; it completes when the
    /// bank becomes ready.
    Opening,
}

#[derive(Debug, Clone)]
struct QueuedReq {
    id: ReqId,
    req: Request,
    row: u64,
    bank: usize,
    arrival: TimePs,
    state: ReqState,
    /// Set if this request caused its own activation (row miss).
    caused_activation: bool,
}

/// Error returned when the request queue is full (FR-FCFS 16-deep).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

/// FR-FCFS request-queue depth (Table III: 16 deep). Only SSMC's queue-depth
/// ablation runs a controller of another depth
/// ([`MemoryController::with_capacity`]).
pub const QUEUE_DEPTH: usize = 16;

/// A First-Ready, First-Come-First-Served memory controller for one channel.
///
/// Ticked once per channel clock cycle. Each cycle the controller issues at
/// most one command:
///
/// 1. **Column read (priority):** the oldest queued request whose row is open
///    in a ready bank issues its CAS; the data transfer is appended to the
///    shared data bus schedule. Row hits drain first — this is the
///    "first-ready" half of FR-FCFS and is what clusters same-row requests
///    together when many streams interleave.
/// 2. **Precharge + activate:** otherwise, the oldest request whose bank is
///    ready but holds a different (or no) row opens its row. Activation
///    latency overlaps with other banks' transfers.
///
/// The queue is bounded (default 16, Table III); producers must re-try when
/// [`MemoryController::try_push`] reports [`QueueFull`] — that back-pressure
/// is exactly how memory-boundedness propagates to the compute side.
///
/// ```
/// use millipede_dram::{DramGeometry, DramTiming, MemoryController, Request};
///
/// let mut mc = MemoryController::new(DramGeometry::default(), DramTiming::default());
/// mc.try_push(Request { addr: 0, bytes: 128, tag: 1 }, 0).unwrap();
/// let mut now = 0;
/// let done = loop {
///     mc.tick(now);
///     now += mc.timing().channel_period_ps;
///     let done = mc.pop_completed(now);
///     if !done.is_empty() {
///         break done;
///     }
/// };
/// assert_eq!(done[0].tag, 1);
/// assert!(!done[0].row_hit); // cold row: the access paid an activation
/// ```
#[derive(Debug)]
pub struct MemoryController {
    geometry: DramGeometry,
    timing: DramTiming,
    capacity: usize,
    banks: Vec<Bank>,
    queue: VecDeque<QueuedReq>,
    completed: VecDeque<Completion>,
    bus_free: TimePs,
    next_id: ReqId,
    stats: DramStats,
    /// Activate/precharge spacing sanitizer (see [`TimingAudit`]); enabled
    /// by default in debug builds.
    audit: TimingAudit,
}

impl MemoryController {
    /// Creates a controller with the paper's [`QUEUE_DEPTH`]-deep FR-FCFS
    /// queue.
    pub fn new(geometry: DramGeometry, timing: DramTiming) -> MemoryController {
        MemoryController::with_capacity(geometry, timing, QUEUE_DEPTH)
    }

    /// Creates a controller with an explicit queue capacity.
    pub fn with_capacity(
        geometry: DramGeometry,
        timing: DramTiming,
        capacity: usize,
    ) -> MemoryController {
        assert!(capacity > 0, "queue capacity must be positive");
        MemoryController {
            banks: vec![Bank::new(); geometry.banks],
            audit: TimingAudit::new(cfg!(debug_assertions), geometry.banks),
            geometry,
            timing,
            capacity,
            queue: VecDeque::new(),
            completed: VecDeque::new(),
            bus_free: 0,
            next_id: 0,
            stats: DramStats::default(),
        }
    }

    /// The channel geometry.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// The channel timing.
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    /// Queue slots currently free.
    pub fn free_slots(&self) -> usize {
        self.capacity - self.queue.len()
    }

    /// Requests currently queued (the depth the telemetry layer samples).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Forces the activate/precharge timing sanitizer on or off (it
    /// defaults to on in debug builds only).
    pub fn set_invariant_checks(&mut self, enabled: bool) {
        self.audit.set_enabled(enabled);
    }

    /// The command-timing sanitizer and its accumulated violations.
    pub fn timing_audit(&self) -> &TimingAudit {
        &self.audit
    }

    /// Enqueues a read request at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if the request spans a row boundary (callers are required to
    /// split requests at row boundaries).
    pub fn try_push(&mut self, req: Request, now: TimePs) -> Result<ReqId, QueueFull> {
        assert!(
            self.geometry.within_one_row(req.addr, req.bytes),
            "request {req:?} spans a row boundary"
        );
        if self.queue.len() >= self.capacity {
            return Err(QueueFull);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push_back(QueuedReq {
            id,
            row: self.geometry.row_of(req.addr),
            bank: self.geometry.bank_of(req.addr),
            req,
            arrival: now,
            state: ReqState::Queued,
            caused_activation: false,
        });
        Ok(id)
    }

    /// Advances the controller by one channel cycle ending at `now`.
    /// Issues at most one command (CAS or PRE+ACT).
    pub fn tick(&mut self, now: TimePs) {
        // 1. Column read for the oldest open-row request in a ready bank.
        let cas_idx = self.queue.iter().position(|q| {
            q.arrival <= now
                && self.banks[q.bank].would_hit(q.row)
                && self.banks[q.bank].ready_at() <= now
        });
        if let Some(q) = cas_idx.and_then(|idx| self.queue.remove(idx)) {
            let access = self.banks[q.bank].access(q.row, now, &self.timing);
            debug_assert!(access.row_hit);
            let transfer_start = access.data_ready.max(self.bus_free);
            let transfer_ps = self.timing.transfer_ps(q.req.bytes);
            let done_at = transfer_start + transfer_ps;
            self.bus_free = done_at;
            self.stats.requests += 1;
            self.stats.bytes_transferred += q.req.bytes;
            self.stats.bus_busy_ps += transfer_ps;
            let row_hit = !q.caused_activation;
            if row_hit {
                self.stats.row_hits += 1;
            } else {
                self.stats.row_misses += 1;
            }
            self.completed.push_back(Completion {
                id: q.id,
                tag: q.req.tag,
                done_at,
                addr: q.req.addr,
                bytes: q.req.bytes,
                row_hit,
            });
            return;
        }

        // 2. Otherwise open a row for the oldest conflicting request.
        let act_idx = self.queue.iter().position(|q| {
            q.arrival <= now
                && q.state == ReqState::Queued
                && !self.banks[q.bank].would_hit(q.row)
                && self.banks[q.bank].ready_at() <= now
        });
        if let Some(idx) = act_idx {
            let (row, bank) = {
                let q = &mut self.queue[idx];
                q.state = ReqState::Opening;
                q.caused_activation = true;
                (q.row, q.bank)
            };
            let access = self.banks[bank].access(row, now, &self.timing);
            debug_assert!(access.activated);
            self.audit.on_activation(bank, access.act_at, &self.timing);
            self.stats.activations += 1;
            // Any other queued request to the same (bank, row) will now hit;
            // they stay Queued and are picked by rule 1 once the bank is
            // ready, counting as row hits (they share the activation).
        }
    }

    /// Pops completions whose data transfer finished at or before `now`.
    pub fn pop_completed(&mut self, now: TimePs) -> Vec<Completion> {
        let mut out = Vec::new();
        while self
            .completed
            .front()
            .is_some_and(|front| front.done_at <= now)
        {
            out.extend(self.completed.pop_front());
        }
        out
    }

    /// Earliest time at which this controller can next make progress:
    /// the minimum over pending completion timestamps and, per queued
    /// request, the time its bank can accept a command
    /// (`max(arrival, bank ready)`). `None` when idle: nothing queued and
    /// no completion left to pop.
    ///
    /// This bound is *exact*, not heuristic: between [`MemoryController::tick`]
    /// calls, bank state ([`Bank::ready_at`], the open row) only changes
    /// inside `tick` when a command actually issues, and `tick` issues a
    /// command at time `t` iff some queued request has
    /// `max(arrival, ready_at) <= t`. So no CAS or ACT can issue on any
    /// channel edge strictly before the returned time, and a returned time
    /// at or before "now" simply means the controller has issuable work
    /// backed up (callers clamp to the next channel edge).
    pub fn next_event_at(&self) -> Option<TimePs> {
        let completions = self.completed.iter().map(|c| c.done_at);
        let commands = self
            .queue
            .iter()
            .map(|q| q.arrival.max(self.banks[q.bank].ready_at()));
        completions.chain(commands).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl() -> MemoryController {
        MemoryController::new(DramGeometry::default(), DramTiming::default())
    }

    fn run_until_idle(c: &mut MemoryController, mut now: TimePs) -> (Vec<Completion>, TimePs) {
        let mut done = Vec::new();
        for _ in 0..100_000 {
            c.tick(now);
            now += c.timing().channel_period_ps;
            done.extend(c.pop_completed(now));
            if c.next_event_at().is_none() {
                break;
            }
        }
        (done, now)
    }

    #[test]
    fn single_request_completes_with_miss_latency() {
        let mut c = ctrl();
        let id = c
            .try_push(
                Request {
                    addr: 0,
                    bytes: 128,
                    tag: 7,
                },
                0,
            )
            .unwrap();
        let (done, _) = run_until_idle(&mut c, 0);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        assert_eq!(done[0].tag, 7);
        assert!(!done[0].row_hit);
        // One tick to ACT, wait tRCD, then CAS tick, tCAS + 32 transfer
        // cycles (128 B / 4 B-per-cycle). Exact value depends on tick
        // discretization; bound it.
        let t = DramTiming::default();
        let min = t.cycles_ps(9 + 9 + 32);
        let max = t.cycles_ps(9 + 9 + 9 + 32 + 4);
        assert!(
            done[0].done_at >= min && done[0].done_at <= max,
            "done_at {} outside [{min}, {max}]",
            done[0].done_at
        );
        assert_eq!(c.stats().activations, 1);
        assert_eq!(c.stats().row_misses, 1);
        assert_eq!(c.stats().bytes_transferred, 128);
    }

    #[test]
    fn same_row_requests_hit_after_first() {
        let mut c = ctrl();
        for i in 0..4 {
            c.try_push(
                Request {
                    addr: i * 128,
                    bytes: 128,
                    tag: i,
                },
                0,
            )
            .unwrap();
        }
        let (done, _) = run_until_idle(&mut c, 0);
        assert_eq!(done.len(), 4);
        assert_eq!(c.stats().activations, 1);
        assert_eq!(c.stats().row_misses, 1);
        assert_eq!(c.stats().row_hits, 3);
    }

    #[test]
    fn fr_fcfs_prefers_open_row_over_older_conflict() {
        let mut c = ctrl();
        let row_bytes = c.geometry().row_bytes;
        let banks = c.geometry().banks as u64;
        // Open row 0 (bank 0).
        c.try_push(
            Request {
                addr: 0,
                bytes: 128,
                tag: 0,
            },
            0,
        )
        .unwrap();
        let (_, now) = run_until_idle(&mut c, 0);
        // Now queue: first a conflicting request to row 4 (same bank 0),
        // then a request to open row 0.
        c.try_push(
            Request {
                addr: banks * row_bytes, // row `banks` maps to bank 0
                bytes: 128,
                tag: 1,
            },
            now,
        )
        .unwrap();
        c.try_push(
            Request {
                addr: 128,
                bytes: 128,
                tag: 2,
            },
            now,
        )
        .unwrap();
        let (done, _) = run_until_idle(&mut c, now);
        assert_eq!(done.len(), 2);
        // The row-0 hit (tag 2) finishes before the older conflict (tag 1).
        assert_eq!(done[0].tag, 2);
        assert!(done[0].row_hit);
        assert_eq!(done[1].tag, 1);
        assert!(!done[1].row_hit);
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut c =
            MemoryController::with_capacity(DramGeometry::default(), DramTiming::default(), 2);
        assert_eq!(c.free_slots(), 2);
        c.try_push(
            Request {
                addr: 0,
                bytes: 64,
                tag: 0,
            },
            0,
        )
        .unwrap();
        c.try_push(
            Request {
                addr: 64,
                bytes: 64,
                tag: 1,
            },
            0,
        )
        .unwrap();
        assert_eq!(c.free_slots(), 0);
        assert_eq!(
            c.try_push(
                Request {
                    addr: 128,
                    bytes: 64,
                    tag: 2
                },
                0
            ),
            Err(QueueFull)
        );
    }

    #[test]
    #[should_panic(expected = "spans a row boundary")]
    fn row_spanning_request_panics() {
        let mut c = ctrl();
        let _ = c.try_push(
            Request {
                addr: 2040,
                bytes: 64,
                tag: 0,
            },
            0,
        );
    }

    #[test]
    fn sequential_row_stream_achieves_high_hit_rate() {
        // Stream 8 full rows as 2 KB requests: each row is one activation
        // and the request itself is a miss, but bandwidth stays near peak
        // because activations overlap transfers across banks.
        let mut c = ctrl();
        let mut now = 0;
        let mut pushed = 0u64;
        let mut done = 0;
        while done < 8 {
            if pushed < 8
                && c.try_push(
                    Request {
                        addr: pushed * 2048,
                        bytes: 2048,
                        tag: pushed,
                    },
                    now,
                )
                .is_ok()
            {
                pushed += 1;
            }
            c.tick(now);
            now += c.timing().channel_period_ps;
            done += c.pop_completed(now).len();
        }
        let stats = c.stats();
        assert_eq!(stats.bytes_transferred, 8 * 2048);
        // Bus utilization should be high: transfers dominate.
        let bw = stats.bandwidth_gbps(now);
        assert!(
            bw > 0.7 * c.timing().peak_bandwidth_gbps(),
            "streaming bandwidth {bw} too far below peak"
        );
    }

    #[test]
    fn interleaved_streams_to_same_bank_thrash_rows() {
        // Two interleaved block streams in different rows of the same bank:
        // FR-FCFS cannot avoid ping-ponging when only one request from each
        // stream is visible at a time.
        let mut c = ctrl();
        let row_stride = c.geometry().row_bytes * c.geometry().banks as u64;
        let mut now = 0;
        for i in 0..8u64 {
            // Alternate single requests: row 0 block, then row 4 block.
            let (addr, tag) = if i % 2 == 0 {
                ((i / 2) * 128, i)
            } else {
                (row_stride + (i / 2) * 128, i)
            };
            c.try_push(
                Request {
                    addr,
                    bytes: 128,
                    tag,
                },
                now,
            )
            .unwrap();
            // Drain fully between pushes to defeat batching.
            loop {
                c.tick(now);
                now += c.timing().channel_period_ps;
                if !c.pop_completed(now).is_empty() {
                    break;
                }
            }
        }
        let s = c.stats();
        assert_eq!(s.requests, 8);
        assert!(
            s.row_miss_rate() > 0.8,
            "expected thrashing, miss rate {}",
            s.row_miss_rate()
        );
    }

    #[test]
    fn batching_visible_requests_limits_misses() {
        // Same two streams, but all 8 requests queued up front: FR-FCFS
        // services each row's requests together → only 2 misses.
        let mut c = ctrl();
        let row_stride = c.geometry().row_bytes * c.geometry().banks as u64;
        for i in 0..8u64 {
            let (addr, tag) = if i % 2 == 0 {
                ((i / 2) * 128, i)
            } else {
                (row_stride + (i / 2) * 128, i)
            };
            c.try_push(
                Request {
                    addr,
                    bytes: 128,
                    tag,
                },
                0,
            )
            .unwrap();
        }
        let (done, _) = run_until_idle(&mut c, 0);
        assert_eq!(done.len(), 8);
        assert_eq!(c.stats().row_misses, 2);
        assert_eq!(c.stats().row_hits, 6);
    }

    #[test]
    fn fcfs_aging_prevents_starvation() {
        // A stream of row-0 hits must not starve an old request to a
        // conflicting row in the same bank: the conflict's ACT is issued as
        // soon as no hit is *ready*, and once its row opens, FR-FCFS serves
        // it.
        let mut c = ctrl();
        let row_stride = c.geometry().row_bytes * c.geometry().banks as u64;
        c.try_push(
            Request {
                addr: 0,
                bytes: 64,
                tag: 0,
            },
            0,
        )
        .unwrap();
        c.try_push(
            Request {
                addr: row_stride,
                bytes: 64,
                tag: 999,
            },
            0,
        )
        .unwrap();
        let mut now = 0;
        let mut pushed = 2u64;
        let mut victim_done_at = None;
        for _ in 0..4000 {
            // Keep feeding row-0 hits.
            if c.free_slots() > 0 && pushed < 64 {
                let _ = c.try_push(
                    Request {
                        addr: (pushed % 8) * 64,
                        bytes: 64,
                        tag: pushed,
                    },
                    now,
                );
                pushed += 1;
            }
            c.tick(now);
            now += c.timing().channel_period_ps;
            for comp in c.pop_completed(now) {
                if comp.tag == 999 {
                    victim_done_at = Some(now);
                }
            }
            if victim_done_at.is_some() {
                break;
            }
        }
        assert!(
            victim_done_at.is_some(),
            "conflicting request starved behind a hit stream"
        );
    }

    #[test]
    fn next_event_at_is_none_when_idle() {
        let c = ctrl();
        assert_eq!(c.next_event_at(), None);
    }

    #[test]
    fn next_event_at_never_precedes_actual_progress() {
        // Drive a mixed workload cycle-by-cycle and assert the claimed
        // next-event time is a sound lower bound: on any channel edge
        // strictly before it, tick() neither issues a command nor exposes
        // a completion.
        let mut c = ctrl();
        let row_stride = c.geometry().row_bytes * c.geometry().banks as u64;
        for i in 0..6u64 {
            let addr = if i % 2 == 0 {
                (i / 2) * 128
            } else {
                row_stride + (i / 2) * 128
            };
            c.try_push(
                Request {
                    addr,
                    bytes: 128,
                    tag: i,
                },
                0,
            )
            .unwrap();
        }
        let mut now = 0;
        let mut done = 0;
        while done < 6 {
            let bound = c.next_event_at().expect("work pending");
            let before = c.stats().requests + c.stats().activations;
            c.tick(now);
            let after = c.stats().requests + c.stats().activations;
            if now < bound {
                assert_eq!(
                    after, before,
                    "command issued at {now} before bound {bound}"
                );
            }
            now += c.timing().channel_period_ps;
            let popped = c.pop_completed(now);
            if !popped.is_empty() {
                assert!(
                    popped
                        .iter()
                        .all(|comp| comp.done_at >= bound || bound <= now),
                    "completion before claimed bound {bound}"
                );
            }
            done += popped.len();
        }
        assert_eq!(c.next_event_at(), None);
    }

    #[test]
    fn next_event_at_tracks_bank_recovery_and_completions() {
        let mut c = ctrl();
        c.try_push(
            Request {
                addr: 0,
                bytes: 128,
                tag: 0,
            },
            0,
        )
        .unwrap();
        // Fresh request to a ready bank: issuable immediately.
        assert_eq!(c.next_event_at(), Some(0));
        c.tick(0); // ACT issues; bank now busy until tRCD elapses.
        let ready = c.next_event_at().unwrap();
        assert!(ready > 0, "bank recovery should push the next event out");
        // Tick through: no CAS can issue before `ready`.
        let mut now = c.timing().channel_period_ps;
        while now < ready {
            c.tick(now);
            assert_eq!(c.stats().requests, 0);
            now += c.timing().channel_period_ps;
        }
        c.tick(now); // CAS issues on the first edge at/after `ready`.
        assert_eq!(c.stats().requests, 1);
        // Only a completion remains; the bound is its timestamp.
        assert_eq!(c.queue_len(), 0);
        let done_at = c.next_event_at().unwrap();
        assert!(c.pop_completed(done_at - 1).is_empty());
        let popped = c.pop_completed(done_at);
        assert_eq!(popped.len(), 1);
        assert_eq!(popped[0].done_at, done_at);
        assert_eq!(c.next_event_at(), None);
    }

    #[test]
    fn completions_respect_timestamps() {
        let mut c = ctrl();
        c.try_push(
            Request {
                addr: 0,
                bytes: 2048,
                tag: 0,
            },
            0,
        )
        .unwrap();
        for k in 0..200 {
            c.tick(k * 833);
        }
        // Nothing completes "before" its done_at.
        assert!(c.pop_completed(0).is_empty());
        assert_eq!(c.queue_len(), 0, "the CAS issued");
        let at = c.next_event_at().expect("a completion is pending");
        assert!(c.pop_completed(at - 1).is_empty());
        let popped = c.pop_completed(at);
        assert_eq!(popped.len(), 1);
        assert_eq!(popped[0].done_at, at);
        assert_eq!(c.next_event_at(), None, "idle after the pop");
    }
}
