//! The row prefetch buffer: row-orientedness + cross-corelet flow control
//! (§IV-B, §IV-C).
//!
//! A circular queue of row-sized entries. Rows are fetched strictly
//! sequentially, so row *r* always occupies slot `r % capacity`. Each entry
//! carries:
//!
//! * a **PFT (prefetch-trigger) bit** — the first demand access to the
//!   entry triggers the prefetch of the next sequential row and clears the
//!   bit; later accesses don't re-trigger (MSHR-like filtering);
//! * a **DF (demand-fetch) counter** — incremented when a consumer group
//!   (corelet) finishes reading its slab of the row; saturates at the group
//!   count, meaning the entry is fully consumed.
//!
//! **Flow control:** a trigger may re-allocate the circular queue's head
//! entry only when the head's DF counter is saturated. A blocked trigger
//! leaves the PFT bit set; it re-fires on a later demand access or on a DF
//! saturation event (the hardware re-arms pending prefetches off the
//! saturation signal — required for liveness when the final access to the
//! tail entry happens while the queue is still blocked).
//!
//! With flow control **off** (the paper's `Millipede-no-flow-control`
//! ablation), triggers evict the head unconditionally; a prematurely
//! evicted row's lagging corelets must re-fetch their slab directly from
//! DRAM, exposing full memory latency — the behaviour Fig. 3 isolates.

use crate::audit::InvariantChecker;
use millipede_dram::{MemoryController, Request, TimePs};

/// Result of looking up the row for a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The row is resident and filled; `slot` identifies the entry.
    Ready {
        /// The entry's slot index, passed to `consume`.
        slot: usize,
    },
    /// The row is allocated but its DRAM fill has not completed.
    Filling,
    /// The row has not been allocated yet (the accessor is ahead of the
    /// prefetch stream).
    Future,
    /// The row was re-allocated before this consumer finished — only
    /// possible with flow control off.
    Evicted,
}

/// What happened during a [`RowPrefetchBuffer::consume`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConsumeOutcome {
    /// The consuming group finished this entry (its slab fully read).
    pub group_done: bool,
    /// The entry's DF counter saturated (all groups done).
    pub saturated: bool,
    /// Prefetches triggered by this access (including re-armed ones).
    pub triggered: u32,
    /// A trigger was blocked by flow control (buffers full — the paper's
    /// "compute-bound" rate-matching signal).
    pub trigger_blocked: bool,
}

/// Buffer statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PbufStats {
    /// Row prefetches issued.
    pub prefetches: u64,
    /// Triggers deferred by flow control.
    pub flow_blocks: u64,
    /// Rows evicted before full consumption (flow control off).
    pub premature_evictions: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    row: u64,
    valid: bool,
    ready: bool,
    pft: bool,
    accessed: bool,
    df: u32,
    consumed: Vec<u32>,
}

impl Entry {
    fn invalid(groups: usize) -> Entry {
        Entry {
            row: 0,
            valid: false,
            ready: false,
            pft: false,
            accessed: false,
            df: 0,
            consumed: vec![0; groups],
        }
    }
}

/// The row prefetch buffer of one Millipede processor (or one VWS-row SM).
#[derive(Debug, Clone)]
pub struct RowPrefetchBuffer {
    capacity: usize,
    groups: usize,
    words_per_group: u32,
    flow_control: bool,
    end_row: u64,
    /// Next sequential row to allocate.
    next_row: u64,
    /// Oldest live row (head of the circular queue).
    head_row: u64,
    entries: Vec<Entry>,
    /// Allocated entries whose DRAM fetch has not been handed out yet.
    fetch_queue: std::collections::VecDeque<usize>,
    stats: PbufStats,
    /// §IV-B/C sanitizer (DF monotonicity, head protection, trigger
    /// liveness); enabled by default in debug builds.
    audit: InvariantChecker,
}

impl RowPrefetchBuffer {
    /// Creates the buffer and allocates the initial rows (the paper
    /// prefetches before processing starts, §IV-C).
    ///
    /// `words_per_group` is how many words of each row every consumer group
    /// reads — the slab width in words for Millipede's corelets.
    pub fn new(
        capacity: usize,
        groups: usize,
        words_per_group: u32,
        end_row: u64,
        flow_control: bool,
    ) -> RowPrefetchBuffer {
        assert!(capacity >= 2, "need at least two entries");
        assert!(groups > 0 && words_per_group > 0);
        let mut audit = InvariantChecker::new(cfg!(debug_assertions));
        // A legal trace re-arms a blocked trigger within one full drain of
        // the buffer (every group consuming every resident word); double it
        // for slack.
        audit.set_watchdog_limit(
            2 * capacity as u64 * groups as u64 * u64::from(words_per_group) + 64,
        );
        let mut buf = RowPrefetchBuffer {
            capacity,
            groups,
            words_per_group,
            flow_control,
            end_row,
            next_row: 0,
            head_row: 0,
            entries: vec![Entry::invalid(groups); capacity],
            fetch_queue: std::collections::VecDeque::new(),
            stats: PbufStats::default(),
            audit,
        };
        while buf.next_row < buf.end_row.min(capacity as u64) {
            buf.allocate_unchecked();
        }
        buf
    }

    /// Number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live (allocated, not yet fully consumed) entries — the occupancy the
    /// telemetry layer samples. Between 0 and [`RowPrefetchBuffer::capacity`]
    /// under flow control; demand wrap can exceed it transiently without.
    pub fn occupancy(&self) -> u64 {
        self.live_len()
    }

    /// Buffer statistics.
    pub fn stats(&self) -> &PbufStats {
        &self.stats
    }

    /// Forces the invariant sanitizer on or off (it defaults to on in
    /// debug builds only).
    pub fn set_invariant_checks(&mut self, enabled: bool) {
        self.audit.set_enabled(enabled);
    }

    /// The sanitizer and its accumulated violations.
    pub fn audit(&self) -> &InvariantChecker {
        &self.audit
    }

    fn slot_of(&self, row: u64) -> usize {
        (row % self.capacity as u64) as usize
    }

    fn live_len(&self) -> u64 {
        self.next_row - self.head_row
    }

    /// Allocates `next_row` into its slot, assuming space exists.
    fn allocate_unchecked(&mut self) {
        debug_assert!(self.live_len() < self.capacity as u64);
        debug_assert!(self.next_row < self.end_row);
        let slot = self.slot_of(self.next_row);
        if self.entries[slot].valid {
            let old = &self.entries[slot];
            let retired = old.row < self.head_row;
            let (row, df) = (old.row, old.df);
            self.audit
                .on_entry_realloc(row, df, self.groups, self.flow_control, retired);
        }
        self.entries[slot] = Entry {
            row: self.next_row,
            valid: true,
            ready: false,
            pft: true,
            accessed: false,
            df: 0,
            consumed: vec![0; self.groups],
        };
        self.fetch_queue.push_back(slot);
        self.stats.prefetches += 1;
        self.next_row += 1;
    }

    /// Retires fully-consumed entries at the head: a saturated DF counter
    /// means no corelet will touch the row again, so its entry is free
    /// capacity (this is what keeps in-order consumption from ever looking
    /// "full" to the flow control).
    fn retire_consumed(&mut self) {
        while self.head_row < self.next_row {
            let slot = self.slot_of(self.head_row);
            if self.entries[slot].df as usize == self.groups {
                self.head_row += 1;
            } else {
                break;
            }
        }
    }

    /// Attempts to allocate the next sequential row. Returns `true` when a
    /// prefetch was started.
    ///
    /// Triggers never *evict*: with flow control they are deferred while
    /// the head is unconsumed, and without flow control the eviction
    /// pressure instead comes from a leading corelet's demand wrapping past
    /// the buffer ([`Self::force_allocate_for_demand`]).
    fn try_allocate(&mut self) -> Result<bool, ()> {
        if self.next_row >= self.end_row {
            return Ok(false); // stream exhausted: nothing to trigger
        }
        self.retire_consumed();
        if self.live_len() == self.capacity as u64 {
            self.stats.flow_blocks += 1;
            return Err(()); // full of unconsumed data
        }
        self.allocate_unchecked();
        Ok(true)
    }

    /// A leading corelet demanded `row`, which is past every allocated
    /// entry (flow control off): allocate up to it, evicting unconsumed
    /// heads — the paper's premature re-allocation (§IV-C). The evicted
    /// rows' lagging consumers must re-fetch from DRAM.
    ///
    /// # Panics
    ///
    /// Panics when called with flow control enabled.
    pub fn force_allocate_for_demand(&mut self, row: u64) {
        assert!(
            !self.flow_control,
            "flow control never force-evicts; stall instead"
        );
        debug_assert!(row < self.end_row);
        while self.next_row <= row {
            self.retire_consumed();
            if self.live_len() == self.capacity as u64 {
                self.stats.premature_evictions += 1;
                self.head_row += 1;
            }
            self.allocate_unchecked();
        }
    }

    /// Looks up the entry holding `row` for a demand access.
    pub fn lookup(&self, row: u64) -> Lookup {
        if row < self.head_row {
            return Lookup::Evicted;
        }
        if row >= self.next_row {
            return Lookup::Future;
        }
        let slot = self.slot_of(row);
        debug_assert!(self.entries[slot].valid && self.entries[slot].row == row);
        if self.entries[slot].ready {
            Lookup::Ready { slot }
        } else {
            Lookup::Filling
        }
    }

    /// Records one word consumed from `slot` by `group`, running the PFT
    /// trigger and flow-control logic.
    pub fn consume(&mut self, slot: usize, group: usize) -> ConsumeOutcome {
        let mut out = ConsumeOutcome::default();
        let (row, df) = {
            let e = &mut self.entries[slot];
            debug_assert!(e.valid && e.ready);
            e.accessed = true;
            e.consumed[group] += 1;
            debug_assert!(
                e.consumed[group] <= self.words_per_group,
                "group {group} over-consumed row {} (kernel not row-dense?)",
                e.row
            );
            if e.consumed[group] == self.words_per_group {
                out.group_done = true;
                e.df += 1;
                if e.df as usize == self.groups {
                    out.saturated = true;
                }
            }
            (e.row, e.df)
        };
        self.audit.on_df_update(slot, row, df, self.groups);

        // PFT: the entry's first demand access triggers the next prefetch.
        // The bit is cleared *before* the allocation because the new row may
        // land in this very slot (when this entry is the just-saturated
        // head); a blocked trigger restores it (no allocation happened, so
        // the slot is untouched).
        if self.entries[slot].pft {
            self.entries[slot].pft = false;
            match self.try_allocate() {
                Ok(true) => out.triggered += 1,
                Ok(false) => {} // stream exhausted: trigger retired
                Err(()) => {
                    self.entries[slot].pft = true;
                    out.trigger_blocked = true;
                }
            }
        }

        // A saturation event re-arms triggers that were blocked earlier.
        if out.saturated {
            out.triggered += self.retry_blocked_triggers();
        }
        let exhausted = self.exhausted();
        self.audit
            .on_trigger_outcome(out.trigger_blocked, out.triggered, exhausted);
        out
    }

    /// Re-fires PFT triggers whose entries were already accessed (i.e. the
    /// trigger was deferred by flow control).
    fn retry_blocked_triggers(&mut self) -> u32 {
        let mut fired = 0;
        for row in self.head_row..self.next_row {
            let slot = self.slot_of(row);
            // Skip slots re-allocated to newer rows during this scan.
            if self.entries[slot].row != row {
                continue;
            }
            if self.entries[slot].pft && self.entries[slot].accessed {
                // Same clear-before-allocate dance as in `consume`.
                self.entries[slot].pft = false;
                match self.try_allocate() {
                    Ok(true) => fired += 1,
                    Ok(false) => {}
                    Err(()) => {
                        self.entries[slot].pft = true;
                        break;
                    }
                }
            }
        }
        fired
    }

    /// Marks the fill of `slot` complete and returns its row.
    pub fn fill_complete(&mut self, slot: usize) -> u64 {
        let e = &mut self.entries[slot];
        debug_assert!(e.valid && !e.ready);
        e.ready = true;
        e.row
    }

    /// Hands out the next pending row fetch as a `(slot, row)` pair, if
    /// any. The slot must be completed via [`Self::fill_complete`] (or
    /// returned with `untake_fetch`). [`Self::pump`] polls this every
    /// compute edge.
    pub fn pop_fetch(&mut self) -> Option<(usize, u64)> {
        let slot = self.fetch_queue.pop_front()?;
        Some((slot, self.entries[slot].row))
    }

    /// Returns an undelivered fetch (DRAM queue was full); it stays next in
    /// line.
    fn untake_fetch(&mut self, slot: usize) {
        self.fetch_queue.push_front(slot);
    }

    /// Hands pending row fetches to `mc`, in order, while it has free
    /// queue slots, and returns how many it took. Each request reads one
    /// whole row (`row_bytes`) and is tagged `tag_base + slot`; pass its
    /// slot to [`Self::fill_complete`] when it lands. A fetch the
    /// controller refuses stays next in line, so a pump that pushes
    /// nothing leaves the buffer exactly as it was (the fast-forward
    /// quiescence fingerprint relies on that).
    pub fn pump(
        &mut self,
        mc: &mut MemoryController,
        now: TimePs,
        row_bytes: u64,
        tag_base: u64,
    ) -> u64 {
        let mut pushed = 0;
        while mc.free_slots() > 0 {
            let Some((slot, row)) = self.pop_fetch() else {
                break;
            };
            let req = Request {
                addr: row * row_bytes,
                bytes: row_bytes,
                tag: tag_base + slot as u64,
            };
            if mc.try_push(req, now).is_err() {
                self.untake_fetch(slot);
                break;
            }
            pushed += 1;
        }
        pushed
    }

    /// Whether every row of the stream has been allocated.
    pub fn exhausted(&self) -> bool {
        self.next_row >= self.end_row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Consumes all words of `slot` for `group`, returning the last outcome.
    fn consume_all(buf: &mut RowPrefetchBuffer, slot: usize, group: usize) -> ConsumeOutcome {
        let mut last = ConsumeOutcome::default();
        for _ in 0..4 {
            last = buf.consume(slot, group);
        }
        last
    }

    /// Pops every pending fetch, in order.
    fn drain(buf: &mut RowPrefetchBuffer) -> Vec<(usize, u64)> {
        std::iter::from_fn(|| buf.pop_fetch()).collect()
    }

    fn fill_all_pending(buf: &mut RowPrefetchBuffer) {
        for (slot, _row) in drain(buf) {
            buf.fill_complete(slot);
        }
    }

    #[test]
    fn initial_fill_allocates_capacity_rows() {
        let mut buf = RowPrefetchBuffer::new(4, 2, 4, 100, true);
        let fetches = drain(&mut buf);
        assert_eq!(
            fetches,
            vec![(0, 0), (1, 1), (2, 2), (3, 3)],
            "rows live in slot row % capacity"
        );
        assert_eq!(buf.lookup(0), Lookup::Filling);
        assert_eq!(buf.lookup(4), Lookup::Future);
    }

    #[test]
    fn fill_makes_rows_ready() {
        let mut buf = RowPrefetchBuffer::new(2, 1, 4, 10, true);
        fill_all_pending(&mut buf);
        assert_eq!(buf.lookup(0), Lookup::Ready { slot: 0 });
        assert_eq!(buf.lookup(1), Lookup::Ready { slot: 1 });
    }

    #[test]
    fn first_access_triggers_next_prefetch() {
        let mut buf = RowPrefetchBuffer::new(4, 2, 4, 100, true);
        fill_all_pending(&mut buf);
        // First consume on row 0 cannot allocate (queue full, head row 0
        // unconsumed) → blocked, PFT stays armed.
        let out = buf.consume(0, 0);
        assert!(out.trigger_blocked);
        assert_eq!(buf.stats().flow_blocks, 1);
        // Finish row 0 for both groups: saturation re-arms the trigger.
        for _ in 0..3 {
            buf.consume(0, 0);
        }
        let out = consume_all(&mut buf, 0, 1);
        assert!(out.saturated);
        assert!(
            out.triggered >= 1,
            "saturation re-armed the blocked trigger"
        );
        // Row 4 allocated into slot 0.
        assert_eq!(drain(&mut buf), vec![(0, 4)]);
        assert_eq!(buf.lookup(0), Lookup::Evicted); // row 0 retired after full consumption
    }

    #[test]
    fn pft_fires_exactly_once_per_entry() {
        // Over a full in-order consumption, every row is prefetched exactly
        // once: the PFT bits never double-trigger.
        let rows = 32;
        let mut buf = RowPrefetchBuffer::new(8, 2, 4, rows, true);
        fill_all_pending(&mut buf);
        for row in 0..rows {
            let Lookup::Ready { slot } = buf.lookup(row) else {
                panic!("row {row} not ready");
            };
            consume_all(&mut buf, slot, 0);
            consume_all(&mut buf, slot, 1);
            fill_all_pending(&mut buf);
        }
        assert_eq!(buf.stats().prefetches, rows);
        assert_eq!(buf.stats().premature_evictions, 0);
    }

    #[test]
    fn flow_control_blocks_until_head_consumed() {
        let mut buf = RowPrefetchBuffer::new(2, 2, 4, 100, true);
        fill_all_pending(&mut buf);
        // Group 0 races ahead: finishes rows 0 and 1 entirely.
        consume_all(&mut buf, 0, 0);
        let out = consume_all(&mut buf, 1, 0);
        // Triggers blocked: head (row 0) not consumed by group 1.
        assert!(out.trigger_blocked);
        assert_eq!(
            buf.lookup(0),
            Lookup::Ready { slot: 0 },
            "row 0 NOT evicted"
        );
        assert_eq!(buf.stats().premature_evictions, 0);
        // Group 1 finishes row 0 → saturation fires the pending triggers.
        let out = consume_all(&mut buf, 0, 1);
        assert!(out.saturated);
        assert!(out.triggered >= 1);
        assert_eq!(drain(&mut buf), vec![(0, 2)]);
    }

    #[test]
    fn no_flow_control_demand_wrap_evicts_prematurely() {
        let mut buf = RowPrefetchBuffer::new(2, 2, 4, 100, false);
        fill_all_pending(&mut buf);
        // Group 0 races ahead: consumes its slabs of rows 0 and 1, then
        // demands row 2, which is past every allocated entry.
        consume_all(&mut buf, 0, 0);
        consume_all(&mut buf, 1, 0);
        assert_eq!(buf.lookup(2), Lookup::Future);
        buf.force_allocate_for_demand(2);
        // Row 0 was evicted although group 1 never read a word of it.
        assert_eq!(buf.stats().premature_evictions, 1);
        assert_eq!(buf.lookup(0), Lookup::Evicted);
        // Lagging group 1's access to row 0 now reports Evicted → the
        // processor must bypass to DRAM. Row 2 took the freed slot.
        assert_eq!(drain(&mut buf), vec![(0, 2)]);
    }

    #[test]
    #[should_panic(expected = "flow control never force-evicts")]
    fn force_allocate_rejected_under_flow_control() {
        let mut buf = RowPrefetchBuffer::new(2, 2, 4, 100, true);
        buf.force_allocate_for_demand(2);
    }

    #[test]
    fn stream_exhaustion_clears_pft_without_alloc() {
        let mut buf = RowPrefetchBuffer::new(4, 1, 4, 2, true);
        fill_all_pending(&mut buf);
        assert!(buf.exhausted());
        let out = buf.consume(0, 0);
        assert_eq!(out.triggered, 0);
        assert!(!out.trigger_blocked);
        let out = buf.consume(0, 0);
        assert_eq!(out.triggered, 0);
        assert!(drain(&mut buf).is_empty());
    }

    #[test]
    fn sequential_consumption_visits_every_row_without_eviction() {
        // A well-behaved (non-straying) consumer set: groups consume rows in
        // lockstep. Flow control may *defer* triggers (the head being
        // consumed is by definition unsaturated) but nothing is evicted
        // prematurely and the stream never stalls permanently.
        let rows = 20;
        let mut buf = RowPrefetchBuffer::new(4, 2, 4, rows, true);
        fill_all_pending(&mut buf);
        for row in 0..rows {
            match buf.lookup(row) {
                Lookup::Ready { slot } => {
                    consume_all(&mut buf, slot, 0);
                    consume_all(&mut buf, slot, 1);
                }
                other => panic!("row {row}: {other:?}"),
            }
            fill_all_pending(&mut buf);
        }
        assert_eq!(buf.stats().premature_evictions, 0);
        assert_eq!(buf.stats().prefetches, rows);
    }

    #[test]
    fn final_tail_consume_rearms_blocked_triggers() {
        // Liveness regression (§IV-C): the PFT re-arm must hang off the DF
        // *saturation* event, not only off later demand accesses. Once the
        // leading group has consumed everything resident, no further access
        // to a blocked entry will ever arrive — the lagging group's final
        // consumes are the only remaining events, so each saturation must
        // itself re-fire the deferred triggers or the stream wedges.
        let mut buf = RowPrefetchBuffer::new(2, 2, 4, 100, true);
        buf.set_invariant_checks(true);
        fill_all_pending(&mut buf);
        // Group 0 races ahead through both resident rows; every trigger is
        // now deferred by flow control (head row 0 is unsaturated).
        consume_all(&mut buf, 0, 0);
        let out = consume_all(&mut buf, 1, 0);
        assert!(out.trigger_blocked);
        assert!(drain(&mut buf).is_empty(), "nothing re-armed yet");
        // Group 1 finishes the head: its saturation re-fires a deferred
        // trigger, allocating row 2 into the freed slot.
        let out = consume_all(&mut buf, 0, 1);
        assert!(out.saturated);
        assert!(out.triggered >= 1, "head saturation re-armed a trigger");
        assert_eq!(drain(&mut buf), vec![(0, 2)]);
        // Group 1's *final* consume of the old tail (row 1, while row 2's
        // trigger sits blocked behind it) saturates the new head and must
        // re-arm again — this is the very last access that can do so.
        let out = consume_all(&mut buf, 1, 1);
        assert!(out.saturated);
        assert!(out.triggered >= 1, "tail saturation re-armed a trigger");
        assert_eq!(drain(&mut buf), vec![(1, 3)]);
        // The sanitizer watched the whole trace and found it legal.
        buf.audit().assert_clean("liveness regression trace");
        assert_eq!(buf.stats().premature_evictions, 0);
    }

    #[test]
    fn untake_fetch_preserves_order() {
        let mut buf = RowPrefetchBuffer::new(4, 1, 4, 100, true);
        let fetches: Vec<_> = std::iter::from_fn(|| buf.pop_fetch()).take(2).collect();
        assert_eq!(fetches, vec![(0, 0), (1, 1)]);
        buf.untake_fetch(1);
        buf.untake_fetch(0);
        assert_eq!(drain(&mut buf), vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn pump_stops_at_a_full_controller_and_keeps_the_rest_queued() {
        use millipede_dram::{DramGeometry, DramTiming};
        let mut buf = RowPrefetchBuffer::new(4, 1, 4, 100, true);
        let mut mc =
            MemoryController::with_capacity(DramGeometry::default(), DramTiming::default(), 2);
        assert_eq!(buf.pump(&mut mc, 0, 2048, 1 << 32), 2);
        assert_eq!(mc.queue_len(), 2);
        // The controller is full: the pump takes nothing, and the fetch
        // queue (order included) and the statistics are untouched.
        let before = buf.stats().clone();
        assert_eq!(buf.pump(&mut mc, 0, 2048, 1 << 32), 0);
        assert_eq!(buf.stats(), &before);
        assert_eq!(drain(&mut buf), vec![(2, 2), (3, 3)]);
    }

    #[test]
    #[should_panic(expected = "at least two entries")]
    fn rejects_single_entry() {
        let _ = RowPrefetchBuffer::new(1, 1, 1, 10, true);
    }
}
