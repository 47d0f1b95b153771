//! Sequential cache-block prefetcher.
//!
//! The paper equips the GPGPU, VWS, and SSMC baselines with 100%-accurate
//! sequential *cache-block* prefetch of the input stream ("While Millipede
//! uses sequential row prefetch, the GPGPU, VWS, and SSMC use sequential
//! cache-block prefetch", §V) to make the comparison isolate row-orientedness
//! rather than prefetch accuracy. BMLA input accesses are strictly
//! sequential, so a prefetcher walking the stream at a fixed stride is
//! trivially 100% accurate.

use crate::cache::Cache;
use crate::mshr::Mshr;

/// Why [`SequentialPrefetcher::pump`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchStop {
    /// The cursor passed the lookahead limit or the end of the stream:
    /// nothing more to fetch until the limit rises.
    Window,
    /// The MSHR file is full or the controller refused the fill: nothing
    /// more to fetch until a fill completes or the controller drains.
    Resource,
}

/// A sequential prefetcher over one input stream: the blocks at `cursor`,
/// `cursor + stride`, … below `end`, fetched into an L1 through its MSHR
/// file as far as a lookahead `limit` the demand stream raises.
///
/// SSMC runs one per core over its slab of every row (stride one row);
/// the GPGPU runs one per SM over the whole input (stride one block).
#[derive(Debug, Clone)]
pub struct SequentialPrefetcher {
    /// Next block base address to fetch.
    cursor: u64,
    stride: u64,
    /// One past the last prefetchable block address.
    end: u64,
    /// Highest block address the lookahead window admits.
    limit: u64,
}

impl SequentialPrefetcher {
    /// A prefetcher over the blocks `start, start + stride, …` below `end`
    /// that may run up to block address `limit`.
    pub fn new(start: u64, stride: u64, end: u64, limit: u64) -> SequentialPrefetcher {
        assert!(
            stride > 0,
            "a zero stride would leave the prefetcher stuck on its first block"
        );
        SequentialPrefetcher {
            cursor: start,
            stride,
            end,
            limit,
        }
    }

    /// The next block address to fetch.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// The lookahead limit: the highest block address it may fetch now.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Raises the lookahead limit to `limit` (a lower value is ignored:
    /// the demand stream only moves forward).
    #[inline]
    pub fn raise_limit(&mut self, limit: u64) {
        self.limit = self.limit.max(limit);
    }

    /// Walks the stream up to the limit. A block already in `l1` or in
    /// flight in `mshr` is skipped; any other takes an MSHR entry once
    /// `push` has handed its fill to the memory controller (`push` returns
    /// whether the controller accepted it). Returns why the walk stopped;
    /// a block that could not be fetched stays next in line.
    #[inline]
    pub fn pump(
        &mut self,
        l1: &Cache,
        mshr: &mut Mshr,
        mut push: impl FnMut(u64) -> bool,
    ) -> PrefetchStop {
        while self.cursor < self.end && self.cursor <= self.limit {
            let block = self.cursor;
            if !l1.contains(block) && !mshr.pending(block) {
                if mshr.is_full() || !push(block) {
                    return PrefetchStop::Resource;
                }
                mshr.allocate_prefetch(block);
            }
            self.cursor += self.stride;
        }
        PrefetchStop::Window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> Cache {
        Cache::new(1024, 2, 64)
    }

    /// Pumps with a controller that accepts everything, returning the
    /// blocks pushed and the stop reason.
    fn pump_all(
        pf: &mut SequentialPrefetcher,
        l1: &Cache,
        mshr: &mut Mshr,
    ) -> (Vec<u64>, PrefetchStop) {
        let mut pushed = Vec::new();
        let stop = pf.pump(l1, mshr, |b| {
            pushed.push(b);
            true
        });
        (pushed, stop)
    }

    #[test]
    fn stays_degree_blocks_ahead() {
        let mut pf = SequentialPrefetcher::new(0, 64, 4096, 128);
        let mut mshr = Mshr::new(8);
        let (pushed, stop) = pump_all(&mut pf, &l1(), &mut mshr);
        assert_eq!(pushed, vec![0, 64, 128], "fetches up to the limit");
        assert_eq!(stop, PrefetchStop::Window);
        assert!(mshr.pending(128));
        assert_eq!(pump_all(&mut pf, &l1(), &mut mshr).0, Vec::<u64>::new());
        pf.raise_limit(192);
        pf.raise_limit(0);
        assert_eq!(pf.limit(), 192, "the limit never falls");
        assert_eq!(pump_all(&mut pf, &l1(), &mut mshr).0, vec![192]);
    }

    #[test]
    fn stops_at_end() {
        let mut pf = SequentialPrefetcher::new(32, 1024, 2048, u64::MAX);
        let (pushed, stop) = pump_all(&mut pf, &l1(), &mut Mshr::new(8));
        assert_eq!(pushed, vec![32, 1056], "strided, and never past the end");
        assert_eq!(stop, PrefetchStop::Window);
        assert_eq!(pf.cursor(), 2080);
    }

    #[test]
    fn skips_blocks_in_the_l1_or_in_flight() {
        let mut cache = l1();
        cache.fill(64);
        let mut mshr = Mshr::new(8);
        mshr.allocate(128, 7);
        let mut pf = SequentialPrefetcher::new(0, 64, 4096, 192);
        let (pushed, stop) = pump_all(&mut pf, &cache, &mut mshr);
        assert_eq!(pushed, vec![0, 192]);
        assert_eq!(stop, PrefetchStop::Window);
        assert_eq!(mshr.len(), 3);
    }

    #[test]
    fn a_full_mshr_stops_on_resources() {
        let mut mshr = Mshr::new(2);
        let mut pf = SequentialPrefetcher::new(0, 64, 4096, 4096);
        let (pushed, stop) = pump_all(&mut pf, &l1(), &mut mshr);
        assert_eq!(pushed, vec![0, 64]);
        assert_eq!(stop, PrefetchStop::Resource);
        assert_eq!(pf.cursor(), 128, "the unfetched block stays next");
    }

    #[test]
    fn push_back_retries() {
        // A refused push takes no MSHR entry and keeps its block next in
        // line, so the next pump retries it.
        let mut mshr = Mshr::new(8);
        let mut pf = SequentialPrefetcher::new(0, 64, 4096, 64);
        let stop = pf.pump(&l1(), &mut mshr, |b| b == 0);
        assert_eq!(stop, PrefetchStop::Resource);
        assert_eq!((pf.cursor(), mshr.len()), (64, 1));
        let (pushed, stop) = pump_all(&mut pf, &l1(), &mut mshr);
        assert_eq!((pushed, stop), (vec![64], PrefetchStop::Window));
    }
}
