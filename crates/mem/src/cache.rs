//! Set-associative tag-array cache model (timing + occupancy only).
//!
//! The functional data always comes from the [`crate::InputImage`] or
//! [`crate::LocalMem`]; this cache tracks *which blocks are resident* and
//! produces hit/miss/eviction decisions and statistics. That is all the
//! architecture models need: a hit costs a pipeline cycle, a miss allocates
//! an MSHR and a DRAM fill.

/// Cache statistics.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses that hit.
    pub hits: u64,
    /// Demand accesses that missed.
    pub misses: u64,
    /// Blocks evicted to make room for fills.
    pub evictions: u64,
    /// Fills inserted (demand or prefetch).
    pub fills: u64,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    /// LRU timestamp (bigger = more recent).
    lru: u64,
}

/// An LRU set-associative cache over fixed-size blocks.
///
/// The tag array is one flat set-major line vector and set selection avoids
/// the hardware divide (power-of-two block shift, multiply-based modulo):
/// the cache is probed on every demand access *and* every prefetch-window
/// check of every core on every simulated cycle, which makes these probes
/// one of the hottest paths in the whole simulator.
#[derive(Debug, Clone)]
pub struct Cache {
    /// `num_sets × assoc` lines, set-major.
    lines: Vec<Line>,
    assoc: usize,
    block_bytes: u64,
    /// `log2(block_bytes)`: block index = `addr >> block_shift`.
    block_shift: u32,
    num_sets: u64,
    /// Lemire magic for `x % num_sets` without a divide: `⌊2^64/n⌋ + 1`.
    mod_magic: u64,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache of `capacity_bytes` with `assoc` ways and
    /// `block_bytes` blocks.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity_bytes` divides evenly into
    /// `assoc × block_bytes` sets and `block_bytes` is a power of two.
    pub fn new(capacity_bytes: u64, assoc: usize, block_bytes: u64) -> Cache {
        assert!(block_bytes.is_power_of_two(), "block size not a power of 2");
        let set_bytes = assoc as u64 * block_bytes;
        assert!(
            capacity_bytes.is_multiple_of(set_bytes) && capacity_bytes > 0,
            "capacity {capacity_bytes} not divisible into {assoc}-way sets of {block_bytes}-B blocks"
        );
        let num_sets = capacity_bytes / set_bytes;
        Cache {
            lines: vec![
                Line {
                    tag: 0,
                    valid: false,
                    lru: 0
                };
                num_sets as usize * assoc
            ],
            assoc,
            block_bytes,
            block_shift: block_bytes.trailing_zeros(),
            num_sets,
            mod_magic: (u64::MAX / num_sets).wrapping_add(1),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Block size in bytes.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Aligns `addr` down to its block base.
    #[inline]
    pub fn block_of(&self, addr: u64) -> u64 {
        addr & !(self.block_bytes - 1)
    }

    fn set_of(&self, block: u64) -> usize {
        // Hash-indexed set selection: XOR-fold the block index so that
        // power-of-two strided streams (e.g. an SSMC core's one-slab-per-row
        // stream, whose addresses step by the 2 KB row) spread across sets
        // instead of thrashing one. Plain modulo indexing would map every
        // such block to a single set.
        let idx = block >> self.block_shift;
        let folded = idx ^ (idx >> 5) ^ (idx >> 10) ^ (idx >> 15);
        // Lemire's multiply-based remainder, exact for 32-bit operands (the
        // simulated datasets keep folded block indices far below 2^32; the
        // divide fallback keeps correctness independent of that).
        if folded <= u64::from(u32::MAX) && self.num_sets <= u64::from(u32::MAX) {
            let low = self.mod_magic.wrapping_mul(folded);
            ((u128::from(low) * u128::from(self.num_sets)) >> 64) as usize
        } else {
            (folded % self.num_sets) as usize
        }
    }

    /// The `assoc` lines of one set.
    #[inline]
    fn set(&self, set: usize) -> &[Line] {
        &self.lines[set * self.assoc..(set + 1) * self.assoc]
    }

    #[inline]
    fn set_mut(&mut self, set: usize) -> &mut [Line] {
        &mut self.lines[set * self.assoc..(set + 1) * self.assoc]
    }

    /// Demand access for the block containing `addr`. Returns `true` on hit
    /// and updates LRU; on miss only statistics are updated — the caller
    /// decides whether to allocate an MSHR and later [`Cache::fill`].
    pub fn access(&mut self, addr: u64) -> bool {
        let block = self.block_of(addr);
        let set = self.set_of(block);
        self.tick += 1;
        let tick = self.tick;
        if let Some(line) = self
            .set_mut(set)
            .iter_mut()
            .find(|l| l.valid && l.tag == block)
        {
            line.lru = tick;
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// Whether the block containing `addr` is resident (no LRU/stat update).
    pub fn contains(&self, addr: u64) -> bool {
        let block = self.block_of(addr);
        let set = self.set_of(block);
        self.set(set).iter().any(|l| l.valid && l.tag == block)
    }

    /// Fills the block containing `addr`, evicting the LRU line if needed.
    /// Returns the evicted block's base address, if any.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        let block = self.block_of(addr);
        let set = self.set_of(block);
        self.tick += 1;
        let tick = self.tick;
        self.stats.fills += 1;
        if let Some(line) = self
            .set_mut(set)
            .iter_mut()
            .find(|l| l.valid && l.tag == block)
        {
            // Already resident (e.g. prefetch raced a demand fill).
            line.lru = tick;
            return None;
        }
        let assoc = self.assoc;
        let victim = self.lines[set * assoc..(set + 1) * assoc]
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("non-zero associativity"); // audit:allow(unwrap-in-hot-path): associativity is validated > 0 at construction
        let evicted = victim.valid.then_some(victim.tag);
        *victim = Line {
            tag: block,
            valid: true,
            lru: tick,
        };
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        evicted
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = Cache::new(1024, 2, 128);
        assert!(!c.access(0));
        assert!(!c.contains(0));
        assert_eq!(c.fill(0), None);
        assert!(c.contains(64)); // same block
        assert!(c.access(64));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().fills, 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        // 2-way, 128-B blocks, 2 sets (512 B total).
        let mut c = Cache::new(512, 2, 128);
        // Blocks 0, 256, 512 all map to set 0 (block/128 % 2 == 0).
        c.fill(0);
        c.fill(256);
        // Touch block 0 so 256 becomes LRU.
        assert!(c.access(0));
        let evicted = c.fill(512);
        assert_eq!(evicted, Some(256));
        assert!(c.contains(0));
        assert!(c.contains(512));
        assert!(!c.contains(256));
    }

    #[test]
    fn fills_prefer_invalid_ways() {
        let mut c = Cache::new(512, 2, 128);
        c.fill(0);
        assert_eq!(c.fill(256), None); // second way free — no eviction
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn duplicate_fill_is_idempotent() {
        let mut c = Cache::new(512, 2, 128);
        c.fill(0);
        assert_eq!(c.fill(0), None);
        assert!(c.contains(0));
        // Only one way consumed.
        c.fill(256);
        assert!(c.contains(256));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = Cache::new(512, 2, 128);
        c.fill(0); // set 0
        c.fill(128); // set 1
        c.fill(256); // set 0
        c.fill(384); // set 1
        assert_eq!(c.stats().evictions, 0);
        assert!(c.contains(0) && c.contains(128) && c.contains(256) && c.contains(384));
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut c = Cache::new(512, 2, 128);
        c.access(0);
        c.fill(0);
        c.access(0);
        c.access(0);
        assert_eq!((c.stats().hits, c.stats().misses), (2, 1));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_bad_geometry() {
        let _ = Cache::new(1000, 2, 128);
    }

    #[test]
    fn ssmc_5kb_cache_geometry_works() {
        // SSMC per-core L1: 5 KB, 128-B lines (Table III) — 40 lines; use
        // 4-way (10 sets isn't a power of two, but set indexing is modulo,
        // not bit-sliced, so any set count works).
        let c = Cache::new(5 * 1024, 4, 128);
        assert_eq!(c.block_bytes(), 128);
    }
}
