//! Struct-of-arrays containers for per-context hot state.
//!
//! The timing models keep one [`crate::ThreadCtx`] per hardware context
//! plus a handful of per-context booleans (done, stalled, at-barrier).
//! Nesting those in per-corelet `Vec<Vec<Ctx>>` scatters the scheduler's
//! hottest reads across the heap; the inner loop walks them every compute
//! edge. These containers flatten the same state arena-style: contexts
//! live contiguously lane-major in one allocation ([`Arena2`]), and each
//! boolean becomes one bit in a per-lane mask ([`FlagGrid`]) so whole-lane
//! queries ("everyone done or at the barrier?") are a couple of word ops
//! instead of a pointer chase per context.

/// A dense `lanes × slots` arena stored lane-major in one allocation.
#[derive(Debug, Clone)]
pub struct Arena2<T> {
    slots: usize,
    data: Vec<T>,
}

impl<T> Arena2<T> {
    /// Builds a `lanes × slots` arena, initializing each element from its
    /// `(lane, slot)` coordinates.
    pub fn from_fn(lanes: usize, slots: usize, mut init: impl FnMut(usize, usize) -> T) -> Self {
        assert!(slots > 0);
        let mut data = Vec::with_capacity(lanes * slots);
        for lane in 0..lanes {
            for slot in 0..slots {
                data.push(init(lane, slot));
            }
        }
        Arena2 { slots, data }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.data.len() / self.slots
    }

    /// Number of slots per lane.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The element at `(lane, slot)`.
    pub fn get(&self, lane: usize, slot: usize) -> &T {
        &self.data[lane * self.slots + slot]
    }

    /// Mutable access to the element at `(lane, slot)`.
    pub fn get_mut(&mut self, lane: usize, slot: usize) -> &mut T {
        &mut self.data[lane * self.slots + slot]
    }

    /// All elements, lane-major (lane 0 slot 0, lane 0 slot 1, …).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

/// One boolean per `(lane, slot)`, packed as a bit mask per lane.
#[derive(Debug, Clone)]
pub struct FlagGrid {
    slots: usize,
    bits: Vec<u64>,
}

impl FlagGrid {
    /// An all-clear `lanes × slots` grid. At most 64 slots per lane.
    pub fn new(lanes: usize, slots: usize) -> FlagGrid {
        assert!(
            (1..=64).contains(&slots),
            "FlagGrid lanes hold 1..=64 slots"
        );
        FlagGrid {
            slots,
            bits: vec![0; lanes],
        }
    }

    /// The mask with every slot of a lane set.
    pub fn full_mask(&self) -> u64 {
        if self.slots == 64 {
            u64::MAX
        } else {
            (1u64 << self.slots) - 1
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.bits.len()
    }

    /// The flag at `(lane, slot)`.
    pub fn get(&self, lane: usize, slot: usize) -> bool {
        debug_assert!(slot < self.slots);
        self.bits[lane] >> slot & 1 != 0
    }

    /// Sets or clears the flag at `(lane, slot)`.
    pub fn set(&mut self, lane: usize, slot: usize, value: bool) {
        debug_assert!(slot < self.slots);
        if value {
            self.bits[lane] |= 1 << slot;
        } else {
            self.bits[lane] &= !(1 << slot);
        }
    }

    /// The raw bit mask of a lane (bit `i` = slot `i`).
    pub fn mask(&self, lane: usize) -> u64 {
        self.bits[lane]
    }

    /// How many flags are set in a lane.
    pub fn count(&self, lane: usize) -> u32 {
        self.bits[lane].count_ones()
    }

    /// Clears every flag in every lane.
    pub fn clear_all(&mut self) {
        self.bits.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_is_lane_major() {
        let a = Arena2::from_fn(3, 4, |lane, slot| (lane, slot));
        assert_eq!(a.lanes(), 3);
        assert_eq!(a.slots(), 4);
        assert_eq!(*a.get(0, 0), (0, 0));
        assert_eq!(*a.get(2, 3), (2, 3));
        assert_eq!(a.as_slice()[5], (1, 1));
    }

    #[test]
    fn arena_mutation_round_trips() {
        let mut a = Arena2::from_fn(2, 2, |_, _| 0u32);
        *a.get_mut(1, 0) = 7;
        assert_eq!(*a.get(1, 0), 7);
        assert_eq!(a.as_slice(), &[0, 0, 7, 0]);
    }

    #[test]
    fn flags_set_get_and_lane_queries() {
        let mut f = FlagGrid::new(2, 4);
        assert!(!f.get(0, 2));
        f.set(0, 2, true);
        assert!(f.get(0, 2));
        assert_eq!(f.count(0), 1);
        assert_ne!(f.mask(0), f.full_mask());
        for slot in 0..4 {
            f.set(1, slot, true);
        }
        assert_eq!(f.mask(1), f.full_mask());
        assert_eq!(f.mask(1), 0b1111);
        f.set(1, 3, false);
        assert_eq!(f.mask(1), 0b0111);
        f.clear_all();
        assert_eq!(f.mask(0) | f.mask(1), 0);
    }

    #[test]
    fn full_mask_handles_64_slots() {
        let f = FlagGrid::new(1, 64);
        assert_eq!(f.full_mask(), u64::MAX);
    }
}
