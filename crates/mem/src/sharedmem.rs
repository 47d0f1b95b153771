//! GPGPU Shared-Memory bank-conflict model.
//!
//! The paper places GPGPU live state in Shared Memory "striped across its
//! banks (i.e., the i-th thread's state in the i-th bank)" so that the BMLA
//! kernels' indirect accesses stay conflict-free (§III-E, §V). The model
//! still needs the general conflict rule for the cases where a kernel's
//! layout is *not* perfectly striped: a warp access serializes into as many
//! passes as the maximum number of *distinct word addresses* mapping to any
//! single bank (same-word accesses broadcast in one pass).
//!
//! The rule is split in two: [`SharedMemoryBanks::passes_of`] is pure and
//! allocation-free, so a warp can ask whether an access would serialize
//! before deciding to run it, and [`SharedMemoryBanks::record`] counts an
//! access that ran.

/// The most lanes one warp access has (the widest warp).
pub const MAX_LANES: usize = 64;

/// Word-interleaved shared memory banking (Table III: 4-byte interleaving,
/// one bank per lane).
#[derive(Debug, Clone)]
pub struct SharedMemoryBanks {
    num_banks: usize,
    accesses: u64,
    passes: u64,
}

impl SharedMemoryBanks {
    /// Creates a banking model with `num_banks` banks.
    pub fn new(num_banks: usize) -> SharedMemoryBanks {
        assert!(num_banks > 0);
        SharedMemoryBanks {
            num_banks,
            accesses: 0,
            passes: 0,
        }
    }

    /// Number of banks.
    pub fn num_banks(&self) -> usize {
        self.num_banks
    }

    /// The serialization (number of passes ≥ 1) of one warp-wide access
    /// with the given active lanes' byte addresses: the most distinct words
    /// any one bank holds. Returns 0 for an empty access (no active lanes).
    ///
    /// Pure and allocation-free: the (bank, word) keys are sorted on the
    /// stack and counted.
    ///
    /// # Panics
    ///
    /// Panics on more than [`MAX_LANES`] addresses.
    pub fn passes_of(&self, addrs: &[u64]) -> u32 {
        assert!(addrs.len() <= MAX_LANES, "warp wider than {MAX_LANES}");
        if addrs.is_empty() {
            return 0;
        }
        let banks = self.num_banks as u64;
        let mut keys = [(0u64, 0u64); MAX_LANES];
        for (k, &a) in keys.iter_mut().zip(addrs) {
            *k = ((a / 4) % banks, a / 4);
        }
        let keys = &mut keys[..addrs.len()];
        keys.sort_unstable();
        // Count distinct words per bank over the sorted keys.
        let (mut max, mut run) = (1, 1);
        for pair in keys.windows(2) {
            let (prev, next) = (pair[0], pair[1]);
            if next.0 != prev.0 {
                run = 1;
            } else if next.1 != prev.1 {
                run += 1;
                max = max.max(run);
            }
        }
        max
    }

    /// Records one warp access that ran in `passes` passes.
    pub fn record(&mut self, passes: u32) {
        self.accesses += 1;
        self.passes += u64::from(passes);
    }

    /// Total warp accesses observed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total serialized passes (≥ accesses; the excess is conflict cost).
    pub fn passes(&self) -> u64 {
        self.passes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rule as stated: distinct words per bank, counted naively.
    fn naive_passes(num_banks: usize, addrs: &[u64]) -> u32 {
        let mut per_bank: Vec<Vec<u64>> = vec![Vec::new(); num_banks];
        for &a in addrs {
            let word = a / 4;
            let bank = &mut per_bank[(word % num_banks as u64) as usize];
            if !bank.contains(&word) {
                bank.push(word);
            }
        }
        per_bank.iter().map(Vec::len).max().unwrap_or(0) as u32
    }

    #[test]
    fn conflict_free_when_striped() {
        let sm = SharedMemoryBanks::new(32);
        // Lane i accesses word i (the paper's striping): one pass.
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 4).collect();
        assert_eq!(sm.passes_of(&addrs), 1);
    }

    #[test]
    fn per_thread_state_striping_is_conflict_free() {
        let sm = SharedMemoryBanks::new(32);
        // Lane i accesses its own state block at (i + 32*k_i)*4 for
        // arbitrary per-lane k: always bank i → one pass.
        let addrs: Vec<u64> = (0..32u64).map(|i| (i + 32 * (i % 7)) * 4).collect();
        assert_eq!(sm.passes_of(&addrs), 1);
    }

    #[test]
    fn same_word_broadcasts() {
        let sm = SharedMemoryBanks::new(32);
        assert_eq!(sm.passes_of(&[8u64; 32]), 1);
    }

    #[test]
    fn same_bank_different_words_serialize() {
        let sm = SharedMemoryBanks::new(32);
        // Words 0, 32, 64, 96 all map to bank 0 → 4 passes.
        let addrs: Vec<u64> = (0..4u64).map(|k| k * 32 * 4).collect();
        assert_eq!(sm.passes_of(&addrs), 4);
    }

    #[test]
    fn only_recorded_accesses_count() {
        let mut sm = SharedMemoryBanks::new(32);
        let p = sm.passes_of(&[0, 4]);
        sm.record(p);
        // Words 0 and 32: bank 0 twice.
        let p = sm.passes_of(&[0, 128]);
        assert_eq!(p, 2);
        sm.record(p);
        sm.passes_of(&[0, 256, 512]);
        assert_eq!(sm.accesses(), 2);
        assert_eq!(sm.passes(), 3);
    }

    #[test]
    fn empty_access_is_free() {
        let sm = SharedMemoryBanks::new(32);
        assert_eq!(sm.passes_of(&[]), 0);
    }

    #[test]
    fn passes_of_equals_the_naive_count_on_random_accesses() {
        // xorshift64 address sets over a few words so banks collide, with
        // broadcasts mixed in, up to 64 lanes.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for num_banks in [1, 4, 32, 64, 96] {
            let sm = SharedMemoryBanks::new(num_banks);
            for case in 0..2_000 {
                let lanes = 1 + (next() % MAX_LANES as u64) as usize;
                let words = 1 + next() % 256;
                let broadcast = case % 5 == 0;
                let shared = next() % words;
                let addrs: Vec<u64> = (0..lanes)
                    .map(|_| {
                        let word = if broadcast && next() % 2 == 0 {
                            shared
                        } else {
                            next() % words
                        };
                        word * 4 + next() % 4
                    })
                    .collect();
                assert_eq!(
                    sm.passes_of(&addrs),
                    naive_passes(num_banks, &addrs),
                    "{num_banks} banks: {addrs:?}"
                );
            }
            let full: Vec<u64> = (0..MAX_LANES as u64).map(|i| i * 4 * 33).collect();
            assert_eq!(sm.passes_of(&full), naive_passes(num_banks, &full));
        }
    }
}
