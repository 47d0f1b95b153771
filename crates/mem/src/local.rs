//! Per-thread local live state.

use std::fmt;

/// A memory access fault raised by a kernel (out-of-bounds or misaligned).
///
/// BMLA kernels own their layout, so a fault is a kernel-authoring bug; the
/// simulator aborts the offending run with this error rather than panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemFault {
    /// The faulting byte address.
    pub addr: u64,
    /// Size of the space at the time of the fault, in bytes.
    pub size: u64,
    /// Whether the access was a store.
    pub write: bool,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fault at byte address {:#x} (space size {} B)",
            if self.write { "store" } else { "load" },
            self.addr,
            self.size
        )
    }
}

impl std::error::Error for MemFault {}

/// The local live state of one hardware thread context.
///
/// The paper's compactness property (§III) is that the per-thread live state
/// — the partially-reduced Map output plus constants — fits in a few KB.
/// Millipede backs it with the corelet's 4 KB local memory, the GPGPU with
/// Shared Memory, and SSMC with its L1 D-cache; functionally they are all
/// this word array.
#[derive(Debug, Clone)]
pub struct LocalMem {
    words: Vec<u32>,
}

impl LocalMem {
    /// Creates a zeroed local memory of `bytes` (rounded down to words).
    pub fn new(bytes: usize) -> LocalMem {
        LocalMem {
            words: vec![0; bytes / 4],
        }
    }

    /// Capacity in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.words.len() as u64 * 4
    }

    /// Whether a load or store at byte address `addr` would succeed
    /// (word-aligned and in bounds): the faulting check, without the fault.
    #[inline]
    pub fn in_bounds(&self, addr: u64) -> bool {
        addr.is_multiple_of(4) && addr / 4 < self.words.len() as u64
    }

    fn index(&self, addr: u64, write: bool) -> Result<usize, MemFault> {
        if !self.in_bounds(addr) {
            return Err(MemFault {
                addr,
                size: self.len_bytes(),
                write,
            });
        }
        Ok((addr / 4) as usize)
    }

    /// Loads the word at byte address `addr`.
    #[inline]
    pub fn load(&self, addr: u64) -> Result<u32, MemFault> {
        let i = self.index(addr, false)?;
        Ok(self.words[i])
    }

    /// Stores `value` at byte address `addr`.
    #[inline]
    pub fn store(&mut self, addr: u64, value: u32) -> Result<(), MemFault> {
        let i = self.index(addr, true)?;
        self.words[i] = value;
        Ok(())
    }

    /// A read-only view of the contents (host-side Reduce reads this).
    pub fn words(&self) -> &[u32] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_round_trip() {
        let mut m = LocalMem::new(64);
        m.store(8, 123).unwrap();
        assert_eq!(m.load(8).unwrap(), 123);
        assert_eq!(m.load(12).unwrap(), 0);
    }

    #[test]
    fn faults_on_oob_and_misaligned() {
        let mut m = LocalMem::new(16);
        assert!(m.load(16).is_err());
        assert!(m.store(16, 0).is_err());
        let e = m.load(2).unwrap_err();
        assert_eq!(e.addr, 2);
        assert!(!e.write);
        let e = m.store(100, 0).unwrap_err();
        assert!(e.write);
        assert_eq!(e.size, 16);
    }

    #[test]
    fn in_bounds_is_exactly_the_fault_check() {
        let m = LocalMem::new(16);
        for addr in 0..24 {
            assert_eq!(m.in_bounds(addr), m.load(addr).is_ok(), "addr {addr}");
        }
    }

    #[test]
    fn size_rounds_down_to_words() {
        let m = LocalMem::new(15);
        assert_eq!(m.len_bytes(), 12);
    }

    #[test]
    fn fault_display_is_descriptive() {
        let e = MemFault {
            addr: 0x20,
            size: 16,
            write: true,
        };
        let s = e.to_string();
        assert!(s.contains("store"));
        assert!(s.contains("0x20"));
    }
}
