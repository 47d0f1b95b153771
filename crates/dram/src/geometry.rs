//! Channel geometry and address mapping.

/// Geometry of one die-stacked DRAM channel (Table III defaults).
///
/// Consecutive rows are interleaved round-robin across the channel's banks so
/// that a sequential row stream — exactly what Millipede's row prefetcher
/// produces — can overlap the activation of row *N+1* in one bank with the
/// data transfer of row *N* from another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramGeometry {
    /// Bytes per DRAM row (paper: 2 KB).
    pub row_bytes: u64,
    /// Banks per channel (paper: 4).
    pub banks: usize,
    /// Channel capacity in bytes (paper: 4 GB stack / 32 channels = 128 MB).
    pub capacity_bytes: u64,
}

impl Default for DramGeometry {
    fn default() -> Self {
        DramGeometry {
            row_bytes: 2048,
            banks: 4,
            capacity_bytes: 128 << 20,
        }
    }
}

impl DramGeometry {
    /// Global row index containing `addr`.
    #[inline]
    pub fn row_of(&self, addr: u64) -> u64 {
        addr / self.row_bytes
    }

    /// Bank servicing `addr` (rows round-robin across banks).
    #[inline]
    pub fn bank_of(&self, addr: u64) -> usize {
        (self.row_of(addr) % self.banks as u64) as usize
    }

    /// First byte address of global row `row`.
    #[inline]
    pub fn row_base(&self, row: u64) -> u64 {
        row * self.row_bytes
    }

    /// Whether the byte range `[addr, addr + bytes)` stays within one row.
    /// The controller requires this of every request (callers split at row
    /// boundaries, which all our access generators do by construction).
    #[inline]
    pub fn within_one_row(&self, addr: u64, bytes: u64) -> bool {
        bytes > 0 && self.row_of(addr) == self.row_of(addr + bytes - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_iii() {
        let g = DramGeometry::default();
        assert_eq!(g.row_bytes, 2048);
        assert_eq!(g.banks, 4);
    }

    #[test]
    fn rows_round_robin_across_banks() {
        let g = DramGeometry::default();
        assert_eq!(g.bank_of(0), 0);
        assert_eq!(g.bank_of(2048), 1);
        assert_eq!(g.bank_of(2 * 2048), 2);
        assert_eq!(g.bank_of(3 * 2048), 3);
        assert_eq!(g.bank_of(4 * 2048), 0);
        // Whole row maps to one bank.
        assert_eq!(g.bank_of(2047), 0);
        assert_eq!(g.bank_of(2048 + 2047), 1);
    }

    #[test]
    fn row_and_col_decomposition() {
        let g = DramGeometry::default();
        let addr = 5 * 2048 + 123;
        assert_eq!(g.row_of(addr), 5);
        assert_eq!(g.row_base(5), 5 * 2048);
    }

    #[test]
    fn within_one_row_checks() {
        let g = DramGeometry::default();
        assert!(g.within_one_row(0, 2048));
        assert!(!g.within_one_row(0, 2049));
        assert!(!g.within_one_row(2040, 16));
        assert!(g.within_one_row(2040, 8));
        assert!(!g.within_one_row(0, 0));
    }
}
