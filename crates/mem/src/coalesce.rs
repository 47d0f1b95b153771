//! Memory-access coalescing for SIMT warps.
//!
//! A warp's input loads are coalesced into distinct cache-block transactions.
//! With the interleaved layout (§III-B) consecutive lanes touch consecutive
//! words, so a full 32-lane warp access to 4-byte words spans exactly one
//! 128-byte block — the best case the paper assumes for GPGPU input traffic.
//! Divergence shrinks the active mask, which *reduces* the data returned per
//! block but not the number of blocks, wasting bandwidth — captured
//! naturally because the block transaction count stays the same.

use crate::sharedmem::MAX_LANES;

/// Coalesces the active lanes' byte addresses into distinct block base
/// addresses, preserving first-touch order. The blocks are written into
/// the caller's `out` buffer (a warp retries a stalled load every cycle, so
/// this path must not allocate); the returned slice is the filled prefix.
///
/// # Panics
///
/// Panics on more than [`MAX_LANES`] addresses.
pub fn coalesce_blocks<'a>(
    addrs: &[u64],
    block_bytes: u64,
    out: &'a mut [u64; MAX_LANES],
) -> &'a [u64] {
    assert!(block_bytes.is_power_of_two());
    assert!(addrs.len() <= MAX_LANES, "warp wider than {MAX_LANES}");
    let mask = !(block_bytes - 1);
    let mut n = 0;
    for &a in addrs {
        let b = a & mask;
        if !out[..n].contains(&b) {
            out[n] = b;
            n += 1;
        }
    }
    &out[..n]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(addrs: &[u64]) -> Vec<u64> {
        coalesce_blocks(addrs, 128, &mut [0; MAX_LANES]).to_vec()
    }

    #[test]
    fn contiguous_warp_access_is_one_block() {
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 4).collect();
        assert_eq!(blocks(&addrs), vec![0]);
    }

    #[test]
    fn misaligned_warp_access_spans_two_blocks() {
        let addrs: Vec<u64> = (0..32u64).map(|i| 64 + i * 4).collect();
        assert_eq!(blocks(&addrs), vec![0, 128]);
    }

    #[test]
    fn strided_access_touches_many_blocks() {
        let addrs: Vec<u64> = (0..4u64).map(|i| i * 128).collect();
        assert_eq!(blocks(&addrs), vec![0, 128, 256, 384]);
    }

    #[test]
    fn duplicate_blocks_deduplicate_in_order() {
        assert_eq!(blocks(&[300, 4, 8, 260]), vec![256, 0]);
    }

    #[test]
    fn a_full_64_lane_scatter_fills_the_buffer() {
        let addrs: Vec<u64> = (0..64u64).rev().map(|i| i * 128 + 4).collect();
        let want: Vec<u64> = (0..64u64).rev().map(|i| i * 128).collect();
        assert_eq!(blocks(&addrs), want);
    }

    #[test]
    fn empty_access() {
        assert!(blocks(&[]).is_empty());
    }
}
