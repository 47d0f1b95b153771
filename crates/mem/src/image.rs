//! Functional backing store for the input dataset.

use std::sync::Arc;

/// The read-only input dataset resident in die-stacked DRAM.
///
/// Per the paper's memory interface (§IV-E), the host loads the dataset into
/// the stacked DRAM once, in the interleaved layout, before kernels run; the
/// corelets never write it. The image is word-addressed (all BMLA record
/// fields are 4-byte words) and cheaply cloneable so every simulated
/// processor shares one copy.
#[derive(Debug, Clone)]
pub struct InputImage {
    words: Arc<[u32]>,
}

impl InputImage {
    /// Wraps a word vector as the dataset image.
    pub fn new(words: Vec<u32>) -> InputImage {
        InputImage {
            words: words.into(),
        }
    }

    /// Dataset size in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.words.len() as u64 * 4
    }

    /// Whether the image holds no data.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Loads the word at byte address `addr`.
    ///
    /// Returns `None` when `addr` is misaligned or out of bounds; the
    /// simulator surfaces that as a kernel trap.
    #[inline]
    pub fn load(&self, addr: u64) -> Option<u32> {
        if !addr.is_multiple_of(4) {
            return None;
        }
        self.words.get((addr / 4) as usize).copied()
    }

    /// Direct word-slice access (used by reference implementations).
    pub fn words(&self) -> &[u32] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_words_by_byte_address() {
        let img = InputImage::new(vec![10, 20, 30]);
        assert_eq!(img.load(0), Some(10));
        assert_eq!(img.load(4), Some(20));
        assert_eq!(img.load(8), Some(30));
    }

    #[test]
    fn rejects_misaligned_and_oob() {
        let img = InputImage::new(vec![10]);
        assert_eq!(img.load(1), None);
        assert_eq!(img.load(2), None);
        assert_eq!(img.load(4), None);
    }

    #[test]
    fn size_accessors() {
        let img = InputImage::new(vec![0; 7]);
        assert_eq!(img.len_bytes(), 28);
        assert!(!img.is_empty());
        assert!(InputImage::new(vec![]).is_empty());
    }

    #[test]
    fn clones_share_storage() {
        let img = InputImage::new(vec![1, 2, 3]);
        let img2 = img.clone();
        assert!(std::ptr::eq(img.words(), img2.words()));
    }
}
