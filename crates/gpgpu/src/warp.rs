//! SIMT warps and the IPDOM reconvergence stack.
//!
//! BMLAs' data-dependent branches are what break SIMT efficiency (§II,
//! §III-E): when a warp's threads disagree on a branch, the hardware
//! serializes the taken and not-taken paths and re-forms the warp at the
//! branch's immediate post-dominator. This module implements the classic
//! three-frame stack scheme over the reconvergence PCs computed by
//! `millipede-isa`'s CFG analysis.
//!
//! The warp's *width* is a parameter: 32 for the plain GPGPU, 4 for VWS
//! (which the paper observes always picks 4-wide warps on BMLAs because
//! their branches split ~70/30, leaving under a 25% chance that even 4
//! threads agree).

/// The widest warp: a warp's thread masks are 64-bit words.
pub const MAX_WARP_WIDTH: usize = 64;

/// One stack frame: a path being executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Current PC of this path.
    pub pc: u32,
    /// Threads on this path (bit *i* = warp-local thread *i*).
    pub mask: u64,
    /// PC where this path rejoins its sibling (`None` = only at thread
    /// exit).
    pub reconv: Option<u32>,
}

/// A SIMT warp: width, member threads, and the reconvergence stack.
#[derive(Debug, Clone)]
pub struct Warp {
    /// Global index of the warp's first thread.
    pub first_thread: usize,
    /// Number of threads (= warp width).
    pub width: usize,
    /// Bit *i* set when warp-local thread *i* has halted.
    pub halted: u64,
    stack: Vec<Frame>,
}

impl Warp {
    /// Creates a warp of `width` threads starting at `first_thread`, all at
    /// PC 0.
    pub fn new(first_thread: usize, width: usize) -> Warp {
        assert!((1..=MAX_WARP_WIDTH).contains(&width));
        let full = if width == MAX_WARP_WIDTH {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        Warp {
            first_thread,
            width,
            halted: 0,
            stack: vec![Frame {
                pc: 0,
                mask: full,
                reconv: None,
            }],
        }
    }

    /// The live (non-halted) active mask of the current path, with its PC.
    /// `None` when the warp has finished.
    pub fn current(&mut self) -> Option<(u32, u64)> {
        self.settle();
        self.stack.last().map(|f| (f.pc, f.mask & !self.halted))
    }

    /// Pops finished paths: empty live masks, and paths that reached their
    /// reconvergence PC.
    fn settle(&mut self) {
        while let Some(top) = self.stack.last() {
            let live = top.mask & !self.halted;
            if live == 0 || top.reconv == Some(top.pc) {
                self.stack.pop();
            } else {
                break;
            }
        }
    }

    /// Whether every thread has halted (or no path remains).
    pub fn done(&mut self) -> bool {
        self.current().is_none()
    }

    /// What [`Warp::done`] reports, without settling the stack: every
    /// frame would pop (settling pops a frame on its own state alone).
    pub fn finished(&self) -> bool {
        self.stack
            .iter()
            .all(|f| f.mask & !self.halted == 0 || f.reconv == Some(f.pc))
    }

    /// Advances the current path's PC (uniform execution).
    pub fn advance_to(&mut self, pc: u32) {
        let top = self.stack.last_mut().expect("warp not done"); // audit:allow(unwrap-in-hot-path): documented precondition
        top.pc = pc;
    }

    /// Records that warp-local thread `i` halted.
    pub fn halt_thread(&mut self, i: usize) {
        debug_assert!(i < self.width);
        self.halted |= 1 << i;
    }

    /// Splits the current path at a divergent branch.
    ///
    /// `taken_mask`/`fallthrough_mask` partition the current live mask;
    /// `target` and `next_pc` are the two paths' PCs; `reconv` is the
    /// branch's immediate post-dominator PC. The taken path runs first.
    pub fn diverge(
        &mut self,
        taken_mask: u64,
        target: u32,
        fallthrough_mask: u64,
        next_pc: u32,
        reconv: Option<u32>,
    ) {
        debug_assert_ne!(taken_mask, 0);
        debug_assert_ne!(fallthrough_mask, 0);
        debug_assert_eq!(taken_mask & fallthrough_mask, 0);
        let top = self.stack.last_mut().expect("warp not done"); // audit:allow(unwrap-in-hot-path): documented precondition
                                                                 // The current frame becomes the reconvergence frame. When the
                                                                 // paths never rejoin (reconv None) it dies once both children pop.
        match reconv {
            Some(r) => top.pc = r,
            None => top.mask = 0,
        }
        let parent_reconv = reconv;
        self.stack.push(Frame {
            pc: next_pc,
            mask: fallthrough_mask,
            reconv: parent_reconv,
        });
        self.stack.push(Frame {
            pc: target,
            mask: taken_mask,
            reconv: parent_reconv,
        });
    }

    /// Reconvergence PC of the current (top) path, if any. Execution past
    /// this PC must not be batched: the path settles there and hands the
    /// warp to its sibling.
    pub fn current_reconv(&self) -> Option<u32> {
        self.stack.last().and_then(|f| f.reconv)
    }

    /// Current stack depth (diagnostics).
    pub fn stack_depth(&self) -> usize {
        self.stack.len()
    }

    /// Iterates the global thread indices selected by `mask`.
    pub fn threads_of(&self, mask: u64) -> impl Iterator<Item = usize> + '_ {
        (0..self.width)
            .filter(move |i| mask & (1 << i) != 0)
            .map(move |i| self.first_thread + i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_warp_is_fully_active_at_zero() {
        let mut w = Warp::new(8, 4);
        assert_eq!(w.current(), Some((0, 0b1111)));
        assert!(!w.done());
        assert_eq!(w.threads_of(0b1111).collect::<Vec<_>>(), vec![8, 9, 10, 11]);
    }

    #[test]
    fn uniform_advance() {
        let mut w = Warp::new(0, 4);
        w.advance_to(5);
        assert_eq!(w.current(), Some((5, 0b1111)));
    }

    #[test]
    fn divergence_executes_taken_then_fallthrough_then_reconverges() {
        let mut w = Warp::new(0, 4);
        w.advance_to(10);
        // Branch at 10: threads 0,2 take to 20; 1,3 fall through to 11;
        // reconverge at 30.
        w.diverge(0b0101, 20, 0b1010, 11, Some(30));
        assert_eq!(w.current(), Some((20, 0b0101)));
        // Taken path runs to the reconvergence point.
        w.advance_to(30);
        assert_eq!(w.current(), Some((11, 0b1010)));
        w.advance_to(30);
        // Both paths done: full warp resumes at 30.
        assert_eq!(w.current(), Some((30, 0b1111)));
        assert_eq!(w.stack_depth(), 1);
    }

    #[test]
    fn nested_divergence() {
        let mut w = Warp::new(0, 4);
        w.diverge(0b0011, 10, 0b1100, 1, Some(40));
        assert_eq!(w.current(), Some((10, 0b0011)));
        // Inner divergence on the taken path.
        w.diverge(0b0001, 20, 0b0010, 11, Some(35));
        assert_eq!(w.current(), Some((20, 0b0001)));
        w.advance_to(35);
        assert_eq!(w.current(), Some((11, 0b0010)));
        w.advance_to(35);
        // Inner reconverged; outer taken path continues at 35.
        assert_eq!(w.current(), Some((35, 0b0011)));
        w.advance_to(40);
        assert_eq!(w.current(), Some((1, 0b1100)));
        w.advance_to(40);
        assert_eq!(w.current(), Some((40, 0b1111)));
    }

    #[test]
    fn halted_threads_leave_masks() {
        let mut w = Warp::new(0, 4);
        w.halt_thread(0);
        w.halt_thread(2);
        assert_eq!(w.current(), Some((0, 0b1010)));
        w.halt_thread(1);
        w.halt_thread(3);
        assert!(w.done());
    }

    #[test]
    fn no_reconvergence_paths_pop_on_halt() {
        let mut w = Warp::new(0, 2);
        // Paths that only rejoin at exit.
        w.diverge(0b01, 5, 0b10, 1, None);
        assert_eq!(w.current(), Some((5, 0b01)));
        w.halt_thread(0);
        // Taken path dead; fallthrough runs.
        assert_eq!(w.current(), Some((1, 0b10)));
        w.halt_thread(1);
        assert!(w.done());
    }

    #[test]
    fn full_width_64_mask() {
        let mut w = Warp::new(0, 64);
        assert_eq!(w.current(), Some((0, u64::MAX)));
    }
}
