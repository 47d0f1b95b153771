//! Control-flow graphs and SIMT reconvergence analysis.
//!
//! The GPGPU baseline (§II, §V of the paper) handles divergent branches with
//! the standard *immediate post-dominator* (IPDOM) reconvergence stack: when
//! a warp's threads split at a data-dependent branch, both paths execute
//! serially and the warp re-forms at the branch's immediate post-dominator.
//! GPGPUsim gets reconvergence points from the compiler; we compute them here
//! directly from the kernel binary:
//!
//! 1. partition the program into basic blocks ([`Cfg::build`]);
//! 2. compute post-dominators with the Cooper–Harvey–Kennedy dominance
//!    algorithm run on the reverse CFG (a virtual exit node joins every
//!    `Halt`);
//! 3. map every conditional branch PC to the first PC of its block's
//!    immediate post-dominator ([`ReconvergenceMap`]).

use crate::instr::Instr;
use crate::program::Program;
use std::collections::BTreeMap;

/// A basic block: a maximal straight-line instruction range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// PC of the first instruction.
    pub start: u32,
    /// PC one past the last instruction.
    pub end: u32,
    /// Successor block indices (0, 1, or 2 of them).
    pub succs: Vec<usize>,
}

/// A control-flow graph over a [`Program`].
#[derive(Debug)]
pub struct Cfg {
    blocks: Vec<Block>,
    /// Block index containing each PC.
    block_of_pc: Vec<usize>,
}

impl Cfg {
    /// Builds the CFG of `program`.
    pub fn build(program: &Program) -> Cfg {
        let instrs = program.instrs();
        let n = instrs.len();

        // Leaders: pc 0, every branch/jump target, every instruction after a
        // control-flow instruction.
        let mut leader = vec![false; n];
        leader[0] = true;
        for (pc, instr) in instrs.iter().enumerate() {
            match *instr {
                Instr::Br { target, .. } => {
                    leader[target as usize] = true;
                    if pc + 1 < n {
                        leader[pc + 1] = true;
                    }
                }
                Instr::Jmp { target } => {
                    leader[target as usize] = true;
                    if pc + 1 < n {
                        leader[pc + 1] = true;
                    }
                }
                Instr::Halt if pc + 1 < n => {
                    leader[pc + 1] = true;
                }
                _ => {}
            }
        }

        // Carve blocks.
        let mut blocks: Vec<Block> = Vec::new();
        let mut block_of_pc = vec![usize::MAX; n];
        let mut start = 0usize;
        for pc in 0..n {
            block_of_pc[pc] = blocks.len();
            let last_in_block = pc + 1 == n || leader[pc + 1];
            if last_in_block {
                blocks.push(Block {
                    start: start as u32,
                    end: (pc + 1) as u32,
                    succs: Vec::new(),
                });
                start = pc + 1;
            }
        }

        // Successor edges.
        let num_blocks = blocks.len();
        #[allow(clippy::needless_range_loop)]
        for b in 0..num_blocks {
            let last_pc = blocks[b].end as usize - 1;
            let succs: Vec<usize> = match instrs[last_pc] {
                Instr::Br { target, .. } => {
                    let taken = block_of_pc[target as usize];
                    let mut s = vec![taken];
                    // Fallthrough exists by program validation (a Br is never
                    // the final instruction).
                    let fall = block_of_pc[last_pc + 1];
                    if fall != taken {
                        s.push(fall);
                    }
                    s
                }
                Instr::Jmp { target } => vec![block_of_pc[target as usize]],
                Instr::Halt => vec![],
                // Fallthrough into the next block (next pc is a leader).
                _ => vec![block_of_pc[last_pc + 1]],
            };
            blocks[b].succs = succs;
        }

        Cfg {
            blocks,
            block_of_pc,
        }
    }

    /// The basic blocks, in program order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Index of the block containing `pc`.
    pub fn block_of(&self, pc: u32) -> usize {
        self.block_of_pc[pc as usize]
    }

    /// Computes the immediate post-dominator of each block.
    ///
    /// Returns `ipdom[b]`, the index of block `b`'s immediate post-dominator,
    /// or `None` when the only post-dominator is the virtual exit (i.e. the
    /// paths only rejoin at thread termination) or the block is unreachable
    /// backwards from any exit.
    pub fn immediate_post_dominators(&self) -> Vec<Option<usize>> {
        // Post-dominance over the CFG is dominance over the reverse CFG,
        // rooted at a virtual exit node that every `Halt` block joins.
        let n = self.blocks.len();
        let exit = n;
        // Reverse-CFG predecessors are CFG successors, and vice versa.
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
        for (b, block) in self.blocks.iter().enumerate() {
            for &s in &block.succs {
                preds[b].push(s);
                succs[s].push(b);
            }
            if block.succs.is_empty() {
                preds[b].push(exit);
                succs[exit].push(b);
            }
        }
        let rpo = reverse_post_order(&succs, exit);
        let idom = immediate_dominators(&preds, &rpo);
        (0..n).map(|b| idom[b].filter(|&d| d != exit)).collect()
    }
}

/// Reverse post-order of the nodes reachable from `root` over the edges
/// `succs[v]` (root first), from an iterative depth-first search that
/// visits each node's successors in order.
pub fn reverse_post_order(succs: &[Vec<usize>], root: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(succs.len());
    let mut seen = vec![false; succs.len()];
    let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
    seen[root] = true;
    while let Some(&mut (v, ref mut i)) = stack.last_mut() {
        if *i < succs[v].len() {
            let w = succs[v][*i];
            *i += 1;
            if !seen[w] {
                seen[w] = true;
                stack.push((w, 0));
            }
        } else {
            order.push(v);
            stack.pop();
        }
    }
    order.reverse();
    order
}

/// Cooper–Harvey–Kennedy immediate dominators: `idom[v]` for each node,
/// given each node's predecessors and `rpo`, the reverse post-order that
/// [`reverse_post_order`] returns (root first). The root and every node
/// not in `rpo` get `None`.
pub fn immediate_dominators(preds: &[Vec<usize>], rpo: &[usize]) -> Vec<Option<usize>> {
    let mut idom: Vec<Option<usize>> = vec![None; preds.len()];
    let Some(&root) = rpo.first() else {
        return idom;
    };
    let mut rpo_index = vec![usize::MAX; preds.len()];
    for (i, &v) in rpo.iter().enumerate() {
        rpo_index[v] = i;
    }
    idom[root] = Some(root);
    // Every node the walks below reach is in `rpo` with its idom set.
    let intersect = |idom: &[Option<usize>], mut a: usize, mut b: usize| {
        while a != b {
            while rpo_index[a] > rpo_index[b] {
                a = idom[a].unwrap();
            }
            while rpo_index[b] > rpo_index[a] {
                b = idom[b].unwrap();
            }
        }
        a
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &v in &rpo[1..] {
            let mut new_idom: Option<usize> = None;
            for &p in &preds[v] {
                if idom[p].is_some() {
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
            }
            if new_idom.is_some() && idom[v] != new_idom {
                idom[v] = new_idom;
                changed = true;
            }
        }
    }
    // The root's self-idom is an artifact of the algorithm, not a fact.
    idom[root] = None;
    idom
}

/// Reconvergence PCs for every conditional branch in a program.
///
/// `None` means the divergent paths only rejoin when the thread halts.
#[derive(Debug, Clone)]
pub struct ReconvergenceMap {
    map: BTreeMap<u32, Option<u32>>,
}

impl ReconvergenceMap {
    /// Computes the reconvergence map of `program`.
    pub fn compute(program: &Program) -> ReconvergenceMap {
        let cfg = Cfg::build(program);
        let ipdom = cfg.immediate_post_dominators();
        let mut map = BTreeMap::new();
        for (pc, instr) in program.instrs().iter().enumerate() {
            if instr.is_branch() {
                let block = cfg.block_of(pc as u32);
                let reconv = ipdom[block].map(|b| cfg.blocks()[b].start);
                map.insert(pc as u32, reconv);
            }
        }
        ReconvergenceMap { map }
    }

    /// Reconvergence PC of the branch at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` does not hold a conditional branch.
    pub fn reconvergence_pc(&self, pc: u32) -> Option<u32> {
        self.map[&pc]
    }

    /// Number of conditional branches in the program.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the program contains no conditional branches.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn straight_line_is_one_block() {
        let p = assemble("s", "li r1, 1\nli r2, 2\nhalt\n").unwrap();
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.blocks().len(), 1);
        assert!(cfg.blocks()[0].succs.is_empty());
    }

    #[test]
    fn if_then_else_blocks_and_ipdom() {
        // if (r1 < r2) r3 = 1 else r3 = 2; r4 = r3
        let p = assemble(
            "ite",
            "
            blt r1, r2, then
            li  r3, 2
            jmp join
        then:
            li  r3, 1
        join:
            li  r4, 7
            halt
        ",
        )
        .unwrap();
        let cfg = Cfg::build(&p);
        // Blocks: [br], [li r3,2; jmp], [li r3,1], [li r4; halt]
        assert_eq!(cfg.blocks().len(), 4);
        let ipdom = cfg.immediate_post_dominators();
        // The branch block's ipdom is the join block.
        let join_block = cfg.block_of(4);
        assert_eq!(ipdom[cfg.block_of(0)], Some(join_block));

        let rm = ReconvergenceMap::compute(&p);
        assert_eq!(rm.reconvergence_pc(0), Some(4));
        assert_eq!(rm.len(), 1);
    }

    #[test]
    fn loop_branch_reconverges_at_exit_block() {
        let p = assemble(
            "loop",
            "
        top:
            addi r1, r1, 1
            blt  r1, r2, top
            halt
        ",
        )
        .unwrap();
        let rm = ReconvergenceMap::compute(&p);
        // The loop branch's ipdom is the halt block (pc 2).
        assert_eq!(rm.reconvergence_pc(1), Some(2));
    }

    #[test]
    fn branch_to_halt_reconverges_at_exit() {
        // Taken path halts; fallthrough continues and halts separately. The
        // only common post-dominator is the virtual exit.
        let p = assemble(
            "div",
            "
            beq r1, r2, done
            li  r3, 1
        done:
            halt
        ",
        )
        .unwrap();
        let rm = ReconvergenceMap::compute(&p);
        // Here both paths do reach the same halt block, so it reconverges.
        assert_eq!(rm.reconvergence_pc(0), Some(2));
    }

    #[test]
    fn two_separate_halts_reconverge_only_at_exit() {
        let p = assemble(
            "twohalts",
            "
            beq r1, r2, other
            halt
        other:
            halt
        ",
        )
        .unwrap();
        let rm = ReconvergenceMap::compute(&p);
        assert_eq!(rm.reconvergence_pc(0), None);
    }

    #[test]
    fn nested_if_reconvergence() {
        let p = assemble(
            "nested",
            "
            blt r1, r2, outer_then
            li  r3, 0
            jmp outer_join
        outer_then:
            blt r1, r4, inner_then
            li  r3, 1
            jmp inner_join
        inner_then:
            li  r3, 2
        inner_join:
            li  r5, 1
        outer_join:
            li  r6, 1
            halt
        ",
        )
        .unwrap();
        let rm = ReconvergenceMap::compute(&p);
        // Outer branch (pc 0) reconverges at outer_join (pc 8).
        assert_eq!(rm.reconvergence_pc(0), Some(8));
        // Inner branch (pc 3) reconverges at inner_join (pc 7).
        assert_eq!(rm.reconvergence_pc(3), Some(7));
    }

    #[test]
    fn block_of_pc_is_consistent() {
        let p = assemble(
            "b",
            "
            blt r1, r2, x
            li  r3, 0
        x:
            halt
        ",
        )
        .unwrap();
        let cfg = Cfg::build(&p);
        for block in cfg.blocks() {
            for pc in block.start..block.end {
                assert_eq!(
                    cfg.block_of(pc),
                    cfg.block_of(block.start),
                    "pc {pc} not in its own block"
                );
            }
        }
    }

    #[test]
    fn branch_with_taken_equal_fallthrough_has_single_succ() {
        // beq to the immediately following instruction.
        let p = assemble("deg", "beq r1, r2, next\nnext:\nhalt\n").unwrap();
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.blocks()[cfg.block_of(0)].succs.len(), 1);
    }
}
