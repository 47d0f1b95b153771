//! CFG-derived program facts shared by every verifier check.
//!
//! One [`Analysis`] is computed per verified program and holds the results
//! of every dataflow pass at *block* granularity; checks that need
//! instruction-level facts replay a block's transfer function from its
//! entry state (blocks are tiny — the ISA's 4 KB code budget caps the whole
//! program at 512 instructions).
//!
//! Register sets are `u32` bitmasks (bit *i* = `r<i>`), which keeps every
//! fixpoint a few machine words per block and — deliberately — involves no
//! hash containers anywhere in the pass.

use millipede_isa::{
    immediate_dominators, reverse_post_order, Cfg, Instr, Program, ReconvergenceMap, Reg,
};
use std::collections::BTreeMap;

/// A register set as a bitmask: bit `i` set means `r<i>` is a member.
pub type RegSet = u32;

/// The bit for one register.
#[inline]
pub fn reg_bit(reg: Reg) -> RegSet {
    1 << reg.index()
}

/// Renders a register set as `{r1, r2, ...}` for listings.
pub fn regset_names(set: RegSet) -> String {
    let mut out = String::from("{");
    let mut first = true;
    for i in 0..32 {
        if set & (1 << i) != 0 {
            if !first {
                out.push_str(", ");
            }
            out.push('r');
            out.push_str(&i.to_string());
            first = false;
        }
    }
    out.push('}');
    out
}

/// Constant-propagation lattice value for one register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CV {
    /// Unreached (bottom): no execution path has produced a value yet.
    Bot,
    /// Provably this exact 32-bit value on every path.
    Val(u32),
    /// Not a compile-proof constant (top).
    Top,
}

impl CV {
    /// Lattice join of two values.
    pub fn join(self, other: CV) -> CV {
        match (self, other) {
            (CV::Bot, x) | (x, CV::Bot) => x,
            (CV::Val(a), CV::Val(b)) if a == b => CV::Val(a),
            _ => CV::Top,
        }
    }
}

/// Constant-propagation state: one lattice value per architectural register.
pub type ConstState = [CV; 32];

/// A natural loop discovered from a back edge whose target dominates its
/// source. Loops sharing a header are merged into one body.
#[derive(Debug, Clone)]
pub struct NaturalLoop {
    /// Header block index.
    pub header: usize,
    /// Membership per block index (includes the header).
    pub body: Vec<bool>,
}

impl NaturalLoop {
    /// Block indices in the loop body, ascending.
    pub fn blocks(&self) -> impl Iterator<Item = usize> + '_ {
        self.body
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(b, _)| b)
    }
}

/// Everything the checks need to know about one program.
#[derive(Debug)]
pub struct Analysis {
    /// The control-flow graph.
    pub cfg: Cfg,
    /// Predecessor block indices per block.
    pub preds: Vec<Vec<usize>>,
    /// Reachable from the entry block.
    pub reachable: Vec<bool>,
    /// Some path from this block reaches a `Halt`.
    pub can_reach_exit: Vec<bool>,
    /// Immediate dominator per block (`None` for the entry block and for
    /// unreachable blocks).
    pub idom: Vec<Option<usize>>,
    /// Immediate post-dominator per block (`None` when only the virtual
    /// exit post-dominates).
    pub ipdom: Vec<Option<usize>>,
    /// Natural loops, one per header, in header order.
    pub loops: Vec<NaturalLoop>,
    /// Definitely-assigned registers at block entry (must-analysis).
    pub defined_in: Vec<RegSet>,
    /// Constant-propagation state at block entry.
    pub consts_in: Vec<ConstState>,
    /// Live registers at block entry / exit (backward may-analysis).
    pub live_in: Vec<RegSet>,
    /// Live registers at block exit.
    pub live_out: Vec<RegSet>,
    /// Thread-divergent (data-dependent) registers at block entry.
    pub divergent_in: Vec<RegSet>,
    /// PCs of conditional branches whose operands are thread-divergent.
    pub divergent_branches: Vec<u32>,
    /// SIMT reconvergence PCs for every conditional branch.
    pub reconv: ReconvergenceMap,
}

/// Entry-state assumptions the dataflow passes start from.
#[derive(Debug, Clone, Copy)]
pub struct EntryState {
    /// Registers holding defined values at kernel launch (the launch ABI).
    pub defined: RegSet,
    /// Registers whose launch values differ across threads (lane offset).
    pub divergent: RegSet,
}

impl Analysis {
    /// Runs every dataflow pass over `program`.
    pub fn compute(program: &Program, entry: EntryState) -> Analysis {
        let cfg = Cfg::build(program);
        let n = cfg.blocks().len();

        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (b, block) in cfg.blocks().iter().enumerate() {
            for &s in &block.succs {
                preds[s].push(b);
            }
        }

        // Forward reachability from the entry block.
        let mut reachable = vec![false; n];
        let mut stack = vec![0usize];
        reachable[0] = true;
        while let Some(b) = stack.pop() {
            for &s in &cfg.blocks()[b].succs {
                if !reachable[s] {
                    reachable[s] = true;
                    stack.push(s);
                }
            }
        }

        // Backward reachability from every exit (Halt) block.
        let mut can_reach_exit = vec![false; n];
        let mut stack: Vec<usize> = (0..n)
            .filter(|&b| cfg.blocks()[b].succs.is_empty())
            .collect();
        for &b in &stack {
            can_reach_exit[b] = true;
        }
        while let Some(b) = stack.pop() {
            for &p in &preds[b] {
                if !can_reach_exit[p] {
                    can_reach_exit[p] = true;
                    stack.push(p);
                }
            }
        }

        // Reverse post-order over reachable blocks (dataflow iteration
        // order and the index ordering the dominator intersection needs).
        let succs: Vec<Vec<usize>> = cfg.blocks().iter().map(|b| b.succs.clone()).collect();
        let rpo = reverse_post_order(&succs, 0);

        let idom = immediate_dominators(&preds, &rpo);
        let ipdom = cfg.immediate_post_dominators();
        let loops = natural_loops(&cfg, &preds, &reachable, &idom);

        let instrs = program.instrs();
        let block_range =
            |b: usize| (cfg.blocks()[b].start as usize)..(cfg.blocks()[b].end as usize);

        // --- Definite assignment (forward, must: intersection at joins).
        let all: RegSet = u32::MAX;
        let mut defined_in = vec![all; n];
        let mut defined_out = vec![all; n];
        defined_in[0] = entry.defined | reg_bit(Reg::ZERO);
        loop {
            let mut changed = false;
            for &b in &rpo {
                let mut inset = if b == 0 {
                    entry.defined | reg_bit(Reg::ZERO)
                } else {
                    let mut s = all;
                    for &p in &preds[b] {
                        s &= defined_out[p];
                    }
                    s
                };
                inset |= reg_bit(Reg::ZERO);
                let mut out = inset;
                for pc in block_range(b) {
                    if let Some(d) = instrs[pc].def() {
                        out |= reg_bit(d);
                    }
                }
                if inset != defined_in[b] || out != defined_out[b] {
                    defined_in[b] = inset;
                    defined_out[b] = out;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // --- Constant propagation (forward; join at merges).
        let mut consts_in = vec![[CV::Bot; 32]; n];
        let mut consts_out = vec![[CV::Bot; 32]; n];
        let mut entry_consts = [CV::Top; 32];
        entry_consts[0] = CV::Val(0);
        consts_in[0] = entry_consts;
        loop {
            let mut changed = false;
            for &b in &rpo {
                let mut inset = if b == 0 {
                    entry_consts
                } else {
                    let mut s = [CV::Bot; 32];
                    for &p in &preds[b] {
                        for i in 0..32 {
                            s[i] = s[i].join(consts_out[p][i]);
                        }
                    }
                    s
                };
                inset[0] = CV::Val(0);
                let mut out = inset;
                for pc in block_range(b) {
                    const_transfer(&instrs[pc], &mut out);
                }
                if inset != consts_in[b] || out != consts_out[b] {
                    consts_in[b] = inset;
                    consts_out[b] = out;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // --- Liveness (backward, may: union at joins).
        let mut live_in = vec![0 as RegSet; n];
        let mut live_out = vec![0 as RegSet; n];
        loop {
            let mut changed = false;
            for &b in rpo.iter().rev() {
                let mut out = 0;
                for &s in &cfg.blocks()[b].succs {
                    out |= live_in[s];
                }
                let mut live = out;
                for pc in block_range(b).rev() {
                    if let Some(d) = instrs[pc].def() {
                        live &= !reg_bit(d);
                    }
                    for u in instrs[pc].uses() {
                        live |= reg_bit(u);
                    }
                }
                live &= !reg_bit(Reg::ZERO);
                if live != live_in[b] || out != live_out[b] {
                    live_in[b] = live;
                    live_out[b] = out;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // --- Divergence taint (forward, may: union at joins).
        let mut divergent_in = vec![0 as RegSet; n];
        let mut divergent_out = vec![0 as RegSet; n];
        divergent_in[0] = entry.divergent & !reg_bit(Reg::ZERO);
        loop {
            let mut changed = false;
            for &b in &rpo {
                let mut inset = if b == 0 {
                    entry.divergent & !reg_bit(Reg::ZERO)
                } else {
                    let mut s = 0;
                    for &p in &preds[b] {
                        s |= divergent_out[p];
                    }
                    s
                };
                inset &= !reg_bit(Reg::ZERO);
                let mut out = inset;
                for pc in block_range(b) {
                    divergence_transfer(&instrs[pc], &mut out);
                }
                if inset != divergent_in[b] || out != divergent_out[b] {
                    divergent_in[b] = inset;
                    divergent_out[b] = out;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Conditional branches whose operands carry thread-divergent data.
        let mut divergent_branches = Vec::new();
        for &b in &rpo {
            let mut taint = divergent_in[b];
            for pc in block_range(b) {
                if let Instr::Br { a, b: rb, .. } = instrs[pc] {
                    if taint & (reg_bit(a) | reg_bit(rb)) != 0 {
                        divergent_branches.push(pc as u32);
                    }
                }
                divergence_transfer(&instrs[pc], &mut taint);
            }
        }
        divergent_branches.sort_unstable();

        let reconv = ReconvergenceMap::compute(program);

        Analysis {
            cfg,
            preds,
            reachable,
            can_reach_exit,
            idom,
            ipdom,
            loops,
            defined_in,
            consts_in,
            live_in,
            live_out,
            divergent_in,
            divergent_branches,
            reconv,
        }
    }

    /// Whether block `a` post-dominates block `b` (virtual exit excluded).
    pub fn postdominates(&self, a: usize, b: usize) -> bool {
        let mut x = b;
        loop {
            if x == a {
                return true;
            }
            match self.ipdom[x] {
                Some(next) => x = next,
                None => return false,
            }
        }
    }
}

/// Whether `a` dominates `b` given the immediate-dominator array (entry has
/// `idom == None` and dominates everything reachable).
fn dominates(idom: &[Option<usize>], entry: usize, a: usize, b: usize) -> bool {
    if a == entry {
        return true;
    }
    let mut x = b;
    loop {
        if x == a {
            return true;
        }
        match idom[x] {
            Some(next) => x = next,
            None => return false,
        }
    }
}

/// Natural loops from back edges `b -> h` where `h` dominates `b`. Bodies
/// of back edges sharing a header are merged.
fn natural_loops(
    cfg: &Cfg,
    preds: &[Vec<usize>],
    reachable: &[bool],
    idom: &[Option<usize>],
) -> Vec<NaturalLoop> {
    let n = cfg.blocks().len();
    let mut by_header: BTreeMap<usize, Vec<bool>> = BTreeMap::new();
    for (b, &b_reachable) in reachable.iter().enumerate().take(n) {
        if !b_reachable {
            continue;
        }
        for &h in &cfg.blocks()[b].succs {
            if !dominates(idom, 0, h, b) {
                continue;
            }
            let body = by_header.entry(h).or_insert_with(|| vec![false; n]);
            body[h] = true;
            // Everything that reaches `b` without passing through `h`.
            let mut stack = vec![b];
            while let Some(x) = stack.pop() {
                if body[x] {
                    continue;
                }
                body[x] = true;
                for &p in &preds[x] {
                    if !body[p] {
                        stack.push(p);
                    }
                }
            }
        }
    }
    by_header
        .into_iter()
        .map(|(header, body)| NaturalLoop { header, body })
        .collect()
}

/// Constant-propagation transfer function for one instruction.
pub fn const_transfer(instr: &Instr, st: &mut ConstState) {
    use millipede_engine::alu;
    let get = |st: &ConstState, r: Reg| -> CV {
        if r.is_zero() {
            CV::Val(0)
        } else {
            st[r.index()]
        }
    };
    let set = |st: &mut ConstState, r: Reg, v: CV| {
        if !r.is_zero() {
            st[r.index()] = v;
        }
    };
    match *instr {
        Instr::Li { dst, imm } => set(st, dst, CV::Val(imm)),
        Instr::Alu { op, dst, a, b } => {
            let v = match (get(st, a), get(st, b)) {
                (CV::Val(x), CV::Val(y)) => CV::Val(alu::eval_alu(op, x, y)),
                _ => CV::Top,
            };
            set(st, dst, v);
        }
        Instr::AluI { op, dst, a, imm } => {
            let v = match get(st, a) {
                CV::Val(x) => CV::Val(alu::eval_alu(op, x, imm as u32)),
                _ => CV::Top,
            };
            set(st, dst, v);
        }
        Instr::FAlu { op, dst, a, b } => {
            let v = match (get(st, a), get(st, b)) {
                (CV::Val(x), CV::Val(y)) => CV::Val(alu::eval_falu(op, x, y)),
                _ => CV::Top,
            };
            set(st, dst, v);
        }
        Instr::I2F { dst, a } => {
            let v = match get(st, a) {
                CV::Val(x) => CV::Val(alu::i2f(x)),
                _ => CV::Top,
            };
            set(st, dst, v);
        }
        Instr::F2I { dst, a } => {
            let v = match get(st, a) {
                CV::Val(x) => CV::Val(alu::f2i(x)),
                _ => CV::Top,
            };
            set(st, dst, v);
        }
        Instr::Ld { dst, .. } => set(st, dst, CV::Top),
        Instr::St { .. } | Instr::Br { .. } | Instr::Jmp { .. } | Instr::Bar | Instr::Halt => {}
    }
}

/// Divergence-taint transfer function for one instruction: a destination is
/// tainted when any source operand is tainted or the value comes from
/// memory (record contents are thread-private data).
pub fn divergence_transfer(instr: &Instr, taint: &mut RegSet) {
    match instr.def() {
        Some(dst) if !dst.is_zero() => {
            let tainted = match *instr {
                Instr::Ld { .. } => true,
                Instr::Li { .. } => false,
                _ => instr
                    .uses()
                    .iter()
                    .any(|&u| !u.is_zero() && *taint & reg_bit(u) != 0),
            };
            if tainted {
                *taint |= reg_bit(dst);
            } else {
                *taint &= !reg_bit(dst);
            }
        }
        _ => {}
    }
}

/// The effective byte address of a memory access when the base register is
/// a proven constant, mirroring the engine's `(reg as i64 + offset) as u64`
/// arithmetic exactly.
pub fn const_address(st: &ConstState, addr: Reg, offset: i32) -> Option<u64> {
    let base = if addr.is_zero() {
        CV::Val(0)
    } else {
        st[addr.index()]
    };
    match base {
        CV::Val(v) => Some((i64::from(v) + i64::from(offset)) as u64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use millipede_isa::assemble;

    fn entry_abi() -> EntryState {
        EntryState {
            defined: 0b111_1110 | 1, // r0 + r1..r6
            divergent: 1 << 1,       // r1 (lane offset)
        }
    }

    #[test]
    fn reachability_and_exit_reachability() {
        let p = assemble(
            "t",
            "
            jmp skip
            li r1, 1          # dead
        skip:
            halt
        ",
        )
        .unwrap();
        let a = Analysis::compute(&p, entry_abi());
        let dead = a.cfg.block_of(1);
        assert!(!a.reachable[dead]);
        assert!(a.reachable[a.cfg.block_of(0)]);
        assert!(a.can_reach_exit[a.cfg.block_of(0)]);
    }

    #[test]
    fn natural_loop_discovery() {
        let p = assemble(
            "t",
            "
            li r10, 0
        top:
            addi r10, r10, 1
            blt r10, r2, top
            halt
        ",
        )
        .unwrap();
        let a = Analysis::compute(&p, entry_abi());
        assert_eq!(a.loops.len(), 1);
        let l = &a.loops[0];
        assert_eq!(l.header, a.cfg.block_of(1));
        assert!(l.body[a.cfg.block_of(1)]);
        assert!(!l.body[a.cfg.block_of(0)]);
    }

    #[test]
    fn nested_loops_share_inner_blocks() {
        let p = assemble(
            "t",
            "
            li r10, 0
        outer:
            li r11, 0
        inner:
            addi r11, r11, 1
            blt r11, r2, inner
            addi r10, r10, 1
            blt r10, r3, outer
            halt
        ",
        )
        .unwrap();
        let a = Analysis::compute(&p, entry_abi());
        assert_eq!(a.loops.len(), 2);
        let inner_block = a.cfg.block_of(2);
        assert!(a.loops.iter().all(|l| l.body[inner_block]));
    }

    #[test]
    fn const_prop_proves_addresses() {
        let p = assemble(
            "t",
            "
            li r10, 8
            addi r11, r10, 4
            ld.local r12, 4(r11)
            halt
        ",
        )
        .unwrap();
        let a = Analysis::compute(&p, entry_abi());
        let b = a.cfg.block_of(2);
        let mut st = a.consts_in[b];
        const_transfer(p.fetch(0), &mut st);
        const_transfer(p.fetch(1), &mut st);
        assert_eq!(const_address(&st, millipede_isa::reg::r(11), 4), Some(16));
    }

    #[test]
    fn const_prop_joins_conflicting_paths_to_top() {
        let p = assemble(
            "t",
            "
            beq r1, r2, other
            li r10, 4
            jmp join
        other:
            li r10, 8
        join:
            ld.local r11, 0(r10)
            halt
        ",
        )
        .unwrap();
        let a = Analysis::compute(&p, entry_abi());
        let join = a.cfg.block_of(4);
        assert_eq!(a.consts_in[join][10], CV::Top);
    }

    #[test]
    fn liveness_flows_backward() {
        let p = assemble(
            "t",
            "
            li r10, 1
            li r11, 2
            add r12, r10, r11
            halt
        ",
        )
        .unwrap();
        let a = Analysis::compute(&p, entry_abi());
        // Straight-line program: one block; nothing live at exit.
        assert_eq!(a.live_out[a.cfg.block_of(0)], 0);
    }

    #[test]
    fn divergence_taints_loaded_values_not_counters() {
        let p = assemble(
            "t",
            "
            li r10, 0
        top:
            ld.in r11, 0(r1)
            add  r12, r11, r0
            addi r10, r10, 1
            blt  r10, r2, top
            blt  r12, r2, top
            halt
        ",
        )
        .unwrap();
        let a = Analysis::compute(&p, entry_abi());
        // The counter branch (pc 4) is uniform; the data branch (pc 5)
        // is divergent.
        assert_eq!(a.divergent_branches, vec![5]);
    }

    #[test]
    fn postdominance_chain() {
        let p = assemble(
            "t",
            "
            beq r1, r2, other
            li r10, 1
        other:
            halt
        ",
        )
        .unwrap();
        let a = Analysis::compute(&p, entry_abi());
        let halt = a.cfg.block_of(2);
        assert!(a.postdominates(halt, a.cfg.block_of(0)));
        assert!(!a.postdominates(a.cfg.block_of(1), a.cfg.block_of(0)));
    }
}
