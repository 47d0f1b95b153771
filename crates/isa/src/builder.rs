//! Programmatic kernel assembly.
//!
//! [`ProgramBuilder`] is how the workload crate authors the eight BMLA
//! kernels: it provides one method per instruction plus forward-referencing
//! labels that are patched to absolute PCs when [`ProgramBuilder::build`]
//! runs. The builder is infallible while emitting; all errors surface at
//! `build()` (unbound labels, program validation).

use crate::instr::{AddrSpace, AluOp, CmpOp, FAluOp, Instr};
use crate::program::{Program, ProgramError, DEFAULT_MAX_CODE_BYTES};
use crate::reg::Reg;
use std::fmt;

/// A symbolic branch target created by [`ProgramBuilder::label`] and pinned
/// to a PC by [`ProgramBuilder::bind`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Errors surfaced when building a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A label was referenced by a branch but never bound to a PC.
    UnboundLabel(Label),
    /// A label was bound twice.
    Rebound(Label),
    /// The assembled program failed validation.
    Program(ProgramError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnboundLabel(l) => write!(f, "label {l:?} was never bound"),
            BuildError::Rebound(l) => write!(f, "label {l:?} bound twice"),
            BuildError::Program(e) => write!(f, "program validation failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<ProgramError> for BuildError {
    fn from(e: ProgramError) -> Self {
        BuildError::Program(e)
    }
}

/// An incremental program assembler with labels.
///
/// ```
/// use millipede_isa::{ProgramBuilder, AluOp, CmpOp};
/// use millipede_isa::reg::r;
///
/// // for (r1 = 0; r1 < r2; r1++) { r3 += r1 }
/// let mut b = ProgramBuilder::new("sum_below");
/// let loop_top = b.label();
/// let done = b.label();
/// b.li(r(1), 0);
/// b.bind(loop_top);
/// b.br(CmpOp::Ge, r(1), r(2), done);
/// b.alu(AluOp::Add, r(3), r(3), r(1));
/// b.alui(AluOp::Add, r(1), r(1), 1);
/// b.jmp(loop_top);
/// b.bind(done);
/// b.halt();
/// let program = b.build().unwrap();
/// assert_eq!(program.len(), 6);
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    instrs: Vec<Instr>,
    /// `labels[i]` is the PC bound to `Label(i)`, if bound.
    labels: Vec<Option<u32>>,
    /// `(pc, label)` pairs needing target patching.
    fixups: Vec<(usize, Label)>,
    max_code_bytes: usize,
}

impl ProgramBuilder {
    /// Creates a builder for a kernel called `name`.
    pub fn new(name: &str) -> ProgramBuilder {
        ProgramBuilder {
            name: name.to_string(),
            instrs: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
            max_code_bytes: DEFAULT_MAX_CODE_BYTES,
        }
    }

    /// Overrides the 4 KB I-cache code budget (used by stress tests).
    pub fn code_budget(mut self, bytes: usize) -> ProgramBuilder {
        self.max_code_bytes = bytes;
        self
    }

    /// Creates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current PC (the next emitted instruction).
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound (a kernel-authoring bug).
    pub fn bind(&mut self, label: Label) {
        assert!(
            self.labels[label.0].is_none(),
            "label {label:?} bound twice"
        );
        self.labels[label.0] = Some(self.instrs.len() as u32);
    }

    /// Current PC (index of the next instruction to be emitted).
    pub fn here(&self) -> u32 {
        self.instrs.len() as u32
    }

    fn push(&mut self, i: Instr) -> &mut Self {
        self.instrs.push(i);
        self
    }

    /// Emits `dst = op(a, b)`.
    pub fn alu(&mut self, op: AluOp, dst: Reg, a: Reg, b: Reg) -> &mut Self {
        self.push(Instr::Alu { op, dst, a, b })
    }

    /// Emits `dst = op(a, imm)`.
    pub fn alui(&mut self, op: AluOp, dst: Reg, a: Reg, imm: i32) -> &mut Self {
        self.push(Instr::AluI { op, dst, a, imm })
    }

    /// Emits `dst = op(a, b)` on floats.
    pub fn falu(&mut self, op: FAluOp, dst: Reg, a: Reg, b: Reg) -> &mut Self {
        self.push(Instr::FAlu { op, dst, a, b })
    }

    /// Emits `dst = imm` (raw 32-bit pattern).
    pub fn li(&mut self, dst: Reg, imm: u32) -> &mut Self {
        self.push(Instr::Li { dst, imm })
    }

    /// Emits an int→float conversion.
    pub fn i2f(&mut self, dst: Reg, a: Reg) -> &mut Self {
        self.push(Instr::I2F { dst, a })
    }

    /// Emits a float→int conversion.
    pub fn f2i(&mut self, dst: Reg, a: Reg) -> &mut Self {
        self.push(Instr::F2I { dst, a })
    }

    /// Emits a load from `space` at `addr + offset`.
    pub fn ld(&mut self, dst: Reg, addr: Reg, offset: i32, space: AddrSpace) -> &mut Self {
        self.push(Instr::Ld {
            dst,
            addr,
            offset,
            space,
        })
    }

    /// Emits a store to local live state.
    pub fn st_local(&mut self, src: Reg, addr: Reg, offset: i32) -> &mut Self {
        self.push(Instr::St { src, addr, offset })
    }

    /// Emits a conditional branch to `label`.
    pub fn br(&mut self, cmp: CmpOp, a: Reg, b: Reg, label: Label) -> &mut Self {
        self.fixups.push((self.instrs.len(), label));
        self.push(Instr::Br {
            cmp,
            a,
            b,
            target: u32::MAX, // patched in build()
        })
    }

    /// Emits an unconditional jump to `label`.
    pub fn jmp(&mut self, label: Label) -> &mut Self {
        self.fixups.push((self.instrs.len(), label));
        self.push(Instr::Jmp { target: u32::MAX })
    }

    /// Emits a processor-wide barrier.
    pub fn bar(&mut self) -> &mut Self {
        self.push(Instr::Bar)
    }

    /// Emits a halt.
    pub fn halt(&mut self) -> &mut Self {
        self.push(Instr::Halt)
    }

    /// Resolves labels and validates the program.
    pub fn build(mut self) -> Result<Program, BuildError> {
        for &(pc, label) in &self.fixups {
            let target = self.labels[label.0].ok_or(BuildError::UnboundLabel(label))?;
            match &mut self.instrs[pc] {
                Instr::Br { target: t, .. } | Instr::Jmp { target: t } => *t = target,
                other => unreachable!("fixup against non-control instruction {other:?}"),
            }
        }
        Ok(Program::with_code_budget(
            &self.name,
            self.instrs,
            self.max_code_bytes,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::r;

    #[test]
    fn builds_loop_with_backward_and_forward_labels() {
        let mut b = ProgramBuilder::new("loop");
        let top = b.label();
        let out = b.label();
        b.li(r(1), 0);
        b.bind(top);
        b.br(CmpOp::Ge, r(1), r(2), out);
        b.alui(AluOp::Add, r(1), r(1), 1);
        b.jmp(top);
        b.bind(out);
        b.halt();
        let p = b.build().unwrap();
        // br at pc 1 targets pc 4 (halt), jmp at pc 3 targets pc 1.
        match *p.fetch(1) {
            Instr::Br { target, .. } => assert_eq!(target, 4),
            ref other => panic!("unexpected {other:?}"),
        }
        match *p.fetch(3) {
            Instr::Jmp { target } => assert_eq!(target, 1),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut b = ProgramBuilder::new("bad");
        let l = b.label();
        b.jmp(l);
        b.halt();
        assert!(matches!(b.build(), Err(BuildError::UnboundLabel(_))));
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new("bad");
        let l = b.label();
        b.bind(l);
        b.halt();
        b.bind(l);
    }

    #[test]
    fn validation_errors_propagate() {
        let mut b = ProgramBuilder::new("fallthrough");
        b.li(r(1), 0);
        assert!(matches!(
            b.build(),
            Err(BuildError::Program(ProgramError::FallsOffEnd))
        ));
    }

    #[test]
    fn here_tracks_pc() {
        let mut b = ProgramBuilder::new("h");
        assert_eq!(b.here(), 0);
        b.li(r(1), 0);
        assert_eq!(b.here(), 1);
        b.halt();
        assert_eq!(b.here(), 2);
    }

    #[test]
    fn code_budget_override() {
        let mut b = ProgramBuilder::new("big").code_budget(1 << 20);
        for _ in 0..1000 {
            b.li(r(1), 0);
        }
        b.halt();
        assert!(b.build().is_ok());
    }
}
