//! Predecoded micro-op interpreter: single-decode execution for the timing
//! models.
//!
//! The reference interpreter ([`crate::step`]) pattern-matches the full
//! [`Instr`] enum twice per committed instruction: once in
//! `effective_access` (the timing models' load/store preview) and once in
//! `step` itself. A [`DecodedProgram`] is built **once per program** and
//! flattens each instruction into a packed [`MicroOp`] — fused opcode byte,
//! pre-resolved register identifiers, and a raw 32-bit immediate/offset/
//! target payload — plus two side tables the per-cycle scheduler loops
//! consume without touching the enum at all:
//!
//! * an **access-class table** ([`AccessClass`], one byte per PC) answering
//!   "would the instruction at this PC load input / touch local memory /
//!   branch / barrier / halt?" with a single indexed load, and
//! * a **straight-line run-length table** (`run_len`, one `u32` per PC):
//!   the number of consecutive pure-ALU micro-ops starting at each PC
//!   before the next branch/memory/barrier/halt boundary.
//!
//! The run lengths feed [`DecodedProgram::burst_retire`]: a timing model
//! that finds a context at the head of an unblocked ALU run executes the
//! whole run in one tight loop and then *charges* the remaining issue
//! cycles by count (exactly the replay-by-count discipline the
//! fast-forward jump already uses), so the scheduler
//! round-trip is paid per run, not per instruction. Pure-ALU micro-ops
//! never trap, never touch memory, never halt, and only write the
//! context's own registers, so running ahead functionally is invisible to
//! every other context and to all memory-system state.
//!
//! Everything here is semantically bit-exact against the reference
//! interpreter; `tests/decoded_differential.rs` enforces that over the
//! fixture corpus and randomized programs.

use crate::alu;
use crate::context::ThreadCtx;
use crate::step::{EffectiveAccess, StepEffect, Trap};
use millipede_isa::{AddrSpace, AluOp, CmpOp, FAluOp, Instr, Program, Reg};
use millipede_mem::InputImage;
use std::sync::Arc;

/// Fused opcode: one byte selecting the exact operation, with the operand
/// kind (register/immediate) and address space already resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpCode {
    /// `add` (register-register).
    Add,
    /// `sub` (register-register).
    Sub,
    /// `mul` (register-register).
    Mul,
    /// `div` (register-register).
    Div,
    /// `rem` (register-register).
    Rem,
    /// `and` (register-register).
    And,
    /// `or` (register-register).
    Or,
    /// `xor` (register-register).
    Xor,
    /// `sll` (register-register).
    Sll,
    /// `srl` (register-register).
    Srl,
    /// `sra` (register-register).
    Sra,
    /// `slt` (register-register).
    Slt,
    /// `sltu` (register-register).
    Sltu,
    /// `min` (register-register).
    Min,
    /// `max` (register-register).
    Max,
    /// `addi` (register-immediate).
    AddI,
    /// `subi` (register-immediate).
    SubI,
    /// `muli` (register-immediate).
    MulI,
    /// `divi` (register-immediate).
    DivI,
    /// `remi` (register-immediate).
    RemI,
    /// `andi` (register-immediate).
    AndI,
    /// `ori` (register-immediate).
    OrI,
    /// `xori` (register-immediate).
    XorI,
    /// `slli` (register-immediate).
    SllI,
    /// `srli` (register-immediate).
    SrlI,
    /// `srai` (register-immediate).
    SraI,
    /// `slti` (register-immediate).
    SltI,
    /// `sltui` (register-immediate).
    SltuI,
    /// `mini` (register-immediate).
    MinI,
    /// `maxi` (register-immediate).
    MaxI,
    /// `fadd`.
    Fadd,
    /// `fsub`.
    Fsub,
    /// `fmul`.
    Fmul,
    /// `fdiv`.
    Fdiv,
    /// `fmin`.
    Fmin,
    /// `fmax`.
    Fmax,
    /// `li` (load immediate).
    Li,
    /// `i2f` (signed int → f32).
    I2F,
    /// `f2i` (f32 → signed int).
    F2I,
    /// `ld.in` (input-space load).
    LdIn,
    /// `ld.local` (local-space load).
    LdLocal,
    /// `st.local` (local-space store).
    St,
    /// `beq`.
    BrEq,
    /// `bne`.
    BrNe,
    /// `blt` (signed).
    BrLt,
    /// `bge` (signed).
    BrGe,
    /// `bltu`.
    BrLtu,
    /// `bgeu`.
    BrGeu,
    /// `bflt` (f32).
    BrFlt,
    /// `bfge` (f32).
    BrFge,
    /// `jmp`.
    Jmp,
    /// `bar` (processor-wide barrier).
    Bar,
    /// `halt`.
    Halt,
}

/// What the instruction at a PC would do to the memory system / control
/// flow — the timing models' dispatch key, one byte per PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum AccessClass {
    /// Pure ALU/immediate/convert: no memory, no control flow, never traps.
    Alu,
    /// Loads a word from the input dataset.
    InputLoad,
    /// Loads a word from local live state.
    LocalLoad,
    /// Stores a word to local live state.
    LocalStore,
    /// Conditional branch.
    Branch,
    /// Unconditional jump.
    Jump,
    /// Processor-wide barrier.
    Barrier,
    /// Thread halt.
    Halt,
}

impl AccessClass {
    /// Whether this class is a pure-ALU operation (burst-eligible).
    #[inline]
    pub fn is_alu(self) -> bool {
        matches!(self, AccessClass::Alu)
    }
}

/// One predecoded instruction: fused opcode plus pre-resolved operands.
///
/// Field use by opcode group:
///
/// | group | `dst` | `a` | `b` | `imm` |
/// |-------|-------|-----|-----|-------|
/// | ALU reg-reg / float | dest | src 1 | src 2 | — |
/// | ALU reg-imm | dest | src | — | immediate (i32 bits) |
/// | `Li` | dest | — | — | immediate |
/// | `I2F`/`F2I` | dest | src | — | — |
/// | loads | dest | address reg | — | offset (i32 bits) |
/// | `St` | **source** | address reg | — | offset (i32 bits) |
/// | `Br*` | — | cmp lhs | cmp rhs | target PC |
/// | `Jmp` | — | — | — | target PC |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroOp {
    /// Fused opcode byte.
    pub op: OpCode,
    /// Destination register (source register for stores).
    pub dst: Reg,
    /// First source register (address register for loads/stores).
    pub a: Reg,
    /// Second source register.
    pub b: Reg,
    /// Immediate / offset / branch-target payload (raw 32 bits).
    pub imm: u32,
}

/// Effective byte address of a load/store micro-op: `reg + offset` in
/// 64-bit space, exactly as the reference interpreter computes it.
#[inline]
fn mem_addr(ctx: &ThreadCtx, uop: MicroOp) -> u64 {
    (ctx.read_reg(uop.a) as i64 + (uop.imm as i32) as i64) as u64
}

/// Executes one pure-ALU micro-op (class [`AccessClass::Alu`]) against the
/// context's registers. Infallible: ALU semantics are total.
#[inline]
fn exec_alu_uop(uop: MicroOp, ctx: &mut ThreadCtx) {
    let v = match uop.op {
        OpCode::Add => alu::eval_alu(AluOp::Add, ctx.read_reg(uop.a), ctx.read_reg(uop.b)),
        OpCode::Sub => alu::eval_alu(AluOp::Sub, ctx.read_reg(uop.a), ctx.read_reg(uop.b)),
        OpCode::Mul => alu::eval_alu(AluOp::Mul, ctx.read_reg(uop.a), ctx.read_reg(uop.b)),
        OpCode::Div => alu::eval_alu(AluOp::Div, ctx.read_reg(uop.a), ctx.read_reg(uop.b)),
        OpCode::Rem => alu::eval_alu(AluOp::Rem, ctx.read_reg(uop.a), ctx.read_reg(uop.b)),
        OpCode::And => alu::eval_alu(AluOp::And, ctx.read_reg(uop.a), ctx.read_reg(uop.b)),
        OpCode::Or => alu::eval_alu(AluOp::Or, ctx.read_reg(uop.a), ctx.read_reg(uop.b)),
        OpCode::Xor => alu::eval_alu(AluOp::Xor, ctx.read_reg(uop.a), ctx.read_reg(uop.b)),
        OpCode::Sll => alu::eval_alu(AluOp::Sll, ctx.read_reg(uop.a), ctx.read_reg(uop.b)),
        OpCode::Srl => alu::eval_alu(AluOp::Srl, ctx.read_reg(uop.a), ctx.read_reg(uop.b)),
        OpCode::Sra => alu::eval_alu(AluOp::Sra, ctx.read_reg(uop.a), ctx.read_reg(uop.b)),
        OpCode::Slt => alu::eval_alu(AluOp::Slt, ctx.read_reg(uop.a), ctx.read_reg(uop.b)),
        OpCode::Sltu => alu::eval_alu(AluOp::Sltu, ctx.read_reg(uop.a), ctx.read_reg(uop.b)),
        OpCode::Min => alu::eval_alu(AluOp::Min, ctx.read_reg(uop.a), ctx.read_reg(uop.b)),
        OpCode::Max => alu::eval_alu(AluOp::Max, ctx.read_reg(uop.a), ctx.read_reg(uop.b)),
        OpCode::AddI => alu::eval_alu(AluOp::Add, ctx.read_reg(uop.a), uop.imm),
        OpCode::SubI => alu::eval_alu(AluOp::Sub, ctx.read_reg(uop.a), uop.imm),
        OpCode::MulI => alu::eval_alu(AluOp::Mul, ctx.read_reg(uop.a), uop.imm),
        OpCode::DivI => alu::eval_alu(AluOp::Div, ctx.read_reg(uop.a), uop.imm),
        OpCode::RemI => alu::eval_alu(AluOp::Rem, ctx.read_reg(uop.a), uop.imm),
        OpCode::AndI => alu::eval_alu(AluOp::And, ctx.read_reg(uop.a), uop.imm),
        OpCode::OrI => alu::eval_alu(AluOp::Or, ctx.read_reg(uop.a), uop.imm),
        OpCode::XorI => alu::eval_alu(AluOp::Xor, ctx.read_reg(uop.a), uop.imm),
        OpCode::SllI => alu::eval_alu(AluOp::Sll, ctx.read_reg(uop.a), uop.imm),
        OpCode::SrlI => alu::eval_alu(AluOp::Srl, ctx.read_reg(uop.a), uop.imm),
        OpCode::SraI => alu::eval_alu(AluOp::Sra, ctx.read_reg(uop.a), uop.imm),
        OpCode::SltI => alu::eval_alu(AluOp::Slt, ctx.read_reg(uop.a), uop.imm),
        OpCode::SltuI => alu::eval_alu(AluOp::Sltu, ctx.read_reg(uop.a), uop.imm),
        OpCode::MinI => alu::eval_alu(AluOp::Min, ctx.read_reg(uop.a), uop.imm),
        OpCode::MaxI => alu::eval_alu(AluOp::Max, ctx.read_reg(uop.a), uop.imm),
        OpCode::Fadd => alu::eval_falu(FAluOp::Fadd, ctx.read_reg(uop.a), ctx.read_reg(uop.b)),
        OpCode::Fsub => alu::eval_falu(FAluOp::Fsub, ctx.read_reg(uop.a), ctx.read_reg(uop.b)),
        OpCode::Fmul => alu::eval_falu(FAluOp::Fmul, ctx.read_reg(uop.a), ctx.read_reg(uop.b)),
        OpCode::Fdiv => alu::eval_falu(FAluOp::Fdiv, ctx.read_reg(uop.a), ctx.read_reg(uop.b)),
        OpCode::Fmin => alu::eval_falu(FAluOp::Fmin, ctx.read_reg(uop.a), ctx.read_reg(uop.b)),
        OpCode::Fmax => alu::eval_falu(FAluOp::Fmax, ctx.read_reg(uop.a), ctx.read_reg(uop.b)),
        OpCode::Li => uop.imm,
        OpCode::I2F => alu::i2f(ctx.read_reg(uop.a)),
        OpCode::F2I => alu::f2i(ctx.read_reg(uop.a)),
        _ => {
            debug_assert!(false, "non-ALU opcode {:?} in ALU-only path", uop.op);
            return;
        }
    };
    ctx.write_reg(uop.dst, v);
}

impl OpCode {
    /// The opcode's access class (precomputed into the per-PC table).
    fn class(self) -> AccessClass {
        match self {
            OpCode::LdIn => AccessClass::InputLoad,
            OpCode::LdLocal => AccessClass::LocalLoad,
            OpCode::St => AccessClass::LocalStore,
            OpCode::BrEq
            | OpCode::BrNe
            | OpCode::BrLt
            | OpCode::BrGe
            | OpCode::BrLtu
            | OpCode::BrGeu
            | OpCode::BrFlt
            | OpCode::BrFge => AccessClass::Branch,
            OpCode::Jmp => AccessClass::Jump,
            OpCode::Bar => AccessClass::Barrier,
            OpCode::Halt => AccessClass::Halt,
            _ => AccessClass::Alu,
        }
    }
}

/// Decodes one [`Instr`] into its packed micro-op.
fn decode(instr: &Instr) -> MicroOp {
    let z = Reg::ZERO;
    let uop = |op, dst, a, b, imm| MicroOp { op, dst, a, b, imm };
    match *instr {
        Instr::Alu { op, dst, a, b } => {
            let opc = match op {
                AluOp::Add => OpCode::Add,
                AluOp::Sub => OpCode::Sub,
                AluOp::Mul => OpCode::Mul,
                AluOp::Div => OpCode::Div,
                AluOp::Rem => OpCode::Rem,
                AluOp::And => OpCode::And,
                AluOp::Or => OpCode::Or,
                AluOp::Xor => OpCode::Xor,
                AluOp::Sll => OpCode::Sll,
                AluOp::Srl => OpCode::Srl,
                AluOp::Sra => OpCode::Sra,
                AluOp::Slt => OpCode::Slt,
                AluOp::Sltu => OpCode::Sltu,
                AluOp::Min => OpCode::Min,
                AluOp::Max => OpCode::Max,
            };
            uop(opc, dst, a, b, 0)
        }
        Instr::AluI { op, dst, a, imm } => {
            let opc = match op {
                AluOp::Add => OpCode::AddI,
                AluOp::Sub => OpCode::SubI,
                AluOp::Mul => OpCode::MulI,
                AluOp::Div => OpCode::DivI,
                AluOp::Rem => OpCode::RemI,
                AluOp::And => OpCode::AndI,
                AluOp::Or => OpCode::OrI,
                AluOp::Xor => OpCode::XorI,
                AluOp::Sll => OpCode::SllI,
                AluOp::Srl => OpCode::SrlI,
                AluOp::Sra => OpCode::SraI,
                AluOp::Slt => OpCode::SltI,
                AluOp::Sltu => OpCode::SltuI,
                AluOp::Min => OpCode::MinI,
                AluOp::Max => OpCode::MaxI,
            };
            uop(opc, dst, a, z, imm as u32)
        }
        Instr::FAlu { op, dst, a, b } => {
            let opc = match op {
                FAluOp::Fadd => OpCode::Fadd,
                FAluOp::Fsub => OpCode::Fsub,
                FAluOp::Fmul => OpCode::Fmul,
                FAluOp::Fdiv => OpCode::Fdiv,
                FAluOp::Fmin => OpCode::Fmin,
                FAluOp::Fmax => OpCode::Fmax,
            };
            uop(opc, dst, a, b, 0)
        }
        Instr::Li { dst, imm } => uop(OpCode::Li, dst, z, z, imm),
        Instr::I2F { dst, a } => uop(OpCode::I2F, dst, a, z, 0),
        Instr::F2I { dst, a } => uop(OpCode::F2I, dst, a, z, 0),
        Instr::Ld {
            dst,
            addr,
            offset,
            space,
        } => {
            let opc = match space {
                AddrSpace::Input => OpCode::LdIn,
                AddrSpace::Local => OpCode::LdLocal,
            };
            uop(opc, dst, addr, z, offset as u32)
        }
        Instr::St { src, addr, offset } => uop(OpCode::St, src, addr, z, offset as u32),
        Instr::Br { cmp, a, b, target } => {
            let opc = match cmp {
                CmpOp::Eq => OpCode::BrEq,
                CmpOp::Ne => OpCode::BrNe,
                CmpOp::Lt => OpCode::BrLt,
                CmpOp::Ge => OpCode::BrGe,
                CmpOp::Ltu => OpCode::BrLtu,
                CmpOp::Geu => OpCode::BrGeu,
                CmpOp::Flt => OpCode::BrFlt,
                CmpOp::Fge => OpCode::BrFge,
            };
            uop(opc, z, a, b, target)
        }
        Instr::Jmp { target } => uop(OpCode::Jmp, z, z, z, target),
        Instr::Bar => uop(OpCode::Bar, z, z, z, 0),
        Instr::Halt => uop(OpCode::Halt, z, z, z, 0),
    }
}

/// A program predecoded into flat micro-op, access-class, and run-length
/// tables. Built once per [`Program`] (see [`DecodedProgram::of`]) and
/// shared by every thread context executing it.
#[derive(Debug)]
pub struct DecodedProgram {
    ops: Box<[MicroOp]>,
    class: Box<[AccessClass]>,
    run_len: Box<[u32]>,
}

impl DecodedProgram {
    /// Decodes `program` into its flat micro-op form.
    pub fn new(program: &Program) -> DecodedProgram {
        let ops: Box<[MicroOp]> = program.instrs().iter().map(decode).collect();
        let class: Box<[AccessClass]> = ops.iter().map(|u| u.op.class()).collect();
        // run_len[pc] = consecutive pure-ALU micro-ops starting at pc.
        // Computed backwards; a validated program never ends in an ALU
        // instruction (the last instruction is Halt or Jmp), so an ALU run
        // always terminates before the end of the table.
        let mut run_len = vec![0u32; ops.len()];
        for pc in (0..ops.len()).rev() {
            if class[pc].is_alu() {
                let next = if pc + 1 < ops.len() {
                    run_len[pc + 1]
                } else {
                    0
                };
                run_len[pc] = 1 + next;
            }
        }
        DecodedProgram {
            ops,
            class,
            run_len: run_len.into(),
        }
    }

    /// The cached decoded form of `program`, built on first use and shared
    /// by every clone of the program (the decode cache lives behind the
    /// program's `Arc`).
    pub fn of(program: &Program) -> Arc<DecodedProgram> {
        program.decode_cache_or_init(DecodedProgram::new)
    }

    /// Number of micro-ops (= static instructions).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program is empty (never true for validated programs).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The micro-op at `pc`.
    #[inline]
    pub fn fetch(&self, pc: u32) -> MicroOp {
        self.ops[pc as usize]
    }

    /// The access class of the instruction at `pc` — the timing models'
    /// one-byte load/store/control preview.
    #[inline]
    pub fn access_class(&self, pc: u32) -> AccessClass {
        self.class[pc as usize]
    }

    /// Straight-line pure-ALU run length starting at `pc` (0 when the
    /// instruction at `pc` is not pure ALU).
    #[inline]
    pub fn run_len(&self, pc: u32) -> u32 {
        self.run_len[pc as usize]
    }

    /// The memory access the instruction at `ctx.pc` *would* perform —
    /// bit-identical to [`crate::step::effective_access`], without
    /// re-decoding the instruction enum.
    #[inline]
    pub fn peek_access(&self, ctx: &ThreadCtx) -> Option<EffectiveAccess> {
        let uop = self.fetch(ctx.pc);
        match uop.op {
            OpCode::LdIn => Some(EffectiveAccess {
                space: AddrSpace::Input,
                addr: mem_addr(ctx, uop),
                write: false,
            }),
            OpCode::LdLocal => Some(EffectiveAccess {
                space: AddrSpace::Local,
                addr: mem_addr(ctx, uop),
                write: false,
            }),
            OpCode::St => Some(EffectiveAccess {
                space: AddrSpace::Local,
                addr: mem_addr(ctx, uop),
                write: true,
            }),
            _ => None,
        }
    }

    /// Effective byte address of the load/store at `ctx.pc`.
    ///
    /// Callers dispatch on [`DecodedProgram::access_class`] first; this is
    /// the fused fast path that skips even the `Option` of
    /// [`DecodedProgram::peek_access`].
    #[inline]
    pub fn mem_addr_at(&self, ctx: &ThreadCtx) -> u64 {
        let uop = self.fetch(ctx.pc);
        debug_assert!(
            matches!(uop.op, OpCode::LdIn | OpCode::LdLocal | OpCode::St),
            "mem_addr_at on non-memory opcode {:?}",
            uop.op
        );
        mem_addr(ctx, uop)
    }

    /// Executes the micro-op at `ctx.pc` — bit-identical to
    /// [`crate::step::step`], with the decode already paid.
    #[inline]
    pub fn commit(&self, ctx: &mut ThreadCtx, input: &InputImage) -> Result<StepEffect, Trap> {
        if ctx.halted {
            return Err(Trap::SteppedHalted);
        }
        let uop = self.fetch(ctx.pc);
        let mut next_pc = ctx.pc + 1;
        let effect = match uop.op {
            OpCode::LdIn => {
                let ea = mem_addr(ctx, uop);
                let v = input.load(ea).ok_or(Trap::Input { addr: ea })?;
                ctx.write_reg(uop.dst, v);
                StepEffect::InputLoad { addr: ea }
            }
            OpCode::LdLocal => {
                let ea = mem_addr(ctx, uop);
                let v = ctx.local.load(ea)?;
                ctx.write_reg(uop.dst, v);
                StepEffect::LocalLoad { addr: ea }
            }
            OpCode::St => {
                let ea = mem_addr(ctx, uop);
                let v = ctx.read_reg(uop.dst);
                ctx.local.store(ea, v)?;
                StepEffect::LocalStore { addr: ea }
            }
            OpCode::BrEq
            | OpCode::BrNe
            | OpCode::BrLt
            | OpCode::BrGe
            | OpCode::BrLtu
            | OpCode::BrGeu
            | OpCode::BrFlt
            | OpCode::BrFge => {
                let cmp = match uop.op {
                    OpCode::BrEq => CmpOp::Eq,
                    OpCode::BrNe => CmpOp::Ne,
                    OpCode::BrLt => CmpOp::Lt,
                    OpCode::BrGe => CmpOp::Ge,
                    OpCode::BrLtu => CmpOp::Ltu,
                    OpCode::BrGeu => CmpOp::Geu,
                    OpCode::BrFlt => CmpOp::Flt,
                    _ => CmpOp::Fge,
                };
                let taken = cmp.eval(ctx.read_reg(uop.a), ctx.read_reg(uop.b));
                if taken {
                    next_pc = uop.imm;
                }
                StepEffect::Branch { taken }
            }
            OpCode::Jmp => {
                next_pc = uop.imm;
                StepEffect::Jump
            }
            OpCode::Bar => StepEffect::Barrier,
            OpCode::Halt => {
                ctx.halted = true;
                StepEffect::Halt
            }
            _ => {
                exec_alu_uop(uop, ctx);
                StepEffect::Alu
            }
        };
        if !ctx.halted {
            ctx.pc = next_pc;
        }
        Ok(effect)
    }

    /// Executes the load/store micro-op at `ctx.pc` with its effective
    /// address already computed (by [`DecodedProgram::mem_addr_at`] or
    /// [`DecodedProgram::peek_access`] on the *same* register state), so a
    /// timing model that needed the address for its cache/coalescing/bank
    /// decision does not recompute it to commit.
    #[inline]
    pub fn commit_mem_at(
        &self,
        ctx: &mut ThreadCtx,
        addr: u64,
        input: &InputImage,
    ) -> Result<StepEffect, Trap> {
        if ctx.halted {
            return Err(Trap::SteppedHalted);
        }
        let uop = self.fetch(ctx.pc);
        debug_assert_eq!(addr, mem_addr(ctx, uop), "stale precomputed address");
        let effect = match uop.op {
            OpCode::LdIn => {
                let v = input.load(addr).ok_or(Trap::Input { addr })?;
                ctx.write_reg(uop.dst, v);
                StepEffect::InputLoad { addr }
            }
            OpCode::LdLocal => {
                let v = ctx.local.load(addr)?;
                ctx.write_reg(uop.dst, v);
                StepEffect::LocalLoad { addr }
            }
            OpCode::St => {
                let v = ctx.read_reg(uop.dst);
                ctx.local.store(addr, v)?;
                StepEffect::LocalStore { addr }
            }
            // Not a memory micro-op: fall back to the general path (the
            // callers' class dispatch makes this unreachable).
            _ => return self.commit(ctx, input),
        };
        ctx.pc += 1;
        Ok(effect)
    }

    /// Executes up to `max` micro-ops of the pure-ALU run starting at
    /// `ctx.pc` in one tight loop and returns how many ran (0 when the
    /// instruction at `ctx.pc` is not pure ALU).
    ///
    /// Infallible by construction: pure-ALU micro-ops never trap, never
    /// halt, never touch memory, and advance the PC by exactly one each.
    /// The caller still owes the timing model one issue cycle per executed
    /// micro-op (replay-by-count).
    #[inline]
    pub fn burst_retire(&self, ctx: &mut ThreadCtx, max: u32) -> u32 {
        debug_assert!(!ctx.halted, "burst_retire on a halted context");
        let n = self.run_len[ctx.pc as usize].min(max);
        let mut pc = ctx.pc as usize;
        for _ in 0..n {
            exec_alu_uop(self.ops[pc], ctx);
            pc += 1;
        }
        ctx.pc = pc as u32;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::LaunchParams;
    use crate::step::{effective_access, step};
    use millipede_isa::assemble;
    use millipede_isa::reg::r;

    fn ctx() -> ThreadCtx {
        ThreadCtx::new(256, &LaunchParams::new())
    }

    /// Every-kind sample program: ALU reg-reg/imm, float, converts, loads,
    /// stores, branches (taken + not), jump, barrier, halt.
    const SAMPLE: &str = "
        li    r1, 8
        addi  r2, r1, -4
        add   r3, r1, r2
        i2f   r4, r3
        fadd  r5, r4, r4
        f2i   r6, r5
        ld.in r7, (r1)
        st.local r7, 4(r2)
        ld.local r8, 8(r0)
        beq   r8, r7, next
        xor   r9, r9, r9
    next:
        bne   r1, r1, never
        bar
        jmp   end
    never:
        sub   r9, r0, r1
    end:
        halt
    ";

    #[test]
    fn lockstep_matches_reference_interpreter() {
        let p = assemble("sample", SAMPLE).unwrap();
        let d = DecodedProgram::new(&p);
        let input = InputImage::new(vec![10, 20, 30, 40]);
        let mut a = ctx();
        let mut b = ctx();
        for _ in 0..100 {
            let ea = effective_access(&a, &p);
            assert_eq!(ea, d.peek_access(&b));
            let ra = step(&mut a, &p, &input);
            let rb = d.commit(&mut b, &input);
            assert_eq!(ra, rb);
            assert_eq!(a.pc, b.pc);
            assert_eq!(a.regs, b.regs);
            assert_eq!(a.halted, b.halted);
            if a.halted {
                return;
            }
        }
        panic!("did not halt");
    }

    #[test]
    fn class_and_run_len_tables() {
        let p = assemble("sample", SAMPLE).unwrap();
        let d = DecodedProgram::new(&p);
        assert_eq!(d.len(), p.len());
        assert!(!d.is_empty());
        // PCs 0..=5 are a 6-long ALU run ending at the ld.in at pc 6.
        assert_eq!(d.access_class(0), AccessClass::Alu);
        assert_eq!(d.run_len(0), 6);
        assert_eq!(d.run_len(5), 1);
        assert_eq!(d.access_class(6), AccessClass::InputLoad);
        assert_eq!(d.run_len(6), 0);
        assert_eq!(d.access_class(7), AccessClass::LocalStore);
        assert_eq!(d.access_class(8), AccessClass::LocalLoad);
        assert_eq!(d.access_class(9), AccessClass::Branch);
        assert_eq!(d.access_class(12), AccessClass::Barrier);
        assert_eq!(d.access_class(13), AccessClass::Jump);
        assert_eq!(d.access_class(15), AccessClass::Halt);
    }

    #[test]
    fn burst_retire_equals_single_steps() {
        let p = assemble("sample", SAMPLE).unwrap();
        let d = DecodedProgram::new(&p);
        let input = InputImage::new(vec![10, 20, 30, 40]);
        let mut a = ctx();
        let mut b = ctx();
        let n = d.burst_retire(&mut b, u32::MAX);
        assert_eq!(n, 6);
        for _ in 0..n {
            step(&mut a, &p, &input).unwrap();
        }
        assert_eq!(a.pc, b.pc);
        assert_eq!(a.regs, b.regs);
        // A capped burst executes exactly the cap.
        let mut c = ctx();
        assert_eq!(d.burst_retire(&mut c, 2), 2);
        assert_eq!(c.pc, 2);
        // At a non-ALU pc the burst is empty.
        assert_eq!(d.burst_retire(&mut b, u32::MAX), 0);
    }

    #[test]
    fn commit_mem_at_reuses_the_peeked_address() {
        let p = assemble("sample", SAMPLE).unwrap();
        let d = DecodedProgram::new(&p);
        let input = InputImage::new(vec![10, 20, 30, 40]);
        let mut c = ctx();
        d.burst_retire(&mut c, u32::MAX);
        // ld.in r7, (r1) with r1 = 8.
        let ea = d.peek_access(&c).unwrap();
        assert_eq!(ea.addr, 8);
        assert_eq!(
            d.commit_mem_at(&mut c, ea.addr, &input),
            Ok(StepEffect::InputLoad { addr: 8 })
        );
        assert_eq!(c.read_reg(r(7)), 30);
        // st.local r7, 4(r2) with r2 = 4.
        let ea = d.peek_access(&c).unwrap();
        assert!(ea.write);
        assert_eq!(
            d.commit_mem_at(&mut c, ea.addr, &input),
            Ok(StepEffect::LocalStore { addr: 8 })
        );
        assert_eq!(c.local.load(8), Ok(30));
    }

    #[test]
    fn traps_match_reference() {
        // Out-of-bounds input load.
        let p = assemble("t", "li r1, 400\nld.in r2, (r1)\nhalt\n").unwrap();
        let d = DecodedProgram::new(&p);
        let input = InputImage::new(vec![1, 2]);
        let mut a = ctx();
        let mut b = ctx();
        step(&mut a, &p, &input).unwrap();
        d.commit(&mut b, &input).unwrap();
        assert_eq!(step(&mut a, &p, &input), d.commit(&mut b, &input));
        assert_eq!(a.pc, b.pc, "trap must not advance pc");
        // Stepping a halted context.
        let p = assemble("t", "halt\n").unwrap();
        let d = DecodedProgram::new(&p);
        let mut c = ctx();
        d.commit(&mut c, &input).unwrap();
        assert_eq!(d.commit(&mut c, &input), Err(Trap::SteppedHalted));
    }

    #[test]
    fn of_caches_per_program() {
        let p = assemble("t", "li r1, 1\nhalt\n").unwrap();
        let d1 = DecodedProgram::of(&p);
        let d2 = DecodedProgram::of(&p.clone());
        assert!(Arc::ptr_eq(&d1, &d2));
    }
}
