//! Predecoded micro-op interpreter: single-decode execution for the timing
//! models.
//!
//! The reference interpreter ([`crate::step`]) pattern-matches the full
//! [`Instr`] enum twice per committed instruction: once in
//! `effective_access` (the timing models' load/store preview) and once in
//! `step` itself. A [`DecodedProgram`] is built **once per run** and
//! flattens each instruction into a packed [`MicroOp`] — fused opcode byte,
//! pre-resolved register identifiers, and a raw 32-bit immediate/offset/
//! target payload — plus an **access-class table** ([`AccessClass`], one
//! byte per PC) answering "would the instruction at this PC load input /
//! touch local memory / branch / barrier / halt?" with a single indexed
//! load, so the per-cycle scheduler loops never touch the enum.
//!
//! [`DecodedProgram::run_ahead`] executes a whole run in one tight loop;
//! the timing models then *charge* its issue slots by count (the
//! replay-by-count discipline the fast-forward jump also uses), so the
//! scheduler round-trip is paid per run, not per instruction. It runs a
//! warp's live lanes in lockstep, one instruction across all lanes at a
//! time, through ALU operations, jumps, branches every lane agrees on and
//! local loads/stores, up to the next input load, barrier, halt, divergent
//! branch, trapping or refused local access, or reconvergence PC. Those
//! instructions touch only the lanes' registers and their own partitions
//! of local memory, so running them early is invisible to every other
//! context and to all memory-system state. A SIMT warp (the GPGPU and VWS
//! models) passes its live mask, IPDOM reconvergence PC and Shared Memory
//! bank check; a MIMD context (Millipede, SSMC) is the one-lane warp, with
//! no reconvergence PC and every in-bounds local access accepted.
//!
//! The effect types every interpreter reports in — [`StepEffect`],
//! [`EffectiveAccess`] and [`Trap`] — live here, next to the interpreter
//! the timing models and [`crate::run_functional`] execute on.
//!
//! Everything here is semantically bit-exact against the reference
//! interpreter; `tests/decoded_differential.rs` enforces that over the
//! fixture corpus and randomized programs.

use crate::alu;
use crate::context::ThreadCtx;
use millipede_isa::{AddrSpace, AluOp, CmpOp, FAluOp, Instr, Program, Reg};
use millipede_mem::{InputImage, MemFault, MAX_LANES};
use std::fmt;

/// A fatal kernel error (memory fault or runaway execution).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// A local-memory access faulted.
    Local(MemFault),
    /// An input load was misaligned or out of bounds.
    Input {
        /// The faulting byte address.
        addr: u64,
    },
    /// Stepped a context that already halted (simulator scheduling bug).
    SteppedHalted,
    /// The functional runner exceeded its step limit.
    StepLimit,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::Local(e) => write!(f, "local memory fault: {e}"),
            Trap::Input { addr } => write!(f, "bad input load at byte address {addr:#x}"),
            Trap::SteppedHalted => write!(f, "stepped a halted context"),
            Trap::StepLimit => write!(f, "step limit exceeded (kernel livelock?)"),
        }
    }
}

impl std::error::Error for Trap {}

impl From<MemFault> for Trap {
    fn from(e: MemFault) -> Self {
        Trap::Local(e)
    }
}

/// What an executed instruction did — the timing models key off this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEffect {
    /// An ALU/immediate/convert instruction completed.
    Alu,
    /// A conditional branch executed (and whether it was taken).
    Branch {
        /// Whether the branch was taken.
        taken: bool,
    },
    /// An unconditional jump executed.
    Jump,
    /// A word was loaded from the input dataset at this byte address.
    InputLoad {
        /// The byte address.
        addr: u64,
    },
    /// A word was loaded from local live state.
    LocalLoad {
        /// The byte address.
        addr: u64,
    },
    /// A word was stored to local live state.
    LocalStore {
        /// The byte address.
        addr: u64,
    },
    /// The thread reached a processor-wide barrier (the timing model is
    /// responsible for blocking it; functionally it is a no-op).
    Barrier,
    /// The thread halted.
    Halt,
}

/// The memory access an instruction at the context's current PC *would*
/// perform, computed without executing. Timing models use this to decide
/// whether the context can proceed this cycle (prefetch-buffer hit, cache
/// hit, …) before committing the instruction with
/// [`DecodedProgram::commit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EffectiveAccess {
    /// Which address space.
    pub space: AddrSpace,
    /// Byte address.
    pub addr: u64,
    /// Whether the access is a store.
    pub write: bool,
}

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

/// Whether the conditional-branch micro-op `uop` is taken.
#[inline]
fn branch_taken(uop: MicroOp, ctx: &ThreadCtx) -> bool {
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
    cmp.eval(ctx.read_reg(uop.a), ctx.read_reg(uop.b))
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

/// The most instructions one [`DecodedProgram::run_ahead`] executes. It
/// only bounds a runaway local loop: a context or warp whose credits drain
/// mid-run issues its next instruction in that slot and runs ahead again,
/// so the cap cannot change the schedule.
pub const RUN_AHEAD_CAP: u32 = 1 << 16;

/// What one [`DecodedProgram::run_ahead`] executed: its instruction count
/// and the per-kind counts the timing models' statistics keep. Each count
/// is of warp-wide instructions, each executed by every live lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalRun {
    /// Instructions executed (each owes one issue slot).
    pub instructions: u32,
    /// Conditional branches among them.
    pub branches: u32,
    /// Local live-state loads among them.
    pub local_loads: u32,
    /// Local live-state stores among them.
    pub local_stores: u32,
}

/// A program predecoded into flat micro-op and access-class tables. Built
/// once per run (see [`DecodedProgram::of`]) and shared by every thread
/// context executing it.
#[derive(Debug)]
pub struct DecodedProgram {
    ops: Box<[MicroOp]>,
    class: Box<[AccessClass]>,
}

impl DecodedProgram {
    /// Decodes `program` into its flat micro-op form.
    pub fn of(program: &Program) -> DecodedProgram {
        let ops: Box<[MicroOp]> = program.instrs().iter().map(decode).collect();
        let class: Box<[AccessClass]> = ops.iter().map(|u| u.op.class()).collect();
        DecodedProgram { ops, class }
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

    /// Effective byte address of the load/store at `ctx.pc` — the address
    /// [`crate::step::effective_access`] reports. Callers dispatch on
    /// [`DecodedProgram::access_class`] first.
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
                let taken = branch_taken(uop, ctx);
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

    /// Runs one warp ahead in lockstep: executes up to `max` instructions,
    /// each on every lane in `live` (bit *i* = `lanes[i]`, all at the same
    /// PC), and returns what ran. Every live lane ends at the same PC.
    ///
    /// It runs ALU operations, jumps, conditional branches every live lane
    /// agrees on (all lanes are evaluated before the warp moves), and local
    /// loads/stores where every lane's address is in bounds and `accept`
    /// takes the access. `accept(idx, addrs)` gets the live lanes' indices
    /// in ascending order and their byte addresses; it is asked last, so an
    /// access it accepts runs (the caller may record it there).
    ///
    /// The run stops *before* an input load, barrier or halt, a divergent
    /// branch, a local access any lane would trap on or that `accept`
    /// refuses, and the PC `reconv` (the current IPDOM path's reconvergence
    /// point). Each of those leaves the warp unchanged, so it still fires
    /// in its own issue slot. The caller owes the timing model one issue
    /// slot per executed instruction (replay-by-count).
    ///
    /// A MIMD context runs as the one-lane warp:
    /// `run_ahead(slice::from_mut(ctx), 1, None, max, |_, _| true)`.
    #[inline]
    pub fn run_ahead(
        &self,
        lanes: &mut [ThreadCtx],
        live: u64,
        reconv: Option<u32>,
        max: u32,
        mut accept: impl FnMut(&[usize], &[u64]) -> bool,
    ) -> LocalRun {
        debug_assert_ne!(live, 0, "run_ahead with no live lane");
        let mut idx_buf = [0usize; MAX_LANES];
        let mut n = 0;
        let mut m = live;
        while m != 0 {
            idx_buf[n] = m.trailing_zeros() as usize;
            m &= m - 1;
            n += 1;
        }
        let idx = &idx_buf[..n];
        let mut pc = lanes[idx[0]].pc;
        debug_assert!(
            idx.iter().all(|&i| lanes[i].pc == pc && !lanes[i].halted),
            "warp lanes out of lockstep"
        );
        let mut addrs_buf = [0u64; MAX_LANES];
        let mut run = LocalRun::default();
        while run.instructions < max && reconv != Some(pc) {
            let uop = self.ops[pc as usize];
            match uop.op {
                OpCode::LdIn | OpCode::Bar | OpCode::Halt => break,
                OpCode::LdLocal | OpCode::St => {
                    let addrs = &mut addrs_buf[..n];
                    let mut in_bounds = true;
                    for (a, &i) in addrs.iter_mut().zip(idx) {
                        *a = mem_addr(&lanes[i], uop);
                        in_bounds &= lanes[i].local.in_bounds(*a);
                    }
                    if !in_bounds || !accept(idx, addrs) {
                        break;
                    }
                    // Every access below is in bounds, so none faults.
                    for (&a, &i) in addrs.iter().zip(idx) {
                        let ctx = &mut lanes[i];
                        if uop.op == OpCode::LdLocal {
                            if let Ok(v) = ctx.local.load(a) {
                                ctx.write_reg(uop.dst, v);
                            }
                        } else {
                            let v = ctx.read_reg(uop.dst);
                            let stored = ctx.local.store(a, v);
                            debug_assert!(stored.is_ok(), "checked in bounds");
                        }
                    }
                    if uop.op == OpCode::LdLocal {
                        run.local_loads += 1;
                    } else {
                        run.local_stores += 1;
                    }
                    pc += 1;
                }
                OpCode::BrEq
                | OpCode::BrNe
                | OpCode::BrLt
                | OpCode::BrGe
                | OpCode::BrLtu
                | OpCode::BrGeu
                | OpCode::BrFlt
                | OpCode::BrFge => {
                    let taken = branch_taken(uop, &lanes[idx[0]]);
                    if idx[1..]
                        .iter()
                        .any(|&i| branch_taken(uop, &lanes[i]) != taken)
                    {
                        break;
                    }
                    pc = if taken { uop.imm } else { pc + 1 };
                    run.branches += 1;
                }
                OpCode::Jmp => pc = uop.imm,
                _ => {
                    for &i in idx {
                        exec_alu_uop(uop, &mut lanes[i]);
                    }
                    pc += 1;
                }
            }
            run.instructions += 1;
        }
        for &i in idx {
            lanes[i].pc = pc;
        }
        run
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

    /// The access preview [`effective_access`] gives, read from the class
    /// table and `mem_addr_at` the way the timing models read it.
    fn decoded_access(d: &DecodedProgram, ctx: &ThreadCtx) -> Option<EffectiveAccess> {
        let (space, write) = match d.access_class(ctx.pc) {
            AccessClass::InputLoad => (AddrSpace::Input, false),
            AccessClass::LocalLoad => (AddrSpace::Local, false),
            AccessClass::LocalStore => (AddrSpace::Local, true),
            _ => return None,
        };
        let addr = d.mem_addr_at(ctx);
        Some(EffectiveAccess { space, addr, write })
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
        let d = DecodedProgram::of(&p);
        let input = InputImage::new(vec![10, 20, 30, 40]);
        let mut a = ctx();
        let mut b = ctx();
        for _ in 0..100 {
            assert_eq!(effective_access(&a, &p), decoded_access(&d, &b));
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
    fn class_table() {
        let p = assemble("sample", SAMPLE).unwrap();
        let d = DecodedProgram::of(&p);
        assert_eq!(d.len(), p.len());
        assert!(!d.is_empty());
        assert_eq!(d.access_class(0), AccessClass::Alu);
        assert_eq!(d.access_class(5), AccessClass::Alu);
        assert_eq!(d.access_class(6), AccessClass::InputLoad);
        assert_eq!(d.access_class(7), AccessClass::LocalStore);
        assert_eq!(d.access_class(8), AccessClass::LocalLoad);
        assert_eq!(d.access_class(9), AccessClass::Branch);
        assert_eq!(d.access_class(12), AccessClass::Barrier);
        assert_eq!(d.access_class(13), AccessClass::Jump);
        assert_eq!(d.access_class(15), AccessClass::Halt);
    }

    #[test]
    fn run_ahead_stops_before_each_stop_rule() {
        // Two lanes: lane i has r1 = i and r5 = i * 4096 (lane 1's local
        // accesses through r5 fault).
        let lanes = || -> Vec<ThreadCtx> {
            (0..2u32)
                .map(|i| {
                    let params = LaunchParams::new().set(r(1), i).set(r(5), i * 4096);
                    ThreadCtx::new(256, &params)
                })
                .collect()
        };
        // (program, reconvergence pc, accept local accesses, stop pc,
        // instructions run)
        let cases: [(&str, Option<u32>, bool, u32, u32); 9] = [
            ("addi r2, r0, 1\nld.in r3, 0(r0)\nhalt", None, true, 1, 1),
            ("addi r2, r0, 1\nbar\nhalt", None, true, 1, 1),
            ("addi r2, r0, 1\nhalt", None, true, 1, 1),
            ("addi r2, r0, 1\nbne r1, r0, x\nx: halt", None, true, 1, 1),
            (
                "addi r2, r0, 1\nbeq r1, r1, x\nhalt\nx: halt",
                None,
                true,
                3,
                2,
            ),
            ("addi r2, r0, 1\nst.local r2, 0(r5)\nhalt", None, true, 1, 1),
            (
                "addi r2, r0, 1\nst.local r2, 0(r0)\nhalt",
                None,
                false,
                1,
                1,
            ),
            ("addi r2, r0, 1\nst.local r2, 0(r0)\nhalt", None, true, 2, 2),
            (
                "addi r2, r0, 1\njmp x\nx: addi r2, r2, 1\nhalt",
                Some(2),
                true,
                2,
                2,
            ),
        ];
        for (src, reconv, accept, stop, instructions) in cases {
            let d = DecodedProgram::of(&assemble("t", src).unwrap());
            let mut warp = lanes();
            let run = d.run_ahead(&mut warp, 0b11, reconv, 64, |idx, addrs| {
                assert_eq!((idx, addrs.len()), (&[0, 1][..], 2));
                accept
            });
            assert_eq!(run.instructions, instructions, "{src}");
            assert!(
                warp.iter().all(|c| c.pc == stop),
                "{src}: stopped elsewhere"
            );
        }
        // A lane outside the live mask is left alone.
        let d = DecodedProgram::of(&assemble("t", "addi r2, r0, 1\nhalt").unwrap());
        let mut warp = lanes();
        d.run_ahead(&mut warp, 0b10, None, 64, |_, _| true);
        assert_eq!((warp[0].pc, warp[1].pc), (0, 1));
    }

    #[test]
    fn mem_addr_at_previews_the_address_commit_reports() {
        let p = assemble("sample", SAMPLE).unwrap();
        let d = DecodedProgram::of(&p);
        let input = InputImage::new(vec![10, 20, 30, 40]);
        let mut c = ctx();
        // A one-lane run-ahead stops before the input load at pc 6.
        let run = d.run_ahead(std::slice::from_mut(&mut c), 1, None, 64, |_, _| true);
        assert_eq!((run.instructions, c.pc), (6, 6));
        // ld.in r7, (r1) with r1 = 8.
        assert_eq!(d.mem_addr_at(&c), 8);
        assert_eq!(
            d.commit(&mut c, &input),
            Ok(StepEffect::InputLoad { addr: 8 })
        );
        assert_eq!(c.read_reg(r(7)), 30);
        // st.local r7, 4(r2) with r2 = 4.
        assert_eq!(d.access_class(c.pc), AccessClass::LocalStore);
        assert_eq!(d.mem_addr_at(&c), 8);
        assert_eq!(
            d.commit(&mut c, &input),
            Ok(StepEffect::LocalStore { addr: 8 })
        );
        assert_eq!(c.local.load(8), Ok(30));
    }

    #[test]
    fn traps_match_reference() {
        // Out-of-bounds input load.
        let p = assemble("t", "li r1, 400\nld.in r2, (r1)\nhalt\n").unwrap();
        let d = DecodedProgram::of(&p);
        let input = InputImage::new(vec![1, 2]);
        let mut a = ctx();
        let mut b = ctx();
        step(&mut a, &p, &input).unwrap();
        d.commit(&mut b, &input).unwrap();
        assert_eq!(step(&mut a, &p, &input), d.commit(&mut b, &input));
        assert_eq!(a.pc, b.pc, "trap must not advance pc");
        // Stepping a halted context.
        let p = assemble("t", "halt\n").unwrap();
        let d = DecodedProgram::of(&p);
        let mut c = ctx();
        d.commit(&mut c, &input).unwrap();
        assert_eq!(d.commit(&mut c, &input), Err(Trap::SteppedHalted));
    }
}
