//! The Millipede mini-ISA.
//!
//! The paper evaluates Big-data Machine-Learning Analytics (BMLA) kernels
//! compiled from CUDA through GPGPUsim's PTX front-end. This crate supplies
//! the equivalent substrate for our from-scratch simulator: a small RISC-like
//! instruction set that every simulated architecture (Millipede corelets,
//! SSMC cores, GPGPU lanes, and the conventional multicore) executes.
//!
//! The ISA is deliberately minimal — BMLAs are *compute-light* (§III of the
//! paper), performing under ~200 simple operations per input word — but rich
//! enough to express the paper's two sources of irregularity:
//!
//! * **data-dependent branches** ([`Instr::Br`]), and
//! * **indirect accesses to intermediate state** (register-addressed
//!   [`Instr::Ld`]/[`Instr::St`] in the [`AddrSpace::Local`] space).
//!
//! Input data lives in a separate read-only [`AddrSpace::Input`] space backed
//! by die-stacked DRAM; how input loads are serviced (prefetch buffers, L1
//! D-cache, coalescing) is exactly what differentiates the simulated
//! architectures.
//!
//! Submodules:
//!
//! * [`reg`] — architectural registers (`r0` hardwired to zero).
//! * [`instr`] — the instruction enumeration and operand types.
//! * [`program`] — validated instruction sequences.
//! * [`builder`] — programmatic assembly with labels.
//! * [`asm`] — a text assembler and disassembler.
//! * [`cfg`](mod@cfg) — control-flow graphs and immediate post-dominators
//!   (the SIMT reconvergence points used by the GPGPU baseline).

#![warn(missing_docs)]

pub mod asm;
pub mod builder;
pub mod cfg;
pub mod instr;
pub mod program;
pub mod reg;

pub use asm::{assemble, assemble_with_map, disassemble, AsmError, SourceMap};
pub use builder::{Label, ProgramBuilder};
pub use cfg::{immediate_dominators, reverse_post_order, Cfg, ReconvergenceMap};
pub use instr::{AddrSpace, AluOp, CmpOp, FAluOp, Instr};
pub use program::{Program, ProgramError};
pub use reg::Reg;
