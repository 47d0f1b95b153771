//! Functional execution engine for the mini-ISA.
//!
//! All four simulated architectures share one *functional* substrate: a
//! thread context ([`ThreadCtx`]) steps through a program one instruction at
//! a time, and each step reports what happened ([`StepEffect`]) so the
//! architecture's *timing* model can charge cycles, stall on memory, or
//! manipulate SIMT masks. Separating function from timing keeps the
//! architectures comparable — they run bit-identical computations and differ
//! only in scheduling and memory behaviour, mirroring the paper's controlled
//! methodology ("our results isolate the benefits of Millipede's novel
//! features while holding ... software ... the same", §V).
//!
//! The crate also provides a pure-functional single-thread runner
//! ([`func::run_functional`]) used to validate kernels against their Rust
//! reference implementations and to measure Table IV's static
//! characteristics (instructions per input word, branches per instruction).

#![warn(missing_docs)]

pub mod alu;
pub mod arena;
pub mod clock;
pub mod context;
pub mod decoded;
pub mod driver;
pub mod func;
pub mod instrument;
pub mod stats;
pub mod step;

pub use arena::{Arena2, FlagGrid};
pub use clock::{mhz_for_period_ps, period_ps_for_mhz, DualClock, Edge, TimePs};
pub use context::{LaunchParams, ThreadCtx};
pub use decoded::{AccessClass, DecodedProgram, MicroOp, OpCode};
pub use driver::{drive, Driven, JumpProfile, NodeModel};
pub use func::{run_functional, FuncStats, DEFAULT_STEP_LIMIT};
pub use instrument::{Instrumented, Quiescence, ReplayDeltas};
pub use stats::CoreStats;
pub use step::{step, EffectiveAccess, StepEffect, Trap};
