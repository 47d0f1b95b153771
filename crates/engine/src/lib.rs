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
//! Every model executes on the predecoded interpreter ([`decoded`]), which
//! also defines the effect types ([`StepEffect`], [`Trap`]); [`step`] is
//! the reference interpreter the differential tests check it against.
//! [`mimd`] is the hardware-context set the two MIMD timing models
//! (Millipede, SSMC) share, and [`driver`] the run loop every timing
//! model runs on.
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
pub mod mimd;
pub mod stats;
pub mod step;

pub use arena::{Arena2, FlagGrid};
pub use clock::{mhz_for_period_ps, period_ps_for_mhz, DualClock, Edge, TimePs, COMPUTE_MHZ};
pub use context::{LaunchParams, ThreadCtx};
pub use decoded::{
    AccessClass, DecodedProgram, EffectiveAccess, LocalRun, MicroOp, OpCode, StepEffect, Trap,
    RUN_AHEAD_CAP,
};
pub use driver::{drive, Driven, JumpProfile, NodeModel, Quiescence, MAX_IDLE_CYCLES};
pub use func::{run_functional, FuncStats, DEFAULT_STEP_LIMIT};
pub use mimd::{Contexts, CreditScan};
pub use stats::CoreStats;
