//! Pure-functional single-thread runner.
//!
//! Runs one thread context to completion with no timing model. Two uses:
//!
//! 1. **Golden validation** — every BMLA kernel is run functionally and its
//!    reduced live state compared against a pure-Rust reference
//!    implementation (the workload crate's tests).
//! 2. **Static characterization** — Table IV's "insts per input word" and
//!    "branches per instruction" are dynamic-execution properties that do
//!    not depend on the architecture; the functional runner measures them
//!    cheaply.

use crate::context::ThreadCtx;
use crate::decoded::{DecodedProgram, StepEffect, Trap};
use millipede_isa::Program;
use millipede_mem::InputImage;

/// Default runaway-execution guard.
pub const DEFAULT_STEP_LIMIT: u64 = 2_000_000_000;

/// Dynamic execution statistics of one functional run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FuncStats {
    /// Instructions executed (including the final halt).
    pub instructions: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Conditional branches taken.
    pub taken_branches: u64,
    /// Words loaded from the input dataset.
    pub input_words: u64,
    /// Local live-state loads.
    pub local_loads: u64,
    /// Local live-state stores.
    pub local_stores: u64,
}

impl FuncStats {
    /// Instructions per input word (Table IV column 2).
    pub fn insts_per_input_word(&self) -> f64 {
        if self.input_words == 0 {
            0.0
        } else {
            self.instructions as f64 / self.input_words as f64
        }
    }

    /// Branches per instruction (Table IV column 3).
    pub fn branches_per_inst(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.branches as f64 / self.instructions as f64
        }
    }

    /// Fraction of branches taken (the paper cites ~70/30 data-dependent
    /// splits as the reason VWS cannot fully recover SIMT efficiency).
    pub fn taken_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.taken_branches as f64 / self.branches as f64
        }
    }

    /// Merges another thread's statistics.
    pub fn merge(&mut self, other: &FuncStats) {
        self.instructions += other.instructions;
        self.branches += other.branches;
        self.taken_branches += other.taken_branches;
        self.input_words += other.input_words;
        self.local_loads += other.local_loads;
        self.local_stores += other.local_stores;
    }
}

/// Runs `ctx` until it halts (or `step_limit` instructions elapse).
///
/// Executes over the program's predecoded form ([`DecodedProgram`]),
/// retiring whole pure-ALU runs per loop iteration; the observable result
/// (final context state, statistics, traps) is bit-identical to stepping
/// the reference interpreter one instruction at a time.
pub fn run_functional(
    ctx: &mut ThreadCtx,
    program: &Program,
    input: &InputImage,
    step_limit: u64,
) -> Result<FuncStats, Trap> {
    let decoded = DecodedProgram::of(program);
    let mut stats = FuncStats::default();
    while !ctx.halted {
        if stats.instructions >= step_limit {
            return Err(Trap::StepLimit);
        }
        if decoded.run_len(ctx.pc) > 0 {
            // Pure-ALU run: retire it in one burst, capped at the step
            // budget so a runaway kernel still hits the limit exactly.
            let budget = step_limit - stats.instructions;
            let cap = u32::try_from(budget).unwrap_or(u32::MAX);
            let n = decoded.burst_retire(ctx, cap);
            stats.instructions += u64::from(n);
            continue;
        }
        let effect = decoded.commit(ctx, input)?;
        stats.instructions += 1;
        match effect {
            StepEffect::Branch { taken } => {
                stats.branches += 1;
                if taken {
                    stats.taken_branches += 1;
                }
            }
            StepEffect::InputLoad { .. } => stats.input_words += 1,
            StepEffect::LocalLoad { .. } => stats.local_loads += 1,
            StepEffect::LocalStore { .. } => stats.local_stores += 1,
            _ => {}
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::LaunchParams;
    use millipede_isa::assemble;

    #[test]
    fn counts_dynamic_events() {
        // Sum 4 input words with a loop.
        let src = "
            li   r1, 0      # addr
            li   r2, 16     # end
            li   r3, 0      # sum
        top:
            ld.in r4, (r1)
            add  r3, r3, r4
            addi r1, r1, 4
            blt  r1, r2, top
            st.local r3, (r0)
            halt
        ";
        let p = assemble("sum", src).unwrap();
        let input = InputImage::new(vec![1, 2, 3, 4]);
        let mut ctx = ThreadCtx::new(64, &LaunchParams::new());
        let stats = run_functional(&mut ctx, &p, &input, 1_000).unwrap();
        assert_eq!(ctx.local.words()[0], 10);
        assert_eq!(stats.input_words, 4);
        assert_eq!(stats.branches, 4);
        assert_eq!(stats.taken_branches, 3);
        assert_eq!(stats.local_stores, 1);
        // 3 setup + 4*4 loop + store + halt = 21.
        assert_eq!(stats.instructions, 21);
        assert!((stats.insts_per_input_word() - 21.0 / 4.0).abs() < 1e-12);
        assert!((stats.branches_per_inst() - 4.0 / 21.0).abs() < 1e-12);
        assert!((stats.taken_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn step_limit_catches_livelock() {
        let p = assemble("spin", "top:\njmp top\n").unwrap();
        let input = InputImage::new(vec![]);
        let mut ctx = ThreadCtx::new(0, &LaunchParams::new());
        assert_eq!(
            run_functional(&mut ctx, &p, &input, 100),
            Err(Trap::StepLimit)
        );
    }

    #[test]
    fn stats_merge() {
        let mut a = FuncStats {
            instructions: 10,
            branches: 2,
            taken_branches: 1,
            input_words: 4,
            local_loads: 3,
            local_stores: 2,
        };
        a.merge(&a.clone());
        assert_eq!(a.instructions, 20);
        assert_eq!(a.input_words, 8);
        assert_eq!(a.local_loads, 6);
    }

    #[test]
    fn zero_division_guards() {
        let s = FuncStats::default();
        assert_eq!(s.insts_per_input_word(), 0.0);
        assert_eq!(s.branches_per_inst(), 0.0);
        assert_eq!(s.taken_rate(), 0.0);
    }
}
