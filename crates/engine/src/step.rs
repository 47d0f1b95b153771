//! The reference interpreter: single-instruction semantics straight off
//! the [`Instr`] enum.
//!
//! No timing model runs on it; they all execute through
//! [`crate::DecodedProgram`]. [`step`] and [`effective_access`] stay as
//! the oracle that `tests/decoded_differential.rs` and `decoded`'s unit
//! tests compare the predecoded interpreter against.

use crate::alu;
use crate::context::ThreadCtx;
use crate::decoded::{EffectiveAccess, StepEffect, Trap};
use millipede_isa::{AddrSpace, Instr, Program};
use millipede_mem::InputImage;

/// Computes the effective memory access of the instruction at `ctx.pc`, if
/// it is a load or store.
#[inline]
pub fn effective_access(ctx: &ThreadCtx, program: &Program) -> Option<EffectiveAccess> {
    match *program.fetch(ctx.pc) {
        Instr::Ld {
            addr,
            offset,
            space,
            ..
        } => Some(EffectiveAccess {
            space,
            addr: (ctx.read_reg(addr) as i64 + offset as i64) as u64,
            write: false,
        }),
        Instr::St { addr, offset, .. } => Some(EffectiveAccess {
            space: AddrSpace::Local,
            addr: (ctx.read_reg(addr) as i64 + offset as i64) as u64,
            write: true,
        }),
        _ => None,
    }
}

/// Executes the instruction at `ctx.pc`, updating the context.
///
/// Addresses are computed as `reg + offset` in 64-bit space (registers are
/// zero-extended), so kernels address up to 4 GB of input.
pub fn step(
    ctx: &mut ThreadCtx,
    program: &Program,
    input: &InputImage,
) -> Result<StepEffect, Trap> {
    if ctx.halted {
        return Err(Trap::SteppedHalted);
    }
    let instr = *program.fetch(ctx.pc);
    let mut next_pc = ctx.pc + 1;
    let effect = match instr {
        Instr::Alu { op, dst, a, b } => {
            let v = alu::eval_alu(op, ctx.read_reg(a), ctx.read_reg(b));
            ctx.write_reg(dst, v);
            StepEffect::Alu
        }
        Instr::AluI { op, dst, a, imm } => {
            let v = alu::eval_alu(op, ctx.read_reg(a), imm as u32);
            ctx.write_reg(dst, v);
            StepEffect::Alu
        }
        Instr::FAlu { op, dst, a, b } => {
            let v = alu::eval_falu(op, ctx.read_reg(a), ctx.read_reg(b));
            ctx.write_reg(dst, v);
            StepEffect::Alu
        }
        Instr::Li { dst, imm } => {
            ctx.write_reg(dst, imm);
            StepEffect::Alu
        }
        Instr::I2F { dst, a } => {
            let v = alu::i2f(ctx.read_reg(a));
            ctx.write_reg(dst, v);
            StepEffect::Alu
        }
        Instr::F2I { dst, a } => {
            let v = alu::f2i(ctx.read_reg(a));
            ctx.write_reg(dst, v);
            StepEffect::Alu
        }
        Instr::Ld {
            dst,
            addr,
            offset,
            space,
        } => {
            let ea = (ctx.read_reg(addr) as i64 + offset as i64) as u64;
            match space {
                AddrSpace::Input => {
                    let v = input.load(ea).ok_or(Trap::Input { addr: ea })?;
                    ctx.write_reg(dst, v);
                    StepEffect::InputLoad { addr: ea }
                }
                AddrSpace::Local => {
                    let v = ctx.local.load(ea)?;
                    ctx.write_reg(dst, v);
                    StepEffect::LocalLoad { addr: ea }
                }
            }
        }
        Instr::St { src, addr, offset } => {
            let ea = (ctx.read_reg(addr) as i64 + offset as i64) as u64;
            let v = ctx.read_reg(src);
            ctx.local.store(ea, v)?;
            StepEffect::LocalStore { addr: ea }
        }
        Instr::Br { cmp, a, b, target } => {
            let taken = cmp.eval(ctx.read_reg(a), ctx.read_reg(b));
            if taken {
                next_pc = target;
            }
            StepEffect::Branch { taken }
        }
        Instr::Jmp { target } => {
            next_pc = target;
            StepEffect::Jump
        }
        Instr::Bar => StepEffect::Barrier,
        Instr::Halt => {
            ctx.halted = true;
            StepEffect::Halt
        }
    };
    if !ctx.halted {
        ctx.pc = next_pc;
    }
    Ok(effect)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::LaunchParams;
    use millipede_isa::assemble;
    use millipede_isa::reg::r;

    fn ctx() -> ThreadCtx {
        ThreadCtx::new(256, &LaunchParams::new())
    }

    fn run_to_halt(src: &str, ctx: &mut ThreadCtx, input: &InputImage) -> Vec<StepEffect> {
        let p = assemble("t", src).unwrap();
        let mut effects = Vec::new();
        for _ in 0..10_000 {
            effects.push(step(ctx, &p, input).unwrap());
            if ctx.halted {
                return effects;
            }
        }
        panic!("did not halt");
    }

    #[test]
    fn arithmetic_and_pc_advance() {
        let mut c = ctx();
        let input = InputImage::new(vec![]);
        run_to_halt(
            "li r1, 5\naddi r2, r1, 3\nmul r3, r1, r2\nhalt\n",
            &mut c,
            &input,
        );
        assert_eq!(c.read_reg(r(3)), 40);
        assert!(c.halted);
    }

    #[test]
    fn loop_executes_correct_iterations() {
        let mut c = ctx();
        let input = InputImage::new(vec![]);
        let effects = run_to_halt(
            "li r1, 0\nli r2, 5\ntop:\naddi r1, r1, 1\nblt r1, r2, top\nhalt\n",
            &mut c,
            &input,
        );
        assert_eq!(c.read_reg(r(1)), 5);
        let taken = effects
            .iter()
            .filter(|e| matches!(e, StepEffect::Branch { taken: true }))
            .count();
        assert_eq!(taken, 4);
    }

    #[test]
    fn input_load_reads_dataset() {
        let mut c = ctx();
        let input = InputImage::new(vec![100, 200, 300]);
        run_to_halt("li r1, 4\nld.in r2, 4(r1)\nhalt\n", &mut c, &input);
        assert_eq!(c.read_reg(r(2)), 300);
    }

    #[test]
    fn input_load_oob_traps() {
        let p = assemble("t", "ld.in r2, 0(r1)\nhalt\n").unwrap();
        let mut c = ctx();
        c.write_reg(r(1), 400);
        let input = InputImage::new(vec![1, 2]);
        assert_eq!(step(&mut c, &p, &input), Err(Trap::Input { addr: 400 }));
    }

    #[test]
    fn local_store_load_round_trip() {
        let mut c = ctx();
        let input = InputImage::new(vec![]);
        let effects = run_to_halt(
            "li r1, 42\nli r2, 16\nst.local r1, 0(r2)\nld.local r3, 16(r0)\nhalt\n",
            &mut c,
            &input,
        );
        assert_eq!(c.read_reg(r(3)), 42);
        assert!(effects.contains(&StepEffect::LocalStore { addr: 16 }));
        assert!(effects.contains(&StepEffect::LocalLoad { addr: 16 }));
    }

    #[test]
    fn local_fault_traps() {
        let p = assemble("t", "st.local r1, 0(r2)\nhalt\n").unwrap();
        let mut c = ThreadCtx::new(16, &LaunchParams::new());
        c.write_reg(r(2), 64);
        let input = InputImage::new(vec![]);
        assert!(matches!(step(&mut c, &p, &input), Err(Trap::Local(_))));
    }

    #[test]
    fn stepping_halted_context_traps() {
        let p = assemble("t", "halt\n").unwrap();
        let mut c = ctx();
        let input = InputImage::new(vec![]);
        step(&mut c, &p, &input).unwrap();
        assert_eq!(step(&mut c, &p, &input), Err(Trap::SteppedHalted));
    }

    #[test]
    fn effective_access_previews_memory_ops() {
        let p = assemble("t", "ld.in r2, 8(r1)\nst.local r2, -4(r3)\nhalt\n").unwrap();
        let mut c = ctx();
        c.write_reg(r(1), 100);
        c.write_reg(r(3), 20);
        let ea = effective_access(&c, &p).unwrap();
        assert_eq!(ea.addr, 108);
        assert_eq!(ea.space, AddrSpace::Input);
        assert!(!ea.write);
        c.pc = 1;
        let ea = effective_access(&c, &p).unwrap();
        assert_eq!(ea.addr, 16);
        assert!(ea.write);
        c.pc = 2;
        assert!(effective_access(&c, &p).is_none());
    }

    #[test]
    fn negative_offset_addressing() {
        let mut c = ctx();
        let input = InputImage::new(vec![7, 8, 9]);
        run_to_halt("li r1, 8\nld.in r2, -4(r1)\nhalt\n", &mut c, &input);
        assert_eq!(c.read_reg(r(2)), 8);
    }

    #[test]
    fn barrier_is_a_functional_noop_that_advances_pc() {
        let p = assemble(
            "t",
            "li r1, 7
bar
addi r1, r1, 1
halt
",
        )
        .unwrap();
        let mut c = ctx();
        let input = InputImage::new(vec![]);
        step(&mut c, &p, &input).unwrap();
        assert_eq!(step(&mut c, &p, &input), Ok(StepEffect::Barrier));
        assert_eq!(c.pc, 2);
        step(&mut c, &p, &input).unwrap();
        assert_eq!(c.read_reg(r(1)), 8);
    }

    #[test]
    fn branch_not_taken_falls_through() {
        let mut c = ctx();
        let input = InputImage::new(vec![]);
        let effects = run_to_halt(
            "li r1, 3\nli r2, 3\nbne r1, r2, skip\nli r3, 1\nskip:\nhalt\n",
            &mut c,
            &input,
        );
        assert_eq!(c.read_reg(r(3)), 1);
        assert!(effects.contains(&StepEffect::Branch { taken: false }));
    }
}
