//! Validated programs.
//!
//! A [`Program`] is an immutable, validated sequence of instructions. The
//! validation rules guarantee that simulator cores can fetch and execute
//! without bounds checks failing mid-run:
//!
//! * every branch/jump target is a valid PC;
//! * execution cannot fall off the end of the instruction vector (the last
//!   instruction must be a `Halt` or `Jmp`);
//! * the program is non-empty and fits in the 4 KB I-cache budget the paper
//!   assumes ("BMLA code size is small (e.g., under 4 KB)", §IV-A) unless
//!   explicitly overridden.

use crate::instr::Instr;
use std::fmt;
use std::sync::Arc;

/// Size of one encoded instruction in bytes, used to compute the code
/// footprint against the I-cache budget. The mini-ISA models a fixed 8-byte
/// encoding (opcode + operands + 32-bit immediate).
pub const INSTR_BYTES: usize = 8;

/// Default maximum code footprint: the per-corelet 4 KB I-cache (Table III).
pub const DEFAULT_MAX_CODE_BYTES: usize = 4096;

/// Errors detected while validating a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The instruction vector was empty.
    Empty,
    /// A branch or jump at `pc` targets a PC outside the program.
    BadTarget {
        /// PC of the offending instruction.
        pc: usize,
        /// The invalid target.
        target: u32,
    },
    /// The final instruction can fall through past the end of the program.
    FallsOffEnd,
    /// The code footprint exceeds the I-cache budget.
    TooLarge {
        /// Actual code bytes.
        bytes: usize,
        /// The budget.
        max: usize,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Empty => write!(f, "program has no instructions"),
            ProgramError::BadTarget { pc, target } => {
                write!(f, "instruction at pc {pc} targets invalid pc {target}")
            }
            ProgramError::FallsOffEnd => {
                write!(f, "last instruction may fall through past end of program")
            }
            ProgramError::TooLarge { bytes, max } => {
                write!(f, "code footprint {bytes} B exceeds I-cache budget {max} B")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A validated, immutable kernel program.
///
/// Programs are cheaply cloneable (`Arc` inside) so the thousands of
/// simulated thread contexts can share one copy, mirroring the paper's
/// broadcast of the kernel code to every corelet at launch (§IV-A).
#[derive(Clone)]
pub struct Program {
    instrs: Arc<[Instr]>,
    name: Arc<str>,
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Manual impl: dumping every instruction would drown sweep logs.
        f.debug_struct("Program")
            .field("name", &self.name)
            .field("len", &self.instrs.len())
            .finish()
    }
}

impl Program {
    /// Validates and wraps an instruction sequence.
    pub fn new(name: &str, instrs: Vec<Instr>) -> Result<Program, ProgramError> {
        Self::with_code_budget(name, instrs, DEFAULT_MAX_CODE_BYTES)
    }

    /// Like [`Program::new`] with an explicit code-size budget in bytes.
    pub fn with_code_budget(
        name: &str,
        instrs: Vec<Instr>,
        max_code_bytes: usize,
    ) -> Result<Program, ProgramError> {
        if instrs.is_empty() {
            return Err(ProgramError::Empty);
        }
        let bytes = instrs.len() * INSTR_BYTES;
        if bytes > max_code_bytes {
            return Err(ProgramError::TooLarge {
                bytes,
                max: max_code_bytes,
            });
        }
        let len = instrs.len() as u32;
        for (pc, instr) in instrs.iter().enumerate() {
            match *instr {
                Instr::Br { target, .. } | Instr::Jmp { target } if target >= len => {
                    return Err(ProgramError::BadTarget { pc, target });
                }
                _ => {}
            }
        }
        match instrs.last().unwrap() {
            Instr::Halt | Instr::Jmp { .. } => {}
            _ => return Err(ProgramError::FallsOffEnd),
        }
        Ok(Program {
            instrs: instrs.into(),
            name: name.into(),
        })
    }

    /// The program's human-readable name (benchmark name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty (never true for validated programs).
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Code footprint in bytes at the modeled fixed encoding.
    pub fn code_bytes(&self) -> usize {
        self.instrs.len() * INSTR_BYTES
    }

    /// Fetches the instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range; validated programs never jump out of
    /// range, so this indicates a simulator bug.
    #[inline]
    pub fn fetch(&self, pc: u32) -> &Instr {
        &self.instrs[pc as usize]
    }

    /// All instructions.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of static conditional branches.
    pub fn static_branches(&self) -> usize {
        self.instrs.iter().filter(|i| i.is_branch()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AluOp, CmpOp};
    use crate::reg::r;

    fn halt_only() -> Vec<Instr> {
        vec![Instr::Halt]
    }

    #[test]
    fn accepts_minimal_program() {
        let p = Program::new("t", halt_only()).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.name(), "t");
        assert_eq!(p.code_bytes(), INSTR_BYTES);
        assert!(!p.is_empty());
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Program::new("t", vec![]).unwrap_err(), ProgramError::Empty);
    }

    #[test]
    fn rejects_bad_branch_target() {
        let p = vec![
            Instr::Br {
                cmp: CmpOp::Eq,
                a: r(0),
                b: r(0),
                target: 9,
            },
            Instr::Halt,
        ];
        assert_eq!(
            Program::new("t", p).unwrap_err(),
            ProgramError::BadTarget { pc: 0, target: 9 }
        );
    }

    #[test]
    fn rejects_bad_jmp_target() {
        let p = vec![Instr::Jmp { target: 2 }, Instr::Halt];
        assert_eq!(
            Program::new("t", p).unwrap_err(),
            ProgramError::BadTarget { pc: 0, target: 2 }
        );
    }

    #[test]
    fn rejects_fallthrough_end() {
        let p = vec![Instr::Li { dst: r(1), imm: 0 }];
        assert_eq!(Program::new("t", p).unwrap_err(), ProgramError::FallsOffEnd);
    }

    #[test]
    fn accepts_jmp_as_last_instr() {
        let p = vec![Instr::Jmp { target: 0 }];
        assert!(Program::new("t", p).is_ok());
    }

    #[test]
    fn rejects_oversized_code() {
        let n = DEFAULT_MAX_CODE_BYTES / INSTR_BYTES + 1;
        let mut p = vec![Instr::Li { dst: r(1), imm: 0 }; n - 1];
        p.push(Instr::Halt);
        assert!(matches!(
            Program::new("t", p).unwrap_err(),
            ProgramError::TooLarge { .. }
        ));
    }

    #[test]
    fn custom_budget_allows_larger_code() {
        let n = DEFAULT_MAX_CODE_BYTES / INSTR_BYTES + 1;
        let mut p = vec![Instr::Li { dst: r(1), imm: 0 }; n - 1];
        p.push(Instr::Halt);
        assert!(Program::with_code_budget("t", p, 1 << 20).is_ok());
    }

    #[test]
    fn static_branch_count() {
        let p = vec![
            Instr::AluI {
                op: AluOp::Add,
                dst: r(1),
                a: r(1),
                imm: 1,
            },
            Instr::Br {
                cmp: CmpOp::Lt,
                a: r(1),
                b: r(2),
                target: 0,
            },
            Instr::Halt,
        ];
        let p = Program::new("t", p).unwrap();
        assert_eq!(p.static_branches(), 1);
    }

    #[test]
    fn debug_is_compact() {
        let p = Program::new("t", halt_only()).unwrap();
        let s = format!("{p:?}");
        assert!(s.contains("\"t\""));
        assert!(s.contains("len: 1"));
    }

    #[test]
    fn clone_shares_instrs() {
        let p = Program::new("t", halt_only()).unwrap();
        let q = p.clone();
        assert!(std::ptr::eq(p.instrs(), q.instrs()));
    }

    #[test]
    fn error_display() {
        let e = ProgramError::BadTarget { pc: 3, target: 42 };
        assert!(e.to_string().contains("pc 3"));
        assert!(e.to_string().contains("42"));
    }
}
