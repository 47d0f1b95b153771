//! Hardware thread contexts.

use millipede_isa::reg::{Reg, NUM_REGS};
use millipede_mem::LocalMem;

/// Values pre-loaded into registers at kernel launch.
///
/// The launch ABI is a plain register-value list; the common convention used
/// by the workload crate is:
///
/// * `r1` — global thread id,
/// * `r2` — total thread count,
/// * `r3` — number of input records,
/// * `r4`+ — kernel-specific parameters (dimensionality, thresholds, …).
#[derive(Debug, Clone, Default)]
pub struct LaunchParams {
    values: Vec<(Reg, u32)>,
}

impl LaunchParams {
    /// An empty parameter set.
    pub fn new() -> LaunchParams {
        LaunchParams::default()
    }

    /// Adds a register initialization (builder style).
    pub fn set(mut self, reg: Reg, value: u32) -> LaunchParams {
        self.values.push((reg, value));
        self
    }

    /// The register/value pairs.
    pub fn values(&self) -> &[(Reg, u32)] {
        &self.values
    }
}

/// One hardware thread context: PC, registers, and its local live state.
///
/// Every architecture simulates the same contexts; only the scheduling
/// differs (4-way round-robin per corelet in Millipede/SSMC, warp-wide
/// lockstep in the GPGPU).
#[derive(Debug, Clone)]
pub struct ThreadCtx {
    /// Program counter (instruction index).
    pub pc: u32,
    /// Architectural registers; `regs[0]` stays 0 by convention (enforced on
    /// write in the stepper).
    pub regs: [u32; NUM_REGS],
    /// Whether the thread has executed `halt`.
    pub halted: bool,
    /// The thread's local live state.
    pub local: LocalMem,
}

impl ThreadCtx {
    /// Creates a context with `local_bytes` of zeroed live state and applies
    /// the launch parameters.
    pub fn new(local_bytes: usize, params: &LaunchParams) -> ThreadCtx {
        let mut ctx = ThreadCtx {
            pc: 0,
            regs: [0; NUM_REGS],
            halted: false,
            local: LocalMem::new(local_bytes),
        };
        for &(reg, value) in params.values() {
            ctx.write_reg(reg, value);
        }
        ctx
    }

    /// Reads a register (the zero register reads 0).
    #[inline]
    pub fn read_reg(&self, reg: Reg) -> u32 {
        self.regs[reg.index()]
    }

    /// Writes a register; writes to the zero register are discarded.
    #[inline]
    pub fn write_reg(&mut self, reg: Reg, value: u32) {
        if !reg.is_zero() {
            self.regs[reg.index()] = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use millipede_isa::reg::r;

    #[test]
    fn launch_params_apply() {
        let params = LaunchParams::new().set(r(1), 7);
        let ctx = ThreadCtx::new(64, &params);
        assert_eq!(ctx.read_reg(r(1)), 7);
        assert_eq!(ctx.pc, 0);
        assert!(!ctx.halted);
    }

    #[test]
    fn zero_register_is_hardwired() {
        let mut ctx = ThreadCtx::new(0, &LaunchParams::new());
        ctx.write_reg(r(0), 99);
        assert_eq!(ctx.read_reg(r(0)), 0);
        // Even launch params cannot set r0.
        let ctx = ThreadCtx::new(0, &LaunchParams::new().set(r(0), 5));
        assert_eq!(ctx.read_reg(r(0)), 0);
    }

    #[test]
    fn local_memory_is_sized() {
        let ctx = ThreadCtx::new(1024, &LaunchParams::new());
        assert_eq!(ctx.local.len_bytes(), 1024);
    }
}
