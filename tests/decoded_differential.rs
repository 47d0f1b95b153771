//! Decoded-vs-reference differential suite.
//!
//! The predecoded micro-op interpreter (`millipede::engine::decoded`) must
//! be observably bit-identical to the reference enum interpreter
//! (`millipede::engine::step`): same `StepEffect` stream, same traps, same
//! final register/local state, and the burst-retire fast path must commit
//! exactly the instructions single-stepping would. This suite enforces that
//! over the assembly fixture corpus and over randomized programs, then
//! drives every timing model end-to-end (the models execute exclusively
//! through the decoded form).

use millipede::engine::step::{effective_access, step};
use millipede::engine::{DecodedProgram, LaunchParams, ThreadCtx};
use millipede::isa::reg::r;
use millipede::isa::{assemble, AluOp, CmpOp, FAluOp, Instr, Program};
use millipede::mem::InputImage;
use millipede::sim::{Arch, SimConfig};
use millipede::workloads::{Benchmark, Workload};

/// xorshift64* (same idiom as `tests/proptest_invariants.rs`): seeded,
/// deterministic, good enough to explore the program space.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi);
        lo + self.next_u64() % (hi - lo)
    }

    fn reg(&mut self) -> millipede::isa::Reg {
        r(self.range(0, 16) as u8)
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.range(0, xs.len() as u64) as usize]
    }
}

const LOCAL_BYTES: usize = 256;
const STEP_CAP: u64 = 20_000;

fn fresh_ctx() -> ThreadCtx {
    ThreadCtx::new(LOCAL_BYTES, &LaunchParams::new())
}

fn test_image() -> InputImage {
    InputImage::new((0..64u32).map(|i| i.wrapping_mul(0x01f3_5a7d)).collect())
}

/// Locks a reference-interpreter context and a decoded-interpreter context
/// together one instruction at a time, asserting identical access previews,
/// effects/traps, and architectural state at every step. Returns the number
/// of steps executed (capped).
fn run_lockstep(program: &Program, input: &InputImage, label: &str) -> u64 {
    let decoded = DecodedProgram::of(program);
    let mut a = fresh_ctx();
    let mut b = fresh_ctx();
    for n in 0..STEP_CAP {
        assert_eq!(
            effective_access(&a, program),
            decoded.peek_access(&b),
            "{label}: access preview diverged at step {n} (pc {})",
            a.pc
        );
        let ra = step(&mut a, program, input);
        let rb = decoded.commit(&mut b, input);
        assert_eq!(ra, rb, "{label}: effect diverged at step {n}");
        assert_eq!(a.pc, b.pc, "{label}: pc diverged at step {n}");
        assert_eq!(a.regs, b.regs, "{label}: registers diverged at step {n}");
        assert_eq!(
            a.halted, b.halted,
            "{label}: halt state diverged at step {n}"
        );
        assert_eq!(
            a.local.words(),
            b.local.words(),
            "{label}: local state diverged at step {n}"
        );
        if ra.is_err() || a.halted {
            return n + 1;
        }
    }
    STEP_CAP
}

/// Runs `program` to halt/trap/cap with the reference interpreter, then
/// again with the decoded interpreter using burst retire for every pure-ALU
/// run, and asserts the outcomes, instruction counts, and final state are
/// identical.
fn run_burst_differential(program: &Program, input: &InputImage, label: &str) {
    let decoded = DecodedProgram::of(program);

    let mut a = fresh_ctx();
    let mut ref_trap = None;
    let mut ref_insts: u64 = 0;
    while !a.halted && ref_insts < STEP_CAP {
        match step(&mut a, program, input) {
            Ok(_) => ref_insts += 1,
            Err(t) => {
                ref_trap = Some(t);
                break;
            }
        }
    }

    let mut b = fresh_ctx();
    let mut burst_trap = None;
    let mut burst_insts: u64 = 0;
    while !b.halted && burst_insts < STEP_CAP {
        if decoded.run_len(b.pc) > 0 {
            let budget = (STEP_CAP - burst_insts).min(u64::from(u32::MAX)) as u32;
            burst_insts += u64::from(decoded.burst_retire(&mut b, budget));
            continue;
        }
        match decoded.commit(&mut b, input) {
            Ok(_) => burst_insts += 1,
            Err(t) => {
                burst_trap = Some(t);
                break;
            }
        }
    }

    assert_eq!(ref_trap, burst_trap, "{label}: trap outcome diverged");
    assert_eq!(
        ref_insts, burst_insts,
        "{label}: instruction count diverged"
    );
    assert_eq!(a.pc, b.pc, "{label}: final pc diverged");
    assert_eq!(a.regs, b.regs, "{label}: final registers diverged");
    assert_eq!(a.halted, b.halted, "{label}: final halt state diverged");
    assert_eq!(
        a.local.words(),
        b.local.words(),
        "{label}: final local state diverged"
    );
}

// ---------------------------------------------------------------------
// Fixture corpus: every .asm under tests/fixtures, including the seeded-bug
// programs (their traps and livelocks must reproduce identically).
// ---------------------------------------------------------------------

#[test]
fn fixtures_execute_identically() {
    let input = test_image();
    let mut checked = 0;
    for entry in std::fs::read_dir("tests/fixtures").unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("asm") {
            continue;
        }
        let name = path.file_stem().unwrap().to_str().unwrap().to_owned();
        let src = std::fs::read_to_string(&path).unwrap();
        let program = assemble(&name, &src)
            .unwrap_or_else(|e| panic!("fixture {name} failed to assemble: {e}"));
        run_lockstep(&program, &input, &name);
        run_burst_differential(&program, &input, &name);
        checked += 1;
    }
    assert!(
        checked >= 12,
        "only {checked} fixtures found — corpus moved?"
    );
}

// ---------------------------------------------------------------------
// Compiled-in kernels (the eight BMLAs plus the graph and dense
// families): the real workloads the timing models run.
// ---------------------------------------------------------------------

#[test]
fn benchmark_kernels_execute_identically() {
    let input = test_image();
    for bench in Benchmark::ALL {
        let w = Workload::build(bench, 2, 2048, 7);
        let name = format!("kernel-{}", w.program.name());
        // The kernels index input via launch registers the plain context
        // lacks, so traps are expected — they must still match exactly.
        run_lockstep(&w.program, &input, &name);
        run_burst_differential(&w.program, &input, &name);
    }
}

// ---------------------------------------------------------------------
// Randomized programs: arbitrary instruction mixes, branch shapes, and
// trap-inducing addresses.
// ---------------------------------------------------------------------

fn arb_instr(rng: &mut Rng, len: u32) -> Instr {
    match rng.range(0, 12) {
        0 | 1 => Instr::Alu {
            op: *rng.pick(&AluOp::ALL),
            dst: rng.reg(),
            a: rng.reg(),
            b: rng.reg(),
        },
        2 | 3 => Instr::AluI {
            op: *rng.pick(&AluOp::ALL),
            dst: rng.reg(),
            a: rng.reg(),
            imm: rng.next_u32() as i16 as i32,
        },
        4 => Instr::FAlu {
            op: *rng.pick(&FAluOp::ALL),
            dst: rng.reg(),
            a: rng.reg(),
            b: rng.reg(),
        },
        5 => Instr::Li {
            dst: rng.reg(),
            // Small values keep most (not all) memory addresses in bounds.
            imm: rng.range(0, 64) as u32 * 4,
        },
        6 => Instr::I2F {
            dst: rng.reg(),
            a: rng.reg(),
        },
        7 => Instr::F2I {
            dst: rng.reg(),
            a: rng.reg(),
        },
        8 => Instr::Ld {
            dst: rng.reg(),
            addr: rng.reg(),
            offset: (rng.range(0, 64) as i32 - 16) * 4,
            space: if rng.range(0, 2) == 0 {
                millipede::isa::AddrSpace::Input
            } else {
                millipede::isa::AddrSpace::Local
            },
        },
        9 => Instr::St {
            src: rng.reg(),
            addr: rng.reg(),
            offset: (rng.range(0, 64) as i32 - 16) * 4,
        },
        10 => Instr::Br {
            cmp: *rng.pick(&CmpOp::ALL),
            a: rng.reg(),
            b: rng.reg(),
            target: rng.range(0, u64::from(len)) as u32,
        },
        _ => Instr::Jmp {
            target: rng.range(0, u64::from(len)) as u32,
        },
    }
}

#[test]
fn randomized_programs_execute_identically() {
    let input = test_image();
    let mut rng = Rng::new(0xdeca_fbad);
    for case in 0..200 {
        let body_len = rng.range(1, 48) as usize;
        let len = (body_len + 1) as u32;
        let mut instrs: Vec<Instr> = (0..body_len).map(|_| arb_instr(&mut rng, len)).collect();
        instrs.push(Instr::Halt);
        let program = Program::new("rand", instrs).unwrap();
        let label = format!("random case {case}");
        run_lockstep(&program, &input, &label);
        run_burst_differential(&program, &input, &label);
    }
}

// ---------------------------------------------------------------------
// End-to-end: every timing model executes through the decoded interpreter;
// each must still produce the reference answer.
// ---------------------------------------------------------------------

#[test]
fn all_models_validate_on_decoded_execution() {
    let cfg = SimConfig {
        num_chunks: 2,
        ..SimConfig::default()
    };
    // One irregular BMLA trio plus representatives of both new workload
    // families: graph (indexed accumulation, frontier divergence) and
    // dense (finalize tile loops, min/max reduction).
    for bench in [
        Benchmark::Count,
        Benchmark::Variance,
        Benchmark::Gda,
        Benchmark::Pagerank,
        Benchmark::Bfs,
        Benchmark::Gemm,
        Benchmark::Reduction,
    ] {
        let w = Workload::build(bench, cfg.num_chunks, cfg.row_bytes, cfg.seed);
        for arch in [
            Arch::Gpgpu,
            Arch::Vws,
            Arch::Ssmc,
            Arch::MillipedeNoFlowControl,
            Arch::VwsRow,
            Arch::MillipedeNoRateMatch,
            Arch::Millipede,
            Arch::Multicore,
        ] {
            let a = arch.run(&w, &cfg);
            assert!(
                a.output_ok,
                "{} produced a wrong answer on {bench:?}",
                arch.label()
            );
            // Determinism under the decoded interpreter: a rerun is
            // bit-identical.
            let b = arch.run(&w, &cfg);
            assert_eq!(a.elapsed_ps, b.elapsed_ps, "{}", arch.label());
            assert_eq!(a.stats, b.stats, "{}", arch.label());
            assert_eq!(a.output, b.output, "{}", arch.label());
        }
    }
}
