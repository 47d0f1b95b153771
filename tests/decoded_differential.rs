//! Decoded-vs-reference differential suite.
//!
//! The predecoded micro-op interpreter (`millipede::engine::decoded`) must
//! be observably bit-identical to the reference enum interpreter
//! (`millipede::engine::step`): same `StepEffect` stream, same traps, same
//! final register/local state, and the burst-retire fast path must commit
//! exactly the instructions single-stepping would, the MIMD models'
//! run-ahead must execute exactly the context-local run single-stepping
//! would, and the SIMT warps' lockstep run-ahead must execute exactly what
//! single-stepping every live lane would. This suite enforces that over
//! the assembly fixture corpus, the
//! compiled-in kernels and randomized programs, then drives every timing
//! model end-to-end (the models execute exclusively through the decoded
//! form).

use millipede::engine::step::{effective_access, step};
use millipede::engine::{DecodedProgram, LaunchParams, LocalRun, StepEffect, ThreadCtx};
use millipede::isa::reg::r;
use millipede::isa::{assemble, AddrSpace, AluOp, CmpOp, FAluOp, Instr, Program};
use millipede::mapreduce::ThreadGrid;
use millipede::mem::InputImage;
use millipede::mem::SharedMemoryBanks;
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

/// States of one single-stepped run the run-ahead is checked from.
const RUN_AHEAD_STATES: u64 = 2_000;
/// The run-ahead cap the differential passes.
const RUN_AHEAD_MAX: u32 = 64;

/// The reference for one run-ahead from `ctx`: single-steps the reference
/// interpreter through context-local instructions, stopping before the
/// first input load, barrier, halt or trapping instruction (a trap leaves
/// the context unchanged), or after `max` instructions.
fn reference_local_run(
    ctx: &mut ThreadCtx,
    program: &Program,
    input: &InputImage,
    max: u32,
) -> LocalRun {
    let mut run = LocalRun::default();
    while run.instructions < max {
        let outside = matches!(
            program.instrs()[ctx.pc as usize],
            Instr::Ld {
                space: AddrSpace::Input,
                ..
            } | Instr::Bar
                | Instr::Halt
        );
        if outside {
            break;
        }
        match step(ctx, program, input) {
            Err(_) => break,
            Ok(StepEffect::Branch { .. }) => run.branches += 1,
            Ok(StepEffect::LocalLoad { .. }) => run.local_loads += 1,
            Ok(StepEffect::LocalStore { .. }) => run.local_stores += 1,
            Ok(_) => {}
        }
        run.instructions += 1;
    }
    run
}

/// From every state single-stepping `start` reaches (up to
/// [`RUN_AHEAD_STATES`]), runs a copy ahead with `run_ahead` and another
/// with [`reference_local_run`], and asserts the same counts, pc,
/// registers and local words.
fn run_ahead_differential(program: &Program, start: ThreadCtx, input: &InputImage, label: &str) {
    let decoded = DecodedProgram::of(program);
    let mut state = start;
    for n in 0..RUN_AHEAD_STATES {
        if state.halted {
            return;
        }
        let mut ahead = state.clone();
        let mut reference = state.clone();
        let run = decoded.run_ahead(&mut ahead, RUN_AHEAD_MAX);
        let want = reference_local_run(&mut reference, program, input, RUN_AHEAD_MAX);
        assert_eq!(run, want, "{label}: run-ahead counts diverged at state {n}");
        assert_eq!(
            ahead.pc, reference.pc,
            "{label}: run-ahead stopped elsewhere at state {n}"
        );
        assert_eq!(
            ahead.regs, reference.regs,
            "{label}: run-ahead registers at state {n}"
        );
        assert_eq!(
            ahead.local.words(),
            reference.local.words(),
            "{label}: run-ahead local state at state {n}"
        );
        if step(&mut state, program, input).is_err() {
            return;
        }
    }
}

/// Lockstep states of one warp walk the warp run-ahead is checked from.
const WARP_STATES: u64 = 300;
/// The warp widths the differential runs: VWS's and the GPGPU's.
const WARP_WIDTHS: [usize; 2] = [4, 32];

/// A warp of `width` plain contexts whose launch registers differ by lane
/// (`r1` = lane, `r2` = 4 × lane, `r3` = lane mod 2), so data-dependent
/// branches and addresses split the lanes some of the time.
fn plain_warp(width: usize) -> Vec<ThreadCtx> {
    (0..width as u32)
        .map(|i| {
            let params = LaunchParams::new()
                .set(r(1), i)
                .set(r(2), 4 * i)
                .set(r(3), i % 2);
            ThreadCtx::new(LOCAL_BYTES, &params)
        })
        .collect()
}

/// The bank model the differential's `accept` predicate consults: a local
/// access is taken iff it would not serialize over eight banks.
fn conflict_free(addrs: &[u64]) -> bool {
    SharedMemoryBanks::new(8).passes_of(addrs) == 1
}

/// The reference for one warp run-ahead from `lanes` (live lanes `live`):
/// single-steps every live lane with the reference interpreter, one
/// instruction at a time, stopping before the first input load, barrier or
/// halt, the PC `reconv`, a branch the lanes disagree on, a local access
/// any lane traps on or [`conflict_free`] refuses, or after `max`
/// instructions. Returns the run and how many accesses it accepted.
fn reference_warp_run(
    lanes: &mut [ThreadCtx],
    live: &[usize],
    reconv: Option<u32>,
    program: &Program,
    input: &InputImage,
    max: u32,
) -> (LocalRun, u32) {
    let mut run = LocalRun::default();
    let mut accepted = 0;
    while run.instructions < max {
        let pc = lanes[live[0]].pc;
        if reconv == Some(pc) {
            break;
        }
        let instr = program.instrs()[pc as usize];
        match instr {
            Instr::Ld {
                space: AddrSpace::Input,
                ..
            }
            | Instr::Bar
            | Instr::Halt => break,
            Instr::Br { .. } | Instr::Ld { .. } | Instr::St { .. } => {
                // What each lane would do, tried on a copy. A branch
                // splits the warp when the lanes disagree on taking it,
                // even when both ways lead to the same PC.
                let effects: Vec<Option<StepEffect>> = live
                    .iter()
                    .map(|&i| step(&mut lanes[i].clone(), program, input).ok())
                    .collect();
                if effects.iter().any(Option::is_none) {
                    break;
                }
                if matches!(instr, Instr::Br { .. }) {
                    if effects.iter().any(|e| *e != effects[0]) {
                        break;
                    }
                } else {
                    let addrs: Vec<u64> = live
                        .iter()
                        .map(|&i| effective_access(&lanes[i], program).unwrap().addr)
                        .collect();
                    if !conflict_free(&addrs) {
                        break;
                    }
                    accepted += 1;
                }
            }
            _ => {}
        }
        let effect = live
            .iter()
            .map(|&i| step(&mut lanes[i], program, input).unwrap())
            .last()
            .unwrap();
        match effect {
            StepEffect::Branch { .. } => run.branches += 1,
            StepEffect::LocalLoad { .. } => run.local_loads += 1,
            StepEffect::LocalStore { .. } => run.local_stores += 1,
            _ => {}
        }
        run.instructions += 1;
    }
    (run, accepted)
}

/// Walks the warp `start` through `program` in lockstep (after a split it
/// follows the lanes that went with its first live lane) and, from every
/// state of the walk (up to [`WARP_STATES`]), runs a copy ahead with
/// `warp_run_ahead` and another with [`reference_warp_run`], asserting the
/// same counts, accepted accesses, and every lane's pc, registers and
/// local words. The reconvergence PC varies from state to state, so the
/// reconvergence stop is exercised too.
fn warp_run_ahead_differential(
    program: &Program,
    start: Vec<ThreadCtx>,
    input: &InputImage,
    label: &str,
) {
    let decoded = DecodedProgram::of(program);
    let len = program.len() as u64;
    let mut state = start;
    let mut live: Vec<usize> = (0..state.len()).collect();
    for n in 0..WARP_STATES {
        let pc = state[live[0]].pc;
        let reconv = (n % 3 != 0).then(|| ((u64::from(pc) + n) % len) as u32);
        let mask = live.iter().fold(0u64, |m, &i| m | 1 << i);
        let mut ahead = state.clone();
        let mut reference = state.clone();
        let mut accepted = 0;
        let run = decoded.warp_run_ahead(&mut ahead, mask, reconv, RUN_AHEAD_MAX, |idx, addrs| {
            assert_eq!(idx, &live[..], "{label}: accept got other lanes");
            let ok = conflict_free(addrs);
            accepted += u32::from(ok);
            ok
        });
        let (want, want_accepted) =
            reference_warp_run(&mut reference, &live, reconv, program, input, RUN_AHEAD_MAX);
        let at = format!("{label}: {} lanes, state {n}", live.len());
        assert_eq!(run, want, "{at}: warp run-ahead counts diverged");
        assert_eq!(accepted, want_accepted, "{at}: accepted accesses");
        assert_eq!(accepted, run.local_loads + run.local_stores, "{at}");
        for (i, (a, b)) in ahead.iter().zip(&reference).enumerate() {
            assert_eq!(a.pc, b.pc, "{at}: lane {i} stopped elsewhere");
            assert_eq!(a.regs, b.regs, "{at}: lane {i} registers");
            assert_eq!(a.local.words(), b.local.words(), "{at}: lane {i} local");
        }
        // One lockstep step; a split keeps the first live lane's side.
        for &i in &live {
            if step(&mut state[i], program, input).is_err() {
                return;
            }
        }
        live.retain(|&i| !state[i].halted);
        let Some(&lead) = live.first() else {
            return;
        };
        let lead_pc = state[lead].pc;
        live.retain(|&i| state[i].pc == lead_pc);
    }
}

#[test]
fn run_ahead_stops_exactly_at_the_cap_on_a_local_loop() {
    let program = assemble("spin", "l: jmp l\n").unwrap();
    let decoded = DecodedProgram::of(&program);
    let mut ctx = fresh_ctx();
    let run = decoded.run_ahead(&mut ctx, 1_000);
    assert_eq!(run.instructions, 1_000);
    assert_eq!(ctx.pc, 0);
}

#[test]
fn warp_run_ahead_stops_exactly_at_the_cap_on_a_local_loop() {
    let program = assemble("spin", "l: jmp l\n").unwrap();
    let decoded = DecodedProgram::of(&program);
    let mut warp = plain_warp(4);
    let run = decoded.warp_run_ahead(&mut warp, 0b1111, None, 1_000, |_, _| true);
    assert_eq!(run.instructions, 1_000);
    assert!(warp.iter().all(|c| c.pc == 0));
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
        run_ahead_differential(&program, fresh_ctx(), &input, &name);
        for width in WARP_WIDTHS {
            warp_run_ahead_differential(&program, plain_warp(width), &input, &name);
        }
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
        // The run-ahead also from a real launch over the real dataset,
        // through the kernel's input loads and barriers.
        run_ahead_differential(&w.program, fresh_ctx(), &input, &name);
        let grid = ThreadGrid::slab(32, 4);
        let launched = w.make_ctx(&grid, 1, 2);
        run_ahead_differential(&w.program, launched, &w.dataset.image, &name);
        // Warps: plain lanes, and real launches on the SIMT grid.
        let grid = ThreadGrid::coalesced(32, 4);
        for width in WARP_WIDTHS {
            warp_run_ahead_differential(&w.program, plain_warp(width), &input, &name);
            let warp = (0..width).map(|lane| w.make_ctx(&grid, lane, 1)).collect();
            warp_run_ahead_differential(&w.program, warp, &w.dataset.image, &name);
        }
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
        run_ahead_differential(&program, fresh_ctx(), &input, &label);
        for width in WARP_WIDTHS {
            warp_run_ahead_differential(&program, plain_warp(width), &input, &label);
        }
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
