//! Decoded-vs-reference differential suite.
//!
//! The predecoded micro-op interpreter (`millipede::engine::decoded`) must
//! be observably bit-identical to the reference enum interpreter
//! (`millipede::engine::step`): same access previews, same `StepEffect`
//! stream, same traps, same final register/local state. Its one run-ahead
//! must execute exactly what single-stepping every live lane would, for a
//! MIMD context (the one-lane warp) and for the SIMT warps alike. This
//! suite enforces that over the assembly fixture corpus, the compiled-in
//! kernels and randomized programs, then drives every timing model
//! end-to-end (the models execute exclusively through the decoded form).

use millipede::engine::step::{effective_access, step};
use millipede::engine::{
    AccessClass, DecodedProgram, EffectiveAccess, LaunchParams, LocalRun, StepEffect, ThreadCtx,
};
use millipede::isa::reg::r;
use millipede::isa::{assemble, AddrSpace, AluOp, CmpOp, FAluOp, Instr, Program};
use millipede::mapreduce::ThreadGrid;
use millipede::mem::InputImage;
use millipede::mem::SharedMemoryBanks;
use millipede::sim::{Arch, SimConfig};
use millipede::workloads::{Benchmark, Workload};

mod common;
use common::Rng;

/// A random register among the first 16.
fn reg(rng: &mut Rng) -> millipede::isa::Reg {
    r(rng.range(0, 16) as u8)
}

const LOCAL_BYTES: usize = 256;
const STEP_CAP: u64 = 20_000;

fn fresh_ctx() -> ThreadCtx {
    ThreadCtx::new(LOCAL_BYTES, &LaunchParams::new())
}

fn test_image() -> InputImage {
    InputImage::new((0..64u32).map(|i| i.wrapping_mul(0x01f3_5a7d)).collect())
}

/// The access preview [`effective_access`] gives, read from the class
/// table and `mem_addr_at` the way the timing models read it.
fn decoded_access(decoded: &DecodedProgram, ctx: &ThreadCtx) -> Option<EffectiveAccess> {
    let (space, write) = match decoded.access_class(ctx.pc) {
        AccessClass::InputLoad => (AddrSpace::Input, false),
        AccessClass::LocalLoad => (AddrSpace::Local, false),
        AccessClass::LocalStore => (AddrSpace::Local, true),
        _ => return None,
    };
    let addr = decoded.mem_addr_at(ctx);
    Some(EffectiveAccess { space, addr, write })
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
            decoded_access(&decoded, &b),
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

/// The run-ahead cap the differential passes.
const RUN_AHEAD_MAX: u32 = 64;

/// The warp widths the differential runs, each with how many lockstep
/// states of its walk the run-ahead is checked from: a MIMD context (the
/// one-lane warp, walked longer because it is cheap), VWS's and the
/// GPGPU's.
const WARP_WIDTHS: [(usize, u64); 3] = [(1, 2_000), (4, 300), (32, 300)];

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
/// state of the walk (up to `states`), runs a copy ahead with `run_ahead`
/// and another with [`reference_warp_run`], asserting the
/// same counts, accepted accesses, and every lane's pc, registers and
/// local words. The reconvergence PC varies from state to state, so the
/// reconvergence stop is exercised too.
fn run_ahead_differential(
    program: &Program,
    start: Vec<ThreadCtx>,
    states: u64,
    input: &InputImage,
    label: &str,
) {
    let decoded = DecodedProgram::of(program);
    let len = program.len() as u64;
    let mut state = start;
    let mut live: Vec<usize> = (0..state.len()).collect();
    for n in 0..states {
        let pc = state[live[0]].pc;
        let reconv = (n % 3 != 0).then(|| ((u64::from(pc) + n) % len) as u32);
        let mask = live.iter().fold(0u64, |m, &i| m | 1 << i);
        let mut ahead = state.clone();
        let mut reference = state.clone();
        let mut accepted = 0;
        let run = decoded.run_ahead(&mut ahead, mask, reconv, RUN_AHEAD_MAX, |idx, addrs| {
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

/// Runs a `width`-lane warp ahead on a one-instruction local loop and
/// asserts it stops after exactly the cap, every lane back at the loop.
fn assert_stops_at_the_cap(width: usize) {
    let program = assemble("spin", "l: jmp l\n").unwrap();
    let decoded = DecodedProgram::of(&program);
    let mut warp = plain_warp(width);
    let live = u64::MAX >> (64 - width);
    let run = decoded.run_ahead(&mut warp, live, None, 1_000, |_, _| true);
    assert_eq!(run.instructions, 1_000, "{width} lanes");
    assert!(warp.iter().all(|c| c.pc == 0), "{width} lanes");
}

#[test]
fn run_ahead_stops_exactly_at_the_cap_on_a_local_loop() {
    // A MIMD context: the one-lane warp.
    assert_stops_at_the_cap(1);
}

#[test]
fn warp_run_ahead_stops_exactly_at_the_cap_on_a_local_loop() {
    // The SIMT warps: VWS's and the GPGPU's.
    for (width, _) in &WARP_WIDTHS[1..] {
        assert_stops_at_the_cap(*width);
    }
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
        for (width, states) in WARP_WIDTHS {
            run_ahead_differential(&program, plain_warp(width), states, &input, &name);
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
        // Every width from plain lanes, and from real launches over the
        // real dataset, through the kernel's input loads and barriers: a
        // MIMD context on the slab grid, warps on the SIMT grid.
        for (width, states) in WARP_WIDTHS {
            run_ahead_differential(&w.program, plain_warp(width), states, &input, &name);
            let warp = if width == 1 {
                vec![w.make_ctx(&ThreadGrid::slab(32, 4), 1, 2)]
            } else {
                let grid = ThreadGrid::coalesced(32, 4);
                (0..width).map(|lane| w.make_ctx(&grid, lane, 1)).collect()
            };
            run_ahead_differential(&w.program, warp, states, &w.dataset.image, &name);
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
            dst: reg(rng),
            a: reg(rng),
            b: reg(rng),
        },
        2 | 3 => Instr::AluI {
            op: *rng.pick(&AluOp::ALL),
            dst: reg(rng),
            a: reg(rng),
            imm: rng.next_u32() as i16 as i32,
        },
        4 => Instr::FAlu {
            op: *rng.pick(&FAluOp::ALL),
            dst: reg(rng),
            a: reg(rng),
            b: reg(rng),
        },
        5 => Instr::Li {
            dst: reg(rng),
            // Small values keep most (not all) memory addresses in bounds.
            imm: rng.range(0, 64) as u32 * 4,
        },
        6 => Instr::I2F {
            dst: reg(rng),
            a: reg(rng),
        },
        7 => Instr::F2I {
            dst: reg(rng),
            a: reg(rng),
        },
        8 => Instr::Ld {
            dst: reg(rng),
            addr: reg(rng),
            offset: (rng.range(0, 64) as i32 - 16) * 4,
            space: if rng.range(0, 2) == 0 {
                millipede::isa::AddrSpace::Input
            } else {
                millipede::isa::AddrSpace::Local
            },
        },
        9 => Instr::St {
            src: reg(rng),
            addr: reg(rng),
            offset: (rng.range(0, 64) as i32 - 16) * 4,
        },
        10 => Instr::Br {
            cmp: *rng.pick(&CmpOp::ALL),
            a: reg(rng),
            b: reg(rng),
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
        for (width, states) in WARP_WIDTHS {
            run_ahead_differential(&program, plain_warp(width), states, &input, &label);
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
