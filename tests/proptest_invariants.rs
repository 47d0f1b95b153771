//! Property-based tests over the core data structures' invariants.
//!
//! Originally written against the external `proptest` crate, which the
//! offline build environment cannot fetch; rather than leave the suite
//! permanently feature-gated off, the generators are reimplemented on the
//! tiny in-repo seeded xorshift PRNG of `tests/common`. Every case derives
//! deterministically from a fixed seed, so failures reproduce exactly —
//! re-run the test and the printed case number identifies the failing
//! input.

use millipede::core_arch::pbuf::{ConsumeOutcome, Lookup, RowPrefetchBuffer};
use millipede::dram::{DramGeometry, DramTiming, MemoryController, Request};
use millipede::isa::reg::r;
use millipede::isa::{assemble, disassemble, AluOp, CmpOp, Instr, Program};
use millipede::mapreduce::{InterleavedLayout, ThreadGrid};

mod common;
use common::Rng;

// ---------------------------------------------------------------------
// Interleaved layout: the address map is a bijection.
// ---------------------------------------------------------------------

#[test]
fn layout_addresses_are_unique_and_in_bounds() {
    let mut rng = Rng::new(101);
    for case in 0..64 {
        let fields = rng.usize_in(1, 8);
        let chunks = rng.usize_in(1, 4);
        let row_bytes = 4u64 << rng.range(4, 8);
        let layout = InterleavedLayout::new(fields, row_bytes, chunks);
        let mut seen = std::collections::HashSet::new();
        for rec in 0..layout.num_records() {
            for f in 0..fields {
                let a = layout.addr_of(rec, f);
                assert!(a.is_multiple_of(4), "case {case}: misaligned {a}");
                assert!(a + 4 <= layout.total_bytes(), "case {case}");
                assert!(seen.insert(a), "case {case}: duplicate address {a}");
            }
        }
        assert_eq!(seen.len() as u64, layout.total_bytes() / 4, "case {case}");
    }
}

#[test]
fn same_field_of_chunk_neighbours_shares_a_row() {
    let mut rng = Rng::new(102);
    for case in 0..32 {
        let fields = rng.usize_in(1, 8);
        let chunks = rng.usize_in(1, 4);
        let layout = InterleavedLayout::new(fields, 2048, chunks);
        for chunk in 0..chunks {
            let base = chunk * layout.row_words();
            for f in 0..fields {
                let row = layout.addr_of(base, f) / 2048;
                for rec in base..base + layout.row_words() {
                    assert_eq!(layout.addr_of(rec, f) / 2048, row, "case {case}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Thread grid: both assignment modes partition the records exactly once
// with the same per-thread record counts.
// ---------------------------------------------------------------------

#[test]
fn grids_partition_records() {
    let mut rng = Rng::new(103);
    let mut checked = 0;
    for case in 0..256 {
        let corelets = 1usize << rng.range(2, 7);
        let contexts = 1usize << rng.range(0, 3);
        let fields = rng.usize_in(1, 4);
        let chunks = rng.usize_in(1, 3);
        let layout = InterleavedLayout::new(fields, 2048, chunks);
        if !layout.row_words().is_multiple_of(corelets * contexts) {
            continue; // the grid requires an even split; skip, like prop_assume
        }
        checked += 1;
        for grid in [
            ThreadGrid::slab(corelets, contexts),
            ThreadGrid::coalesced(corelets, contexts),
        ] {
            let mut seen = vec![0u8; layout.num_records()];
            let per_thread = layout.num_records() / grid.num_threads();
            for c in 0..corelets {
                for x in 0..contexts {
                    let recs = grid.records_of_thread(&layout, c, x);
                    assert_eq!(recs.len(), per_thread, "case {case}");
                    for rec in recs {
                        seen[rec] += 1;
                    }
                }
            }
            assert!(seen.iter().all(|&n| n == 1), "case {case}");
        }
    }
    assert!(checked >= 32, "only {checked} cases satisfied the split");
}

// ---------------------------------------------------------------------
// Row prefetch buffer: under arbitrary interleavings of per-group
// consumption, flow control never evicts prematurely, never deadlocks, and
// prefetches every row exactly once.
// ---------------------------------------------------------------------

#[test]
fn flow_control_liveness_and_safety() {
    let mut rng = Rng::new(104);
    for case in 0..64 {
        let capacity = rng.usize_in(2, 6);
        let groups = rng.usize_in(1, 4);
        let words = rng.range(1, 4) as u32;
        let rows = rng.range(1, 20);
        let schedule: Vec<usize> = (0..rng.usize_in(1, 256))
            .map(|_| rng.usize_in(0, 4))
            .collect();
        let mut buf = RowPrefetchBuffer::new(capacity, groups, words, rows, true);
        // Per-group cursor: (row, words consumed of that row).
        let mut cursor = vec![(0u64, 0u32); groups];
        let mut sched = schedule.into_iter().cycle();
        let mut steps = 0u64;
        let budget = 40_000u64;
        while cursor.iter().any(|&(row, _)| row < rows) {
            steps += 1;
            assert!(steps < budget, "case {case}: livelock, cursors {cursor:?}");
            // Fill pending fetches promptly (memory is instant here).
            while let Some((slot, _row)) = buf.pop_fetch() {
                buf.fill_complete(slot);
            }
            // Schedule-biased pick, but — like the processor's per-cycle
            // round-robin — every stalled group eventually yields to one
            // that can progress.
            let busy: Vec<usize> = (0..groups).filter(|&g| cursor[g].0 < rows).collect();
            let offset = sched.next().unwrap();
            let mut progressed = false;
            for k in 0..busy.len() {
                let g = busy[(offset + k) % busy.len()];
                let (row, used) = cursor[g];
                match buf.lookup(row) {
                    Lookup::Ready { slot } => {
                        let out: ConsumeOutcome = buf.consume(slot, g);
                        let _ = out;
                        let used = used + 1;
                        cursor[g] = if used == words {
                            (row + 1, 0)
                        } else {
                            (row, used)
                        };
                        progressed = true;
                        break;
                    }
                    Lookup::Filling | Lookup::Future => {} // stall, try next group
                    Lookup::Evicted => {
                        panic!("case {case}: premature eviction under flow control")
                    }
                }
            }
            if !progressed {
                // No group could consume: fills must be in flight, or the
                // buffer has deadlocked.
                let pending: Vec<_> = std::iter::from_fn(|| buf.pop_fetch()).collect();
                assert!(
                    !pending.is_empty(),
                    "case {case}: deadlock, nothing consumable and nothing \
                     in flight ({cursor:?})"
                );
                for (slot, _row) in pending {
                    buf.fill_complete(slot);
                }
            }
        }
        assert_eq!(buf.stats().prefetches, rows, "case {case}");
        assert_eq!(buf.stats().premature_evictions, 0, "case {case}");
    }
}

// ---------------------------------------------------------------------
// Assembler: builder-generated programs survive a disassemble/assemble
// round trip bit-for-bit.
// ---------------------------------------------------------------------

fn arb_instr(rng: &mut Rng, len: u32) -> Instr {
    match rng.range(0, 6) {
        0 => Instr::Alu {
            op: *rng.pick(&AluOp::ALL),
            dst: r(rng.range(0, 32) as u8),
            a: r(rng.range(0, 32) as u8),
            b: r(rng.range(0, 32) as u8),
        },
        1 => Instr::AluI {
            op: *rng.pick(&AluOp::ALL),
            dst: r(rng.range(0, 32) as u8),
            a: r(rng.range(0, 32) as u8),
            imm: rng.next_u32() as i16 as i32,
        },
        2 => Instr::Li {
            dst: r(rng.range(0, 32) as u8),
            imm: rng.next_u32(),
        },
        3 => Instr::Ld {
            dst: r(rng.range(0, 32) as u8),
            addr: r(rng.range(0, 32) as u8),
            offset: (rng.range(0, 128) as i32 - 64) * 4,
            space: millipede::isa::AddrSpace::Local,
        },
        4 => Instr::St {
            src: r(rng.range(0, 32) as u8),
            addr: r(rng.range(0, 32) as u8),
            offset: (rng.range(0, 128) as i32 - 64) * 4,
        },
        _ => Instr::Br {
            cmp: *rng.pick(&CmpOp::ALL),
            a: r(rng.range(0, 32) as u8),
            b: r(rng.range(0, 32) as u8),
            target: rng.range(0, u64::from(len)) as u32,
        },
    }
}

#[test]
fn disassembly_round_trips() {
    let mut rng = Rng::new(105);
    for case in 0..128 {
        let mut instrs: Vec<Instr> = (0..rng.usize_in(1, 15))
            .map(|_| arb_instr(&mut rng, 16))
            .collect();
        // Clamp branch targets into range and terminate with halt.
        let len = (instrs.len() + 1) as u32;
        for i in &mut instrs {
            if let Instr::Br { target, .. } = i {
                *target %= len;
            }
        }
        instrs.push(Instr::Halt);
        let p = Program::new("prop", instrs).unwrap();
        let text = disassemble(&p);
        let q = assemble("prop", &text).unwrap();
        assert_eq!(p.instrs(), q.instrs(), "case {case}:\n{text}");
    }
}

// ---------------------------------------------------------------------
// FR-FCFS controller: every accepted request completes exactly once, bytes
// are conserved, and hits + misses == requests.
// ---------------------------------------------------------------------

#[test]
fn controller_conserves_requests() {
    let mut rng = Rng::new(106);
    for case in 0..64 {
        let reqs: Vec<(u64, u64)> = (0..rng.usize_in(1, 40))
            .map(|_| (rng.range(0, 64), rng.range(1, 5)))
            .collect();
        let geometry = DramGeometry::default();
        let timing = DramTiming::default();
        let mut mc = MemoryController::new(geometry, timing);
        let mut now = 0u64;
        let mut pending: Vec<Request> = reqs
            .iter()
            .enumerate()
            .map(|(i, &(row, quarters))| Request {
                addr: row * geometry.row_bytes,
                bytes: quarters * 512,
                tag: i as u64,
            })
            .collect();
        pending.reverse();
        let mut done = Vec::new();
        let total = pending.len();
        let mut guard = 0;
        while done.len() < total {
            guard += 1;
            assert!(guard < 1_000_000, "case {case}: controller stalled");
            if let Some(req) = pending.last().copied() {
                if mc.try_push(req, now).is_ok() {
                    pending.pop();
                }
            }
            mc.tick(now);
            now += timing.channel_period_ps;
            done.extend(mc.pop_completed(now));
        }
        let mut tags: Vec<u64> = done.iter().map(|c| c.tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..total as u64).collect::<Vec<_>>(), "case {case}");
        let s = mc.stats();
        assert_eq!(s.requests, total as u64, "case {case}");
        assert_eq!(s.row_hits + s.row_misses, s.requests, "case {case}");
        let bytes: u64 = reqs.iter().map(|&(_, q)| q * 512).sum();
        assert_eq!(s.bytes_transferred, bytes, "case {case}");
    }
}

// ---------------------------------------------------------------------
// Synthetic-graph generator: every generated CSR is well-formed, and the
// graph workloads built from it agree with their host references.
// ---------------------------------------------------------------------

#[test]
fn synthetic_graphs_are_well_formed_csr() {
    use millipede::workloads::graph::SynthGraph;
    let mut rng = Rng::new(108);
    for case in 0..64 {
        let v = rng.usize_in(2, 128);
        let e = rng.usize_in(1, 512);
        let seed = rng.next_u64();
        let g = SynthGraph::generate(v, e, seed);
        let problems = g.check_csr();
        assert!(
            problems.is_empty(),
            "case {case} (v={v} e={e} seed={seed:#x}): {problems:?}"
        );
        assert_eq!(g.num_edges(), e, "case {case}: edge count");
        // The generator is a pure function of its arguments.
        let h = SynthGraph::generate(v, e, seed);
        assert_eq!(g.edges, h.edges, "case {case}: not deterministic");
        // Degrees sum to the edge count (row_ptr is a true prefix sum).
        let total: u64 = (0..v).map(|u| u64::from(g.out_degree(u))).sum();
        assert_eq!(total, g.num_edges() as u64, "case {case}: degree sum");
    }
}

#[test]
fn new_workloads_match_reference_on_random_small_instances() {
    use millipede::sim::{run_one, Arch, SimConfig};
    use millipede::workloads::Benchmark;
    let mut rng = Rng::new(109);
    let benches: Vec<Benchmark> = Benchmark::GRAPH
        .iter()
        .chain(Benchmark::DENSE.iter())
        .copied()
        .collect();
    for case in 0..12 {
        let bench = *rng.pick(&benches);
        let arch = *rng.pick(&[Arch::Gpgpu, Arch::Ssmc, Arch::Millipede, Arch::Multicore]);
        let cfg = SimConfig {
            num_chunks: rng.usize_in(1, 4),
            seed: rng.range(1, 1 << 20),
            ..SimConfig::default()
        };
        // run_one panics if the simulated output diverges from the
        // host-side reference model.
        let r = run_one(arch, bench, &cfg);
        assert!(
            r.node.output_ok,
            "case {case}: {} on {} (chunks={} seed={}) diverged",
            bench.name(),
            arch.label(),
            cfg.num_chunks,
            cfg.seed
        );
    }
}

#[test]
fn sweep_digests_are_stable_under_worker_count() {
    // MILLIPEDE_SWEEP_THREADS only changes which worker runs which point;
    // the per-point results must be bit-identical and order-preserved for
    // any thread count (run_many_with takes the count directly, so this
    // holds regardless of the env var).
    use millipede::sim::{digest_run, run_many_with, Arch, SimConfig};
    use millipede::workloads::Benchmark;
    let pairs = [
        (Arch::Millipede, Benchmark::Pagerank),
        (Arch::Gpgpu, Benchmark::Bfs),
        (Arch::Ssmc, Benchmark::Gemm),
        (Arch::Vws, Benchmark::StreamAdd),
        (Arch::VwsRow, Benchmark::Reduction),
        (Arch::Multicore, Benchmark::Scan),
    ];
    let cfg = SimConfig {
        num_chunks: 2,
        ..SimConfig::default()
    };
    let baseline: Vec<u64> = run_many_with(&pairs, &cfg, 1)
        .iter()
        .map(digest_run)
        .collect();
    for threads in [2, 3, 8] {
        let digests: Vec<u64> = run_many_with(&pairs, &cfg, threads)
            .iter()
            .map(digest_run)
            .collect();
        assert_eq!(digests, baseline, "threads={threads}: sweep digests moved");
    }
}

// ---------------------------------------------------------------------
// ALU semantics: total (never panic) and consistent with Rust reference
// semantics where defined.
// ---------------------------------------------------------------------

#[test]
fn alu_total_and_consistent() {
    use millipede::engine::alu::eval_alu;
    let mut rng = Rng::new(107);
    let edges = [0u32, 1, 2, 0x7fff_ffff, 0x8000_0000, u32::MAX];
    let mut pairs: Vec<(u32, u32)> = edges
        .iter()
        .flat_map(|&a| edges.iter().map(move |&b| (a, b)))
        .collect();
    pairs.extend((0..256).map(|_| (rng.next_u32(), rng.next_u32())));
    for (a, b) in pairs {
        for op in AluOp::ALL {
            let v = eval_alu(op, a, b); // must not panic
            match op {
                AluOp::Add => assert_eq!(v, a.wrapping_add(b)),
                AluOp::Xor => assert_eq!(v, a ^ b),
                AluOp::Slt => assert_eq!(v, u32::from((a as i32) < (b as i32))),
                AluOp::Sltu => assert_eq!(v, u32::from(a < b)),
                _ => {}
            }
        }
        // Branch comparisons are coherent: Lt and Ge partition (ints).
        assert_ne!(CmpOp::Lt.eval(a, b), CmpOp::Ge.eval(a, b));
        assert_ne!(CmpOp::Ltu.eval(a, b), CmpOp::Geu.eval(a, b));
        assert_ne!(CmpOp::Eq.eval(a, b), CmpOp::Ne.eval(a, b));
    }
}
