//! Authoring a custom kernel with the text assembler.
//!
//! The eight paper benchmarks are built programmatically, but the mini-ISA
//! also has a plain-text assembler — this example writes a small
//! "histogram of record deltas" Map kernel by hand, statically verifies it
//! (the check-before-simulate workflow), runs it through the SIMT
//! reconvergence analysis, and executes it functionally on every thread of
//! the paper's launch grid via a thin custom `Workload`.
//!
//! ```text
//! cargo run --release --example custom_kernel
//! ```

use millipede::isa::{disassemble, ReconvergenceMap};
use millipede::mapreduce::ThreadGrid;
use millipede::verify::{verify_source, VerifyConfig};
use millipede::workloads::{Benchmark, Workload};

/// The kernel, in assembler syntax. ABI registers (set at launch):
/// r1 = lane byte offset, r2 = chunks, r3 = records/thread/chunk,
/// r4 = record stride, r5 = row bytes, r6 = chunk stride.
const KERNEL: &str = "
    # per record: load value; bucket the delta against the previous value
    # my thread saw (rising / flat-ish / falling), then remember it.
    li   r9, 0            # previous value
    li   r28, 0           # chunk counter
    li   r29, 0           # chunk base
chunk:
    add  r31, r29, r1     # record address = base + lane offset
    li   r30, 0           # slot counter
slot:
    ld.in r10, 0(r31)
    blt   r9, r10, rising             # data-dependent two-way branch
    ld.local r12, 4(r0)               # falling-or-flat counter
    addi  r12, r12, 1
    st.local r12, 4(r0)
    jmp   next
rising:
    ld.local r12, 0(r0)               # rising counter
    addi  r12, r12, 1
    st.local r12, 0(r0)
next:
    add  r9, r10, r0      # remember the value
    add  r31, r31, r4
    addi r30, r30, 1
    blt  r30, r3, slot
    add  r29, r29, r6
    addi r28, r28, 1
    blt  r28, r2, chunk
    halt
";

fn main() {
    // 1. Assemble and statically verify — a malformed kernel would otherwise
    //    surface cycle-by-cycle at simulation time (or deadlock the pbuf
    //    flow control). The verifier checks it against the 64-byte live
    //    state this example grants each thread.
    let config = VerifyConfig {
        local_bytes: Some(64),
        ..VerifyConfig::default()
    };
    let (program, report) =
        verify_source("delta_histogram", KERNEL, &config).expect("kernel assembles");
    assert!(report.is_clean(), "kernel rejected by verifier:\n{report}");
    println!("verifier: {report}");
    println!(
        "assembled {} instructions ({} B of the 4 KB I-cache budget)",
        program.len(),
        program.code_bytes()
    );
    let reconv = ReconvergenceMap::compute(&program);
    println!(
        "SIMT analysis: {} conditional branch(es) with reconvergence points\n",
        reconv.len()
    );
    print!("{}", disassemble(&program));

    // 2. Graft the kernel onto a thin custom Workload (count's record
    //    shape, 64 bytes of live state) and run every thread of the paper's
    //    grid functionally. Reduce and reference still belong to count, so
    //    read the raw states instead.
    let base = Workload::build(Benchmark::Count, 8, 2048, 5);
    let custom = Workload {
        program,
        live_bytes: 64,
        live_init: Vec::new(),
        ..base
    };
    let grid = ThreadGrid::paper_default();
    let run = custom
        .run_functional(&grid, 10_000_000)
        .unwrap_or_else(|t| panic!("kernel trapped: {t}"));
    let first = run.threads[0].local.words();
    println!(
        "\nthread (0,0) counters: rising={} falling-or-flat={}",
        first[0], first[1]
    );
    let (rising, rest) = run.states().iter().fold((0u64, 0u64), |(r, f), s| {
        (r + u64::from(s[0]), f + u64::from(s[1]))
    });
    println!(
        "all {} threads: {} instructions, {} input words, {:.0}% branches taken",
        run.threads.len(),
        run.stats.instructions,
        run.stats.input_words,
        100.0 * run.stats.taken_rate()
    );
    println!(
        "all {} threads: rising={rising} falling-or-flat={rest} (total {})",
        run.threads.len(),
        rising + rest
    );
    assert_eq!(
        (rising + rest) as usize,
        custom.dataset.num_records(),
        "every record classified exactly once"
    );
}
