//! Command-line front end: simulate any benchmark on any architecture, or
//! statically verify kernel programs before they reach a simulator.
//!
//! ```text
//! millipede-cli <benchmark> <architecture> [--chunks N] [--seed S]
//!               [--corelets N] [--pbuf N] [--csv]
//! millipede-cli verify <kernel.asm>... [--json] [--strict] [--annotate]
//!               [--local-bytes N] [--input-bytes N]
//! millipede-cli verify --kernels [--json] [--strict] [--annotate]
//! millipede-cli disasm (<kernel.asm>... | --kernels)
//! millipede-cli run <kernel.asm>... [--input-words N] [--local-bytes N]
//!               [--step-limit N]
//! millipede-cli run --kernels [--chunks N] [--seed S]
//! millipede-cli list
//! ```
//!
//! Examples:
//!
//! ```text
//! millipede-cli nbayes millipede --chunks 64
//! millipede-cli kmeans ssmc --csv
//! millipede-cli verify my_kernel.asm --json
//! millipede-cli verify --kernels --annotate
//! millipede-cli disasm my_kernel.asm
//! millipede-cli disasm --kernels
//! millipede-cli run my_kernel.asm --input-words 128
//! ```
//!
//! `verify` exits 0 when every program is clean, 1 when any diagnostic
//! survives, and 2 on usage or I/O errors. `.asm` sources may carry
//! `# verify-config: local-bytes=N input-bytes=N strict` directives and
//! per-instruction `# verify:allow(MVxxx): reason` suppressions.
//! `disasm` round-trips a program through the assembler and prints the
//! canonical labeled listing. `run` executes a standalone `.asm` file
//! on the functional engine (one thread, zero-filled input image) and
//! prints its dynamic statistics; it exits 0 on a clean halt, 1 when any
//! program traps (trap kind on stderr), and 2 on usage or I/O errors.
//!
//! The `--kernels` form of `verify`, `disasm`, and `run` enumerates every
//! compiled-in benchmark from `Benchmark::ALL` — there is no hand-kept
//! kernel list anywhere in the pipeline, so new benchmarks flow through
//! automatically. `run --kernels` executes each kernel functionally over
//! its real dataset and launch grid and validates the reduced output
//! against the benchmark's golden reference.

use millipede::engine::{run_functional, LaunchParams, ThreadCtx};
use millipede::isa::{assemble, disassemble};
use millipede::mapreduce::ThreadGrid;
use millipede::mem::InputImage;
use millipede::metrics::json::Json;
use millipede::metrics::SelfProfile;
use millipede::sim::manifest::{self, ManifestRun};
use millipede::sim::{run_one, Arch, SimConfig};
use millipede::verify::{
    annotate, annotate_source, reports_to_json, verify_program, verify_source, VerifyConfig,
    VerifyReport,
};
use millipede::workloads::{kernel_benchmarks, kernel_workload, Benchmark, Workload};

const ARCHS: [(&str, Arch); 8] = [
    ("gpgpu", Arch::Gpgpu),
    ("vws", Arch::Vws),
    ("ssmc", Arch::Ssmc),
    ("millipede", Arch::Millipede),
    ("millipede-no-flow-control", Arch::MillipedeNoFlowControl),
    ("millipede-no-rate-match", Arch::MillipedeNoRateMatch),
    ("vws-row", Arch::VwsRow),
    ("multicore", Arch::Multicore),
];

fn usage() -> ! {
    eprintln!(
        "usage: millipede-cli <benchmark> <architecture> [--chunks N] [--seed S] \
         [--corelets N] [--pbuf N] [--csv] [--manifest-out PATH]\n       \
         millipede-cli verify (<kernel.asm>... | --kernels) [--json] [--strict] \
         [--annotate] [--local-bytes N] [--input-bytes N]\n       \
         millipede-cli disasm (<kernel.asm>... | --kernels)\n       \
         millipede-cli run <kernel.asm>... [--input-words N] [--local-bytes N] \
         [--step-limit N]\n       \
         millipede-cli run --kernels [--chunks N] [--seed S]\n       \
         millipede-cli report <manifest.json>...\n       \
         millipede-cli report --diff <a.json> <b.json>\n       \
         millipede-cli list"
    );
    std::process::exit(2);
}

/// The `report` subcommand: render run manifests or diff two of them.
/// Returns the process exit code.
fn report_cmd(args: &[String]) -> i32 {
    let mut files: Vec<String> = Vec::new();
    let mut do_diff = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--diff" => do_diff = true,
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}`");
                usage();
            }
            file => files.push(file.to_string()),
        }
        i += 1;
    }
    let read = |path: &str| -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        })
    };
    let load_manifest = |path: &str| -> Json {
        manifest::parse(&read(path)).unwrap_or_else(|e| {
            eprintln!("{path}: invalid manifest: {e}");
            std::process::exit(2);
        })
    };
    if do_diff {
        if files.len() != 2 {
            usage();
        }
        let d = manifest::diff(&load_manifest(&files[0]), &load_manifest(&files[1]));
        if d.is_empty() {
            println!("manifests agree on every numeric observable");
        } else {
            print!("{d}");
        }
        return 0;
    }
    if files.is_empty() {
        usage();
    }
    for file in &files {
        print!("{}", manifest::render_text(&load_manifest(file)));
    }
    0
}

/// The `verify` subcommand: static analysis over `.asm` files or every
/// compiled-in kernel. Returns the process exit code.
fn verify_cmd(args: &[String]) -> i32 {
    let mut base = VerifyConfig::default();
    let mut files: Vec<String> = Vec::new();
    let mut kernels = false;
    let mut json = false;
    let mut do_annotate = false;
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize, what: &str| -> u64 {
            *i += 1;
            args.get(*i)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| {
                    eprintln!("{what} needs a positive integer");
                    std::process::exit(2);
                })
        };
        match args[i].as_str() {
            "--kernels" => kernels = true,
            "--json" => json = true,
            "--strict" => base.strict = true,
            "--annotate" => do_annotate = true,
            "--local-bytes" => base.local_bytes = Some(take(&mut i, "--local-bytes")),
            "--input-bytes" => base.input_bytes = Some(take(&mut i, "--input-bytes")),
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}`");
                usage();
            }
            file => files.push(file.to_string()),
        }
        i += 1;
    }
    if kernels != files.is_empty() {
        // Exactly one of --kernels / file arguments must be given.
        usage();
    }

    let mut reports: Vec<VerifyReport> = Vec::new();
    if kernels {
        for bench in kernel_benchmarks() {
            let w = kernel_workload(bench);
            let config = VerifyConfig {
                local_bytes: Some(w.live_bytes as u64),
                ..base.clone()
            };
            reports.push(verify_program(&w.program, &config));
            if do_annotate {
                println!("{}", annotate(&w.program, &config));
            }
        }
    } else {
        for path in &files {
            let source = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return 2;
                }
            };
            let name = std::path::Path::new(path)
                .file_stem()
                .map_or_else(|| path.clone(), |s| s.to_string_lossy().into_owned());
            match verify_source(&name, &source, &base) {
                Ok((_, report)) => {
                    if do_annotate {
                        match annotate_source(&name, &source, &base) {
                            Ok(listing) => println!("{listing}"),
                            Err(e) => eprintln!("{path}: {e}"),
                        }
                    }
                    reports.push(report);
                }
                Err(e) => {
                    eprintln!("{path}: assembly failed: {e}");
                    return 2;
                }
            }
        }
    }

    if json {
        println!("{}", reports_to_json(&reports));
    } else {
        for r in &reports {
            println!("{r}");
        }
    }
    i32::from(reports.iter().any(|r| !r.is_clean()))
}

/// The `disasm` subcommand: print the canonical labeled listing of `.asm`
/// files or every compiled-in kernel. Returns the process exit code.
fn disasm_cmd(args: &[String]) -> i32 {
    let mut files: Vec<String> = Vec::new();
    let mut kernels = false;
    for arg in args {
        match arg.as_str() {
            "--kernels" => kernels = true,
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}`");
                usage();
            }
            file => files.push(file.to_string()),
        }
    }
    if kernels != files.is_empty() {
        // Exactly one of --kernels / file arguments must be given.
        usage();
    }
    if kernels {
        for bench in kernel_benchmarks() {
            let w = kernel_workload(bench);
            println!("# {} ({} instructions)", bench.name(), w.program.len());
            println!("{}", disassemble(&w.program));
        }
        return 0;
    }
    for path in &files {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{path}: {e}");
                return 2;
            }
        };
        let name = std::path::Path::new(path)
            .file_stem()
            .map_or_else(|| path.clone(), |s| s.to_string_lossy().into_owned());
        match assemble(&name, &source) {
            Ok(program) => println!("{}", disassemble(&program)),
            Err(e) => {
                eprintln!("{path}: assembly failed: {e}");
                return 2;
            }
        }
    }
    0
}

/// The `run --kernels` mode: execute every compiled-in benchmark kernel
/// functionally over its real dataset and launch grid (enumerated through
/// the shared `kernel_benchmarks` helper, never a hand-kept list) and
/// validate the reduced output against the golden reference. Returns the
/// process exit code.
fn run_kernels(num_chunks: usize, seed: u64) -> i32 {
    let grid = ThreadGrid::paper_default();
    let mut bad = false;
    for bench in kernel_benchmarks() {
        let w = Workload::build(bench, num_chunks, 2048, seed);
        let mut stats = millipede::engine::FuncStats::default();
        let mut states: Vec<Vec<u32>> = Vec::with_capacity(grid.num_threads());
        let mut trapped = false;
        'threads: for corelet in 0..grid.corelets {
            for context in 0..grid.contexts {
                let mut ctx = w.make_ctx(&grid, corelet, context);
                match run_functional(&mut ctx, &w.program, &w.dataset.image, 10_000_000) {
                    Ok(s) => stats.merge(&s),
                    Err(trap) => {
                        eprintln!(
                            "{}: trap at pc {} on thread ({corelet}, {context}): {trap}",
                            bench.name(),
                            ctx.pc
                        );
                        trapped = true;
                        break 'threads;
                    }
                }
                states.push(ctx.local.words().to_vec());
            }
        }
        if trapped {
            bad = true;
            continue;
        }
        let views: Vec<&[u32]> = states.iter().map(Vec::as_slice).collect();
        let ok = w.reduce(&views) == w.reference(&grid);
        println!(
            "{:<10} [{}] {} instructions, {} branches, {} input words: {}",
            bench.name(),
            bench.family().name(),
            stats.instructions,
            stats.branches,
            stats.input_words,
            if ok { "output ok" } else { "OUTPUT MISMATCH" },
        );
        bad |= !ok;
    }
    i32::from(bad)
}

/// The `run` subcommand: execute standalone `.asm` programs on the
/// functional engine (one thread context, zero-filled input image) and
/// print their dynamic statistics, or with `--kernels` run every
/// compiled-in benchmark kernel (see [`run_kernels`]). Returns the process
/// exit code: 0 when every program halts cleanly and validates, 1 when any
/// traps or mismatches, 2 on usage/I/O errors.
fn run_cmd(args: &[String]) -> i32 {
    let mut files: Vec<String> = Vec::new();
    let mut kernels = false;
    let mut input_words: u64 = 512;
    let mut local_bytes: u64 = 1024;
    let mut step_limit: u64 = 10_000_000;
    let mut num_chunks: usize = 2;
    let mut seed: u64 = 7;
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize, what: &str| -> u64 {
            *i += 1;
            args.get(*i)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| {
                    eprintln!("{what} needs a positive integer");
                    std::process::exit(2);
                })
        };
        match args[i].as_str() {
            "--kernels" => kernels = true,
            "--input-words" => input_words = take(&mut i, "--input-words"),
            "--local-bytes" => local_bytes = take(&mut i, "--local-bytes"),
            "--step-limit" => step_limit = take(&mut i, "--step-limit"),
            "--chunks" => num_chunks = take(&mut i, "--chunks") as usize,
            "--seed" => seed = take(&mut i, "--seed"),
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}`");
                usage();
            }
            file => files.push(file.to_string()),
        }
        i += 1;
    }
    if kernels != files.is_empty() {
        // Exactly one of --kernels / file arguments must be given.
        usage();
    }
    if kernels {
        return run_kernels(num_chunks, seed);
    }

    let input = InputImage::new(vec![0u32; input_words as usize]);
    let mut trapped = false;
    for path in &files {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{path}: {e}");
                return 2;
            }
        };
        let name = std::path::Path::new(path)
            .file_stem()
            .map_or_else(|| path.clone(), |s| s.to_string_lossy().into_owned());
        let program = match assemble(&name, &source) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{path}: assembly failed: {e}");
                return 2;
            }
        };
        let mut ctx = ThreadCtx::new(local_bytes as usize, &LaunchParams::new());
        match run_functional(&mut ctx, &program, &input, step_limit) {
            Ok(stats) => {
                println!(
                    "{name}: halted after {} instructions \
                     (branches {}, taken {}, input words {}, local loads {}, \
                     local stores {})",
                    stats.instructions,
                    stats.branches,
                    stats.taken_branches,
                    stats.input_words,
                    stats.local_loads,
                    stats.local_stores,
                );
            }
            Err(trap) => {
                eprintln!("{name}: trap at pc {}: {trap}", ctx.pc);
                trapped = true;
            }
        }
    }
    i32::from(trapped)
}

fn list() {
    println!("benchmarks:");
    for b in Benchmark::ALL {
        println!("  {}", b.name());
    }
    println!("architectures:");
    for (name, _) in ARCHS {
        println!("  {name}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("list") {
        list();
        return;
    }
    if args.first().map(String::as_str) == Some("verify") {
        std::process::exit(verify_cmd(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("disasm") {
        std::process::exit(disasm_cmd(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("run") {
        std::process::exit(run_cmd(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("report") {
        std::process::exit(report_cmd(&args[1..]));
    }
    if args.len() < 2 {
        usage();
    }
    let mut prof = SelfProfile::start();
    prof.begin("decode");
    let bench = Benchmark::from_name(&args[0]).unwrap_or_else(|| {
        eprintln!("unknown benchmark `{}` (try `millipede-cli list`)", args[0]);
        std::process::exit(2);
    });
    let arch = ARCHS.iter().find(|(name, _)| *name == args[1]).map_or_else(
        || -> Arch {
            eprintln!(
                "unknown architecture `{}` (try `millipede-cli list`)",
                args[1]
            );
            std::process::exit(2);
        },
        |&(_, a)| a,
    );

    let mut cfg = SimConfig::default();
    let mut csv = false;
    let mut manifest_out: Option<String> = None;
    let mut i = 2;
    while i < args.len() {
        // A value below `min` is a usage error, not a run that panics or
        // deadlocks: a node needs a chunk and a corelet, and the row
        // prefetch buffer at least two entries.
        let take = |i: &mut usize, what: &str, min: u64| -> u64 {
            *i += 1;
            args.get(*i)
                .and_then(|v| v.parse().ok())
                .filter(|&v| v >= min)
                .unwrap_or_else(|| {
                    eprintln!("{what} needs an integer of at least {min}");
                    usage();
                })
        };
        match args[i].as_str() {
            "--chunks" => cfg.num_chunks = take(&mut i, "--chunks", 1) as usize,
            "--seed" => cfg.seed = take(&mut i, "--seed", 0),
            "--corelets" => cfg.corelets = take(&mut i, "--corelets", 1) as usize,
            "--pbuf" => cfg.pbuf_entries = take(&mut i, "--pbuf", 2) as usize,
            "--csv" => csv = true,
            "--manifest-out" => {
                i += 1;
                manifest_out = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--manifest-out needs a file path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
        i += 1;
    }

    prof.begin("run");
    let r = run_one(arch, bench, &cfg);
    prof.begin("report");
    if let Some(path) = &manifest_out {
        let doc = {
            prof.end();
            manifest::render(&cfg, &prof, 1, &[ManifestRun::new(&r, &cfg)])
        };
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        }
        eprintln!("wrote run manifest to {path}");
    }
    if csv {
        println!(
            "bench,arch,chunks,seed,elapsed_us,instructions,ipc,dram_gbps,row_miss_rate,\
             activations,energy_uj,core_uj,dram_uj,static_uj,rate_clock_mhz,output_ok"
        );
        println!(
            "{},{},{},{},{:.3},{},{:.3},{:.3},{:.4},{},{:.3},{:.3},{:.3},{:.3},{:.0},{}",
            bench.name(),
            r.arch.label(),
            cfg.num_chunks,
            cfg.seed,
            r.node.runtime_us(),
            r.node.stats.instructions,
            r.node.stats.utilization(),
            r.node.dram_bandwidth_gbps(),
            r.node.dram.row_miss_rate(),
            r.node.dram.activations,
            r.energy.total_uj(),
            r.energy.core_pj / 1e6,
            r.energy.dram_pj / 1e6,
            r.energy.static_pj / 1e6,
            r.node.stats.rate_match_final_mhz,
            r.node.output_ok,
        );
        return;
    }
    println!(
        "{} on {} ({} chunks, seed {})",
        bench.name(),
        r.arch.label(),
        cfg.num_chunks,
        cfg.seed
    );
    println!("  simulated time   : {:>10.1} µs", r.node.runtime_us());
    println!("  instructions     : {:>10}", r.node.stats.instructions);
    println!("  issue utilization: {:>10.2}", r.node.stats.utilization());
    println!(
        "  DRAM bandwidth   : {:>10.2} GB/s",
        r.node.dram_bandwidth_gbps()
    );
    println!("  row miss rate    : {:>10.3}", r.node.dram.row_miss_rate());
    println!("  activations      : {:>10}", r.node.dram.activations);
    println!(
        "  energy           : {:>10.2} µJ  (core {:.2} + dram {:.2} + static {:.2})",
        r.energy.total_uj(),
        r.energy.core_pj / 1e6,
        r.energy.dram_pj / 1e6,
        r.energy.static_pj / 1e6,
    );
    if r.node.stats.rate_match_final_mhz > 0.0 {
        println!(
            "  rate-match clock : {:>10.0} MHz",
            r.node.stats.rate_match_final_mhz
        );
    }
    println!("  output validated : {:>10}", r.node.output_ok);
}
