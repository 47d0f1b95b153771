//! Command-line front end: simulate any benchmark on any architecture,
//! regenerate any table or figure of the paper's evaluation, or statically
//! verify kernel programs before they reach a simulator.
//!
//! ```text
//! millipede-cli <benchmark> <architecture> [--chunks N] [--seed S]
//!               [--corelets N] [--pbuf N] [--csv] [--quiet]
//!               [--trace-out PATH] [--telemetry-epoch CYCLES] [--manifest-out PATH]
//! millipede-cli <section> [--chunks N] [--seed S] [--csv] [--quiet]
//!               [--trace-out PATH] [--telemetry-epoch CYCLES] [--manifest-out PATH]
//! millipede-cli verify <kernel.asm>... [--json] [--strict] [--annotate]
//!               [--local-bytes N] [--input-bytes N]
//! millipede-cli verify --kernels [--json] [--strict] [--annotate]
//! millipede-cli disasm (<kernel.asm>... | --kernels)
//! millipede-cli run <kernel.asm>... [--input-words N] [--local-bytes N]
//!               [--step-limit N]
//! millipede-cli run --kernels [--chunks N] [--seed S] [--step-limit N]
//! millipede-cli report <manifest.json>...
//! millipede-cli report --diff <a.json> <b.json>
//! millipede-cli list
//! ```
//!
//! Examples:
//!
//! ```text
//! millipede-cli nbayes millipede --chunks 64
//! millipede-cli kmeans ssmc --csv
//! millipede-cli fig3 --chunks 24 --manifest-out fig3.json
//! millipede-cli all > experiments_output.txt
//! millipede-cli verify my_kernel.asm --json
//! millipede-cli verify --kernels --annotate
//! millipede-cli disasm my_kernel.asm
//! millipede-cli disasm --kernels
//! millipede-cli run my_kernel.asm --input-words 128
//! ```
//!
//! A `<section>` is one table or figure of the evaluation ([`SECTIONS`]:
//! `table2`, `table3`, `table4`, `fig3` … `fig7`, `families`,
//! `convergence`, `ablations`); `all` prints every section in that order
//! under one heading, which is `experiments_output.txt`. The defaults
//! match `SimConfig::default()` (48 chunks ≈ 1.5–6 MB of input depending
//! on the benchmark's record arity, well past the steady state the paper
//! argues for, §V).
//!
//! The simulate form, the sections and `all` share one flag parser
//! ([`parse_opts`]) and one post-run reporter ([`report`]). `--trace-out`
//! enables cycle-domain telemetry and writes a combined
//! Chrome-trace/Perfetto JSON of the kept runs; `--telemetry-epoch` sets
//! the sampling epoch in compute cycles (and also enables telemetry);
//! `--manifest-out` writes a `millipede-manifest/2` JSON (config
//! fingerprint, per-run digests and metrics, host self-profiling) that
//! `report` renders. Stdout stays byte-identical with any of these. A
//! section that keeps no runs (`table2`, `table3`, `fig5`, `convergence`,
//! `ablations`) rejects those three flags, and `--csv` is accepted only
//! where a CSV form exists (the simulate form, `table4`, `fig3`, `fig7`,
//! `families`). `--quiet` suppresses all stderr reporting. Every usage
//! error, and a trace or manifest that cannot be written, exits 2.
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
//! its real dataset and launch grid (`Workload::run_functional`, each
//! thread under `--step-limit`) and validates the reduced output against
//! the benchmark's golden reference.

use millipede::engine::{run_functional, LaunchParams, ThreadCtx};
use millipede::gpgpu::warp::MAX_WARP_WIDTH;
use millipede::isa::{assemble, disassemble};
use millipede::mapreduce::{InterleavedLayout, ThreadGrid};
use millipede::mem::InputImage;
use millipede::metrics::json::Json;
use millipede::metrics::SelfProfile;
use millipede::sim::experiments::{
    ablations, convergence, families, fig3, fig4, fig5, fig6, fig7, table2, table3, table4,
};
use millipede::sim::manifest::{self, ManifestRun};
use millipede::sim::report::{chrome_trace, telemetry_warnings, Table};
use millipede::sim::{run_one, sweep_threads, Arch, RunResult, SimConfig, TelemetryConfig};
use millipede::verify::{
    annotate, annotate_source, reports_to_json, verify_program, verify_source, VerifyConfig,
    VerifyReport,
};
use millipede::workloads::skeleton::MAX_RPTC;
use millipede::workloads::{kernel_workload, Benchmark, Workload};
use std::path::PathBuf;

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

/// The flags a form accepts besides `--chunks`, `--seed` and `--quiet`.
#[derive(Debug, Clone, Copy)]
struct Accepts {
    /// `--trace-out`, `--telemetry-epoch` and `--manifest-out`: the form
    /// keeps runs to trace and record.
    observe: bool,
    /// `--csv`: the form has a CSV form.
    csv: bool,
    /// `--corelets` and `--pbuf`: the simulate form's machine knobs.
    machine: bool,
}

/// A section that keeps no runs.
const NO_RUNS: Accepts = Accepts {
    observe: false,
    csv: false,
    machine: false,
};
/// A section that keeps runs but prints no CSV, and `all`.
const RUNS: Accepts = Accepts {
    observe: true,
    ..NO_RUNS
};
/// A section that keeps runs and has a CSV form.
const RUNS_CSV: Accepts = Accepts { csv: true, ..RUNS };
/// The simulate form: one run, a CSV form, and the machine knobs.
const SIMULATE: Accepts = Accepts {
    machine: true,
    ..RUNS_CSV
};

/// What a section prints.
#[derive(Debug)]
enum Body {
    /// A table with a CSV form.
    Table(Table),
    /// Text alone.
    Text(String),
}

/// A section's output and the runs it keeps for [`report`].
#[derive(Debug)]
struct Output {
    body: Body,
    runs: Vec<RunResult>,
}

impl Output {
    fn new(body: Body, runs: impl IntoIterator<Item = RunResult>) -> Output {
        Output {
            body,
            runs: runs.into_iter().collect(),
        }
    }

    /// Prints the body: its CSV form under `csv`, else the aligned table.
    fn print(&self, csv: bool) {
        match &self.body {
            Body::Table(t) if csv => print!("{}", t.to_csv()),
            Body::Table(t) => println!("{}", t.render()),
            Body::Text(text) => println!("{text}"),
        }
    }
}

/// One table or figure of the evaluation, run as `millipede-cli <name>`.
#[derive(Debug)]
struct Section {
    name: &'static str,
    /// The heading printed above the section, alone or in `all`.
    title: &'static str,
    /// Whether the section keeps runs and has a CSV form.
    accepts: Accepts,
    run: fn(&SimConfig) -> Output,
}

/// Every section, in the order `all` prints them.
const SECTIONS: [Section; 11] = [
    Section {
        name: "table2",
        title: "Table II — Summary of application behavior",
        accepts: NO_RUNS,
        run: |_| Output::new(Body::Text(table2::render()), Vec::new()),
    },
    Section {
        name: "table3",
        title: "Table III — Hardware parameters",
        accepts: NO_RUNS,
        run: |cfg| Output::new(Body::Text(table3::render(cfg)), Vec::new()),
    },
    Section {
        name: "table4",
        title: "Table IV — Benchmark parameters and characteristics",
        accepts: RUNS_CSV,
        run: |cfg| {
            let t = table4::run(cfg);
            Output::new(Body::Table(t.table()), t.runs)
        },
    },
    Section {
        name: "fig3",
        title: "Fig. 3 — Performance (speedup over GPGPU)",
        accepts: RUNS_CSV,
        run: |cfg| {
            let f = fig3::run(cfg);
            Output::new(Body::Table(f.table()), f.runs.into_iter().flatten())
        },
    },
    Section {
        name: "fig4",
        title: "Fig. 4 — Energy (relative to GPGPU)",
        accepts: RUNS,
        run: |cfg| {
            let f = fig4::run(cfg);
            Output::new(Body::Text(f.render()), f.runs.into_iter().flatten())
        },
    },
    Section {
        name: "fig5",
        title: "Fig. 5 — Millipede vs conventional multicore",
        accepts: NO_RUNS,
        run: |cfg| Output::new(Body::Text(fig5::run(cfg).render()), Vec::new()),
    },
    Section {
        name: "fig6",
        title: "Fig. 6 — Speedup vs system size",
        accepts: RUNS,
        run: |cfg| {
            let f = fig6::run(cfg);
            Output::new(
                Body::Text(f.render()),
                f.runs.into_iter().flatten().flatten(),
            )
        },
    },
    Section {
        name: "fig7",
        title: "Fig. 7 — Speedup vs prefetch-buffer count",
        accepts: RUNS_CSV,
        run: |cfg| {
            let f = fig7::run(cfg);
            Output::new(Body::Table(f.table()), f.runs.into_iter().flatten())
        },
    },
    Section {
        name: "families",
        title: "Workload families — graph + dense (beyond the paper's set)",
        accepts: RUNS_CSV,
        run: |cfg| {
            let f = families::run(cfg);
            Output::new(Body::Table(f.table()), f.runs.into_iter().flatten())
        },
    },
    Section {
        name: "convergence",
        title: "Rate-matching convergence (§IV-F)",
        accepts: NO_RUNS,
        run: |cfg| Output::new(Body::Text(convergence::run(cfg).render()), Vec::new()),
    },
    Section {
        name: "ablations",
        title: "Ablations (beyond the paper's figures)",
        accepts: NO_RUNS,
        run: |cfg| Output::new(Body::Text(ablations::render_all(cfg)), Vec::new()),
    },
];

/// The section whose runs `all` keeps, timed as its `run` phase so the
/// manifest's per-second rates are anchored on the same sweep as its runs.
const ALL_KEEPS: &str = "fig3";

fn usage() -> ! {
    let sections: Vec<&str> = SECTIONS.iter().map(|s| s.name).collect();
    eprintln!(
        "usage: millipede-cli <benchmark> <architecture> [--chunks N] [--seed S] \
         [--corelets N] [--pbuf N] [--csv] [--quiet] [--trace-out PATH] \
         [--telemetry-epoch CYCLES] [--manifest-out PATH]\n       \
         millipede-cli <section> [--chunks N] [--seed S] [--csv] [--quiet] \
         [--trace-out PATH] [--telemetry-epoch CYCLES] [--manifest-out PATH]\n       \
         millipede-cli verify (<kernel.asm>... | --kernels) [--json] [--strict] \
         [--annotate] [--local-bytes N] [--input-bytes N]\n       \
         millipede-cli disasm (<kernel.asm>... | --kernels)\n       \
         millipede-cli run <kernel.asm>... [--input-words N] [--local-bytes N] \
         [--step-limit N]\n       \
         millipede-cli run --kernels [--chunks N] [--seed S] [--step-limit N]\n       \
         millipede-cli report <manifest.json>...\n       \
         millipede-cli report --diff <a.json> <b.json>\n       \
         millipede-cli list\n\
         sections: {}, all",
        sections.join(", ")
    );
    std::process::exit(2);
}

/// Prints `msg` and the usage, and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    usage();
}

/// Steps `i` to the value of `flag` and parses it. A missing or
/// non-integer value, or one below `min`, is a usage error, not a run that
/// panics or deadlocks: a node needs a chunk and a corelet, and the row
/// prefetch buffer at least two entries.
fn take(args: &[String], i: &mut usize, flag: &str, min: u64) -> u64 {
    *i += 1;
    args.get(*i)
        .and_then(|v| v.parse().ok())
        .filter(|&v| v >= min)
        .unwrap_or_else(|| usage_error(&format!("{flag} needs an integer of at least {min}")))
}

/// Steps `i` to the file path `flag` needs; a missing or empty one is a
/// usage error.
fn take_path(args: &[String], i: &mut usize, flag: &str) -> PathBuf {
    *i += 1;
    args.get(*i).filter(|p| !p.is_empty()).map_or_else(
        || usage_error(&format!("{flag} needs a file path")),
        PathBuf::from,
    )
}

/// Options of the simulate form, the sections and `all`.
#[derive(Debug)]
struct Opts {
    /// `--chunks`, `--seed`, `--corelets`, `--pbuf` and the telemetry
    /// switches.
    cfg: SimConfig,
    csv: bool,
    quiet: bool,
    trace_out: Option<PathBuf>,
    manifest_out: Option<PathBuf>,
}

/// The one flag parser of the simulate form, the sections and `all`. A flag
/// the form does not accept is a usage error, never accepted and ignored.
fn parse_opts(args: &[String], accepts: Accepts) -> Opts {
    let mut o = Opts {
        cfg: SimConfig::default(),
        csv: false,
        quiet: false,
        trace_out: None,
        manifest_out: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            flag @ ("--trace-out" | "--telemetry-epoch" | "--manifest-out") if !accepts.observe => {
                usage_error(&format!(
                    "{flag} is not supported: this section keeps no runs to record"
                ))
            }
            "--csv" if !accepts.csv => {
                usage_error("--csv is not supported: this section has no CSV form")
            }
            "--chunks" => o.cfg.num_chunks = take(args, &mut i, "--chunks", 1) as usize,
            "--seed" => o.cfg.seed = take(args, &mut i, "--seed", 0),
            "--corelets" if accepts.machine => {
                o.cfg.corelets = take(args, &mut i, "--corelets", 1) as usize;
            }
            "--pbuf" if accepts.machine => {
                o.cfg.pbuf_entries = take(args, &mut i, "--pbuf", 2) as usize;
            }
            "--csv" => o.csv = true,
            "--quiet" => o.quiet = true,
            "--trace-out" => {
                o.trace_out = Some(take_path(args, &mut i, "--trace-out"));
                o.cfg.telemetry.enabled = true;
            }
            "--telemetry-epoch" => {
                let epoch = take(args, &mut i, "--telemetry-epoch", 1);
                o.cfg.telemetry = TelemetryConfig::enabled_with_epoch(epoch);
            }
            "--manifest-out" => o.manifest_out = Some(take_path(args, &mut i, "--manifest-out")),
            other => usage_error(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    o
}

/// Rejects a `--corelets` the kernels or `arch` cannot run. The run's grid
/// splits a row's words evenly over its threads, the kernels' slot-indexed
/// scratch holds at most [`MAX_RPTC`] records per thread per chunk, and
/// the GPGPU's SM-wide warps keep their lanes in a 64-bit mask.
fn check_grid(arch: Arch, cfg: &SimConfig) {
    let layout = InterleavedLayout::new(1, cfg.row_bytes, cfg.num_chunks);
    let grid = ThreadGrid::slab(cfg.corelets, cfg.contexts);
    let (row_words, threads) = (layout.row_words(), grid.num_threads());
    if row_words % threads != 0 {
        usage_error(&format!(
            "--corelets {} must split the {row_words} words of a row evenly over its {threads} threads",
            cfg.corelets
        ));
    }
    let rptc = grid.records_per_thread_per_chunk(&layout);
    if rptc > MAX_RPTC {
        usage_error(&format!(
            "--corelets {} gives each thread {rptc} records per chunk; the kernels hold at most {MAX_RPTC}",
            cfg.corelets
        ));
    }
    if arch == Arch::Gpgpu && cfg.corelets > MAX_WARP_WIDTH {
        usage_error(&format!(
            "--corelets {} is wider than the {MAX_WARP_WIDTH} lanes a gpgpu warp can hold",
            cfg.corelets
        ));
    }
}

/// The one post-run reporter: telemetry overflow warnings go to stderr
/// (suppressed by `--quiet`; stdout is never touched), then the Chrome
/// trace of `runs` to `--trace-out` and the run manifest to
/// `--manifest-out`. `threads` is the sweep pool size the runs were fanned
/// over. A failed write exits 2.
fn report(opts: &Opts, prof: &mut SelfProfile, runs: &[&RunResult], threads: usize) {
    prof.begin("report");
    if !opts.quiet {
        eprint!("{}", telemetry_warnings(runs));
    }
    let write = |path: &PathBuf, what: &str, doc: &str| {
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("error: could not write {what} to {}: {e}", path.display());
            std::process::exit(2);
        }
        if !opts.quiet {
            eprintln!("wrote {what} to {}", path.display());
        }
    };
    if let Some(path) = &opts.trace_out {
        write(path, "Chrome trace", &chrome_trace(runs));
    }
    if let Some(path) = &opts.manifest_out {
        // Close `report` so its wall is in the manifest.
        prof.end();
        let entries: Vec<ManifestRun> = runs
            .iter()
            .map(|r| ManifestRun::new(r, &opts.cfg))
            .collect();
        write(
            path,
            "run manifest",
            &manifest::render(&opts.cfg, prof, threads, &entries),
        );
    }
}

/// `millipede-cli <section>`: the section's title and table (or its CSV
/// alone under `--csv`), then the reporter over its runs.
fn section_cmd(s: &Section, args: &[String], mut prof: SelfProfile) {
    let opts = parse_opts(args, s.accepts);
    prof.begin("run");
    let out = (s.run)(&opts.cfg);
    if !opts.csv {
        println!("{}\n", s.title);
    }
    out.print(opts.csv);
    let runs: Vec<&RunResult> = out.runs.iter().collect();
    report(&opts, &mut prof, &runs, sweep_threads());
}

/// `millipede-cli all`: every section in [`SECTIONS`] order under one
/// heading. Each section runs in a host phase of its own, so a manifest
/// records every section's wall in `host.phases_ms`; [`ALL_KEEPS`] is the
/// `run` phase and the one section whose runs the reporter sees.
fn all_cmd(args: &[String], mut prof: SelfProfile) {
    let opts = parse_opts(args, RUNS);
    println!(
        "Millipede reproduction — full evaluation ({} chunks, seed {})\n",
        opts.cfg.num_chunks, opts.cfg.seed
    );
    let mut kept = Vec::new();
    for s in &SECTIONS {
        let keep = s.name == ALL_KEEPS;
        prof.begin(if keep { "run" } else { s.name });
        println!("{}\n", s.title);
        let out = (s.run)(&opts.cfg);
        out.print(false);
        if keep {
            kept = out.runs;
        }
    }
    let runs: Vec<&RunResult> = kept.iter().collect();
    report(&opts, &mut prof, &runs, sweep_threads());
}

/// `verify`, `disasm` and `run` take exactly one of `--kernels` and file
/// arguments.
fn kernels_or_files(kernels: bool, files: &[String]) {
    if kernels != files.is_empty() {
        usage();
    }
}

/// Reads the `.asm` file at `path` and names the program after its stem.
/// An unreadable file exits 2.
fn load_source(path: &str) -> (String, String) {
    let source = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    });
    let name = std::path::Path::new(path)
        .file_stem()
        .map_or_else(|| path.to_string(), |s| s.to_string_lossy().into_owned());
    (name, source)
}

/// Unwraps the assembly of the file at `path`; a failure exits 2.
fn assembled<T>(path: &str, result: Result<T, impl std::fmt::Display>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{path}: assembly failed: {e}");
        std::process::exit(2);
    })
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
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag `{flag}`")),
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
        match args[i].as_str() {
            "--kernels" => kernels = true,
            "--json" => json = true,
            "--strict" => base.strict = true,
            "--annotate" => do_annotate = true,
            "--local-bytes" => base.local_bytes = Some(take(args, &mut i, "--local-bytes", 0)),
            "--input-bytes" => base.input_bytes = Some(take(args, &mut i, "--input-bytes", 0)),
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag `{flag}`")),
            file => files.push(file.to_string()),
        }
        i += 1;
    }
    kernels_or_files(kernels, &files);

    let mut reports: Vec<VerifyReport> = Vec::new();
    if kernels {
        for bench in Benchmark::ALL {
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
            let (name, source) = load_source(path);
            let (_, report) = assembled(path, verify_source(&name, &source, &base));
            if do_annotate {
                match annotate_source(&name, &source, &base) {
                    Ok(listing) => println!("{listing}"),
                    Err(e) => eprintln!("{path}: {e}"),
                }
            }
            reports.push(report);
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
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag `{flag}`")),
            file => files.push(file.to_string()),
        }
    }
    kernels_or_files(kernels, &files);
    if kernels {
        for bench in Benchmark::ALL {
            let w = kernel_workload(bench);
            println!("# {} ({} instructions)", bench.name(), w.program.len());
            println!("{}", disassemble(&w.program));
        }
        return 0;
    }
    for path in &files {
        let (name, source) = load_source(path);
        println!(
            "{}",
            disassemble(&assembled(path, assemble(&name, &source)))
        );
    }
    0
}

/// The `run --kernels` mode: execute every compiled-in benchmark kernel
/// functionally over its real dataset and launch grid, each thread under
/// `step_limit` instructions, and validate the reduced output against the
/// golden reference. A trapped thread is named on stderr. Returns the
/// process exit code.
fn run_kernels(num_chunks: usize, seed: u64, step_limit: u64) -> i32 {
    let grid = ThreadGrid::paper_default();
    let mut bad = false;
    for bench in Benchmark::ALL {
        let w = Workload::build(bench, num_chunks, 2048, seed);
        let run = match w.run_functional(&grid, step_limit) {
            Ok(run) => run,
            Err(trap) => {
                eprintln!("{}: {trap}", bench.name());
                bad = true;
                continue;
            }
        };
        let ok = w.reduce(&run.states()) == w.reference(&grid);
        println!(
            "{:<10} [{}] {} instructions, {} branches, {} input words: {}",
            bench.name(),
            bench.family().name(),
            run.stats.instructions,
            run.stats.branches,
            run.stats.input_words,
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
    // Each form's own flags; one the other form sets is refused below.
    let (mut input_words, mut local_bytes) = (None, None);
    let (mut num_chunks, mut seed) = (None, None);
    let mut step_limit: u64 = 10_000_000;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--kernels" => kernels = true,
            "--input-words" => input_words = Some(take(args, &mut i, "--input-words", 0)),
            "--local-bytes" => local_bytes = Some(take(args, &mut i, "--local-bytes", 0)),
            "--step-limit" => step_limit = take(args, &mut i, "--step-limit", 0),
            "--chunks" => num_chunks = Some(take(args, &mut i, "--chunks", 1) as usize),
            "--seed" => seed = Some(take(args, &mut i, "--seed", 0)),
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag `{flag}`")),
            file => files.push(file.to_string()),
        }
        i += 1;
    }
    kernels_or_files(kernels, &files);
    let (form, foreign) = if kernels {
        let file_flags = [
            ("--input-words", input_words),
            ("--local-bytes", local_bytes),
        ];
        ("run --kernels", file_flags)
    } else {
        let kernel_flags = [("--chunks", num_chunks.map(|n| n as u64)), ("--seed", seed)];
        ("run <kernel.asm>", kernel_flags)
    };
    if let Some((flag, _)) = foreign.iter().find(|(_, v)| v.is_some()) {
        usage_error(&format!("`{form}` does not take {flag}"));
    }
    if kernels {
        return run_kernels(num_chunks.unwrap_or(2), seed.unwrap_or(7), step_limit);
    }

    let input = InputImage::new(vec![0u32; input_words.unwrap_or(512) as usize]);
    let mut trapped = false;
    for path in &files {
        let (name, source) = load_source(path);
        let program = assembled(path, assemble(&name, &source));
        let mut ctx = ThreadCtx::new(local_bytes.unwrap_or(1024) as usize, &LaunchParams::new());
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
    println!("sections:");
    for s in &SECTIONS {
        println!("  {}", s.name);
    }
    println!("  all");
}

/// `millipede-cli <benchmark> <architecture>`: one run, printed as a
/// summary or one CSV row, then the reporter over it.
fn simulate_cmd(args: &[String], mut prof: SelfProfile) {
    if args.len() < 2 {
        usage();
    }
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
    let opts = parse_opts(&args[2..], SIMULATE);
    let cfg = &opts.cfg;
    check_grid(arch, cfg);

    prof.begin("run");
    let r = run_one(arch, bench, cfg);
    if opts.csv {
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
    } else {
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
    report(&opts, &mut prof, &[&r], 1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `decode` covers argument parsing and ends where the run begins.
    let mut prof = SelfProfile::start();
    prof.begin("decode");
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("list") => list(),
        Some("verify") => std::process::exit(verify_cmd(rest)),
        Some("disasm") => std::process::exit(disasm_cmd(rest)),
        Some("run") => std::process::exit(run_cmd(rest)),
        Some("report") => std::process::exit(report_cmd(rest)),
        Some("all") => all_cmd(rest, prof),
        Some(name) => match SECTIONS.iter().find(|s| s.name == name) {
            Some(s) => section_cmd(s, rest, prof),
            None => simulate_cmd(&args, prof),
        },
        None => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_names_are_distinct_from_benchmarks_and_subcommands() {
        let mut names: Vec<&str> = SECTIONS.iter().map(|s| s.name).collect();
        names.extend(["all", "list", "verify", "disasm", "run", "report"]);
        names.extend(Benchmark::ALL.iter().map(|b| b.name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a section name shadows another command");
    }
}
