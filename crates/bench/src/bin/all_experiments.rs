//! Regenerates the full evaluation: every table and figure in sequence.
//!
//! Each section runs in a host phase of its own, so `--manifest-out`
//! records every section's wall in `host.phases_ms`. The Fig. 3 sweep is
//! the `run` phase: it is the one section that keeps its runs, so the
//! manifest's runs, per-second rates, `--trace-out` and telemetry warnings
//! all cover it. Stdout is byte-identical with or without those flags.

use millipede_sim::experiments::{
    ablations, convergence, families, fig3, fig4, fig5, fig6, fig7, table2, table3, table4,
};

fn main() {
    let args = millipede_bench::parse();
    let cfg = &args.cfg;
    let phase = |name| args.selfprof.borrow_mut().begin(name);
    println!(
        "Millipede reproduction — full evaluation ({} chunks, seed {})\n",
        cfg.num_chunks, cfg.seed
    );
    phase("table2");
    println!("Table II — Summary of application behavior\n");
    println!("{}", table2::render());
    phase("table3");
    println!("Table III — Hardware parameters\n");
    println!("{}", table3::render(cfg));
    phase("table4");
    println!("Table IV — Benchmark parameters and characteristics\n");
    println!("{}", table4::run(cfg).render());
    phase("run");
    println!("Fig. 3 — Performance (speedup over GPGPU)\n");
    let f3 = fig3::run(cfg);
    println!("{}", f3.render());
    phase("fig4");
    println!("Fig. 4 — Energy (relative to GPGPU)\n");
    println!("{}", fig4::run(cfg).render());
    phase("fig5");
    println!("Fig. 5 — Millipede vs conventional multicore\n");
    println!("{}", fig5::run(cfg).render());
    phase("fig6");
    println!("Fig. 6 — Speedup vs system size\n");
    println!("{}", fig6::run(cfg).render());
    phase("fig7");
    println!("Fig. 7 — Speedup vs prefetch-buffer count\n");
    println!("{}", fig7::run(cfg).render());
    phase("families");
    println!("Workload families — graph + dense (beyond the paper's set)\n");
    println!("{}", families::run(cfg).render());
    phase("convergence");
    println!("Rate-matching convergence (§IV-F)\n");
    println!("{}", convergence::run(cfg).render());
    phase("ablations");
    println!("Ablations (beyond the paper's figures)\n");
    println!("{}", ablations::render_all(cfg));
    let runs: Vec<_> = f3.runs.iter().flatten().collect();
    millipede_bench::report(&args, &runs);
}
