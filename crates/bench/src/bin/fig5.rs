//! Regenerates Fig. 5 — Millipede versus the conventional multicore.
fn main() {
    let args = millipede_bench::parse_untraced();
    let start = std::time::Instant::now();
    let fig = millipede_sim::experiments::fig5::run(&args.cfg);
    let wall = start.elapsed();
    println!(
        "Fig. 5 — 32-processor Millipede vs 8-core OoO multicore ({} chunks)\n",
        args.cfg.num_chunks
    );
    println!("{}", fig.render());
    if args.profile && !args.quiet {
        // Fig. 5 simulates whole 32-node systems, not single sweep points,
        // so only the section wall time is meaningful here.
        eprintln!("fig5 wall: {:.1} ms", wall.as_secs_f64() * 1e3);
    }
}
