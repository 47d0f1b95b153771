//! Regenerates the ablation studies beyond the paper's figures (DESIGN.md):
//! software barriers vs flow control, FR-FCFS queue depth, banks per
//! channel, and the channel-width boundedness sweep.
fn main() {
    let args = millipede_bench::parse_untraced();
    println!(
        "Ablations ({} chunks, seed {})\n",
        args.cfg.num_chunks, args.cfg.seed
    );
    let start = std::time::Instant::now();
    let rendered = millipede_sim::experiments::ablations::render_all(&args.cfg);
    let wall = start.elapsed();
    println!("{rendered}");
    if args.profile && !args.quiet {
        // The ablations drive the architecture models directly (no
        // RunResult sweep), so only the section wall time is meaningful.
        eprintln!("ablations wall: {:.1} ms", wall.as_secs_f64() * 1e3);
    }
}
