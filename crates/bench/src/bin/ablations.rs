//! Regenerates the ablation studies beyond the paper's figures (DESIGN.md):
//! software barriers vs flow control, FR-FCFS queue depth, banks per
//! channel, and the channel-width boundedness sweep.
fn main() {
    let cfg = millipede_bench::parse_untraced().cfg;
    println!("Ablations ({} chunks, seed {})\n", cfg.num_chunks, cfg.seed);
    println!(
        "{}",
        millipede_sim::experiments::ablations::render_all(&cfg)
    );
}
