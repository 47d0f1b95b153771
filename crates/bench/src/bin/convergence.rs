//! Reports the rate-matching DFS convergence traces (§IV-F of the paper).
fn main() {
    let cfg = millipede_bench::parse_untraced().cfg;
    println!(
        "Rate-matching convergence ({} chunks, seed {})\n",
        cfg.num_chunks, cfg.seed
    );
    println!(
        "{}",
        millipede_sim::experiments::convergence::run(&cfg).render()
    );
}
