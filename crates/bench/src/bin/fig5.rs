//! Regenerates Fig. 5 — Millipede versus the conventional multicore.
fn main() {
    let cfg = millipede_bench::parse_untraced().cfg;
    let fig = millipede_sim::experiments::fig5::run(&cfg);
    println!(
        "Fig. 5 — 32-processor Millipede vs 8-core OoO multicore ({} chunks)\n",
        cfg.num_chunks
    );
    println!("{}", fig.render());
}
