//! Regenerates Table III — hardware parameters.
fn main() {
    let cfg = millipede_bench::parse_untraced().cfg;
    println!("Table III — Hardware parameters\n");
    println!("{}", millipede_sim::experiments::table3::render(&cfg));
}
