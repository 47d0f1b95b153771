//! Regenerates Table II — summary of application behaviour.
fn main() {
    millipede_bench::parse_untraced();
    println!("Table II — Summary of application behavior\n");
    println!("{}", millipede_sim::experiments::table2::render());
}
