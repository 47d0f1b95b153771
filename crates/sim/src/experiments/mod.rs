//! The paper's evaluation (§VI), one module per table/figure.
//!
//! Each module exposes a `run(&SimConfig) -> …Result` that executes the
//! needed simulations, and a `table()` (with a CSV form) or `render()`
//! producing the table the paper prints. `millipede-cli <section>` prints
//! one of them, `millipede-cli all` prints every one, and `EXPERIMENTS.md`
//! quotes that output.

pub mod ablations;
pub mod convergence;
pub mod families;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod table2;
pub mod table3;
pub mod table4;
