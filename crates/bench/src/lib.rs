//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Every binary accepts the same optional arguments:
//!
//! ```text
//! <bin> [--chunks N] [--seed S] [--csv] [--quiet]
//!       [--trace-out PATH] [--telemetry-epoch CYCLES] [--manifest-out PATH]
//! ```
//!
//! and prints the regenerated table to stdout. `--trace-out` enables
//! cycle-domain telemetry and writes a combined Chrome-trace/Perfetto JSON
//! for the sweep; `--telemetry-epoch` sets the sampling epoch in compute
//! cycles (and also enables telemetry). `--manifest-out` writes a
//! `millipede-manifest/2` JSON (config fingerprint, per-run digests and
//! metrics, host self-profiling) after the sweep; `millipede-cli report`
//! renders it, with each point's host wall and skipped-cycle share. Stdout
//! stays byte-identical with any of these. Binaries that keep no
//! sweep of runs (`table2`, `table3`, `convergence`, `fig5`, `ablations`)
//! parse with [`parse_untraced`], which rejects those three flags with
//! exit 2 instead of accepting and ignoring them. `--quiet` suppresses all
//! stderr reporting. The defaults match
//! `SimConfig::default()` (48 chunks ≈ 1.5–6 MB of input depending on the
//! benchmark's record arity — well past the steady state the paper argues
//! for, §V).

use millipede_metrics::SelfProfile;
use millipede_sim::manifest::ManifestRun;
use millipede_sim::{RunResult, SimConfig, TelemetryConfig};
use std::cell::RefCell;
use std::path::PathBuf;

/// Parsed command-line arguments shared by the experiment binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// The simulation configuration (`--chunks`, `--seed`,
    /// `--telemetry-epoch`).
    pub cfg: SimConfig,
    /// Emit CSV instead of an aligned table (`--csv`).
    pub csv: bool,
    /// Suppress all stderr reporting (`--quiet`).
    pub quiet: bool,
    /// Write a Chrome-trace/Perfetto JSON of the sweep's telemetry here
    /// (`--trace-out`; implies telemetry on).
    pub trace_out: Option<PathBuf>,
    /// Write a `millipede-manifest/2` JSON of the sweep here
    /// (`--manifest-out`).
    pub manifest_out: Option<PathBuf>,
    /// Host self-profile opened at parse time: `decode` covers argument
    /// and workload setup, [`report`] closes `run` and opens `report`.
    /// Interior-mutable so the widely-used `report(&Args, ..)` signature
    /// stays unchanged.
    pub selfprof: RefCell<SelfProfile>,
}

/// Parses all shared arguments: `--chunks`, `--seed`, `--csv`, `--quiet`,
/// `--trace-out`, `--telemetry-epoch`, `--manifest-out`.
pub fn parse() -> Args {
    parse_args(true)
}

/// Parses the shared arguments of a binary that keeps no sweep of runs to
/// trace or record: `--trace-out`, `--telemetry-epoch` and
/// `--manifest-out` exit 2 with the usage message.
pub fn parse_untraced() -> Args {
    parse_args(false)
}

fn parse_args(traced: bool) -> Args {
    let mut selfprof = SelfProfile::start();
    selfprof.begin("decode");
    let mut cfg = SimConfig::default();
    let mut csv = false;
    let mut quiet = false;
    let mut trace_out: Option<PathBuf> = None;
    let mut manifest_out: Option<PathBuf> = None;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            flag @ ("--trace-out" | "--telemetry-epoch" | "--manifest-out") if !traced => usage(
                &format!("{flag} is not supported: this binary keeps no runs to record"),
            ),
            "--chunks" => {
                i += 1;
                cfg.num_chunks = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--chunks needs a positive integer"));
            }
            "--seed" => {
                i += 1;
                cfg.seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--csv" => csv = true,
            "--quiet" => quiet = true,
            "--trace-out" => {
                i += 1;
                let path = args
                    .get(i)
                    .filter(|p| !p.is_empty())
                    .unwrap_or_else(|| usage("--trace-out needs a file path"));
                trace_out = Some(PathBuf::from(path));
                cfg.telemetry.enabled = true;
            }
            "--telemetry-epoch" => {
                i += 1;
                let epoch: u64 = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&e| e > 0)
                    .unwrap_or_else(|| usage("--telemetry-epoch needs a positive cycle count"));
                cfg.telemetry = TelemetryConfig::enabled_with_epoch(epoch);
            }
            "--manifest-out" => {
                i += 1;
                let path = args
                    .get(i)
                    .filter(|p| !p.is_empty())
                    .unwrap_or_else(|| usage("--manifest-out needs a file path"));
                manifest_out = Some(PathBuf::from(path));
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    // Everything from here until report() is the sweep itself.
    selfprof.begin("run");
    Args {
        cfg,
        csv,
        quiet,
        trace_out,
        manifest_out,
        selfprof: RefCell::new(selfprof),
    }
}

/// Shared post-sweep reporting: any telemetry overflow warning goes to
/// stderr (suppressed by `--quiet`; stdout is never touched), the combined
/// Chrome trace is written to `--trace-out` when requested, and the run
/// manifest is written to `--manifest-out`.
pub fn report(args: &Args, runs: &[&RunResult]) {
    args.selfprof.borrow_mut().begin("report");
    if !args.quiet {
        eprint!("{}", millipede_sim::report::telemetry_warnings(runs));
    }
    if let Some(path) = &args.trace_out {
        let trace = millipede_sim::report::chrome_trace(runs);
        if let Err(e) = std::fs::write(path, trace) {
            eprintln!("error: could not write trace to {}: {e}", path.display());
            std::process::exit(1);
        }
        if !args.quiet {
            eprintln!("wrote Chrome trace to {}", path.display());
        }
    }
    if let Some(path) = &args.manifest_out {
        let doc = {
            // Close `report` so its wall is in the manifest, then render
            // outside the borrow (render reads the profile immutably).
            let mut prof = args.selfprof.borrow_mut();
            prof.end();
            let entries: Vec<ManifestRun> = runs
                .iter()
                .map(|r| ManifestRun::new(r, &args.cfg))
                .collect();
            millipede_sim::manifest::render(
                &args.cfg,
                &prof,
                millipede_sim::sweep_threads(),
                &entries,
            )
        };
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("error: could not write manifest to {}: {e}", path.display());
            std::process::exit(1);
        }
        if !args.quiet {
            eprintln!("wrote run manifest to {}", path.display());
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: <bin> [--chunks N] [--seed S] [--csv] [--quiet] \
         [--trace-out PATH] [--telemetry-epoch CYCLES] [--manifest-out PATH]"
    );
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_used_without_args() {
        // parse reads real argv; in the test harness there are extra args,
        // so only check the default construction path.
        let cfg = SimConfig::default();
        assert_eq!(cfg.num_chunks, 48);
    }
}
