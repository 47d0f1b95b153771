//! `millipede-audit` — the repo-specific lint pass.
//!
//! Usage: `cargo run -p millipede-audit [-- --root <workspace-root>]`
//!
//! Walks every `crates/*/src/**/*.rs` and `src/**/*.rs` file and prints
//! `file:line: lint: message` diagnostics. Exits 1 when any violation is
//! found and 2 on a bad root. See the crate docs for the lint catalogue
//! and the `// audit:allow(<lint>): <reason>` escape hatch. The
//! compiled-in kernels are verified by `millipede-cli verify --kernels`
//! and `tests/kernel_programs.rs`, not here.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let mut root: Option<PathBuf> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                i += 1;
                root = args.get(i).map(PathBuf::from);
                if root.is_none() {
                    eprintln!("error: --root needs a path");
                    return ExitCode::from(2);
                }
            }
            "--help" | "-h" => {
                eprintln!("usage: millipede-audit [--root <workspace-root>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|e| {
                eprintln!("error: cannot read current dir: {e}");
                std::process::exit(2);
            });
            match millipede_audit::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("error: no workspace root found above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let diags = match millipede_audit::audit_tree(&root) {
        Ok(diags) => diags,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        println!("millipede-audit: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("millipede-audit: {} source violation(s)", diags.len());
        ExitCode::FAILURE
    }
}
