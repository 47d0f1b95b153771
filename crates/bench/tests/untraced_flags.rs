//! Binaries that keep no sweep of runs must refuse the flags that would
//! trace or record one, rather than accept them, exit 0, and write nothing.

use std::path::PathBuf;
use std::process::Command;

const UNTRACED: [(&str, &str); 5] = [
    ("table2", env!("CARGO_BIN_EXE_table2")),
    ("table3", env!("CARGO_BIN_EXE_table3")),
    ("convergence", env!("CARGO_BIN_EXE_convergence")),
    ("fig5", env!("CARGO_BIN_EXE_fig5")),
    ("ablations", env!("CARGO_BIN_EXE_ablations")),
];

#[test]
fn untraced_binaries_reject_trace_and_manifest_flags() {
    let out: PathBuf = std::env::temp_dir().join(format!("untraced-{}.json", std::process::id()));
    for (name, exe) in UNTRACED {
        for flag in ["--trace-out", "--manifest-out"] {
            let run = Command::new(exe)
                .args([flag, out.to_str().expect("utf-8 temp path")])
                .output()
                .expect("binary runs");
            assert_eq!(run.status.code(), Some(2), "{name} {flag}");
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert!(stderr.contains(flag), "{name} {flag}: {stderr}");
            assert!(stderr.contains("usage:"), "{name} {flag}: {stderr}");
            assert!(run.stdout.is_empty(), "{name} {flag} printed a table");
            assert!(!out.exists(), "{name} {flag} wrote a file");
        }
    }
}
