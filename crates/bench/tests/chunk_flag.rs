//! A zero chunk count is a usage error at parse time in every binary,
//! traced or not, rather than a sweep that reaches the simulator and
//! panics on an empty grid.

use std::process::Command;

#[test]
fn zero_chunks_is_a_usage_error() {
    for (name, exe) in [
        ("fig3", env!("CARGO_BIN_EXE_fig3")),
        ("table2", env!("CARGO_BIN_EXE_table2")),
    ] {
        let run = Command::new(exe)
            .args(["--chunks", "0"])
            .output()
            .expect("binary runs");
        assert_eq!(run.status.code(), Some(2), "{name} --chunks 0");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains("--chunks"), "{name}: {stderr}");
        assert!(stderr.contains("usage:"), "{name}: {stderr}");
        assert!(run.stdout.is_empty(), "{name} --chunks 0 printed a table");
    }
}
