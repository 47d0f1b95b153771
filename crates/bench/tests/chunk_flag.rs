//! Usage errors at parse time: a zero chunk count in every binary, traced
//! or not, rather than a sweep that reaches the simulator and panics on an
//! empty grid; and the retired `--profile`, whose per-point walls and
//! skipped-cycle shares the run manifest carries.

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

#[test]
fn profile_is_an_unknown_argument() {
    let run = Command::new(env!("CARGO_BIN_EXE_fig3"))
        .arg("--profile")
        .output()
        .expect("binary runs");
    assert_eq!(run.status.code(), Some(2), "fig3 --profile");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("unknown argument `--profile`"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(
        !stderr.contains("[--profile]"),
        "usage still offers it: {stderr}"
    );
    assert!(run.stdout.is_empty(), "fig3 --profile printed a table");
}
