//! `millipede-cli` argument validation, driven through the real binary: a
//! numeric flag outside its range is a usage error (exit 2) at parse time,
//! never a run that panics or deadlocks.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_millipede-cli"))
        .args(args)
        .output()
        .expect("run millipede-cli")
}

#[test]
fn out_of_range_simulate_flags_are_usage_errors() {
    for (flag, value) in [
        ("--chunks", "0"),
        ("--corelets", "0"),
        ("--pbuf", "0"),
        ("--pbuf", "1"),
        ("--chunks", "-1"),
        ("--chunks", "x"),
    ] {
        let out = cli(&["count", "millipede", flag, value]);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag) && stderr.contains("usage:"),
            "{flag} {value}: {stderr}"
        );
    }
}

#[test]
fn seed_zero_is_a_valid_seed() {
    let out = cli(&["count", "millipede", "--seed", "0", "--chunks", "1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("output validated :       true"));
}
