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
    for (argv, flag) in [
        (&["count", "millipede", "--chunks", "0"][..], "--chunks"),
        (&["count", "millipede", "--corelets", "0"], "--corelets"),
        (&["count", "millipede", "--corelets", "3"], "--corelets"),
        (&["count", "ssmc", "--corelets", "1024"], "--corelets"),
        (&["count", "millipede", "--pbuf", "0"], "--pbuf"),
        (&["count", "millipede", "--pbuf", "1"], "--pbuf"),
        (&["count", "millipede", "--chunks", "-1"], "--chunks"),
        (&["count", "millipede", "--chunks", "x"], "--chunks"),
        (&["run", "--kernels", "--chunks", "0"], "--chunks"),
    ] {
        let out = cli(argv);
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag) && stderr.contains("usage:"),
            "{argv:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{argv:?} printed results");
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
