//! `millipede-cli` argument validation, driven through the real binary: a
//! numeric flag outside its range is a usage error (exit 2) at parse time,
//! never a run that panics or deadlocks; and a flag a form cannot honour
//! (an observation flag on a section that keeps no runs, `--csv` without
//! a CSV form, the retired `--profile`) is refused, not accepted and
//! ignored.

use std::path::PathBuf;
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
        (&["count", "millipede", "--corelets", "16"], "--corelets"),
        (&["count", "millipede", "--corelets", "8"], "--corelets"),
        (&["count", "ssmc", "--corelets", "1024"], "--corelets"),
        // GPGPU warps span the SM, and a warp's lane mask is 64 bits.
        (&["count", "gpgpu", "--corelets", "128"], "--corelets"),
        (&["count", "millipede", "--pbuf", "0"], "--pbuf"),
        (&["count", "millipede", "--pbuf", "1"], "--pbuf"),
        (&["count", "millipede", "--chunks", "-1"], "--chunks"),
        (&["count", "millipede", "--chunks", "x"], "--chunks"),
        (&["run", "--kernels", "--chunks", "0"], "--chunks"),
    ] {
        assert_usage_error(argv, flag);
    }
}

#[test]
fn run_kernels_names_a_trapped_thread() {
    // One instruction per thread: every kernel's first thread hits the
    // step limit, and `run --kernels` names it instead of validating.
    let out = cli(&["run", "--kernels", "--step-limit", "1"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("count: trap at pc 1 on thread (0, 0): step limit exceeded"),
        "{stderr}"
    );
    assert_eq!(stderr.lines().count(), 14, "{stderr}");
    assert!(out.stdout.is_empty(), "a trapped kernel was validated");
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

/// Asserts `argv` exits 2 with `needle` and the usage on stderr and prints
/// nothing to stdout.
fn assert_usage_error(argv: &[&str], needle: &str) {
    let out = cli(argv);
    assert_eq!(out.status.code(), Some(2), "{argv:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle) && stderr.contains("usage:"),
        "{argv:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{argv:?} printed results");
}

#[test]
fn run_flags_of_the_other_form_are_usage_errors() {
    let kernel = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/clean_histogram.asm"
    );
    for (argv, flag) in [
        (
            &["run", "--kernels", "--input-words", "5"][..],
            "--input-words",
        ),
        (&["run", "--kernels", "--local-bytes", "3"], "--local-bytes"),
        (&["run", kernel, "--chunks", "4"], "--chunks"),
        (&["run", kernel, "--seed", "3"], "--seed"),
    ] {
        assert_usage_error(argv, flag);
    }
}

#[test]
fn section_usage_errors() {
    for (argv, needle) in [
        (&["fig3", "--chunks", "0"][..], "--chunks"),
        (&["table2", "--chunks", "0"], "--chunks"),
        (&["all", "--chunks", "0"], "--chunks"),
        (&["fig3", "--profile"], "unknown argument `--profile`"),
        // Only table4, fig3, fig7 and families have a CSV form.
        (&["table2", "--csv"], "--csv"),
        (&["fig6", "--csv"], "--csv"),
        (&["all", "--csv"], "--csv"),
    ] {
        assert_usage_error(argv, needle);
    }
    let stderr = String::from_utf8_lossy(&cli(&["fig3", "--profile"]).stderr).into_owned();
    assert!(
        !stderr.contains("[--profile]"),
        "usage still offers it: {stderr}"
    );
}

#[test]
fn untraced_sections_reject_trace_and_manifest_flags() {
    let out: PathBuf = std::env::temp_dir().join(format!("untraced-{}.json", std::process::id()));
    let path = out.to_str().expect("utf-8 temp path");
    for section in ["table2", "table3", "convergence", "fig5", "ablations"] {
        for flag in ["--trace-out", "--manifest-out"] {
            assert_usage_error(&[section, flag, path], flag);
            assert!(!out.exists(), "{section} {flag} wrote a file");
        }
    }
}
