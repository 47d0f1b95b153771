//! Pins the semantics of every `MILLIPEDE_*` boolean and numeric
//! environment knob.
//!
//! The repo-wide rule ([`millipede::sim::env_flag`]): unset means "use the
//! default", and an empty value or `0` means off. Historically
//! `MILLIPEDE_FASTFORWARD=""` counted as *on* (`v != "0"`), so
//! `MILLIPEDE_FASTFORWARD= cmd` silently kept fast-forward enabled; this
//! suite pins the fixed matrix so the knobs cannot drift apart again.
//!
//! All env-mutating tests live in this one integration binary and
//! serialize on a process-wide lock, so the mutations never race the
//! test harness's worker threads.

use millipede::sim::{
    env_flag, fast_forward_from_env, sweep_progress_from_env, sweep_threads, TelemetryConfig,
};
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with `name` set to `value` (or unset for `None`), restoring
/// the previous state afterwards. All access serializes on [`ENV_LOCK`].
fn with_env<R>(name: &str, value: Option<&str>, f: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().expect("env lock poisoned");
    let saved = std::env::var(name).ok();
    match value {
        Some(v) => std::env::set_var(name, v),
        None => std::env::remove_var(name),
    }
    let result = f();
    match saved {
        Some(v) => std::env::set_var(name, v),
        None => std::env::remove_var(name),
    }
    result
}

#[test]
fn env_flag_rule_unset_default_empty_or_zero_off() {
    const NAME: &str = "MILLIPEDE_ENV_FLAG_PROBE";
    assert_eq!(with_env(NAME, None, || env_flag(NAME)), None);
    assert_eq!(with_env(NAME, Some(""), || env_flag(NAME)), Some(false));
    assert_eq!(with_env(NAME, Some("0"), || env_flag(NAME)), Some(false));
    assert_eq!(with_env(NAME, Some("1"), || env_flag(NAME)), Some(true));
    assert_eq!(with_env(NAME, Some("yes"), || env_flag(NAME)), Some(true));
}

#[test]
fn boolean_knob_matrix() {
    // (value, fast_forward, sweep_progress, telemetry): the three boolean
    // knobs differ only in their unset default (fast-forward on, the
    // observational knobs off).
    let matrix: [(Option<&str>, bool, bool, bool); 4] = [
        (None, true, false, false),
        (Some(""), false, false, false),
        (Some("0"), false, false, false),
        (Some("1"), true, true, true),
    ];
    for (value, ff, progress, telemetry) in matrix {
        assert_eq!(
            with_env("MILLIPEDE_FASTFORWARD", value, fast_forward_from_env),
            ff,
            "MILLIPEDE_FASTFORWARD={value:?}"
        );
        assert_eq!(
            with_env("MILLIPEDE_SWEEP_PROGRESS", value, sweep_progress_from_env),
            progress,
            "MILLIPEDE_SWEEP_PROGRESS={value:?}"
        );
        assert_eq!(
            with_env("MILLIPEDE_TELEMETRY", value, || {
                TelemetryConfig::from_env().enabled
            }),
            telemetry,
            "MILLIPEDE_TELEMETRY={value:?}"
        );
    }
}

#[test]
fn sweep_threads_rejects_unparseable_values_with_a_serial_fallback() {
    const NAME: &str = "MILLIPEDE_SWEEP_THREADS";
    assert_eq!(with_env(NAME, Some("8"), sweep_threads), 8);
    // Minimum one worker.
    assert_eq!(with_env(NAME, Some("0"), sweep_threads), 1);
    // A typo ("O8" for "08") must not silently fan out to host
    // parallelism: warn and run the serial baseline.
    assert_eq!(with_env(NAME, Some("O8"), sweep_threads), 1);
    assert_eq!(with_env(NAME, Some("-2"), sweep_threads), 1);
    // Unset or empty: the host's available parallelism (at least one).
    assert!(with_env(NAME, None, sweep_threads) >= 1);
    assert_eq!(
        with_env(NAME, Some(""), sweep_threads),
        with_env(NAME, None, sweep_threads)
    );
}
