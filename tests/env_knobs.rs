//! Pins the semantics of the `MILLIPEDE_*` environment knobs.
//!
//! Only the host harness reads the environment: `MILLIPEDE_SWEEP_THREADS`
//! (sweep worker count) and `MILLIPEDE_SWEEP_PROGRESS` (per-point progress
//! lines). The boolean rule ([`millipede::sim::env_flag`]): unset means
//! "use the default", and an empty value or `0` means off. No config
//! default reads the environment, so a run's configuration is exactly what
//! its caller wrote — the retired simulation knobs must stay inert.
//!
//! All env-mutating tests live in this one integration binary and
//! serialize on a process-wide lock, so the mutations never race the
//! test harness's worker threads.

use millipede::core_arch::MillipedeConfig;
use millipede::gpgpu::GpgpuConfig;
use millipede::multicore::MulticoreConfig;
use millipede::sim::{
    env_flag, sweep_progress_from_env, sweep_threads, SimConfig, TelemetryConfig,
};
use millipede::ssmc::SsmcConfig;
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with each `(name, value)` set (or unset for `None`),
/// restoring the previous state afterwards. All access serializes on
/// [`ENV_LOCK`].
fn with_vars<R>(vars: &[(&str, Option<&str>)], f: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().expect("env lock poisoned");
    let set = |name: &str, value: Option<&str>| match value {
        Some(v) => std::env::set_var(name, v),
        None => std::env::remove_var(name),
    };
    let saved: Vec<Option<String>> = vars.iter().map(|(n, _)| std::env::var(n).ok()).collect();
    for &(name, value) in vars {
        set(name, value);
    }
    let result = f();
    for (&(name, _), old) in vars.iter().zip(&saved) {
        set(name, old.as_deref());
    }
    result
}

/// [`with_vars`] for one variable.
fn with_env<R>(name: &str, value: Option<&str>, f: impl FnOnce() -> R) -> R {
    with_vars(&[(name, value)], f)
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
    // (value, sweep_progress): the observational knob is off unless set.
    let matrix: [(Option<&str>, bool); 4] = [
        (None, false),
        (Some(""), false),
        (Some("0"), false),
        (Some("1"), true),
    ];
    for (value, progress) in matrix {
        assert_eq!(
            with_env("MILLIPEDE_SWEEP_PROGRESS", value, sweep_progress_from_env),
            progress,
            "MILLIPEDE_SWEEP_PROGRESS={value:?}"
        );
    }
}

#[test]
fn retired_knobs_leave_every_default_unchanged() {
    // Fast-forward and telemetry are set by code (`SimConfig` fields,
    // `millipede-cli`'s `--trace-out`), never by the environment: with the
    // retired knobs set the other way, every default is what it is unset.
    let defaults = || {
        let sim = SimConfig::default();
        let millipede = MillipedeConfig::default();
        let ssmc = SsmcConfig::default();
        let gpgpu = GpgpuConfig::gpgpu();
        let multicore = MulticoreConfig::default();
        for (name, ff) in [
            ("SimConfig", sim.fast_forward),
            ("MillipedeConfig", millipede.fast_forward),
            ("SsmcConfig", ssmc.fast_forward),
            ("GpgpuConfig", gpgpu.fast_forward),
        ] {
            assert!(ff, "{name}::default has fast-forward off");
        }
        for (name, tel) in [
            ("SimConfig", &sim.telemetry),
            ("MillipedeConfig", &millipede.telemetry),
            ("SsmcConfig", &ssmc.telemetry),
            ("GpgpuConfig", &gpgpu.telemetry),
            ("MulticoreConfig", &multicore.telemetry),
        ] {
            assert_eq!(
                *tel,
                TelemetryConfig::default(),
                "{name}::default telemetry"
            );
        }
        format!("{sim:?}\n{millipede:?}\n{ssmc:?}\n{gpgpu:?}\n{multicore:?}")
    };
    let unset = with_vars(
        &[
            ("MILLIPEDE_FASTFORWARD", None),
            ("MILLIPEDE_TELEMETRY", None),
            ("MILLIPEDE_METRICS", None),
        ],
        defaults,
    );
    let set = with_vars(
        &[
            ("MILLIPEDE_FASTFORWARD", Some("0")),
            ("MILLIPEDE_TELEMETRY", Some("1")),
            ("MILLIPEDE_METRICS", Some("1")),
        ],
        defaults,
    );
    assert_eq!(unset, set);
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
