//! Manifest-layer acceptance tests.
//!
//! The metrics registry and run manifests (DESIGN.md, "Observability")
//! claim to be purely observational: building the full manifest — registry
//! registration through the shared `Instrumented` layer, config
//! fingerprint, host self-profiling — must not change any determinism
//! digest on any architecture, with the `MILLIPEDE_METRICS` knob on or
//! off. This suite pins that claim on all 8 variants, validates the
//! emitted document against the strict in-repo JSON parser, and drives
//! `millipede-cli report` (render and `--diff`) end-to-end.

use millipede::metrics::json::Json;
use millipede::metrics::SelfProfile;
use millipede::sim::manifest::{self, ManifestRun};
use millipede::sim::{digest_run, run_one, Arch, SimConfig};
use millipede::workloads::Benchmark;
use std::process::Command;

const ALL_ARCHS: [Arch; 8] = [
    Arch::Gpgpu,
    Arch::Vws,
    Arch::Ssmc,
    Arch::MillipedeNoFlowControl,
    Arch::VwsRow,
    Arch::MillipedeNoRateMatch,
    Arch::Millipede,
    Arch::Multicore,
];

fn config() -> SimConfig {
    SimConfig {
        num_chunks: 4,
        ..SimConfig::default()
    }
}

#[test]
fn manifests_are_digest_invisible_on_every_arch() {
    let cfg = config();
    for arch in ALL_ARCHS {
        let label = arch.label();
        // Plain run: no registry, no manifest.
        let plain = run_one(arch, Benchmark::Count, &cfg);
        let plain_digest = digest_run(&plain);

        // Metrics-on run: build the full registry and render the complete
        // manifest document, then digest. Metrics are derived from the
        // finished result, so the digest must be bit-identical.
        let prof = SelfProfile::start();
        let with_metrics = run_one(arch, Benchmark::Count, &cfg);
        let registry = manifest::run_registry(&with_metrics);
        assert!(!registry.is_empty(), "{label}: empty registry");
        let doc = manifest::render(&cfg, &prof, 1, &[ManifestRun::new(&with_metrics, &cfg)]);
        assert!(!doc.is_empty());
        assert_eq!(
            digest_run(&with_metrics),
            plain_digest,
            "{label}: building the manifest changed the digest"
        );
    }
}

#[test]
fn metrics_env_knob_is_digest_invisible_on_every_arch() {
    // The env knob only gates collection in the drivers, never simulation;
    // digests must be identical with MILLIPEDE_METRICS set and unset.
    let cfg = config();
    let baseline: Vec<u64> = ALL_ARCHS
        .iter()
        .map(|&arch| digest_run(&run_one(arch, Benchmark::Count, &cfg)))
        .collect();
    std::env::set_var("MILLIPEDE_METRICS", "1");
    assert!(millipede::metrics::MetricsConfig::from_env().enabled);
    let with_knob: Vec<u64> = ALL_ARCHS
        .iter()
        .map(|&arch| digest_run(&run_one(arch, Benchmark::Count, &cfg)))
        .collect();
    std::env::remove_var("MILLIPEDE_METRICS");
    assert_eq!(baseline, with_knob, "MILLIPEDE_METRICS changed a digest");
}

#[test]
fn rendered_manifest_is_schema_valid_with_populated_self_profiling() {
    let cfg = config();
    let mut prof = SelfProfile::start();
    prof.begin("decode");
    prof.begin("run");
    let runs: Vec<_> = [Arch::Millipede, Arch::Ssmc]
        .iter()
        .map(|&arch| run_one(arch, Benchmark::Count, &cfg))
        .collect();
    prof.begin("report");
    let entries: Vec<ManifestRun> = runs.iter().map(|r| ManifestRun::new(r, &cfg)).collect();
    prof.end();
    let doc = manifest::render(&cfg, &prof, 1, &entries);

    let json = manifest::parse(&doc).expect("manifest must satisfy the strict parser");
    let host = json.get("host").expect("host section");
    for key in [
        "retired_instructions_per_sec",
        "walked_edges_per_sec",
        "ff_skipped_ratio",
        "telemetry_dropped_events",
        "total_ms",
    ] {
        assert!(
            host.get(key).and_then(Json::as_f64).is_some(),
            "host.{key} missing"
        );
    }
    assert!(
        host.get("retired_instructions_per_sec")
            .and_then(Json::as_f64)
            .expect("rate")
            > 0.0
    );
    let ff = host.get("ff").expect("host.ff jump counters");
    let jumps = ff.get("jumps").and_then(Json::as_f64).expect("ff.jumps");
    let fill_wakes = ff
        .get("fill_wakes")
        .and_then(Json::as_f64)
        .expect("ff.fill_wakes");
    assert!(fill_wakes <= jumps, "every fill wake ends a jump");
    let phases = host
        .get("phases_ms")
        .and_then(Json::as_object)
        .expect("phases_ms");
    for phase in ["decode", "run", "report"] {
        assert!(
            phases.iter().any(|(n, _)| n == phase),
            "phase {phase} missing from {phases:?}"
        );
    }
    let parsed_runs = json.get("runs").and_then(Json::as_array).expect("runs");
    assert_eq!(parsed_runs.len(), 2);
    for (run, r) in parsed_runs.iter().zip(&runs) {
        assert_eq!(
            run.get("digest").and_then(Json::as_str),
            Some(format!("{:#018x}", digest_run(r)).as_str())
        );
        let metrics = run
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics registry");
        let prefix = r.arch.label().to_ascii_lowercase();
        for name in ["stats.instructions", "ff.jumps", "ff.fill_wakes"] {
            assert!(
                metrics
                    .iter()
                    .any(|(n, _)| n == &format!("{prefix}.{name}")),
                "missing {prefix}.{name}"
            );
        }
    }
}

#[test]
fn report_renders_and_diffs_real_manifests() {
    let dir = std::env::temp_dir().join(format!("millipede-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cfg = config();
    let prof = SelfProfile::start();
    let r = run_one(Arch::Millipede, Benchmark::Count, &cfg);
    let doc = manifest::render(&cfg, &prof, 1, &[ManifestRun::new(&r, &cfg)]);
    let a = dir.join("a.json");
    std::fs::write(&a, &doc).expect("write manifest");

    let out = Command::new(env!("CARGO_BIN_EXE_millipede-cli"))
        .arg("report")
        .arg(&a)
        .output()
        .expect("run millipede-cli");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("millipede-manifest/2") && stdout.contains("Millipede/count"),
        "render output:\n{stdout}"
    );

    let out = Command::new(env!("CARGO_BIN_EXE_millipede-cli"))
        .args(["report", "--diff"])
        .arg(&a)
        .arg(&a)
        .output()
        .expect("run millipede-cli");
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("agree"),
        "self-diff must report agreement"
    );

    std::fs::remove_dir_all(&dir).ok();
}
