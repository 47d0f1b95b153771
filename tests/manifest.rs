//! Manifest-layer acceptance tests.
//!
//! Run manifests (DESIGN.md, "Observability") claim to be purely
//! observational: building the full manifest — each run's metrics
//! (`CoreStats::counters`, `DramStats::counters`, `JumpProfile::counters`
//! and the rest), config fingerprint, host self-profiling — must not
//! change any determinism digest on any
//! architecture. This suite pins that claim on all 8 variants, validates the
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
        // Plain run: no metrics, no manifest.
        let plain = run_one(arch, Benchmark::Count, &cfg);
        let plain_digest = digest_run(&plain);

        // Metrics-on run: build the run's metrics and render the complete
        // manifest document, then digest. Metrics are derived from the
        // finished result, so the digest must be bit-identical.
        let prof = SelfProfile::start();
        let with_metrics = run_one(arch, Benchmark::Count, &cfg);
        let metrics = manifest::run_metrics(&with_metrics);
        assert!(!metrics.is_empty(), "{label}: no metrics");
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
    let credit_jumps = ff
        .get("credit_jumps")
        .and_then(Json::as_f64)
        .expect("ff.credit_jumps");
    let profiled: u64 = runs.iter().map(|r| r.node.profile.credit_jumps).sum();
    assert_eq!(credit_jumps, profiled as f64, "host.ff.credit_jumps");
    let credit_issues = ff
        .get("credit_issues")
        .and_then(Json::as_f64)
        .expect("host.ff.credit_issues");
    let issues: u64 = runs.iter().map(|r| r.node.stats.issues).sum();
    assert!(
        credit_issues > 0.0 && credit_issues < issues as f64,
        "credit-paid issues {credit_issues} of {issues}"
    );
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
            .expect("run metrics");
        let prefix = r.arch.label().to_ascii_lowercase();
        for name in [
            "stats.instructions",
            "ff.jumps",
            "ff.fill_wakes",
            "ff.credit_jumps",
            "ff.credit_issues",
        ] {
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
        stdout.contains(manifest::SCHEMA) && stdout.contains("Millipede/count"),
        "render output:\n{stdout}"
    );
    // The per-run line carries the skipped-cycle share.
    let s = &r.node.stats;
    let share = 100.0 * s.ff_skipped_cycles as f64 / s.compute_cycles as f64;
    assert!(
        stdout.contains(&format!("{share:>5.1}% cycles skipped")),
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
