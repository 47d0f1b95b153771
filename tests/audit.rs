//! Tier-1 gate for the `millipede-audit` subsystem: the three layers the
//! audit tentpole introduces, exercised end to end.
//!
//! 1. **Lint pass** — the repo-specific static checks run over this very
//!    source tree and must come back clean (violations are either fixed or
//!    carry a reasoned `audit:allow`), and every lint must still fire on a
//!    crafted bad snippet (negative fixtures), so lint rot fails CI instead
//!    of passing silently.
//! 2. **Invariant sanitizer** — silent on a full valid Millipede trace with
//!    checks forced on, and loud on hand-built illegal traces.
//! 3. **Determinism** — each architecture's smoke configuration runs twice
//!    and must produce bit-identical full-result digests.

use millipede::core_arch::{ClockDomain, InvariantChecker, MillipedeConfig};
use millipede::dram::TimingAudit;
use millipede::sim::{check_determinism, Arch, SimConfig};
use millipede::workloads::{Benchmark, Workload};

// ---------------------------------------------------------------- lint pass

#[test]
fn source_tree_passes_the_lint_pass() {
    let root =
        millipede_audit::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
    let diagnostics = millipede_audit::audit_tree(&root).expect("tree walk");
    assert!(
        diagnostics.is_empty(),
        "millipede-audit found {} violation(s):\n{}",
        diagnostics.len(),
        diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

// ----------------------------------------------- lint negative fixtures
//
// Each lint must fire on a minimal bad snippet. The snippets are assembled
// with `concat` where needed so this test file never contains the trigger
// tokens itself. `scan_source` takes a workspace-relative path because
// several lints are scoped by crate (hot-path, wall-clock).

fn lints_found(rel_path: &str, content: &str) -> Vec<&'static str> {
    millipede_audit::scan_source(rel_path, content)
        .iter()
        .map(|d| d.lint.name())
        .collect()
}

#[test]
fn lint_module_doc_fires_on_undocumented_module() {
    let src = "pub fn x() {}\n";
    assert!(lints_found("crates/core/src/bad.rs", src).contains(&"module-doc"));
}

#[test]
fn lint_hash_iteration_fires_on_hash_containers() {
    let container = ["Hash", "Map"].concat();
    let src = format!("//! doc\nuse std::collections::{container};\n");
    assert!(lints_found("crates/core/src/bad.rs", &src).contains(&"hash-iteration"));
    let container = ["Hash", "Set"].concat();
    let src = format!("//! doc\nuse std::collections::{container};\n");
    assert!(lints_found("crates/sim/src/bad.rs", &src).contains(&"hash-iteration"));
}

#[test]
fn lint_cast_truncation_fires_on_narrowing_timing_cast() {
    let src = "//! doc\npub fn f(cycles: u64) -> u32 { cycles as u32 }\n";
    assert!(lints_found("crates/sim/src/bad.rs", src).contains(&"cast-truncation"));
}

#[test]
fn lint_unwrap_fires_in_hot_path_crates_only() {
    let src = "//! doc\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    // Hot-path crate: fires.
    assert!(lints_found("crates/engine/src/bad.rs", src).contains(&"unwrap-in-hot-path"));
    // Driver crate: allowed to unwrap on user input.
    assert!(!lints_found("crates/sim/src/ok.rs", src).contains(&"unwrap-in-hot-path"));
}

#[test]
fn lint_float_eq_fires_on_exact_literal_comparison() {
    let src = "//! doc\npub fn f(x: f64) -> bool { x == 1.0 }\n";
    assert!(lints_found("crates/core/src/bad.rs", src).contains(&"float-eq"));
}

#[test]
fn lint_wall_clock_fires_in_telemetry_only() {
    let src = "//! doc\nuse std::time::Instant;\n";
    assert!(lints_found("crates/telemetry/src/bad.rs", src).contains(&"wall-clock"));
    assert!(!lints_found("crates/core/src/ok.rs", src).contains(&"wall-clock"));
}

#[test]
fn lint_raw_fetch_fires_in_model_crates_only() {
    let src = "//! doc\npub fn f(p: &Program, pc: u32) -> Instr { *p.fetch(pc) }\n";
    // Timing-model crate: fires — per-cycle code must run on DecodedProgram.
    assert!(lints_found("crates/gpgpu/src/bad.rs", src).contains(&"raw-fetch"));
    // Reference interpreter: decodes freely.
    assert!(!lints_found("crates/engine/src/ok.rs", src).contains(&"raw-fetch"));
}

#[test]
fn lint_channel_edge_fires_in_model_crates_only() {
    let src = "//! doc\npub fn f(mc: &mut MemoryController, now: u64) { mc.tick(now); }\n";
    // Timing-model crate: fires — the driver owns the channel edge.
    assert!(lints_found("crates/ssmc/src/bad.rs", src).contains(&"channel-edge"));
    // The driver: ticks the controller for every model.
    assert!(!lints_found("crates/engine/src/ok.rs", src).contains(&"channel-edge"));
}

#[test]
fn lint_allow_escape_hatch_suppresses_with_reason() {
    let container = ["Hash", "Map"].concat();
    let src = format!(
        "//! doc\n// audit:allow(hash-iteration): negative-fixture exercise\n\
         use std::collections::{container};\n"
    );
    assert!(!lints_found("crates/core/src/ok.rs", &src).contains(&"hash-iteration"));
}

#[test]
fn every_lint_has_a_firing_negative_fixture() {
    // Completeness guard: if a new lint lands in the catalogue, it needs a
    // fixture in this file (and if a lint stops firing, the fixture tests
    // above catch it individually).
    let container = ["Hash", "Map"].concat();
    let hash_src = format!("//! doc\nuse std::collections::{container};\n");
    let fixtures: [(&str, String); 8] = [
        ("crates/core/src/a.rs", "pub fn x() {}\n".to_string()),
        ("crates/core/src/b.rs", hash_src),
        (
            "crates/sim/src/c.rs",
            "//! doc\npub fn f(cycles: u64) -> u32 { cycles as u32 }\n".to_string(),
        ),
        (
            "crates/engine/src/d.rs",
            "//! doc\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n".to_string(),
        ),
        (
            "crates/core/src/e.rs",
            "//! doc\npub fn f(x: f64) -> bool { x == 1.0 }\n".to_string(),
        ),
        (
            "crates/telemetry/src/f.rs",
            "//! doc\nuse std::time::Instant;\n".to_string(),
        ),
        (
            "crates/gpgpu/src/g.rs",
            "//! doc\npub fn f(p: &Program, pc: u32) -> Instr { *p.fetch(pc) }\n".to_string(),
        ),
        (
            "crates/core/src/h.rs",
            "//! doc\npub fn f(mc: &MemoryController) -> Option<u64> { mc.next_event_at() }\n"
                .to_string(),
        ),
    ];
    let mut fired: Vec<&str> = fixtures
        .iter()
        .flat_map(|(p, s)| lints_found(p, s))
        .collect();
    fired.sort_unstable();
    fired.dedup();
    let mut all: Vec<&str> = millipede_audit::Lint::ALL
        .iter()
        .map(|l| l.name())
        .collect();
    all.sort_unstable();
    assert_eq!(fired, all, "some lint has no firing negative fixture");
}

// ------------------------------------------------------ invariant sanitizer

#[test]
fn sanitizer_is_silent_on_a_valid_millipede_trace() {
    // Force the checks on regardless of build profile: a full timing run
    // probes every invariant (DF counters, head protection, trigger
    // liveness, tRC spacing, clock monotonicity) and `run` asserts the
    // checkers clean at end of run — reaching the output check proves it.
    let w = Workload::build(Benchmark::NBayes, 2, 2048, 7);
    let cfg = MillipedeConfig {
        invariant_checks: true,
        ..MillipedeConfig::default()
    };
    let r = millipede::core_arch::run(&w, &cfg);
    assert!(r.output_ok);
}

#[test]
fn sanitizer_is_silent_on_the_no_flow_control_ablation() {
    // Premature evictions are *legal* in the ablation; the sanitizer must
    // scope the head-protection invariant to flow-controlled runs.
    let w = Workload::build(Benchmark::Count, 2, 2048, 7);
    let cfg = MillipedeConfig {
        invariant_checks: true,
        pbuf_entries: 2, // make premature evictions certain
        ..MillipedeConfig::no_flow_control()
    };
    let r = millipede::core_arch::run(&w, &cfg);
    assert!(r.output_ok);
}

#[test]
fn sanitizer_trips_on_an_illegal_pbuf_trace() {
    // Hand-built trace: with flow control on, the head entry (row 0, DF
    // 1 of 2) is overwritten without having saturated — the §IV-C
    // violation flow control exists to prevent.
    let mut chk = InvariantChecker::new(true);
    chk.on_df_update(0, 0, 1, 2);
    chk.on_entry_realloc(0, 1, 2, true, false);
    assert_eq!(chk.violations().len(), 1);
    assert!(chk.violations()[0].contains("before saturation"));

    // And a regressing DF counter on an otherwise legal trace.
    let mut chk = InvariantChecker::new(true);
    chk.on_df_update(3, 5, 2, 4);
    chk.on_df_update(3, 5, 1, 4);
    assert!(!chk.is_clean());
}

#[test]
fn sanitizer_trips_on_an_illegal_dram_trace() {
    let timing = millipede::dram::DramTiming::default();
    let mut audit = TimingAudit::new(true, 4);
    let t_rc = timing.cycles_ps(timing.t_ras + timing.t_rp);
    audit.on_activation(0, 0, &timing);
    audit.on_activation(0, t_rc - 1, &timing); // one ps short of tRC
    assert_eq!(audit.violations().len(), 1);
    assert!(audit.violations()[0].contains("tRC"));
}

#[test]
fn sanitizer_trips_on_backwards_clock_edges() {
    let mut chk = InvariantChecker::new(true);
    chk.on_clock_edge(ClockDomain::Compute, 1_000);
    chk.on_clock_edge(ClockDomain::Channel, 500); // other domain: fine
    chk.on_clock_edge(ClockDomain::Compute, 999);
    assert_eq!(chk.violations().len(), 1);
    assert!(chk.violations()[0].contains("backwards"));
}

// ------------------------------------------------------------- determinism

#[test]
fn smoke_configs_are_deterministic_across_architectures() {
    let cfg = SimConfig {
        num_chunks: 2,
        ..Default::default()
    };
    for arch in [Arch::Gpgpu, Arch::Vws, Arch::Ssmc, Arch::Millipede] {
        let digest =
            check_determinism(arch, Benchmark::Count, &cfg).unwrap_or_else(|d| panic!("{d}"));
        assert_ne!(digest, 0, "{} digest must be non-trivial", arch.label());
    }
}

#[test]
fn ablations_and_multicore_are_deterministic_too() {
    let cfg = SimConfig {
        num_chunks: 2,
        ..Default::default()
    };
    for arch in [
        Arch::VwsRow,
        Arch::MillipedeNoFlowControl,
        Arch::MillipedeNoRateMatch,
        Arch::Multicore,
    ] {
        check_determinism(arch, Benchmark::Variance, &cfg).unwrap_or_else(|d| panic!("{d}"));
    }
}

#[test]
fn different_seeds_produce_different_digests() {
    // The digest must actually witness the result, not collapse to a
    // constant: a different dataset seed must change it.
    let a = SimConfig {
        num_chunks: 2,
        seed: 7,
        ..Default::default()
    };
    let b = SimConfig {
        num_chunks: 2,
        seed: 8,
        ..Default::default()
    };
    let da = check_determinism(Arch::Ssmc, Benchmark::Count, &a).unwrap();
    let db = check_determinism(Arch::Ssmc, Benchmark::Count, &b).unwrap();
    assert_ne!(da, db);
}
