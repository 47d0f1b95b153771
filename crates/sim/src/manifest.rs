//! Per-run JSON manifests (schema `millipede-manifest/3`).
//!
//! A manifest is the machine-readable record of what one driver invocation
//! simulated and what it cost the *host*: the configuration (plus a
//! fingerprint), every run's determinism digest and metrics (read from
//! the lists the digest hashes, `CoreStats::counters` and
//! `DramStats::counters`, and from `JumpProfile::counters`), and host
//! self-profiling — wall-clock per phase, retired-instructions/sec,
//! walked-edges/sec, the `JumpProfile` counters summed over the runs
//! (`host.ff`), skipped-cycle ratio, sweep-pool utilization, per-point
//! latency, and telemetry ring drop counts.
//!
//! Everything here is observational: manifests are built *from* finished
//! [`RunResult`]s, never read back by a timing model, so metrics are
//! digest-invisible by construction (pinned by `tests/manifest.rs`).
//! Documents are written with `format!` over the strict
//! [`millipede_metrics::json`] helpers and read back with the same
//! parser, so `millipede-cli report` and external JSON tools agree on
//! what is valid.

use crate::config::SimConfig;
use crate::determinism::{digest_run, Fnv1a};
use crate::runner::RunResult;
use millipede_engine::JumpProfile;
use millipede_metrics::json::{escape, fmt_f64, Json};
use millipede_metrics::SelfProfile;

/// The manifest schema identifier this module writes and checks.
pub const SCHEMA: &str = "millipede-manifest/3";

/// One run as it appears in a manifest: the result plus the sweep-point
/// context (`chunks`) and the wall time to record — callers
/// timing medians over repeated runs (the bench harness) substitute the
/// median for the single-run wall.
#[derive(Debug, Clone)]
pub struct ManifestRun<'a> {
    /// The completed run.
    pub result: &'a RunResult,
    /// Host wall milliseconds to record for this point.
    pub wall_ms: f64,
    /// Input size in chunks this point ran with.
    pub chunks: usize,
}

impl<'a> ManifestRun<'a> {
    /// Wraps a result with its config context, recording the result's own
    /// wall time.
    pub fn new(result: &'a RunResult, cfg: &SimConfig) -> ManifestRun<'a> {
        ManifestRun {
            result,
            wall_ms: result.wall.as_secs_f64() * 1e3,
            chunks: cfg.num_chunks,
        }
    }
}

/// FNV-1a fingerprint over every simulated-behaviour-relevant config
/// field, so two manifests are comparable iff their fingerprints match.
/// Observational knobs (telemetry, metrics) are deliberately excluded —
/// they cannot change results, and a trace-enabled rerun of a sweep should
/// still diff clean against it.
pub fn config_fingerprint(cfg: &SimConfig) -> u64 {
    let mut h = Fnv1a::new();
    for v in [
        cfg.num_chunks as u64,
        cfg.seed,
        cfg.row_bytes,
        cfg.corelets as u64,
        cfg.contexts as u64,
        u64::from(cfg.bandwidth_factor),
        cfg.pbuf_entries as u64,
        u64::from(cfg.fast_forward),
    ] {
        h.write_u64(v);
    }
    h.finish()
}

/// One run's metrics as `(dotted name, JSON number)` pairs in name order,
/// all under the run's arch prefix (its display label lowercased:
/// `Millipede` → `millipede`, `VWS-row` → `vws-row`). The counters come
/// from the lists the digest reads —
/// [`CoreStats::counters`](millipede_engine::CoreStats::counters) (plus
/// the skipped cycles and rate-match steps),
/// [`DramStats::counters`](millipede_dram::DramStats::counters) and
/// [`JumpProfile::counters`] — and the telemetry sink totals; the gauges
/// are the rate-match clock and the energy split.
pub fn run_metrics(r: &RunResult) -> Vec<(String, String)> {
    let prefix = r.arch.label().to_ascii_lowercase();
    let s = &r.node.stats;
    let tel = &r.node.telemetry;
    let stats = s.counters().into_iter().chain([
        ("ff_skipped_cycles", s.ff_skipped_cycles),
        ("rate_steps", s.rate_trace.len() as u64),
    ]);
    let telemetry = [
        ("series", tel.series_len() as u64),
        ("samples", tel.total_samples()),
        ("events", tel.events().len() as u64),
        ("dropped_events", tel.dropped_events()),
    ];
    let counters = stats
        .map(|c| ("stats", c))
        .chain(r.node.dram.counters().map(|c| ("dram", c)))
        .chain(r.node.profile.counters().map(|c| ("ff", c)))
        .chain(telemetry.map(|c| ("telemetry", c)));
    let gauges = [
        ("stats", ("rate_match_final_mhz", s.rate_match_final_mhz)),
        ("energy", ("core_pj", r.energy.core_pj)),
        ("energy", ("dram_pj", r.energy.dram_pj)),
        ("energy", ("static_pj", r.energy.static_pj)),
    ];
    let mut out: Vec<(String, String)> = counters
        .map(|(group, (name, v))| (format!("{prefix}.{group}.{name}"), v.to_string()))
        .chain(gauges.map(|(group, (name, v))| (format!("{prefix}.{group}.{name}"), fmt_f64(v))))
        .collect();
    out.sort();
    out
}

/// Renders a complete `millipede-manifest/3` document for one driver
/// invocation. `threads` is the sweep pool size the runs were fanned over
/// (1 for serial drivers); `prof` supplies the host phase walls.
pub fn render(cfg: &SimConfig, prof: &SelfProfile, threads: usize, runs: &[ManifestRun]) -> String {
    // Host-side aggregates. The `run` phase wall anchors every rate; a
    // driver that never opened phases falls back to its total wall.
    let run_phase_ms = {
        let ms = prof.phase_ms("run");
        if ms > 0.0 {
            ms
        } else {
            prof.total_ms()
        }
    };
    let run_secs = (run_phase_ms / 1e3).max(1e-9);
    let mut instructions: u64 = 0;
    let mut compute_cycles: u64 = 0;
    let mut ff_skipped: u64 = 0;
    let mut ff = JumpProfile::default().counters();
    let mut dropped: u64 = 0;
    for r in runs {
        let s = &r.result.node.stats;
        instructions += s.instructions;
        compute_cycles += s.compute_cycles;
        ff_skipped += s.ff_skipped_cycles;
        for (total, (_, v)) in ff.iter_mut().zip(r.result.node.profile.counters()) {
            total.1 += v;
        }
        dropped += r.result.node.telemetry.dropped_events();
    }
    let walls = || runs.iter().map(|r| r.wall_ms);
    let point_sum: f64 = walls().sum();
    let point_min = walls().reduce(f64::min).unwrap_or(0.0);
    let point_max = walls().reduce(f64::max).unwrap_or(0.0);
    let point_mean = if runs.is_empty() {
        0.0
    } else {
        point_sum / runs.len() as f64
    };
    // Edges the main loops actually walked (skipped edges are replayed by
    // count, not executed).
    let walked_edges = compute_cycles.saturating_sub(ff_skipped);
    let threads = threads.max(1);
    let utilization = (point_sum / (threads as f64 * run_phase_ms.max(1e-9))).min(1.0);

    let phases: String = prof
        .phases()
        .iter()
        .map(|(name, ms)| format!("\"{}\":{}", escape(name), fmt_f64(*ms)))
        .collect::<Vec<_>>()
        .join(",");
    let ff: String = ff
        .iter()
        .map(|(name, v)| format!("\"{name}\":{v}"))
        .collect::<Vec<_>>()
        .join(",");

    let mut run_entries: Vec<String> = Vec::with_capacity(runs.len());
    for r in runs {
        let metrics: String = run_metrics(r.result)
            .iter()
            .map(|(name, v)| format!("\"{}\":{v}", escape(name)))
            .collect::<Vec<_>>()
            .join(",");
        run_entries.push(format!(
            "    {{\"label\":\"{}/{}\",\"arch\":\"{}\",\"bench\":\"{}\",\"chunks\":{},\
             \"digest\":\"{:#018x}\",\"elapsed_ps\":{},\
             \"wall_ms\":{},\"output_ok\":{},\"metrics\":{{{metrics}}}}}",
            escape(r.result.arch.label()),
            escape(r.result.bench.name()),
            escape(r.result.arch.label()),
            escape(r.result.bench.name()),
            r.chunks,
            digest_run(r.result),
            r.result.node.elapsed_ps,
            fmt_f64(r.wall_ms),
            r.result.node.output_ok,
        ));
    }

    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"config\": {{\"num_chunks\":{},\"seed\":{},\
         \"row_bytes\":{},\"corelets\":{},\"contexts\":{},\"bandwidth_factor\":{},\
         \"pbuf_entries\":{},\"fast_forward\":{},\"telemetry\":{},\
         \"fingerprint\":\"{:#018x}\"}},\n  \"host\": {{\"phases_ms\":{{{phases}}},\
         \"total_ms\":{},\"sweep\":{{\"threads\":{threads},\"points\":{},\
         \"utilization\":{},\"point_ms\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
         \"mean\":{}}}}},\"retired_instructions_per_sec\":{},\"walked_edges_per_sec\":{},\
         \"ff_skipped_ratio\":{},\"ff\":{{{ff}}},\
         \"telemetry_dropped_events\":{dropped}}},\n  \"runs\": [\n{}\n  ]\n}}\n",
        cfg.num_chunks,
        cfg.seed,
        cfg.row_bytes,
        cfg.corelets,
        cfg.contexts,
        cfg.bandwidth_factor,
        cfg.pbuf_entries,
        cfg.fast_forward,
        cfg.telemetry.enabled,
        config_fingerprint(cfg),
        fmt_f64(prof.total_ms()),
        runs.len(),
        fmt_f64(utilization),
        runs.len(),
        fmt_f64(point_sum),
        fmt_f64(point_min),
        fmt_f64(point_max),
        fmt_f64(point_mean),
        fmt_f64(instructions as f64 / run_secs),
        fmt_f64(walked_edges as f64 / run_secs),
        fmt_f64(ff_skipped as f64 / compute_cycles.max(1) as f64),
        run_entries.join(",\n"),
    )
}

/// Parses and validates a manifest document: strict JSON, the
/// `millipede-manifest/3` schema tag, and the `host` + `runs` sections
/// present.
pub fn parse(doc: &str) -> Result<Json, String> {
    let json = Json::parse(doc)?;
    match json.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => {}
        Some(s) => {
            return Err(format!(
                "unsupported manifest schema `{s}` (want `{SCHEMA}`)"
            ))
        }
        None => return Err("missing `schema` field".to_string()),
    }
    if json.get("host").and_then(Json::as_object).is_none() {
        return Err("missing `host` object".to_string());
    }
    if json.get("runs").and_then(Json::as_array).is_none() {
        return Err("missing `runs` array".to_string());
    }
    Ok(json)
}

/// Renders a parsed manifest as a human-readable report.
pub fn render_text(doc: &Json) -> String {
    let mut out = String::new();
    let cfg = doc.get("config");
    let fp = cfg
        .and_then(|c| c.get("fingerprint"))
        .and_then(Json::as_str)
        .unwrap_or("?");
    out.push_str(&format!("manifest {SCHEMA}: config {fp}\n"));
    if let Some(host) = doc.get("host") {
        if let Some(phases) = host.get("phases_ms").and_then(Json::as_object) {
            let cells: Vec<String> = phases
                .iter()
                .map(|(n, v)| format!("{n} {:.1} ms", v.as_f64().unwrap_or(0.0)))
                .collect();
            out.push_str(&format!("host phases: {}\n", cells.join(", ")));
        }
        for (key, label) in [
            ("retired_instructions_per_sec", "retired instructions/sec"),
            ("walked_edges_per_sec", "walked edges/sec"),
            ("ff_skipped_ratio", "FF skipped-cycle ratio"),
            ("telemetry_dropped_events", "telemetry dropped events"),
        ] {
            if let Some(v) = host.get(key).and_then(Json::as_f64) {
                out.push_str(&format!("{label}: {v:.3}\n"));
            }
        }
        if let Some(ff) = host.get("ff").and_then(Json::as_object) {
            let cells: Vec<String> = ff
                .iter()
                .map(|(n, v)| format!("{n} {}", v.as_f64().unwrap_or(0.0)))
                .collect();
            out.push_str(&format!("fast-forward: {}\n", cells.join(", ")));
        }
        if let Some(sweep) = host.get("sweep") {
            out.push_str(&format!(
                "sweep: {} point(s) over {} thread(s), utilization {:.2}\n",
                sweep.get("points").and_then(Json::as_f64).unwrap_or(0.0),
                sweep.get("threads").and_then(Json::as_f64).unwrap_or(1.0),
                sweep
                    .get("utilization")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
            ));
        }
    }
    if let Some(runs) = doc.get("runs").and_then(Json::as_array) {
        for run in runs {
            let metrics = run.get("metrics").and_then(Json::as_object);
            // The run's one `<prefix>.stats.<name>` counter.
            let stat = |name: &str| {
                let suffix = format!(".stats.{name}");
                metrics
                    .and_then(|m| m.iter().find(|(n, _)| n.ends_with(&suffix)))
                    .and_then(|(_, v)| v.as_f64())
                    .unwrap_or(0.0)
            };
            let skipped = 100.0 * stat("ff_skipped_cycles") / stat("compute_cycles").max(1.0);
            out.push_str(&format!(
                "  {:<40} {:>12.1} us simulated, {:>9.1} ms host, {:>5.1}% cycles skipped, \
                 {} metric(s)\n",
                run.get("label").and_then(Json::as_str).unwrap_or("?"),
                run.get("elapsed_ps").and_then(Json::as_f64).unwrap_or(0.0) / 1e6,
                run.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0),
                skipped,
                metrics.map_or(0, <[_]>::len),
            ));
        }
    }
    out
}

/// Flattens one manifest run's numeric observables (wall, simulated time,
/// and every run metric) for diffing.
fn numeric_metrics(run: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for key in ["wall_ms", "elapsed_ps"] {
        if let Some(v) = run.get(key).and_then(Json::as_f64) {
            out.push((key.to_string(), v));
        }
    }
    if let Some(metrics) = run.get("metrics").and_then(Json::as_object) {
        for (name, value) in metrics {
            if let Some(v) = value.as_f64() {
                out.push((name.clone(), v));
            }
        }
    }
    out
}

/// Diffs two parsed manifests run-by-run (matched on `label`): every
/// numeric observable that changed is listed with its relative delta, and
/// runs present in only one manifest are called out. Returns the rendered
/// diff (empty when nothing differs).
pub fn diff(a: &Json, b: &Json) -> String {
    let runs_of = |doc: &Json| -> Vec<(String, Vec<(String, f64)>)> {
        doc.get("runs")
            .and_then(Json::as_array)
            .map(|runs| {
                runs.iter()
                    .map(|r| {
                        (
                            r.get("label")
                                .and_then(Json::as_str)
                                .unwrap_or("?")
                                .to_string(),
                            numeric_metrics(r),
                        )
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let (a_runs, b_runs) = (runs_of(a), runs_of(b));
    let mut out = String::new();
    let fp = |doc: &Json| -> String {
        doc.get("config")
            .and_then(|c| c.get("fingerprint"))
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let (fa, fb) = (fp(a), fp(b));
    if fa != fb {
        out.push_str(&format!(
            "warning: config fingerprints differ ({fa} vs {fb}); runs are not like-for-like\n"
        ));
    }
    for (label, a_metrics) in &a_runs {
        let Some((_, b_metrics)) = b_runs.iter().find(|(l, _)| l == label) else {
            out.push_str(&format!("- {label}: only in first manifest\n"));
            continue;
        };
        for (name, va) in a_metrics {
            let Some((_, vb)) = b_metrics.iter().find(|(n, _)| n == name) else {
                continue;
            };
            if va != vb {
                // audit:allow(float-eq): exact-zero guard before division
                let pct = if *va == 0.0 {
                    f64::INFINITY
                } else {
                    100.0 * (vb - va) / va
                };
                out.push_str(&format!("  {label} {name}: {va} -> {vb} ({pct:+.1}%)\n"));
            }
        }
    }
    for (label, _) in &b_runs {
        if !a_runs.iter().any(|(l, _)| l == label) {
            out.push_str(&format!("+ {label}: only in second manifest\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Arch;
    use crate::runner::run_one;
    use millipede_workloads::Benchmark;

    fn tiny() -> SimConfig {
        SimConfig {
            num_chunks: 2,
            ..Default::default()
        }
    }

    fn sample_manifest() -> (String, SimConfig, u64) {
        let cfg = tiny();
        let r = run_one(Arch::Millipede, Benchmark::Count, &cfg);
        let digest = digest_run(&r);
        let prof = SelfProfile::start();
        let doc = render(&cfg, &prof, 1, &[ManifestRun::new(&r, &cfg)]);
        (doc, cfg, digest)
    }

    #[test]
    fn manifest_parses_and_carries_schema_and_digest() {
        let (doc, cfg, digest) = sample_manifest();
        let json = parse(&doc).expect("manifest must parse");
        let runs = json.get("runs").and_then(Json::as_array).expect("runs");
        assert_eq!(runs.len(), 1);
        assert_eq!(
            runs[0].get("digest").and_then(Json::as_str),
            Some(format!("{digest:#018x}").as_str())
        );
        assert_eq!(
            runs[0].get("label").and_then(Json::as_str),
            Some("Millipede/count")
        );
        assert_eq!(
            json.get("config")
                .and_then(|c| c.get("fingerprint"))
                .and_then(Json::as_str),
            Some(format!("{:#018x}", config_fingerprint(&cfg)).as_str())
        );
        let host = json.get("host").expect("host");
        assert!(
            host.get("retired_instructions_per_sec")
                .and_then(Json::as_f64)
                .expect("rate")
                > 0.0
        );
        let text = render_text(&json);
        let ff = host.get("ff").expect("host.ff");
        for (key, _) in JumpProfile::default().counters() {
            let n = ff.get(key).and_then(Json::as_f64);
            assert!(n.is_some(), "host.ff.{key} missing");
            assert!(text.contains(&format!("{key} ")), "{key}: {text}");
        }
    }

    #[test]
    fn run_metrics_cover_stats_dram_energy_and_ff_in_name_order() {
        let cfg = tiny();
        let r = run_one(Arch::Ssmc, Benchmark::Count, &cfg);
        let metrics = run_metrics(&r);
        let get = |name: &str| {
            metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.as_str())
        };
        let lists = [
            ("stats", r.node.stats.counters().to_vec()),
            ("dram", r.node.dram.counters().to_vec()),
            ("ff", r.node.profile.counters().to_vec()),
        ];
        for (group, list) in lists {
            for (name, v) in list {
                let key = format!("ssmc.{group}.{name}");
                assert_eq!(get(&key), Some(v.to_string().as_str()), "{key}");
            }
        }
        assert!(get("ssmc.stats.ff_skipped_cycles").is_some());
        assert!(get("ssmc.energy.core_pj").is_some());
        assert!(get("ssmc.telemetry.dropped_events").is_some());
        assert_ne!(get("ssmc.ff.slept"), Some("0"), "no SSMC core slept");
        assert!(
            metrics.windows(2).all(|w| w[0].0 < w[1].0),
            "metric names must be unique and in name order"
        );
    }

    #[test]
    fn config_fingerprint_tracks_simulated_knobs_only() {
        let base = tiny();
        let fp = config_fingerprint(&base);
        let mut t = tiny();
        t.seed += 1;
        assert_ne!(config_fingerprint(&t), fp);
        let mut t = tiny();
        t.telemetry.enabled = true;
        assert_eq!(
            config_fingerprint(&t),
            fp,
            "observational knobs must not change the fingerprint"
        );
    }

    #[test]
    fn diff_reports_changed_metrics_and_missing_runs() {
        let a = parse(&sample_manifest().0).expect("parse");
        let mut doc_b = sample_manifest().0;
        doc_b = doc_b.replace("\"wall_ms\":", "\"wall_ms\":9e9,\"was_wall_ms\":");
        let b = parse(&doc_b).expect("parse");
        let d = diff(&a, &b);
        assert!(d.contains("wall_ms"), "diff missing wall_ms change: {d}");
        assert!(diff(&a, &a).is_empty(), "self-diff must be empty");
    }
}
