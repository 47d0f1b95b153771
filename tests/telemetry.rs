//! Differential and shape tests for cycle-domain telemetry.
//!
//! Telemetry (DESIGN.md, "Telemetry") claims to be purely observational:
//! enabling it must not change any observable simulated quantity — digests,
//! counters, timing, energy, or reduced output — under either cycling
//! schedule (`fast_forward` on or off). It also claims to be deterministic
//! in its *own* output: the recorded series and events are bit-identical
//! whether idle cycles were fast-forwarded or stepped one by one, because
//! a fast-forward jump stops on every epoch boundary it crosses and the
//! sample there is read from the replayed state, not reconstructed. This
//! suite checks both claims, plus the Chrome-trace JSON shape, event-buffer
//! overflow accounting, the overflow warning, and the epoch arithmetic.

use millipede_sim::{digest_run, run_one, Arch, SimConfig, TelemetryConfig};
use millipede_workloads::Benchmark;

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

fn config(fast_forward: bool, telemetry: TelemetryConfig) -> SimConfig {
    SimConfig {
        num_chunks: 4,
        fast_forward,
        telemetry,
        ..SimConfig::default()
    }
}

#[test]
fn telemetry_is_digest_invisible_on_every_arch() {
    for ff in [false, true] {
        let off_cfg = config(ff, TelemetryConfig::default());
        let on_cfg = config(ff, TelemetryConfig::enabled_with_epoch(64));
        for arch in ALL_ARCHS {
            let off = run_one(arch, Benchmark::Count, &off_cfg);
            let on = run_one(arch, Benchmark::Count, &on_cfg);
            let label = format!("{} (fast_forward={ff})", arch.label());

            // The disabled sink records nothing; the enabled one must have
            // something to say on every architecture, or the differential
            // is vacuous.
            assert!(!off.node.telemetry.enabled(), "{label}");
            assert!(on.node.telemetry.enabled(), "{label}");
            assert!(on.node.telemetry.total_samples() > 0, "{label}");

            // Bit-identical observables: telemetry never feeds back.
            assert_eq!(digest_run(&off), digest_run(&on), "{label}");
            assert_eq!(off.node.stats, on.node.stats, "{label}");
            assert_eq!(off.node.elapsed_ps, on.node.elapsed_ps, "{label}");
            assert_eq!(off.node.dram, on.node.dram, "{label}");
            assert_eq!(off.node.output, on.node.output, "{label}");
            assert_eq!(off.energy.total_pj(), on.energy.total_pj(), "{label}");
        }
    }
}

#[test]
fn recorded_telemetry_is_bit_identical_under_fast_forward() {
    // The stronger claim: not only do digests hold, the telemetry *itself*
    // must be bit-identical whether idle cycles were stepped or skipped —
    // jumps stop on every epoch boundary, so each sample reads real state.
    // That covers the slot ledger and replayed stalls the driver samples
    // on the `node` track of every event-driven model (and no model
    // repeats them on a track of its own).
    //
    // SSMC gemm adds epoch samples taken while cores sleep through their
    // credit runs: `ssmc::l1/misses` must include the L1-miss recounts the
    // sleepers still owe.
    let tel = TelemetryConfig::enabled_with_epoch(64);
    let ledger = ["issue_slots", "stall_slots", "demand_stalls"];
    let points = ALL_ARCHS
        .into_iter()
        .filter(|&a| a != Arch::Multicore)
        .map(|a| (a, Benchmark::Count))
        .chain([(Arch::Ssmc, Benchmark::Gemm)]);
    for (arch, bench) in points {
        let slow = run_one(arch, bench, &config(false, tel.clone()));
        let fast = run_one(arch, bench, &config(true, tel.clone()));
        let label = format!("{} on {}", arch.label(), bench.name());
        if bench == Benchmark::Gemm {
            assert!(fast.node.profile.slept > 0, "{label}: no core slept");
        }
        assert!(
            fast.node.stats.ff_skipped_cycles > 0,
            "{label}: fast-forward never engaged — the differential is vacuous"
        );
        let (st, ft) = (&slow.node.telemetry, &fast.node.telemetry);
        for name in ledger {
            assert!(!ft.samples("node", name).is_empty(), "{label}: node/{name}");
        }
        for (track, name, _) in ft.series_iter() {
            assert!(
                track == "node" || !ledger.contains(&name),
                "{label}: {track}/{name}"
            );
        }
        assert_eq!(st.series_len(), ft.series_len(), "{label}");
        for ((s_track, s_name, s_samples), (f_track, f_name, f_samples)) in
            st.series_iter().zip(ft.series_iter())
        {
            assert_eq!((s_track, s_name), (f_track, f_name), "{label}");
            assert_eq!(s_samples, f_samples, "{label}: {s_track}/{s_name}");
        }
        assert_eq!(st.events(), ft.events(), "{label}");
        assert_eq!(st.dropped_events(), ft.dropped_events(), "{label}");
    }
}

#[test]
fn chrome_trace_shape_is_valid() {
    let cfg = config(true, TelemetryConfig::enabled_with_epoch(64));
    let r = run_one(Arch::Millipede, Benchmark::Count, &cfg);
    let json = millipede_sim::report::chrome_trace(&[&r]);

    // Well-formed document: balanced delimiters, proper envelope.
    assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(json.ends_with("]}\n"));
    for (open, close) in [('{', '}'), ('[', ']')] {
        let opens = json.matches(open).count();
        let closes = json.matches(close).count();
        assert_eq!(opens, closes, "unbalanced {open}{close}");
    }

    // Every event is a metadata record or a complete/counter event — the
    // phases that need no matching begin/end pair — and timed events are
    // globally monotone in ts.
    let mut last_ts = 0u64;
    let mut timed = 0usize;
    for line in json.lines().skip(1) {
        let line = line.strip_suffix(',').unwrap_or(line);
        if !line.starts_with('{') {
            continue; // the closing "]}" line
        }
        let phase = ["\"ph\":\"M\"", "\"ph\":\"C\"", "\"ph\":\"X\""]
            .iter()
            .find(|p| line.contains(*p));
        assert!(phase.is_some(), "unexpected phase in {line}");
        if let Some(ts_at) = line.find("\"ts\":") {
            let digits: String = line[ts_at + 5..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            let ts: u64 = digits.parse().expect("integer ts");
            assert!(ts >= last_ts, "ts went backwards at {line}");
            last_ts = ts;
            timed += 1;
        }
    }
    assert!(timed > 0, "trace contains no timed events");

    // The tracks the issue promises for Millipede are all populated.
    for track in [
        "core::pbuf/occupancy",
        "core::rate/frequency_mhz",
        "dram::controller/row_hits",
        "dram::controller/row_misses",
    ] {
        assert!(json.contains(track), "missing counter track {track}");
    }
}

#[test]
fn event_ring_overflow_drops_instead_of_growing() {
    let tiny_ring = TelemetryConfig {
        enabled: true,
        epoch_cycles: 64,
        event_capacity: 4,
    };
    let r = run_one(Arch::Millipede, Benchmark::Count, &config(true, tiny_ring));
    let tel = &r.node.telemetry;
    assert_eq!(tel.event_capacity(), Some(4));
    assert!(tel.events().len() <= 4, "ring grew past its capacity");
    assert!(
        tel.dropped_events() > 0,
        "expected overflow on a 4-entry ring (Millipede/count records more \
         than 4 discrete events)"
    );
    // Overflow is observational too: digests still match a no-telemetry run.
    let off = run_one(
        Arch::Millipede,
        Benchmark::Count,
        &config(true, TelemetryConfig::default()),
    );
    assert_eq!(digest_run(&off), digest_run(&r));
}

#[test]
fn telemetry_summary_warns_loudly_on_dropped_events() {
    let tiny_ring = TelemetryConfig {
        enabled: true,
        epoch_cycles: 64,
        event_capacity: 4,
    };
    let overflowed = run_one(Arch::Millipede, Benchmark::Count, &config(true, tiny_ring));
    assert!(
        overflowed.node.telemetry.dropped_events() > 0,
        "fixture must overflow its 4-entry ring"
    );
    let summary = millipede_sim::report::telemetry_warnings(&[&overflowed]);
    let dropped = format!("dropped={}", overflowed.node.telemetry.dropped_events());
    assert!(
        summary.contains("warning:") && summary.contains(&dropped),
        "overflow must produce a loud dropped=N warning, got:\n{summary}"
    );

    // A comfortable ring stays quiet.
    let clean = run_one(
        Arch::Millipede,
        Benchmark::Count,
        &config(true, TelemetryConfig::enabled_with_epoch(64)),
    );
    assert_eq!(clean.node.telemetry.dropped_events(), 0);
    let summary = millipede_sim::report::telemetry_warnings(&[&clean]);
    assert!(
        !summary.contains("warning:"),
        "no-drop run must not warn, got:\n{summary}"
    );
}

#[test]
fn epoch_sampling_count_matches_cycles_over_epoch() {
    for epoch in [64u64, 256, 1024] {
        let cfg = config(true, TelemetryConfig::enabled_with_epoch(epoch));
        let r = run_one(Arch::Millipede, Benchmark::Count, &cfg);
        let expected = r.node.stats.compute_cycles / epoch;
        for (track, name, samples) in r.node.telemetry.series_iter() {
            assert_eq!(
                samples.len() as u64,
                expected,
                "{track}/{name} at epoch {epoch}: {} compute cycles",
                r.node.stats.compute_cycles
            );
            // Samples sit exactly on epoch boundaries, in order.
            for (i, s) in samples.iter().enumerate() {
                assert_eq!(s.cycle, (i as u64 + 1) * epoch, "{track}/{name}");
            }
        }
    }
}
