//! Cycle-domain telemetry for the Millipede simulators.
//!
//! The [`Telemetry`] recorder is the single handle a model threads through
//! its run loop. It keeps, all purely observational:
//!
//! 1. **Time series**: every series is sampled once per configurable
//!    *epoch* of compute cycles, stamped with the compute cycle and the
//!    simulated picosecond time of that cycle's edge.
//! 2. **Events**: discrete events (row-buffer conflicts, frequency steps,
//!    flow-control blocks) go into a bounded buffer that counts drops
//!    instead of reallocating.
//!
//! [`export::chrome_trace`] renders both as Chrome-trace/Perfetto JSON.
//! Constructed disabled ([`Telemetry::off`]) the recorder is a no-op sink
//! — a `None` checked per call, no allocation — so instrumentation costs
//! nothing when telemetry is off (the default).
//!
//! Determinism rules, enforced by tests and the repo lint pass:
//!
//! - every timestamp is *simulated* (cycle count or picoseconds derived
//!   from the dual-clock); wall-clock sources (`Instant`, `SystemTime`)
//!   are forbidden in this crate;
//! - read-out order is fixed by `(track, name)` key order, never by
//!   allocation or hash order;
//! - telemetry is excluded from determinism digests exactly like
//!   `ff_skipped_cycles`: digests are bit-identical with telemetry on or
//!   off, including under fast-forward, whose jumps stop on every epoch
//!   boundary ([`Telemetry::next_boundary`]) so each sample reads the
//!   state on that edge.

pub mod config;
pub mod export;

pub use config::TelemetryConfig;

use std::collections::BTreeMap;

/// One sample of a counter series at a compute-cycle epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Compute cycle the sample describes.
    pub cycle: u64,
    /// Simulated time of that cycle's compute edge, in picoseconds.
    pub time_ps: u64,
    /// The sampled value.
    pub value: f64,
}

/// One discrete event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Domain track, e.g. `"dram::controller"`.
    pub track: &'static str,
    /// Event name, e.g. `"row_conflict"`.
    pub name: &'static str,
    /// Compute cycle the event occurred on.
    pub cycle: u64,
    /// Simulated time in picoseconds.
    pub time_ps: u64,
    /// Event payload (row index, new frequency in MHz, ...).
    pub value: f64,
}

/// Live recorder state, boxed so a disabled [`Telemetry`] is pointer-sized.
#[derive(Debug, Clone)]
struct Recorder {
    /// Sampling epoch in compute cycles.
    epoch: u64,
    /// Next epoch boundary (in compute cycles) that has not been sampled.
    next_due: u64,
    /// Every series, keyed by `(track, name)`: a `BTreeMap`, so read-out
    /// follows key order whatever order the model recorded in.
    series: BTreeMap<(&'static str, &'static str), Vec<Sample>>,
    /// Retained events, allocated to `event_capacity` up front. Once full,
    /// further events only bump `dropped`: keeping the head keeps the
    /// startup transient the paper's dynamic mechanisms are about, and
    /// depends on nothing but the (deterministic) recording order.
    events: Vec<Event>,
    event_capacity: usize,
    dropped: u64,
}

/// Telemetry handle for one simulated run.
///
/// Disabled, it drops everything; enabled, it records series samples and
/// discrete events. Either way it never influences simulated behaviour.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    rec: Option<Box<Recorder>>,
}

impl Telemetry {
    /// A disabled, allocation-free sink.
    pub fn off() -> Telemetry {
        Telemetry { rec: None }
    }

    /// Builds a sink from the configuration: a live recorder when
    /// `cfg.enabled`, otherwise the same no-op as [`Telemetry::off`].
    pub fn new(cfg: &TelemetryConfig) -> Telemetry {
        if !cfg.enabled {
            return Telemetry::off();
        }
        assert!(cfg.epoch_cycles > 0, "sampling epoch must be positive");
        assert!(cfg.event_capacity > 0, "event capacity must be positive");
        Telemetry {
            rec: Some(Box::new(Recorder {
                epoch: cfg.epoch_cycles,
                next_due: cfg.epoch_cycles,
                series: BTreeMap::new(),
                events: Vec::with_capacity(cfg.event_capacity),
                event_capacity: cfg.event_capacity,
                dropped: 0,
            })),
        }
    }

    /// Whether this sink records anything.
    pub fn enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// The next epoch boundary that has not been sampled yet (`None` when
    /// disabled). The run loop ends a fast-forward jump there.
    pub fn next_boundary(&self) -> Option<u64> {
        self.rec.as_ref().map(|r| r.next_due)
    }

    /// Returns the next epoch boundary at or below `cycle` that has not
    /// been sampled yet, and advances past it. Returns `None` when
    /// disabled, so instrumented loops cost one branch per cycle with
    /// telemetry off.
    pub fn next_due(&mut self, cycle: u64) -> Option<u64> {
        let r = self.rec.as_deref_mut()?;
        if cycle < r.next_due {
            return None;
        }
        let due = r.next_due;
        r.next_due += r.epoch;
        due.into()
    }

    /// Records one sample of the `(track, name)` series.
    pub fn counter(
        &mut self,
        track: &'static str,
        name: &'static str,
        cycle: u64,
        time_ps: u64,
        value: f64,
    ) {
        if let Some(r) = self.rec.as_deref_mut() {
            r.series.entry((track, name)).or_default().push(Sample {
                cycle,
                time_ps,
                value,
            });
        }
    }

    /// Records one discrete event, or counts it as dropped once the event
    /// buffer is full.
    pub fn event(
        &mut self,
        track: &'static str,
        name: &'static str,
        cycle: u64,
        time_ps: u64,
        value: f64,
    ) {
        if let Some(r) = self.rec.as_deref_mut() {
            if r.events.len() < r.event_capacity {
                r.events.push(Event {
                    track,
                    name,
                    cycle,
                    time_ps,
                    value,
                });
            } else {
                r.dropped += 1;
            }
        }
    }

    /// The samples of one series, empty if disabled or never recorded.
    pub fn samples<'s>(&'s self, track: &str, name: &str) -> &'s [Sample] {
        self.series_iter()
            .find(|&(t, n, _)| t == track && n == name)
            .map_or(&[], |(_, _, samples)| samples)
    }

    /// Iterates every recorded series in `(track, name)` order.
    pub fn series_iter(&self) -> impl Iterator<Item = (&'static str, &'static str, &[Sample])> {
        self.rec
            .as_deref()
            .into_iter()
            .flat_map(|r| r.series.iter())
            .map(|(&(track, name), samples)| (track, name, samples.as_slice()))
    }

    /// Number of distinct recorded series.
    pub fn series_len(&self) -> usize {
        self.rec.as_deref().map_or(0, |r| r.series.len())
    }

    /// Total samples across every series.
    pub fn total_samples(&self) -> u64 {
        self.series_iter().map(|(_, _, s)| s.len() as u64).sum()
    }

    /// The retained events, in recording order.
    pub fn events(&self) -> &[Event] {
        self.rec.as_deref().map_or(&[], |r| &r.events)
    }

    /// Events discarded after the event buffer filled.
    pub fn dropped_events(&self) -> u64 {
        self.rec.as_deref().map_or(0, |r| r.dropped)
    }

    /// The event buffer capacity (`None` when disabled).
    pub fn event_capacity(&self) -> Option<usize> {
        self.rec.as_deref().map(|r| r.event_capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_sink_records_nothing() {
        let mut t = Telemetry::off();
        assert!(!t.enabled());
        assert_eq!(t.next_due(1_000_000), None);
        assert_eq!(t.next_boundary(), None);
        t.counter("a", "b", 1, 1, 1.0);
        t.event("a", "b", 1, 1, 1.0);
        assert_eq!(t.total_samples(), 0);
        assert!(t.events().is_empty());
        assert_eq!(t.event_capacity(), None);
    }

    #[test]
    fn disabled_config_yields_off_sink() {
        let t = Telemetry::new(&TelemetryConfig::default());
        assert!(!t.enabled());
    }

    #[test]
    fn next_due_yields_each_epoch_boundary_once() {
        let mut t = Telemetry::new(&TelemetryConfig::enabled_with_epoch(4));
        assert_eq!(t.next_boundary(), Some(4));
        assert_eq!(t.next_due(3), None);
        assert_eq!(t.next_due(4), Some(4));
        assert_eq!(t.next_boundary(), Some(8));
        assert_eq!(t.next_due(4), None);
        assert_eq!(t.next_due(7), None);
        assert_eq!(t.next_due(8), Some(8));
        assert_eq!(t.next_due(8), None);
    }

    #[test]
    fn sample_count_matches_cycles_over_epoch() {
        let mut t = Telemetry::new(&TelemetryConfig::enabled_with_epoch(8));
        for cycle in 1..=100 {
            while let Some(due) = t.next_due(cycle) {
                t.counter("core", "x", due, due * 1429, due as f64);
            }
        }
        assert_eq!(t.total_samples(), 100 / 8);
        assert_eq!(t.samples("core", "x").len(), 12);
    }

    #[test]
    fn push_and_read_back() {
        let mut t = Telemetry::new(&TelemetryConfig::enabled_with_epoch(1024));
        t.counter("core::pbuf", "occupancy", 1024, 1_463_296, 5.0);
        assert_eq!(t.samples("core::pbuf", "occupancy").len(), 1);
        assert!(t.samples("core::pbuf", "missing").is_empty());
        assert_eq!(t.series_len(), 1);
        assert_eq!(t.total_samples(), 1);
    }

    #[test]
    fn iteration_order_is_key_order_not_insertion_order() {
        let mut t = Telemetry::new(&TelemetryConfig::enabled_with_epoch(1));
        t.counter("z", "late", 0, 0, 0.0);
        t.counter("a", "early", 0, 0, 0.0);
        let keys: Vec<(&str, &str)> = t.series_iter().map(|(t, n, _)| (t, n)).collect();
        assert_eq!(keys, vec![("a", "early"), ("z", "late")]);
    }

    #[test]
    fn overflow_drops_instead_of_reallocating() {
        let mut t = Telemetry::new(&TelemetryConfig {
            event_capacity: 4,
            ..TelemetryConfig::enabled_with_epoch(1)
        });
        let backing = |t: &Telemetry| t.rec.as_ref().map(|r| r.events.capacity());
        let before = backing(&t);
        for c in 0..10 {
            t.event("t", "n", c, c * 1429, 1.0);
        }
        assert_eq!(t.events().len(), 4);
        assert_eq!(t.dropped_events(), 6);
        // The backing store never grew: overflow is counted, not stored.
        assert_eq!(backing(&t), before);
        // The earliest events are the ones retained.
        assert_eq!(t.events()[0].cycle, 0);
        assert_eq!(t.events()[3].cycle, 3);
    }
}
