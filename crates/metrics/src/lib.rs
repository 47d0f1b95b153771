//! Hierarchical metrics registry for the Millipede simulators.
//!
//! Three pieces, all host-side and purely observational:
//!
//! 1. **The registry** ([`Registry`]): typed counters and gauges keyed
//!    by stable dotted names (`millipede.stats.
//!    instructions`, `host.sweep.utilization`). Read-out order is name
//!    order (a `BTreeMap`), never insertion or hash order.
//! 2. **A strict JSON layer** ([`json`]): a dependency-free parser and the
//!    escaping/number-formatting helpers every manifest writer and the
//!    `millipede-cli report` reader share.
//! 3. **Host self-profiling** ([`selfprof`]): wall-clock phase timers
//!    (decode/run/report) for the run manifest. That module is the one
//!    sanctioned wall-clock consumer in this crate — the `wall-clock`
//!    audit lint covers `crates/metrics` and exempts only
//!    `src/selfprof.rs`.
//!
//! Determinism contract: nothing in this crate is ever read back by a
//! timing model. Registries are populated *from* finished results, so
//! metrics are digest-invisible by construction (the determinism digest
//! hashes `RunResult` fields, not registries; pinned by
//! `tests/manifest.rs`).

#![warn(missing_docs)]

pub mod json;
pub mod selfprof;

pub use selfprof::SelfProfile;

use std::collections::BTreeMap;
use std::fmt;

/// A histogram summary: count, sum, and range of observed values.
///
/// Deliberately bucket-free: the manifest folds host-side latencies
/// (per-point sweep walls) into one streaming summary.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value (0 when empty).
    pub min: f64,
    /// Largest observed value (0 when empty).
    pub max: f64,
}

impl Histogram {
    /// Folds one observation into the summary.
    pub fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    /// Mean of the observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One typed metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotone event count.
    Counter(u64),
    /// Point-in-time measurement.
    Gauge(f64),
}

/// A name-ordered registry of typed metrics.
///
/// Names are dotted paths of lowercase `[a-z0-9_-]` segments; registering
/// under an invalid name, or re-registering a name with a different type,
/// panics — both are programming errors, not data errors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    entries: BTreeMap<String, Metric>,
}

/// Whether `name` is a valid dotted metric path: non-empty lowercase
/// `[a-z0-9_-]` segments separated by single dots.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.split('.').all(|seg| {
            !seg.is_empty()
                && seg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-')
        })
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds `delta` to the counter `name`, creating it at zero first.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name or if `name` is registered as a
    /// different metric type.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        assert!(valid_name(name), "invalid metric name `{name}`");
        match self
            .entries
            .entry(name.to_string())
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(v) => *v += delta,
            other => panic!("metric `{name}` is not a counter: {other:?}"),
        }
    }

    /// Sets the gauge `name` to `value`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name or if `name` is registered as a
    /// different metric type.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        assert!(valid_name(name), "invalid metric name `{name}`");
        match self
            .entries
            .entry(name.to_string())
            .or_insert(Metric::Gauge(0.0))
        {
            Metric::Gauge(v) => *v = value,
            other => panic!("metric `{name}` is not a gauge: {other:?}"),
        }
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.entries.get(name)
    }

    /// The registered metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Renders the registry as one JSON object, keys in name order.
    /// Counters render as integers, gauges as numbers.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, metric)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":", json::escape(name)));
            match metric {
                Metric::Counter(v) => out.push_str(&v.to_string()),
                Metric::Gauge(v) => out.push_str(&json::fmt_f64(*v)),
            }
        }
        out.push('}');
        out
    }
}

impl fmt::Display for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, metric) in self.iter() {
            match metric {
                Metric::Counter(v) => writeln!(f, "{name} = {v}")?,
                Metric::Gauge(v) => writeln!(f, "{name} = {v}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render_sorted() {
        let mut r = Registry::new();
        r.counter_add("b.two", 2);
        r.counter_add("a.one", 1);
        r.counter_add("b.two", 3);
        assert_eq!(r.get("b.two"), Some(&Metric::Counter(5)));
        assert_eq!(r.to_json(), "{\"a.one\":1,\"b.two\":5}");
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = Registry::new();
        r.gauge_set("host.util", 0.25);
        r.gauge_set("host.util", 0.5);
        assert_eq!(r.get("host.util"), Some(&Metric::Gauge(0.5)));
    }

    #[test]
    fn histograms_summarize() {
        let mut h = Histogram::default();
        for v in [3.0, 1.0, 2.0] {
            h.observe(v);
        }
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 3.0);
        assert!((h.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_confusion_panics() {
        let mut r = Registry::new();
        r.gauge_set("x.y", 1.0);
        r.counter_add("x.y", 1);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_panic() {
        Registry::new().counter_add("Bad.Name", 1);
    }

    #[test]
    fn name_validation() {
        assert!(valid_name("a.b_c.d-1"));
        assert!(valid_name("vws-row.stats.instructions"));
        assert!(!valid_name(""));
        assert!(!valid_name("a..b"));
        assert!(!valid_name(".a"));
        assert!(!valid_name("a.B"));
        assert!(!valid_name("a b"));
    }

    #[test]
    fn registry_json_reparses() {
        let mut r = Registry::new();
        r.counter_add("c.n", 7);
        r.gauge_set("g.v", 1.5);
        let doc = json::Json::parse(&r.to_json()).expect("valid json");
        assert_eq!(doc.get("c.n").and_then(json::Json::as_f64), Some(7.0));
        assert_eq!(doc.get("g.v").and_then(json::Json::as_f64), Some(1.5));
    }
}
