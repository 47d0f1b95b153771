//! In-memory span recorder for the traced run.
//!
//! Every pass phase is timed through [`Tracer::begin`] / [`Tracer::end`]
//! whether tracing is on or off, so a traced and an untraced pass execute
//! the same code; tracing only adds the push of a [`Span`] record. Spans are
//! kept in memory and written at exit as Chrome-trace `"X"` events
//! ([`chrome_trace`]), each carrying its id, parent id, pass id and self
//! time ([`self_times`]).

use millipede::metrics::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Phase or point name (`pass`, `build`, `simulate`, a point label, ...).
    pub name: String,
    /// Unique id, starting at 1.
    pub id: u32,
    /// Id of the enclosing span; 0 for a root span.
    pub parent: u32,
    /// The pass this span belongs to.
    pub pass: u32,
    /// Start, in ns.
    pub start_ns: u64,
    /// End, in ns.
    pub end_ns: u64,
}

/// A span that has begun and not yet ended.
#[derive(Debug)]
pub struct Open {
    id: u32,
    parent: u32,
    start: Instant,
    name: Option<String>,
}

impl Open {
    /// The id children of this span name as their parent (0 when tracing
    /// is off).
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// Times phases and, when enabled, records them as spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    pass: u32,
    next_id: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer with recording off.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: false,
            pass: 0,
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// Turns span recording on or off and starts a new pass id.
    pub fn start_pass(&mut self, record: bool) {
        self.enabled = record;
        self.pass += 1;
    }

    /// Starts timing `name` under `parent` (0 for a root span).
    pub fn begin(&mut self, name: &str, parent: u32) -> Open {
        let id = if self.enabled {
            self.next_id += 1;
            self.next_id - 1
        } else {
            0
        };
        Open {
            id,
            parent,
            name: self.enabled.then(|| name.to_string()),
            start: Instant::now(),
        }
    }

    /// Ends `open`, records it when tracing is on, and returns its duration
    /// in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(name) = open.name {
            let ns = |t: Instant| u64::try_from((t - self.origin).as_nanos()).unwrap_or(u64::MAX);
            self.spans.push(Span {
                name,
                id: open.id,
                parent: open.parent,
                pass: self.pass,
                start_ns: ns(open.start),
                end_ns: ns(end),
            });
        }
        (end - open.start).as_secs_f64()
    }

    /// Every recorded span, in end order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of each span in ns: its duration minus the part of its
/// interval that its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            let mut reach = s.start_ns;
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// The spans as a Chrome-trace JSON document (`chrome://tracing`,
/// Perfetto): one complete (`"X"`) event per span, in microseconds.
pub fn chrome_trace(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let events: Vec<String> = spans
        .iter()
        .zip(selfs)
        .map(|(s, self_ns)| {
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\
                 \"args\":{{\"id\":{},\"parent\":{},\"pass\":{},\"self_us\":{}}}}}",
                json::escape(&s.name),
                json::fmt_f64(s.start_ns as f64 / 1e3),
                json::fmt_f64((s.end_ns - s.start_ns) as f64 / 1e3),
                s.id,
                s.parent,
                s.pass,
                json::fmt_f64(self_ns as f64 / 1e3),
            )
        })
        .collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use millipede::metrics::json::Json;

    fn span(name: &str, id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            id,
            parent,
            pass: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = [
            span("build", 2, 1, 10, 30),
            span("simulate", 3, 1, 25, 60),
            span("inner", 4, 3, 30, 40),
            span("pass", 1, 0, 0, 100),
        ];
        // pass: 100 minus the union [10, 60) of its children = 50.
        assert_eq!(self_times(&spans), vec![20, 25, 10, 50]);
    }

    #[test]
    fn recording_follows_the_pass_switch() {
        let mut tr = Tracer::new();
        tr.start_pass(false);
        let off = tr.begin("pass", 0);
        assert_eq!(off.id(), 0);
        assert!(tr.end(off) >= 0.0);
        assert!(tr.spans().is_empty());

        tr.start_pass(true);
        let pass = tr.begin("pass", 0);
        let child = tr.begin("build", pass.id());
        tr.end(child);
        tr.end(pass);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name.as_str(), spans[0].parent),
            ("build", spans[1].id)
        );
        assert!(spans.iter().all(|s| s.pass == 2 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn chrome_trace_parses() {
        let doc = chrome_trace(&[span("a \"quoted\" label", 1, 0, 0, 2_000)]);
        let parsed = Json::parse(&doc).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("event array");
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[0].get("dur").and_then(Json::as_f64), Some(2.0));
        let args = events[0].get("args").expect("args");
        assert_eq!(args.get("self_us").and_then(Json::as_f64), Some(2.0));
    }
}
