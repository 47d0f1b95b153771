//! Chrome-trace/Perfetto JSON exporter.
//!
//! The Chrome trace is the JSON array flavour of the Trace Event Format:
//! counter samples become `ph:"C"` events (one counter track per series)
//! and discrete events become zero-width `ph:"X"` complete events, so the
//! file opens directly in `chrome://tracing` or the Perfetto UI. The `ts`
//! field carries the simulated time in **picoseconds** (the format's
//! nominal unit is microseconds; only the relative scale matters for
//! inspection, and integer picoseconds keep the output bit-deterministic).
//! All events are emitted in globally non-decreasing `ts` order.
//!
//! Nothing here reads the host clock: every timestamp is simulated.

use crate::Telemetry;
use millipede_metrics::json::{escape, fmt_f64};

/// Builds a combined Chrome-trace JSON document for a set of labelled runs.
///
/// Each run becomes one trace "process" (`pid` = position + 1) named by its
/// label; its series become counter tracks and its discrete events become
/// zero-width complete events on a separate thread row. A single run is
/// just the one-element case.
pub fn chrome_trace(runs: &[(&str, &Telemetry)]) -> String {
    let mut meta: Vec<String> = Vec::new();
    // (ts, emission index, line): stable-sorted by ts so the document is
    // globally monotone, ties broken by deterministic emission order.
    let mut timed: Vec<(u64, usize, String)> = Vec::new();
    for (i, (label, t)) in runs.iter().enumerate() {
        let pid = i + 1;
        meta.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(label)
        ));
        for (track, name, samples) in t.series_iter() {
            let counter = escape(&format!("{track}/{name}"));
            for s in samples {
                let line = format!(
                    "{{\"name\":\"{counter}\",\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\
                     \"ts\":{},\"args\":{{\"value\":{}}}}}",
                    s.time_ps,
                    fmt_f64(s.value)
                );
                timed.push((s.time_ps, timed.len(), line));
            }
        }
        for e in t.events() {
            let line = format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":1,\
                 \"ts\":{},\"dur\":1,\"args\":{{\"cycle\":{},\"value\":{}}}}}",
                escape(e.name),
                escape(e.track),
                e.time_ps,
                e.cycle,
                fmt_f64(e.value)
            );
            timed.push((e.time_ps, timed.len(), line));
        }
    }
    timed.sort_by_key(|&(ts, order, _)| (ts, order));
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for line in meta.iter().chain(timed.iter().map(|(_, _, l)| l)) {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(line);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetryConfig;

    fn recorded() -> Telemetry {
        let mut t = Telemetry::new(&TelemetryConfig::enabled_with_epoch(4));
        t.counter("core::pbuf", "occupancy", 4, 5716, 3.0);
        t.counter("core::pbuf", "occupancy", 8, 11432, 7.5);
        t.event("dram::controller", "row_conflict", 6, 8574, 42.0);
        t
    }

    #[test]
    fn chrome_trace_is_ts_monotone_and_labelled() {
        let t = recorded();
        let json = chrome_trace(&[("Millipede/count", &t)]);
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("Millipede/count"));
        assert!(json.contains("core::pbuf/occupancy"));
        // The X event at ts 8574 must be ordered between the two samples.
        let conflict = json.find("row_conflict").expect("event present");
        let s1 = json.find("\"ts\":5716").expect("first sample");
        let s2 = json.find("\"ts\":11432").expect("second sample");
        assert!(s1 < conflict && conflict < s2);
    }
}
