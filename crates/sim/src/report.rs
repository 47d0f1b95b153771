//! Plain-text table rendering for the experiment binaries.

use crate::runner::RunResult;

/// A simple left-padded text table.
#[derive(Debug, Default, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Table {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as an aligned plain-text table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = width[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &width));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
            out.push('\n');
        }
        out
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Geometric mean of `xs`: the mean of their natural logs, summed in
/// iteration order, exponentiated.
pub fn geomean(xs: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = xs.len();
    let logs: f64 = xs.map(f64::ln).sum();
    (logs / n as f64).exp()
}

/// Formats a ratio with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a ratio with three decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a whole number.
pub fn f0(x: f64) -> String {
    format!("{x:.0}")
}

/// The `arch/bench` label identifying one run in telemetry output.
fn run_label(r: &RunResult) -> String {
    format!("{}/{}", r.arch.label(), r.bench.name())
}

/// One loud `warning: ... dropped=N` line per run whose telemetry event
/// buffer overflowed — a silently truncated trace looks complete but is
/// not. Empty when nothing was dropped.
pub fn telemetry_warnings(results: &[&RunResult]) -> String {
    let mut warnings = String::new();
    for r in results {
        let tel = &r.node.telemetry;
        if tel.dropped_events() > 0 {
            warnings.push_str(&format!(
                "warning: {} telemetry event ring overflowed: dropped={} \
                 (raise TelemetryConfig::event_capacity past {})\n",
                run_label(r),
                tel.dropped_events(),
                tel.event_capacity().unwrap_or(0),
            ));
        }
    }
    warnings
}

/// Builds one combined Chrome-trace/Perfetto JSON document for the runs'
/// telemetry, one trace process per run labelled `arch/bench`. Loads
/// directly in `chrome://tracing` or the Perfetto UI.
pub fn chrome_trace(results: &[&RunResult]) -> String {
    let labels: Vec<String> = results.iter().map(|r| run_label(r)).collect();
    let runs: Vec<(&str, &millipede_telemetry::Telemetry)> = labels
        .iter()
        .zip(results)
        .map(|(l, r)| (l.as_str(), &r.node.telemetry))
        .collect();
    millipede_telemetry::export::chrome_trace(&runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new(vec!["bench", "speedup"]);
        t.row(vec!["count", "1.25"]);
        t.row(vec!["gda", "1.07"]);
        let s = t.render();
        assert!(s.contains("bench"));
        assert!(s.contains("count"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows equal width.
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1", "2"]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.256), "1.26");
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(f0(544.4), "544");
    }
}
