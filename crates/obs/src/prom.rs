//! Prometheus text exposition: a renderer and a parser.
//!
//! [`PromText`] renders counters, gauges and [`HistogramSnapshot`]s into
//! the [Prometheus text format] (`# TYPE` headers, cumulative `le`
//! buckets, `_sum`/`_count` series, label sets). [`PromReport`] parses
//! the same format back into samples so CI can assert the exposition
//! round-trips instead of trusting a write-only renderer.
//!
//! [Prometheus text format]: https://prometheus.io/docs/instrumenting/exposition_formats/

use std::collections::HashSet;

use crate::histogram::{bucket_bounds, HistogramSnapshot};
use crate::table::{CounterTable, Kind};

/// Streaming renderer for the Prometheus text format.
///
/// Metric families may be emitted several times with different label
/// sets (e.g. once per node); the `# TYPE`/`# HELP` header is written
/// only on the first appearance of each name.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
    declared: HashSet<String>,
}

fn render_labels(out: &mut String, labels: &[(&str, &str)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
}

impl PromText {
    /// An empty exposition.
    pub fn new() -> Self {
        Self::default()
    }

    fn declare(&mut self, name: &str, kind: &str, help: &str) {
        if self.declared.insert(name.to_string()) {
            self.out.push_str("# HELP ");
            self.out.push_str(name);
            self.out.push(' ');
            self.out.push_str(help);
            self.out.push('\n');
            self.out.push_str("# TYPE ");
            self.out.push_str(name);
            self.out.push(' ');
            self.out.push_str(kind);
            self.out.push('\n');
        }
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        render_labels(&mut self.out, labels);
        self.out.push(' ');
        if value.fract() == 0.0 && value.abs() < 9.007_199_254_740_992e15 {
            self.out.push_str(&format!("{}", value as i64));
        } else {
            self.out.push_str(&format!("{value}"));
        }
        self.out.push('\n');
    }

    /// Emit a monotone counter sample.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.declare(name, "counter", help);
        self.sample(name, labels, value as f64);
    }

    /// Emit a gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.declare(name, "gauge", help);
        self.sample(name, labels, value);
    }

    /// Emit every row of a counter table as a `<prefix>_<row>` counter or
    /// gauge family, with `labels` on each sample.
    pub fn table<T: CounterTable>(&mut self, prefix: &str, table: &T, labels: &[(&str, &str)]) {
        table.for_each_row(|row, value| {
            let name = format!("{prefix}_{}", row.name);
            match row.kind {
                Kind::Counter => self.counter(&name, row.help, labels, value),
                Kind::Gauge => self.gauge(&name, row.help, labels, value as f64),
            }
        });
    }

    /// Emit one histogram family: cumulative `le` buckets up to the
    /// highest non-empty bucket, a `+Inf` bucket, `_sum` and `_count`.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        snap: &HistogramSnapshot,
    ) {
        self.declare(name, "histogram", help);
        let bucket_name = format!("{name}_bucket");
        let top = snap.max_bucket().unwrap_or(0);
        let mut cumulative = 0u64;
        for (i, &n) in snap.buckets.iter().enumerate().take(top + 1) {
            cumulative = cumulative.saturating_add(n);
            let (_, hi) = bucket_bounds(i);
            let le = format!("{hi}");
            let mut ls: Vec<(&str, &str)> = labels.to_vec();
            ls.push(("le", &le));
            self.sample(&bucket_name, &ls, cumulative as f64);
        }
        let mut ls: Vec<(&str, &str)> = labels.to_vec();
        ls.push(("le", "+Inf"));
        self.sample(&bucket_name, &ls, snap.count as f64);
        self.sample(&format!("{name}_sum"), labels, snap.sum_ns as f64);
        self.sample(&format!("{name}_count"), labels, snap.count as f64);
    }

    /// The rendered exposition.
    pub fn finish(self) -> String {
        self.out
    }
}

/// One parsed sample line: `name{labels} value`.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    /// Metric name (including `_bucket`/`_sum`/`_count` suffixes).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl PromSample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed Prometheus text exposition.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PromReport {
    /// Every sample line, in source order.
    pub samples: Vec<PromSample>,
    /// Declared metric families: `(name, type)` from `# TYPE` lines.
    pub families: Vec<(String, String)>,
}

impl PromReport {
    /// Parse a text exposition. Returns an error naming the first
    /// malformed line.
    pub fn parse(text: &str) -> Result<PromReport, String> {
        let mut report = PromReport::default();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts
                    .next()
                    .ok_or_else(|| format!("line {}: TYPE without name", lineno + 1))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| format!("line {}: TYPE without kind", lineno + 1))?;
                report.families.push((name.to_string(), kind.to_string()));
                continue;
            }
            if line.starts_with('#') {
                continue; // HELP or comment
            }
            report.samples.push(
                parse_sample(line).map_err(|e| format!("line {}: {e} in {line:?}", lineno + 1))?,
            );
        }
        Ok(report)
    }

    /// The declared type of metric family `name`, if any.
    pub fn family_type(&self, name: &str) -> Option<&str> {
        self.families
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.as_str())
    }

    /// First sample with this exact name whose labels include every
    /// pair in `labels`.
    pub fn sample(&self, name: &str, labels: &[(&str, &str)]) -> Option<&PromSample> {
        self.samples.iter().find(|s| {
            s.name == name
                && labels
                    .iter()
                    .all(|(k, v)| s.label(k).is_some_and(|got| got == *v))
        })
    }

    /// Convenience: the matching sample's value.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.sample(name, labels).map(|s| s.value)
    }

    /// Names of all histogram families in the exposition.
    pub fn histogram_names(&self) -> Vec<&str> {
        self.families
            .iter()
            .filter(|(_, t)| t == "histogram")
            .map(|(n, _)| n.as_str())
            .collect()
    }
}

fn parse_sample(line: &str) -> Result<PromSample, String> {
    let (head, value) = match line.find('{') {
        Some(open) => {
            let close = line[open..]
                .find('}')
                .map(|i| open + i)
                .ok_or("unclosed label set")?;
            (&line[..close + 1], line[close + 1..].trim())
        }
        None => {
            let sp = line.find(' ').ok_or("sample without value")?;
            (&line[..sp], line[sp + 1..].trim())
        }
    };
    let value: f64 = value
        .split_whitespace()
        .next()
        .ok_or("sample without value")?
        .parse()
        .map_err(|_| "unparseable value")?;
    let (name, labels) = match head.find('{') {
        None => (head.to_string(), Vec::new()),
        Some(open) => {
            let name = head[..open].to_string();
            let body = &head[open + 1..head.len() - 1];
            let mut labels = Vec::new();
            let mut rest = body;
            while !rest.is_empty() {
                let eq = rest.find('=').ok_or("label without `=`")?;
                let key = rest[..eq].trim().to_string();
                let after = &rest[eq + 1..];
                if !after.starts_with('"') {
                    return Err("label value must be quoted".to_string());
                }
                let mut val = String::new();
                let mut chars = after[1..].char_indices();
                let mut consumed = None;
                while let Some((i, c)) = chars.next() {
                    match c {
                        '\\' => {
                            if let Some((_, esc)) = chars.next() {
                                val.push(match esc {
                                    'n' => '\n',
                                    other => other,
                                });
                            }
                        }
                        '"' => {
                            consumed = Some(i);
                            break;
                        }
                        c => val.push(c),
                    }
                }
                let end = consumed.ok_or("unterminated label value")?;
                labels.push((key, val));
                rest = after[1 + end + 1..].trim_start_matches(',').trim_start();
            }
            (name, labels)
        }
    };
    Ok(PromSample {
        name,
        labels,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    #[test]
    fn render_and_parse_roundtrip() {
        let h = Histogram::new();
        for ns in [100u64, 150, 3000, 70_000, 70_001] {
            h.record_ns(ns);
        }
        let snap = h.snapshot();

        let mut text = PromText::new();
        text.counter("stgq_queries_total", "Queries answered.", &[], 5);
        text.gauge(
            "stgq_node_seq_lag",
            "Replication lag.",
            &[("node", "1")],
            2.0,
        );
        text.histogram(
            "stgq_solve_latency_ns",
            "Engine wall clock.",
            &[("node", "0")],
            &snap,
        );
        let rendered = text.finish();

        let report = PromReport::parse(&rendered).expect("own output parses");
        assert_eq!(report.family_type("stgq_queries_total"), Some("counter"));
        assert_eq!(
            report.family_type("stgq_solve_latency_ns"),
            Some("histogram")
        );
        assert_eq!(report.value("stgq_queries_total", &[]), Some(5.0));
        assert_eq!(
            report.value("stgq_node_seq_lag", &[("node", "1")]),
            Some(2.0)
        );
        assert_eq!(
            report.value("stgq_solve_latency_ns_count", &[("node", "0")]),
            Some(5.0)
        );
        assert_eq!(
            report.value("stgq_solve_latency_ns_sum", &[("node", "0")]),
            Some((100 + 150 + 3000 + 70_000 + 70_001) as f64)
        );
        // +Inf bucket equals the count, and the cumulative buckets are
        // monotone.
        assert_eq!(
            report.value("stgq_solve_latency_ns_bucket", &[("le", "+Inf")]),
            Some(5.0)
        );
        let mut last = 0.0;
        for s in report
            .samples
            .iter()
            .filter(|s| s.name == "stgq_solve_latency_ns_bucket")
        {
            assert!(s.value >= last, "cumulative buckets are monotone");
            last = s.value;
        }
    }

    #[test]
    fn type_header_is_emitted_once_per_family() {
        let mut text = PromText::new();
        text.counter("x_total", "X.", &[("node", "0")], 1);
        text.counter("x_total", "X.", &[("node", "1")], 2);
        let rendered = text.finish();
        assert_eq!(rendered.matches("# TYPE x_total counter").count(), 1);
        let report = PromReport::parse(&rendered).unwrap();
        assert_eq!(report.value("x_total", &[("node", "1")]), Some(2.0));
    }

    #[test]
    fn escaped_label_values_survive() {
        let mut text = PromText::new();
        text.gauge("g", "G.", &[("q", "say \"hi\"\\now")], 1.0);
        let rendered = text.finish();
        let report = PromReport::parse(&rendered).unwrap();
        assert_eq!(report.samples[0].label("q"), Some("say \"hi\"\\now"));
    }

    #[test]
    fn malformed_lines_are_reported() {
        assert!(PromReport::parse("metric{unclosed 1").is_err());
        assert!(PromReport::parse("metric notanumber").is_err());
    }
}
