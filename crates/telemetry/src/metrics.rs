//! The metric registry: named counters, gauges, and fixed-bucket
//! histograms with labels, snapshot-able to the Prometheus text exposition
//! format.
//!
//! The registry is plain, deterministic data — a `BTreeMap` keyed by
//! metric name, each holding samples keyed by their sorted label set — so
//! snapshots are byte-stable across runs and thread counts. It is the
//! contract the future live serving daemon's `/metrics` endpoint will
//! serve: the daemon keeps one registry per process and renders
//! [`MetricRegistry::to_prometheus`] behind an HTTP handler; nothing else
//! changes.
//!
//! A minimal [`parse_prometheus`] parser ships alongside the emitter so
//! the exposition format (including label-value escaping) is round-trip
//! tested in `tests/telemetry.rs` rather than trusted.

use crate::journal::fmt_f64;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Sorted `(key, value)` label pairs — the sample key within a family.
type LabelSet = Vec<(String, String)>;

/// A fixed-bucket histogram: cumulative-style buckets over caller-supplied
/// upper bounds, plus sum and count (the Prometheus histogram shape).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive upper bounds, ascending. An implicit `+Inf` bucket
    /// follows the last bound.
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) observation counts; `counts[bounds.len()]`
    /// is the `+Inf` bucket.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// `(upper_bound, cumulative_count)` per bucket, ending with
    /// `(+Inf, count)`.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(self.counts.len());
        for (i, c) in self.counts.iter().enumerate() {
            acc += c;
            let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, acc));
        }
        out
    }
}

/// What a metric family holds.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonically increasing `u64`.
    Counter(u64),
    /// Last-write-wins `f64`.
    Gauge(f64),
    /// Fixed-bucket histogram.
    Histogram(Histogram),
}

impl MetricValue {
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// Named counters, gauges, and histograms with labels.
///
/// All mutation is `&mut self`: a registry belongs to one experiment cell
/// (or, later, one daemon thread behind a lock). Families and samples
/// iterate in sorted order, so every snapshot is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricRegistry {
    families: BTreeMap<String, BTreeMap<LabelSet, MetricValue>>,
}

fn label_set(labels: &[(&str, &str)]) -> LabelSet {
    let mut set: LabelSet = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    set.sort();
    set
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn sample(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        init: impl FnOnce() -> MetricValue,
    ) -> &mut MetricValue {
        let family = self.families.entry(name.to_string()).or_default();
        family.entry(label_set(labels)).or_insert_with(init)
    }

    /// Add `delta` to the counter `name{labels}` (created at 0).
    ///
    /// # Panics
    /// Panics if `name` already holds a non-counter metric.
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        match self.sample(name, labels, || MetricValue::Counter(0)) {
            MetricValue::Counter(v) => *v += delta,
            other => panic!("{name} is a {}, not a counter", other.kind()),
        }
    }

    /// Set the gauge `name{labels}` to `v`.
    ///
    /// # Panics
    /// Panics if `name` already holds a non-gauge metric.
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        match self.sample(name, labels, || MetricValue::Gauge(0.0)) {
            MetricValue::Gauge(g) => *g = v,
            other => panic!("{name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Observe `v` in the histogram `name{labels}`, creating it with
    /// `bounds` (ascending upper bounds; `+Inf` is implicit) on first use.
    ///
    /// # Panics
    /// Panics if `name` already holds a non-histogram metric.
    pub fn histogram_observe(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
        v: f64,
    ) {
        match self.sample(name, labels, || {
            MetricValue::Histogram(Histogram::new(bounds))
        }) {
            MetricValue::Histogram(h) => h.observe(v),
            other => panic!("{name} is a {}, not a histogram", other.kind()),
        }
    }

    /// Read back a counter's value (0 when absent).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self
            .families
            .get(name)
            .and_then(|f| f.get(&label_set(labels)))
        {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Read back a gauge's value (`None` when absent).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self
            .families
            .get(name)
            .and_then(|f| f.get(&label_set(labels)))
        {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Iterate `(name, labels, value)` over every sample, sorted by name
    /// then label set.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[(String, String)], &MetricValue)> {
        self.families.iter().flat_map(|(name, samples)| {
            samples
                .iter()
                .map(move |(labels, value)| (name.as_str(), labels.as_slice(), value))
        })
    }

    /// Snapshot in the Prometheus text exposition format (one `# TYPE`
    /// line per family, label values escaped per the spec: `\\`, `\"`,
    /// `\n`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, samples) in &self.families {
            let kind = samples.values().next().map_or("counter", MetricValue::kind);
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (labels, value) in samples {
                match value {
                    MetricValue::Counter(v) => {
                        let _ = writeln!(out, "{name}{} {v}", render_labels(labels, None));
                    }
                    MetricValue::Gauge(v) => {
                        let _ =
                            writeln!(out, "{name}{} {}", render_labels(labels, None), fmt_f64(*v));
                    }
                    MetricValue::Histogram(h) => {
                        for (bound, cum) in h.cumulative() {
                            let le = if bound.is_finite() {
                                fmt_f64(bound)
                            } else {
                                "+Inf".to_string()
                            };
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cum}",
                                render_labels(labels, Some(&le))
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{name}_sum{} {}",
                            render_labels(labels, None),
                            fmt_f64(h.sum())
                        );
                        let _ = writeln!(
                            out,
                            "{name}_count{} {}",
                            render_labels(labels, None),
                            h.count()
                        );
                    }
                }
            }
        }
        out
    }
}

/// Escape a Prometheus label value: backslash, double quote, newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

/// One parsed exposition sample: metric name (histograms appear as their
/// `_bucket`/`_sum`/`_count` series), sorted labels, value.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// The sample's metric name.
    pub name: String,
    /// Sorted `(key, value)` label pairs, unescaped.
    pub labels: Vec<(String, String)>,
    /// The sample value (`+Inf` bucket counts are finite; only the `le`
    /// label carries the infinity).
    pub value: f64,
}

/// Parse the Prometheus text exposition format emitted by
/// [`MetricRegistry::to_prometheus`]: comment lines are skipped, label
/// values are unescaped, malformed lines are errors.
///
/// This is the round-trip check for the emitter, not a general scrape
/// parser — it accepts exactly the subset the registry produces.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_sample(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    Ok(out)
}

fn parse_sample(line: &str) -> Result<PromSample, String> {
    let (name_and_labels, value) = match line.rfind(' ') {
        Some(i) => (&line[..i], &line[i + 1..]),
        None => return Err(format!("no value separator in {line:?}")),
    };
    let value: f64 = value.parse().map_err(|_| format!("bad value {value:?}"))?;
    let (name, labels) = match name_and_labels.find('{') {
        None => (name_and_labels.to_string(), Vec::new()),
        Some(i) => {
            let name = name_and_labels[..i].to_string();
            let rest = &name_and_labels[i + 1..];
            let rest = rest
                .strip_suffix('}')
                .ok_or_else(|| format!("unterminated label set in {line:?}"))?;
            (name, parse_labels(rest)?)
        }
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err(format!("bad metric name {name:?}"));
    }
    let mut labels = labels;
    labels.sort();
    Ok(PromSample {
        name,
        labels,
        value,
    })
}

fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = s.chars().peekable();
    loop {
        // Label key up to '='.
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if key.is_empty() {
            return Err(format!("empty label key in {s:?}"));
        }
        if chars.next() != Some('"') {
            return Err(format!("label {key} value not quoted in {s:?}"));
        }
        // Quoted, escaped value.
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("bad escape {other:?} in {s:?}")),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => return Err(format!("unterminated label value in {s:?}")),
            }
        }
        labels.push((key, value));
        match chars.next() {
            Some(',') => continue,
            None => break,
            Some(c) => return Err(format!("unexpected {c:?} after label in {s:?}")),
        }
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let mut m = MetricRegistry::new();
        m.counter_add("epochs_total", &[("scheme", "CLOVER")], 1);
        m.counter_add("epochs_total", &[("scheme", "CLOVER")], 2);
        m.gauge_set("active_gpus", &[], 4.0);
        m.gauge_set("active_gpus", &[], 3.0);
        assert_eq!(m.counter("epochs_total", &[("scheme", "CLOVER")]), 3);
        assert_eq!(m.gauge("active_gpus", &[]), Some(3.0));
        assert_eq!(m.counter("missing", &[]), 0);
    }

    #[test]
    fn label_order_does_not_matter() {
        let mut m = MetricRegistry::new();
        m.counter_add("c", &[("a", "1"), ("b", "2")], 1);
        m.counter_add("c", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(m.counter("c", &[("a", "1"), ("b", "2")]), 2);
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_snapshots() {
        let mut m = MetricRegistry::new();
        for v in [0.05, 0.2, 0.2, 5.0] {
            m.histogram_observe("lat", &[], &[0.1, 1.0], v);
        }
        let text = m.to_prometheus();
        assert!(text.contains("lat_bucket{le=\"0.1\"} 1"), "{text}");
        assert!(text.contains("lat_bucket{le=\"1\"} 3"), "{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 4"), "{text}");
        assert!(text.contains("lat_count 4"), "{text}");
    }

    #[test]
    fn prometheus_round_trips_escaped_labels() {
        let mut m = MetricRegistry::new();
        m.counter_add("c", &[("path", "a\\b\"c\nd")], 7);
        let samples = parse_prometheus(&m.to_prometheus()).expect("parses");
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].name, "c");
        assert_eq!(
            samples[0].labels,
            vec![("path".into(), "a\\b\"c\nd".into())]
        );
        assert_eq!(samples[0].value, 7.0);
    }
}
