//! The control-plane decision journal: a structured, sim-time-stamped
//! event stream rendered as JSONL.
//!
//! Every line is one JSON object with at least `"t_s"` (simulated seconds
//! since the experiment start) and `"event"` (the event name); the
//! remaining fields are event-specific and appear in the order the
//! emitting site added them. All serialization is hand-rolled (the
//! offline `serde` stub does not serialize) and fully deterministic:
//! floats render through Rust's shortest-round-trip `{}` formatting, field
//! order is insertion order, and no wall-clock value ever enters a line.
//! A journal recorded by a parallel grid worker is therefore byte-for-byte
//! the journal the serial run records — `tests/telemetry.rs` gates on
//! exactly that.
//!
//! The event vocabulary the control plane emits (see
//! `docs/observability.md` for the annotated schema): `epoch_begin`,
//! `forecast`, `scaler`, `plan`, `search`, `reconfig`, `conservation`.

use clover_simkit::SimTime;
use std::fmt::Write as _;

/// Render an `f64` deterministically for a journal line or JSON snapshot:
/// shortest representation that round-trips, with non-finite values mapped
/// to `null` (JSON has no NaN/Inf).
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escape a string for a JSON string literal (quotes, backslashes, and
/// control characters).
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One journal field value.
#[derive(Debug, Clone)]
enum FieldValue {
    U64(u64),
    F64(f64),
    Str(String),
}

impl FieldValue {
    fn render(&self, out: &mut String) {
        match self {
            FieldValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::F64(v) => out.push_str(&fmt_f64(*v)),
            FieldValue::Str(v) => {
                out.push('"');
                out.push_str(&escape_json(v));
                out.push('"');
            }
        }
    }
}

/// One journal event under construction: a name, a simulation timestamp,
/// and an ordered list of fields. Build with the chained `u64`/`f64`/
/// `str` methods, then hand to [`Journal::push`] (or
/// `Telemetry::emit`).
#[derive(Debug, Clone)]
pub struct Event {
    name: &'static str,
    t: SimTime,
    fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Start an event named `name` at simulated time `t`.
    pub fn new(name: &'static str, t: SimTime) -> Self {
        Self {
            name,
            t,
            fields: Vec::new(),
        }
    }

    /// Append an unsigned integer field.
    pub fn u64(mut self, key: &'static str, v: u64) -> Self {
        self.fields.push((key, FieldValue::U64(v)));
        self
    }

    /// Append a float field (non-finite values render as `null`).
    pub fn f64(mut self, key: &'static str, v: f64) -> Self {
        self.fields.push((key, FieldValue::F64(v)));
        self
    }

    /// Append a string field (JSON-escaped on render).
    pub fn str(mut self, key: &'static str, v: impl Into<String>) -> Self {
        self.fields.push((key, FieldValue::Str(v.into())));
        self
    }

    /// Render the event as one JSON line (no trailing newline).
    fn render(&self, out: &mut String) {
        out.push_str("{\"t_s\":");
        out.push_str(&fmt_f64(self.t.as_secs()));
        out.push_str(",\"event\":\"");
        out.push_str(self.name);
        out.push('"');
        for (key, value) in &self.fields {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":");
            value.render(out);
        }
        out.push('}');
    }
}

/// An append-only JSONL event stream with a byte digest.
#[derive(Debug, Default, Clone)]
pub struct Journal {
    text: String,
    events: u64,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one event as a JSONL line.
    pub fn push(&mut self, event: Event) {
        event.render(&mut self.text);
        self.text.push('\n');
        self.events += 1;
    }

    /// Number of events recorded.
    pub fn len(&self) -> u64 {
        self.events
    }

    /// True when no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// The JSONL text, one event per line.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// FNV-1a digest over the journal bytes.
    ///
    /// Same basis and prime as `ExperimentOutcome::digest`, so the two
    /// determinism gates report in the same currency.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in self.text.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_fields_in_insertion_order() {
        let mut j = Journal::new();
        j.push(
            Event::new("epoch_begin", SimTime::from_secs(120.0))
                .u64("epoch", 1)
                .f64("ci", 412.5)
                .str("scheme", "CLOVER"),
        );
        assert_eq!(
            j.as_str(),
            "{\"t_s\":120,\"event\":\"epoch_begin\",\"epoch\":1,\"ci\":412.5,\
             \"scheme\":\"CLOVER\"}\n"
        );
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn escapes_strings_and_guards_non_finite_floats() {
        let mut j = Journal::new();
        j.push(
            Event::new("plan", SimTime::ZERO)
                .str("note", "a\"b\\c\nd")
                .f64("bad", f64::NAN),
        );
        assert_eq!(
            j.as_str(),
            "{\"t_s\":0,\"event\":\"plan\",\"note\":\"a\\\"b\\\\c\\nd\",\"bad\":null}\n"
        );
    }

    #[test]
    fn digest_is_over_bytes() {
        let mut a = Journal::new();
        let mut b = Journal::new();
        assert_eq!(a.digest(), b.digest());
        a.push(Event::new("x", SimTime::ZERO));
        assert_ne!(a.digest(), b.digest());
        b.push(Event::new("x", SimTime::ZERO));
        assert_eq!(a.digest(), b.digest());
    }
}
