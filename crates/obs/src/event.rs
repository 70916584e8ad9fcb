//! The structured event model and its JSONL encoding.
//!
//! Every observation the runtime produces is one [`Event`]: a span
//! boundary, a counter increment, a gauge sample, or the run manifest.
//! Events serialize through `serde_json` to one flat JSON object per
//! line (strings, unsigned/float numbers, and a single nested
//! string→string `attrs` object), and [`crate::report`] parses the
//! lines back through the same codec.

use crate::json::{num, obj, str_map};
use serde::de::{Source, Token};
use serde::{Deserialize, Error, Serialize, Value};

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span was entered (`id`, `parent`, `t_us`).
    SpanStart,
    /// A span was exited (`dur_us` holds the wall duration; attrs are
    /// attached here so values computed during the span are captured).
    SpanEnd,
    /// A monotone counter increment (`value` holds the delta).
    Counter,
    /// A point-in-time sample (`value` holds the sample).
    Gauge,
    /// A histogram snapshot (`value` holds the sample count; the bucket
    /// encoding lives in the attrs — see
    /// [`crate::hist::HistSnapshot::to_attrs`]).
    Hist,
    /// The run manifest, emitted once at sink installation.
    Manifest,
}

impl EventKind {
    /// Stable wire name used in the JSONL `type` field.
    pub fn wire_name(self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::Counter => "counter",
            EventKind::Gauge => "gauge",
            EventKind::Hist => "hist",
            EventKind::Manifest => "manifest",
        }
    }

    /// Inverse of [`wire_name`](Self::wire_name).
    pub fn from_wire_name(s: &str) -> Option<Self> {
        Some(match s {
            "span_start" => EventKind::SpanStart,
            "span_end" => EventKind::SpanEnd,
            "counter" => EventKind::Counter,
            "gauge" => EventKind::Gauge,
            "hist" => EventKind::Hist,
            "manifest" => EventKind::Manifest,
            _ => return None,
        })
    }
}

/// One structured observation. See [`EventKind`] for field semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// What this event records.
    pub kind: EventKind,
    /// Dotted event name, e.g. `check.zero_one` or `ir.pass`.
    pub name: String,
    /// Span id (allocation is global and starts at 1); 0 for non-span
    /// events.
    pub id: u64,
    /// Enclosing span id; 0 means root.
    pub parent: u64,
    /// Small per-process thread ordinal (not the OS thread id).
    pub thread: u64,
    /// Microseconds since the process-wide observation epoch.
    pub t_us: u64,
    /// Span wall duration in microseconds (`SpanEnd` only, else 0).
    pub dur_us: u64,
    /// Counter delta or gauge sample (else 0).
    pub value: f64,
    /// Free-form key/value annotations.
    pub attrs: Vec<(String, String)>,
}

impl Event {
    /// Encodes the event as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("a value tree always serializes")
    }

    /// Looks up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Zero-valued `dur_us` and `value` and empty `attrs` are left out.
impl Serialize for Event {
    fn serialize(&self) -> Value {
        let mut fields = vec![
            ("type", self.kind.wire_name().serialize()),
            ("name", self.name.serialize()),
            ("id", self.id.serialize()),
            ("parent", self.parent.serialize()),
            ("thread", self.thread.serialize()),
            ("t_us", self.t_us.serialize()),
        ];
        if self.dur_us != 0 {
            fields.push(("dur_us", self.dur_us.serialize()));
        }
        if self.value != 0.0 {
            fields.push(("value", num(self.value)));
        }
        if !self.attrs.is_empty() {
            fields.push(("attrs", str_map(&self.attrs)));
        }
        obj(fields)
    }
}

/// The keys of an [`Event`] object.
const EVENT_KEYS: [&str; 9] =
    ["type", "name", "id", "parent", "thread", "t_us", "dur_us", "value", "attrs"];

/// Strict: an unknown key, a value of the wrong type (ids must be
/// non-negative integers, attrs strings) or a missing `type` is an error.
/// Keys are checked in document order (a repeated key's last value
/// counts), so the first bad member is the one reported.
impl Deserialize for Event {
    fn read<S: Source>(src: &mut S) -> Result<Self, Error> {
        if !matches!(src.next()?, Token::Object) {
            return Err(Error::custom("event is not an object"));
        }
        let mut ev = Event {
            kind: EventKind::Counter,
            name: String::new(),
            id: 0,
            parent: 0,
            thread: 0,
            t_us: 0,
            dur_us: 0,
            value: 0.0,
            attrs: Vec::new(),
        };
        let mut kind = None;
        while let Some(key) = src.next_key()? {
            let Some(i) = EVENT_KEYS.iter().position(|k| *k == key) else {
                return Err(Error::custom(format!("unknown event field {:?}", &*key)));
            };
            match i {
                0 => {
                    let wire = String::read(src)?;
                    let unknown = || Error::custom(format!("unknown event type {wire:?}"));
                    kind = Some(EventKind::from_wire_name(&wire).ok_or_else(unknown)?);
                }
                1 => ev.name = String::read(src)?,
                2 => ev.id = u64::read(src)?,
                3 => ev.parent = u64::read(src)?,
                4 => ev.thread = u64::read(src)?,
                5 => ev.t_us = u64::read(src)?,
                6 => ev.dur_us = u64::read(src)?,
                7 => ev.value = f64::read(src)?,
                _ => ev.attrs = read_attrs(src)?,
            }
        }
        ev.kind = kind.ok_or_else(|| Error::custom("event has no type"))?;
        Ok(ev)
    }
}

/// An event's `attrs`: an object of strings, in document order.
fn read_attrs<S: Source>(src: &mut S) -> Result<Vec<(String, String)>, Error> {
    if !matches!(src.next()?, Token::Object) {
        return Err(Error::custom("attrs is not an object"));
    }
    let mut attrs = Vec::new();
    while let Some(key) = src.next_key()? {
        let key = key.into_owned();
        attrs.push((key, String::read(src)?));
    }
    Ok(attrs)
}

/// Formats an `f64` for text output the way [`crate::json::num`] encodes
/// it: non-finite values print as 0, integral ones without a fraction.
pub(crate) fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_roundtrips_through_report_parser() {
        let ev = Event {
            kind: EventKind::SpanEnd,
            name: "check.zero_one".into(),
            id: 7,
            parent: 2,
            thread: 1,
            t_us: 1234,
            dur_us: 99,
            value: 0.0,
            attrs: vec![("wires".into(), "16".into()), ("note".into(), "a \"b\"\n".into())],
        };
        let line = ev.to_json_line();
        let back = crate::report::parse_event_line(&line).expect("parses");
        assert_eq!(back, ev);
    }

    #[test]
    fn wire_names_roundtrip() {
        for kind in [
            EventKind::SpanStart,
            EventKind::SpanEnd,
            EventKind::Counter,
            EventKind::Gauge,
            EventKind::Hist,
            EventKind::Manifest,
        ] {
            assert_eq!(EventKind::from_wire_name(kind.wire_name()), Some(kind));
        }
        assert_eq!(EventKind::from_wire_name("bogus"), None);
    }

    #[test]
    fn non_finite_values_stay_valid_json() {
        assert_eq!(fmt_f64(f64::NAN), "0");
        assert_eq!(fmt_f64(f64::INFINITY), "0");
        assert_eq!(fmt_f64(2.0), "2");
        assert_eq!(fmt_f64(2.5), "2.5");
    }
}
