//! Pluggable event sinks: JSONL file, human progress line, in-memory.

use crate::event::{Event, EventKind};
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Receives every event when it is emitted, on the emitting thread.
/// Implementations must be cheap and must not call back into the
/// observation API (an event emitted from inside a sink would re-enter
/// every sink while the sink registry is locked).
pub trait Sink: Send + Sync {
    /// Handles one event.
    fn event(&self, e: &Event);
    /// Flushes any buffered output (end of run).
    fn flush(&self) {}
}

/// Writes one JSON object per event line; the format [`crate::report`]
/// reads back.
pub struct JsonlSink {
    w: Mutex<std::io::BufWriter<std::fs::File>>,
}

impl JsonlSink {
    /// Creates (truncates) `path`.
    pub fn create(path: &str) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink { w: Mutex::new(std::io::BufWriter::new(file)) })
    }
}

impl Sink for JsonlSink {
    fn event(&self, e: &Event) {
        if let Ok(mut w) = self.w.lock() {
            let _ = writeln!(w, "{}", e.to_json_line());
        }
    }

    fn flush(&self) {
        if let Ok(mut w) = self.w.lock() {
            let _ = w.flush();
        }
    }
}

// Last-resort guard: if the sink is dropped without an explicit
// `snet_obs::flush()` (early return, abort path), the `BufWriter` would
// otherwise silently discard its tail on some error paths. `BufWriter`'s
// own Drop does attempt a flush, but doing it here too keeps the
// behaviour explicit and panic-tolerant (a poisoned lock is skipped, and
// each line is a complete JSON object so the file stays parseable).
impl Drop for JsonlSink {
    fn drop(&mut self) {
        Sink::flush(self);
    }
}

/// Captures events in memory for tests and in-process inspection.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// A snapshot of everything captured so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// Names of captured events of the given kind, in arrival order.
    pub fn names_of(&self, kind: EventKind) -> Vec<String> {
        self.events().into_iter().filter(|e| e.kind == kind).map(|e| e.name).collect()
    }
}

impl Sink for MemorySink {
    fn event(&self, e: &Event) {
        self.events.lock().expect("memory sink poisoned").push(e.clone());
    }
}

/// Renders `*.progress` gauge events as a live single-line display on
/// stderr (`\r`-rewritten, like a download meter). The gauge value is the
/// completed fraction in `[0, 1]`; the attrs `done`, `total`, `per_sec`
/// and `eta_s`, when present, enrich the line. A root-span end finishes
/// the line with a newline so subsequent output starts clean.
pub struct ProgressSink {
    state: Mutex<ProgressState>,
}

struct ProgressState {
    last_draw: Option<Instant>,
    line_open: bool,
}

impl Default for ProgressSink {
    fn default() -> Self {
        ProgressSink::new()
    }
}

impl ProgressSink {
    /// A sink drawing to stderr.
    pub fn new() -> Self {
        ProgressSink { state: Mutex::new(ProgressState { last_draw: None, line_open: false }) }
    }

    fn draw(&self, e: &Event) {
        let mut st = self.state.lock().expect("progress sink poisoned");
        // Throttle redraws to ~20 Hz, but never skip the terminal sample.
        let finished = e.value >= 1.0;
        if !finished {
            if let Some(last) = st.last_draw {
                if last.elapsed().as_millis() < 50 {
                    return;
                }
            }
        }
        st.last_draw = Some(Instant::now());
        st.line_open = true;
        let mut line =
            format!("\r[{}] {:5.1}%", e.name.trim_end_matches(".progress"), e.value * 100.0);
        if let (Some(done), Some(total)) = (e.attr("done"), e.attr("total")) {
            line.push_str(&format!(" | {done}/{total} inputs"));
        }
        if let Some(rate) = e.attr("per_sec").and_then(|s| s.parse::<f64>().ok()) {
            line.push_str(&format!(" | {} inputs/s", human_rate(rate)));
        }
        if let Some(eta) = e.attr("eta_s").and_then(|s| s.parse::<f64>().ok()) {
            line.push_str(&format!(" | ETA {eta:.1}s"));
        }
        // Pad so a shorter redraw fully overwrites the previous one.
        let width = line.len().max(78);
        eprint!("{line:<width$}");
        let _ = std::io::stderr().flush();
    }
}

/// `1234567.0` → `"1.2M"` — compact rate rendering.
fn human_rate(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.1}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

impl Sink for ProgressSink {
    fn event(&self, e: &Event) {
        match e.kind {
            EventKind::Gauge if e.name.ends_with(".progress") => self.draw(e),
            EventKind::SpanEnd if e.parent == 0 => {
                let mut st = self.state.lock().expect("progress sink poisoned");
                if st.line_open {
                    eprintln!();
                    st.line_open = false;
                }
            }
            _ => {}
        }
    }

    fn flush(&self) {
        let mut st = self.state.lock().expect("progress sink poisoned");
        if st.line_open {
            eprintln!();
            st.line_open = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_captures_in_order() {
        let sink = MemorySink::new();
        for (i, name) in ["a", "b", "c"].iter().enumerate() {
            sink.event(&Event {
                kind: EventKind::Counter,
                name: (*name).into(),
                id: 0,
                parent: 0,
                thread: 0,
                t_us: i as u64,
                dur_us: 0,
                value: 1.0,
                attrs: Vec::new(),
            });
        }
        assert_eq!(sink.names_of(EventKind::Counter), vec!["a", "b", "c"]);
        assert!(sink.names_of(EventKind::Gauge).is_empty());
    }

    #[test]
    fn human_rates() {
        assert_eq!(human_rate(12.0), "12");
        assert_eq!(human_rate(1_234.0), "1.2k");
        assert_eq!(human_rate(2_500_000.0), "2.5M");
        assert_eq!(human_rate(7e9), "7.0G");
    }
}
