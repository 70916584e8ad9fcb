//! The flight recorder: an always-on, bounded-cost record of the most
//! recent events, dumped when the process dies.
//!
//! Each thread owns a fixed-size byte ring; an event is serialized to
//! its JSONL line once and appended to the owning thread's ring,
//! overwriting the oldest bytes when full. Writers never lock and never
//! touch another thread's ring, so recording costs one serialization
//! plus a byte copy — cheap enough to leave on for a week-long search.
//! Rings register in a global list (and outlive their threads via
//! `Arc`), so a dump sees every thread that ever recorded.
//!
//! A dump ([`dump_flight`], also wired into the panic hook) writes
//! `flight-<pid>.jsonl` in the current directory: each ring's surviving
//! window, oldest first, with the leading torn line after a wrap
//! skipped. The trailing line of a ring whose thread was mid-write can
//! still be torn — `snetctl report` parses dumps lossily for exactly
//! that reason.
//!
//! This module also hosts the crash-injection hook
//! (`SNET_FAULT_PANIC_AFTER`): CI arms it to panic a real search after a
//! known number of events, then asserts the dump renders.

use crate::event::Event;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

static FLIGHT_ON: AtomicBool = AtomicBool::new(false);
static RINGS: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());
static FAULT_AFTER: AtomicU64 = AtomicU64::new(0);
static FAULT_COUNT: AtomicU64 = AtomicU64::new(0);

/// Per-thread ring capacity: 512 KiB holds roughly the last 4–5k
/// events per thread at typical line lengths.
pub const DEFAULT_RING_BYTES: usize = 512 * 1024;

/// One thread's byte ring. Only the owning thread writes; any thread
/// may snapshot. `head` counts total bytes ever written (monotone) and
/// is published with `Release` so a reader's `Acquire` load sees the
/// bytes behind it.
struct Ring {
    thread: u64,
    buf: Box<[AtomicU8]>,
    head: AtomicUsize,
}

impl Ring {
    fn new(thread: u64, bytes: usize) -> Self {
        let mut v = Vec::with_capacity(bytes);
        v.resize_with(bytes, || AtomicU8::new(0));
        Ring { thread, buf: v.into_boxed_slice(), head: AtomicUsize::new(0) }
    }

    fn write(&self, mut bytes: &[u8]) {
        let len = self.buf.len();
        if len == 0 {
            return;
        }
        if bytes.len() > len {
            // A single over-long line keeps only its tail; the torn head
            // is dropped at read time like any other partial line.
            bytes = &bytes[bytes.len() - len..];
        }
        let head = self.head.load(Ordering::Relaxed);
        for (i, &b) in bytes.iter().enumerate() {
            self.buf[(head + i) % len].store(b, Ordering::Relaxed);
        }
        self.head.store(head + bytes.len(), Ordering::Release);
    }

    /// The surviving window, oldest byte first, with the leading torn
    /// line after a wrap skipped. Concurrent writes can tear the tail
    /// (and, mid-overwrite, the body); consumers parse lossily.
    fn contents(&self) -> Vec<u8> {
        let head = self.head.load(Ordering::Acquire);
        let len = self.buf.len();
        if len == 0 || head == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(head.min(len));
        if head <= len {
            for slot in &self.buf[..head] {
                out.push(slot.load(Ordering::Relaxed));
            }
            return out;
        }
        let start = head % len;
        for i in 0..len {
            out.push(self.buf[(start + i) % len].load(Ordering::Relaxed));
        }
        // The oldest line was overwritten mid-line by the wrap: skip to
        // the first line boundary.
        match out.iter().position(|&b| b == b'\n') {
            Some(nl) => out.split_off(nl + 1),
            None => Vec::new(),
        }
    }
}

thread_local! {
    static RING: std::cell::OnceCell<Arc<Ring>> = const { std::cell::OnceCell::new() };
}

/// True iff the flight recorder is capturing events.
#[inline]
pub(crate) fn is_on() -> bool {
    FLIGHT_ON.load(Ordering::Relaxed)
}

pub(crate) fn set_on(on: bool) {
    FLIGHT_ON.store(on, Ordering::Relaxed);
}

/// Serializes `e` and appends it to the calling thread's ring.
pub(crate) fn record(e: &Event) {
    let mut line = e.to_json_line();
    line.push('\n');
    let _ = RING.try_with(|cell| {
        let ring = cell.get_or_init(|| {
            let r = Arc::new(Ring::new(crate::thread_ordinal(), DEFAULT_RING_BYTES));
            RINGS.lock().unwrap_or_else(|p| p.into_inner()).push(r.clone());
            r
        });
        ring.write(line.as_bytes());
    });
}

/// Every ring's surviving window as text, ordered by thread ordinal.
/// Test/report-facing; the panic path uses [`dump_flight`].
pub fn flight_snapshot() -> Vec<(u64, String)> {
    let mut rings = RINGS.lock().unwrap_or_else(|p| p.into_inner());
    rings.sort_by_key(|r| r.thread);
    rings.iter().map(|r| (r.thread, String::from_utf8_lossy(&r.contents()).into_owned())).collect()
}

/// Writes every ring's surviving window to `flight-<pid>.jsonl` in the
/// current directory and returns the path. `None` when the recorder
/// never captured anything (clean disabled runs leave no files behind).
pub fn dump_flight() -> Option<PathBuf> {
    let snapshot = flight_snapshot();
    if snapshot.iter().all(|(_, text)| text.is_empty()) {
        return None;
    }
    let path = PathBuf::from(format!("flight-{}.jsonl", std::process::id()));
    let mut out = String::new();
    for (_, text) in &snapshot {
        out.push_str(text);
        if !out.ends_with('\n') {
            out.push('\n');
        }
    }
    std::fs::write(&path, out).ok()?;
    Some(path)
}

/// Arms the crash-injection hook: the `n`-th event emitted after this
/// call panics. 0 disarms. Driven by `SNET_FAULT_PANIC_AFTER` in
/// `snetctl` so CI can kill a real run at a known point and assert the
/// flight dump survives.
pub fn arm_fault_after(n: u64) {
    FAULT_COUNT.store(0, Ordering::Relaxed);
    FAULT_AFTER.store(n, Ordering::Relaxed);
}

#[inline]
pub(crate) fn fault_tick() {
    let n = FAULT_AFTER.load(Ordering::Relaxed);
    if n != 0 && FAULT_COUNT.fetch_add(1, Ordering::Relaxed) + 1 == n {
        FAULT_AFTER.store(0, Ordering::Relaxed);
        panic!("injected fault: event #{n} reached (SNET_FAULT_PANIC_AFTER)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(name: &str, value: f64) -> Event {
        Event {
            kind: EventKind::Counter,
            name: name.into(),
            id: 0,
            parent: 0,
            thread: 0,
            t_us: 1,
            dur_us: 0,
            value,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn ring_drops_oldest_on_wrap_and_keeps_whole_lines() {
        let ring = Ring::new(0, 64);
        for i in 0..40 {
            ring.write(format!("line-{i:04}\n").as_bytes());
        }
        let text = String::from_utf8(ring.contents()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines.is_empty());
        // Every surviving line is intact and they are the newest ones.
        for l in &lines {
            assert!(l.starts_with("line-"), "torn line survived: {l:?}");
        }
        assert_eq!(*lines.last().unwrap(), "line-0039");
    }

    #[test]
    fn unwrapped_ring_returns_everything() {
        let ring = Ring::new(0, 1024);
        ring.write(b"a\n");
        ring.write(b"b\n");
        assert_eq!(ring.contents(), b"a\nb\n");
    }

    #[test]
    fn oversized_write_keeps_the_tail() {
        let ring = Ring::new(0, 8);
        ring.write(b"0123456789abcdef\n");
        let got = ring.contents();
        assert!(got.len() <= 8);
        assert!(got.ends_with(b"\n"));
    }

    #[test]
    fn recorded_events_parse_back_from_the_snapshot() {
        let _guard = crate::TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_on(true);
        record(&ev("flight.test.counter", 7.0));
        set_on(false);
        let me = crate::thread_ordinal();
        let snap = flight_snapshot();
        let (_, text) = snap.iter().find(|(t, _)| *t == me).expect("own ring registered");
        let line = text.lines().rfind(|l| l.contains("flight.test.counter")).unwrap();
        let back = crate::report::parse_event_line(line).expect("ring line parses");
        assert_eq!(back.value, 7.0);
    }
}
