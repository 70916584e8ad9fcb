//! Property tests for report span-forest reconstruction: random span
//! forests, truncated traces, and adversarially shuffled cross-thread
//! line orders must all reconstruct to the same tree shape. The trace
//! and baseline parsers must also survive damaged input — truncation at
//! any byte, including inside a multi-byte character, and byte flips —
//! without panicking.
//!
//! Events are generated directly (not through the live emit API) so each
//! case controls ids, threads, and interleavings exactly. The generator
//! is a seeded LCG: proptest supplies only the seed, which keeps the
//! shrunk counterexamples small and reproducible.

use proptest::prelude::*;
use snet_obs::report::{self, SpanNode};
use snet_obs::{Baseline, Event, EventKind};
use std::collections::BTreeMap;

/// Deterministic pseudo-random stream (64-bit LCG, Knuth constants).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

#[derive(Debug, Clone)]
struct GenSpan {
    id: u64,
    parent: u64, // 0 = root
    thread: u64,
    start_us: u64,
    dur_us: u64,
    ended: bool,
}

/// Generates a random forest honouring the emitter's invariants: ids are
/// globally increasing, a child's id and start time come after its
/// parent's, and a parent never ends before its children (spans are
/// RAII guards). A span may be truncated (started, never ended).
fn gen_forest(seed: u64) -> Vec<GenSpan> {
    let mut rng = Lcg(seed.wrapping_mul(2) + 1);
    let n = 1 + rng.below(24);
    let mut spans: Vec<GenSpan> = Vec::new();
    for id in 1..=n {
        let parent = if spans.is_empty() || rng.below(4) == 0 {
            0
        } else {
            spans[rng.below(spans.len() as u64) as usize].id
        };
        let parent_start = spans.iter().find(|s| s.id == parent).map(|s| s.start_us).unwrap_or(0);
        spans.push(GenSpan {
            id,
            parent,
            thread: rng.below(4),
            start_us: parent_start + 1 + rng.below(50),
            dur_us: rng.below(1000),
            ended: rng.below(8) != 0,
        });
    }
    // Truncation is independent per span on purpose: a crash loses the
    // end of every span still open, and each thread's flight ring drops
    // its own oldest events, so a parent's end event can be missing
    // while a child's (from another thread) survives — exactly the
    // orphan-promotion case the reconstructor must handle.
    spans
}

fn to_events(spans: &[GenSpan]) -> Vec<Event> {
    let mut events = Vec::new();
    for s in spans {
        events.push(Event {
            kind: EventKind::SpanStart,
            name: format!("span{}", s.id),
            id: s.id,
            parent: s.parent,
            thread: s.thread,
            t_us: s.start_us,
            dur_us: 0,
            value: 0.0,
            attrs: Vec::new(),
        });
        if s.ended {
            events.push(Event {
                kind: EventKind::SpanEnd,
                name: format!("span{}", s.id),
                id: s.id,
                parent: s.parent,
                thread: s.thread,
                t_us: s.start_us + s.dur_us,
                dur_us: s.dur_us,
                value: 0.0,
                attrs: vec![("k".into(), format!("v{}", s.id))],
            });
        }
    }
    events
}

fn shuffle<T>(items: &mut [T], rng: &mut Lcg) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Flattens a forest into `id → parent-id` (0 for roots), asserting each
/// id appears exactly once.
fn parent_map(roots: &[SpanNode]) -> BTreeMap<u64, u64> {
    fn walk(nodes: &[SpanNode], parent: u64, out: &mut BTreeMap<u64, u64>) {
        for n in nodes {
            assert!(out.insert(n.id, parent).is_none(), "span id {} duplicated", n.id);
            walk(&n.children, n.id, out);
        }
    }
    let mut out = BTreeMap::new();
    walk(roots, 0, &mut out);
    out
}

/// Valid parser inputs: a trace whose lines carry multi-byte attrs and
/// every value shape, and a baseline file with a non-ASCII manifest.
fn valid_documents() -> Vec<String> {
    let mut end = Event {
        kind: EventKind::SpanEnd,
        name: "search.wörker".into(),
        id: (1 << 53) + 1,
        parent: 2,
        thread: 3,
        t_us: 900,
        dur_us: 78,
        value: 2.5,
        attrs: vec![("note".into(), "a \"q\"\n→✓ 😀".into()), ("ü".into(), "ß".into())],
    };
    let mut lines = vec![end.to_json_line()];
    end.kind = EventKind::Counter;
    end.value = 64.0;
    end.attrs.clear();
    lines.push(end.to_json_line());
    let manifest = vec![("tool".to_string(), "fuzz".to_string()), ("hôst".into(), "ĉ😀".into())];
    end.kind = EventKind::Manifest;
    end.attrs = manifest.clone();
    lines.push(end.to_json_line());
    let trace = lines.join("\n") + "\n";
    let baseline = Baseline {
        schema: snet_obs::BASELINE_SCHEMA.into(),
        name: "fuzz_ü".into(),
        manifest,
        metrics: [("wall_ms".to_string(), 12.5), ("nodes".into(), 7.0)].into(),
    };
    let mut docs = lines;
    docs.push(trace);
    docs.push(baseline.to_json());
    docs
}

/// Runs every parser over `bytes` (lossily decoded, as the flight dump
/// reader does); a panic fails the test.
fn parse_all(bytes: &[u8]) -> Option<Event> {
    let text = String::from_utf8_lossy(bytes);
    let _ = report::parse_trace_lossy(&text);
    let _ = report::parse_trace(&text);
    let _ = Baseline::parse(&text);
    report::parse_event_line(&text)
}

#[test]
fn parsers_survive_truncation_at_every_byte() {
    for doc in valid_documents() {
        let bytes = doc.as_bytes();
        assert!(bytes.iter().any(|b| *b >= 0x80), "input has multi-byte characters");
        for cut in 0..bytes.len() {
            // A prefix of one object line is never a whole event.
            let parsed = parse_all(&bytes[..cut]);
            if !doc.contains('\n') {
                assert_eq!(parsed, None, "prefix of {cut} bytes parsed: {doc}");
            }
        }
        assert!(parse_all(bytes).is_some() || doc.contains('\n'));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Any line order of the same event set reconstructs the same
    /// forest, every ended span lands under its parent (or is promoted
    /// to root when the parent never ended), and the rendering mentions
    /// every surviving span.
    #[test]
    fn forest_reconstruction_is_order_independent(seed in 0u64..100_000) {
        let spans = gen_forest(seed);
        let events = to_events(&spans);

        // Reference shape: events in emission order.
        let reference = report::summarize(events.clone());
        let reference_parents = parent_map(&reference.roots);

        // Every ended span appears; its parent is the nearest *ended*
        // ancestor-or-root per the promotion rule.
        let by_id: BTreeMap<u64, &GenSpan> = spans.iter().map(|s| (s.id, s)).collect();
        for s in spans.iter().filter(|s| s.ended) {
            let expected_parent =
                if by_id.get(&s.parent).is_some_and(|p| p.ended) { s.parent } else { 0 };
            prop_assert_eq!(
                reference_parents.get(&s.id).copied(),
                Some(expected_parent),
                "span {} misplaced", s.id
            );
        }
        prop_assert_eq!(reference_parents.len(), spans.iter().filter(|s| s.ended).count());

        let rendered = report::render(&reference);
        for s in spans.iter().filter(|s| s.ended) {
            prop_assert!(rendered.contains(&format!("span{}", s.id)));
        }

        // Adversarial interleavings: whole-trace shuffles, which cover
        // every way the threads' events can interleave in a file — each
        // must match the reference.
        let mut rng = Lcg(seed ^ 0x9e3779b97f4a7c15);
        for _ in 0..4 {
            let mut shuffled = events.clone();
            shuffle(&mut shuffled, &mut rng);
            let report = report::summarize(shuffled);
            prop_assert_eq!(parent_map(&report.roots), reference_parents.clone());
            prop_assert_eq!(&report.roots, &reference.roots);
        }
    }

    /// The JSONL encoding is transparent: serializing shuffled events to
    /// lines and re-parsing yields the identical report.
    #[test]
    fn jsonl_roundtrip_preserves_the_forest(seed in 0u64..100_000) {
        let spans = gen_forest(seed);
        let mut events = to_events(&spans);
        let mut rng = Lcg(seed ^ 0xdeadbeef);
        shuffle(&mut events, &mut rng);
        let text: String =
            events.iter().map(|e| e.to_json_line() + "\n").collect();
        let parsed = report::parse_trace(&text).expect("trace parses");
        let direct = report::summarize(events);
        prop_assert_eq!(parsed, direct);
    }

    /// Random byte flips never panic a parser, and whatever still
    /// parses as an event re-encodes to a line that parses back the same.
    #[test]
    fn parsers_survive_byte_flips(seed in 0u64..100_000) {
        let mut rng = Lcg(seed.wrapping_mul(3) + 7);
        for doc in valid_documents() {
            let mut bytes = doc.into_bytes();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bytes.len() as u64) as usize;
                bytes[at] = rng.below(256) as u8;
            }
            if let Some(ev) = parse_all(&bytes) {
                if ev.value.is_finite() {
                    prop_assert_eq!(report::parse_event_line(&ev.to_json_line()), Some(ev));
                }
            }
        }
    }
}
