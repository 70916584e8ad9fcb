//! Properties of the JSON layer every API request goes through: the
//! vendored `serde_json`, which decodes text straight into a type through
//! its token scanner and prints `serde::Value` trees, whose strings keep
//! short text inline.
//!
//! * `from_str` never panics on arbitrary text, as a bare `Value` or as
//!   any of the three request bodies snetd accepts (`CheckRequest`,
//!   `AdversaryRequest`, `SearchRequest`), a `Verdict`, the job documents
//!   clients read (`JobStatus`, `ProgressFrame`), the proof documents
//!   (`IteratedReverseDelta`, `SortingRefutation`) or a trace `Event` or
//!   `Baseline`, including near-miss mutations of valid bodies;
//! * decoding a body from its text and from its `Value` tree agree: the
//!   same value, or the same error (malformed text fails both);
//! * random `Value` trees round-trip through `to_string` and
//!   `to_string_pretty`, with strings of 0–40 bytes (on both sides of the
//!   22-byte inline limit) holding quotes, backslashes, control, non-ASCII
//!   and astral characters, and numbers at the integer limits, past
//!   `u64`, and fractional;
//! * a `Value` is 32 bytes.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::{Number, Value};
use snet_adversary::SortingRefutation;
use snet_core::api::{AdversaryRequest, CheckRequest, SearchRequest};
use snet_core::api::{FrameKind, JobState, JobStatus, ProgressFrame, API_SCHEMA};
use snet_core::element::{Element, ElementKind};
use snet_core::ir::CanonicalHash;
use snet_core::network::{ComparatorNetwork, Level};
use snet_core::verdict::{Verdict, VerdictKind};
use snet_obs::{Baseline, Event, EventKind};
use snet_topology::random::{random_iterated, RandomDeltaConfig};
use snet_topology::IteratedReverseDelta;
use std::fmt::Debug;

/// Characters a string or a broken document is made of: JSON syntax,
/// escapes, controls, non-ASCII and astral text.
#[rustfmt::skip]
const ALPHABET: &[&str] = &[
    "a", "Z", "0", "7", " ", "\"", "\\", "/", "\n", "\t", "\u{0}", "\u{1f}", "\u{7f}", "é", "λ",
    "中", "😀", "\u{10ffff}", "{", "}", "[", "]", ":", ",", "-", "+", ".", "e", "E", "true",
    "false", "null", "\\u", "D800", "DC00", "\\n", "\\\"", "\\\\", "\\uD83D\\uDE00", "1e400",
    "18446744073709551616",
];

fn pick<'a>(rng: &mut TestRng, items: &[&'a str]) -> &'a str {
    items[rng.below(items.len() as u64) as usize]
}

/// Text of exactly `len` bytes drawn from the first 18 (single-character)
/// entries of [`ALPHABET`].
fn text_of_len(rng: &mut TestRng, len: usize) -> String {
    let mut s = String::new();
    while s.len() < len {
        let c = pick(rng, &ALPHABET[..18]);
        if s.len() + c.len() <= len {
            s.push_str(c);
        } else {
            s.push('x');
        }
    }
    s
}

/// Random `Value` trees up to a small depth.
struct Values {
    depth: u32,
}

impl Values {
    fn number(rng: &mut TestRng) -> Number {
        match rng.below(9) {
            0 => Number::U(u64::MAX),
            1 => Number::I(i64::MIN),
            2 => Number::U(rng.next_u64()),
            3 => Number::U(rng.below(1000)),
            4 => Number::I(-(rng.below(i64::MAX as u64) as i64) - 1),
            // Past `u64`: only a float holds it.
            5 => Number::F(2f64.powi(64 + rng.below(100) as i32)),
            6 => Number::F((rng.unit_f64() - 0.5) * 1e6),
            7 => Number::F(
                Some(f64::from_bits(rng.next_u64())).filter(|f| f.is_finite()).unwrap_or(0.5),
            ),
            _ => Number::F(rng.below(1 << 20) as f64),
        }
    }

    fn value(&self, rng: &mut TestRng, depth: u32) -> Value {
        let leaf = depth == 0 || rng.below(3) == 0;
        match rng.below(if leaf { 4 } else { 6 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 1),
            2 => Value::Number(Self::number(rng)),
            3 => {
                let len = rng.below(41) as usize;
                Value::String(text_of_len(rng, len).into())
            }
            4 => Value::Array((0..rng.below(5)).map(|_| self.value(rng, depth - 1)).collect()),
            _ => Value::Object(
                (0..rng.below(5))
                    .map(|_| {
                        let len = rng.below(12) as usize;
                        (text_of_len(rng, len), self.value(rng, depth - 1))
                    })
                    .collect(),
            ),
        }
    }
}

impl Strategy for Values {
    type Value = Value;
    fn gen_value(&self, rng: &mut TestRng) -> Value {
        self.value(rng, self.depth)
    }
}

/// Valid bodies of each request kind, verdicts, job and proof documents,
/// events and baselines, then mangled: truncated, spliced with syntax, or
/// with a range deleted (always on `char` boundaries).
struct Bodies;

impl Bodies {
    fn valid(rng: &mut TestRng) -> String {
        let kinds = [ElementKind::Cmp, ElementKind::CmpRev, ElementKind::Pass, ElementKind::Swap];
        match rng.below(10) {
            0 => {
                let level = Level::of_elements(vec![Element::cmp(0, 1), Element::cmp_rev(2, 3)]);
                let network = ComparatorNetwork::new(4, vec![level]).unwrap();
                serde_json::to_string(&CheckRequest { network }).unwrap()
            }
            1 => {
                let n = 1u32 << (1 + rng.below(3));
                let stages = (0..1 + rng.below(3))
                    .map(|_| (0..n / 2).map(|_| kinds[rng.below(4) as usize]).collect())
                    .collect();
                let k = (rng.below(2) == 1).then(|| rng.below(5) as u32);
                serde_json::to_string(&AdversaryRequest { n, stages, k }).unwrap()
            }
            2 => {
                let mode = pick(rng, &["unrestricted", "shuffle-legal", "warp"]).to_string();
                let max_depth = (rng.below(2) == 1).then(|| rng.below(9) as u32);
                let req = SearchRequest { n: rng.below(20) as u32, mode, max_depth, threads: None };
                serde_json::to_string(&req).unwrap()
            }
            4 => Self::job_status(rng).to_json(),
            5 => Self::progress_frame(rng).to_json_line(),
            6 => {
                let mut seeded = StdRng::seed_from_u64(rng.next_u64());
                let (k, l) = (1 + rng.below(2) as usize, 1 + rng.below(3) as usize);
                let ird = random_iterated(k, l, &RandomDeltaConfig::default(), true, &mut seeded);
                serde_json::to_string(&ird).unwrap()
            }
            7 => {
                let r = SortingRefutation {
                    input_a: vec![0, 2, 1, 3],
                    input_b: vec![0, 1, 2, 3],
                    m: 1,
                    wire_pair: (1, 2),
                    output_a: vec![0, 2, 1, 3],
                    output_b: vec![0, 1, 2, 3],
                };
                serde_json::to_string(&r).unwrap()
            }
            8 => {
                let ev = Event {
                    kind: [EventKind::SpanEnd, EventKind::Counter][rng.below(2) as usize],
                    name: "check.zero_one".into(),
                    id: rng.below(9),
                    parent: 1,
                    thread: 0,
                    t_us: rng.next_u64() >> 20,
                    dur_us: rng.below(3),
                    value: [0.0, 1.5, 7.0][rng.below(3) as usize],
                    attrs: vec![("wires".into(), "16".into()), ("note".into(), "a \"b\"".into())],
                };
                ev.to_json_line()
            }
            9 => {
                let b = Baseline {
                    schema: "snet-bench-baseline/1".into(),
                    name: "search_n6".into(),
                    manifest: vec![
                        ("tool".into(), "baselines".into()),
                        ("threads".into(), "1".into()),
                    ],
                    metrics: [("nodes".to_string(), 6.0), ("wall_ms".to_string(), 1.25)].into(),
                };
                b.to_json()
            }
            _ => {
                let n = 1 + rng.below(4) as u32;
                let which = rng.below(3);
                let mut bits = || (0..n).map(|_| rng.below(2) as u32).collect::<Vec<u32>>();
                let (input, output, input_b, output_b) = (bits(), bits(), bits(), bits());
                let kind = match which {
                    0 => VerdictKind::SortCertificate { tested: 1 << n },
                    1 => VerdictKind::Counterexample { index: 5, input, output },
                    _ => VerdictKind::AdversaryWitness {
                        input_a: input,
                        input_b,
                        m: 1,
                        wire_a: 0,
                        wire_b: n - 1,
                        output_a: output,
                        output_b,
                    },
                };
                Verdict::with_kind(CanonicalHash::of_label("e2e_api_json"), n, kind).to_json()
            }
        }
    }

    fn job_status(rng: &mut TestRng) -> JobStatus {
        let result = serde_json::from_str(r#"{"optimal_depth":3,"nodes":[1,2]}"#).unwrap();
        JobStatus {
            schema: API_SCHEMA.into(),
            id: format!("job-{}", rng.below(100)),
            kind: "search".into(),
            state: [JobState::Running, JobState::Done, JobState::Failed][rng.below(3) as usize],
            error: (rng.below(2) == 1).then(|| "mode must be one of: unrestricted".into()),
            result: (rng.below(2) == 1).then_some(result),
        }
    }

    fn progress_frame(rng: &mut TestRng) -> ProgressFrame {
        let kind = match rng.below(3) {
            0 => FrameKind::Lifecycle { state: JobState::Queued },
            1 => FrameKind::Event { name: "search.rounds".into(), value: rng.below(50) },
            _ => FrameKind::Log { message: "round 3: depth 5 refuted".into() },
        };
        let trace = (rng.below(2) == 1).then(|| "deadbeef0000000000000000cafef00d".into());
        ProgressFrame { job: "job-0".into(), seq: rng.below(9), trace, kind }
    }

    fn boundary(s: &str, rng: &mut TestRng) -> usize {
        let mut at = rng.below(s.len() as u64 + 1) as usize;
        while !s.is_char_boundary(at) {
            at -= 1;
        }
        at
    }
}

impl Strategy for Bodies {
    type Value = String;
    fn gen_value(&self, rng: &mut TestRng) -> String {
        let mut s = Self::valid(rng);
        for _ in 0..rng.below(4) {
            let at = Self::boundary(&s, rng);
            match rng.below(3) {
                0 => s.truncate(at),
                1 => s.insert_str(at, pick(rng, ALPHABET)),
                _ => {
                    let end = Self::boundary(&s, rng).max(at);
                    s.replace_range(at..end, "");
                }
            }
        }
        s
    }
}

/// `T` decoded from `text` and from the `Value` tree of `text`: the same
/// value, or the same error (malformed text fails both alike).
fn text_and_tree<T: PartialEq + Debug>(
    text: &str,
    from_text: fn(&str) -> Result<T, serde_json::Error>,
    from_tree: fn(Value) -> Result<T, serde_json::Error>,
) -> Result<(), String> {
    let direct = from_text(text).map_err(|e| e.to_string());
    let walked = serde_json::from_str(text).and_then(from_tree).map_err(|e| e.to_string());
    if direct == walked {
        Ok(())
    } else {
        Err(format!("from text {direct:?}, from the tree {walked:?}, on {text:?}"))
    }
}

/// Parses `text` as a `Value` and as every body type, each from the text
/// and from its tree; `Err` names a decode that panicked or a type whose
/// two decodes disagree.
fn parse_all(text: &str) -> Result<(), String> {
    let run = |what: &str, f: &dyn Fn() -> Result<(), String>| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .map_err(|_| format!("{what} panicked on {text:?}"))?
            .map_err(|e| format!("{what}: {e}"))
    };
    use serde_json::{from_str, from_value};
    run("Value", &|| {
        drop(from_str::<Value>(text));
        Ok(())
    })?;
    run("CheckRequest", &|| text_and_tree::<CheckRequest>(text, from_str, from_value))?;
    run("AdversaryRequest", &|| text_and_tree::<AdversaryRequest>(text, from_str, from_value))?;
    run("SearchRequest", &|| text_and_tree::<SearchRequest>(text, from_str, from_value))?;
    run("Verdict", &|| text_and_tree::<Verdict>(text, from_str, from_value))?;
    run("JobStatus", &|| text_and_tree::<JobStatus>(text, from_str, from_value))?;
    run("ProgressFrame", &|| text_and_tree::<ProgressFrame>(text, from_str, from_value))?;
    run("IteratedReverseDelta", &|| {
        text_and_tree::<IteratedReverseDelta>(text, from_str, from_value)
    })?;
    run("SortingRefutation", &|| text_and_tree::<SortingRefutation>(text, from_str, from_value))?;
    run("Event", &|| text_and_tree::<Event>(text, from_str, from_value))?;
    run("Baseline", &|| text_and_tree::<Baseline>(text, from_str, from_value))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5000, ..ProptestConfig::default() })]

    #[test]
    fn from_str_never_panics_on_arbitrary_text(
        tokens in proptest::collection::vec(0usize..ALPHABET.len(), 0..40),
    ) {
        let text: String = tokens.iter().map(|&i| ALPHABET[i]).collect();
        prop_assert!(parse_all(&text).is_ok(), "{:?}", parse_all(&text));
    }

    #[test]
    fn from_str_never_panics_on_mangled_request_bodies(text in Bodies) {
        prop_assert!(parse_all(&text).is_ok(), "{:?}", parse_all(&text));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 500, ..ProptestConfig::default() })]

    #[test]
    fn values_round_trip_through_text(v in Values { depth: 3 }) {
        let compact = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&compact).unwrap();
        prop_assert_eq!(&back, &v, "{}", compact);
        // Printing is a function of the value: the reparse prints the same.
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), compact);
        let pretty = serde_json::to_string_pretty(&v).unwrap();
        prop_assert_eq!(&serde_json::from_str::<Value>(&pretty).unwrap(), &v, "{}", pretty);
    }

    #[test]
    fn strings_round_trip_at_every_length(len in 0usize..41, seed in any::<u64>()) {
        let mut rng = TestRng::deterministic(&seed.to_string());
        let text = text_of_len(&mut rng, len);
        let v = Value::String(text.as_str().into());
        prop_assert_eq!(v.as_str(), Some(text.as_str()));
        let back: Value = serde_json::from_str(&serde_json::to_string(&v).unwrap()).unwrap();
        prop_assert_eq!(back.as_str(), Some(text.as_str()));
    }
}

#[test]
fn integers_parse_to_the_narrowest_number_that_holds_them() {
    let parse = |t: &str| serde_json::from_str::<Value>(t).unwrap();
    assert!(matches!(parse("18446744073709551615"), Value::Number(Number::U(u64::MAX))));
    assert!(matches!(parse("-9223372036854775808"), Value::Number(Number::I(i64::MIN))));
    assert!(matches!(parse("0"), Value::Number(Number::U(0))));
    assert!(matches!(parse("007"), Value::Number(Number::U(7))));
    for past in ["18446744073709551616", "-9223372036854775809", "1e400"] {
        let Value::Number(Number::F(f)) = parse(past) else { panic!("{past} is a float") };
        assert_eq!(f, past.parse::<f64>().unwrap(), "{past}");
    }
    for bad in ["-", "--1", "1-", "1e", "+1", ".5"] {
        assert!(serde_json::from_str::<Value>(bad).is_err(), "{bad}");
    }
}

#[test]
fn a_value_is_32_bytes() {
    assert_eq!(std::mem::size_of::<Value>(), 32);
}
