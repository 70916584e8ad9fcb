//! Trace-context propagation: a 128-bit trace id plus a 64-bit parent
//! span id, carried across process boundaries in an `x-snet-trace`
//! header (`<32 hex trace>-<16 hex span>`, W3C-traceparent flavoured,
//! hand-parsed with no tracing library).
//!
//! The contract is asymmetric by design:
//!
//! * **Serialization is strict** — [`TraceContext::to_header`] always
//!   emits exactly 49 lower-case-hex bytes, so the wire form is
//!   byte-stable and greppable in access logs.
//! * **Parsing is lenient** — [`TraceContext::parse_header`] returns
//!   `Option`, and a server that receives a malformed, oversized, or
//!   duplicated header degrades to a fresh server-generated context.
//!   A telemetry header must never be able to fail a request.
//!
//! Span links (`[`LINK_ATTR`]`) connect causally-related but distinct
//! traces: a coalesced rider request keeps its own trace id yet links to
//! the leader's trace, where the one shared compile actually ran.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// The request header carrying a [`TraceContext`].
pub const TRACE_HEADER: &str = "x-snet-trace";

/// Span/response-header attribute naming a *linked* trace (hex trace
/// id): set on rider request spans pointing at the leader's trace.
pub const LINK_ATTR: &str = "link";

/// Span attribute under which the owning trace id is recorded.
pub const TRACE_ATTR: &str = "trace";

/// A 128-bit trace identifier. All-zero is reserved as "absent" (same
/// rule as W3C trace-context) and never generated or parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u128);

impl TraceId {
    /// 32 lower-case hex digits, zero-padded.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses exactly 32 hex digits (either case); rejects zero.
    pub fn parse_hex(s: &str) -> Option<TraceId> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let v = u128::from_str_radix(s, 16).ok()?;
        if v == 0 {
            return None;
        }
        Some(TraceId(v))
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// A propagated trace context: which trace a request belongs to and
/// which span on the sending side is the parent of whatever the
/// receiver opens next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    pub trace: TraceId,
    /// Parent span id on the *sending* side; 0 when the sender had no
    /// open span (trace root).
    pub parent_span: u64,
}

impl TraceContext {
    /// Generates a fresh context (new 128-bit trace id, no parent).
    ///
    /// Id material mixes wall-clock nanos, the pid, and a process-local
    /// counter through two rounds of a 64-bit finalizer — no RNG
    /// dependency, yet ids from concurrent processes on one host do not
    /// collide in practice (the pid and counter split identical
    /// timestamps).
    pub fn generate() -> TraceContext {
        static SALT: AtomicU64 = AtomicU64::new(0);
        let nanos =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0);
        let seq = SALT.fetch_add(1, Ordering::Relaxed);
        let hi = mix64(nanos ^ (std::process::id() as u64).rotate_left(32));
        let lo = mix64(seq.wrapping_mul(0x9e3779b97f4a7c15) ^ nanos.rotate_left(17));
        let raw = ((hi as u128) << 64) | lo as u128;
        // Zero is "absent"; the mixer output is never adjusted otherwise.
        TraceContext { trace: TraceId(if raw == 0 { 1 } else { raw }), parent_span: 0 }
    }

    /// The same trace with a different parent span — what a client
    /// stamps on the wire after opening its request span.
    pub fn child(self, parent_span: u64) -> TraceContext {
        TraceContext { parent_span, ..self }
    }

    /// `"<32 hex trace>-<16 hex span>"` — the `x-snet-trace` value.
    pub fn to_header(self) -> String {
        format!("{:032x}-{:016x}", self.trace.0, self.parent_span)
    }

    /// Lenient inverse of [`Self::to_header`]. Returns `None` (never an
    /// error) for anything but exactly `32 hex '-' 16 hex` with a
    /// non-zero trace id; surrounding whitespace is tolerated because
    /// header values arrive trimmed-or-not depending on the proxy.
    pub fn parse_header(value: &str) -> Option<TraceContext> {
        let value = value.trim();
        // The length check counts bytes, but `split_at` splits at a char
        // boundary: a non-ASCII value could straddle byte 32 and panic.
        // Valid values are hex + '-', so anything non-ASCII is garbage.
        if value.len() != 49 || !value.is_ascii() {
            return None;
        }
        let (trace_part, rest) = value.split_at(32);
        let span_part = rest.strip_prefix('-')?;
        let trace = TraceId::parse_hex(trace_part)?;
        if !span_part.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let parent_span = u64::from_str_radix(span_part, 16).ok()?;
        Some(TraceContext { trace, parent_span })
    }
}

/// SplitMix64 finalizer: full-avalanche 64-bit mixing.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrips_and_is_byte_stable() {
        let ctx = TraceContext {
            trace: TraceId(0xdead_beef_0000_0000_0000_0000_cafe_f00d),
            parent_span: 0x1234,
        };
        let h = ctx.to_header();
        assert_eq!(h.len(), 49);
        assert_eq!(h, "deadbeef0000000000000000cafef00d-0000000000001234");
        assert_eq!(TraceContext::parse_header(&h), Some(ctx));
        // Whitespace around the value is tolerated (proxies differ).
        assert_eq!(TraceContext::parse_header(&format!("  {h} ")), Some(ctx));
    }

    #[test]
    fn generated_ids_are_distinct_and_roundtrip() {
        let a = TraceContext::generate();
        let b = TraceContext::generate();
        assert_ne!(a.trace, b.trace, "consecutive ids must differ");
        assert_eq!(a.parent_span, 0);
        assert_eq!(TraceContext::parse_header(&a.to_header()), Some(a));
        let child = a.child(77);
        assert_eq!(child.trace, a.trace);
        assert_eq!(TraceContext::parse_header(&child.to_header()).unwrap().parent_span, 77);
    }

    #[test]
    fn malformed_headers_parse_to_none() {
        for bad in [
            "",
            "not-a-trace",
            "deadbeef-1234",                                       // too short
            "zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz-0000000000000001",   // non-hex trace
            "00000000000000000000000000000000-0000000000000001",   // zero trace id
            "deadbeef00000000000000.0cafef00d-0000000000001234",   // non-hex byte
            "deadbeef00000000000000000cafef00d0000000000001234",   // missing dash
            "deadbeef00000000000000000cafef00d-00000000000012345", // oversized
        ] {
            assert_eq!(TraceContext::parse_header(bad), None, "{bad:?} must not parse");
        }
        // A 49-byte value with the dash misplaced.
        assert_eq!(
            TraceContext::parse_header("deadbeef0000000000000000cafef00-d0000000000001234"),
            None
        );
    }

    #[test]
    fn multibyte_utf8_never_panics() {
        // 49 *bytes* with a multi-byte char straddling byte 32: a byte
        // split there is not a char boundary, so a naive `split_at`
        // would panic. Header values are attacker-controlled UTF-8.
        for straddle in [30, 31, 32] {
            let bad = format!("{}é{}", "a".repeat(straddle), "b".repeat(49 - straddle - 2));
            assert_eq!(bad.len(), 49);
            assert_eq!(TraceContext::parse_header(&bad), None, "{bad:?} must not parse");
        }
        // Same with a 3-byte char spanning bytes 31..34.
        let bad = format!("{}€{}", "a".repeat(31), "b".repeat(15));
        assert_eq!(bad.len(), 49);
        assert_eq!(TraceContext::parse_header(&bad), None);
    }
}
