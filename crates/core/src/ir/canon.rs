//! Stable content addressing for comparator networks: [`CanonicalHash`].
//!
//! The hash is computed over the *canonical form* of a program — the
//! fixpoint of the canonical pass pipeline
//! ([`AbsorbRoutes`](super::AbsorbRoutes) /
//! [`NormalizeCmpRev`](super::NormalizeCmpRev) /
//! [`StripPassSwap`](super::StripPassSwap)) — so every presentation of
//! the same circuit addresses the same artifact:
//!
//! * any legal ordering of the canonical passes converges to the same
//!   slot program (data never moves, it is only relabeled, and slot `i`
//!   holds input wire `i` at entry in every ordering);
//! * comparators within a level are slot-disjoint, so the encoder sorts
//!   them — relabelings within a level's orbit (listing order, `Cmp` ↔
//!   reversed `CmpRev`, inserted `Pass`/`Swap` no-ops) hash identically;
//! * levels left empty by stripping are compacted away.
//!
//! The digest is SHA-256 (implemented here; the workspace vendors no
//! crypto crate) over a length-prefixed little-endian encoding, giving
//! collision resistance appropriate for content addressing: the
//! `snet-store` cache returns whatever artifact the hash names, so two
//! distinct networks must not collide.

use super::passes::PassManager;
use super::program::Program;
use crate::network::ComparatorNetwork;

/// Domain separator and version of the canonical encoding. Bump on any
/// change to the byte layout — old store entries then simply miss.
const CANON_DOMAIN: &[u8] = b"snet-canon/1";

/// Domain separator for label-derived hashes ([`CanonicalHash::of_label`]).
const LABEL_DOMAIN: &[u8] = b"snet-label/1";

/// A 256-bit content address for a comparator network's canonical form.
///
/// Equal for every program that reduces to the same canonical form; see
/// the module docs for the exact invariance guarantees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalHash([u8; 32]);

impl CanonicalHash {
    /// The canonical hash of a network, lowered and canonicalized here.
    pub fn of_network(net: &ComparatorNetwork) -> CanonicalHash {
        let _span = snet_obs::span("ir.hash");
        let mut prog = Program::from_network(net);
        PassManager::canonical().run(&mut prog);
        Self::of_canonical_program(&prog)
    }

    /// The canonical hash of an already-compiled program. The program is
    /// re-canonicalized first (the canonical passes are idempotent), so
    /// any pass history — including none — yields the same hash.
    pub fn of_program(prog: &Program) -> CanonicalHash {
        let _span = snet_obs::span("ir.hash");
        let mut canon = prog.clone();
        PassManager::canonical().run(&mut canon);
        Self::of_canonical_program(&canon)
    }

    /// A hash derived from an arbitrary label string, for keying
    /// artifacts that are not networks (e.g. transposition-table spills)
    /// in the same store namespace. Domain-separated from network hashes.
    pub fn of_label(label: &str) -> CanonicalHash {
        let mut h = Sha256::new();
        h.update(LABEL_DOMAIN);
        h.update(&(label.len() as u64).to_le_bytes());
        h.update(label.as_bytes());
        CanonicalHash(h.finish())
    }

    /// Encodes and digests a program that is already in canonical form.
    fn of_canonical_program(prog: &Program) -> CanonicalHash {
        debug_assert!(!prog.has_routes(), "canonical pipeline absorbs routes");
        let mut h = Sha256::new();
        h.update(CANON_DOMAIN);
        h.update(&(prog.wires() as u64).to_le_bytes());

        // Per-level comparator pairs, sorted within the level. Slots in a
        // level are disjoint, so sorting by the first slot is a total
        // order and erases the listing-order freedom. Empty levels are
        // skipped entirely (they carry no semantics once routes are
        // absorbed), which compacts the level numbering.
        let ops = prog.ops();
        let level_of = prog.level_of();
        let mut i = 0usize;
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        while i < ops.len() {
            let level = level_of[i];
            pairs.clear();
            while i < ops.len() && level_of[i] == level {
                let op = ops[i];
                debug_assert!(op.is_comparator(), "canonical pipeline strips non-comparators");
                pairs.push((op.a, op.b));
                i += 1;
            }
            pairs.sort_unstable();
            h.update(&[0xFF]); // level separator
            h.update(&(pairs.len() as u64).to_le_bytes());
            for &(a, b) in &pairs {
                h.update(&a.to_le_bytes());
                h.update(&b.to_le_bytes());
            }
        }

        // The final gather. Identity for circuit-model networks without
        // trailing routes, but in general part of the function computed.
        h.update(&[0xFE]);
        for &w in prog.output_map() {
            h.update(&w.to_le_bytes());
        }
        CanonicalHash(h.finish())
    }

    /// The raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hex rendering (64 chars), the on-disk key format.
    pub fn to_hex(&self) -> String {
        let mut out = String::with_capacity(64);
        for b in self.0 {
            out.push(char::from_digit((b >> 4) as u32, 16).unwrap());
            out.push(char::from_digit((b & 0xF) as u32, 16).unwrap());
        }
        out
    }

    /// Parses the 64-char lowercase/uppercase hex form back.
    pub fn from_hex(s: &str) -> Option<CanonicalHash> {
        let s = s.trim();
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        let bytes = s.as_bytes();
        for (i, chunk) in bytes.chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(CanonicalHash(out))
    }
}

impl std::fmt::Display for CanonicalHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4), dependency-free. Used only for content addressing;
// throughput is irrelevant next to the artifacts being hashed.
// ---------------------------------------------------------------------------

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total: u64,
}

impl Sha256 {
    fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0u8; 64],
            buf_len: 0,
            total: 0,
        }
    }

    fn update(&mut self, mut data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return; // input exhausted, partial block stays buffered
            }
            let block = self.buf;
            self.compress(&block);
            self.buf_len = 0;
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            self.compress(block.try_into().unwrap());
            data = rest;
        }
        self.buf[..data.len()].copy_from_slice(data);
        self.buf_len = data.len();
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }

    fn finish(mut self) -> [u8; 32] {
        let bit_len = self.total.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        self.update(&bit_len.to_be_bytes());
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 32];
        for (chunk, s) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&s.to_be_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sha_hex(data: &[u8]) -> String {
        let mut h = Sha256::new();
        h.update(data);
        CanonicalHash(h.finish()).to_hex()
    }

    #[test]
    fn sha256_known_answer_vectors() {
        // FIPS 180-4 / NIST CAVS vectors.
        assert_eq!(
            sha_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // One block boundary case: exactly 64 bytes.
        assert_eq!(
            sha_hex(&[b'a'; 64]),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"
        );
        // Million 'a's exercises multi-block streaming.
        let mut h = Sha256::new();
        for _ in 0..1_000_000 / 50 {
            h.update(&[b'a'; 50]);
        }
        assert_eq!(
            CanonicalHash(h.finish()).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn hex_roundtrip_and_display() {
        let h = CanonicalHash::of_label("round-trip");
        let hex = h.to_hex();
        assert_eq!(hex.len(), 64);
        assert_eq!(CanonicalHash::from_hex(&hex), Some(h));
        assert_eq!(format!("{h}"), hex);
        assert_eq!(CanonicalHash::from_hex("zz"), None);
        assert_eq!(CanonicalHash::from_hex(&hex[..60]), None);
    }

    #[test]
    fn labels_are_domain_separated_from_each_other() {
        assert_ne!(CanonicalHash::of_label("a"), CanonicalHash::of_label("b"));
        assert_ne!(CanonicalHash::of_label("ab"), CanonicalHash::of_label("a"));
    }
}
