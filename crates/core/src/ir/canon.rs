//! Stable content addressing for comparator networks: [`CanonicalHash`].
//!
//! The hash is computed over the *canonical form* of a program — the
//! route-free lowering run to the fixpoint of the canonical pass pipeline
//! ([`NormalizeCmpRev`](super::NormalizeCmpRev) /
//! [`StripPassSwap`](super::StripPassSwap)) — so every presentation of
//! the same circuit addresses the same artifact:
//!
//! * either ordering of the canonical passes converges to the same slot
//!   program (data never moves, it is only relabeled, and slot `i` holds
//!   input wire `i` at entry in every ordering);
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
//!
//! Every warm store hit hashes its request, and an n = 1024, depth-40
//! network encodes to about 164 KiB, so the digest is on the hot path.
//! The encoding is written through a stack buffer a few KiB at a time,
//! and the compress function is chosen per CPU at run time: the SHA
//! extensions (`sha`, with `ssse3` and `sse4.1`) through `std::arch`
//! where `is_x86_feature_detected!` finds them, else the portable
//! scalar rounds, which also serve as the reference the tests hold the
//! SHA-NI path to. Both give the same bytes, which are the store keys.

use super::exec::Executor;
use super::passes::{PassManager, PassRecord};
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

/// A network lowered and run through the canonical passes once: its
/// [`CanonicalHash`], and the canonical program an [`Executor`] runs, so
/// a caller that hashes and then, on a miss, computes lowers only once.
#[derive(Debug)]
pub struct Canonical {
    hash: CanonicalHash,
    program: Program,
    records: Vec<PassRecord>,
}

impl Canonical {
    /// Lowers `net`, runs the canonical passes and hashes the result (one
    /// `ir.hash` span).
    pub fn of_network(net: &ComparatorNetwork) -> Canonical {
        let _span = snet_obs::span("ir.hash");
        let mut program = Program::from_network(net);
        let records = PassManager::canonical().run(&mut program);
        let hash = CanonicalHash::of_canonical_program(&program);
        Canonical { hash, program, records }
    }

    /// The network's canonical hash.
    pub fn hash(&self) -> CanonicalHash {
        self.hash
    }

    /// The executor [`Executor::compile`] builds from the same network,
    /// without running the passes again (one `ir.compile` span).
    pub fn into_executor(self) -> Executor {
        let mut span = snet_obs::span("ir.compile")
            .attr("wires", self.program.wires())
            .attr("passes", self.records.len());
        let exec = Executor::from_parts(self.program, self.records);
        span.add_attr("ops", exec.op_count());
        exec
    }
}

impl CanonicalHash {
    /// The canonical hash of a network, lowered and canonicalized here.
    pub fn of_network(net: &ComparatorNetwork) -> CanonicalHash {
        Canonical::of_network(net).hash
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
        let mut h = Sha256::new();
        h.update(CANON_DOMAIN);
        h.update(&(prog.wires() as u64).to_le_bytes());

        // Per-level comparator pairs, sorted within the level. Slots in a
        // level are disjoint, so sorting by the first slot is a total
        // order and erases the listing-order freedom. Empty levels are
        // skipped entirely (lowering absorbed their routes, so they carry
        // no semantics), which compacts the level numbering.
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

        // The final gather. Identity for networks without routes or
        // `Swap`s, but in general part of the function computed.
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
// SHA-256 (FIPS 180-4), dependency-free. `Sha256::new` picks the compress
// function once: SHA-NI where the CPU has it, the scalar rounds otherwise.
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

/// Bytes buffered before a compress call: 32 blocks, so the SHA-NI path
/// keeps its state in registers across a run of blocks.
const BUF: usize = 2048;

struct Sha256 {
    state: [u32; 8],
    /// Pending input; `buf_len ≡ total (mod 64)`, and only whole blocks
    /// ever leave it.
    buf: [u8; BUF],
    buf_len: usize,
    total: u64,
    /// `Some` when this CPU runs the SHA-NI compress.
    shani: Option<shani::ShaNi>,
}

impl Sha256 {
    fn new() -> Self {
        Self::with_engine(shani::ShaNi::detect())
    }

    fn with_engine(shani: Option<shani::ShaNi>) -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0u8; BUF],
            buf_len: 0,
            total: 0,
            shani,
        }
    }

    /// Runs the compress function over `blocks` (a multiple of 64 bytes).
    fn compress(shani: Option<shani::ShaNi>, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        match shani {
            Some(engine) => engine.compress(state, blocks),
            None => compress_scalar(state, blocks),
        }
    }

    /// Appends `data`. Inlined: the encoder feeds 4- and 8-byte fields,
    /// and each becomes a copy into the buffer unless that fills it.
    #[inline]
    fn update(&mut self, mut data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        let free = BUF - self.buf_len;
        if data.len() < free {
            self.buf[self.buf_len..self.buf_len + data.len()].copy_from_slice(data);
            self.buf_len += data.len();
            return; // input exhausted, partial buffer stays
        }
        // Fill the buffer and compress it, then the whole blocks left in
        // `data` straight from there.
        if self.buf_len > 0 {
            let (head, rest) = data.split_at(free);
            self.buf[self.buf_len..].copy_from_slice(head);
            Self::compress(self.shani, &mut self.state, &self.buf);
            self.buf_len = 0;
            data = rest;
        }
        let whole = data.len() - data.len() % 64;
        Self::compress(self.shani, &mut self.state, &data[..whole]);
        let rest = &data[whole..];
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    fn finish(mut self) -> [u8; 32] {
        let bit_len = self.total.wrapping_mul(8);
        // 0x80, then zeros up to 56 mod 64, then the bit length.
        let pad = 1 + (119 - (self.total % 64) as usize) % 64;
        let mut tail = [0u8; 72];
        tail[0] = 0x80;
        tail[pad..pad + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&tail[..pad + 8]);
        Self::compress(self.shani, &mut self.state, &self.buf[..self.buf_len]);
        let mut out = [0u8; 32];
        for (chunk, s) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&s.to_be_bytes());
        }
        out
    }
}

/// The portable compress function: the FIPS 180-4 rounds, one block at a
/// time.
fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
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
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The SHA-NI compress function (Intel SHA extensions).
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// Proof that this CPU runs [`compress_blocks`]: only
    /// [`detect`](ShaNi::detect) makes one.
    #[derive(Clone, Copy)]
    pub(super) struct ShaNi(());

    impl ShaNi {
        /// `Some` iff the CPU has every feature `compress_blocks` enables.
        pub(super) fn detect() -> Option<ShaNi> {
            let found = is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("sse4.1")
                && is_x86_feature_detected!("ssse3");
            found.then_some(ShaNi(()))
        }

        pub(super) fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
            // SAFETY: a `ShaNi` exists only where `detect` found `sha`,
            // `sse4.1` and `ssse3` (`sse2` is baseline on x86_64).
            unsafe { compress_blocks(state, blocks) }
        }
    }

    /// `w16..w19` of the message schedule from `w0..w15`, four at a time.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Compresses every 64-byte block of `blocks` into `state`. The state
    /// lives in two registers in the `ABEF`/`CDGH` order the round
    /// instructions take; each block's words are byte-swapped to big
    /// endian on load. Calling it needs a CPU with the features it
    /// enables, which [`ShaNi::compress`], its one caller, holds proof of.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: `state` is 32 readable bytes; `loadu` has no alignment
        // requirement.
        let (dcba, hgfe) = unsafe {
            let p = state.as_ptr().cast::<__m128i>();
            (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // SAFETY: `block` is 64 readable bytes, four unaligned loads.
            let mut w = unsafe {
                let p = block.as_ptr().cast::<__m128i>();
                [0, 1, 2, 3].map(|i| _mm_shuffle_epi8(_mm_loadu_si128(p.add(i)), bswap))
            };
            for i in 0..16 {
                if i >= 4 {
                    w[i % 4] = schedule(w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                }
                // SAFETY: `K` holds 64 words, so words `4i..4i + 4` are
                // readable for `i < 16`.
                let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * i).cast::<__m128i>()) };
                let wk = _mm_add_epi32(w[i % 4], k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: `state` is 32 writable bytes; `storeu` has no alignment
        // requirement.
        unsafe {
            let p = state.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(p, dcba);
            _mm_storeu_si128(p.add(1), hgef);
        }
    }
}

/// No SHA-NI off x86_64: `detect` always says so.
#[cfg(not(target_arch = "x86_64"))]
mod shani {
    #[derive(Clone, Copy)]
    pub(super) enum ShaNi {}

    impl ShaNi {
        pub(super) fn detect() -> Option<ShaNi> {
            None
        }

        pub(super) fn compress(self, _state: &mut [u32; 8], _blocks: &[u8]) {
            match self {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar compress, then SHA-NI when this CPU has it.
    fn engines() -> Vec<Option<shani::ShaNi>> {
        match shani::ShaNi::detect() {
            Some(engine) => vec![None, Some(engine)],
            None => {
                eprintln!("this CPU has no SHA-NI: only the scalar compress is tested");
                vec![None]
            }
        }
    }

    fn digest(engine: Option<shani::ShaNi>, data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::with_engine(engine);
        h.update(data);
        h.finish()
    }

    #[test]
    fn sha256_known_answer_vectors() {
        // FIPS 180-4 / NIST CAVS vectors, on each compress function.
        for engine in engines() {
            let hex = |data: &[u8]| CanonicalHash(digest(engine, data)).to_hex();
            assert_eq!(
                hex(b""),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
            );
            assert_eq!(
                hex(b"abc"),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
            );
            assert_eq!(
                hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
            );
            // One block boundary case: exactly 64 bytes.
            assert_eq!(
                hex(&[b'a'; 64]),
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"
            );
            // Million 'a's exercises multi-block streaming.
            let mut h = Sha256::with_engine(engine);
            for _ in 0..1_000_000 / 50 {
                h.update(&[b'a'; 50]);
            }
            assert_eq!(
                CanonicalHash(h.finish()).to_hex(),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
            );
        }
    }

    /// Every length from 0 to 300 bytes and 1 MiB, fed whole and in
    /// uneven `update` chunks (some past the buffer's size, landing on a
    /// partly filled buffer): the digest depends on the bytes alone, and
    /// SHA-NI agrees with the scalar compress.
    #[test]
    fn compress_paths_and_feeds_agree() {
        let data: Vec<u8> =
            (0..1u32 << 20).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        let lens = (0..=300).chain([BUF - 1, BUF, BUF + 1, 1 << 20]);
        for len in lens {
            let input = &data[..len];
            let reference = digest(None, input);
            for engine in engines() {
                assert_eq!(digest(engine, input), reference, "len {len}, whole");
                let mut h = Sha256::with_engine(engine);
                let (mut rest, mut step) = (input, 0usize);
                while !rest.is_empty() {
                    let take = if step % 7 == 6 { 5000 } else { (step * 37 + 1) % 131 };
                    let take = take.min(rest.len());
                    h.update(&rest[..take]);
                    rest = &rest[take..];
                    step += 1;
                }
                assert_eq!(h.finish(), reference, "len {len}, uneven chunks");
            }
        }
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
