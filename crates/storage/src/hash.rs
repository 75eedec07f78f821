//! SHA-256 implemented from scratch (FIPS 180-4) plus the [`Hash256`] value
//! type used as the content address throughout the storage engine.
//!
//! The paper stores component outputs in ForkBase, a content-addressed
//! engine; every object here is likewise addressed by the SHA-256 digest of
//! its bytes. The implementation is self-contained so the workspace needs no
//! external cryptography crate.
//!
//! # One compression function, two instruction sets, one or two lanes
//!
//! Every block goes through one compression path, picked once per process:
//! on `x86_64` CPUs that report the `sha`, `sse4.1` and `ssse3` features it
//! is the SHA-NI kernel in `sha_ni`; on every other CPU and target it is the
//! portable scalar rounds. The choice depends on the CPU alone — there is no
//! feature, flag or environment variable to set — and the digests are
//! bit-identical, so no content address changes with the machine.
//!
//! A path compresses one message ([`Sha256`]) or two in step
//! ([`digest_many`], which hashes independent messages a pair at a time).
//! On SHA-NI the two lanes' rounds are issued interleaved, so one lane's
//! `sha256rnds2` latency hides behind the other's; the scalar path simply
//! runs the two one after the other. The scalar rounds are the oracle: the
//! tests run every path, one lane and two, over the same inputs and require
//! equal state words, so the fallback must stay a straight transcription of
//! the standard. The kernel holds the workspace's only `unsafe` code.

use serde::{Deserialize, Serialize};
use std::fmt;

/// SHA-256 round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
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

/// Initial hash state: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// SHA-256 hasher: [`Sha256::digest`] hashes one message; the crate also
/// streams a message through it in pieces.
///
/// ```
/// use mlcask_storage::hash::Sha256;
/// assert_eq!(
///     Sha256::digest(b"abc").to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered until a full 64-byte block is available.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub(crate) fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub(crate) fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                // All input absorbed into a still-partial block.
                return;
            }
            compress_blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Whole blocks are compressed where they lie in the caller's slice.
        let (blocks, tail) = rest.split_at(rest.len() - rest.len() % 64);
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the computation and returns the digest.
    pub(crate) fn finalize(mut self) -> Hash256 {
        // `update` leaves `buf_len < 64`.
        let (tail, len) = pad(&self.buf[..self.buf_len], self.total_len);
        compress_blocks(&mut self.state, &tail[..len]);
        Hash256::from_state(self.state)
    }

    /// One-shot convenience digest.
    pub fn digest(data: &[u8]) -> Hash256 {
        digest_on(path(), data)
    }
}

/// One message's digest on `path`, in one lane.
fn digest_on(path: Path, msg: &[u8]) -> Hash256 {
    let mut state = H0;
    path.compress_runs(&mut state, Padded::new(msg).runs());
    Hash256::from_state(state)
}

/// Hashes each of `messages`, appending the digests to `out` in order:
/// exactly [`Sha256::digest`] of each, computed a pair of messages at a
/// time in two interleaved lanes where the CPU has SHA-NI.
///
/// ```
/// use mlcask_storage::hash::{digest_many, Sha256};
/// let mut out = Vec::new();
/// digest_many(&[b"abc", b"", b"xyz"], &mut out);
/// assert_eq!(out, [Sha256::digest(b"abc"), Sha256::digest(b""), Sha256::digest(b"xyz")]);
/// ```
pub fn digest_many(messages: &[&[u8]], out: &mut Vec<Hash256>) {
    digest_many_on(path(), messages, out);
}

fn digest_many_on(path: Path, messages: &[&[u8]], out: &mut Vec<Hash256>) {
    out.reserve(messages.len());
    let mut pairs = messages.chunks_exact(2);
    for pair in &mut pairs {
        let (a, b) = (Padded::new(pair[0]), Padded::new(pair[1]));
        let (mut sa, mut sb) = (H0, H0);
        // The blocks not compressed yet; a run is emptied as it is used.
        let (mut left_a, mut left_b) = (a.runs(), b.runs());
        let next = |runs: &[&[u8]; 2]| runs.iter().position(|r| !r.is_empty());
        // Both lanes in step while both messages have blocks left...
        while let (Some(i), Some(j)) = (next(&left_a), next(&left_b)) {
            let n = left_a[i].len().min(left_b[j].len());
            (path.two)(&mut sa, &left_a[i][..n], &mut sb, &left_b[j][..n]);
            left_a[i] = &left_a[i][n..];
            left_b[j] = &left_b[j][n..];
        }
        // ...then whatever is left of the longer one alone.
        path.compress_runs(&mut sa, left_a);
        path.compress_runs(&mut sb, left_b);
        out.extend([Hash256::from_state(sa), Hash256::from_state(sb)]);
    }
    if let [last] = pairs.remainder() {
        out.push(digest_on(path, last));
    }
}

/// The end of a message of `len` bytes whose last `tail.len() < 64` bytes
/// are `tail`, padded: the 0x80 terminator, zeros, and the bit length in
/// the last eight bytes — one block, or two when the length does not fit
/// after the terminator. Returns the buffer and how many bytes of it count.
fn pad(tail: &[u8], len: u64) -> ([u8; 128], usize) {
    let mut out = [0u8; 128];
    out[..tail.len()].copy_from_slice(tail);
    out[tail.len()] = 0x80;
    let end = if tail.len() < 56 { 64 } else { 128 };
    out[end - 8..end].copy_from_slice(&len.wrapping_mul(8).to_be_bytes());
    (out, end)
}

/// A whole message as the compression function reads it: its whole blocks
/// in place, then its padded tail.
struct Padded<'a> {
    body: &'a [u8],
    tail: [u8; 128],
    tail_len: usize,
}

impl<'a> Padded<'a> {
    fn new(msg: &'a [u8]) -> Self {
        let (body, rest) = msg.split_at(msg.len() - msg.len() % 64);
        let (tail, tail_len) = pad(rest, msg.len() as u64);
        Padded {
            body,
            tail,
            tail_len,
        }
    }

    /// The message's blocks as two runs that each lie in one piece (the
    /// body may be empty).
    fn runs(&self) -> [&[u8]; 2] {
        [self.body, &self.tail[..self.tail_len]]
    }
}

/// Compresses every 64-byte block of a run (a multiple of 64 bytes, read in
/// place) into a state.
type Compress = fn(&mut [u32; 8], &[u8]);

/// [`Compress`] on two states at once; both runs have the same length.
type CompressTwo = fn(&mut [u32; 8], &[u8], &mut [u32; 8], &[u8]);

/// One way to run the compression function: over one state, or over two
/// states in step. Both leave the words the scalar rounds would.
#[derive(Clone, Copy)]
struct Path {
    one: Compress,
    two: CompressTwo,
}

impl Path {
    /// `one` over each run in order, skipping empty ones.
    fn compress_runs(self, state: &mut [u32; 8], runs: [&[u8]; 2]) {
        for run in runs {
            if !run.is_empty() {
                (self.one)(state, run);
            }
        }
    }
}

/// The portable path: the scalar rounds, one lane after the other.
const SCALAR: Path = Path {
    one: compress_blocks_scalar,
    two: |sa, a, sb, b| {
        compress_blocks_scalar(sa, a);
        compress_blocks_scalar(sb, b);
    },
};

/// The path this CPU runs: the SHA extensions where it has them, the scalar
/// rounds everywhere else.
fn path() -> Path {
    #[cfg(target_arch = "x86_64")]
    if let Some(path) = sha_ni::path() {
        return path;
    }
    SCALAR
}

/// The compression function over every 64-byte block of `blocks` (whose
/// length is a multiple of 64), read in place, on this CPU's path.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    (path().one)(state, blocks);
}

/// Portable compression function: FIPS 180-4 §6.2.2 as written. Runs where
/// the CPU has no SHA extensions, and is what the tests hold the hardware
/// kernel against.
fn compress_blocks_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
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
        for (word, x) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(x);
        }
    }
}

/// The compression function on the x86 SHA extensions (SHA-NI), over one
/// state or two in step.
///
/// This module is the only place in the workspace allowed to use `unsafe`:
/// the crate denies it, every other crate forbids it.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
// Lane loops index several per-lane arrays by the same lane number.
#[allow(clippy::needless_range_loop)]
mod sha_ni {
    use super::{Path, K};
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// The SHA-NI path, or `None` when this CPU lacks the extensions. The
    /// CPU is asked once per process, for both lane counts; `one` and `two`
    /// are handed out from here only, which is what makes their `unsafe`
    /// calls sound.
    pub(super) fn path() -> Option<Path> {
        static DETECTED: OnceLock<bool> = OnceLock::new();
        let detected = *DETECTED.get_or_init(|| {
            is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("sse4.1")
                && is_x86_feature_detected!("ssse3")
        });
        detected.then_some(Path { one, two })
    }

    fn one(state: &mut [u32; 8], blocks: &[u8]) {
        // SAFETY: reachable only through `path`, which hands it out once the
        // running CPU has reported every target feature `kernel` is compiled
        // with (`sse2` is part of the x86_64 baseline).
        unsafe { kernel([state], [blocks]) }
    }

    fn two(sa: &mut [u32; 8], a: &[u8], sb: &mut [u32; 8], b: &[u8]) {
        // SAFETY: as for `one`.
        unsafe { kernel([sa, sb], [a, b]) }
    }

    /// Rounds `4i..4i+4` of every lane on its message words
    /// `w = W[4i..4i+4]`. `sha256rnds2` does two rounds on the low two
    /// lanes of word-plus-constant and returns the new `abef`; the old
    /// `abef` is the new `cdgh`. Each instruction is issued for every lane
    /// before the next one is, so the lanes' latencies overlap.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds4<const N: usize>(
        abef: &mut [__m128i; N],
        cdgh: &mut [__m128i; N],
        w: [__m128i; N],
        i: usize,
    ) {
        let k = &K[4 * i..4 * i + 4];
        let k = _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32);
        let mut wk = w;
        for l in 0..N {
            wk[l] = _mm_add_epi32(w[l], k);
        }
        for l in 0..N {
            cdgh[l] = _mm_sha256rnds2_epu32(cdgh[l], abef[l], wk[l]);
        }
        for l in 0..N {
            abef[l] = _mm_sha256rnds2_epu32(abef[l], cdgh[l], _mm_shuffle_epi32(wk[l], 0x0E));
        }
    }

    /// Every lane's next four schedule words `W[t..t+4]` from the sixteen
    /// before them, `v0 = W[t-16..t-12]` up to `v3 = W[t-4..t]`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule<const N: usize>(
        v0: [__m128i; N],
        v1: [__m128i; N],
        v2: [__m128i; N],
        v3: [__m128i; N],
    ) -> [__m128i; N] {
        let mut next = v0;
        for l in 0..N {
            // W[t-16+j] + s0(W[t-15+j]), then + W[t-7+j], then + s1(W[t-2+j]).
            let partial = _mm_add_epi32(
                _mm_sha256msg1_epu32(v0[l], v1[l]),
                _mm_alignr_epi8(v3[l], v2[l], 4),
            );
            next[l] = _mm_sha256msg2_epu32(partial, v3[l]);
        }
        next
    }

    /// The compression function proper, in `N` lanes: lane `l` compresses
    /// `blocks[l]` into `states[l]`, and every lane has as many blocks.
    /// Safe to call only from a context with its target features, hence
    /// the `unsafe` calls above.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn kernel<const N: usize>(states: [&mut [u32; 8]; N], blocks: [&[u8]; N]) {
        let runs = blocks.map(|run| run.as_chunks::<64>().0);
        let blocks_per_lane = runs[0].len();
        assert!(runs.iter().all(|run| run.len() == blocks_per_lane));
        // Reverses the bytes of each 32-bit lane: message words are
        // big-endian.
        let be = _mm_set_epi64x(0x0C0D_0E0F_0809_0A0B, 0x0405_0607_0001_0203);

        let zero = _mm_setzero_si128();
        let (mut abef, mut cdgh) = ([zero; N], [zero; N]);
        for l in 0..N {
            let s = states[l].as_ptr().cast::<__m128i>();
            // SAFETY: a state is 32 readable bytes and `loadu` needs no
            // alignment, so `s` and `s + 1` each cover 16 bytes inside it.
            let (dcba, hgfe) = unsafe { (_mm_loadu_si128(s), _mm_loadu_si128(s.add(1))) };
            // The rounds instruction wants the words as (a,b,e,f) and
            // (c,d,g,h).
            let cdab = _mm_shuffle_epi32(dcba, 0xB1);
            let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
            abef[l] = _mm_alignr_epi8(cdab, efgh, 8);
            cdgh[l] = _mm_blend_epi16(efgh, cdab, 0xF0);
        }

        for b in 0..blocks_per_lane {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w = [[zero; N]; 4];
            for l in 0..N {
                let p = runs[l][b].as_ptr().cast::<__m128i>();
                for (j, w) in w.iter_mut().enumerate() {
                    // SAFETY: a block is 64 readable bytes, so the
                    // unaligned 16-byte load at `p + j`, `j < 4`, stays
                    // inside it.
                    w[l] = _mm_shuffle_epi8(unsafe { _mm_loadu_si128(p.add(j)) }, be);
                }
            }
            let [mut w0, mut w1, mut w2, mut w3] = w;
            rounds4(&mut abef, &mut cdgh, w0, 0);
            rounds4(&mut abef, &mut cdgh, w1, 1);
            rounds4(&mut abef, &mut cdgh, w2, 2);
            rounds4(&mut abef, &mut cdgh, w3, 3);
            // Each step replaces the oldest four words, so after four steps
            // the names line up again.
            for i in [4, 8, 12] {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, w0, i);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, w1, i + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, w2, i + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, w3, i + 3);
            }
            for l in 0..N {
                abef[l] = _mm_add_epi32(abef[l], abef_in[l]);
                cdgh[l] = _mm_add_epi32(cdgh[l], cdgh_in[l]);
            }
        }

        for l in 0..N {
            let feba = _mm_shuffle_epi32(abef[l], 0x1B);
            let dchg = _mm_shuffle_epi32(cdgh[l], 0xB1);
            let s = states[l].as_mut_ptr().cast::<__m128i>();
            // SAFETY: as for the loads — two unaligned 16-byte stores
            // covering exactly the 32 bytes of a state we borrow mutably.
            unsafe {
                _mm_storeu_si128(s, _mm_blend_epi16(feba, dchg, 0xF0));
                _mm_storeu_si128(s.add(1), _mm_alignr_epi8(dchg, feba, 8));
            }
        }
    }
}

static HEX_DIGITS: [u8; 16] = *b"0123456789abcdef";

/// Value of each ASCII hex digit (either case); `0xff` for every other byte.
static HEX_NIBBLES: [u8; 256] = {
    let mut table = [0xffu8; 256];
    let mut v = 0;
    while v < 16 {
        table[HEX_DIGITS[v] as usize] = v as u8;
        table[HEX_DIGITS[v].to_ascii_uppercase() as usize] = v as u8;
        v += 1;
    }
    table
};

/// A 256-bit content address.
///
/// Serialised as lowercase hex for human-readable metafiles.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Hash256(pub [u8; 32]);

impl Hash256 {
    /// The all-zero hash, used as a sentinel for "no object".
    pub const ZERO: Hash256 = Hash256([0u8; 32]);

    /// Hashes raw bytes.
    pub fn of(data: &[u8]) -> Hash256 {
        Sha256::digest(data)
    }

    /// Hashes the concatenation of several labelled parts. A length prefix is
    /// inserted before each part so `("ab","c")` and `("a","bc")` differ.
    pub fn of_parts(parts: &[&[u8]]) -> Hash256 {
        let mut h = Sha256::new();
        for p in parts {
            h.update(&(p.len() as u64).to_le_bytes());
            h.update(p);
        }
        h.finalize()
    }

    /// The message [`Hash256::of_parts`] hashes: each part after its length
    /// as a little-endian `u64`. `Hash256::of(&parts_message(p))` equals
    /// `of_parts(p)`; callers hashing many messages of one shape build one
    /// and stamp it.
    pub fn parts_message(parts: &[&[u8]]) -> Vec<u8> {
        let mut msg = Vec::with_capacity(parts.iter().map(|p| 8 + p.len()).sum());
        for p in parts {
            msg.extend_from_slice(&(p.len() as u64).to_le_bytes());
            msg.extend_from_slice(p);
        }
        msg
    }

    /// The digest of a finished state: its words, big-endian.
    fn from_state(state: [u32; 8]) -> Hash256 {
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Hash256(out)
    }

    /// Lowercase hex encoding.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        self.push_hex(&mut s);
        s
    }

    /// Appends the 64 lowercase hex digits to `out`.
    pub fn push_hex(&self, out: &mut String) {
        let mut hex = [0u8; 64];
        for (pair, b) in hex.chunks_exact_mut(2).zip(self.0) {
            pair[0] = HEX_DIGITS[(b >> 4) as usize];
            pair[1] = HEX_DIGITS[(b & 0xf) as usize];
        }
        out.push_str(std::str::from_utf8(&hex).expect("hex digits are ASCII"));
    }

    /// Short 8-hex-char prefix for display.
    pub fn short(&self) -> String {
        self.to_hex()[..8].to_string()
    }

    /// Parses a 64-char hex string (either case). Anything else — wrong
    /// length, a sign, a non-ASCII character — is `None`: this is reached
    /// from metafiles and commits read back from disk.
    pub(crate) fn from_hex(s: &str) -> Option<Hash256> {
        let bytes = s.as_bytes();
        if bytes.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (byte, pair) in out.iter_mut().zip(bytes.chunks_exact(2)) {
            let (hi, lo) = (HEX_NIBBLES[pair[0] as usize], HEX_NIBBLES[pair[1] as usize]);
            if hi | lo > 0xf {
                return None;
            }
            *byte = hi << 4 | lo;
        }
        Some(Hash256(out))
    }

    /// True if this is the zero sentinel.
    pub(crate) fn is_zero(&self) -> bool {
        self.0 == [0u8; 32]
    }
}

impl fmt::Debug for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash256({})", self.short())
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl Serialize for Hash256 {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_hex())
    }
    // Hex digits need no escaping: the quotes and the digits, no copy.
    fn write_json(&self, out: &mut String) {
        out.push('"');
        self.push_hex(out);
        out.push('"');
    }
}

impl Deserialize for Hash256 {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let s = String::from_value(v)?;
        Hash256::from_hex(&s).ok_or_else(|| serde::Error::custom("invalid Hash256 hex"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every compression path this machine can run: always the scalar
    /// oracle, plus the SHA-NI kernel (one lane and two) when the CPU has
    /// it. The skip is printed so a green run says which paths it covered.
    fn compress_paths() -> Vec<(&'static str, Path)> {
        #[cfg(target_arch = "x86_64")]
        if let Some(sha_ni) = sha_ni::path() {
            return vec![("scalar", SCALAR), ("sha-ni", sha_ni)];
        }
        static NOTICE: std::sync::Once = std::sync::Once::new();
        NOTICE.call_once(|| {
            println!("NOTICE: this CPU has no SHA extensions; the sha-ni kernel is not exercised");
        });
        vec![("scalar", SCALAR)]
    }

    /// A digest that shares nothing with `Sha256` but the compression
    /// function under test: pads the whole message up front and compresses
    /// it in one call.
    fn digest_with(compress: Compress, data: &[u8]) -> Hash256 {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        compress(&mut state, &msg);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Hash256(out)
    }

    /// Checks one FIPS 180-4 / NIST vector on the public hasher and on each
    /// compression path separately.
    fn check_vector(data: &[u8], hex: &str) {
        assert_eq!(Sha256::digest(data).to_hex(), hex, "Sha256::digest");
        for (name, path) in compress_paths() {
            assert_eq!(digest_with(path.one, data).to_hex(), hex, "{name} path");
            let mut both = Vec::new();
            digest_many_on(path, &[data, data], &mut both);
            assert_eq!(both[0].to_hex(), hex, "{name} path, lane 0 of 2");
            assert_eq!(both[1].to_hex(), hex, "{name} path, lane 1 of 2");
        }
    }

    #[test]
    fn empty_vector() {
        check_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc_vector() {
        check_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_vector() {
        check_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a_vector() {
        check_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    /// Lengths on either side of the two padding cases (`buf_len < 56`: one
    /// final block; otherwise two), for the hasher's in-place padding and
    /// for every compression path.
    #[test]
    fn padding_boundaries() {
        let data: Vec<u8> = (0..120u32).map(|i| (i * 7 + 1) as u8).collect();
        for len in [55usize, 56, 63, 64, 65, 119, 120] {
            let msg = &data[..len];
            let want = digest_with(compress_blocks_scalar, msg);
            assert_eq!(Sha256::digest(msg), want, "one-shot, {len} bytes");
            let mut h = Sha256::new();
            for b in msg {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), want, "byte at a time, {len} bytes");
            for (name, path) in compress_paths() {
                assert_eq!(digest_with(path.one, msg), want, "{name}, {len} bytes");
            }
        }
    }

    proptest! {
        /// One-shot, incremental at random split points, and every
        /// compression path agree with the scalar oracle — on a sub-slice at
        /// a random offset, so the kernel's loads are unaligned.
        #[test]
        fn prop_paths_and_splits_agree(
            buf in proptest::collection::vec(any::<u8>(), 0..4096),
            offset in 0usize..64,
            cuts in proptest::collection::vec(any::<usize>(), 0..6),
        ) {
            let data = &buf[offset.min(buf.len())..];
            let want = digest_with(compress_blocks_scalar, data);
            prop_assert_eq!(Sha256::digest(data), want);

            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut h = Sha256::new();
            let mut from = 0;
            for cut in cuts {
                h.update(&data[from..cut]);
                from = cut;
            }
            h.update(&data[from..]);
            prop_assert_eq!(h.finalize(), want);

            // The raw state words too, over the whole blocks alone, in one
            // lane and in two: beside the same blocks, and beside the
            // blocks reversed from a state that has already moved.
            let blocks = &data[..data.len() - data.len() % 64];
            let mut oracle = H0;
            compress_blocks_scalar(&mut oracle, blocks);
            let reversed: Vec<u8> = blocks.iter().rev().copied().collect();
            let mut other_oracle = oracle;
            compress_blocks_scalar(&mut other_oracle, &reversed);
            for (name, path) in compress_paths() {
                let mut state = H0;
                (path.one)(&mut state, blocks);
                prop_assert_eq!(state, oracle, "{} path", name);
                let (mut a, mut b) = (H0, H0);
                (path.two)(&mut a, blocks, &mut b, blocks);
                prop_assert_eq!([a, b], [oracle, oracle], "{} path, two lanes", name);
                let (mut a, mut b) = (H0, oracle);
                (path.two)(&mut a, blocks, &mut b, &reversed);
                prop_assert_eq!([a, b], [oracle, other_oracle], "{} path, two lanes", name);
            }
        }

        /// `digest_many` is `Sha256::digest` per message on every path:
        /// any count (odd ones leave a message without a partner), pairs of
        /// unequal lengths, the padding-boundary lengths, and sub-slices at
        /// unaligned offsets of one buffer.
        #[test]
        fn prop_digest_many_is_digest_per_message(
            buf in proptest::collection::vec(any::<u8>(), 364),
            count in 0usize..40,
            lens in proptest::collection::vec(0usize..300, 40),
            picks in proptest::collection::vec(0usize..12, 40),
            offsets in proptest::collection::vec(0usize..64, 40),
        ) {
            const EDGES: [usize; 6] = [55, 56, 63, 64, 119, 120];
            let messages: Vec<&[u8]> = (0..count)
                .map(|i| {
                    let len = EDGES.get(picks[i]).copied().unwrap_or(lens[i]);
                    &buf[offsets[i]..offsets[i] + len]
                })
                .collect();
            let want: Vec<Hash256> = messages.iter().map(|m| Sha256::digest(m)).collect();
            let mut got = vec![Hash256::ZERO];
            digest_many(&messages, &mut got);
            prop_assert_eq!(&got[1..], &want[..], "appended after what was there");
            for (name, path) in compress_paths() {
                got.clear();
                digest_many_on(path, &messages, &mut got);
                prop_assert_eq!(&got, &want, "{} path", name);
            }
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 63, 64, 65, 100, 9_999, 10_000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn byte_at_a_time() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Sha256::new();
        for b in data.iter() {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), Sha256::digest(data));
    }

    #[test]
    fn hex_round_trip() {
        let h = Sha256::digest(b"round trip");
        assert_eq!(Hash256::from_hex(&h.to_hex()), Some(h));
        assert_eq!(Hash256::from_hex("zz"), None);
        assert_eq!(Hash256::from_hex(&"0".repeat(63)), None);
        assert_eq!(Hash256::from_hex(&h.to_hex().to_uppercase()), Some(h));
    }

    /// 64 *bytes* that are not 64 hex digits must be `None`, not a panic:
    /// multi-byte characters off a pair boundary used to slice a `str`
    /// mid-character, and `u8::from_str_radix` accepted a sign.
    #[test]
    fn from_hex_rejects_hostile_input() {
        let off_boundary = format!("a{}b", "é".repeat(31));
        assert_eq!(off_boundary.len(), 64);
        assert_eq!(Hash256::from_hex(&off_boundary), None);
        assert_eq!(Hash256::from_hex(&"é".repeat(32)), None);
        assert_eq!(Hash256::from_hex(&"+f".repeat(32)), None);
        assert_eq!(Hash256::from_hex(&format!("{}g", "0".repeat(63))), None);
        let json = serde_json::to_string(&off_boundary).unwrap();
        assert!(serde_json::from_str::<Hash256>(&json).is_err());
    }

    #[test]
    fn of_parts_is_length_prefixed() {
        let a = Hash256::of_parts(&[b"ab", b"c"]);
        let b = Hash256::of_parts(&[b"a", b"bc"]);
        assert_ne!(a, b);
        // And differs from plain concatenation.
        assert_ne!(a, Hash256::of(b"abc"));
    }

    #[test]
    fn parts_message_is_what_of_parts_hashes() {
        for parts in [
            &[][..],
            &[b"".as_slice()],
            &[b"lib-base", b"name", &7u64.to_le_bytes()],
        ] {
            let msg = Hash256::parts_message(parts);
            assert_eq!(msg.len(), parts.iter().map(|p| 8 + p.len()).sum::<usize>());
            assert_eq!(Hash256::of(&msg), Hash256::of_parts(parts));
        }
    }

    #[test]
    fn zero_sentinel() {
        assert!(Hash256::ZERO.is_zero());
        assert!(!Sha256::digest(b"x").is_zero());
    }

    #[test]
    fn serde_round_trip() {
        let h = Sha256::digest(b"serde");
        let json = serde_json::to_string(&h).unwrap();
        let back: Hash256 = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
    }

    #[test]
    fn display_and_short() {
        let h = Sha256::digest(b"abc");
        assert_eq!(format!("{h}"), h.to_hex());
        assert_eq!(h.short().len(), 8);
        assert!(h.to_hex().starts_with(&h.short()));
    }
}
