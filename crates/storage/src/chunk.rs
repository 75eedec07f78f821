//! Content-defined chunking with a Gear rolling hash.
//!
//! ForkBase deduplicates at chunk granularity: object bytes are split at
//! content-determined boundaries so that a local edit only changes the chunks
//! it touches, and unchanged chunks are shared between versions. This module
//! reproduces that behaviour with the Gear CDC scheme (Xia et al., FAST'16
//! lineage): a 256-entry random table is folded into a rolling hash one byte
//! at a time, and a boundary is declared when the hash matches a mask whose
//! popcount controls the expected chunk size.

use crate::hash::{digest_many, Hash256};

/// Parameters controlling chunk-boundary selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkParams {
    /// No boundary is emitted before this many bytes.
    pub(crate) min_size: usize,
    /// Expected (average) chunk size; must be a power of two.
    pub(crate) avg_size: usize,
    /// A boundary is forced at this many bytes.
    pub(crate) max_size: usize,
}

impl ChunkParams {
    /// ForkBase-style defaults: 2 KiB min, 8 KiB average, 32 KiB max.
    pub const DEFAULT: ChunkParams = ChunkParams {
        min_size: 2 * 1024,
        avg_size: 8 * 1024,
        max_size: 32 * 1024,
    };

    /// Small chunks for tests/benchmarks on tiny inputs.
    pub const SMALL: ChunkParams = ChunkParams {
        min_size: 64,
        avg_size: 256,
        max_size: 1024,
    };

    /// Boundary mask: matching `hash & mask == 0` happens with probability
    /// `1/avg_size` for a uniform hash.
    fn mask(&self) -> u64 {
        (self.avg_size as u64 - 1) << 16
    }
}

impl Default for ChunkParams {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// One chunk of a blob: its content address plus the byte range it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRef {
    /// Content address of the chunk bytes.
    pub(crate) hash: Hash256,
    /// Offset of the chunk within the original blob.
    pub(crate) offset: u64,
    /// Chunk length in bytes.
    pub(crate) len: u32,
}

impl ChunkRef {
    /// The offset one past the chunk's last byte.
    fn end(&self) -> u64 {
        self.offset + self.len as u64
    }
}

/// Deterministic 256-entry Gear table derived from SHA-256 so the chunker
/// needs no runtime RNG and chunk boundaries are stable across builds.
fn gear_table() -> &'static [u64; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u64; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u64; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let h = Hash256::of_parts(&[b"mlcask-gear", &(i as u32).to_le_bytes()]);
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(&h.0[..8]);
            *slot = u64::from_le_bytes(bytes);
        }
        t
    })
}

/// Splits `data` into content-defined chunk boundaries.
///
/// Returns the byte ranges only; `chunk_blob` additionally hashes each
/// chunk. Empty input yields no chunks.
///
/// Only the last 64 bytes read can move a boundary: each step shifts the
/// rolling hash left by one bit, so a byte's table entry has left the 64-bit
/// word 64 steps after it went in. The first boundary test in a chunk is at
/// offset `min_size - 1`, so the hash starts rolling 64 bytes before that,
/// at `min_size - 64`, rather than at the chunk start — the same boundaries
/// as rolling over the whole chunk, from fewer bytes read.
pub fn boundaries(data: &[u8], params: ChunkParams) -> Vec<(usize, usize)> {
    let table = gear_table();
    let mask = params.mask();
    let first_test = params.min_size.saturating_sub(1);
    let warm_up = params.min_size.saturating_sub(64);
    let mut out = Vec::new();
    let mut start = 0usize;
    while start < data.len() {
        let remaining = data.len() - start;
        if remaining <= params.min_size {
            out.push((start, data.len()));
            break;
        }
        let chunk = &data[start..start + remaining.min(params.max_size)];
        let mut hash: u64 = 0;
        for &b in &chunk[warm_up..first_test] {
            hash = (hash << 1).wrapping_add(table[b as usize]);
        }
        let cut = chunk[first_test..]
            .iter()
            .position(|&b| {
                hash = (hash << 1).wrapping_add(table[b as usize]);
                hash & mask == 0
            })
            .map_or(chunk.len(), |i| first_test + i + 1);
        out.push((start, start + cut));
        start += cut;
    }
    out
}

/// Chunks a blob and content-addresses each piece, two chunks at a time
/// (see [`digest_many`]).
///
/// `prior`, if given, is what `data` is known to repeat: the chunks of a
/// blob chunked before with the same `params`, and how many leading bytes
/// the two blobs share. A cut depends only on the bytes from its chunk's
/// start to the cut, so every prior chunk that ends within the shared
/// prefix is one of `data`'s too and is taken as it is; only the rest of
/// `data` is chunked and hashed. The prior's last chunk is never taken:
/// end-of-data may have forced its cut. The result is the same with or
/// without a prior.
pub(crate) fn chunk_blob(
    data: &[u8],
    params: ChunkParams,
    prior: Option<(&[ChunkRef], usize)>,
) -> Vec<ChunkRef> {
    let reused = prior.map_or(&[][..], |(chunks, shared)| {
        let body = &chunks[..chunks.len().saturating_sub(1)];
        let shared = shared.min(data.len()) as u64;
        &body[..body.partition_point(|c| c.end() <= shared)]
    });
    let resume = reused.last().map_or(0, |c| c.end() as usize);
    let tail = &data[resume..];
    let ranges = boundaries(tail, params);
    let pieces: Vec<&[u8]> = ranges.iter().map(|&(s, e)| &tail[s..e]).collect();
    let mut hashes = Vec::with_capacity(pieces.len());
    digest_many(&pieces, &mut hashes);
    let mut chunks = Vec::with_capacity(reused.len() + ranges.len());
    chunks.extend_from_slice(reused);
    chunks.extend(
        ranges
            .into_iter()
            .zip(hashes)
            .map(|((s, e), hash)| ChunkRef {
                hash,
                offset: (resume + s) as u64,
                len: (e - s) as u32,
            }),
    );
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen()).collect()
    }

    /// The reference `boundaries`: the rolling hash runs over every byte
    /// from the chunk start.
    fn boundaries_full_window(data: &[u8], params: ChunkParams) -> Vec<(usize, usize)> {
        let table = gear_table();
        let mask = params.mask();
        let mut out = Vec::new();
        let mut start = 0usize;
        while start < data.len() {
            let remaining = data.len() - start;
            if remaining <= params.min_size {
                out.push((start, data.len()));
                break;
            }
            let limit = remaining.min(params.max_size);
            let mut hash: u64 = 0;
            let mut cut = limit;
            for (i, &b) in data[start..start + limit].iter().enumerate() {
                hash = (hash << 1).wrapping_add(table[b as usize]);
                if i + 1 >= params.min_size && (hash & mask) == 0 {
                    cut = i + 1;
                    break;
                }
            }
            out.push((start, start + cut));
            start += cut;
        }
        out
    }

    #[test]
    fn empty_input_no_chunks() {
        assert!(boundaries(&[], ChunkParams::SMALL).is_empty());
        assert!(chunk_blob(&[], ChunkParams::SMALL, None).is_empty());
    }

    #[test]
    fn covers_input_exactly() {
        let data = random_bytes(1, 10_000);
        let bs = boundaries(&data, ChunkParams::SMALL);
        assert_eq!(bs[0].0, 0);
        assert_eq!(bs.last().unwrap().1, data.len());
        for w in bs.windows(2) {
            assert_eq!(w[0].1, w[1].0, "chunks must be contiguous");
        }
    }

    #[test]
    fn respects_size_bounds() {
        let data = random_bytes(2, 50_000);
        let p = ChunkParams::SMALL;
        let bs = boundaries(&data, p);
        for (i, (s, e)) in bs.iter().enumerate() {
            let len = e - s;
            assert!(len <= p.max_size, "chunk {i} too large: {len}");
            if i + 1 != bs.len() {
                assert!(len >= p.min_size, "non-final chunk {i} too small: {len}");
            }
        }
    }

    #[test]
    fn average_size_in_expected_range() {
        let data = random_bytes(3, 1 << 20);
        let p = ChunkParams::SMALL;
        let bs = boundaries(&data, p);
        let avg = data.len() as f64 / bs.len() as f64;
        // Min-size skipping and max-size truncation shift the mean; accept a
        // generous window around the target.
        assert!(
            avg > p.avg_size as f64 * 0.4 && avg < p.avg_size as f64 * 3.0,
            "average chunk size {avg} far from target {}",
            p.avg_size
        );
    }

    #[test]
    fn deterministic() {
        let data = random_bytes(4, 100_000);
        assert_eq!(
            chunk_blob(&data, ChunkParams::SMALL, None),
            chunk_blob(&data, ChunkParams::SMALL, None)
        );
    }

    #[test]
    fn local_edit_preserves_most_chunks() {
        let mut data = random_bytes(5, 1 << 18);
        let before: std::collections::HashSet<Hash256> =
            chunk_blob(&data, ChunkParams::SMALL, None)
                .into_iter()
                .map(|c| c.hash)
                .collect();
        // Flip a single byte in the middle.
        let mid = data.len() / 2;
        data[mid] ^= 0xff;
        let after: Vec<ChunkRef> = chunk_blob(&data, ChunkParams::SMALL, None);
        let changed = after.iter().filter(|c| !before.contains(&c.hash)).count();
        // Only the chunk containing the edit (plus possibly a neighbour due to
        // boundary shift) should change.
        assert!(
            changed <= 3,
            "local edit invalidated {changed}/{} chunks",
            after.len()
        );
    }

    #[test]
    fn append_preserves_prefix_chunks() {
        let data = random_bytes(6, 1 << 17);
        let before = chunk_blob(&data, ChunkParams::SMALL, None);
        let mut extended = data.clone();
        extended.extend_from_slice(&random_bytes(7, 4096));
        let after = chunk_blob(&extended, ChunkParams::SMALL, None);
        // All but the final chunk of the original must reappear verbatim.
        for (b, a) in before.iter().zip(after.iter()).take(before.len() - 1) {
            assert_eq!(b, a);
        }
    }

    proptest! {
        /// Starting the rolling hash 64 bytes before the first boundary
        /// test finds what rolling from the chunk start finds: under
        /// `SMALL` (`min_size` 64, so nothing is skipped), `DEFAULT`, and a
        /// `min_size` that is not a multiple of 64. Alphabets of 1 to 256
        /// symbols: small ones make long runs, where boundaries fall at
        /// `min_size` or `max_size`.
        #[test]
        fn prop_boundaries_match_the_full_window(
            seed in any::<u64>(),
            len in 0usize..100_000,
            alphabet_bits in 0u32..9,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let symbols = ((1u16 << alphabet_bits) - 1) as u8;
            let data: Vec<u8> = (0..len).map(|_| rng.gen::<u8>() & symbols).collect();
            for params in [ChunkParams::SMALL, ChunkParams::DEFAULT, ChunkParams { min_size: 100, avg_size: 256, max_size: 1024 }] {
                prop_assert_eq!(
                    boundaries(&data, params),
                    boundaries_full_window(&data, params),
                    "{:?}",
                    params
                );
            }
        }

        /// Chunking resumed from a prior finds `chunk_blob`'s chunks without
        /// one. The blob repeats the prior's first `shared` bytes, where
        /// `shared` is 0, anywhere (mostly mid-chunk), exactly on one of the
        /// prior's cuts, or the whole prior — whose last chunk end-of-data
        /// cut — and then goes on. All-zero data has no content-defined cut,
        /// so there every cut is forced at `max_size`.
        #[test]
        fn prop_chunking_resumed_from_a_prior_equals_chunking_the_whole_blob(
            seed in any::<u64>(),
            prior_len in 0usize..100_000,
            tail_len in 0usize..10_000,
            shared_at in 0usize..4,
            pick in any::<usize>(),
            zeros in any::<bool>(),
        ) {
            let bytes = |seed, len| match zeros {
                true => vec![0; len],
                false => random_bytes(seed, len),
            };
            let before = bytes(seed, prior_len);
            for params in [ChunkParams::SMALL, ChunkParams::DEFAULT] {
                let prior = chunk_blob(&before, params, None);
                let shared = match shared_at {
                    0 => 0,
                    1 => pick % (prior_len + 1),
                    2 if !prior.is_empty() => prior[pick % prior.len()].end() as usize,
                    _ => prior_len,
                };
                let mut data = before[..shared].to_vec();
                data.extend(bytes(seed ^ 1, tail_len));
                prop_assert_eq!(
                    chunk_blob(&data, params, Some((&prior, shared))),
                    chunk_blob(&data, params, None),
                    "{:?}, {} of {} bytes shared",
                    params,
                    shared,
                    prior_len
                );
            }
        }

        #[test]
        fn prop_chunks_reassemble(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
            let bs = boundaries(&data, ChunkParams::SMALL);
            let mut rebuilt = Vec::new();
            for (s, e) in &bs {
                rebuilt.extend_from_slice(&data[*s..*e]);
            }
            prop_assert_eq!(rebuilt, data);
        }

        #[test]
        fn prop_chunk_lens_match_ranges(data in proptest::collection::vec(any::<u8>(), 1..8192)) {
            let chunks = chunk_blob(&data, ChunkParams::SMALL, None);
            let total: u64 = chunks.iter().map(|c| c.len as u64).sum();
            prop_assert_eq!(total, data.len() as u64);
            for c in &chunks {
                let s = c.offset as usize;
                let e = s + c.len as usize;
                prop_assert_eq!(c.hash, Hash256::of(&data[s..e]));
            }
        }
    }
}
