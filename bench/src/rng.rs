//! splitmix64: the only source of randomness in the benchmark. `--seed`
//! feeds it; the daemon never sees it, only the request lines it produced.

/// A splitmix64 generator (Steele, Lea & Flood 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator starting from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// A generator for one named stream of `seed`, so that adding draws to
    /// one part of a script never shifts another part's draws.
    pub fn stream(seed: u64, name: &str) -> Self {
        let mut h = SplitMix64(seed ^ crate::check::fnv1a64(name.as_bytes()));
        h.next_u64();
        h
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at the
    /// tiny `n` the scripts use.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// Fills `buf` with random bytes (probe payloads).
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vector() {
        // First outputs for seed 1234567, from the reference C implementation.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn streams_are_independent_and_repeatable() {
        let a: Vec<u64> = (0..4)
            .map(|_| SplitMix64::stream(7, "a").next_u64())
            .collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix64::stream(7, "a").next_u64(),
            SplitMix64::stream(7, "b").next_u64()
        );
        assert_ne!(
            SplitMix64::stream(7, "a").next_u64(),
            SplitMix64::stream(8, "a").next_u64()
        );
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..20).collect();
        SplitMix64::new(3).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
