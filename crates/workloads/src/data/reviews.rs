//! Synthetic movie reviews for the SA (sentiment analysis) pipeline.
//!
//! Reviews are sampled from sentiment-bearing word pools mixed with neutral
//! filler, so co-occurrence embeddings genuinely separate the classes and a
//! downstream classifier has real signal.

use mlcask_pipeline::artifact::Docs;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Positive sentiment vocabulary.
pub(crate) const POSITIVE: [&str; 12] = [
    "great",
    "excellent",
    "wonderful",
    "superb",
    "masterpiece",
    "moving",
    "brilliant",
    "delightful",
    "captivating",
    "stunning",
    "charming",
    "perfect",
];

/// Negative sentiment vocabulary.
pub(crate) const NEGATIVE: [&str; 12] = [
    "terrible",
    "awful",
    "boring",
    "dreadful",
    "mess",
    "tedious",
    "bland",
    "clumsy",
    "forgettable",
    "painful",
    "shallow",
    "incoherent",
];

/// Neutral filler vocabulary.
pub(crate) const NEUTRAL: [&str; 16] = [
    "movie",
    "film",
    "plot",
    "actor",
    "scene",
    "director",
    "story",
    "screen",
    "character",
    "dialogue",
    "music",
    "ending",
    "camera",
    "script",
    "cast",
    "pacing",
];

/// Generates `n` labelled reviews of roughly `len` tokens each.
pub(crate) fn generate(n: usize, len: usize, seed: u64) -> Docs {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut docs = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let positive = i % 2 == 0;
        let pool: &[&str] = if positive { &POSITIVE } else { &NEGATIVE };
        let other: &[&str] = if positive { &NEGATIVE } else { &POSITIVE };
        let mut tokens = Vec::with_capacity(len);
        for _ in 0..len {
            // ~25% sentiment-bearing, with occasional contamination from the
            // opposite pool ("not bad", sarcasm, quoted reviews) so the task
            // is genuinely hard and candidate scores spread out.
            if rng.gen_bool(0.22) {
                if rng.gen_bool(0.18) {
                    tokens.push(other.choose(&mut rng).unwrap().to_string());
                } else {
                    tokens.push(pool.choose(&mut rng).unwrap().to_string());
                }
            } else {
                tokens.push(NEUTRAL.choose(&mut rng).unwrap().to_string());
            }
        }
        docs.push(tokens);
        labels.push(usize::from(positive));
    }
    let vocab_size = POSITIVE.len() + NEGATIVE.len() + NEUTRAL.len();
    Docs {
        docs,
        labels,
        vocab_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_determinism() {
        let d = generate(50, 20, 3);
        assert_eq!(d.docs.len(), 50);
        assert_eq!(d.labels.len(), 50);
        assert!(d.docs.iter().all(|doc| doc.len() == 20));
        assert_eq!(d.docs, generate(50, 20, 3).docs);
    }

    #[test]
    fn classes_balanced() {
        let d = generate(100, 10, 4);
        let pos = d.labels.iter().filter(|&&l| l == 1).count();
        assert_eq!(pos, 50);
    }

    #[test]
    fn sentiment_words_separate_classes_in_aggregate() {
        let d = generate(200, 30, 5);
        let pos_set: std::collections::HashSet<&str> = POSITIVE.into_iter().collect();
        let neg_set: std::collections::HashSet<&str> = NEGATIVE.into_iter().collect();
        let mut own_hits = 0usize;
        let mut other_hits = 0usize;
        for (doc, &label) in d.docs.iter().zip(&d.labels) {
            let pos_hits = doc.iter().filter(|t| pos_set.contains(t.as_str())).count();
            let neg_hits = doc.iter().filter(|t| neg_set.contains(t.as_str())).count();
            if label == 1 {
                own_hits += pos_hits;
                other_hits += neg_hits;
            } else {
                own_hits += neg_hits;
                other_hits += pos_hits;
            }
        }
        // Contamination exists (the task is hard) but the dominant signal is
        // from the class's own pool.
        assert!(other_hits > 0, "contamination should be present");
        assert!(
            own_hits > other_hits * 3,
            "own-pool {own_hits} vs contamination {other_hits}"
        );
    }
}
