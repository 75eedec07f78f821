//! Co-occurrence word embeddings for the SA (sentiment analysis) pipeline.
//!
//! The SA pipeline's first three steps "process the external corpora and
//! pre-trained word embeddings" (§VII-A), and its expensive iteration in
//! Fig. 5(c)/6(c) is the word-embedding step. We train real embeddings: a
//! PPMI-weighted word–context co-occurrence matrix factorised by power
//! iteration, which is deterministic, CPU-heavy (matching the paper's
//! costly-preprocessing role), and produces features a downstream classifier
//! can genuinely learn from.

use crate::tensor::Matrix;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Embedding training configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmbeddingConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Symmetric co-occurrence window radius.
    pub window: usize,
    /// Power-iteration sweeps per factor.
    pub iterations: usize,
    /// Minimum token frequency to enter the vocabulary.
    pub min_count: usize,
}

impl Default for EmbeddingConfig {
    fn default() -> Self {
        EmbeddingConfig {
            dim: 16,
            window: 2,
            iterations: 12,
            min_count: 1,
        }
    }
}

/// Vocabulary + embedding matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Embedding {
    vocab: HashMap<String, usize>,
    vectors: Matrix,
    config: EmbeddingConfig,
}

impl Embedding {
    /// Trains embeddings over tokenised documents.
    pub fn train(docs: &[Vec<String>], config: EmbeddingConfig) -> Embedding {
        assert!(config.dim > 0, "dim must be positive");
        // Build vocabulary with frequency threshold, deterministic order.
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for d in docs {
            for t in d {
                *counts.entry(t.as_str()).or_default() += 1;
            }
        }
        let mut words: Vec<&str> = counts
            .iter()
            .filter(|(_, &c)| c >= config.min_count)
            .map(|(w, _)| *w)
            .collect();
        words.sort_unstable();
        let vocab: HashMap<String, usize> = words
            .iter()
            .enumerate()
            .map(|(i, w)| (w.to_string(), i))
            .collect();
        let v = vocab.len();
        if v == 0 {
            return Embedding {
                vocab,
                vectors: Matrix::zeros(0, config.dim),
                config,
            };
        }

        // Co-occurrence counts within the window.
        let mut cooc = vec![0.0f64; v * v];
        let mut word_totals = vec![0.0f64; v];
        let mut grand_total = 0.0f64;
        for d in docs {
            let ids: Vec<Option<usize>> = d.iter().map(|t| vocab.get(t).copied()).collect();
            for (i, wi) in ids.iter().enumerate() {
                let Some(wi) = wi else { continue };
                let lo = i.saturating_sub(config.window);
                let hi = (i + config.window + 1).min(ids.len());
                for (j, wj) in ids.iter().enumerate().take(hi).skip(lo) {
                    if i == j {
                        continue;
                    }
                    let Some(wj) = wj else { continue };
                    cooc[wi * v + wj] += 1.0;
                    word_totals[*wi] += 1.0;
                    grand_total += 1.0;
                }
            }
        }

        // PPMI transform.
        let mut ppmi = Matrix::zeros(v, v);
        if grand_total > 0.0 {
            for i in 0..v {
                for j in 0..v {
                    let c = cooc[i * v + j];
                    if c == 0.0 {
                        continue;
                    }
                    let pmi = ((c * grand_total) / (word_totals[i] * word_totals[j]).max(1e-12))
                        .ln()
                        .max(0.0);
                    ppmi.set(i, j, pmi as f32);
                }
            }
        }

        // Rank-`dim` factorisation by deflated power iteration on the
        // symmetric matrix S = (P + P^T)/2.
        let mut s = ppmi.clone();
        let pt = ppmi.transpose();
        s.axpy(1.0, &pt);
        s.map_inplace(|x| x * 0.5);
        let mut vectors = Matrix::zeros(v, config.dim.min(v));
        let mut deflated = s;
        for k in 0..vectors.cols() {
            let (eigval, eigvec) = power_iteration(&deflated, config.iterations, k as u64);
            let scale = eigval.abs().sqrt();
            for r in 0..v {
                vectors.set(r, k, eigvec[r] * scale);
            }
            // Deflate: S -= lambda * u u^T.
            for r in 0..v {
                for c in 0..v {
                    let val = deflated.get(r, c) - eigval * eigvec[r] * eigvec[c];
                    deflated.set(r, c, val);
                }
            }
        }
        // Pad with zero columns if vocab smaller than dim.
        let vectors = if vectors.cols() < config.dim {
            vectors.hcat(&Matrix::zeros(v, config.dim - vectors.cols()))
        } else {
            vectors
        };
        Embedding {
            vocab,
            vectors,
            config,
        }
    }

    /// Embedding dimensionality.
    pub(crate) fn dim(&self) -> usize {
        self.config.dim
    }

    /// Vector for a word, if in vocabulary.
    pub(crate) fn vector(&self, word: &str) -> Option<&[f32]> {
        self.vocab.get(word).map(|&i| self.vectors.row(i))
    }

    /// Mean of the vectors of a document's in-vocabulary tokens; zeros when
    /// nothing matches.
    pub fn embed_document(&self, tokens: &[String]) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.dim()];
        let mut count = 0.0f32;
        for t in tokens {
            if let Some(v) = self.vector(t) {
                for (a, b) in acc.iter_mut().zip(v.iter()) {
                    *a += b;
                }
                count += 1.0;
            }
        }
        if count > 0.0 {
            for a in &mut acc {
                *a /= count;
            }
        }
        acc
    }

    /// Cosine similarity between two words (None if either is OOV).
    #[cfg(test)]
    fn similarity(&self, a: &str, b: &str) -> Option<f32> {
        let va = self.vector(a)?;
        let vb = self.vector(b)?;
        let dot: f32 = va.iter().zip(vb).map(|(x, y)| x * y).sum();
        let na: f32 = va.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = vb.iter().map(|x| x * x).sum::<f32>().sqrt();
        if na == 0.0 || nb == 0.0 {
            return Some(0.0);
        }
        Some(dot / (na * nb))
    }

    /// Deterministic work estimate: the factorisation dominates at
    /// `O(V^2 · dim · iterations)`.
    pub fn work_units(vocab: usize, config: &EmbeddingConfig) -> u64 {
        (vocab as u64) * (vocab as u64) * (config.dim as u64) * (config.iterations as u64)
    }
}

/// Power iteration with a deterministic seeded start vector.
fn power_iteration(m: &Matrix, iterations: usize, seed: u64) -> (f32, Vec<f32>) {
    let n = m.rows();
    // Deterministic pseudo-random start from a tiny LCG (no rand dependency
    // needed here, and determinism is required for reproducible embeddings).
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut v: Vec<f32> = (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect();
    normalise(&mut v);
    let mut eig = 0.0f32;
    for _ in 0..iterations.max(1) {
        let mut next = vec![0.0f32; n];
        for r in 0..n {
            let row = m.row(r);
            next[r] = row.iter().zip(v.iter()).map(|(a, b)| a * b).sum();
        }
        eig = next.iter().zip(v.iter()).map(|(a, b)| a * b).sum::<f32>();
        normalise(&mut next);
        v = next;
    }
    (eig, v)
}

fn normalise(v: &mut [f32]) {
    let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if n > 0.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    } else if !v.is_empty() {
        v[0] = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lowercases and splits on non-alphanumeric characters.
    fn tokenize(text: &str) -> Vec<String> {
        text.split(|c: char| !c.is_alphanumeric())
            .filter(|t| !t.is_empty())
            .map(|t| t.to_lowercase())
            .collect()
    }

    fn docs(texts: &[&str]) -> Vec<Vec<String>> {
        texts.iter().map(|t| tokenize(t)).collect()
    }

    #[test]
    fn tokenizer_basics() {
        assert_eq!(tokenize("Hello, World!"), vec!["hello", "world"]);
        assert_eq!(tokenize("  a--b  c "), vec!["a", "b", "c"]);
        assert!(tokenize("!!!").is_empty());
    }

    #[test]
    fn trains_and_looks_up() {
        let d = docs(&[
            "good movie great film",
            "great movie good film",
            "bad awful terrible movie",
        ]);
        let e = Embedding::train(&d, EmbeddingConfig::default());
        assert!(e.vocab.len() >= 7);
        assert_eq!(e.dim(), 16);
        assert!(e.vector("movie").is_some());
        assert!(e.vector("unseen").is_none());
    }

    #[test]
    fn cooccurring_words_are_similar() {
        // "good" and "great" always share contexts; "zzz" appears alone.
        let d = docs(&[
            "good great fine nice",
            "good great fine nice",
            "good great fine nice",
            "zzz qqq xxx www",
        ]);
        let e = Embedding::train(
            &d,
            EmbeddingConfig {
                dim: 4,
                window: 3,
                iterations: 30,
                min_count: 1,
            },
        );
        let close = e.similarity("good", "great").unwrap();
        let far = e.similarity("good", "zzz").unwrap();
        assert!(
            close > far,
            "expected sim(good,great)={close} > sim(good,zzz)={far}"
        );
    }

    #[test]
    fn document_embedding_is_mean() {
        let d = docs(&["alpha beta", "beta gamma alpha"]);
        let e = Embedding::train(
            &d,
            EmbeddingConfig {
                dim: 4,
                ..Default::default()
            },
        );
        let emb = e.embed_document(&tokenize("alpha beta"));
        assert_eq!(emb.len(), 4);
        let a = e.vector("alpha").unwrap();
        let b = e.vector("beta").unwrap();
        for (i, v) in emb.iter().enumerate() {
            assert!((v - (a[i] + b[i]) / 2.0).abs() < 1e-6);
        }
        // OOV-only document → zeros.
        let zero = e.embed_document(&tokenize("nothing matches here at all qwerty"));
        // "at" etc may actually be OOV; ensure a fully-OOV token set is zero.
        let zero2 = e.embed_document(&[String::from("zzzz")]);
        assert!(zero2.iter().all(|&v| v == 0.0));
        let _ = zero;
    }

    #[test]
    fn deterministic_training() {
        let d = docs(&["one two three four", "two three four five"]);
        let a = Embedding::train(&d, EmbeddingConfig::default());
        let b = Embedding::train(&d, EmbeddingConfig::default());
        assert_eq!(a.vector("three"), b.vector("three"));
    }

    #[test]
    fn min_count_filters_vocab() {
        let d = docs(&["common common common rare"]);
        let e = Embedding::train(
            &d,
            EmbeddingConfig {
                min_count: 2,
                ..Default::default()
            },
        );
        assert!(e.vector("common").is_some());
        assert!(e.vector("rare").is_none());
    }

    #[test]
    fn empty_corpus() {
        let e = Embedding::train(&[], EmbeddingConfig::default());
        assert_eq!(e.vocab.len(), 0);
        assert!(e
            .embed_document(&tokenize("anything"))
            .iter()
            .all(|&v| v == 0.0));
    }

    #[test]
    fn work_units_quadratic_in_vocab() {
        let c = EmbeddingConfig::default();
        assert!(Embedding::work_units(200, &c) > 3 * Embedding::work_units(100, &c));
    }
}
