//! Evaluation metrics and the score functions driving metric-driven merge.
//!
//! The paper defines the merge result as `argmax score(p)` over pipeline
//! candidates, with the score derived from the pipeline's own metric (e.g.
//! `1/MSE` for regression). This module provides the common metrics plus the
//! [`Score`] wrapper that makes "higher is better" uniform.

use serde::{Deserialize, Serialize};

/// Classification accuracy in `[0, 1]`.
pub fn accuracy(pred: &[usize], truth: &[usize]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "length mismatch");
    if pred.is_empty() {
        return 0.0;
    }
    let hits = pred.iter().zip(truth).filter(|(p, t)| p == t).count();
    hits as f64 / pred.len() as f64
}

/// Area under the ROC curve via the rank-sum (Mann–Whitney) formulation.
/// Returns 0.5 when either class is absent.
pub fn auc(prob_pos: &[f64], truth: &[usize]) -> f64 {
    assert_eq!(prob_pos.len(), truth.len(), "length mismatch");
    let mut pairs: Vec<(f64, usize)> = prob_pos
        .iter()
        .copied()
        .zip(truth.iter().copied())
        .collect();
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let n_pos = truth.iter().filter(|&&t| t == 1).count();
    let n_neg = truth.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    // Average ranks over ties.
    let mut rank_sum_pos = 0.0;
    let mut i = 0;
    while i < pairs.len() {
        let mut j = i;
        while j + 1 < pairs.len() && pairs[j + 1].0 == pairs[i].0 {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for p in &pairs[i..=j] {
            if p.1 == 1 {
                rank_sum_pos += avg_rank;
            }
        }
        i = j + 1;
    }
    (rank_sum_pos - n_pos as f64 * (n_pos as f64 + 1.0) / 2.0) / (n_pos as f64 * n_neg as f64)
}

/// F1 score for the positive class of a binary problem.
pub fn f1(pred: &[usize], truth: &[usize]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "length mismatch");
    let tp = pred
        .iter()
        .zip(truth)
        .filter(|(&p, &t)| p == 1 && t == 1)
        .count() as f64;
    let fp = pred
        .iter()
        .zip(truth)
        .filter(|(&p, &t)| p == 1 && t == 0)
        .count() as f64;
    let fn_ = pred
        .iter()
        .zip(truth)
        .filter(|(&p, &t)| p == 0 && t == 1)
        .count() as f64;
    if tp == 0.0 {
        return 0.0;
    }
    let precision = tp / (tp + fp);
    let recall = tp / (tp + fn_);
    2.0 * precision * recall / (precision + recall)
}

/// The metric a pipeline optimises, with direction information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Higher accuracy is better.
    Accuracy,
    /// Lower MSE is better (score = 1/MSE as in the paper).
    Mse,
    /// Higher AUC is better.
    Auc,
    /// Higher F1 is better.
    F1,
}

/// A raw metric value converted to a "higher is better" score.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Score {
    /// Metric family.
    pub kind: MetricKind,
    /// Raw metric value as measured.
    pub raw: f64,
    /// Comparable value; always higher-is-better.
    pub value: f64,
}

impl Score {
    /// Wraps a raw metric value.
    pub fn new(kind: MetricKind, raw: f64) -> Score {
        let value = match kind {
            MetricKind::Accuracy | MetricKind::Auc | MetricKind::F1 => raw,
            // The paper: "we can use score = 1/MSE as a score function".
            MetricKind::Mse => {
                if raw <= 0.0 {
                    f64::MAX
                } else {
                    1.0 / raw
                }
            }
        };
        Score { kind, raw, value }
    }

    /// Total order on scores (NaN sorts lowest).
    pub fn total_cmp(&self, other: &Score) -> std::cmp::Ordering {
        self.value.total_cmp(&other.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[1, 0, 1], &[1, 1, 1]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn auc_perfect_separation() {
        let probs = [0.1, 0.2, 0.8, 0.9];
        let truth = [0, 0, 1, 1];
        assert_eq!(auc(&probs, &truth), 1.0);
        let truth_inv = [1, 1, 0, 0];
        assert_eq!(auc(&probs, &truth_inv), 0.0);
    }

    #[test]
    fn auc_random_is_half() {
        // All predictions tied → AUC 0.5 by tie handling.
        let probs = [0.5; 6];
        let truth = [0, 1, 0, 1, 0, 1];
        assert!((auc(&probs, &truth) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn auc_degenerate_classes() {
        assert_eq!(auc(&[0.3, 0.7], &[1, 1]), 0.5);
        assert_eq!(auc(&[0.3, 0.7], &[0, 0]), 0.5);
    }

    #[test]
    fn f1_basic() {
        // tp=1, fp=1, fn=1 → precision=recall=0.5 → f1=0.5
        assert_eq!(f1(&[1, 1, 0], &[1, 0, 1]), 0.5);
        assert_eq!(f1(&[0, 0], &[1, 1]), 0.0);
    }

    #[test]
    fn score_directions() {
        let acc = Score::new(MetricKind::Accuracy, 0.9);
        assert_eq!(acc.value, 0.9);
        let m = Score::new(MetricKind::Mse, 0.25);
        assert_eq!(m.value, 4.0);
        let zero_mse = Score::new(MetricKind::Mse, 0.0);
        assert_eq!(zero_mse.value, f64::MAX);
    }

    #[test]
    fn score_ordering() {
        let a = Score::new(MetricKind::Mse, 0.5); // value 2.0
        let b = Score::new(MetricKind::Mse, 0.1); // value 10.0
        assert_eq!(a.total_cmp(&b), std::cmp::Ordering::Less);
    }

    proptest! {
        #[test]
        fn prop_accuracy_bounded(n in 1usize..50, seed in 0u64..1000) {
            let pred: Vec<usize> = (0..n).map(|i| (seed as usize + i) % 2).collect();
            let truth: Vec<usize> = (0..n).map(|i| ((seed as usize) * 7 + i * 3) % 2).collect();
            let a = accuracy(&pred, &truth);
            prop_assert!((0.0..=1.0).contains(&a));
        }

        #[test]
        fn prop_auc_flip_symmetry(
            probs in proptest::collection::vec(0.0f64..1.0, 4..32),
        ) {
            // Labels alternate; flipping labels maps AUC → 1 - AUC.
            let truth: Vec<usize> = (0..probs.len()).map(|i| i % 2).collect();
            let flipped: Vec<usize> = truth.iter().map(|t| 1 - t).collect();
            let a = auc(&probs, &truth);
            let b = auc(&probs, &flipped);
            prop_assert!((a + b - 1.0).abs() < 1e-9);
        }
    }
}
