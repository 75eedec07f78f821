//! AdaBoost over decision stumps — the Autolearn pipeline's final classifier
//! (§VII-A: "an AdaBoost classifier is built for the image classification
//! task"). Implements multi-class SAMME boosting with axis-aligned
//! threshold stumps found by an exact weighted sweep.

use crate::tensor::Matrix;
use serde::{Deserialize, Serialize};

/// An axis-aligned decision stump: predicts `left` when
/// `x[feature] <= threshold`, else `right`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct Stump {
    /// Feature index tested.
    pub(crate) feature: usize,
    /// Split threshold.
    pub(crate) threshold: f32,
    /// Class predicted on the low side.
    pub(crate) left: usize,
    /// Class predicted on the high side.
    pub(crate) right: usize,
}

impl Stump {
    /// Predicts the class of one sample.
    pub(crate) fn predict_one(&self, row: &[f32]) -> usize {
        if row[self.feature] <= self.threshold {
            self.left
        } else {
            self.right
        }
    }
}

/// Configuration for AdaBoost training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaBoostConfig {
    /// Number of boosting rounds (stumps).
    pub rounds: usize,
    /// Evaluate every `stride`-th split boundary during the stump sweep
    /// (1 = exact search; larger trades accuracy for speed).
    pub threshold_stride: usize,
}

impl Default for AdaBoostConfig {
    fn default() -> Self {
        AdaBoostConfig {
            rounds: 30,
            threshold_stride: 1,
        }
    }
}

/// A trained AdaBoost.SAMME ensemble.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaBoost {
    stumps: Vec<(Stump, f64)>,
    n_classes: usize,
    config: AdaBoostConfig,
    /// Weighted training error per round.
    pub error_history: Vec<f64>,
}

impl AdaBoost {
    /// Trains an ensemble on `x` (n × d) with labels in `0..n_classes`.
    pub fn fit(x: &Matrix, y: &[usize], n_classes: usize, config: AdaBoostConfig) -> AdaBoost {
        assert_eq!(x.rows(), y.len(), "feature/label count mismatch");
        assert!(x.rows() > 0, "cannot train on an empty dataset");
        assert!(n_classes >= 2, "need at least two classes");
        let n = x.rows();
        // Pre-sort each feature once; reused by every boosting round.
        let sorted_idx: Vec<Vec<usize>> = (0..x.cols())
            .map(|f| {
                let mut idx: Vec<usize> = (0..n).collect();
                idx.sort_by(|&a, &b| {
                    x.get(a, f)
                        .partial_cmp(&x.get(b, f))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                idx
            })
            .collect();
        let mut weights = vec![1.0 / n as f64; n];
        let mut stumps = Vec::with_capacity(config.rounds);
        let mut error_history = Vec::with_capacity(config.rounds);
        // SAMME multiclass correction term.
        let k = n_classes as f64;
        for _ in 0..config.rounds {
            let (stump, err) = best_stump(x, y, &weights, n_classes, &sorted_idx, config);
            error_history.push(err);
            // Stop if the stump is no better than random guessing.
            if err >= 1.0 - 1.0 / k {
                break;
            }
            let err_c = err.max(1e-12);
            let alpha = ((1.0 - err_c) / err_c).ln() + (k - 1.0).ln();
            // Reweight: misclassified samples go up.
            let mut z = 0.0;
            for i in 0..n {
                if stump.predict_one(x.row(i)) != y[i] {
                    weights[i] *= alpha.exp();
                }
                z += weights[i];
            }
            for w in &mut weights {
                *w /= z;
            }
            stumps.push((stump, alpha));
            if err < 1e-9 {
                break; // perfect stump; further rounds add nothing
            }
        }
        AdaBoost {
            stumps,
            n_classes,
            config,
            error_history,
        }
    }

    /// Predicts one sample by weighted vote.
    pub(crate) fn predict_one(&self, row: &[f32]) -> usize {
        let mut votes = vec![0.0f64; self.n_classes];
        for (stump, alpha) in &self.stumps {
            votes[stump.predict_one(row)] += alpha;
        }
        votes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Predicts a batch.
    pub(crate) fn predict(&self, x: &Matrix) -> Vec<usize> {
        (0..x.rows()).map(|r| self.predict_one(x.row(r))).collect()
    }

    /// Accuracy on a labelled set.
    pub fn evaluate(&self, x: &Matrix, y: &[usize]) -> f64 {
        crate::metrics::accuracy(&self.predict(x), y)
    }

    /// Deterministic training work estimate (stump sweep dominates).
    pub fn work_units(x_rows: usize, x_cols: usize, config: AdaBoostConfig) -> u64 {
        (x_rows as u64) * (x_cols as u64) * (config.rounds as u64)
            / (config.threshold_stride.max(1) as u64)
    }
}

/// Exact weighted stump search: for each feature, sweep samples in sorted
/// order maintaining weighted class histograms on each side; evaluate the
/// split after each group of tied values.
fn best_stump(
    x: &Matrix,
    y: &[usize],
    weights: &[f64],
    n_classes: usize,
    sorted_idx: &[Vec<usize>],
    config: AdaBoostConfig,
) -> (Stump, f64) {
    let n = x.rows();
    let mut total = vec![0.0f64; n_classes];
    for (w, &label) in weights.iter().zip(y) {
        total[label] += w;
    }
    // Baseline: no split (threshold above all values, both sides majority).
    let (maj, maj_w) = argmax_f64(&total);
    let mut best = Stump {
        feature: 0,
        threshold: f32::INFINITY,
        left: maj,
        right: maj,
    };
    let mut best_err = 1.0 - maj_w;

    let mut low = vec![0.0f64; n_classes];
    let mut high = vec![0.0f64; n_classes];
    for (f, idxs) in sorted_idx.iter().enumerate() {
        low.iter_mut().for_each(|v| *v = 0.0);
        high.copy_from_slice(&total);
        let mut pos = 0usize;
        let mut boundary = 0usize;
        while pos < n {
            let thr = x.get(idxs[pos], f);
            // Move the whole tied group to the low side.
            while pos < n && x.get(idxs[pos], f) == thr {
                let r = idxs[pos];
                low[y[r]] += weights[r];
                high[y[r]] -= weights[r];
                pos += 1;
            }
            if pos == n {
                break; // all samples on one side == baseline
            }
            boundary += 1;
            if !boundary.is_multiple_of(config.threshold_stride.max(1)) {
                continue;
            }
            let (left, left_w) = argmax_f64(&low);
            let (right, right_w) = argmax_f64(&high);
            let err = (1.0 - left_w - right_w).max(0.0);
            if err < best_err {
                best_err = err;
                best = Stump {
                    feature: f,
                    threshold: thr,
                    left,
                    right,
                };
            }
        }
    }
    (best, best_err)
}

fn argmax_f64(v: &[f64]) -> (usize, f64) {
    let mut bi = 0;
    let mut bv = f64::NEG_INFINITY;
    for (i, &x) in v.iter().enumerate() {
        if x > bv {
            bv = x;
            bi = i;
        }
    }
    (bi, if bv.is_finite() { bv } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::synthetic_classification;

    #[test]
    fn learns_axis_separable_binary() {
        // Class = sign of feature 0.
        let x = Matrix::from_fn(100, 3, |r, c| {
            if c == 0 {
                if r % 2 == 0 {
                    1.0 + (r as f32) * 0.01
                } else {
                    -1.0 - (r as f32) * 0.01
                }
            } else {
                (r as f32 * 0.37).sin()
            }
        });
        let y: Vec<usize> = (0..100).map(|r| r % 2).collect();
        let model = AdaBoost::fit(&x, &y, 2, AdaBoostConfig::default());
        assert_eq!(model.evaluate(&x, &y), 1.0, "exact sweep finds the split");
        assert!(!model.stumps.is_empty());
    }

    #[test]
    fn learns_multiclass_clusters() {
        let (x, y) = synthetic_classification(300, 6, 3, 0.15, 21);
        let model = AdaBoost::fit(
            &x,
            &y,
            3,
            AdaBoostConfig {
                rounds: 60,
                threshold_stride: 1,
            },
        );
        assert!(
            model.evaluate(&x, &y) > 0.8,
            "accuracy {}",
            model.evaluate(&x, &y)
        );
    }

    #[test]
    fn deterministic() {
        let (x, y) = synthetic_classification(120, 4, 2, 0.2, 3);
        let a = AdaBoost::fit(&x, &y, 2, AdaBoostConfig::default());
        let b = AdaBoost::fit(&x, &y, 2, AdaBoostConfig::default());
        assert_eq!(a.predict(&x), b.predict(&x));
        assert_eq!(a.error_history, b.error_history);
    }

    #[test]
    fn more_rounds_no_worse_on_train() {
        let (x, y) = synthetic_classification(200, 5, 2, 0.3, 8);
        let small = AdaBoost::fit(
            &x,
            &y,
            2,
            AdaBoostConfig {
                rounds: 2,
                threshold_stride: 1,
            },
        );
        let big = AdaBoost::fit(
            &x,
            &y,
            2,
            AdaBoostConfig {
                rounds: 50,
                threshold_stride: 1,
            },
        );
        assert!(big.evaluate(&x, &y) >= small.evaluate(&x, &y) - 0.05);
        assert!(big.stumps.len() >= small.stumps.len());
    }

    #[test]
    fn coarse_stride_still_learns() {
        let (x, y) = synthetic_classification(200, 5, 2, 0.2, 9);
        let model = AdaBoost::fit(
            &x,
            &y,
            2,
            AdaBoostConfig {
                rounds: 30,
                threshold_stride: 8,
            },
        );
        assert!(model.evaluate(&x, &y) > 0.8);
    }

    #[test]
    fn stump_prediction() {
        let s = Stump {
            feature: 1,
            threshold: 0.5,
            left: 2,
            right: 7,
        };
        assert_eq!(s.predict_one(&[9.0, 0.4]), 2);
        assert_eq!(s.predict_one(&[9.0, 0.6]), 7);
        assert_eq!(s.predict_one(&[9.0, 0.5]), 2, "boundary goes left");
    }

    #[test]
    fn single_class_data_stops_early() {
        let x = Matrix::from_fn(20, 2, |r, c| (r + c) as f32);
        let y = vec![1usize; 20];
        let model = AdaBoost::fit(&x, &y, 2, AdaBoostConfig::default());
        // A perfect stump exists immediately (everything is class 1).
        assert!(model.stumps.len() <= 1);
        assert_eq!(model.predict_one(&[0.0, 0.0]), 1);
    }

    #[test]
    fn weighted_error_history_decreasing_start() {
        let (x, y) = synthetic_classification(150, 4, 2, 0.25, 15);
        let model = AdaBoost::fit(&x, &y, 2, AdaBoostConfig::default());
        // Errors stay below random guessing for every kept stump.
        for (i, e) in model
            .error_history
            .iter()
            .take(model.stumps.len())
            .enumerate()
        {
            assert!(*e < 0.5, "round {i} error {e}");
        }
    }

    #[test]
    #[should_panic(expected = "at least two classes")]
    fn rejects_single_class_space() {
        let x = Matrix::zeros(2, 2);
        AdaBoost::fit(&x, &[0, 0], 1, AdaBoostConfig::default());
    }

    #[test]
    fn work_units_scale_with_config() {
        let small = AdaBoost::work_units(100, 10, AdaBoostConfig::default());
        let big = AdaBoost::work_units(
            100,
            10,
            AdaBoostConfig {
                rounds: 60,
                threshold_stride: 1,
            },
        );
        assert!(big > small);
    }
}
