//! Feed-forward neural network (multi-layer perceptron) trained with
//! mini-batch SGD — the stand-in for the paper's deep-learning model slot
//! (the Readmission "CNN", the DPM/SA DL models; see ARCHITECTURE.md,
//! "Virtual time: a field of the report").
//!
//! The network is deliberately small but real: the merge machinery needs
//! pipeline scores that genuinely depend on the interaction between
//! pre-processing versions and model hyperparameters, which a real trained
//! model provides and a canned lookup table would not.

use crate::metrics::accuracy;
use crate::tensor::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Hyperparameters of the MLP — the library metafile's tunables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Sizes of hidden layers (e.g. `[32, 16]`).
    pub hidden: Vec<usize>,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// L2 regularisation strength.
    pub l2: f32,
    /// RNG seed for init and shuffling.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden: vec![32],
            learning_rate: 0.05,
            epochs: 10,
            batch_size: 32,
            l2: 1e-4,
            seed: 7,
        }
    }
}

/// A trained network: weights + biases per layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    weights: Vec<Matrix>,
    biases: Vec<Vec<f32>>,
    config: MlpConfig,
    /// Per-epoch mean training loss (cross-entropy), recorded during fit.
    pub loss_history: Vec<f64>,
}

impl Mlp {
    /// Initialises an untrained network for `input_dim` features and
    /// `n_classes` outputs.
    pub fn new(input_dim: usize, n_classes: usize, config: MlpConfig) -> Mlp {
        assert!(
            input_dim > 0 && n_classes > 0,
            "dimensions must be positive"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut dims = vec![input_dim];
        dims.extend_from_slice(&config.hidden);
        dims.push(n_classes);
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for w in dims.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            // He initialisation for ReLU layers.
            let scale = (2.0 / fan_in as f32).sqrt();
            weights.push(Matrix::from_fn(fan_in, fan_out, |_, _| {
                (rng.gen::<f32>() * 2.0 - 1.0) * scale
            }));
            biases.push(vec![0.0; fan_out]);
        }
        Mlp {
            weights,
            biases,
            config,
            loss_history: Vec::new(),
        }
    }

    /// Total trainable parameter count.
    pub(crate) fn n_params(&self) -> usize {
        self.weights
            .iter()
            .map(|w| w.rows() * w.cols())
            .sum::<usize>()
            + self.biases.iter().map(|b| b.len()).sum::<usize>()
    }

    /// Forward pass returning activations of every layer (input first).
    fn forward(&self, x: &Matrix) -> Vec<Matrix> {
        let mut acts = vec![x.clone()];
        for (i, (w, b)) in self.weights.iter().zip(&self.biases).enumerate() {
            let mut z = acts.last().unwrap().matmul(w);
            z.add_row_broadcast(b);
            if i + 1 < self.weights.len() {
                z.map_inplace(|v| v.max(0.0)); // ReLU on hidden layers
            }
            acts.push(z);
        }
        acts
    }

    /// Class probabilities for a batch.
    pub fn predict_proba(&self, x: &Matrix) -> Matrix {
        self.forward(x).pop().unwrap().softmax_rows()
    }

    /// Hard class predictions.
    pub(crate) fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.predict_proba(x).argmax_rows()
    }

    /// Accuracy on a labelled set.
    pub fn evaluate(&self, x: &Matrix, y: &[usize]) -> f64 {
        accuracy(&self.predict(x), y)
    }

    /// Trains with mini-batch SGD and records the loss history.
    ///
    /// Returns the final epoch's mean loss. Deterministic for a fixed config.
    pub fn fit(&mut self, x: &Matrix, y: &[usize]) -> f64 {
        assert_eq!(x.rows(), y.len(), "feature/label count mismatch");
        assert!(x.rows() > 0, "cannot train on an empty dataset");
        let n = x.rows();
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x5eed);
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..self.config.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            let mut batches = 0.0f64;
            for batch_idx in order.chunks(self.config.batch_size.max(1)) {
                let xb = x.select_rows(batch_idx);
                let yb: Vec<usize> = batch_idx.iter().map(|&i| y[i]).collect();
                epoch_loss += self.sgd_step(&xb, &yb);
                batches += 1.0;
            }
            self.loss_history.push(epoch_loss / batches.max(1.0));
        }
        self.loss_history.last().copied().unwrap_or(f64::INFINITY)
    }

    /// One SGD step on a batch; returns the batch's mean cross-entropy loss.
    fn sgd_step(&mut self, xb: &Matrix, yb: &[usize]) -> f64 {
        let acts = self.forward(xb);
        let probs = acts.last().unwrap().softmax_rows();
        let m = xb.rows() as f32;

        // Loss (for reporting).
        let mut loss = 0.0f64;
        for (r, &label) in yb.iter().enumerate() {
            loss -= (probs.get(r, label).max(1e-12) as f64).ln();
        }
        loss /= m as f64;

        // Backprop: delta at the output = probs - one_hot(y).
        let mut delta = probs;
        for (r, &label) in yb.iter().enumerate() {
            let v = delta.get(r, label);
            delta.set(r, label, v - 1.0);
        }

        let lr = self.config.learning_rate;
        let l2 = self.config.l2;
        for layer in (0..self.weights.len()).rev() {
            let a_prev = &acts[layer];
            // Gradients.
            let grad_w = a_prev.transpose().matmul(&delta);
            let grad_b = delta.col_sums();
            // Propagate delta before mutating this layer's weights.
            if layer > 0 {
                let mut next_delta = delta.matmul(&self.weights[layer].transpose());
                // ReLU derivative gate on the pre-activation (equals the
                // activation for ReLU: zero where activation is zero).
                for r in 0..next_delta.rows() {
                    for c in 0..next_delta.cols() {
                        if acts[layer].get(r, c) <= 0.0 {
                            next_delta.set(r, c, 0.0);
                        }
                    }
                }
                delta = next_delta;
            }
            // Parameter update with L2.
            let w = &mut self.weights[layer];
            for r in 0..w.rows() {
                for c in 0..w.cols() {
                    let g = grad_w.get(r, c) / m + l2 * w.get(r, c);
                    w.set(r, c, w.get(r, c) - lr * g);
                }
            }
            for (b, g) in self.biases[layer].iter_mut().zip(grad_b.iter()) {
                *b -= lr * g / m;
            }
        }
        loss
    }

    /// Deterministic estimate of the training work in abstract FLOP-like
    /// units: parameters touched per sample per epoch (forward + backward).
    pub fn training_work_units(&self, n_samples: usize) -> u64 {
        (self.n_params() as u64) * (n_samples as u64) * (self.config.epochs as u64) * 6
    }
}

/// Generates a seeded two-cluster-per-class synthetic classification set,
/// used by unit tests and the distributed-training simulator.
pub fn synthetic_classification(
    n: usize,
    dim: usize,
    n_classes: usize,
    noise: f32,
    seed: u64,
) -> (Matrix, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    // One random unit-ish prototype per class.
    let protos: Vec<Vec<f32>> = (0..n_classes)
        .map(|_| (0..dim).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect())
        .collect();
    let mut x = Matrix::zeros(n, dim);
    let mut y = Vec::with_capacity(n);
    for r in 0..n {
        let label = r % n_classes;
        y.push(label);
        for c in 0..dim {
            let v = protos[label][c] + (rng.gen::<f32>() * 2.0 - 1.0) * noise;
            x.set(r, c, v);
        }
    }
    (x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_separable_data() {
        let (x, y) = synthetic_classification(300, 8, 3, 0.2, 11);
        let mut mlp = Mlp::new(8, 3, MlpConfig::default());
        let final_loss = mlp.fit(&x, &y);
        assert!(final_loss < 0.5, "final loss {final_loss} too high");
        assert!(mlp.evaluate(&x, &y) > 0.9);
    }

    #[test]
    fn loss_decreases() {
        let (x, y) = synthetic_classification(200, 6, 2, 0.3, 5);
        let mut mlp = Mlp::new(6, 2, MlpConfig::default());
        mlp.fit(&x, &y);
        let first = mlp.loss_history.first().copied().unwrap();
        let last = mlp.loss_history.last().copied().unwrap();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn deterministic_training() {
        let (x, y) = synthetic_classification(100, 4, 2, 0.2, 3);
        let mut a = Mlp::new(4, 2, MlpConfig::default());
        let mut b = Mlp::new(4, 2, MlpConfig::default());
        assert_eq!(a.fit(&x, &y), b.fit(&x, &y));
        assert_eq!(a.loss_history, b.loss_history);
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    #[test]
    fn seed_changes_outcome() {
        let (x, y) = synthetic_classification(100, 4, 2, 0.2, 3);
        let mut a = Mlp::new(4, 2, MlpConfig::default());
        let mut b = Mlp::new(
            4,
            2,
            MlpConfig {
                seed: 99,
                ..MlpConfig::default()
            },
        );
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_ne!(a.loss_history, b.loss_history);
    }

    #[test]
    fn deeper_config_has_more_params() {
        let small = Mlp::new(10, 2, MlpConfig::default());
        let big = Mlp::new(
            10,
            2,
            MlpConfig {
                hidden: vec![64, 32],
                ..MlpConfig::default()
            },
        );
        assert!(big.n_params() > small.n_params());
        assert!(big.training_work_units(100) > small.training_work_units(100));
    }

    #[test]
    fn probabilities_are_normalised() {
        let (x, y) = synthetic_classification(50, 4, 3, 0.2, 9);
        let mut mlp = Mlp::new(4, 3, MlpConfig::default());
        mlp.fit(&x, &y);
        let p = mlp.predict_proba(&x);
        for r in 0..p.rows() {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
            assert!(p.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    #[should_panic(expected = "feature/label count mismatch")]
    fn fit_checks_lengths() {
        let (x, _) = synthetic_classification(10, 4, 2, 0.2, 1);
        Mlp::new(4, 2, MlpConfig::default()).fit(&x, &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn new_rejects_zero_dims() {
        Mlp::new(0, 2, MlpConfig::default());
    }

    #[test]
    fn no_hidden_layers_is_logistic_regression() {
        let (x, y) = synthetic_classification(200, 5, 2, 0.2, 13);
        let mut m = Mlp::new(
            5,
            2,
            MlpConfig {
                hidden: vec![],
                epochs: 30,
                ..MlpConfig::default()
            },
        );
        m.fit(&x, &y);
        assert!(m.evaluate(&x, &y) > 0.85);
    }
}
