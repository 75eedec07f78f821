//! Synchronous data-parallel training simulator (paper §VII-F, Fig. 11).
//!
//! The paper measures how k-GPU synchronous training of a ResNet18 shrinks
//! training-loss-vs-time curves, then derives the pipeline-level speedup
//! `1/((1-p) + p/k)` (Amdahl's law with parallelisable fraction `p`). We
//! have no GPUs, so we reproduce the *mechanism*: real gradient computation
//! over `k` batch shards with gradient averaging (so the loss trajectory per
//! step is genuinely that of synchronous SGD), paired with a virtual step
//! clock in which `k` workers process their shards concurrently and pay an
//! all-reduce cost that grows with `k`.

use serde::{Deserialize, Serialize};

/// Virtual cost parameters for one training step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuCostModel {
    /// Nanoseconds per sample of forward+backward on one worker.
    pub(crate) ns_per_sample: u64,
    /// Fixed all-reduce latency per step, nanoseconds.
    pub(crate) allreduce_base_ns: u64,
    /// Extra all-reduce nanoseconds per additional worker (ring latency).
    pub(crate) allreduce_per_worker_ns: u64,
}

impl Default for GpuCostModel {
    fn default() -> Self {
        GpuCostModel {
            ns_per_sample: 400_000,       // 0.4 ms / sample
            allreduce_base_ns: 1_500_000, // 1.5 ms
            allreduce_per_worker_ns: 500_000,
        }
    }
}

/// One point of a loss-vs-time curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossPoint {
    /// Virtual elapsed seconds since training started.
    pub(crate) time_s: f64,
    /// Training loss after this step's update.
    pub(crate) loss: f64,
    /// Steps completed.
    pub(crate) step: usize,
}

/// Result of one simulated distributed run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DistributedRun {
    /// Worker count.
    pub(crate) workers: usize,
    /// Loss trajectory over virtual time.
    pub(crate) curve: Vec<LossPoint>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::{synthetic_classification, Mlp, MlpConfig};
    use crate::tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    impl GpuCostModel {
        /// Virtual duration of one synchronous step over `batch` samples split
        /// across `k` workers.
        fn step_ns(&self, batch: usize, k: usize) -> u64 {
            let k = k.max(1);
            let shard = batch.div_ceil(k); // slowest worker holds the ceiling shard
            let compute = shard as u64 * self.ns_per_sample;
            let comm = if k == 1 {
                0
            } else {
                self.allreduce_base_ns + self.allreduce_per_worker_ns * (k as u64 - 1)
            };
            compute + comm
        }
    }

    /// Simulates synchronous data-parallel SGD with `k` workers.
    ///
    /// Gradient math is real: every step trains on a full global batch (the
    /// union of the k shards), so larger `k` processes more samples per unit of
    /// virtual time — exactly the throughput effect in Fig. 11(a).
    #[allow(clippy::too_many_arguments)]
    fn train_distributed(
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        base: &MlpConfig,
        workers: usize,
        global_batch: usize,
        steps: usize,
        cost: GpuCostModel,
    ) -> DistributedRun {
        assert!(workers >= 1, "need at least one worker");
        assert_eq!(x.rows(), y.len(), "feature/label count mismatch");
        // A single model trained on the global batch reproduces synchronous
        // data-parallel SGD exactly (gradient averaging over shards equals the
        // gradient of the concatenated batch).
        let mut model = Mlp::new(
            x.cols(),
            n_classes,
            MlpConfig {
                batch_size: global_batch,
                epochs: 1,
                ..base.clone()
            },
        );
        let mut rng = StdRng::seed_from_u64(base.seed ^ 0xd157);
        let mut order: Vec<usize> = (0..x.rows()).collect();
        let mut curve = Vec::with_capacity(steps);
        let mut t_ns: u64 = 0;
        let mut cursor = 0usize;
        for step in 0..steps {
            if cursor + global_batch > order.len() {
                order.shuffle(&mut rng);
                cursor = 0;
            }
            let batch_idx = &order[cursor..cursor + global_batch.min(order.len())];
            cursor += global_batch;
            let xb = x.select_rows(batch_idx);
            let yb: Vec<usize> = batch_idx.iter().map(|&i| y[i]).collect();
            // One synchronous update on the global batch.
            let mut tmp = model.clone();
            let loss = tmp.fit(&xb, &yb);
            model = tmp;
            t_ns += cost.step_ns(global_batch, workers);
            curve.push(LossPoint {
                time_s: t_ns as f64 / 1e9,
                loss,
                step: step + 1,
            });
        }
        DistributedRun { workers, curve }
    }

    /// The paper's closed-form pipeline speedup: `1 / ((1 - p) + p / k)` where
    /// `p` is the fraction of pipeline time spent in (parallelisable) model
    /// training and `k` the training speedup.
    fn pipeline_speedup(p: f64, k: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "p must be a fraction");
        assert!(k >= 1.0, "k must be >= 1");
        1.0 / ((1.0 - p) + p / k)
    }

    #[test]
    fn step_cost_decreases_with_workers() {
        let c = GpuCostModel::default();
        let one = c.step_ns(256, 1);
        let four = c.step_ns(256, 4);
        let eight = c.step_ns(256, 8);
        assert!(four < one);
        assert!(eight < four);
    }

    #[test]
    fn allreduce_limits_scaling() {
        // With tiny batches, communication dominates and more workers hurt.
        let c = GpuCostModel::default();
        assert!(c.step_ns(2, 8) > c.step_ns(2, 1));
    }

    #[test]
    fn more_workers_reach_low_loss_sooner() {
        let (x, y) = synthetic_classification(512, 8, 2, 0.3, 31);
        let base = MlpConfig {
            hidden: vec![16],
            learning_rate: 0.1,
            ..Default::default()
        };
        let cost = GpuCostModel::default();
        let run1 = train_distributed(&x, &y, 2, &base, 1, 64, 30, cost);
        let run8 = train_distributed(&x, &y, 2, &base, 8, 64, 30, cost);
        // Same number of steps → same final loss (identical math)...
        let f1 = run1.curve.last().unwrap();
        let f8 = run8.curve.last().unwrap();
        assert!((f1.loss - f8.loss).abs() < 1e-9, "math must be identical");
        // ...but 8 workers get there in less virtual time.
        assert!(
            f8.time_s < f1.time_s / 2.0,
            "8-gpu time {} vs 1-gpu {}",
            f8.time_s,
            f1.time_s
        );
    }

    #[test]
    fn loss_decreases_over_run() {
        let (x, y) = synthetic_classification(256, 6, 2, 0.2, 13);
        let run = train_distributed(
            &x,
            &y,
            2,
            &MlpConfig::default(),
            4,
            64,
            40,
            GpuCostModel::default(),
        );
        let first = run.curve.first().unwrap().loss;
        let last = run.curve.last().unwrap().loss;
        assert!(last < first, "loss {first} -> {last}");
        // Time strictly increases.
        for w in run.curve.windows(2) {
            assert!(w[1].time_s > w[0].time_s);
        }
    }

    #[test]
    fn speedup_formula_matches_paper() {
        // Paper: p > 0.9 and k = 8 → pipeline time less than 1/4 of original.
        assert!(pipeline_speedup(0.9, 8.0) > 4.0);
        // Edge cases.
        assert_eq!(pipeline_speedup(0.0, 8.0), 1.0);
        assert!((pipeline_speedup(1.0, 8.0) - 8.0).abs() < 1e-12);
        // Monotone in both arguments.
        assert!(pipeline_speedup(0.5, 4.0) < pipeline_speedup(0.5, 8.0));
        assert!(pipeline_speedup(0.5, 4.0) < pipeline_speedup(0.8, 4.0));
    }

    #[test]
    #[should_panic(expected = "p must be a fraction")]
    fn speedup_rejects_bad_p() {
        pipeline_speedup(1.5, 2.0);
    }

    #[test]
    fn deterministic_runs() {
        let (x, y) = synthetic_classification(128, 4, 2, 0.2, 3);
        let a = train_distributed(
            &x,
            &y,
            2,
            &MlpConfig::default(),
            2,
            32,
            10,
            GpuCostModel::default(),
        );
        let b = train_distributed(
            &x,
            &y,
            2,
            &MlpConfig::default(),
            2,
            32,
            10,
            GpuCostModel::default(),
        );
        assert_eq!(
            a.curve.iter().map(|p| p.loss).collect::<Vec<_>>(),
            b.curve.iter().map(|p| p.loss).collect::<Vec<_>>()
        );
    }
}
