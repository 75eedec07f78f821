//! Autolearn-style automated feature generation and selection.
//!
//! The Autolearn pipeline "employs the Autolearn \[8\] algorithm to generate
//! and select features automatically" (§VII-A). Following Kaul et al.
//! (ICDM'17), we generate pairwise *ratio* and *product* features from the
//! base feature set, then keep the `top_k` generated features ranked by
//! absolute Pearson correlation with the label, discarding near-constant
//! candidates.

use crate::tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Configuration of the generate-and-select pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoFeatConfig {
    /// How many generated features to keep.
    pub top_k: usize,
    /// Generate `x_i * x_j` products.
    pub products: bool,
    /// Generate `x_i / x_j` ratios.
    pub ratios: bool,
    /// Minimum std-dev for a candidate to be considered informative.
    pub min_std: f32,
}

impl Default for AutoFeatConfig {
    fn default() -> Self {
        AutoFeatConfig {
            top_k: 16,
            products: true,
            ratios: true,
            min_std: 1e-6,
        }
    }
}

/// A selected generated feature, recorded so the transform can be replayed
/// on unseen data.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GenFeature {
    /// `x_i * x_j`.
    Product(usize, usize),
    /// `x_i / (x_j + eps)`.
    Ratio(usize, usize),
}

impl GenFeature {
    /// Evaluates the feature on one row. Ratios are clamped to ±1e3 so a
    /// near-zero denominator cannot produce outliers that destabilise
    /// downstream learners.
    pub(crate) fn eval(&self, row: &[f32]) -> f32 {
        match *self {
            GenFeature::Product(i, j) => row[i] * row[j],
            GenFeature::Ratio(i, j) => {
                (row[i] / (row[j].abs() + 1e-6) * row[j].signum_or_one()).clamp(-1e3, 1e3)
            }
        }
    }
}

trait SignumOrOne {
    fn signum_or_one(self) -> f32;
}

impl SignumOrOne for f32 {
    fn signum_or_one(self) -> f32 {
        if self < 0.0 {
            -1.0
        } else {
            1.0
        }
    }
}

/// A fitted Autolearn transform: the chosen features and their scores.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AutoFeat {
    /// Selected generated features, highest-scoring first.
    pub(crate) selected: Vec<GenFeature>,
    /// |corr| score of each selected feature.
    pub(crate) scores: Vec<f32>,
    config: AutoFeatConfig,
    base_dim: usize,
}

impl AutoFeat {
    /// Fits the transform: enumerates candidates, scores them against the
    /// labels, keeps the best `top_k`.
    pub fn fit(x: &Matrix, y: &[usize], config: AutoFeatConfig) -> AutoFeat {
        assert_eq!(x.rows(), y.len(), "feature/label count mismatch");
        let d = x.cols();
        let yf: Vec<f32> = y.iter().map(|&v| v as f32).collect();
        let mut candidates: Vec<(GenFeature, f32)> = Vec::new();
        let mut col = vec![0.0f32; x.rows()];
        let push = |feat: GenFeature,
                    x: &Matrix,
                    col: &mut Vec<f32>,
                    cands: &mut Vec<(GenFeature, f32)>| {
            for (r, c) in col.iter_mut().enumerate() {
                *c = feat.eval(x.row(r));
            }
            if std_dev(col) < config.min_std {
                return;
            }
            let score = pearson(col, &yf).abs();
            if score.is_finite() {
                cands.push((feat, score));
            }
        };
        for i in 0..d {
            for j in 0..d {
                if config.products && i < j {
                    push(GenFeature::Product(i, j), x, &mut col, &mut candidates);
                }
                if config.ratios && i != j {
                    push(GenFeature::Ratio(i, j), x, &mut col, &mut candidates);
                }
            }
        }
        // Highest score first; ties broken by enumeration order (stable).
        candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        candidates.truncate(config.top_k);
        AutoFeat {
            selected: candidates.iter().map(|(f, _)| *f).collect(),
            scores: candidates.iter().map(|(_, s)| *s).collect(),
            config,
            base_dim: d,
        }
    }

    /// Applies the transform: `[x | generated]`.
    pub fn transform(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.base_dim, "dimension mismatch with fit data");
        let gen = Matrix::from_fn(x.rows(), self.selected.len(), |r, c| {
            self.selected[c].eval(x.row(r))
        });
        x.hcat(&gen)
    }

    /// Deterministic work estimate: candidate enumeration dominates.
    pub fn work_units(n_rows: usize, n_cols: usize, config: AutoFeatConfig) -> u64 {
        let pair_count = (n_cols * n_cols) as u64;
        let per_candidate = n_rows as u64;
        let modes = (config.products as u64) + (config.ratios as u64);
        pair_count * per_candidate * modes.max(1)
    }
}

fn std_dev(v: &[f32]) -> f32 {
    if v.is_empty() {
        return 0.0;
    }
    let mean = v.iter().sum::<f32>() / v.len() as f32;
    let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / v.len() as f32;
    var.sqrt()
}

fn pearson(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len() as f32;
    if n == 0.0 {
        return 0.0;
    }
    let ma = a.iter().sum::<f32>() / n;
    let mb = b.iter().sum::<f32>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Label depends on the *product* of features 0 and 1 — invisible to any
    /// single base feature, visible to a generated product feature.
    fn xor_like_data(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Matrix::from_fn(n, 4, |_, _| rng.gen::<f32>() * 2.0 - 1.0);
        let y: Vec<usize> = (0..n)
            .map(|r| {
                if x.get(r, 0) * x.get(r, 1) > 0.0 {
                    1
                } else {
                    0
                }
            })
            .collect();
        (x, y)
    }

    #[test]
    fn finds_interaction_feature() {
        let (x, y) = xor_like_data(400, 1);
        let af = AutoFeat::fit(&x, &y, AutoFeatConfig::default());
        assert!(!af.selected.is_empty());
        assert_eq!(
            af.selected[0],
            GenFeature::Product(0, 1),
            "the informative product should rank first, got {:?}",
            af.selected[0]
        );
        assert!(af.scores[0] > 0.5);
    }

    #[test]
    fn transform_appends_features() {
        let (x, y) = xor_like_data(100, 2);
        let af = AutoFeat::fit(
            &x,
            &y,
            AutoFeatConfig {
                top_k: 5,
                ..Default::default()
            },
        );
        let t = af.transform(&x);
        assert_eq!(t.cols(), 4 + af.selected.len());
        assert!(af.selected.len() <= 5);
        // Base features preserved.
        for r in 0..5 {
            assert_eq!(&t.row(r)[..4], x.row(r));
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn transform_checks_dims() {
        let (x, y) = xor_like_data(50, 3);
        let af = AutoFeat::fit(&x, &y, AutoFeatConfig::default());
        af.transform(&Matrix::zeros(10, 7));
    }

    #[test]
    fn constant_features_are_dropped() {
        // Feature 2 constant → products/ratios with it are near-constant.
        let mut x = Matrix::from_fn(50, 3, |r, c| ((r * 3 + c) % 7) as f32);
        for r in 0..50 {
            x.set(r, 2, 1.0);
        }
        let y: Vec<usize> = (0..50).map(|r| r % 2).collect();
        let af = AutoFeat::fit(&x, &y, AutoFeatConfig::default());
        // Product(2,2) can't exist (i<j) but Ratio(2,2) excluded (i!=j);
        // Product with a constant is a copy → has std dev, allowed; ratios of
        // constant/constant would be dropped. Just assert no NaN scores.
        assert!(af.scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn deterministic() {
        let (x, y) = xor_like_data(150, 5);
        let a = AutoFeat::fit(&x, &y, AutoFeatConfig::default());
        let b = AutoFeat::fit(&x, &y, AutoFeatConfig::default());
        assert_eq!(a.selected, b.selected);
        assert_eq!(a.scores, b.scores);
    }

    #[test]
    fn respects_mode_flags() {
        let (x, y) = xor_like_data(100, 6);
        let only_ratio = AutoFeat::fit(
            &x,
            &y,
            AutoFeatConfig {
                products: false,
                ..Default::default()
            },
        );
        assert!(only_ratio
            .selected
            .iter()
            .all(|f| matches!(f, GenFeature::Ratio(_, _))));
        let only_prod = AutoFeat::fit(
            &x,
            &y,
            AutoFeatConfig {
                ratios: false,
                ..Default::default()
            },
        );
        assert!(only_prod
            .selected
            .iter()
            .all(|f| matches!(f, GenFeature::Product(_, _))));
    }

    #[test]
    fn pearson_known_values() {
        assert!((pearson(&[1., 2., 3.], &[2., 4., 6.]) - 1.0).abs() < 1e-6);
        assert!((pearson(&[1., 2., 3.], &[3., 2., 1.]) + 1.0).abs() < 1e-6);
        assert_eq!(pearson(&[1., 1., 1.], &[1., 2., 3.]), 0.0);
    }

    #[test]
    fn work_units_scale() {
        let c = AutoFeatConfig::default();
        assert!(AutoFeat::work_units(100, 20, c) > AutoFeat::work_units(100, 10, c));
    }
}
