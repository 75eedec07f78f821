//! Discrete-emission hidden Markov model with forward–backward inference and
//! Baum–Welch training.
//!
//! The DPM pipeline's third stage runs "HMM processing" over extracted
//! medical features to de-bias them before the DL model (§VII-A); the paper
//! singles this stage out as the expensive pre-processing step whose reuse
//! drives the DPM speedups in Figs. 5–6. This is a full implementation, not
//! a stub, so its cost and outputs behave like the real stage.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A discrete HMM: `n_states` hidden states over `n_symbols` observables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hmm {
    /// Initial state distribution, length `n_states`.
    pub(crate) initial: Vec<f64>,
    /// Row-stochastic transition matrix, `n_states × n_states` (row-major).
    pub(crate) transition: Vec<f64>,
    /// Row-stochastic emission matrix, `n_states × n_symbols` (row-major).
    pub(crate) emission: Vec<f64>,
    /// Number of hidden states.
    pub(crate) n_states: usize,
    /// Number of observable symbols.
    pub(crate) n_symbols: usize,
}

fn normalise(v: &mut [f64]) {
    let s: f64 = v.iter().sum();
    if s > 0.0 {
        for x in v.iter_mut() {
            *x /= s;
        }
    } else if !v.is_empty() {
        let u = 1.0 / v.len() as f64;
        for x in v.iter_mut() {
            *x = u;
        }
    }
}

impl Hmm {
    /// Random row-stochastic initialisation.
    pub fn random(n_states: usize, n_symbols: usize, seed: u64) -> Hmm {
        assert!(n_states > 0 && n_symbols > 0, "dimensions must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut initial: Vec<f64> = (0..n_states).map(|_| rng.gen::<f64>() + 0.1).collect();
        normalise(&mut initial);
        let mut transition = vec![0.0; n_states * n_states];
        for r in 0..n_states {
            let row = &mut transition[r * n_states..(r + 1) * n_states];
            for x in row.iter_mut() {
                *x = rng.gen::<f64>() + 0.1;
            }
            normalise(row);
        }
        let mut emission = vec![0.0; n_states * n_symbols];
        for r in 0..n_states {
            let row = &mut emission[r * n_symbols..(r + 1) * n_symbols];
            for x in row.iter_mut() {
                *x = rng.gen::<f64>() + 0.1;
            }
            normalise(row);
        }
        Hmm {
            initial,
            transition,
            emission,
            n_states,
            n_symbols,
        }
    }

    #[inline]
    fn a(&self, i: usize, j: usize) -> f64 {
        self.transition[i * self.n_states + j]
    }

    #[inline]
    fn b(&self, state: usize, sym: usize) -> f64 {
        self.emission[state * self.n_symbols + sym]
    }

    /// Scaled forward pass. Returns (alpha matrix `T × n_states`, per-step
    /// scaling factors, log-likelihood).
    pub(crate) fn forward(&self, obs: &[usize]) -> (Vec<f64>, Vec<f64>, f64) {
        let t_len = obs.len();
        let ns = self.n_states;
        let mut alpha = vec![0.0; t_len * ns];
        let mut scale = vec![0.0; t_len];
        for s in 0..ns {
            alpha[s] = self.initial[s] * self.b(s, obs[0]);
        }
        scale[0] = alpha[..ns].iter().sum::<f64>().max(1e-300);
        for s in 0..ns {
            alpha[s] /= scale[0];
        }
        for t in 1..t_len {
            for j in 0..ns {
                let mut acc = 0.0;
                for i in 0..ns {
                    acc += alpha[(t - 1) * ns + i] * self.a(i, j);
                }
                alpha[t * ns + j] = acc * self.b(j, obs[t]);
            }
            scale[t] = alpha[t * ns..(t + 1) * ns].iter().sum::<f64>().max(1e-300);
            for j in 0..ns {
                alpha[t * ns + j] /= scale[t];
            }
        }
        let ll = scale.iter().map(|s| s.ln()).sum();
        (alpha, scale, ll)
    }

    /// Scaled backward pass using the forward pass's scaling factors.
    pub(crate) fn backward(&self, obs: &[usize], scale: &[f64]) -> Vec<f64> {
        let t_len = obs.len();
        let ns = self.n_states;
        let mut beta = vec![0.0; t_len * ns];
        for s in 0..ns {
            beta[(t_len - 1) * ns + s] = 1.0 / scale[t_len - 1];
        }
        for t in (0..t_len - 1).rev() {
            for i in 0..ns {
                let mut acc = 0.0;
                for j in 0..ns {
                    acc += self.a(i, j) * self.b(j, obs[t + 1]) * beta[(t + 1) * ns + j];
                }
                beta[t * ns + i] = acc / scale[t];
            }
        }
        beta
    }

    /// Log-likelihood of an observation sequence.
    pub fn log_likelihood(&self, obs: &[usize]) -> f64 {
        if obs.is_empty() {
            return 0.0;
        }
        self.forward(obs).2
    }

    /// Posterior state probabilities `gamma[t][s]` for one sequence.
    pub fn posteriors(&self, obs: &[usize]) -> Vec<Vec<f64>> {
        if obs.is_empty() {
            return Vec::new();
        }
        let ns = self.n_states;
        let (alpha, scale, _) = self.forward(obs);
        let beta = self.backward(obs, &scale);
        (0..obs.len())
            .map(|t| {
                let mut g: Vec<f64> = (0..ns)
                    .map(|s| alpha[t * ns + s] * beta[t * ns + s] * scale[t])
                    .collect();
                normalise(&mut g);
                g
            })
            .collect()
    }

    /// Baum–Welch EM over a set of sequences. Returns the log-likelihood
    /// trajectory (one entry per iteration, computed before the update).
    pub fn fit(&mut self, sequences: &[Vec<usize>], iterations: usize) -> Vec<f64> {
        let ns = self.n_states;
        let nsym = self.n_symbols;
        let mut ll_history = Vec::with_capacity(iterations);
        for _ in 0..iterations {
            let mut init_acc = vec![0.0; ns];
            let mut trans_num = vec![0.0; ns * ns];
            let mut trans_den = vec![0.0; ns];
            let mut emit_num = vec![0.0; ns * nsym];
            let mut emit_den = vec![0.0; ns];
            let mut total_ll = 0.0;
            for obs in sequences.iter().filter(|o| !o.is_empty()) {
                let t_len = obs.len();
                let (alpha, scale, ll) = self.forward(obs);
                total_ll += ll;
                let beta = self.backward(obs, &scale);
                // Gammas.
                for t in 0..t_len {
                    let mut g: Vec<f64> = (0..ns)
                        .map(|s| alpha[t * ns + s] * beta[t * ns + s] * scale[t])
                        .collect();
                    normalise(&mut g);
                    for s in 0..ns {
                        if t == 0 {
                            init_acc[s] += g[s];
                        }
                        emit_num[s * nsym + obs[t]] += g[s];
                        emit_den[s] += g[s];
                        if t + 1 < t_len {
                            trans_den[s] += g[s];
                        }
                    }
                }
                // Xis.
                for t in 0..t_len - 1 {
                    let mut norm = 0.0;
                    let mut xi = vec![0.0; ns * ns];
                    for i in 0..ns {
                        for j in 0..ns {
                            let v = alpha[t * ns + i]
                                * self.a(i, j)
                                * self.b(j, obs[t + 1])
                                * beta[(t + 1) * ns + j];
                            xi[i * ns + j] = v;
                            norm += v;
                        }
                    }
                    if norm > 0.0 {
                        for (k, v) in xi.iter().enumerate() {
                            trans_num[k] += v / norm;
                        }
                    }
                }
            }
            ll_history.push(total_ll);
            // M-step.
            normalise(&mut init_acc);
            self.initial = init_acc;
            for i in 0..ns {
                for j in 0..ns {
                    self.transition[i * ns + j] = if trans_den[i] > 0.0 {
                        trans_num[i * ns + j] / trans_den[i]
                    } else {
                        1.0 / ns as f64
                    };
                }
                let row = &mut self.transition[i * ns..(i + 1) * ns];
                normalise(row);
            }
            for s in 0..ns {
                for k in 0..nsym {
                    self.emission[s * nsym + k] = if emit_den[s] > 0.0 {
                        emit_num[s * nsym + k] / emit_den[s]
                    } else {
                        1.0 / nsym as f64
                    };
                }
                let row = &mut self.emission[s * nsym..(s + 1) * nsym];
                normalise(row);
            }
        }
        ll_history
    }

    /// Samples an observation sequence (for test data generation).
    #[cfg(test)]
    fn sample(&self, len: usize, rng: &mut StdRng) -> Vec<usize> {
        let mut out = Vec::with_capacity(len);
        let mut state = sample_categorical(&self.initial, rng);
        for _ in 0..len {
            let sym = sample_categorical(
                &self.emission[state * self.n_symbols..(state + 1) * self.n_symbols],
                rng,
            );
            out.push(sym);
            state = sample_categorical(
                &self.transition[state * self.n_states..(state + 1) * self.n_states],
                rng,
            );
        }
        out
    }

    /// Deterministic work estimate for one EM pass over `total_obs`
    /// observations (used by the pipeline cost model).
    pub fn work_units(&self, total_obs: usize, iterations: usize) -> u64 {
        (self.n_states as u64)
            * (self.n_states as u64)
            * (total_obs as u64)
            * (iterations as u64)
            * 4
    }
}

#[cfg(test)]
fn sample_categorical(probs: &[f64], rng: &mut StdRng) -> usize {
    let r: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, p) in probs.iter().enumerate() {
        acc += p;
        if r < acc {
            return i;
        }
    }
    probs.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_stochastic(m: &[f64], rows: usize, cols: usize) {
        for r in 0..rows {
            let s: f64 = m[r * cols..(r + 1) * cols].iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {r} sums to {s}");
            assert!(m[r * cols..(r + 1) * cols].iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn random_init_is_stochastic() {
        let h = Hmm::random(3, 5, 42);
        assert!((h.initial.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        rows_stochastic(&h.transition, 3, 3);
        rows_stochastic(&h.emission, 3, 5);
    }

    #[test]
    fn forward_likelihood_matches_bruteforce() {
        // Tiny model where we can enumerate all state paths.
        let h = Hmm {
            initial: vec![0.6, 0.4],
            transition: vec![0.7, 0.3, 0.4, 0.6],
            emission: vec![0.5, 0.5, 0.1, 0.9],
            n_states: 2,
            n_symbols: 2,
        };
        let obs = vec![0, 1, 0];
        // Brute force over 2^3 state paths.
        let mut p = 0.0;
        for s0 in 0..2 {
            for s1 in 0..2 {
                for s2 in 0..2 {
                    p += h.initial[s0]
                        * h.b(s0, obs[0])
                        * h.a(s0, s1)
                        * h.b(s1, obs[1])
                        * h.a(s1, s2)
                        * h.b(s2, obs[2]);
                }
            }
        }
        let ll = h.log_likelihood(&obs);
        assert!((ll - p.ln()).abs() < 1e-9, "{} vs {}", ll, p.ln());
    }

    #[test]
    fn posteriors_are_distributions() {
        let h = Hmm::random(3, 4, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let obs = h.sample(20, &mut rng);
        let gamma = h.posteriors(&obs);
        assert_eq!(gamma.len(), 20);
        for g in gamma {
            assert!((g.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn baum_welch_increases_likelihood() {
        let truth = Hmm {
            initial: vec![0.9, 0.1],
            transition: vec![0.8, 0.2, 0.3, 0.7],
            emission: vec![0.9, 0.1, 0.2, 0.8],
            n_states: 2,
            n_symbols: 2,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let seqs: Vec<Vec<usize>> = (0..20).map(|_| truth.sample(30, &mut rng)).collect();
        let mut model = Hmm::random(2, 2, 7);
        let ll = model.fit(&seqs, 15);
        assert!(ll.len() == 15);
        assert!(
            ll.last().unwrap() > ll.first().unwrap(),
            "EM did not improve: {:?}",
            (ll.first(), ll.last())
        );
        // Monotone non-decreasing within tolerance (EM guarantee).
        for w in ll.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "LL decreased: {} -> {}", w[0], w[1]);
        }
        rows_stochastic(&model.transition, 2, 2);
        rows_stochastic(&model.emission, 2, 2);
    }

    #[test]
    fn fit_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(4);
        let gen = Hmm::random(2, 3, 5);
        let seqs: Vec<Vec<usize>> = (0..5).map(|_| gen.sample(15, &mut rng)).collect();
        let mut a = Hmm::random(2, 3, 9);
        let mut b = Hmm::random(2, 3, 9);
        assert_eq!(a.fit(&seqs, 5), b.fit(&seqs, 5));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_sequences_are_skipped() {
        let mut h = Hmm::random(2, 2, 6);
        let ll = h.fit(&[vec![], vec![0, 1, 0]], 3);
        assert_eq!(ll.len(), 3);
        assert!(ll.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn empty_observation_loglik_zero() {
        let h = Hmm::random(2, 2, 8);
        assert_eq!(h.log_likelihood(&[]), 0.0);
        assert!(h.posteriors(&[]).is_empty());
    }

    #[test]
    fn work_units_scale() {
        let h = Hmm::random(4, 6, 1);
        assert!(h.work_units(1000, 10) > h.work_units(100, 10));
        assert!(h.work_units(100, 20) > h.work_units(100, 10));
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_states_rejected() {
        Hmm::random(0, 2, 1);
    }
}
