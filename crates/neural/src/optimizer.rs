//! Gradient-descent optimizers: SGD, Adam, Adagrad (the paper's grid;
//! Table 2 selects Adam).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Which optimizer to use, with its learning rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// Plain stochastic gradient descent.
    Sgd {
        /// Learning rate.
        lr: f64,
    },
    /// Adam (Kingma & Ba) with the standard β₁/β₂/ε, in the Keras
    /// formulation (bias correction folded into the step size, ε outside
    /// the correction).
    Adam {
        /// Learning rate.
        lr: f64,
    },
    /// Adagrad with per-parameter accumulated squared gradients.
    Adagrad {
        /// Learning rate.
        lr: f64,
    },
}

impl OptimizerKind {
    /// The grid of the paper with Keras-default learning rates.
    pub fn paper_grid() -> [OptimizerKind; 3] {
        [
            OptimizerKind::Sgd { lr: 0.01 },
            OptimizerKind::Adam { lr: 0.001 },
            OptimizerKind::Adagrad { lr: 0.01 },
        ]
    }

    /// Instantiates per-parameter optimizer state for `n` parameters.
    pub fn state(self, n: usize) -> OptimizerState {
        match self {
            OptimizerKind::Sgd { lr } => OptimizerState::Sgd { lr },
            OptimizerKind::Adam { lr } => OptimizerState::Adam {
                lr,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                m: vec![0.0; n],
                v: vec![0.0; n],
                t: 0,
            },
            OptimizerKind::Adagrad { lr } => OptimizerState::Adagrad {
                lr,
                eps: 1e-8,
                acc: vec![0.0; n],
            },
        }
    }
}

impl fmt::Display for OptimizerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizerKind::Sgd { .. } => f.write_str("SGD"),
            OptimizerKind::Adam { .. } => f.write_str("Adam"),
            OptimizerKind::Adagrad { .. } => f.write_str("Adagrad"),
        }
    }
}

/// Mutable per-parameter optimizer state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OptimizerState {
    /// SGD needs no state.
    Sgd {
        /// Learning rate.
        lr: f64,
    },
    /// Adam moment estimates.
    Adam {
        /// Learning rate.
        lr: f64,
        /// First-moment decay.
        beta1: f64,
        /// Second-moment decay.
        beta2: f64,
        /// Numerical guard.
        eps: f64,
        /// First moments.
        m: Vec<f64>,
        /// Second moments.
        v: Vec<f64>,
        /// Step counter.
        t: u64,
    },
    /// Adagrad accumulated squared gradients.
    Adagrad {
        /// Learning rate.
        lr: f64,
        /// Numerical guard.
        eps: f64,
        /// Accumulated squared gradients.
        acc: Vec<f64>,
    },
}

impl OptimizerState {
    /// Applies one update step with an L2 penalty folded in:
    /// `params -= step(grads + 2·l2·params)`.
    ///
    /// The penalty `l2·‖params‖²` follows the Keras convention and adds
    /// `2·l2·param` to each gradient. It is computed per parameter, before
    /// that parameter is updated, exactly as `grads.add_scaled(params,
    /// 2.0 * l2)` followed by the plain step would compute it, so folding
    /// it in changes no bit but walks the parameters once instead of
    /// twice. `l2 <= 0` disables the penalty (the gradient is used as is).
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` lengths differ from the state size.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64], l2: f64) {
        if l2 > 0.0 {
            let scale = 2.0 * l2;
            self.update(params, grads, |g, p| g + p * scale);
        } else {
            self.update(params, grads, |g, _| g);
        }
    }

    /// The per-parameter update loop of [`OptimizerState::step`], with
    /// `grad(g, p)` giving the effective gradient of a parameter `p` whose
    /// loss gradient is `g`.
    #[inline]
    fn update(&mut self, params: &mut [f64], grads: &[f64], grad: impl Fn(f64, f64) -> f64) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        match self {
            OptimizerState::Sgd { lr } => {
                for (p, &g) in params.iter_mut().zip(grads) {
                    let g = grad(g, *p);
                    *p -= *lr * g;
                }
            }
            OptimizerState::Adam {
                lr,
                beta1,
                beta2,
                eps,
                m,
                v,
                t,
            } => {
                assert_eq!(params.len(), m.len(), "state sized for another layer");
                *t += 1;
                // Keras folds the bias correction into the step size:
                // `α_t = lr·√(1−β₂ᵗ)/(1−β₁ᵗ)` once per step, then
                // `p -= α_t·m/(√v + ε)` per parameter — one sqrt and one
                // division per parameter instead of three divisions, which
                // matters because the (vectorized) update is div/sqrt
                // throughput-bound.
                let b1t = 1.0 - beta1.powi(*t as i32);
                let b2t = 1.0 - beta2.powi(*t as i32);
                let alpha = *lr * b2t.sqrt() / b1t;
                for (((p, &g), m_i), v_i) in
                    params.iter_mut().zip(grads).zip(m.iter_mut()).zip(v.iter_mut())
                {
                    let g = grad(g, *p);
                    *m_i = *beta1 * *m_i + (1.0 - *beta1) * g;
                    *v_i = *beta2 * *v_i + (1.0 - *beta2) * g * g;
                    *p -= alpha * *m_i / (v_i.sqrt() + *eps);
                }
            }
            OptimizerState::Adagrad { lr, eps, acc } => {
                assert_eq!(params.len(), acc.len(), "state sized for another layer");
                for ((p, &g), acc_i) in params.iter_mut().zip(grads).zip(acc.iter_mut()) {
                    let g = grad(g, *p);
                    *acc_i += g * g;
                    *p -= *lr * g / (acc_i.sqrt() + *eps);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All three optimizers should descend a simple quadratic f(x) = x².
    #[test]
    fn all_optimizers_descend_quadratic() {
        for kind in OptimizerKind::paper_grid() {
            let mut state = kind.state(1);
            // Adam moves ~lr per step regardless of gradient size, so give
            // every optimizer enough steps to cover the distance from 5.0.
            // Adam moves ~lr per step and Adagrad's steps shrink like 1/√k,
            // so covering the distance from 5.0 needs ~100k steps at the
            // Keras-default learning rates.
            let mut x = [5.0];
            for _ in 0..100_000 {
                let grad = [2.0 * x[0]];
                state.step(&mut x, &grad, 0.0);
            }
            // Adagrad's 1/√k step decay makes it the slowest to converge;
            // reaching the basin from 5.0 is what matters here.
            assert!(x[0].abs() < 1.0, "{kind} ended at {}", x[0]);
        }
    }

    #[test]
    fn sgd_step_is_lr_times_grad() {
        let mut state = OptimizerKind::Sgd { lr: 0.1 }.state(2);
        let mut p = [1.0, 2.0];
        state.step(&mut p, &[1.0, -1.0], 0.0);
        assert!((p[0] - 0.9).abs() < 1e-12);
        assert!((p[1] - 2.1).abs() < 1e-12);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the first Adam step ≈ lr regardless of
        // gradient magnitude.
        let mut state = OptimizerKind::Adam { lr: 0.001 }.state(1);
        let mut p = [0.0];
        state.step(&mut p, &[1000.0], 0.0);
        assert!((p[0] + 0.001).abs() < 1e-6, "step={}", p[0]);
    }

    #[test]
    fn adagrad_steps_shrink() {
        let mut state = OptimizerKind::Adagrad { lr: 0.5 }.state(1);
        let mut p = [0.0];
        state.step(&mut p, &[1.0], 0.0);
        let first = p[0].abs();
        let before = p[0];
        state.step(&mut p, &[1.0], 0.0);
        let second = (p[0] - before).abs();
        assert!(second < first, "first={first} second={second}");
    }

    #[test]
    fn display_names() {
        assert_eq!(OptimizerKind::Adam { lr: 0.001 }.to_string(), "Adam");
        assert_eq!(OptimizerKind::Sgd { lr: 0.01 }.to_string(), "SGD");
        assert_eq!(OptimizerKind::Adagrad { lr: 0.01 }.to_string(), "Adagrad");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut state = OptimizerKind::Sgd { lr: 0.1 }.state(1);
        let mut p = [0.0];
        state.step(&mut p, &[1.0, 2.0], 0.0);
    }
}
