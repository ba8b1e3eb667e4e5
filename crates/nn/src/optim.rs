//! Optimizers: plain SGD and Adam, the two choices in the paper's Table II
//! search space.

use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;
use crate::net::Linear;

/// Which optimizer to use (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// Stochastic gradient descent. The paper scales the learning rate ×10
    /// when SGD is selected; [`mod@crate::train`] applies that scaling.
    Sgd,
    /// Adam with the standard (0.9, 0.999) betas.
    Adam,
}

impl std::fmt::Display for OptimizerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizerKind::Sgd => f.write_str("SGD"),
            OptimizerKind::Adam => f.write_str("Adam"),
        }
    }
}

/// Per-layer first/second moment state for Adam.
#[derive(Debug, Clone)]
struct Moments {
    m_w: Matrix,
    v_w: Matrix,
    m_b: Vec<f64>,
    v_b: Vec<f64>,
}

/// An optimizer instance bound to a fixed network architecture.
#[derive(Debug, Clone)]
pub struct Optimizer {
    kind: OptimizerKind,
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    moments: Vec<Moments>,
}

impl Optimizer {
    /// Creates an optimizer of the given kind and learning rate.
    ///
    /// # Panics
    /// Panics if `lr` is not positive and finite.
    pub fn new(kind: OptimizerKind, lr: f64) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        Optimizer {
            kind,
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            moments: Vec::new(),
        }
    }

    /// Applies one update step: `grads` holds each layer's parameter
    /// gradients, as [`crate::net::Mlp::backward`] returns them.
    pub fn step(&mut self, layers: &mut [Linear], grads: &[Linear]) {
        match self.kind {
            OptimizerKind::Sgd => {
                for (layer, grad) in layers.iter_mut().zip(grads) {
                    layer.w.axpy(-self.lr, &grad.w);
                    for (b, g) in layer.b.iter_mut().zip(&grad.b) {
                        *b -= self.lr * g;
                    }
                }
            }
            OptimizerKind::Adam => {
                if self.moments.len() != layers.len() {
                    self.moments = layers
                        .iter()
                        .map(|l| Moments {
                            m_w: Matrix::zeros(l.w.rows(), l.w.cols()),
                            v_w: Matrix::zeros(l.w.rows(), l.w.cols()),
                            m_b: vec![0.0; l.b.len()],
                            v_b: vec![0.0; l.b.len()],
                        })
                        .collect();
                }
                self.t += 1;
                let (b1, b2) = (self.beta1, self.beta2);
                let bc1 = 1.0 - b1.powi(self.t as i32);
                let bc2 = 1.0 - b2.powi(self.t as i32);
                for ((layer, grad), mom) in layers.iter_mut().zip(grads).zip(&mut self.moments) {
                    for (i, g) in grad.w.as_slice().iter().enumerate() {
                        let m = &mut mom.m_w.as_mut_slice()[i];
                        *m = b1 * *m + (1.0 - b1) * g;
                        let v = &mut mom.v_w.as_mut_slice()[i];
                        *v = b2 * *v + (1.0 - b2) * g * g;
                        let m_hat = *m / bc1;
                        let v_hat = *v / bc2;
                        layer.w.as_mut_slice()[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
                    }
                    for (i, g) in grad.b.iter().enumerate() {
                        let m = &mut mom.m_b[i];
                        *m = b1 * *m + (1.0 - b1) * g;
                        let v = &mut mom.v_b[i];
                        *v = b2 * *v + (1.0 - b2) * g * g;
                        let m_hat = *m / bc1;
                        let v_hat = *v / bc2;
                        layer.b[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::net::Mlp;

    fn loss_after_steps(kind: OptimizerKind, lr: f64, steps: usize) -> f64 {
        let mut mlp = Mlp::new(1, 1, 8, 3);
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let target = [2.0, 4.0, 6.0];
        let mut opt = Optimizer::new(kind, lr);
        let mut last = f64::INFINITY;
        for _ in 0..steps {
            let (y, tape) = mlp.forward_train(x.clone());
            let n = y.rows() as f64;
            last = (0..y.rows())
                .map(|r| (y.at(r, 0) - target[r]).powi(2))
                .sum::<f64>()
                / n;
            let grad = Matrix::from_fn(y.rows(), 1, |r, _| 2.0 * (y.at(r, 0) - target[r]) / n);
            let grads = mlp.backward(tape, grad);
            opt.step(mlp.layers_mut(), &grads);
        }
        last
    }

    #[test]
    fn sgd_reduces_loss() {
        let l = loss_after_steps(OptimizerKind::Sgd, 0.01, 200);
        assert!(l < 0.1, "SGD did not converge: loss {l}");
    }

    #[test]
    fn adam_reduces_loss() {
        let l = loss_after_steps(OptimizerKind::Adam, 0.02, 800);
        assert!(l < 0.1, "Adam did not converge: loss {l}");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn bad_lr_panics() {
        Optimizer::new(OptimizerKind::Sgd, 0.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(OptimizerKind::Sgd.to_string(), "SGD");
        assert_eq!(OptimizerKind::Adam.to_string(), "Adam");
    }
}
