//! The MLP: a stack of fully connected layers with ReLU activations and a
//! linear output, trained by explicit backpropagation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::arena::ScratchArena;
use crate::matrix::{lane_dot, Matrix};

/// One fully connected layer with its parameter gradients.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    /// Weights, `in × out`.
    pub w: Matrix,
    /// Bias, length `out`.
    pub b: Vec<f64>,
    /// Gradient of `w` from the last backward pass.
    pub grad_w: Matrix,
    /// Gradient of `b` from the last backward pass.
    pub grad_b: Vec<f64>,
    input_cache: Option<Matrix>,
}

impl Linear {
    /// Xavier-uniform initialized layer.
    pub fn new(inputs: usize, outputs: usize, rng: &mut StdRng) -> Self {
        let limit = (6.0 / (inputs + outputs) as f64).sqrt();
        Linear {
            w: Matrix::from_fn(inputs, outputs, |_, _| rng.gen_range(-limit..limit)),
            b: vec![0.0; outputs],
            grad_w: Matrix::zeros(inputs, outputs),
            grad_b: vec![0.0; outputs],
            input_cache: None,
        }
    }

    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        if train {
            self.input_cache = Some(x.clone());
        }
        let mut y = x.matmul(&self.w);
        y.add_row(&self.b);
        y
    }

    /// Backward pass: accumulates parameter gradients and returns the
    /// gradient w.r.t. the layer input.
    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self
            .input_cache
            .take()
            .expect("backward called without a preceding training forward");
        self.grad_w = x.transpose().matmul(grad_out);
        self.grad_b = grad_out.col_sums();
        grad_out.matmul(&self.w.transpose())
    }
}

/// A multilayer perceptron regressor: `num_layers` hidden ReLU layers of
/// uniform width plus a scalar linear output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    /// ReLU masks cached during training forward passes.
    #[serde(skip)]
    relu_masks: Vec<Matrix>,
}

impl Mlp {
    /// Creates an MLP with `hidden_layers` hidden layers of width `width`,
    /// `inputs` input features, and a single output.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn new(inputs: usize, hidden_layers: usize, width: usize, seed: u64) -> Self {
        assert!(inputs > 0 && hidden_layers > 0 && width > 0, "MLP dims must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(hidden_layers + 1);
        let mut prev = inputs;
        for _ in 0..hidden_layers {
            layers.push(Linear::new(prev, width, &mut rng));
            prev = width;
        }
        layers.push(Linear::new(prev, 1, &mut rng));
        Mlp { layers, relu_masks: Vec::new() }
    }

    /// Number of input features.
    pub fn inputs(&self) -> usize {
        self.layers[0].w.rows()
    }

    /// The layers (for optimizers).
    pub fn layers_mut(&mut self) -> &mut [Linear] {
        &mut self.layers
    }

    /// Forward pass. With `train = true`, caches activations for
    /// [`Mlp::backward`].
    pub fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        assert_eq!(x.cols(), self.inputs(), "feature count mismatch");
        if train {
            self.relu_masks.clear();
        }
        let mut h = x.clone();
        let n = self.layers.len();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            h = layer.forward(&h, train);
            if i + 1 < n {
                // ReLU on hidden layers only.
                let mut mask = h.clone();
                mask.map_inplace(|v| if v > 0.0 { 1.0 } else { 0.0 });
                h.map_inplace(|v| v.max(0.0));
                if train {
                    self.relu_masks.push(mask);
                }
            }
        }
        h
    }

    /// Backpropagates `grad_out` (dL/d prediction) through the network,
    /// filling each layer's parameter gradients.
    ///
    /// # Panics
    /// Panics if no training forward pass preceded this call.
    pub fn backward(&mut self, grad_out: &Matrix) {
        let mut grad = grad_out.clone();
        let n = self.layers.len();
        for (rev, layer) in self.layers.iter_mut().rev().enumerate() {
            let i = n - 1 - rev;
            grad = layer.backward(&grad);
            if i > 0 {
                let mask = &self.relu_masks[i - 1];
                grad.hadamard_inplace(mask);
            }
        }
    }

    /// Inference forward pass: no caching, immutable receiver.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.inputs(), "feature count mismatch");
        let mut h = x.clone();
        let n = self.layers.len();
        for (i, layer) in self.layers.iter().enumerate() {
            let mut y = h.matmul(&layer.w);
            y.add_row(&layer.b);
            if i + 1 < n {
                y.map_inplace(|v| v.max(0.0));
            }
            h = y;
        }
        h
    }

    /// Predicts one sample.
    pub fn predict_one(&self, features: &[f64]) -> f64 {
        let x = Matrix::from_rows(&[features.to_vec()]).expect("non-empty feature row");
        self.infer(&x).at(0, 0)
    }

    /// Predicts a batch, returning one value per row of `x`.
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        let y = self.infer(x);
        (0..y.rows()).map(|r| y.at(r, 0)).collect()
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.rows() * l.w.cols() + l.b.len())
            .sum()
    }

    /// Freezes the weights into an [`InferencePlan`] for batched inference.
    pub fn plan(&self) -> InferencePlan {
        InferencePlan {
            layers: self
                .layers
                .iter()
                .map(|l| PlanLayer::pack(&l.w, &l.b))
                .collect(),
        }
    }
}

/// One packed inference layer: weights transposed to output-major
/// (`wt[j * inputs + k] == w[k][j]`) so each output neuron's dot product
/// reads a contiguous stripe, plus its bias.
#[derive(Debug, Clone)]
struct PlanLayer {
    wt: Vec<f64>,
    bias: Vec<f64>,
    inputs: usize,
    outputs: usize,
}

impl PlanLayer {
    fn pack(w: &Matrix, b: &[f64]) -> PlanLayer {
        let (inputs, outputs) = (w.rows(), w.cols());
        let mut wt = Vec::with_capacity(inputs * outputs);
        for j in 0..outputs {
            for k in 0..inputs {
                wt.push(w.at(k, j));
            }
        }
        PlanLayer { wt, bias: b.to_vec(), inputs, outputs }
    }
}

/// Frozen inference-only weights for batched prediction: an N-row batch is
/// one forward pass per layer instead of N scalar forwards, amortising loop
/// overhead across the batch and — through a [`ScratchArena`] — reusing the
/// forward ping/pong buffers so steady-state batches allocate nothing.
///
/// Weights are packed *transposed* (output-major) at plan build time, so
/// every output element is one contiguous [`lane_dot`]. That is bitwise
/// identical to [`Mlp::infer`]'s `matmul` path because the lane-reduction
/// contract (DESIGN.md §9.3) defines the accumulation order per output
/// element, independent of operand layout: `matmul` materializes the same
/// transposed stripes internally and feeds them to the same `lane_dot`.
/// Same dot, same bias add, same ReLU, in the same order.
#[derive(Debug, Clone)]
pub struct InferencePlan {
    layers: Vec<PlanLayer>,
}

impl InferencePlan {
    /// Number of input features.
    pub fn inputs(&self) -> usize {
        self.layers[0].inputs
    }

    /// The forward pass shared by every entry point: consumes a row-major
    /// `rows × inputs` activation buffer, returns the final `rows ×
    /// last_outputs` activations. All intermediates come from (and return
    /// to) `arena`.
    fn forward_flat(&self, x: Vec<f64>, rows: usize, arena: &mut ScratchArena) -> Vec<f64> {
        assert_eq!(x.len(), rows * self.inputs(), "feature count mismatch");
        let n = self.layers.len();
        let mut cur = x;
        for (i, layer) in self.layers.iter().enumerate() {
            let mut next = arena.take();
            next.reserve(rows * layer.outputs);
            for r in 0..rows {
                let xrow = &cur[r * layer.inputs..(r + 1) * layer.inputs];
                for j in 0..layer.outputs {
                    let wrow = &layer.wt[j * layer.inputs..(j + 1) * layer.inputs];
                    let mut v = lane_dot(xrow, wrow) + layer.bias[j];
                    if i + 1 < n {
                        v = v.max(0.0);
                    }
                    next.push(v);
                }
            }
            arena.give(cur);
            cur = next;
        }
        cur
    }

    /// Batched prediction into a caller buffer, allocation-free in steady
    /// state: consumes a row-major preprocessed feature buffer (returned to
    /// `arena` when done) and appends one prediction per row to `out`.
    ///
    /// # Panics
    /// Panics if `feats.len() != rows * inputs`.
    pub fn predict_flat_into(
        &self,
        feats: Vec<f64>,
        rows: usize,
        arena: &mut ScratchArena,
        out: &mut Vec<f64>,
    ) {
        let y = self.forward_flat(feats, rows, arena);
        let w = self.layers.last().expect("plan has layers").outputs;
        for r in 0..rows {
            out.push(y[r * w]);
        }
        arena.give(y);
    }

    /// Batched prediction: one value per row of `x`.
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        let rows = x.rows();
        let mut out = Vec::with_capacity(rows);
        self.predict_flat_into(x.clone().into_vec(), rows, &mut ScratchArena::new(), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_flow_through() {
        let mut mlp = Mlp::new(4, 3, 16, 1);
        let x = Matrix::zeros(10, 4);
        let y = mlp.forward(&x, false);
        assert_eq!((y.rows(), y.cols()), (10, 1));
    }

    #[test]
    fn param_count_formula() {
        let mlp = Mlp::new(4, 2, 8, 1);
        // 4*8+8 + 8*8+8 + 8*1+1 = 40 + 72 + 9 = 121.
        assert_eq!(mlp.param_count(), 121);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut mlp = Mlp::new(2, 2, 5, 7);
        let x = Matrix::from_rows(&[vec![0.3, -0.7], vec![1.1, 0.4]]).unwrap();
        // Loss = sum of outputs; dL/dy = 1.
        let y = mlp.forward(&x, true);
        let grad = Matrix::from_fn(y.rows(), 1, |_, _| 1.0);
        mlp.backward(&grad);
        let analytic = mlp.layers[0].grad_w.at(0, 0);

        let eps = 1e-6;
        let mut plus = mlp.clone();
        *plus.layers_mut()[0].w.at_mut(0, 0) += eps;
        let mut minus = mlp.clone();
        *minus.layers_mut()[0].w.at_mut(0, 0) -= eps;
        let f = |m: &mut Mlp| m.forward(&x, false).as_slice().iter().sum::<f64>();
        let numeric = (f(&mut plus) - f(&mut minus)) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 1e-5,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn wrong_feature_count_panics() {
        let mut mlp = Mlp::new(3, 1, 4, 0);
        let x = Matrix::zeros(1, 2);
        mlp.forward(&x, false);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Mlp::new(3, 2, 8, 99);
        let mut b = Mlp::new(3, 2, 8, 99);
        let x = Matrix::from_rows(&[vec![0.1, 0.2, 0.3]]).unwrap();
        assert_eq!(a.forward(&x, false), b.forward(&x, false));
    }

    // The sweep engine shares one calibrated registry (and hence the
    // Mlp-backed kernel models inside it) across worker threads through
    // `&` references: the inference path must be `Sync` and remain so.
    #[test]
    fn inference_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Mlp>();
        assert_send_sync::<Matrix>();
        assert_send_sync::<crate::train::TrainedModel>();
    }

    // ...and pure: concurrent `infer` through a shared reference must be
    // bitwise identical to sequential calls (no interior mutability, no
    // global state). This is the property the memo cache's determinism
    // contract stands on.
    // Batched inference through a packed plan must agree bit-for-bit with
    // the scalar path — this is what lets the kernel registry batch
    // memo-cache misses without perturbing any prediction.
    #[test]
    fn planned_batch_matches_scalar_inference_bitwise() {
        let mlp = Mlp::new(5, 3, 32, 41);
        let rows: Vec<Vec<f64>> = (0..17)
            .map(|i| {
                (0..5)
                    .map(|j| (i as f64 + 1.0) * 2f64.powi(j - 2) + 0.37 * j as f64)
                    .collect()
            })
            .collect();
        let plan = mlp.plan();
        let x = Matrix::from_rows(&rows).unwrap();
        let batch = plan.predict(&x);
        for (row, got) in rows.iter().zip(&batch) {
            assert_eq!(
                got.to_bits(),
                mlp.predict_one(row).to_bits(),
                "planned batch diverged from scalar inference"
            );
        }
    }

    #[test]
    fn shared_concurrent_inference_is_bitwise_pure() {
        let mlp = Mlp::new(4, 1, 16, 7);
        let xs: Vec<Matrix> = (0..8)
            .map(|i| {
                Matrix::from_rows(&[vec![i as f64, 0.5, -1.25, 2.0_f64.powi(i)]]).unwrap()
            })
            .collect();
        let sequential: Vec<u64> =
            xs.iter().map(|x| mlp.infer(x).at(0, 0).to_bits()).collect();
        let concurrent: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = xs
                .iter()
                .map(|x| {
                    let mlp = &mlp;
                    s.spawn(move || mlp.infer(x).at(0, 0).to_bits())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(sequential, concurrent);
    }
}
