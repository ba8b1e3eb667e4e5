//! The MLP: a stack of fully connected layers with ReLU activations and a
//! linear output, trained by explicit backpropagation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::arena::ScratchArena;
use crate::matrix::{lane_dot, Matrix};

/// One fully connected layer. A layer's parameter gradients have the
/// same shape, so [`Mlp::backward`] returns them as `Linear`s too.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    /// Weights, `in × out`.
    pub w: Matrix,
    /// Bias, length `out`.
    pub b: Vec<f64>,
}

impl Linear {
    /// Xavier-uniform initialized layer.
    pub fn new(inputs: usize, outputs: usize, rng: &mut StdRng) -> Self {
        let limit = (6.0 / (inputs + outputs) as f64).sqrt();
        Linear {
            w: Matrix::from_fn(inputs, outputs, |_, _| rng.gen_range(-limit..limit)),
            b: vec![0.0; outputs],
        }
    }
}

/// What a training forward records for [`Mlp::backward`]: each layer's
/// input. A hidden layer's ReLU mask is where the next layer's input, its
/// ReLU output, is positive. Only [`Mlp::forward_train`] makes a tape, and
/// `backward` consumes it.
#[derive(Debug)]
pub struct Tape {
    inputs: Vec<Matrix>,
}

/// A multilayer perceptron regressor: `num_layers` hidden ReLU layers of
/// uniform width plus a scalar linear output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
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
        Mlp { layers }
    }

    /// Number of input features.
    pub fn inputs(&self) -> usize {
        self.layers[0].w.rows()
    }

    /// The layers (for optimizers).
    pub fn layers_mut(&mut self) -> &mut [Linear] {
        &mut self.layers
    }

    /// Layer `i` on the training row kernel ([`Matrix::matmul_rows`]):
    /// `x × w + b`, then ReLU on hidden layers.
    fn layer(&self, i: usize, x: &Matrix) -> Matrix {
        let l = &self.layers[i];
        let mut y = x.matmul_rows(&l.w);
        y.add_row(&l.b);
        if i + 1 < self.layers.len() {
            y.map_inplace(|v| v.max(0.0));
        }
        y
    }

    /// Forward pass on the training row kernel, bitwise equal to
    /// [`Mlp::infer`] row by row (DESIGN.md §9.3).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.inputs(), "feature count mismatch");
        let mut h = self.layer(0, x);
        for i in 1..self.layers.len() {
            h = self.layer(i, &h);
        }
        h
    }

    /// The same forward pass, keeping each layer's input on the returned
    /// [`Tape`] for [`Mlp::backward`].
    pub fn forward_train(&self, x: Matrix) -> (Matrix, Tape) {
        assert_eq!(x.cols(), self.inputs(), "feature count mismatch");
        let mut inputs = Vec::with_capacity(self.layers.len() + 1);
        inputs.push(x);
        for i in 0..self.layers.len() {
            let y = self.layer(i, &inputs[i]);
            inputs.push(y);
        }
        let y = inputs.pop().expect("an MLP has an output layer");
        (y, Tape { inputs })
    }

    /// Backpropagates `grad` (dL/d prediction) through the network taped
    /// by a training forward, returning each layer's parameter gradients.
    /// The gradient w.r.t. the network input is not needed and not
    /// computed.
    pub fn backward(&self, tape: Tape, mut grad: Matrix) -> Vec<Linear> {
        let mut grads = Vec::with_capacity(self.layers.len());
        for (i, (layer, x)) in self.layers.iter().zip(tape.inputs).enumerate().rev() {
            grads.push(Linear { w: x.transpose().matmul_rows(&grad), b: grad.col_sums() });
            if i > 0 {
                grad = grad.matmul_rows(&layer.w.transpose());
                // The previous layer's ReLU mask, read off its output `x`.
                for (g, &a) in grad.as_mut_slice().iter_mut().zip(x.as_slice()) {
                    *g *= if a > 0.0 { 1.0 } else { 0.0 };
                }
            }
        }
        grads.reverse();
        grads
    }

    /// Inference forward pass on [`Matrix::matmul`].
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
        let mlp = Mlp::new(4, 3, 16, 1);
        let x = Matrix::zeros(10, 4);
        let y = mlp.forward(&x);
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
        let mlp = Mlp::new(2, 2, 5, 7);
        let x = Matrix::from_rows(&[vec![0.3, -0.7], vec![1.1, 0.4]]).unwrap();
        // Loss = sum of outputs; dL/dy = 1.
        let (y, tape) = mlp.forward_train(x.clone());
        let grad = Matrix::from_fn(y.rows(), 1, |_, _| 1.0);
        let analytic = mlp.backward(tape, grad)[0].w.at(0, 0);

        let eps = 1e-6;
        let mut plus = mlp.clone();
        *plus.layers_mut()[0].w.at_mut(0, 0) += eps;
        let mut minus = mlp.clone();
        *minus.layers_mut()[0].w.at_mut(0, 0) -= eps;
        let f = |m: &Mlp| m.forward(&x).as_slice().iter().sum::<f64>();
        let numeric = (f(&plus) - f(&minus)) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 1e-5,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    // Training runs on the row kernel; the same step spelled with
    // `Matrix::matmul` (transposed stripes into `lane_dot`) must leave
    // every weight, bias and gradient with the same bits: the weights end
    // up in persisted bundles, and the gradients drive the next step.
    #[test]
    fn training_step_matches_matmul_step_bitwise() {
        use crate::optim::{Optimizer, OptimizerKind};
        let x = Matrix::from_fn(13, 7, |r, c| {
            if (r * 7 + c) % 5 == 0 { 0.0 } else { (r as f64 - 6.3) * 10f64.powi(c as i32 % 4 - 2) }
        });
        let target: Vec<f64> = (0..13).map(|r| 0.1 * r as f64 - 0.4).collect();
        let mse_grad = |y: &Matrix| Matrix::from_fn(13, 1, |r, _| 2.0 * (y.at(r, 0) - target[r]) / 13.0);

        let mut fast = Mlp::new(7, 3, 22, 5);
        let mut slow = fast.clone();

        let (y, tape) = fast.forward_train(x.clone());
        let fast_grads = fast.backward(tape, mse_grad(&y));
        Optimizer::new(OptimizerKind::Adam, 1e-3).step(fast.layers_mut(), &fast_grads);

        let layers = slow.layers_mut();
        let n = layers.len();
        let (mut acts, mut masks) = (vec![x.clone()], Vec::new());
        for (i, l) in layers.iter().enumerate() {
            let mut h = acts[i].matmul(&l.w);
            h.add_row(&l.b);
            if i + 1 < n {
                let mut mask = h.clone();
                mask.map_inplace(|v| if v > 0.0 { 1.0 } else { 0.0 });
                masks.push(mask);
                h.map_inplace(|v| v.max(0.0));
            }
            acts.push(h);
        }
        let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(acts[n].as_slice()), bits(y.as_slice()), "forward output");
        let mut g = mse_grad(&acts[n]);
        let mut slow_grads = Vec::new();
        for i in (0..n).rev() {
            slow_grads.push(Linear { w: acts[i].transpose().matmul(&g), b: g.col_sums() });
            if i > 0 {
                g = g.matmul(&layers[i].w.transpose());
                g.hadamard_inplace(&masks[i - 1]);
            }
        }
        slow_grads.reverse();
        Optimizer::new(OptimizerKind::Adam, 1e-3).step(layers, &slow_grads);

        for (i, (a, b)) in fast.layers.iter().zip(&slow.layers).enumerate() {
            assert_eq!(bits(a.w.as_slice()), bits(b.w.as_slice()), "w of layer {i}");
            assert_eq!(bits(&a.b), bits(&b.b), "b of layer {i}");
        }
        for (i, (a, b)) in fast_grads.iter().zip(&slow_grads).enumerate() {
            assert_eq!(bits(a.w.as_slice()), bits(b.w.as_slice()), "grad w of layer {i}");
            assert_eq!(bits(&a.b), bits(&b.b), "grad b of layer {i}");
        }
    }

    #[test]
    fn validation_forward_matches_scalar_inference_bitwise() {
        let mlp = Mlp::new(5, 2, 18, 3);
        let x = Matrix::from_fn(9, 5, |r, c| if r == c { 0.0 } else { (r as f64 + 0.7) / (c as f64 - 2.2) });
        let batch = mlp.forward(&x);
        for r in 0..x.rows() {
            assert_eq!(batch.at(r, 0).to_bits(), mlp.predict_one(x.row(r)).to_bits(), "row {r}");
        }
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn wrong_feature_count_panics() {
        let mlp = Mlp::new(3, 1, 4, 0);
        let x = Matrix::zeros(1, 2);
        mlp.forward(&x);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Mlp::new(3, 2, 8, 99);
        let b = Mlp::new(3, 2, 8, 99);
        let x = Matrix::from_rows(&[vec![0.1, 0.2, 0.3]]).unwrap();
        assert_eq!(a.forward(&x), b.forward(&x));
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
