//! Multi-layer perceptron assembled from [`DenseLayer`]s.
//!
//! The DQN baseline in the paper is a three-layer network (§4.1, design (6)):
//! state in, one hidden layer of `Ñ` ReLU units, Q-values per action out.
//! [`Mlp`] supports any depth so the harness can also build deeper ablations.

use crate::activation::Activation;
use crate::layer::DenseLayer;
use crate::loss::Loss;
use crate::optimizer::Optimizer;
use elmrl_linalg::Matrix;
use rand::Rng;

/// Configuration describing an MLP's layer sizes and activations.
#[derive(Clone, Debug, PartialEq)]
pub struct MlpConfig {
    /// Layer widths, including input and output (`len ≥ 2`).
    pub layer_sizes: Vec<usize>,
    /// Activation applied to every hidden layer.
    pub hidden_activation: Activation,
    /// Activation applied to the output layer (Identity for Q-value heads).
    pub output_activation: Activation,
}

impl MlpConfig {
    /// Config with the given layer widths, ReLU hidden activations and an
    /// identity output layer.
    pub fn new(layer_sizes: &[usize]) -> Self {
        assert!(
            layer_sizes.len() >= 2,
            "an MLP needs at least input and output sizes"
        );
        assert!(
            layer_sizes.iter().all(|&s| s > 0),
            "layer sizes must be positive"
        );
        Self {
            layer_sizes: layer_sizes.to_vec(),
            hidden_activation: Activation::ReLU,
            output_activation: Activation::Identity,
        }
    }

    /// Override the hidden-layer activation.
    pub fn with_hidden_activation(mut self, a: Activation) -> Self {
        self.hidden_activation = a;
        self
    }

    /// Override the output-layer activation.
    pub fn with_output_activation(mut self, a: Activation) -> Self {
        self.output_activation = a;
        self
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layer_sizes[0]
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        *self.layer_sizes.last().unwrap()
    }
}

/// Reusable workspaces for [`Mlp::forward_one_into`]: a `1 × n` staging row
/// for the input plus two ping-pong activation buffers. All three keep
/// their allocations across calls.
#[derive(Clone, Debug, Default)]
pub struct MlpScratch {
    x: Matrix<f64>,
    bufs: [Matrix<f64>; 2],
}

/// Persistent buffers for [`Mlp::train_step_into`]: every layer's
/// pre-activation `z` and output `y`, the output layer's targets, and two
/// ping-pong gradient matrices (∂L/∂y of the current layer, ∂L/∂x into the
/// other). They keep their allocations across steps, so a training step at
/// a steady batch shape allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct MlpWorkspace {
    pre: Vec<Matrix<f64>>,
    post: Vec<Matrix<f64>>,
    target: Matrix<f64>,
    grads: [Matrix<f64>; 2],
}

/// A feed-forward network with dense layers and backpropagation training.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
    config: MlpConfig,
}

impl Mlp {
    /// Build a network with Xavier-initialised weights.
    pub fn new<R: Rng + ?Sized>(config: MlpConfig, rng: &mut R) -> Self {
        let n_layers = config.layer_sizes.len() - 1;
        let mut layers = Vec::with_capacity(n_layers);
        for i in 0..n_layers {
            let activation = if i + 1 == n_layers {
                config.output_activation
            } else {
                config.hidden_activation
            };
            layers.push(DenseLayer::new(
                config.layer_sizes[i],
                config.layer_sizes[i + 1],
                activation,
                rng,
            ));
        }
        Self { layers, config }
    }

    /// The configuration used to build this network.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// Borrow the layers (e.g. for Lipschitz-constant estimation).
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Total trainable parameter count.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(|l| l.parameter_count()).sum()
    }

    /// Inference forward pass on a batch (`rows` = batch size).
    pub fn forward(&self, input: &Matrix<f64>) -> Matrix<f64> {
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.forward(&x);
        }
        x
    }

    /// Convenience: forward a single sample given as a slice.
    pub fn forward_one(&self, input: &[f64]) -> Vec<f64> {
        let out = self.forward(&Matrix::row_from_slice(input));
        out.row(0).to_vec()
    }

    /// Allocation-free single-sample inference: ping-pongs between the two
    /// workspace matrices of `scratch` and writes the output layer's row
    /// into `out` (cleared and refilled, capacity reused). Bit-for-bit
    /// identical to [`Mlp::forward_one`] — the DQN agent's per-step action
    /// selection runs through here so the training loop stays free of
    /// matrix heap allocations at steady state.
    pub fn forward_one_into(&self, input: &[f64], scratch: &mut MlpScratch, out: &mut Vec<f64>) {
        scratch.x.resize_zeroed(1, input.len());
        scratch.x.set_row(0, input);
        let (ping, pong) = scratch.bufs.split_at_mut(1);
        let (ping, pong) = (&mut ping[0], &mut pong[0]);
        self.layers[0].forward_into(&scratch.x, ping);
        let mut ping_is_current = true;
        for layer in &self.layers[1..] {
            if ping_is_current {
                layer.forward_into(ping, pong);
            } else {
                layer.forward_into(pong, ping);
            }
            ping_is_current = !ping_is_current;
        }
        let last = if ping_is_current { &*ping } else { &*pong };
        out.clear();
        out.extend_from_slice(last.row(0));
    }

    /// Allocation-free batched inference: the `B`-row generalisation of
    /// [`Mlp::forward_one_into`], ping-ponging whole `B × n` activations
    /// through the workspace matrices and leaving the output layer in `out`
    /// (resized in place, capacity reused). Bit-for-bit identical to
    /// [`Mlp::forward`] — the layer kernels accumulate each batch row
    /// independently — so the serve engine's ticketed dispatch can keep a
    /// warm DQN worker free of matrix heap allocations at steady state.
    pub fn forward_batch_into(
        &self,
        input: &Matrix<f64>,
        scratch: &mut MlpScratch,
        out: &mut Matrix<f64>,
    ) {
        let (ping, pong) = scratch.bufs.split_at_mut(1);
        let (ping, pong) = (&mut ping[0], &mut pong[0]);
        self.layers[0].forward_into(input, ping);
        let mut ping_is_current = true;
        for layer in &self.layers[1..] {
            if ping_is_current {
                layer.forward_into(ping, pong);
            } else {
                layer.forward_into(pong, ping);
            }
            ping_is_current = !ping_is_current;
        }
        let last = if ping_is_current { &*ping } else { &*pong };
        out.resize_zeroed(last.rows(), last.cols());
        out.as_mut_slice().copy_from_slice(last.as_slice());
    }

    /// One optimisation step on a batch: forward, loss gradient, backward,
    /// and parameter update. Returns the scalar loss before the update.
    ///
    /// Allocates a fresh [`MlpWorkspace`] per call; loops that train every
    /// step keep one and call [`Mlp::train_step_into`]. Both run the same
    /// arithmetic, so the results are bit-for-bit identical.
    pub fn train_step<O: Optimizer>(
        &mut self,
        input: &Matrix<f64>,
        target: &Matrix<f64>,
        loss: Loss,
        optimizer: &mut O,
    ) -> f64 {
        let mut workspace = MlpWorkspace::default();
        self.train_step_into(input, loss, optimizer, &mut workspace, |t| {
            t.clone_from(target)
        })
    }

    /// [`Mlp::train_step`] through a caller-owned workspace, with the
    /// targets written by `fill_target` after the forward pass. The target
    /// matrix it receives is a copy of the network's output on `input`, so
    /// every element it leaves alone has zero error and zero gradient — a
    /// DQN sets only the taken action's column.
    ///
    /// The backward pass turns each layer's ∂L/∂y into ∂L/∂z in place,
    /// writes the parameter gradients into the layers, and skips the first
    /// layer's ∂L/∂x, which nothing reads. The optimiser then reads the
    /// layer-owned gradients directly. Zero heap allocations once the
    /// workspace, the layers' gradients and the optimiser's moments have
    /// seen the batch shape.
    pub fn train_step_into<O: Optimizer>(
        &mut self,
        input: &Matrix<f64>,
        loss: Loss,
        optimizer: &mut O,
        ws: &mut MlpWorkspace,
        fill_target: impl FnOnce(&mut Matrix<f64>),
    ) -> f64 {
        let n_layers = self.layers.len();
        ws.pre.resize_with(n_layers, Matrix::default);
        ws.post.resize_with(n_layers, Matrix::default);
        for (l, layer) in self.layers.iter().enumerate() {
            let (done, rest) = ws.post.split_at_mut(l);
            let x = if l == 0 { input } else { &done[l - 1] };
            layer.forward_training_into(x, &mut ws.pre[l], &mut rest[0]);
        }
        let pred = &ws.post[n_layers - 1];
        ws.target.clone_from(pred);
        fill_target(&mut ws.target);
        let loss_value = loss.value(pred, &ws.target);

        let [grad, grad_in] = &mut ws.grads;
        loss.gradient_into(pred, &ws.target, grad);
        for (l, layer) in self.layers.iter_mut().enumerate().rev() {
            let x = if l == 0 { input } else { &ws.post[l - 1] };
            let dx = if l == 0 { None } else { Some(&mut *grad_in) };
            layer.backward_into(x, &ws.pre[l], grad, dx);
            std::mem::swap(grad, grad_in);
        }

        for (i, layer) in self.layers.iter_mut().enumerate() {
            layer.apply_gradients(i, optimizer);
        }
        loss_value
    }

    /// Export every layer's parameters as `(weights, bias)` pairs, in layer
    /// order — the serialisable half of checkpointing a network. Rebuild the
    /// architecture from its [`MlpConfig`] and feed the pairs back through
    /// [`Mlp::import_parameters`] to restore the exact parameter state.
    pub fn export_parameters(&self) -> Vec<(Matrix<f64>, Matrix<f64>)> {
        self.layers
            .iter()
            .map(|l| (l.weights().clone(), l.bias().clone()))
            .collect()
    }

    /// Overwrite every layer's parameters from [`Mlp::export_parameters`]
    /// output. Panics when the layer count or any shape disagrees with this
    /// network's architecture.
    pub fn import_parameters(&mut self, params: &[(Matrix<f64>, Matrix<f64>)]) {
        assert_eq!(
            self.layers.len(),
            params.len(),
            "import_parameters: layer count mismatch"
        );
        for (layer, (w, b)) in self.layers.iter_mut().zip(params) {
            assert_eq!(
                layer.weights().shape(),
                w.shape(),
                "import_parameters: weight shape mismatch"
            );
            assert_eq!(
                layer.bias().shape(),
                b.shape(),
                "import_parameters: bias shape mismatch"
            );
            layer.weights_mut().clone_from(w);
            layer.bias_mut().clone_from(b);
        }
    }

    /// Copy all parameters from another network of identical architecture.
    /// This is the DQN fixed-target-network synchronisation (`θ₂ ← θ₁`).
    pub fn copy_parameters_from(&mut self, other: &Mlp) {
        assert_eq!(
            self.config.layer_sizes, other.config.layer_sizes,
            "copy_parameters_from: architecture mismatch"
        );
        for (dst, src) in self.layers.iter_mut().zip(other.layers.iter()) {
            dst.copy_parameters_from(src);
        }
    }

    /// Upper bound on the network's Lipschitz constant: the product over
    /// layers of `σ_max(W)` times the activation's Lipschitz constant (§2.5).
    pub fn lipschitz_upper_bound(&self) -> f64 {
        self.layers
            .iter()
            .map(|l| {
                let sigma =
                    elmrl_linalg::norms::spectral_norm_exact(l.weights()).unwrap_or(f64::INFINITY);
                sigma * l.activation().lipschitz_constant()
            })
            .product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{Adam, Sgd};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn xor_data() -> (Matrix<f64>, Matrix<f64>) {
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ]);
        let t = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![1.0], vec![0.0]]);
        (x, t)
    }

    #[test]
    fn config_validation_and_accessors() {
        let c = MlpConfig::new(&[4, 8, 2]);
        assert_eq!(c.input_dim(), 4);
        assert_eq!(c.output_dim(), 2);
        assert_eq!(c.hidden_activation, Activation::ReLU);
        assert_eq!(c.output_activation, Activation::Identity);
        let c2 = c
            .clone()
            .with_hidden_activation(Activation::Tanh)
            .with_output_activation(Activation::Sigmoid);
        assert_eq!(c2.hidden_activation, Activation::Tanh);
        assert_eq!(c2.output_activation, Activation::Sigmoid);
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn single_layer_config_rejected() {
        let _ = MlpConfig::new(&[4]);
    }

    #[test]
    fn network_shapes_and_parameter_count() {
        let mut rng = SmallRng::seed_from_u64(1);
        let net = Mlp::new(MlpConfig::new(&[5, 64, 2]), &mut rng);
        assert_eq!(net.layers().len(), 2);
        assert_eq!(net.parameter_count(), 5 * 64 + 64 + 64 * 2 + 2);
        let y = net.forward(&Matrix::<f64>::ones(3, 5));
        assert_eq!(y.shape(), (3, 2));
        assert_eq!(net.forward_one(&[1.0; 5]).len(), 2);
    }

    #[test]
    fn learns_xor_with_adam() {
        let mut rng = SmallRng::seed_from_u64(7);
        let config = MlpConfig::new(&[2, 16, 1]).with_hidden_activation(Activation::Tanh);
        let mut net = Mlp::new(config, &mut rng);
        let mut opt = Adam::new(0.02);
        let (x, t) = xor_data();
        let mut final_loss = f64::INFINITY;
        for _ in 0..2000 {
            final_loss = net.train_step(&x, &t, Loss::Mse, &mut opt);
        }
        assert!(final_loss < 0.02, "XOR did not converge: loss {final_loss}");
        let pred = net.forward(&x);
        assert!(pred[(0, 0)] < 0.3 && pred[(3, 0)] < 0.3);
        assert!(pred[(1, 0)] > 0.7 && pred[(2, 0)] > 0.7);
    }

    #[test]
    fn learns_linear_function_with_sgd_and_huber() {
        let mut rng = SmallRng::seed_from_u64(13);
        let mut net = Mlp::new(MlpConfig::new(&[1, 8, 1]), &mut rng);
        let mut opt = Sgd::new(0.01);
        let x = Matrix::from_fn(20, 1, |i, _| i as f64 / 20.0);
        let t = x.map(|v| 2.0 * v - 0.5);
        for _ in 0..3000 {
            net.train_step(&x, &t, Loss::Huber, &mut opt);
        }
        let pred = net.forward(&x);
        assert!(pred.max_abs_diff(&t) < 0.15);
    }

    #[test]
    fn loss_decreases_during_training() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut net = Mlp::new(MlpConfig::new(&[2, 12, 1]), &mut rng);
        let mut opt = Adam::new(0.01);
        let (x, t) = xor_data();
        let first = net.train_step(&x, &t, Loss::Mse, &mut opt);
        let mut last = first;
        for _ in 0..300 {
            last = net.train_step(&x, &t, Loss::Mse, &mut opt);
        }
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn backprop_through_two_layers_matches_finite_differences() {
        let mut rng = SmallRng::seed_from_u64(8);
        let config = MlpConfig::new(&[4, 3, 2])
            .with_hidden_activation(Activation::Tanh)
            .with_output_activation(Activation::Sigmoid);
        let mut net = Mlp::new(config, &mut rng);
        let x = Matrix::from_rows(&[vec![0.3, -0.1, 0.7, 0.2], vec![-0.5, 0.4, 0.1, -0.9]]);
        let target = Matrix::from_rows(&[vec![0.1, 0.2], vec![-0.1, 0.5]]);
        let loss = |net: &Mlp| Loss::Mse.value(&net.forward(&x), &target);

        // A zero learning rate leaves the parameters where the analytic
        // gradients were taken.
        net.train_step(&x, &target, Loss::Mse, &mut Sgd::new(0.0));
        let h = 1e-6;
        for l in 0..2 {
            let (rows, cols) = net.layers[l].weights().shape();
            for (r, c) in (0..rows).flat_map(|r| (0..cols).map(move |c| (r, c))) {
                let orig = net.layers[l].weights()[(r, c)];
                net.layers[l].weights_mut()[(r, c)] = orig + h;
                let plus = loss(&net);
                net.layers[l].weights_mut()[(r, c)] = orig - h;
                let minus = loss(&net);
                net.layers[l].weights_mut()[(r, c)] = orig;
                let numeric = (plus - minus) / (2.0 * h);
                let analytic = net.layers[l].grad_weights()[(r, c)];
                assert!(
                    (numeric - analytic).abs() < 1e-6,
                    "layer {l} dW({r},{c}): numeric {numeric} vs {analytic}"
                );
            }
            for c in 0..cols {
                let orig = net.layers[l].bias()[(0, c)];
                net.layers[l].bias_mut()[(0, c)] = orig + h;
                let plus = loss(&net);
                net.layers[l].bias_mut()[(0, c)] = orig - h;
                let minus = loss(&net);
                net.layers[l].bias_mut()[(0, c)] = orig;
                let numeric = (plus - minus) / (2.0 * h);
                let analytic = net.layers[l].grad_bias()[(0, c)];
                assert!(
                    (numeric - analytic).abs() < 1e-6,
                    "layer {l} db({c}): numeric {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn reused_workspace_matches_fresh_workspaces_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(17);
        let config = MlpConfig::new(&[3, 9, 5, 2]);
        let mut fresh = Mlp::new(config, &mut rng);
        let mut reused = fresh.clone();
        let (mut opt_a, mut opt_b) = (Adam::new(0.01), Adam::new(0.01));
        let mut ws = MlpWorkspace::default();
        // Batch sizes shrink and grow through the same workspace.
        for (step, batch) in [4usize, 1, 7, 7, 2].into_iter().enumerate() {
            let x = elmrl_linalg::random::uniform_matrix::<f64, _>(batch, 3, -1.0, 1.0, &mut rng);
            let t = elmrl_linalg::random::uniform_matrix::<f64, _>(batch, 2, -2.0, 2.0, &mut rng);
            let la = fresh.train_step(&x, &t, Loss::Huber, &mut opt_a);
            let lb = reused
                .train_step_into(&x, Loss::Huber, &mut opt_b, &mut ws, |tw| tw.clone_from(&t));
            assert_eq!(la.to_bits(), lb.to_bits(), "loss at step {step}");
            for (a, b) in fresh.layers().iter().zip(reused.layers()) {
                assert_eq!(a.weights(), b.weights(), "weights at step {step}");
                assert_eq!(a.bias(), b.bias(), "bias at step {step}");
            }
        }
    }

    #[test]
    fn untouched_targets_contribute_no_gradient() {
        // Filling only one output column is the same step as passing the
        // network's own output with that column replaced.
        let mut rng = SmallRng::seed_from_u64(19);
        let mut a = Mlp::new(MlpConfig::new(&[2, 8, 3]), &mut rng);
        let mut b = a.clone();
        let x = Matrix::from_rows(&[vec![0.2, -0.4], vec![0.9, 0.1]]);
        let mut t = a.forward(&x);
        t[(0, 1)] = 1.5;
        t[(1, 2)] = -0.5;
        let la = a.train_step(&x, &t, Loss::Huber, &mut Sgd::new(0.1));
        let mut ws = MlpWorkspace::default();
        let lb = b.train_step_into(&x, Loss::Huber, &mut Sgd::new(0.1), &mut ws, |tw| {
            tw[(0, 1)] = 1.5;
            tw[(1, 2)] = -0.5;
        });
        assert_eq!(la.to_bits(), lb.to_bits());
        assert_eq!(a.layers()[0].weights(), b.layers()[0].weights());
        assert_eq!(a.layers()[1].grad_weights(), b.layers()[1].grad_weights());
    }

    #[test]
    fn target_network_copy_makes_outputs_identical() {
        let mut rng = SmallRng::seed_from_u64(4);
        let config = MlpConfig::new(&[3, 10, 2]);
        let a = Mlp::new(config.clone(), &mut rng);
        let mut b = Mlp::new(config, &mut rng);
        let x = Matrix::from_rows(&[vec![0.5, -0.5, 1.0]]);
        assert!(a.forward(&x).max_abs_diff(&b.forward(&x)) > 1e-9);
        b.copy_parameters_from(&a);
        assert!(a.forward(&x).max_abs_diff(&b.forward(&x)) < 1e-15);
    }

    #[test]
    #[should_panic(expected = "architecture mismatch")]
    fn copy_between_different_architectures_panics() {
        let mut rng = SmallRng::seed_from_u64(5);
        let a = Mlp::new(MlpConfig::new(&[3, 10, 2]), &mut rng);
        let mut b = Mlp::new(MlpConfig::new(&[3, 11, 2]), &mut rng);
        b.copy_parameters_from(&a);
    }

    #[test]
    fn lipschitz_bound_is_finite_and_positive() {
        let mut rng = SmallRng::seed_from_u64(6);
        let net = Mlp::new(MlpConfig::new(&[4, 32, 2]), &mut rng);
        let k = net.lipschitz_upper_bound();
        assert!(k.is_finite() && k > 0.0);
        // Empirically verify the bound on random input pairs.
        let mut max_ratio: f64 = 0.0;
        for i in 0..20 {
            let x1 = elmrl_linalg::random::uniform_matrix::<f64, _>(1, 4, -1.0, 1.0, &mut rng);
            let x2 = elmrl_linalg::random::uniform_matrix::<f64, _>(1, 4, -1.0, 1.0, &mut rng);
            let dy = (&net.forward(&x1) - &net.forward(&x2)).frobenius_norm();
            let dx = (&x1 - &x2).frobenius_norm();
            if dx > 1e-9 {
                max_ratio = max_ratio.max(dy / dx);
            }
            let _ = i;
        }
        assert!(
            max_ratio <= k + 1e-9,
            "observed ratio {max_ratio} exceeds bound {k}"
        );
    }
}
