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
use std::ops::Range;

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

/// Reusable workspaces for [`Mlp::forward_one_into`] and
/// [`Mlp::forward_batch_into`]: two ping-pong buffers for the hidden
/// activations of one tile of sixteen rows. Both keep their allocations
/// across calls.
#[derive(Clone, Debug, Default)]
pub struct MlpScratch {
    bufs: [Matrix<f64>; 2],
}

impl MlpScratch {
    /// Both buffers, sized for a tile of `width`-wide activations. Both
    /// forward forms ask for the same size, so alternating them (the DQN's
    /// action choice, then its target forward) never refills a buffer.
    fn buffers(&mut self, width: usize) -> (&mut Matrix<f64>, &mut Matrix<f64>) {
        let [even, odd] = &mut self.bufs;
        even.resize_for_overwrite(TILE_ROWS, width);
        odd.resize_for_overwrite(TILE_ROWS, width);
        (even, odd)
    }
}

/// Rows one tile of a forward or training pass carries through every layer
/// at once: the tile's activations stay in cache from one layer to the next
/// instead of streaming a whole `B × Ñ` matrix through it per layer.
const TILE_ROWS: usize = 16;

/// The row ranges of the tiles a `rows`-row batch splits into.
fn tiles(rows: usize) -> impl Iterator<Item = Range<usize>> {
    (0..rows)
        .step_by(TILE_ROWS)
        .map(move |r| r..(r + TILE_ROWS).min(rows))
}

/// Rows `r` of `m`, as a row-major slice.
fn rows_of<'a>(m: &'a Matrix<f64>, r: &Range<usize>) -> &'a [f64] {
    &m.as_slice()[r.start * m.cols()..r.end * m.cols()]
}

/// Rows `r` of `m`, as a mutable row-major slice.
fn rows_of_mut<'a>(m: &'a mut Matrix<f64>, r: &Range<usize>) -> &'a mut [f64] {
    let cols = m.cols();
    &mut m.as_mut_slice()[r.start * cols..r.end * cols]
}

/// Persistent buffers for [`Mlp::train_step_into`]: every layer's
/// pre-activation `z` (overwritten with ∂L/∂z by the backward pass) and
/// output `y`, the output layer's targets and loss gradient, and one tile of
/// ∂L/∂x. They keep their allocations across steps, so a training step at a
/// steady batch shape allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct MlpWorkspace {
    pre: Vec<Matrix<f64>>,
    post: Vec<Matrix<f64>>,
    target: Matrix<f64>,
    grad: Matrix<f64>,
    tile: Matrix<f64>,
}

impl MlpWorkspace {
    /// The `loss` of the last [`Mlp::train_step_into`]'s prediction against
    /// its targets: the loss before that step's update. Panics before any
    /// step has run.
    pub fn loss(&self, loss: Loss) -> f64 {
        let pred = self.post.last().expect("no training step has run");
        loss.value(pred, &self.target)
    }
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

    /// Allocation-free single-sample inference: writes the output layer's
    /// row into `out` (cleared and refilled, capacity reused), with the
    /// hidden activations in `scratch`. Bit-for-bit identical to
    /// [`Mlp::forward_one`] — the DQN agent's per-step action selection runs
    /// through here so the training loop stays free of matrix heap
    /// allocations at steady state.
    pub fn forward_one_into(&self, input: &[f64], scratch: &mut MlpScratch, out: &mut Vec<f64>) {
        self.check_input(input.len());
        out.clear();
        out.resize(self.config.output_dim(), 0.0);
        self.forward_tiles(input, scratch, out);
    }

    /// Allocation-free batched inference: the `B`-row generalisation of
    /// [`Mlp::forward_one_into`], writing the output layer straight into
    /// `out` (resized in place, capacity reused). Bit-for-bit identical to
    /// [`Mlp::forward`] — every row is accumulated independently, in the
    /// same order — so the serve engine's ticketed dispatch can keep a warm
    /// DQN worker free of matrix heap allocations at steady state. Always
    /// inlined, so it runs under a caller's [`elmrl_linalg::simd::wide`]
    /// dispatch.
    #[inline(always)]
    pub fn forward_batch_into(
        &self,
        input: &Matrix<f64>,
        scratch: &mut MlpScratch,
        out: &mut Matrix<f64>,
    ) {
        self.check_input(input.cols());
        out.resize_for_overwrite(input.rows(), self.config.output_dim());
        self.forward_tiles(input.as_slice(), scratch, out.as_mut_slice());
    }

    /// The rows of `input` (row-major, `input_dim` columns) through every
    /// layer into as many rows of `out`, one tile at a time: the hidden
    /// layers into the scratch buffers, the output layer straight into
    /// `out`.
    #[inline(always)]
    fn forward_tiles(&self, input: &[f64], scratch: &mut MlpScratch, out: &mut [f64]) {
        let (k, n) = (self.config.input_dim(), self.config.output_dim());
        let (even, odd) = scratch.buffers(self.widest());
        let last = self.layers.len() - 1;
        for (x_tile, y_tile) in input
            .chunks(TILE_ROWS * k)
            .zip(out.chunks_mut(TILE_ROWS * n))
        {
            let rows = x_tile.len() / k;
            for (l, layer) in self.layers.iter().enumerate() {
                let (prev, next) = if l % 2 == 0 {
                    (&*odd, &mut *even)
                } else {
                    (&*even, &mut *odd)
                };
                let x = if l == 0 {
                    x_tile
                } else {
                    &prev.as_slice()[..rows * layer.input_dim()]
                };
                let y = if l == last {
                    &mut *y_tile
                } else {
                    &mut next.as_mut_slice()[..rows * layer.output_dim()]
                };
                layer.forward_rows(x, y);
            }
        }
    }

    /// The widest layer, input included.
    fn widest(&self) -> usize {
        self.config.layer_sizes.iter().copied().max().unwrap_or(0)
    }

    fn check_input(&self, features: usize) {
        let expected = self.config.input_dim();
        assert_eq!(
            features, expected,
            "dense layer: input has {features} features, expected {expected}"
        );
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
        });
        workspace.loss(loss)
    }

    /// [`Mlp::train_step`] through a caller-owned workspace, with the
    /// targets written by `fill_target` after the forward pass. The target
    /// matrix it receives is a copy of the network's output on `input`, so
    /// every element it leaves alone has zero error and zero gradient — a
    /// DQN sets only the taken action's column. The step computes no loss
    /// value; [`MlpWorkspace::loss`] reads it afterwards when wanted.
    ///
    /// Both passes carry one tile of sixteen rows through every layer
    /// at a time. The backward pass overwrites each layer's `z` with ∂L/∂z
    /// and adds each tile's share to the layers' parameter gradients, tile
    /// after tile in row order, so every gradient element adds its terms in
    /// the order of one whole-batch product. A layer's ∂L/∂x exists only one
    /// tile at a time, folded straight into the layer below; the first
    /// layer's, which nothing reads, is skipped. The optimiser then reads
    /// the layer-owned gradients directly. Zero heap allocations once the
    /// workspace, the layers' gradients and the optimiser's moments have
    /// seen the batch shape. Always inlined, so the whole step runs under a
    /// caller's [`elmrl_linalg::simd::wide`] dispatch.
    #[inline(always)]
    pub fn train_step_into<O: Optimizer>(
        &mut self,
        input: &Matrix<f64>,
        loss: Loss,
        optimizer: &mut O,
        ws: &mut MlpWorkspace,
        fill_target: impl FnOnce(&mut Matrix<f64>),
    ) {
        self.check_input(input.cols());
        let (rows, last) = (input.rows(), self.layers.len() - 1);
        ws.pre.resize_with(last + 1, Matrix::default);
        ws.post.resize_with(last + 1, Matrix::default);
        for ((pre, post), layer) in ws.pre.iter_mut().zip(&mut ws.post).zip(&self.layers) {
            pre.resize_for_overwrite(rows, layer.output_dim());
            post.resize_for_overwrite(rows, layer.output_dim());
        }
        for tile in tiles(rows) {
            for (l, layer) in self.layers.iter().enumerate() {
                let (done, rest) = ws.post.split_at_mut(l);
                let x = if l == 0 { input } else { &done[l - 1] };
                let (pre, post) = (
                    rows_of_mut(&mut ws.pre[l], &tile),
                    rows_of_mut(&mut rest[0], &tile),
                );
                layer.forward_training_rows(rows_of(x, &tile), pre, post);
            }
        }
        let pred = &ws.post[last];
        ws.target.clone_from(pred);
        fill_target(&mut ws.target);
        loss.gradient_into(pred, &ws.target, &mut ws.grad);

        for layer in &mut self.layers {
            layer.start_backward();
        }
        for layer in &mut self.layers[1..] {
            layer.stage_input_gradient();
        }
        ws.tile.resize_for_overwrite(TILE_ROWS, self.widest());
        for tile in tiles(rows) {
            for l in (0..=last).rev() {
                let (lower, upper) = self.layers.split_at_mut(l + 1);
                let (pre_lower, pre_upper) = ws.pre.split_at_mut(l + 1);
                let (layer, pre) = (&mut lower[l], rows_of_mut(&mut pre_lower[l], &tile));
                let dy = match upper.first() {
                    None => rows_of(&ws.grad, &tile),
                    Some(above) => {
                        let dx = &mut ws.tile.as_mut_slice()[..tile.len() * layer.output_dim()];
                        above.input_gradient(rows_of(&pre_upper[0], &tile), dx);
                        dx
                    }
                };
                layer.fold_derivative(dy, pre);
                let x = if l == 0 { input } else { &ws.post[l - 1] };
                layer.add_weight_gradient(rows_of(x, &tile), pre);
            }
        }

        // One loop over every slot, so the optimiser's update is inlined
        // once.
        let params = self.layers.iter_mut().flat_map(DenseLayer::parameters_mut);
        for (slot, (param, grad)) in params.enumerate() {
            optimizer.update(slot, param, grad);
        }
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
            reused.train_step_into(&x, Loss::Huber, &mut opt_b, &mut ws, |tw| tw.clone_from(&t));
            let lb = ws.loss(Loss::Huber);
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
        b.train_step_into(&x, Loss::Huber, &mut Sgd::new(0.1), &mut ws, |tw| {
            tw[(0, 1)] = 1.5;
            tw[(1, 2)] = -0.5;
        });
        let lb = ws.loss(Loss::Huber);
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
