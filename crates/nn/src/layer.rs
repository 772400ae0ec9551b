//! A fully-connected (dense) layer and its backpropagation arithmetic.

use crate::activation::Activation;
use crate::optimizer::Optimizer;
use elmrl_linalg::random::xavier_uniform;
use elmrl_linalg::Matrix;
use rand::Rng;

/// One dense layer: `y = G(x·W + b)` with `W ∈ R^{in×out}`, `b ∈ R^{1×out}`.
///
/// The layer owns its parameter gradients. A training step of the enclosing
/// [`crate::Mlp`] fills them from the activations kept in its
/// [`crate::MlpWorkspace`], and the optimiser reads them in place.
#[derive(Clone, Debug)]
pub struct DenseLayer {
    weights: Matrix<f64>,
    bias: Matrix<f64>,
    activation: Activation,
    grad_weights: Matrix<f64>,
    grad_bias: Matrix<f64>,
}

impl DenseLayer {
    /// Create a layer with Xavier-uniform weights and zero bias.
    pub fn new<R: Rng + ?Sized>(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        Self {
            weights: xavier_uniform(input_dim, output_dim, rng),
            bias: Matrix::zeros(1, output_dim),
            activation,
            grad_weights: Matrix::zeros(input_dim, output_dim),
            grad_bias: Matrix::zeros(1, output_dim),
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.weights.cols()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Immutable access to the weight matrix.
    pub fn weights(&self) -> &Matrix<f64> {
        &self.weights
    }

    /// Immutable access to the bias row vector.
    pub fn bias(&self) -> &Matrix<f64> {
        &self.bias
    }

    /// Mutable access to the weight matrix (used by optimisers and tests).
    pub fn weights_mut(&mut self) -> &mut Matrix<f64> {
        &mut self.weights
    }

    /// Mutable access to the bias (used by optimisers and tests).
    pub fn bias_mut(&mut self) -> &mut Matrix<f64> {
        &mut self.bias
    }

    /// Gradient of the loss w.r.t. the weights, from the last training step.
    pub fn grad_weights(&self) -> &Matrix<f64> {
        &self.grad_weights
    }

    /// Gradient of the loss w.r.t. the bias, from the last training step.
    pub fn grad_bias(&self) -> &Matrix<f64> {
        &self.grad_bias
    }

    /// Number of trainable parameters in this layer.
    pub fn parameter_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Inference-only forward pass (no caches touched).
    pub fn forward(&self, input: &Matrix<f64>) -> Matrix<f64> {
        let mut out = Matrix::zeros(input.rows(), self.weights.cols());
        self.forward_into(input, &mut out);
        out
    }

    /// [`DenseLayer::forward`] into a caller-owned output matrix (reshaped,
    /// reusing its allocation) — the allocation-free inference form.
    /// Bit-for-bit identical to `forward`.
    pub fn forward_into(&self, input: &Matrix<f64>, out: &mut Matrix<f64>) {
        self.affine_into(input, out);
        self.activation.apply_matrix_inplace(out);
    }

    /// Training forward pass: the pre-activation `z = x·W + b` into `pre`
    /// and `y = G(z)` into `post`, both reshaped in place. Bit-for-bit
    /// identical to [`DenseLayer::forward`]; `pre` is kept for
    /// [`DenseLayer::backward_into`].
    pub(crate) fn forward_training_into(
        &self,
        input: &Matrix<f64>,
        pre: &mut Matrix<f64>,
        post: &mut Matrix<f64>,
    ) {
        self.affine_into(input, pre);
        post.clone_from(pre);
        self.activation.apply_matrix_inplace(post);
    }

    /// `input·W + b` into a caller-owned matrix — the single copy of the
    /// affine arithmetic that the inference and training forward paths
    /// share (keeping them bit-for-bit identical by construction).
    fn affine_into(&self, input: &Matrix<f64>, out: &mut Matrix<f64>) {
        assert_eq!(
            input.cols(),
            self.weights.rows(),
            "dense layer: input has {} features, expected {}",
            input.cols(),
            self.weights.rows()
        );
        input.matmul_into(&self.weights, out);
        let bias = self.bias.as_slice();
        for row in out.as_mut_slice().chunks_exact_mut(bias.len()) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Back-propagate through this layer. `grad` holds ∂L/∂y on entry and
    /// is turned into ∂L/∂z = ∂L/∂y ⊙ G'(z) in place; `input` and `pre` are
    /// this layer's `x` and `z` from [`DenseLayer::forward_training_into`].
    /// The parameter gradients land in the layer (∂L/∂W = xᵀ·∂L/∂z,
    /// ∂L/∂b = column sums of ∂L/∂z). ∂L/∂x = ∂L/∂z·Wᵀ is written to
    /// `grad_input` when asked for; the first layer of a network skips it.
    pub(crate) fn backward_into(
        &mut self,
        input: &Matrix<f64>,
        pre: &Matrix<f64>,
        grad: &mut Matrix<f64>,
        grad_input: Option<&mut Matrix<f64>>,
    ) {
        assert_eq!(grad.shape(), pre.shape(), "backward: grad shape mismatch");
        self.activation.mul_derivative_inplace(grad, pre);
        input.t_matmul_into(grad, &mut self.grad_weights);
        self.grad_bias.resize_zeroed(1, grad.cols());
        let gb = self.grad_bias.as_mut_slice();
        for r in 0..grad.rows() {
            for (b, &g) in gb.iter_mut().zip(grad.row(r)) {
                *b += g;
            }
        }
        if let Some(dx) = grad_input {
            grad.matmul_t_into(&self.weights, dx);
        }
    }

    /// Apply the stored gradients through `optimizer`: slot `2·index` for
    /// the weights, `2·index + 1` for the bias.
    pub(crate) fn apply_gradients<O: Optimizer>(&mut self, index: usize, optimizer: &mut O) {
        optimizer.update(2 * index, &mut self.weights, &self.grad_weights);
        optimizer.update(2 * index + 1, &mut self.bias, &self.grad_bias);
    }

    /// Copy the weights and bias from another layer (target-network sync).
    pub fn copy_parameters_from(&mut self, other: &DenseLayer) {
        assert_eq!(
            self.weights.shape(),
            other.weights.shape(),
            "copy: weight shape mismatch"
        );
        self.weights.clone_from(&other.weights);
        self.bias.clone_from(&other.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn layer(activation: Activation) -> DenseLayer {
        let mut rng = SmallRng::seed_from_u64(5);
        DenseLayer::new(3, 2, activation, &mut rng)
    }

    #[test]
    fn shapes_and_parameter_count() {
        let l = layer(Activation::ReLU);
        assert_eq!(l.input_dim(), 3);
        assert_eq!(l.output_dim(), 2);
        assert_eq!(l.parameter_count(), 3 * 2 + 2);
        assert_eq!(l.activation(), Activation::ReLU);
        let x = Matrix::<f64>::ones(4, 3);
        assert_eq!(l.forward(&x).shape(), (4, 2));
    }

    #[test]
    fn forward_identity_layer_is_affine() {
        let mut l = layer(Activation::Identity);
        // set known weights/bias
        *l.weights_mut() = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        *l.bias_mut() = Matrix::from_rows(&[vec![0.5, -0.5]]);
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let y = l.forward(&x);
        assert!((y[(0, 0)] - 4.5).abs() < 1e-12);
        assert!((y[(0, 1)] - 4.5).abs() < 1e-12);
    }

    #[test]
    fn training_forward_matches_inference_forward() {
        let l = layer(Activation::Tanh);
        let x = Matrix::from_rows(&[vec![0.1, -0.2, 0.3], vec![1.0, 0.5, -1.0]]);
        let (mut pre, mut post) = (Matrix::default(), Matrix::default());
        l.forward_training_into(&x, &mut pre, &mut post);
        assert_eq!(post, l.forward(&x));
        assert_eq!(pre.map(|z| z.tanh()), post);
    }

    #[test]
    #[should_panic(expected = "grad shape mismatch")]
    fn backward_without_forward_panics() {
        // No training forward has filled the pre-activation buffer.
        let mut l = layer(Activation::ReLU);
        let x = Matrix::<f64>::ones(1, 3);
        l.backward_into(&x, &Matrix::default(), &mut Matrix::zeros(1, 2), None);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut l = DenseLayer::new(4, 3, Activation::Tanh, &mut rng);
        let x = Matrix::from_rows(&[vec![0.3, -0.1, 0.7, 0.2], vec![-0.5, 0.4, 0.1, -0.9]]);
        let target = Matrix::from_rows(&[vec![0.1, 0.2, 0.3], vec![-0.1, 0.0, 0.5]]);
        let loss = |l: &DenseLayer, x: &Matrix<f64>| {
            let y = l.forward(x);
            let d = &y - &target;
            d.iter().map(|&v| v * v).sum::<f64>() * 0.5
        };

        // analytic gradients
        let (mut pre, mut y) = (Matrix::default(), Matrix::default());
        l.forward_training_into(&x, &mut pre, &mut y);
        let mut grad = &y - &target; // dL/dy for 0.5·Σ(y−t)²
        let mut grad_in = Matrix::default();
        l.backward_into(&x, &pre, &mut grad, Some(&mut grad_in));

        let h = 1e-6;
        // check dL/dW for a few entries
        for (r, c) in [(0usize, 0usize), (2, 1), (3, 2)] {
            let orig = l.weights()[(r, c)];
            l.weights_mut()[(r, c)] = orig + h;
            let plus = loss(&l, &x);
            l.weights_mut()[(r, c)] = orig - h;
            let minus = loss(&l, &x);
            l.weights_mut()[(r, c)] = orig;
            let numeric = (plus - minus) / (2.0 * h);
            assert!(
                (numeric - l.grad_weights()[(r, c)]).abs() < 1e-5,
                "dW({r},{c}): numeric {numeric} vs {}",
                l.grad_weights()[(r, c)]
            );
        }
        // check dL/db
        for c in 0..3 {
            let orig = l.bias()[(0, c)];
            l.bias_mut()[(0, c)] = orig + h;
            let plus = loss(&l, &x);
            l.bias_mut()[(0, c)] = orig - h;
            let minus = loss(&l, &x);
            l.bias_mut()[(0, c)] = orig;
            let numeric = (plus - minus) / (2.0 * h);
            assert!((numeric - l.grad_bias()[(0, c)]).abs() < 1e-5, "db({c})");
        }
        // check dL/dx for one entry
        {
            let mut xp = x.clone();
            xp[(0, 1)] += h;
            let plus = loss(&l, &xp);
            let mut xm = x.clone();
            xm[(0, 1)] -= h;
            let minus = loss(&l, &xm);
            let numeric = (plus - minus) / (2.0 * h);
            assert!((numeric - grad_in[(0, 1)]).abs() < 1e-5, "dx(0,1)");
        }
    }

    #[test]
    fn copy_parameters_syncs_target_layer() {
        let mut rng = SmallRng::seed_from_u64(9);
        let a = DenseLayer::new(3, 2, Activation::ReLU, &mut rng);
        let mut b = DenseLayer::new(3, 2, Activation::ReLU, &mut rng);
        assert!(a.weights().max_abs_diff(b.weights()) > 0.0);
        b.copy_parameters_from(&a);
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.bias(), b.bias());
    }

    #[test]
    #[should_panic(expected = "input has 2 features, expected 3")]
    fn wrong_input_width_panics() {
        let l = layer(Activation::ReLU);
        let _ = l.forward(&Matrix::<f64>::ones(1, 2));
    }
}
