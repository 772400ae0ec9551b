//! A fully-connected (dense) layer and its backpropagation arithmetic.

use crate::activation::Activation;
use crate::kernels;
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
    /// `Wᵀ`, restaged by each backward pass that computes ∂L/∂x, so that
    /// product runs along contiguous rows.
    weights_t: Matrix<f64>,
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
            weights_t: Matrix::default(),
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
        self.check_input(input);
        out.resize_for_overwrite(input.rows(), self.output_dim());
        self.forward_rows(input.as_slice(), out.as_mut_slice());
    }

    /// `out = G(x·W + b)` for the rows of `x` (row-major, `input_dim`
    /// columns), `out` holding as many rows of `output_dim` columns. Always
    /// inlined, so it runs under a caller's [`elmrl_linalg::simd::wide`]
    /// dispatch.
    #[inline(always)]
    pub(crate) fn forward_rows(&self, x: &[f64], out: &mut [f64]) {
        let (k, n) = self.weights.shape();
        kernels::matmul(x, k, self.weights.as_slice(), n, out);
        self.activation
            .bias_apply_inplace(self.bias.as_slice(), out);
    }

    /// Training forward pass: the pre-activation `z = x·W + b` into `pre`
    /// and `y = G(z)` into `post`, both reshaped in place. Bit-for-bit
    /// identical to [`DenseLayer::forward`]; `pre` is kept for the backward
    /// pass.
    #[cfg(test)]
    pub(crate) fn forward_training_into(
        &self,
        input: &Matrix<f64>,
        pre: &mut Matrix<f64>,
        post: &mut Matrix<f64>,
    ) {
        self.check_input(input);
        pre.resize_for_overwrite(input.rows(), self.output_dim());
        post.resize_for_overwrite(input.rows(), self.output_dim());
        self.forward_training_rows(input.as_slice(), pre.as_mut_slice(), post.as_mut_slice());
    }

    /// [`DenseLayer::forward_training_into`] for the rows of `x`, into as
    /// many rows of `pre` and `post`: the product, then one epilogue pass
    /// that adds the bias and applies the activation.
    #[inline(always)]
    pub(crate) fn forward_training_rows(&self, x: &[f64], pre: &mut [f64], post: &mut [f64]) {
        let (k, n) = self.weights.shape();
        kernels::matmul(x, k, self.weights.as_slice(), n, pre);
        self.activation
            .bias_apply_into(self.bias.as_slice(), pre, post);
    }

    fn check_input(&self, input: &Matrix<f64>) {
        assert_eq!(
            input.cols(),
            self.weights.rows(),
            "dense layer: input has {} features, expected {}",
            input.cols(),
            self.weights.rows()
        );
    }

    /// Start this layer's backward pass: zero the parameter gradients that
    /// [`DenseLayer::fold_derivative`] and
    /// [`DenseLayer::add_weight_gradient`] accumulate into.
    pub(crate) fn start_backward(&mut self) {
        let (k, n) = self.weights.shape();
        self.grad_weights.resize_zeroed(k, n);
        self.grad_bias.resize_zeroed(1, n);
    }

    /// Stage `Wᵀ` for this backward pass's [`DenseLayer::input_gradient`]
    /// calls, so their product runs along contiguous rows. A layer whose
    /// ∂L/∂x nothing reads skips it.
    pub(crate) fn stage_input_gradient(&mut self) {
        let (k, n) = self.weights.shape();
        self.weights_t.resize_for_overwrite(n, k);
        kernels::transpose(self.weights.as_slice(), n, self.weights_t.as_mut_slice());
    }

    /// Rows of this layer's `pre` (its `z` from the training forward)
    /// become ∂L/∂z = ∂L/∂y ⊙ G'(z), with ∂L/∂y read from the matching rows
    /// of `grad`, and their column sums are added to ∂L/∂b.
    #[inline(always)]
    pub(crate) fn fold_derivative(&mut self, grad: &[f64], pre: &mut [f64]) {
        let gb = self.grad_bias.as_mut_slice();
        self.activation.fold_derivative(grad, pre, gb);
    }

    /// Adds `xᵀ·∂L/∂z` for rows of this layer's input `x` and of its ∂L/∂z
    /// (`dz`, as [`DenseLayer::fold_derivative`] left it in `pre`) to
    /// ∂L/∂W.
    #[inline(always)]
    pub(crate) fn add_weight_gradient(&mut self, x: &[f64], dz: &[f64]) {
        let (k, n) = self.weights.shape();
        kernels::t_matmul_add(x, k, dz, n, self.grad_weights.as_mut_slice());
    }

    /// ∂L/∂x = ∂L/∂z·Wᵀ for rows of ∂L/∂z (`dz`) into as many rows of `dx`,
    /// through the `Wᵀ` that [`DenseLayer::stage_input_gradient`] staged.
    /// Only the wide kernel is compiled here: it is exact for any width,
    /// and a layer feeding another is rarely narrow.
    #[inline(always)]
    pub(crate) fn input_gradient(&self, dz: &[f64], dx: &mut [f64]) {
        let (k, n) = self.weights.shape();
        kernels::matmul_wide(dz, n, self.weights_t.as_slice(), k, dx);
    }

    /// The weights and the bias, each with its gradient from the last
    /// backward pass: the optimiser's slots `2·index` and `2·index + 1`.
    pub(crate) fn parameters_mut(&mut self) -> [(&mut Matrix<f64>, &Matrix<f64>); 2] {
        [
            (&mut self.weights, &self.grad_weights),
            (&mut self.bias, &self.grad_bias),
        ]
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
        l.start_backward();
        l.fold_derivative(&[0.0; 2], &mut []);
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
        let grad = &y - &target; // dL/dy for 0.5·Σ(y−t)²
        l.start_backward();
        l.fold_derivative(grad.as_slice(), pre.as_mut_slice()); // pre is now dL/dz
        l.add_weight_gradient(x.as_slice(), pre.as_slice());
        l.stage_input_gradient();
        let mut grad_in = Matrix::zeros(2, 4);
        l.input_gradient(pre.as_slice(), grad_in.as_mut_slice());

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
