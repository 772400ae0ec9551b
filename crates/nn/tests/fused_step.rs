//! The fused training step against the loops it replaced, and under the
//! AVX2 dispatch against its direct call.
//!
//! `reference` is the arithmetic `Mlp::train_step_into` ran before its
//! kernels were fused: whole-matrix products through `elmrl_linalg`, a
//! separate bias pass, a per-element activation `match`, a separate
//! derivative pass, and Adam's indexed loop with its `powf` pair per slot.
//! The fused step must reproduce it bit for bit — weights, biases, both
//! parameter gradients and both Adam moments — and so must the same step
//! run inside [`elmrl_linalg::simd::wide`], which compiles it for AVX2 on a
//! host that has it. Both are pinned on ±0, subnormal and NaN inputs and on
//! an all-dead ReLU column. `cargo test --release` checks the optimised
//! build, the one the benchmarks run.

use elmrl_linalg::simd::wide;
use elmrl_linalg::Matrix;
use elmrl_nn::{Activation, Adam, Loss, Mlp, MlpConfig, MlpScratch, MlpWorkspace};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The training step as it was before the fusion, kept as the reference.
mod reference {
    use elmrl_linalg::Matrix;
    use elmrl_nn::{Activation, Loss, MomentState};

    pub struct Layer {
        pub weights: Matrix<f64>,
        pub bias: Matrix<f64>,
        pub activation: Activation,
        pub grad_weights: Matrix<f64>,
        pub grad_bias: Matrix<f64>,
    }

    impl Layer {
        fn forward_training_into(
            &self,
            input: &Matrix<f64>,
            pre: &mut Matrix<f64>,
            post: &mut Matrix<f64>,
        ) {
            input.matmul_into(&self.weights, pre);
            let bias = self.bias.as_slice();
            for row in pre.as_mut_slice().chunks_exact_mut(bias.len()) {
                for (v, &b) in row.iter_mut().zip(bias) {
                    *v += b;
                }
            }
            post.clone_from(pre);
            self.activation.apply_matrix_inplace(post);
        }

        fn backward_into(
            &mut self,
            input: &Matrix<f64>,
            pre: &Matrix<f64>,
            grad: &mut Matrix<f64>,
            grad_input: Option<&mut Matrix<f64>>,
        ) {
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
    }

    pub struct Adam {
        pub lr: f64,
        pub beta1: f64,
        pub beta2: f64,
        pub eps: f64,
        pub state: Vec<Option<MomentState>>,
    }

    impl Adam {
        fn update(&mut self, slot: usize, param: &mut Matrix<f64>, grad: &Matrix<f64>) {
            if self.state.len() <= slot {
                self.state.resize(slot + 1, None);
            }
            let (rows, cols) = param.shape();
            let entry = self.state[slot]
                .get_or_insert_with(|| (Matrix::zeros(rows, cols), Matrix::zeros(rows, cols), 0));
            entry.2 += 1;
            let t = entry.2 as f64;
            let bias1 = 1.0 - self.beta1.powf(t);
            let bias2 = 1.0 - self.beta2.powf(t);

            for i in 0..param.len() {
                let g = grad.as_slice()[i];
                let m = &mut entry.0.as_mut_slice()[i];
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                let v = &mut entry.1.as_mut_slice()[i];
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                let m_hat = *m / bias1;
                let v_hat = *v / bias2;
                param.as_mut_slice()[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }

    /// The inference forward, layer by layer.
    pub fn forward(layers: &[Layer], input: &Matrix<f64>) -> Matrix<f64> {
        let (mut pre, mut x) = (Matrix::default(), input.clone());
        for layer in layers {
            let mut post = Matrix::default();
            layer.forward_training_into(&x, &mut pre, &mut post);
            x = post;
        }
        x
    }

    /// One step: forward, targets, loss gradient, backward, Adam.
    pub fn step(
        layers: &mut [Layer],
        adam: &mut Adam,
        input: &Matrix<f64>,
        loss: Loss,
        fill_target: impl FnOnce(&mut Matrix<f64>),
    ) {
        let n = layers.len();
        let mut pre = vec![Matrix::default(); n];
        let mut post = vec![Matrix::default(); n];
        for (l, layer) in layers.iter().enumerate() {
            let (done, rest) = post.split_at_mut(l);
            let x = if l == 0 { input } else { &done[l - 1] };
            layer.forward_training_into(x, &mut pre[l], &mut rest[0]);
        }
        let mut target = post[n - 1].clone();
        fill_target(&mut target);
        let (mut grad, mut grad_in) = (Matrix::default(), Matrix::default());
        loss.gradient_into(&post[n - 1], &target, &mut grad);
        for (l, layer) in layers.iter_mut().enumerate().rev() {
            let x = if l == 0 { input } else { &post[l - 1] };
            let dx = if l == 0 { None } else { Some(&mut grad_in) };
            layer.backward_into(x, &pre[l], &mut grad, dx);
            std::mem::swap(&mut grad, &mut grad_in);
        }
        for (i, layer) in layers.iter_mut().enumerate() {
            adam.update(2 * i, &mut layer.weights, &layer.grad_weights);
            adam.update(2 * i + 1, &mut layer.bias, &layer.grad_bias);
        }
    }
}

/// Bit-for-bit equality, except that any NaN matches any NaN: IEEE 754
/// leaves the payload of a NaN produced from two NaN operands to the
/// hardware.
fn same_bits(a: &Matrix<f64>, b: &Matrix<f64>) -> bool {
    a.shape() == b.shape()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// A network, its optimiser and its workspace, trained by the fused step.
#[derive(Clone)]
struct Fused {
    net: Mlp,
    adam: Adam,
    ws: MlpWorkspace,
}

impl Fused {
    fn new(config: MlpConfig, seed: u64) -> Self {
        Self {
            net: Mlp::new(config, &mut SmallRng::seed_from_u64(seed)),
            adam: Adam::new(0.01),
            ws: MlpWorkspace::default(),
        }
    }

    fn step(&mut self, x: &Matrix<f64>, loss: Loss, t: &Matrix<f64>) {
        let Self { net, adam, ws } = self;
        net.train_step_into(x, loss, adam, ws, |m| mark_targets(m, t));
    }

    fn step_wide(&mut self, x: &Matrix<f64>, loss: Loss, t: &Matrix<f64>) {
        let Self { net, adam, ws } = self;
        wide(
            #[inline(always)]
            || net.train_step_into(x, loss, adam, ws, |m| mark_targets(m, t)),
        );
    }

    fn reference(&self) -> (Vec<reference::Layer>, reference::Adam) {
        let layers = self.net.layers().iter().map(|l| reference::Layer {
            weights: l.weights().clone(),
            bias: l.bias().clone(),
            activation: l.activation(),
            grad_weights: Matrix::default(),
            grad_bias: Matrix::default(),
        });
        let adam = reference::Adam {
            lr: 0.01,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            state: Vec::new(),
        };
        (layers.collect(), adam)
    }

    /// Why this network differs from `other` (weights, biases, gradients
    /// and Adam moments), or `None`.
    fn mismatch(&self, other: &Fused) -> Option<String> {
        let layers = self.net.layers().iter().zip(other.net.layers());
        for (i, (a, b)) in layers.enumerate() {
            if !same_bits(a.weights(), b.weights()) || !same_bits(a.bias(), b.bias()) {
                return Some(format!("layer {i} parameters"));
            }
            if !same_bits(a.grad_weights(), b.grad_weights())
                || !same_bits(a.grad_bias(), b.grad_bias())
            {
                return Some(format!("layer {i} gradients"));
            }
        }
        moments_mismatch(&self.adam, &other.adam.export_state())
    }

    fn reference_mismatch(
        &self,
        layers: &[reference::Layer],
        adam: &reference::Adam,
    ) -> Option<String> {
        for (i, (a, b)) in self.net.layers().iter().zip(layers).enumerate() {
            if !same_bits(a.weights(), &b.weights) || !same_bits(a.bias(), &b.bias) {
                return Some(format!("layer {i} parameters"));
            }
            if !same_bits(a.grad_weights(), &b.grad_weights)
                || !same_bits(a.grad_bias(), &b.grad_bias)
            {
                return Some(format!("layer {i} gradients"));
            }
        }
        moments_mismatch(&self.adam, &adam.state)
    }
}

fn moments_mismatch(adam: &Adam, other: &[Option<elmrl_nn::MomentState>]) -> Option<String> {
    let state = adam.export_state();
    if state.len() != other.len() {
        return Some("Adam slot count".into());
    }
    for (slot, (a, b)) in state.iter().zip(other).enumerate() {
        let same = match (a, b) {
            (Some((m1, v1, t1)), Some((m2, v2, t2))) => {
                t1 == t2 && same_bits(m1, m2) && same_bits(v1, v2)
            }
            (None, None) => true,
            _ => false,
        };
        if !same {
            return Some(format!("Adam moments of slot {slot}"));
        }
    }
    None
}

/// The DQN's target fill: a few entries of the prediction replaced.
fn mark_targets(m: &mut Matrix<f64>, t: &Matrix<f64>) {
    for (i, row) in t.row_iter().enumerate() {
        let j = i % m.cols();
        m[(i, j)] = row[j];
    }
}

/// Uniform values in `[-scale, scale)`, except about one entry in `special`:
/// `+0`, `−0`, the smallest subnormal or a mid-range negative subnormal.
fn data(rows: usize, cols: usize, scale: f64, special: u32, rng: &mut SmallRng) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |_, _| match rng.gen_range(0..4 * special) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(1),
        3 => -f64::MIN_POSITIVE / 3.0,
        _ => rng.gen_range(-scale..scale),
    })
}

const ACTIVATIONS: [Activation; 5] = [
    Activation::ReLU,
    Activation::Tanh,
    Activation::Sigmoid,
    Activation::LeakyReLU,
    Activation::Identity,
];

/// The DQN shape (4 → 64 → 2, batch 32) on ±0 and subnormal inputs, with
/// hidden unit 5 dead on every row, then one step with a NaN input: the
/// fused step inside `wide` must match its direct call, and both the
/// reference loops, step after step.
#[test]
fn fused_step_matches_under_the_avx2_dispatch_and_the_reference() {
    let mut rng = SmallRng::seed_from_u64(24);
    let mut direct = Fused::new(MlpConfig::new(&[4, 64, 2]), 7);
    let mut dead = direct.net.layers()[0].bias().clone();
    dead[(0, 5)] = -1e9;
    let mut params = direct.net.export_parameters();
    params[0].1 = dead;
    direct.net.import_parameters(&params);
    let mut dispatched = direct.clone();
    let (mut ref_layers, mut ref_adam) = direct.reference();

    const STEPS: usize = 40;
    for step in 0..STEPS {
        let mut x = data(32, 4, 1.0, 6, &mut rng);
        if step == STEPS - 1 {
            // NaN reaches every gradient and moment it touches, so it
            // comes last.
            x[(7, 2)] = f64::NAN;
        }
        let t = data(32, 2, 2.0, 6, &mut rng);
        let loss = if step % 2 == 0 {
            Loss::Huber
        } else {
            Loss::Mse
        };
        direct.step(&x, loss, &t);
        dispatched.step_wide(&x, loss, &t);
        reference::step(&mut ref_layers, &mut ref_adam, &x, loss, |m| {
            mark_targets(m, &t)
        });
        assert_eq!(dispatched.mismatch(&direct), None, "wide, step {step}");
        assert_eq!(
            direct.reference_mismatch(&ref_layers, &ref_adam),
            None,
            "reference, step {step}"
        );
        if step == STEPS - 2 {
            let dead = direct.net.layers()[0].grad_weights().col(5);
            assert!(dead.iter().all(|&g| g == 0.0), "unit 5 stayed dead");
            let moments = direct.adam.export_state();
            let (m, v, _) = moments[0].as_ref().expect("layer 0 weights trained");
            assert!(m.col(5).iter().chain(&v.col(5)).all(|&x| x == 0.0));
        }
    }
    let nan_grads = direct.net.layers()[0].grad_weights();
    assert!(nan_grads.iter().any(|g| g.is_nan()), "the NaN step ran");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any depth, width, batch and activation, through the narrow, blocked
    /// and tail branches of every kernel: the fused step, direct and under
    /// the dispatch, matches the reference loops bit for bit.
    #[test]
    fn fused_step_matches_the_reference_loops(
        (seed, depth, batch) in (0u64..1 << 40, 1usize..4, 1usize..41),
        (width, act, loss) in (1usize..40, 0usize..5, 0usize..2),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sizes = vec![rng.gen_range(1..7)];
        for d in 0..depth {
            sizes.push(if d == 0 { width } else { rng.gen_range(1..24) });
        }
        sizes.push(rng.gen_range(1..6));
        let config = MlpConfig::new(&sizes)
            .with_hidden_activation(ACTIVATIONS[act])
            .with_output_activation(ACTIVATIONS[(act + seed as usize) % 5]);
        let loss = [Loss::Huber, Loss::Mse][loss];
        let mut direct = Fused::new(config, seed);
        let mut dispatched = direct.clone();
        let (mut ref_layers, mut ref_adam) = direct.reference();
        for step in 0..3 {
            let x = data(batch, sizes[0], 1.5, 12, &mut rng);
            let t = data(batch, *sizes.last().unwrap(), 2.0, 12, &mut rng);
            direct.step(&x, loss, &t);
            dispatched.step_wide(&x, loss, &t);
            reference::step(&mut ref_layers, &mut ref_adam, &x, loss, |m| mark_targets(m, &t));
            let wide = dispatched.mismatch(&direct);
            prop_assert!(wide.is_none(), "wide, step {}: {:?}", step, wide);
            let old = direct.reference_mismatch(&ref_layers, &ref_adam);
            prop_assert!(old.is_none(), "reference, step {}, sizes {:?}: {:?}", step, sizes, old);
        }
    }

    /// The batched inference forward (sixteen-row tiles), the one-row
    /// forward and `Mlp::forward`, direct and under the dispatch, match the
    /// reference loops.
    #[test]
    fn inference_forwards_match_the_reference_loops(
        (seed, depth, batch) in (0u64..1 << 40, 1usize..4, 1usize..41),
        (width, act, nan) in (1usize..40, 0usize..5, 0usize..4),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sizes = vec![rng.gen_range(1..7)];
        for d in 0..depth {
            sizes.push(if d == 0 { width } else { rng.gen_range(1..24) });
        }
        sizes.push(rng.gen_range(1..6));
        let config = MlpConfig::new(&sizes)
            .with_hidden_activation(ACTIVATIONS[act])
            .with_output_activation(ACTIVATIONS[(act + seed as usize) % 5]);
        let fused = Fused::new(config, seed);
        let net = &fused.net;
        let mut x = data(batch, sizes[0], 1.5, 12, &mut rng);
        if nan == 0 {
            x[(batch / 2, 0)] = f64::NAN;
        }
        let expected = reference::forward(&fused.reference().0, &x);
        prop_assert!(same_bits(&net.forward(&x), &expected), "forward, sizes {:?}", sizes);
        let (mut scratch, mut out, mut wide_out) = (MlpScratch::default(), Matrix::default(), Matrix::default());
        net.forward_batch_into(&x, &mut scratch, &mut out);
        wide(
            #[inline(always)]
            || net.forward_batch_into(&x, &mut scratch, &mut wide_out),
        );
        prop_assert!(same_bits(&out, &expected), "batched, sizes {:?}", sizes);
        prop_assert!(same_bits(&wide_out, &expected), "batched under wide, sizes {:?}", sizes);
        let mut row = Vec::new();
        for r in 0..batch {
            net.forward_one_into(x.row(r), &mut scratch, &mut row);
            prop_assert!(same_bits(&Matrix::row_from_slice(&row), &Matrix::row_from_slice(expected.row(r))));
        }
    }
}
