use crate::activations::{sigmoid, sigmoid_grad_from_output};
use crate::scratch::MlpGrads;
use crate::{losses, Linear, Matrix, Module, Param};
use rand::rngs::StdRng;

/// The edge classifier of Eq. 15:
/// `f(e) = softmax(W2 · σ(W1 · e + B1) + B2)` with σ the logistic sigmoid
/// and two output classes (class 1 = "is a hyponymy relation").
///
/// Training runs [`Mlp::forward_ctx`] into a reused [`MlpCtx`], the pure
/// [`Mlp::backward_into`] that records both layers' updates in an
/// [`MlpGrads`], and [`Mlp::replay`] that adds them; the caller owns the
/// input, so a warm step allocates nothing. Inference runs the same
/// kernels through [`Mlp::forward_into`].
#[derive(Debug, Clone)]
pub struct Mlp {
    pub lin1: Linear,
    pub lin2: Linear,
}

/// Saved activations of one [`Mlp`] training forward pass, reused from
/// one batch to the next.
#[derive(Debug, Clone, Default)]
pub struct MlpCtx {
    /// Sigmoid hidden activations, `lin2`'s input.
    hidden: Matrix,
    /// Class logits (`n × 2`).
    logits: Matrix,
}

impl MlpCtx {
    /// The logits of the last [`Mlp::forward_ctx`].
    pub fn logits(&self) -> &Matrix {
        &self.logits
    }

    /// The logits, for a loss that overwrites them with its gradient
    /// ([`losses::softmax_xent_in_place`]).
    pub fn logits_mut(&mut self) -> &mut Matrix {
        &mut self.logits
    }
}

impl Mlp {
    /// `input_dim → hidden → 2` classifier.
    pub fn new(input_dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        Mlp {
            lin1: Linear::new(input_dim, hidden, rng),
            lin2: Linear::new(hidden, 2, rng),
        }
    }

    /// Training forward of `x` (`n × input_dim`): class *logits*
    /// (`n × 2`, apply softmax for probabilities) and the hidden
    /// activations land in `ctx`.
    pub fn forward_ctx(&self, x: &Matrix, ctx: &mut MlpCtx) {
        self.forward_into(x, &mut ctx.hidden, &mut ctx.logits);
    }

    /// Forward-only variant of [`Mlp::forward_ctx`] with caller-owned
    /// scratch: one GEMM per layer over the whole batch, sigmoid fused in
    /// place.
    pub fn forward_into(&self, x: &Matrix, hidden: &mut Matrix, logits: &mut Matrix) {
        self.lin1.forward_into(x, hidden);
        hidden.map_in_place(sigmoid);
        self.lin2.forward_into(hidden, logits);
    }

    /// Batched [`Mlp::predict_positive`]: positive-class probability for
    /// every row of `x`, appended to `out`. Each row's softmax is
    /// independent, so row `r` equals `predict_positive` of that row alone
    /// bit for bit. `logits` is left holding the per-row probabilities.
    pub fn predict_positive_batch_into(
        &self,
        x: &Matrix,
        hidden: &mut Matrix,
        logits: &mut Matrix,
        out: &mut Vec<f32>,
    ) {
        self.forward_into(x, hidden, logits);
        logits.softmax_rows();
        for r in 0..logits.rows() {
            out.push(logits[(r, 1)]);
        }
    }

    /// Backward data pass for the forward input `x` and its `ctx`:
    /// records both layers' gradient updates in `g` and writes dx into a
    /// caller-owned buffer; the hidden-layer gradient lives in `g` too,
    /// scaled by σ′ in place.
    pub fn backward_into(
        &self,
        x: &Matrix,
        ctx: &MlpCtx,
        dlogits: &Matrix,
        dx: &mut Matrix,
        g: &mut MlpGrads,
    ) {
        self.lin2
            .backward_into(&ctx.hidden, dlogits, &mut g.d_hidden, &mut g.lin2);
        for (d, &h) in g.d_hidden.data_mut().iter_mut().zip(ctx.hidden.data()) {
            *d *= sigmoid_grad_from_output(h);
        }
        self.lin1.backward_into(x, &g.d_hidden, dx, &mut g.lin1);
    }

    /// Replays a recorded backward into both layers' gradients.
    pub fn replay(&mut self, g: &MlpGrads) {
        self.lin1.replay(&g.lin1);
        self.lin2.replay(&g.lin2);
    }

    /// Probability of the positive class for a single edge representation.
    pub fn predict_positive(&self, x: &Matrix) -> f32 {
        let mut ctx = MlpCtx::default();
        self.forward_ctx(x, &mut ctx);
        ctx.logits.softmax_rows();
        ctx.logits[(0, 1)]
    }

    /// One supervised step on a batch: `x` is `n × input_dim`, `labels`
    /// are 0/1. Accumulates gradients and returns the mean loss.
    pub fn train_batch(&mut self, x: &Matrix, labels: &[usize]) -> f32 {
        let (mut ctx, mut g, mut dx) = (MlpCtx::default(), MlpGrads::default(), Matrix::default());
        self.forward_ctx(x, &mut ctx);
        let loss = losses::softmax_xent_in_place(&mut ctx.logits, labels);
        self.backward_into(x, &ctx, &ctx.logits, &mut dx, &mut g);
        self.replay(&g);
        loss
    }
}

impl Module for Mlp {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.lin1.visit_params(f);
        self.lin2.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use crate::Adam;
    use rand::RngExt;
    use rand::SeedableRng;

    #[test]
    fn predict_positive_is_probability() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(4, 8, &mut rng);
        let x = Matrix::from_vec(1, 4, vec![0.5, -0.3, 0.2, 0.9]);
        let p = mlp.predict_positive(&x);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(9);
        let mlp = Mlp::new(3, 5, &mut rng);
        let x = Matrix::from_fn(2, 3, |r, c| 0.4 * (r as f32) - 0.2 * (c as f32) + 0.1);
        check_gradients(
            mlp,
            x,
            |mlp, x| {
                let mut ctx = MlpCtx::default();
                mlp.forward_ctx(x, &mut ctx);
                (ctx.logits.clone(), (x.clone(), ctx))
            },
            |mlp, (x, ctx), dy| {
                let (mut dx, mut g) = (Matrix::default(), MlpGrads::default());
                mlp.backward_into(x, ctx, dy, &mut dx, &mut g);
                mlp.replay(&g);
                dx
            },
            3e-2,
        );
    }

    /// The classifier must learn a linearly separable rule.
    #[test]
    fn learns_linear_rule() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut mlp = Mlp::new(2, 8, &mut rng);
        let mut adam = Adam::new(1e-2);
        for _ in 0..400 {
            let mut xs = Vec::new();
            let mut labels = Vec::new();
            for _ in 0..16 {
                let a: f32 = rng.random_range(-1.0..1.0);
                let b: f32 = rng.random_range(-1.0..1.0);
                xs.extend_from_slice(&[a, b]);
                labels.push(usize::from(a + b > 0.0));
            }
            let x = Matrix::from_vec(16, 2, xs);
            mlp.train_batch(&x, &labels);
            adam.step(&mut mlp);
        }
        let mut correct = 0;
        for _ in 0..100 {
            let a: f32 = rng.random_range(-1.0..1.0);
            let b: f32 = rng.random_range(-1.0..1.0);
            let p = mlp.predict_positive(&Matrix::from_vec(1, 2, vec![a, b]));
            if (p > 0.5) == (a + b > 0.0) {
                correct += 1;
            }
        }
        assert!(correct > 90, "accuracy {correct}/100");
    }
}
