use crate::activations::{gelu_backward_in_place, gelu_in_place};
use crate::scratch::FeedForwardGrads;
use crate::{Linear, Matrix, Module, Param};
use rand::rngs::StdRng;

/// The position-wise feed-forward block: `Linear → GELU → Linear`.
///
/// Training keeps its activations in a caller-owned [`FeedForwardCtx`]
/// and its backward temporaries and records in a [`FeedForwardGrads`]
/// (`forward_ctx`, the pure [`FeedForward::backward_into`] and
/// [`FeedForward::replay`]); the allocating [`FeedForward::forward`] /
/// [`FeedForward::backward`] wrap the same code.
#[derive(Debug, Clone)]
pub struct FeedForward {
    pub lin1: Linear,
    pub lin2: Linear,
}

/// Saved activations of one [`FeedForward`] training forward pass,
/// reused from one sequence to the next.
#[derive(Debug, Clone, Default)]
pub struct FeedForwardCtx {
    /// The block input; the caller writes it before
    /// `forward_ctx`.
    pub(crate) input: Matrix,
    /// `lin1` output, the GELU input.
    pre_act: Matrix,
    /// GELU output, `lin2`'s input.
    act: Matrix,
}

impl FeedForward {
    /// `d_model → hidden → d_model`.
    pub fn new(d_model: usize, hidden: usize, rng: &mut StdRng) -> Self {
        FeedForward {
            lin1: Linear::new(d_model, hidden, rng),
            lin2: Linear::new(hidden, d_model, rng),
        }
    }

    /// Wraps `forward_ctx`.
    pub fn forward(&self, x: &Matrix) -> (Matrix, FeedForwardCtx) {
        let mut ctx = FeedForwardCtx::default();
        ctx.input.copy_from(x);
        let mut y = Matrix::default();
        self.forward_ctx(&mut ctx, &mut y);
        (y, ctx)
    }

    /// Training forward over `ctx.input`, saving the pre-activation and
    /// the GELU output in `ctx`.
    pub(crate) fn forward_ctx(&self, ctx: &mut FeedForwardCtx, out: &mut Matrix) {
        self.lin1.forward_into(&ctx.input, &mut ctx.pre_act);
        ctx.act.copy_from(&ctx.pre_act);
        gelu_in_place(ctx.act.data_mut());
        self.lin2.forward_into(&ctx.act, out);
    }

    /// Forward-only variant of `forward_ctx`: `hidden` and
    /// `out` are caller-owned scratch. GELU runs in place over the hidden
    /// buffer through the same 8-wide lane kernel, so the result is
    /// bitwise identical to the training path.
    pub fn forward_into(&self, x: &Matrix, hidden: &mut Matrix, out: &mut Matrix) {
        self.lin1.forward_into(x, hidden);
        gelu_in_place(hidden.data_mut());
        self.lin2.forward_into(hidden, out);
    }

    /// Wraps [`FeedForward::backward_into`] and [`FeedForward::replay`].
    pub fn backward(&mut self, ctx: &FeedForwardCtx, dy: &Matrix) -> Matrix {
        let (mut dx, mut g) = (Matrix::default(), FeedForwardGrads::default());
        self.backward_into(ctx, dy, &mut dx, &mut g);
        self.replay(&g);
        dx
    }

    /// Backward data pass: records both layers' gradient updates in `g`
    /// and writes dx; the hidden-layer gradient lives in `g` too, scaled
    /// by GELU′ in place.
    pub fn backward_into(
        &self,
        ctx: &FeedForwardCtx,
        dy: &Matrix,
        dx: &mut Matrix,
        g: &mut FeedForwardGrads,
    ) {
        self.lin2
            .backward_into(&ctx.act, dy, &mut g.d_act, &mut g.lin2);
        gelu_backward_in_place(&ctx.pre_act, &mut g.d_act);
        self.lin1
            .backward_into(&ctx.input, &g.d_act, dx, &mut g.lin1);
    }

    /// Replays a recorded backward into both layers' gradients.
    pub fn replay(&mut self, g: &FeedForwardGrads) {
        self.lin1.replay(&g.lin1);
        self.lin2.replay(&g.lin2);
    }
}

impl Module for FeedForward {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.lin1.visit_params(f);
        self.lin2.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use rand::SeedableRng;

    #[test]
    fn shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let ffn = FeedForward::new(4, 16, &mut rng);
        let x = Matrix::zeros(3, 4);
        let (y, _) = ffn.forward(&x);
        assert_eq!((y.rows(), y.cols()), (3, 4));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(5);
        let ffn = FeedForward::new(4, 8, &mut rng);
        let x = Matrix::from_fn(2, 4, |r, c| 0.25 * (r as f32) - 0.15 * (c as f32) + 0.05);
        check_gradients(
            ffn,
            x,
            |layer, input| layer.forward(input),
            |layer, ctx, dy| layer.backward(ctx, dy),
            3e-2,
        );
    }
}
