use crate::scratch::BlockGrads;
use crate::{
    AttentionCtx, FeedForward, FeedForwardCtx, LayerNorm, LayerNormCtx, Matrix, Module,
    MultiHeadSelfAttention, Param,
};
use rand::rngs::StdRng;

/// A pre-LayerNorm Transformer block:
/// `a = x + Attn(LN1(x))`, `y = a + FFN(LN2(a))`.
///
/// Pre-LN keeps gradients stable without a warmup schedule, which matters
/// for a from-scratch substrate trained with plain Adam.
///
/// Training runs in place on the residual stream
/// ([`TransformerBlock::forward_ctx`], the pure
/// [`TransformerBlock::backward_in_place`] and
/// [`TransformerBlock::replay`]) with activations in a caller-owned
/// [`BlockCtx`] and backward temporaries and records in [`BlockGrads`];
/// the allocating [`TransformerBlock::forward`] /
/// [`TransformerBlock::backward`] wrap the same code.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    pub ln1: LayerNorm,
    pub attn: MultiHeadSelfAttention,
    pub ln2: LayerNorm,
    pub ffn: FeedForward,
}

/// Saved activations of one block training forward pass, reused from one
/// sequence to the next. LN1 writes its output straight into the
/// attention context's input and LN2 into the FFN context's input, so no
/// activation is stored twice.
#[derive(Debug, Clone, Default)]
pub struct BlockCtx {
    ln1_ctx: LayerNormCtx,
    attn_ctx: AttentionCtx,
    ln2_ctx: LayerNormCtx,
    ffn_ctx: FeedForwardCtx,
}

impl TransformerBlock {
    pub fn new(d_model: usize, n_heads: usize, ff_hidden: usize, rng: &mut StdRng) -> Self {
        TransformerBlock {
            ln1: LayerNorm::new(d_model),
            attn: MultiHeadSelfAttention::new(d_model, n_heads, rng),
            ln2: LayerNorm::new(d_model),
            ffn: FeedForward::new(d_model, ff_hidden, rng),
        }
    }

    /// Wraps [`TransformerBlock::forward_ctx`].
    pub fn forward(&self, x: &Matrix) -> (Matrix, BlockCtx) {
        let mut y = x.clone();
        let mut ctx = BlockCtx::default();
        self.forward_ctx(&mut y, &mut ctx, &mut Matrix::default());
        (y, ctx)
    }

    /// Training forward, mutating the residual stream `h` in place and
    /// saving every activation the backward pass reads in `ctx`. `tmp`
    /// holds each sub-layer's output before its residual add. The adds
    /// run `x + attn_out`, then `a + ffn_out`, per element.
    pub fn forward_ctx(&self, h: &mut Matrix, ctx: &mut BlockCtx, tmp: &mut Matrix) {
        self.ln1
            .forward_ctx(h, &mut ctx.attn_ctx.input, &mut ctx.ln1_ctx);
        self.attn.forward_ctx(&mut ctx.attn_ctx, tmp);
        h.add_assign(tmp);

        self.ln2
            .forward_ctx(h, &mut ctx.ffn_ctx.input, &mut ctx.ln2_ctx);
        self.ffn.forward_ctx(&mut ctx.ffn_ctx, tmp);
        h.add_assign(tmp);
    }

    /// Forward-only variant of [`TransformerBlock::forward_ctx`] over
    /// stacked equal-length sequences, mutating `h` in place with
    /// caller-owned scratch and saving nothing. Same sub-layer kernels,
    /// same residual add order, so the result is bitwise identical per
    /// sequence.
    pub fn forward_batch_in_place(
        &self,
        h: &mut Matrix,
        seq_len: usize,
        s: &mut crate::scratch::BlockScratch,
    ) {
        self.ln1.forward_into(h, &mut s.normed);
        self.attn.forward_batch_into(
            &s.normed,
            seq_len,
            &mut s.q,
            &mut s.k,
            &mut s.v,
            &mut s.scores,
            &mut s.concat,
            &mut s.attn_out,
        );
        h.add_assign(&s.attn_out);

        self.ln2.forward_into(h, &mut s.normed);
        self.ffn
            .forward_into(&s.normed, &mut s.ffn_hidden, &mut s.ffn_out);
        h.add_assign(&s.ffn_out);
    }

    /// Wraps [`TransformerBlock::backward_in_place`] and
    /// [`TransformerBlock::replay`].
    pub fn backward(&mut self, ctx: &BlockCtx, dy: &Matrix) -> Matrix {
        let (mut d, mut g) = (dy.clone(), BlockGrads::default());
        self.backward_in_place(ctx, &mut d, &mut g);
        self.replay(&g);
        d
    }

    /// Backward data pass turning `d` (dL/dy) into dL/dx in place and
    /// recording every sub-layer's parameter-gradient updates in `g`.
    /// Each residual add `d += sub-layer dx` adds the same two values the
    /// allocating form's `dx += d` did; IEEE addition commutes bit for bit.
    pub fn backward_in_place(&self, ctx: &BlockCtx, d: &mut Matrix, g: &mut BlockGrads) {
        // y = a + ffn(ln2(a)).
        self.ffn
            .backward_into(&ctx.ffn_ctx, d, &mut g.d_sub, &mut g.ffn);
        self.ln2
            .backward_into(&ctx.ln2_ctx, &g.d_sub, &mut g.d_ln, &mut g.ln2);
        d.add_assign(&g.d_ln); // residual

        // a = x + attn(ln1(x)).
        self.attn
            .backward_into(&ctx.attn_ctx, d, &mut g.d_sub, &mut g.attn);
        self.ln1
            .backward_into(&ctx.ln1_ctx, &g.d_sub, &mut g.d_ln, &mut g.ln1);
        d.add_assign(&g.d_ln); // residual
    }

    /// Replays a recorded backward into every sub-layer's gradients.
    pub fn replay(&mut self, g: &BlockGrads) {
        self.ln1.replay(&g.ln1);
        self.attn.replay(&g.attn);
        self.ln2.replay(&g.ln2);
        self.ffn.replay(&g.ffn);
    }
}

impl Module for TransformerBlock {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.ln1.visit_params(f);
        self.attn.visit_params(f);
        self.ln2.visit_params(f);
        self.ffn.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use rand::SeedableRng;

    #[test]
    fn shapes_preserved() {
        let mut rng = StdRng::seed_from_u64(0);
        let block = TransformerBlock::new(8, 2, 16, &mut rng);
        let x = Matrix::from_fn(4, 8, |r, c| ((r + c) as f32 * 0.37).sin());
        let (y, _) = block.forward(&x);
        assert_eq!((y.rows(), y.cols()), (4, 8));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(21);
        let block = TransformerBlock::new(4, 2, 6, &mut rng);
        let x = Matrix::from_fn(3, 4, |r, c| 0.3 * ((2 * r + c) as f32).cos());
        check_gradients(
            block,
            x,
            |layer, input| layer.forward(input),
            |layer, ctx, dy| layer.backward(ctx, dy),
            4e-2,
        );
    }
}
