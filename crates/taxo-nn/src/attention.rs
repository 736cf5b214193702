use crate::scratch::AttentionGrads;
use crate::{Linear, Matrix, Module, Param};
use rand::rngs::StdRng;

/// Multi-head scaled-dot-product self-attention over one sequence.
///
/// One head kernel (`attend_head`) serves training and inference.
/// Training (`forward_ctx`, the pure
/// [`MultiHeadSelfAttention::backward_into`] and
/// [`MultiHeadSelfAttention::replay`]) keeps its activations in a
/// caller-owned [`AttentionCtx`] and its backward temporaries and
/// recorded projection gradients in [`AttentionGrads`], so a warm step
/// allocates nothing.
#[derive(Debug, Clone)]
pub struct MultiHeadSelfAttention {
    pub wq: Linear,
    pub wk: Linear,
    pub wv: Linear,
    pub wo: Linear,
    n_heads: usize,
}

/// Saved activations of one attention training forward pass, reused from
/// one sequence to the next.
#[derive(Debug, Clone, Default)]
pub struct AttentionCtx {
    /// The attention input; the caller writes it before
    /// `forward_ctx` (a block writes its
    /// LayerNorm output straight here).
    pub(crate) input: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Per-head attention probabilities, each `n × n`.
    probs: Vec<Matrix>,
    /// Concatenated head outputs, the output projection's input.
    concat: Matrix,
}

/// One head of one sequence: `scores = softmax(Q_h·K_hᵀ · scale)` into
/// `scores`, then `concat_h += scores · V_h`. The sequence owns rows
/// `base .. base + n` of `q`/`k`/`v`/`concat`, the head owns columns
/// `off .. off + dh`. Dots run in the canonical lane order; the weighted
/// sum accumulates `j` ascending and skips exact zeros.
#[allow(clippy::too_many_arguments)]
fn attend_head(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    base: usize,
    n: usize,
    off: usize,
    dh: usize,
    scale: f32,
    scores: &mut Matrix,
    concat: &mut Matrix,
) {
    scores.reset_for_overwrite(n, n);
    for i in 0..n {
        let qi = &q.row(base + i)[off..off + dh];
        let srow = scores.row_mut(i);
        for (j, s) in srow.iter_mut().enumerate() {
            let kj = &k.row(base + j)[off..off + dh];
            *s = crate::lanes::dot(qi, kj) * scale;
        }
    }
    scores.softmax_rows();
    for i in 0..n {
        let srow = scores.row(i);
        let crow = &mut concat.row_mut(base + i)[off..off + dh];
        for (j, &a) in srow.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let vj = &v.row(base + j)[off..off + dh];
            for (o, &vv) in crow.iter_mut().zip(vj) {
                *o += a * vv;
            }
        }
    }
}

impl MultiHeadSelfAttention {
    /// `d_model` must be divisible by `n_heads`.
    pub fn new(d_model: usize, n_heads: usize, rng: &mut StdRng) -> Self {
        assert_eq!(d_model % n_heads, 0, "d_model must divide into heads");
        MultiHeadSelfAttention {
            wq: Linear::new(d_model, d_model, rng),
            wk: Linear::new(d_model, d_model, rng),
            wv: Linear::new(d_model, d_model, rng),
            wo: Linear::new(d_model, d_model, rng),
            n_heads,
        }
    }

    /// Number of attention heads.
    pub fn n_heads(&self) -> usize {
        self.n_heads
    }

    fn head_dim(&self) -> usize {
        self.wq.output_dim() / self.n_heads
    }

    /// Training forward over the sequence in `ctx.input` (`n ×
    /// d_model`): saves the projections, per-head probabilities and head
    /// outputs in `ctx` and writes the attention output (`n × d_model`)
    /// into `out`.
    pub(crate) fn forward_ctx(&self, ctx: &mut AttentionCtx, out: &mut Matrix) {
        let n = ctx.input.rows();
        let dh = self.head_dim();
        let scale = 1.0 / (dh as f32).sqrt();
        self.wq.forward_into(&ctx.input, &mut ctx.q);
        self.wk.forward_into(&ctx.input, &mut ctx.k);
        self.wv.forward_into(&ctx.input, &mut ctx.v);
        ctx.concat.reset(n, self.wq.output_dim());
        ctx.probs.resize_with(self.n_heads, Matrix::default);
        for (h, probs) in ctx.probs.iter_mut().enumerate() {
            let (q, k, v) = (&ctx.q, &ctx.k, &ctx.v);
            attend_head(q, k, v, 0, n, h * dh, dh, scale, probs, &mut ctx.concat);
        }
        self.wo.forward_into(&ctx.concat, out);
    }

    /// Forward-only variant of `forward_ctx` over
    /// a batch of `x.rows() / seq_len` stacked equal-length sequences,
    /// writing into caller-owned scratch buffers (`scores` is reused per
    /// head and per sequence).
    ///
    /// Attention never mixes rows across sequences: each `seq_len` row
    /// slice runs `attend_head` exactly as the training path does, and
    /// the q/k/v/o projections are row-wise GEMMs, so every sequence's
    /// output is bitwise identical to encoding it alone.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_batch_into(
        &self,
        x: &Matrix,
        seq_len: usize,
        q: &mut Matrix,
        k: &mut Matrix,
        v: &mut Matrix,
        scores: &mut Matrix,
        concat: &mut Matrix,
        out: &mut Matrix,
    ) {
        let rows = x.rows();
        assert!(seq_len > 0 && rows.is_multiple_of(seq_len), "ragged batch");
        let batch = rows / seq_len;
        let dh = self.head_dim();
        let scale = 1.0 / (dh as f32).sqrt();

        self.wq.forward_into(x, q);
        self.wk.forward_into(x, k);
        self.wv.forward_into(x, v);

        concat.reset(rows, self.wq.output_dim());
        for s in 0..batch {
            for h in 0..self.n_heads {
                attend_head(
                    q,
                    k,
                    v,
                    s * seq_len,
                    seq_len,
                    h * dh,
                    dh,
                    scale,
                    scores,
                    concat,
                );
            }
        }
        self.wo.forward_into(concat, out);
    }

    /// Backward data pass: records the four projections' gradient
    /// updates in `g` and writes dx into a caller-owned buffer, taking
    /// every temporary from `g`. The head loops walk row slices; each
    /// activation-gradient element accumulates in the order of the
    /// textbook loops (`dV`, `dK` over query rows `i` ascending, `dQ`
    /// over key rows `j` ascending, every dot over the head's columns
    /// ascending).
    pub fn backward_into(
        &self,
        ctx: &AttentionCtx,
        dy: &Matrix,
        dx: &mut Matrix,
        g: &mut AttentionGrads,
    ) {
        let n = dy.rows();
        let d = self.wq.output_dim();
        let dh = self.head_dim();
        let scale = 1.0 / (dh as f32).sqrt();

        // Back through the output projection.
        self.wo
            .backward_into(&ctx.concat, dy, &mut g.dconcat, &mut g.wo);

        g.dq.reset(n, d);
        g.dk.reset(n, d);
        g.dv.reset(n, d);
        for (h, probs) in ctx.probs.iter().enumerate() {
            let off = h * dh;
            let cols = off..off + dh;

            // dV_h = Aᵀ · dO_h ; dA = dO_h · V_hᵀ.
            g.d_scores.reset_for_overwrite(n, n);
            for i in 0..n {
                let d_o = &g.dconcat.row(i)[cols.clone()];
                let a_row = probs.row(i);
                let ds_row = g.d_scores.row_mut(i);
                for j in 0..n {
                    let a = a_row[j];
                    let dv_row = &mut g.dv.row_mut(j)[cols.clone()];
                    let v_row = &ctx.v.row(j)[cols.clone()];
                    let mut d_a = 0.0;
                    for c in 0..dh {
                        dv_row[c] += a * d_o[c];
                        d_a += d_o[c] * v_row[c];
                    }
                    ds_row[j] = d_a;
                }
            }
            // Softmax backward per row: ds_j = a_j (dA_j - Σ_k dA_k a_k).
            for i in 0..n {
                let row_a = probs.row(i);
                let ds_row = g.d_scores.row_mut(i);
                let dot: f32 = ds_row.iter().zip(row_a).map(|(&d, &a)| d * a).sum();
                for (ds, &a) in ds_row.iter_mut().zip(row_a) {
                    *ds = a * (*ds - dot);
                }
            }
            // dQ_h = dS · K_h * scale ; dK_h = dSᵀ · Q_h * scale.
            for i in 0..n {
                let q_row = &ctx.q.row(i)[cols.clone()];
                let dq_row = &mut g.dq.row_mut(i)[cols.clone()];
                for (j, &d_s) in g.d_scores.row(i).iter().enumerate() {
                    let ds = d_s * scale;
                    if ds == 0.0 {
                        continue;
                    }
                    let k_row = &ctx.k.row(j)[cols.clone()];
                    let dk_row = &mut g.dk.row_mut(j)[cols.clone()];
                    for c in 0..dh {
                        dq_row[c] += ds * k_row[c];
                        dk_row[c] += ds * q_row[c];
                    }
                }
            }
        }

        self.wq.backward_into(&ctx.input, &g.dq, dx, &mut g.wq);
        self.wk
            .backward_into(&ctx.input, &g.dk, &mut g.dx_part, &mut g.wk);
        dx.add_assign(&g.dx_part);
        self.wv
            .backward_into(&ctx.input, &g.dv, &mut g.dx_part, &mut g.wv);
        dx.add_assign(&g.dx_part);
    }

    /// Replays a recorded backward into the four projections'
    /// gradients.
    pub fn replay(&mut self, g: &AttentionGrads) {
        self.wq.replay(&g.wq);
        self.wk.replay(&g.wk);
        self.wv.replay(&g.wv);
        self.wo.replay(&g.wo);
    }
}

impl Module for MultiHeadSelfAttention {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.wo.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use rand::SeedableRng;

    fn forward(attn: &MultiHeadSelfAttention, x: &Matrix) -> (Matrix, AttentionCtx) {
        let (mut y, mut ctx) = (Matrix::default(), AttentionCtx::default());
        ctx.input.copy_from(x);
        attn.forward_ctx(&mut ctx, &mut y);
        (y, ctx)
    }

    /// Records and replays one backward; returns dx.
    fn backward(attn: &mut MultiHeadSelfAttention, ctx: &AttentionCtx, dy: &Matrix) -> Matrix {
        let (mut dx, mut g) = (Matrix::default(), AttentionGrads::default());
        attn.backward_into(ctx, dy, &mut dx, &mut g);
        attn.replay(&g);
        dx
    }

    #[test]
    fn output_shape_matches_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let attn = MultiHeadSelfAttention::new(8, 2, &mut rng);
        let x = Matrix::from_fn(5, 8, |r, c| ((r * 8 + c) as f32).sin() * 0.3);
        let (y, ctx) = forward(&attn, &x);
        assert_eq!((y.rows(), y.cols()), (5, 8));
        // Attention rows are distributions.
        for p in &ctx.probs {
            for r in 0..5 {
                let s: f32 = p.row(r).iter().sum();
                assert!((s - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    #[should_panic(expected = "heads")]
    fn rejects_indivisible_heads() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = MultiHeadSelfAttention::new(7, 2, &mut rng);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(11);
        let attn = MultiHeadSelfAttention::new(6, 2, &mut rng);
        let x = Matrix::from_fn(3, 6, |r, c| 0.2 * ((r + 2 * c) as f32).cos());
        check_gradients(attn, x, forward, backward, 3e-2);
    }

    #[test]
    fn single_token_sequence_attends_to_itself() {
        let mut rng = StdRng::seed_from_u64(3);
        let attn = MultiHeadSelfAttention::new(4, 1, &mut rng);
        let x = Matrix::from_vec(1, 4, vec![0.1, -0.2, 0.3, 0.4]);
        let (_, ctx) = forward(&attn, &x);
        assert_eq!(ctx.probs[0][(0, 0)], 1.0);
    }
}
