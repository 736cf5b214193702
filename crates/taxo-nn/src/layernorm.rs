use crate::scratch::LayerNormGrads;
use crate::{Matrix, Module, Param};

/// Layer normalisation over the last dimension with learnable scale γ and
/// shift β, as used throughout the Transformer encoder.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    pub gamma: Param,
    pub beta: Param,
    pub eps: f32,
}

/// Saved statistics of one [`LayerNorm`] training forward pass. Reused
/// from call to call: [`LayerNorm::forward_ctx`] overwrites it and
/// allocates only when a longer sequence than any before comes through.
#[derive(Debug, Clone, Default)]
pub struct LayerNormCtx {
    /// Normalised input x̂ (before γ/β).
    normalized: Matrix,
    /// Per-row 1/σ.
    inv_std: Vec<f32>,
}

/// Per-row mean and 1/σ in the canonical lane order of [`crate::lanes`].
/// The single shared implementation is what makes the training and
/// inference forwards bitwise identical by construction.
#[inline]
pub(crate) fn row_stats(row: &[f32], eps: f32) -> (f32, f32) {
    let d = row.len();
    let mean = crate::lanes::sum(row) / d as f32;
    let var = crate::lanes::sum_sq_diff(row, mean) / d as f32;
    (mean, 1.0 / (var + eps).sqrt())
}

impl LayerNorm {
    /// γ=1, β=0 layer over vectors of size `dim`.
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Param::constant(1, dim, 1.0),
            beta: Param::zeros(1, dim),
            eps: 1e-5,
        }
    }

    /// Normalises each row of `x`. Wraps [`LayerNorm::forward_ctx`].
    pub fn forward(&self, x: &Matrix) -> (Matrix, LayerNormCtx) {
        let mut out = Matrix::default();
        let mut ctx = LayerNormCtx::default();
        self.forward_ctx(x, &mut out, &mut ctx);
        (out, ctx)
    }

    /// Training forward: normalises each row of `x` into `out` and saves
    /// x̂ and 1/σ in `ctx` for [`LayerNorm::backward_into`].
    pub fn forward_ctx(&self, x: &Matrix, out: &mut Matrix, ctx: &mut LayerNormCtx) {
        self.normalize(x, out, Some(ctx));
    }

    /// Forward-only variant of [`LayerNorm::forward_ctx`]: writes into a
    /// caller-owned buffer and skips the saved statistics.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        self.normalize(x, out, None);
    }

    /// The one forward kernel: row statistics from the shared
    /// [`row_stats`], then `x̂ = (x − μ)/σ` and `x̂·γ + β` per element in
    /// the same expression order whether or not x̂ is saved.
    fn normalize(&self, x: &Matrix, out: &mut Matrix, mut ctx: Option<&mut LayerNormCtx>) {
        let (n, d) = (x.rows(), x.cols());
        out.reset_for_overwrite(n, d);
        if let Some(ctx) = ctx.as_deref_mut() {
            ctx.normalized.reset_for_overwrite(n, d);
            ctx.inv_std.clear();
        }
        let (gamma, beta) = (self.gamma.value.row(0), self.beta.value.row(0));
        for r in 0..n {
            let row = x.row(r);
            let (mean, istd) = row_stats(row, self.eps);
            let out_row = out.row_mut(r);
            match ctx.as_deref_mut() {
                Some(ctx) => {
                    ctx.inv_std.push(istd);
                    let xh_row = ctx.normalized.row_mut(r);
                    for c in 0..d {
                        let xh = (row[c] - mean) * istd;
                        xh_row[c] = xh;
                        out_row[c] = xh * gamma[c] + beta[c];
                    }
                }
                None => {
                    for c in 0..d {
                        let xh = (row[c] - mean) * istd;
                        out_row[c] = xh * gamma[c] + beta[c];
                    }
                }
            }
        }
    }

    /// Accumulates dγ, dβ and returns dx. Wraps
    /// [`LayerNorm::backward_into`] and [`LayerNorm::replay`].
    pub fn backward(&mut self, ctx: &LayerNormCtx, dout: &Matrix) -> Matrix {
        let (mut dx, mut g) = (Matrix::default(), LayerNormGrads::default());
        self.backward_into(ctx, dout, &mut dx, &mut g);
        self.replay(&g);
        dx
    }

    /// Backward data pass: records each row's dγ (`dy ⊙ x̂`) and dβ
    /// (`dy`) update in `g` and writes dx into a caller-owned buffer.
    /// Each `dx` row first holds dx̂ = dy ⊙ γ, the standard LayerNorm
    /// backward `dx = (1/σ)(dx̂ − mean(dx̂) − x̂ · mean(dx̂ ⊙ x̂))` then
    /// overwrites it element by element, so no per-row temporary is
    /// needed.
    pub fn backward_into(
        &self,
        ctx: &LayerNormCtx,
        dout: &Matrix,
        dx: &mut Matrix,
        g: &mut LayerNormGrads,
    ) {
        let (n, d) = (dout.rows(), dout.cols());
        dx.reset_for_overwrite(n, d);
        g.dgamma.reset_for_overwrite(n, d);
        g.dbeta.copy_from(dout);
        let gamma = self.gamma.value.row(0);
        for r in 0..n {
            let xh = ctx.normalized.row(r);
            let dy = dout.row(r);
            for ((dg, &d), &x) in g.dgamma.row_mut(r).iter_mut().zip(dy).zip(xh) {
                *dg = d * x;
            }
            let dxh = dx.row_mut(r);
            for c in 0..d {
                dxh[c] = dy[c] * gamma[c];
            }
            let mean_dxh = dxh.iter().sum::<f32>() / d as f32;
            let mean_dxh_xh = dxh.iter().zip(xh).map(|(&a, &b)| a * b).sum::<f32>() / d as f32;
            let istd = ctx.inv_std[r];
            for c in 0..d {
                dxh[c] = istd * (dxh[c] - mean_dxh - xh[c] * mean_dxh_xh);
            }
        }
    }

    /// Replays a recorded backward: adds the recorded dγ and dβ rows to
    /// the gradients one row at a time, in row order.
    pub fn replay(&mut self, g: &LayerNormGrads) {
        let dgamma = self.gamma.grad.row_mut(0);
        let dbeta = self.beta.grad.row_mut(0);
        for r in 0..g.dgamma.rows() {
            for (o, &v) in dgamma.iter_mut().zip(g.dgamma.row(r)) {
                *o += v;
            }
            for (o, &v) in dbeta.iter_mut().zip(g.dbeta.row(r)) {
                *o += v;
            }
        }
    }
}

impl Module for LayerNorm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;

    #[test]
    fn rows_are_standardised() {
        let ln = LayerNorm::new(4);
        let x = Matrix::from_vec(2, 4, vec![1., 2., 3., 4., -1., 0., 1., 2.]);
        let (y, _) = ln.forward(&x);
        for r in 0..2 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 4.0;
            let var: f32 = y.row(r).iter().map(|&v| (v - mean).powi(2)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn gamma_beta_applied() {
        let mut ln = LayerNorm::new(2);
        ln.gamma.value = Matrix::from_vec(1, 2, vec![2.0, 2.0]);
        ln.beta.value = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let x = Matrix::from_vec(1, 2, vec![0.0, 2.0]);
        let (y, _) = ln.forward(&x);
        // normalised = [-1, 1] (up to eps), scaled to [-2,2], shifted to [-1,3].
        assert!((y[(0, 0)] + 1.0).abs() < 1e-2);
        assert!((y[(0, 1)] - 3.0).abs() < 1e-2);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let ln = LayerNorm::new(5);
        let x = Matrix::from_fn(3, 5, |r, c| (r as f32) * 0.7 - (c as f32) * 0.3 + 0.05);
        check_gradients(
            ln,
            x,
            |layer, input| layer.forward(input),
            |layer, ctx, dy| layer.backward(ctx, dy),
            2e-2,
        );
    }
}
