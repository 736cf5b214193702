use crate::scratch::LinearGrads;
use crate::{Matrix, Module, Param};
use rand::rngs::StdRng;

/// A fully connected layer `y = x·Wᵀ + b` with `W: out × in`.
///
/// Layers are *stateless across calls*: the saved activations live with
/// the caller, so one layer can appear several times in a computation
/// graph (e.g. the four projections of attention applied to every
/// sequence in a batch) without aliasing issues. The training path
/// ([`Linear::forward_into`], the pure [`Linear::backward_into`] that
/// records the parameter-gradient updates, and [`Linear::replay`] that
/// adds them) takes its buffers from the caller and allocates nothing
/// once they are warm.
#[derive(Debug, Clone)]
pub struct Linear {
    pub w: Param,
    pub b: Param,
}

impl Linear {
    /// Xavier-initialised layer mapping `input_dim` → `output_dim`.
    pub fn new(input_dim: usize, output_dim: usize, rng: &mut StdRng) -> Self {
        Linear {
            w: Param::xavier(output_dim, input_dim, rng),
            b: Param::zeros(1, output_dim),
        }
    }

    /// `y = x·Wᵀ + b` into a caller-owned buffer; allocates nothing once
    /// `out` is warm. The one forward kernel of training and inference.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_nt_into(&self.w.value, out);
        out.add_row_broadcast(&self.b.value);
    }

    /// Backward data pass for the forward input `x`: records
    /// `dW = dyᵀ · x` and `db = Σ rows of dy` in `g` and writes
    /// `dx = dy · W` into `dx`. Reads only parameter values, so several
    /// examples can run concurrently, each into its own `g`.
    pub fn backward_into(&self, x: &Matrix, dy: &Matrix, dx: &mut Matrix, g: &mut LinearGrads) {
        self.record_into(x, dy, g);
        self.input_grad_into(dy, dx);
    }

    /// The weight side of [`Linear::backward_into`]: records `dW` and
    /// `db` over all rows of `x` and `dy`.
    pub fn record_into(&self, x: &Matrix, dy: &Matrix, g: &mut LinearGrads) {
        g.dw.matmul_tn_into(dy, x);
        g.db.sum_rows_into(dy);
    }

    /// The input side of [`Linear::backward_into`]: `dx = dy · W`, each
    /// row from its own row of `dy` alone.
    pub fn input_grad_into(&self, dy: &Matrix, dx: &mut Matrix) {
        dy.matmul_into(&self.w.value, dx);
    }

    /// Replays a recorded backward: adds each weight's and each bias's
    /// recorded value to its gradient once.
    pub fn replay(&mut self, g: &LinearGrads) {
        self.w.grad.add_assign(&g.dw);
        self.b.grad.add_assign(&g.db);
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.w.value.cols()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.w.value.rows()
    }
}

impl Module for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use rand::SeedableRng;

    /// The forward output and, as its context, a copy of the input.
    fn forward(lin: &Linear, x: &Matrix) -> (Matrix, Matrix) {
        let mut y = Matrix::default();
        lin.forward_into(x, &mut y);
        (y, x.clone())
    }

    /// Records and replays one backward; returns dx.
    fn backward(lin: &mut Linear, x: &Matrix, dy: &Matrix) -> Matrix {
        let (mut dx, mut g) = (Matrix::default(), LinearGrads::default());
        lin.backward_into(x, dy, &mut dx, &mut g);
        lin.replay(&g);
        dx
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut lin = Linear::new(3, 2, &mut rng);
        lin.b.value = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        let x = Matrix::zeros(4, 3);
        let (y, _) = forward(&lin, &x);
        assert_eq!((y.rows(), y.cols()), (4, 2));
        // Zero input -> bias only.
        for r in 0..4 {
            assert_eq!(y.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(7);
        let lin = Linear::new(4, 3, &mut rng);
        let x = Matrix::from_fn(2, 4, |r, c| 0.3 * (r as f32) - 0.2 * (c as f32) + 0.1);
        check_gradients(lin, x, forward, backward, 2e-2);
    }

    #[test]
    fn backward_accumulates_over_calls() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut lin = Linear::new(2, 2, &mut rng);
        let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let dy = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        backward(&mut lin, &x, &dy);
        let g1 = lin.w.grad.clone();
        backward(&mut lin, &x, &dy);
        let mut doubled = g1.clone();
        doubled.scale(2.0);
        assert_eq!(lin.w.grad, doubled);
    }

    #[test]
    fn module_param_count() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut lin = Linear::new(5, 3, &mut rng);
        assert_eq!(lin.param_count(), 5 * 3 + 3);
    }
}
