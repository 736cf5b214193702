//! Finite-difference gradient checking, used by every layer's test suite
//! (here and in `taxo-graph`). Exposed publicly because correct manual
//! backpropagation is the riskiest part of a from-scratch NN substrate.

use crate::{Matrix, Module, Param};

/// A deterministic pseudo-random weighting matrix defining the scalar test
/// loss `L(y) = Σ w_ij · y_ij`; using varied weights ensures the check
/// exercises off-diagonal gradient terms.
fn loss_weights(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        (((r * 31 + c * 17 + 7) % 13) as f32) / 13.0 - 0.5
    })
}

fn weighted_loss(y: &Matrix, w: &Matrix) -> f64 {
    y.data()
        .iter()
        .zip(w.data())
        .map(|(&a, &b)| a as f64 * b as f64)
        .sum()
}

fn relative_error(a: f64, b: f64) -> f64 {
    let denom = a.abs().max(b.abs()).max(1e-2);
    (a - b).abs() / denom
}

/// Verifies that a layer's analytic gradients (both parameter gradients and
/// the input gradient) match central finite differences.
///
/// * `forward(&layer, &input) -> (output, ctx)`
/// * `backward(&mut layer, &ctx, &dout) -> dinput`, accumulating parameter
///   gradients into the layer.
///
/// # Panics
/// Panics (failing the test) when any sampled coordinate's relative error
/// exceeds `tol`.
pub fn check_gradients<L, C>(
    mut layer: L,
    input: Matrix,
    forward: impl Fn(&L, &Matrix) -> (Matrix, C),
    backward: impl Fn(&mut L, &C, &Matrix) -> Matrix,
    tol: f64,
) where
    L: Module + Clone,
{
    let (y, ctx) = forward(&layer, &input);
    let w = loss_weights(y.rows(), y.cols());
    layer.zero_grad();
    let dinput = backward(&mut layer, &ctx, &w);

    let h = 1e-2f32;

    // 1. Input gradient.
    for i in sample_indices(input.data().len()) {
        let mut xp = input.clone();
        xp.data_mut()[i] += h;
        let lp = weighted_loss(&forward(&layer, &xp).0, &w);
        let mut xm = input.clone();
        xm.data_mut()[i] -= h;
        let lm = weighted_loss(&forward(&layer, &xm).0, &w);
        let numeric = (lp - lm) / (2.0 * h as f64);
        let analytic = dinput.data()[i] as f64;
        assert!(
            relative_error(analytic, numeric) < tol,
            "input grad [{i}]: analytic {analytic} vs numeric {numeric}"
        );
    }

    // 2. Parameter gradients. Collect analytic grads first.
    let mut analytic_grads: Vec<Vec<f32>> = Vec::new();
    layer.visit_params(&mut |p: &mut Param| analytic_grads.push(p.grad.data().to_vec()));

    for (pi, grads) in analytic_grads.iter().enumerate() {
        for i in sample_indices(grads.len()) {
            let mut lp = layer.clone();
            perturb(&mut lp, pi, i, h);
            let yp = weighted_loss(&forward(&lp, &input).0, &w);
            let mut lm = layer.clone();
            perturb(&mut lm, pi, i, -h);
            let ym = weighted_loss(&forward(&lm, &input).0, &w);
            let numeric = (yp - ym) / (2.0 * h as f64);
            let analytic = grads[i] as f64;
            assert!(
                relative_error(analytic, numeric) < tol,
                "param {pi} grad [{i}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }
}

fn perturb<L: Module>(layer: &mut L, param_index: usize, coord: usize, delta: f32) {
    let mut seen = 0usize;
    layer.visit_params(&mut |p: &mut Param| {
        if seen == param_index {
            p.value.data_mut()[coord] += delta;
        }
        seen += 1;
    });
}

/// Deterministically samples up to 40 coordinates to keep checks fast on
/// large parameter tensors while still covering every small tensor fully.
fn sample_indices(len: usize) -> Vec<usize> {
    if len <= 40 {
        (0..len).collect()
    } else {
        let stride = len / 40;
        (0..40)
            .map(|k| (k * stride + k * k % stride.max(1)) % len)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, LinearGrads};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn loss_weights_vary() {
        let w = loss_weights(3, 5);
        let distinct: std::collections::HashSet<_> =
            w.data().iter().map(|&x| (x * 1000.0) as i32).collect();
        assert!(distinct.len() > 3);
    }

    #[test]
    #[should_panic(expected = "grad")]
    fn detects_a_wrong_backward() {
        // A linear layer whose backward lies about the input gradient.
        let mut rng = StdRng::seed_from_u64(3);
        let lin = Linear::new(3, 2, &mut rng);
        let x = Matrix::from_fn(2, 3, |r, c| (r + c) as f32 * 0.1 + 0.1);
        check_gradients(
            lin,
            x,
            |l, input| {
                let mut y = Matrix::default();
                l.forward_into(input, &mut y);
                (y, input.clone())
            },
            |l, input, dy| {
                let (mut dx, mut g) = (Matrix::default(), LinearGrads::default());
                l.backward_into(input, dy, &mut dx, &mut g);
                l.replay(&g);
                dx.scale(3.0); // wrong on purpose
                dx
            },
            1e-2,
        );
    }
}
