use crate::Matrix;

/// Branch-free rational tanh (the classic single-precision Padé
/// approximant used by SIMD math libraries): odd 13th-degree numerator
/// over an even 6th-degree denominator, input clamped to ±7.998 where
/// tanh saturates to within float precision. Max error vs `f32::tanh` is
/// a few ULP over the whole clamped range.
///
/// This is the canonical tanh of the GELU path. Unlike `f32::tanh` (an
/// opaque libm call that forces one serial call per element), it is
/// straight-line arithmetic, so the 8-wide lane loops in
/// [`gelu_in_place`] vectorize end to end. It is pure and elementwise,
/// hence trivially deterministic at any thread count.
#[inline]
pub fn tanh_approx(x: f32) -> f32 {
    const CLAMP: f32 = 7.998_811_7;
    let x = x.clamp(-CLAMP, CLAMP);
    let x2 = x * x;
    // Numerator (odd powers), Horner in x².
    let mut p = -2.760_768_4e-16f32;
    p = p * x2 + 2.000_188e-13;
    p = p * x2 + -8.604_672e-11;
    p = p * x2 + 5.122_297e-8;
    p = p * x2 + 1.485_722_4e-5;
    p = p * x2 + 6.372_619_3e-4;
    p = p * x2 + 4.893_524_6e-3;
    let p = p * x;
    // Denominator (even powers).
    let mut q = 1.198_258_4e-6f32;
    q = q * x2 + 1.185_347_1e-4;
    q = q * x2 + 2.268_434_6e-3;
    q = q * x2 + 4.893_525e-3;
    p / q
}

/// GELU with the tanh approximation (as in BERT), evaluated through the
/// canonical [`tanh_approx`].
#[inline]
pub fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + tanh_approx(C * (x + 0.044715 * x * x * x)))
}

/// d GELU / dx for the tanh approximation (same [`tanh_approx`] as the
/// forward pass, so gradient checks stay consistent).
#[inline]
pub fn gelu_grad(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x3 = 0.044715 * x * x * x;
    let t = tanh_approx(C * (x + x3));
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x)
}

/// GELU over a slice in explicit 8-wide lanes: full chunks load into a
/// `[f32; LANES]` register block (each lane evaluates the same
/// straight-line [`gelu`], so the block vectorizes), the ragged tail runs
/// the identical scalar expression. Elementwise, so bit-identical to
/// `map(gelu)` by construction.
pub fn gelu_in_place(xs: &mut [f32]) {
    use crate::lanes::LANES;
    let split = xs.len() - xs.len() % LANES;
    for chunk in xs[..split].chunks_exact_mut(LANES) {
        let mut lane = [0.0f32; LANES];
        lane.copy_from_slice(chunk);
        for v in lane.iter_mut() {
            *v = gelu(*v);
        }
        chunk.copy_from_slice(&lane);
    }
    for x in &mut xs[split..] {
        *x = gelu(*x);
    }
}

/// Branch-free single-precision `exp` (Cephes-style): range reduction
/// `x = k·ln2 + r` with round-to-nearest via the `1.5·2²³` magic-number
/// trick (baseline x86-64 has no round instruction), a degree-6
/// polynomial on `r ∈ [−ln2/2, ln2/2]`, and a bit-level `2^k` scale.
/// Input is clamped to `[−87.33, 88.0]`, where the result stays a normal
/// `f32`; relative error vs `f32::exp` is a few ULP across that range.
///
/// This is the canonical exponential of the softmax path. Unlike
/// `f32::exp` (an opaque libm call, one serial call per element), it is
/// straight-line arithmetic — clamp, multiply, bit tricks, Horner — so
/// the exp pass over a softmax row vectorizes. Pure and elementwise,
/// hence deterministic at any thread count.
#[inline]
pub fn exp_approx(x: f32) -> f32 {
    const LO: f32 = -87.336_54;
    const HI: f32 = 88.0;
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    // Exactly 11_357 / 2¹⁴, so `k·LN2_HI` is exact for |k| < 2¹⁰.
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    const MAGIC: f32 = 12_582_912.0; // 1.5 · 2²³
    let x = x.clamp(LO, HI);
    // k = round(x · log2(e)); the add pushes the value into the mantissa
    // range where rounding truncates the fraction, the subtract recovers
    // the rounded integer as a float, and the low mantissa bits of the
    // shifted value are k itself.
    let shifted = x * LOG2E + MAGIC;
    let k = shifted - MAGIC;
    let ki = (shifted.to_bits() as i32).wrapping_sub(0x4B40_0000);
    // r = x − k·ln2, with ln2 split high/low so the product stays exact.
    let r = x - k * LN2_HI - k * LN2_LO;
    // exp(r) ≈ 1 + r + r²·P(r) on the reduced range.
    let mut p = 1.987_569_2e-4f32;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_5e-1;
    p = p * r + 5e-1;
    let y = p * r * r + r + 1.0;
    y * f32::from_bits(((127 + ki) as u32) << 23)
}

/// `exp_approx(xs[i] − max)` over a slice in explicit 8-wide lanes, the
/// exp pass of the canonical softmax: full chunks evaluate in a
/// `[f32; LANES]` register block, the ragged tail runs the identical
/// scalar expression — bit-identical to a plain `map` by construction.
pub fn exp_shifted_in_place(xs: &mut [f32], max: f32) {
    use crate::lanes::LANES;
    let split = xs.len() - xs.len() % LANES;
    for chunk in xs[..split].chunks_exact_mut(LANES) {
        let mut lane = [0.0f32; LANES];
        lane.copy_from_slice(chunk);
        for v in lane.iter_mut() {
            *v = exp_approx(*v - max);
        }
        chunk.copy_from_slice(&lane);
    }
    for x in &mut xs[split..] {
        *x = exp_approx(*x - max);
    }
}

/// Logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// d sigmoid / dx expressed through the output `s = sigmoid(x)`.
#[inline]
pub fn sigmoid_grad_from_output(s: f32) -> f32 {
    s * (1.0 - s)
}

/// GELU's backward pass: turns dL/dy into dL/dx in place: `d[i] *= gelu_grad(x[i])`, where
/// `x` is the forward input.
pub fn gelu_backward_in_place(x: &Matrix, d: &mut Matrix) {
    assert_eq!((x.rows(), x.cols()), (d.rows(), d.cols()));
    for (g, &xi) in d.data_mut().iter_mut().zip(x.data()) {
        *g *= gelu_grad(xi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_grad(f: impl Fn(f32) -> f32, x: f32) -> f32 {
        let h = 1e-3;
        (f(x + h) - f(x - h)) / (2.0 * h)
    }

    #[test]
    fn gelu_known_values() {
        assert!((gelu(0.0)).abs() < 1e-6);
        assert!((gelu(100.0) - 100.0).abs() < 1e-3);
        assert!(gelu(-100.0).abs() < 1e-3);
        // gelu(1) ~ 0.8412
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_numeric() {
        for &x in &[-3.0f32, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0] {
            let a = gelu_grad(x);
            let n = numeric_grad(gelu, x);
            assert!((a - n).abs() < 1e-2, "x={x}: {a} vs {n}");
        }
    }

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(10.0) > 0.999);
        assert!(sigmoid(-10.0) < 0.001);
        let s = sigmoid(0.3);
        let n = numeric_grad(sigmoid, 0.3);
        assert!((sigmoid_grad_from_output(s) - n).abs() < 1e-3);
    }

    #[test]
    fn tanh_approx_tracks_libm_tanh() {
        let mut x = -9.0f32;
        while x < 9.0 {
            let (a, t) = (tanh_approx(x), x.tanh());
            assert!((a - t).abs() < 1e-5, "x={x}: {a} vs {t}");
            assert!(a.abs() <= 1.0 + 1e-6, "x={x}: out of range {a}");
            x += 0.0137;
        }
        assert_eq!(tanh_approx(0.0), 0.0);
    }

    #[test]
    fn exp_approx_tracks_libm_exp() {
        let mut x = -87.0f32;
        while x < 20.0 {
            let (a, e) = (exp_approx(x), x.exp());
            let rel = ((a - e) / e).abs();
            assert!(rel < 3e-7, "x={x}: {a} vs {e} (rel {rel})");
            x += 0.0173;
        }
        assert_eq!(exp_approx(0.0), 1.0);
        // Clamped deep-underflow inputs stay tiny, positive, and finite.
        let tiny = exp_approx(-1000.0);
        assert!(tiny > 0.0 && tiny < 1e-37);
        assert!(exp_approx(1000.0).is_finite());
    }

    #[test]
    fn exp_shifted_in_place_matches_map_on_ragged_lengths() {
        for n in [1usize, 7, 8, 9, 16, 23, 64, 65] {
            let xs: Vec<f32> = (0..n).map(|i| (i as f32 * 0.61).cos() * 5.0).collect();
            let max = 5.0f32;
            let want: Vec<u32> = xs.iter().map(|&x| exp_approx(x - max).to_bits()).collect();
            let mut got = xs.clone();
            exp_shifted_in_place(&mut got, max);
            let got: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn gelu_in_place_matches_map_on_ragged_lengths() {
        for n in [1usize, 7, 8, 9, 16, 23, 64, 65] {
            let xs: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
            let want: Vec<u32> = xs.iter().map(|&x| gelu(x).to_bits()).collect();
            let mut got = xs.clone();
            gelu_in_place(&mut got);
            let got: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn matrix_wrappers() {
        let x = Matrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]);
        let mut y = x.clone();
        gelu_in_place(y.data_mut());
        assert!((y[(0, 1)]).abs() < 1e-6);
        let mut dx = Matrix::from_vec(1, 3, vec![1.0, 1.0, 1.0]);
        gelu_backward_in_place(&x, &mut dx);
        assert!((dx[(0, 2)] - gelu_grad(2.0)).abs() < 1e-6);
    }
}
