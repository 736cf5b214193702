use crate::Matrix;

/// Mean softmax cross-entropy over rows of `logits` against integer
/// `targets`. Returns the loss and overwrites `logits` with `dlogits`,
/// which already includes the `1/n` mean factor. Each target probability
/// is read before its own element takes the `−1`.
pub fn softmax_xent_in_place(logits: &mut Matrix, targets: &[usize]) -> f32 {
    assert_eq!(logits.rows(), targets.len());
    let n = targets.len().max(1) as f32;
    logits.softmax_rows();
    let mut loss = 0.0f64;
    for (r, &t) in targets.iter().enumerate() {
        let row = logits.row_mut(r);
        let p = row[t].max(1e-12);
        loss -= (p as f64).ln();
        row[t] -= 1.0;
    }
    logits.scale(1.0 / n);
    (loss / n as f64) as f32
}

/// InfoNCE over a similarity matrix (Eq. 10 of the paper): for each anchor
/// row `u`, `L_u = -log( Σ_{v∈pos(u)} e^{s_uv} / Σ_v e^{s_uv} )`. Rows with
/// no positives are skipped. Returns the mean loss over anchors with
/// positives and `dL/dsim`.
pub fn info_nce(sim: &Matrix, positives: &[Vec<usize>]) -> (f32, Matrix) {
    assert_eq!(sim.rows(), positives.len());
    let n_cols = sim.cols();
    let mut dsim = Matrix::zeros(sim.rows(), n_cols);
    let mut loss = 0.0f64;
    let mut anchors = 0usize;
    for (r, pos) in positives.iter().enumerate() {
        if pos.is_empty() {
            continue;
        }
        anchors += 1;
        let row = sim.row(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|&x| (x - max).exp()).collect();
        let denom: f32 = exps.iter().sum();
        let num: f32 = pos.iter().map(|&j| exps[j]).sum();
        loss -= ((num / denom).max(1e-12) as f64).ln();
        // dL/ds_j = softmax_all(j) - [j ∈ pos] * softmax_pos(j)
        for j in 0..n_cols {
            dsim[(r, j)] = exps[j] / denom;
        }
        for &j in pos {
            dsim[(r, j)] -= exps[j] / num;
        }
    }
    let scale = 1.0 / anchors.max(1) as f32;
    dsim.scale(scale);
    ((loss * scale as f64) as f32, dsim)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The allocating form of [`softmax_xent_in_place`]: `(loss, dlogits)`.
    fn softmax_xent(logits: &Matrix, targets: &[usize]) -> (f32, Matrix) {
        let mut dlogits = logits.clone();
        let loss = softmax_xent_in_place(&mut dlogits, targets);
        (loss, dlogits)
    }

    #[test]
    fn xent_uniform_logits() {
        let logits = Matrix::zeros(2, 4);
        let (loss, d) = softmax_xent(&logits, &[0, 3]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
        // Gradient rows sum to zero.
        for r in 0..2 {
            let s: f32 = d.row(r).iter().sum();
            assert!(s.abs() < 1e-6);
        }
        // True class pushed up (negative grad), others down.
        assert!(d[(0, 0)] < 0.0 && d[(0, 1)] > 0.0);
    }

    #[test]
    fn xent_gradient_matches_numeric() {
        let logits = Matrix::from_vec(1, 3, vec![0.2, -0.1, 0.5]);
        let (_, d) = softmax_xent(&logits, &[2]);
        let h = 1e-3;
        for j in 0..3 {
            let mut lp = logits.clone();
            lp[(0, j)] += h;
            let mut lm = logits.clone();
            lm[(0, j)] -= h;
            let n = (softmax_xent(&lp, &[2]).0 - softmax_xent(&lm, &[2]).0) / (2.0 * h);
            assert!((d[(0, j)] - n).abs() < 1e-3, "j={j}");
        }
    }

    #[test]
    fn info_nce_perfect_separation_is_low() {
        // Positives have high similarity, negatives low.
        let sim = Matrix::from_vec(1, 3, vec![10.0, -10.0, -10.0]);
        let (loss, _) = info_nce(&sim, &[vec![0]]);
        assert!(loss < 1e-3);
        let sim_bad = Matrix::from_vec(1, 3, vec![-10.0, 10.0, 10.0]);
        let (loss_bad, _) = info_nce(&sim_bad, &[vec![0]]);
        assert!(loss_bad > 5.0);
    }

    #[test]
    fn info_nce_gradient_matches_numeric() {
        let sim = Matrix::from_vec(2, 3, vec![0.5, -0.2, 0.1, 0.0, 0.3, -0.4]);
        let pos = vec![vec![1], vec![0, 2]];
        let (_, d) = info_nce(&sim, &pos);
        let h = 1e-3;
        for r in 0..2 {
            for c in 0..3 {
                let mut sp = sim.clone();
                sp[(r, c)] += h;
                let mut sm = sim.clone();
                sm[(r, c)] -= h;
                let n = (info_nce(&sp, &pos).0 - info_nce(&sm, &pos).0) / (2.0 * h);
                assert!((d[(r, c)] - n).abs() < 1e-3, "({r},{c})");
            }
        }
    }

    #[test]
    fn info_nce_skips_rows_without_positives() {
        let sim = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let (loss, d) = info_nce(&sim, &[vec![], vec![0]]);
        assert!(loss.is_finite());
        assert_eq!(d.row(0), &[0.0, 0.0]);
    }
}
