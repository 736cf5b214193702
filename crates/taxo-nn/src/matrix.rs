use std::fmt;
use std::ops::{Index, IndexMut};

use crate::parallel;

/// Minimum multiply-accumulate count before a matmul kernel goes
/// parallel. Below this, handing row blocks to the compute pool and
/// waking a worker dominates the arithmetic, so the kernels fall back
/// to the sequential loop. `1 << 20` MACs is roughly a
/// `128 × 64 · 64 × 128` product.
const PAR_MIN_MACS: usize = 1 << 20;

/// Tile edge for the blocked [`Matrix::transpose`]: 32×32 f32 tiles (4 KiB
/// read + 4 KiB write) sit comfortably in L1 on every current core.
const TRANSPOSE_BLOCK: usize = 32;

/// One output row of `a · b`: `out_row[j] = Σ_k a_row[k] * b[k][j]`,
/// accumulated in ascending `k` — the shared inner kernel of the
/// sequential and row-parallel `matmul` paths, so both produce bitwise
/// identical rows. Dense: no zero-skip branch, the inner loop
/// auto-vectorises instead of branching per scalar. Four `k` at a time:
/// each output element takes its four adds in `k` order while it sits in
/// a register, instead of one load and store per `k`.
#[inline]
fn matmul_row(a_row: &[f32], b: &Matrix, out_row: &mut [f32]) {
    let n = out_row.len();
    let quads = a_row.chunks_exact(4);
    let rest = quads.remainder();
    for (q, a) in quads.enumerate() {
        let k = 4 * q;
        let (b0, b1) = (&b.row(k)[..n], &b.row(k + 1)[..n]);
        let (b2, b3) = (&b.row(k + 2)[..n], &b.row(k + 3)[..n]);
        let cols = out_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3);
        for ((((o, &v0), &v1), &v2), &v3) in cols {
            let mut acc = *o;
            acc += a[0] * v0;
            acc += a[1] * v1;
            acc += a[2] * v2;
            acc += a[3] * v3;
            *o = acc;
        }
    }
    let k0 = a_row.len() - rest.len();
    for (k, &a) in (k0..).zip(rest) {
        for (o, &bv) in out_row.iter_mut().zip(b.row(k)) {
            *o += a * bv;
        }
    }
}

/// One output row of `a · bᵀ`: independent dot products in the canonical
/// 8-wide lane order of [`crate::lanes::dot`]. Columns go four at a time
/// through the register-blocked [`crate::lanes::dot4`] (bit-identical to
/// four `dot` calls, one pass over `a_row`, four independent add chains),
/// with a `dot` loop for the ragged remainder. Shared by the sequential
/// and row-parallel `matmul_nt` paths, so thread count never changes the
/// accumulation order of any output element.
#[inline]
fn matmul_nt_row(a_row: &[f32], b: &Matrix, out_row: &mut [f32]) {
    let blocks = out_row.len() / 4 * 4;
    let mut j = 0;
    while j < blocks {
        let d = crate::lanes::dot4(a_row, b.row(j), b.row(j + 1), b.row(j + 2), b.row(j + 3));
        out_row[j..j + 4].copy_from_slice(&d);
        j += 4;
    }
    for (o, jj) in out_row[blocks..].iter_mut().zip(blocks..) {
        *o = crate::lanes::dot(a_row, b.row(jj));
    }
}

/// A dense row-major `f32` matrix — the only tensor type the workspace
/// needs. Sequences are `(len × d_model)`, parameter matrices are
/// `(out × in)`, node-embedding tables are `(nodes × d)`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// An all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Matrix { rows, cols, data }
    }

    /// A `1 × n` row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        Matrix {
            rows: 1,
            cols: data.len(),
            data,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes `self` to `rows × cols`, reusing the existing buffer.
    /// Contents are reset to zero. Allocates only when the new shape needs
    /// more capacity than the buffer ever had — the warm-up contract of
    /// the inference scratch arena: after the largest shape has been seen
    /// once, every later reshape is allocation-free.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        let need = rows * cols;
        self.data.clear();
        self.data.resize(need, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Reshapes like [`Matrix::reset`] but skips the zero fill when the
    /// buffer already holds exactly `rows · cols` elements. For outputs
    /// whose every element the caller assigns (`out[i][j] = …`) the
    /// memset is pure waste on the hot serving path. Contents are
    /// unspecified on return — callers must overwrite everything; any
    /// kernel that *accumulates* (`+=`) keeps using [`Matrix::reset`].
    pub fn reset_for_overwrite(&mut self, rows: usize, cols: usize) {
        let need = rows * cols;
        if self.data.len() != need {
            self.data.clear();
            self.data.resize(need, 0.0);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// Copies `other` into `self`, reshaping via
    /// [`Matrix::reset_for_overwrite`] (so the buffer is reused; see the
    /// warm-up contract of [`Matrix::reset`]).
    pub fn copy_from(&mut self, other: &Matrix) {
        self.reset_for_overwrite(other.rows, other.cols);
        self.data.copy_from_slice(&other.data);
    }

    /// Matrix product `self · other`.
    ///
    /// Row-parallel above `PAR_MIN_MACS` multiply-accumulates: each
    /// thread owns a contiguous block of output rows and runs the same
    /// i-k-j row kernel as the sequential path, so the result is bitwise
    /// identical at any thread count.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] writing into a caller-owned output (reshaped via
    /// [`Matrix::reset`], so warm buffers are reused without allocating).
    /// Runs the identical row kernel with the identical parallel gating,
    /// so the result is bitwise equal to `matmul` at any thread count.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.reset(self.rows, other.cols);
        let cols = other.cols;
        let macs = self.rows * self.cols * cols;
        if parallel::threads() > 1 && macs >= PAR_MIN_MACS && self.rows > 1 {
            parallel::par_row_chunks_mut(&mut out.data, cols, |first_row, chunk| {
                for (r, out_row) in chunk.chunks_mut(cols).enumerate() {
                    matmul_row(self.row(first_row + r), other, out_row);
                }
            });
        } else {
            // i-k-j loop order: streams through `other` rows, cache friendly.
            for i in 0..self.rows {
                let out_row = &mut out.data[i * cols..(i + 1) * cols];
                matmul_row(self.row(i), other, out_row);
            }
        }
    }

    /// `self · otherᵀ` without materialising the transpose.
    ///
    /// Row-parallel above `PAR_MIN_MACS` multiply-accumulates; each
    /// output row is a set of dot products owned by one thread, bitwise
    /// identical to the sequential path.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_nt`] writing into a caller-owned output (reshaped
    /// via [`Matrix::reset`]); same kernel, same gating, bitwise equal.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        out.reset_for_overwrite(self.rows, other.rows);
        let cols = other.rows;
        let macs = self.rows * self.cols * cols;
        if parallel::threads() > 1 && macs >= PAR_MIN_MACS && self.rows > 1 {
            parallel::par_row_chunks_mut(&mut out.data, cols, |first_row, chunk| {
                for (r, out_row) in chunk.chunks_mut(cols).enumerate() {
                    matmul_nt_row(self.row(first_row + r), other, out_row);
                }
            });
        } else {
            for i in 0..self.rows {
                let out_row = &mut out.data[i * cols..(i + 1) * cols];
                matmul_nt_row(self.row(i), other, out_row);
            }
        }
    }

    /// `selfᵀ · other` without materialising the transpose. Wraps
    /// [`Matrix::matmul_tn_into`].
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        out.matmul_tn_into(self, other);
        out
    }

    /// `aᵀ · b` into `self` (reshaped via [`Matrix::reset`]): the
    /// weight-gradient kernel of every training backward pass
    /// (`dW = dyᵀ · x`, and the tied MLM head's `dE = dlogitsᵀ · h`),
    /// whose values a replay later adds to the gradients (see
    /// [`crate::scratch`]).
    ///
    /// Each output element is summed from zero over `k` ascending,
    /// skipping `a`'s zero scalars: `a` is often a one-hot-ish gather
    /// matrix, and a skipped scalar elides a whole row update.
    /// Row-parallel above `PAR_MIN_MACS` multiply-accumulates: each
    /// thread owns a contiguous block of output rows and scans `k`
    /// ascending within it, matching the sequential per-element order
    /// exactly (bitwise identical).
    pub fn matmul_tn_into(&mut self, a: &Matrix, b: &Matrix) {
        assert_eq!(
            a.rows, b.rows,
            "matmul_tn: ({}x{})ᵀ · {}x{}",
            a.rows, a.cols, b.rows, b.cols
        );
        self.reset(a.cols, b.cols);
        let cols = b.cols;
        let macs = a.cols * cols * a.rows;
        if parallel::threads() > 1 && macs >= PAR_MIN_MACS && a.cols > 1 {
            parallel::par_row_chunks_mut(&mut self.data, cols, |first_row, chunk| {
                for k in 0..a.rows {
                    let a_row = a.row(k);
                    let b_row = b.row(k);
                    for (r, out_row) in chunk.chunks_mut(cols).enumerate() {
                        let x = a_row[first_row + r];
                        if x == 0.0 {
                            continue;
                        }
                        for (o, &bv) in out_row.iter_mut().zip(b_row) {
                            *o += x * bv;
                        }
                    }
                }
            });
        } else {
            for k in 0..a.rows {
                let a_row = a.row(k);
                let b_row = b.row(k);
                for (i, &x) in a_row.iter().enumerate() {
                    if x == 0.0 {
                        continue;
                    }
                    let out_row = &mut self.data[i * cols..(i + 1) * cols];
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += x * bv;
                    }
                }
            }
        }
    }

    /// `m.sum_rows()` into a `1 × cols` `self`, bit for bit, without
    /// allocating: each column is summed from zero in ascending row order.
    pub fn sum_rows_into(&mut self, m: &Matrix) {
        self.reset(1, m.cols);
        for r in 0..m.rows {
            for (o, &a) in self.data.iter_mut().zip(m.row(r)) {
                *o += a;
            }
        }
    }

    /// Explicit transpose, tiled in `TRANSPOSE_BLOCK`-square blocks so
    /// both the strided reads and the contiguous writes stay within one
    /// cache-resident tile at a time.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for rb in (0..self.rows).step_by(TRANSPOSE_BLOCK) {
            let r_end = (rb + TRANSPOSE_BLOCK).min(self.rows);
            for cb in (0..self.cols).step_by(TRANSPOSE_BLOCK) {
                let c_end = (cb + TRANSPOSE_BLOCK).min(self.cols);
                for r in rb..r_end {
                    for c in cb..c_end {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// Element-wise `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise product (Hadamard).
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scales every element in place.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Returns a new matrix with `f` applied element-wise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` element-wise in place — the allocation-free counterpart
    /// of [`Matrix::map`] for hot paths that no longer need the input.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise `self *= other` — the allocation-free counterpart of
    /// [`Matrix::hadamard`].
    pub fn hadamard_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
    }

    /// Adds row-vector `bias` (1×cols) to every row.
    pub fn add_row_broadcast(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1);
        assert_eq!(bias.cols, self.cols);
        for r in 0..self.rows {
            for (a, &b) in self.row_mut(r).iter_mut().zip(&bias.data) {
                *a += b;
            }
        }
    }

    /// Sums rows into a 1×cols vector (gradient of a row broadcast).
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::default();
        out.sum_rows_into(self);
        out
    }

    /// In-place row-wise softmax.
    pub fn softmax_rows(&mut self) {
        for r in 0..self.rows {
            softmax_in_place(self.row_mut(r));
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Extracts rows `[start, start+len)` as a new matrix.
    pub fn slice_rows(&self, start: usize, len: usize) -> Matrix {
        assert!(start + len <= self.rows);
        Matrix {
            rows: len,
            cols: self.cols,
            data: self.data[start * self.cols..(start + len) * self.cols].to_vec(),
        }
    }

    /// Stacks matrices with equal column counts vertically.
    pub fn vstack(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty());
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "vstack: column mismatch");
            data.extend_from_slice(&p.data);
        }
        Matrix { rows, cols, data }
    }

    /// Concatenates matrices with equal row counts horizontally.
    pub fn hstack(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty());
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for p in parts {
                assert_eq!(p.rows, rows, "hstack: row mismatch");
                out.row_mut(r)[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        out
    }
}

/// Numerically stable softmax over a slice, in place. The max and the
/// exponential sum run in the canonical lane order of [`crate::lanes`];
/// the exp pass is the elementwise lane kernel
/// [`crate::activations::exp_shifted_in_place`] (branch-free
/// [`crate::activations::exp_approx`], so it vectorizes), and the
/// denominator is a fixed-order lane reduction over the written values.
pub fn softmax_in_place(xs: &mut [f32]) {
    let max = crate::lanes::max(xs);
    crate::activations::exp_shifted_in_place(xs, max);
    let sum = crate::lanes::sum(xs);
    if sum > 0.0 {
        for x in xs.iter_mut() {
            *x /= sum;
        }
    }
}

impl Default for Matrix {
    /// An empty `0 × 0` matrix — the initial state of a scratch buffer,
    /// which grows on first [`Matrix::reset`].
    fn default() -> Self {
        Matrix {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(6) {
            writeln!(f, "  {:?}", &self.row(r)[..self.cols.min(8)])?;
        }
        if self.rows > 6 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, vals: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, vals.to_vec())
    }

    #[test]
    fn matmul_known_values() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = m(2, 3, &[1., -2., 3., 0.5, 5., -6.]);
        let b = m(4, 3, &[1., 0., 2., -1., 3., 1., 2., 2., 2., 0., 1., 0.]);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = m(3, 2, &[1., -2., 3., 0.5, 5., -6.]);
        let b = m(3, 4, &[1., 0., 2., -1., 3., 1., 2., 2., 2., 0., 1., 0.]);
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut a = m(2, 3, &[1., 2., 3., -1., 0., 1.]);
        a.softmax_rows();
        for r in 0..2 {
            let s: f32 = a.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(a.row(r).windows(2).all(|w| w[0] < w[1]), "monotone inputs");
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut a = m(1, 3, &[1000., 1001., 1002.]);
        a.softmax_rows();
        let mut b = m(1, 3, &[0., 1., 2.]);
        b.softmax_rows();
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn broadcast_and_sum_rows_are_adjoint_shapes() {
        let mut a = Matrix::zeros(3, 2);
        let bias = m(1, 2, &[1., -1.]);
        a.add_row_broadcast(&bias);
        assert_eq!(a.data(), &[1., -1., 1., -1., 1., -1.]);
        assert_eq!(a.sum_rows().data(), &[3., -3.]);
    }

    #[test]
    fn stack_operations() {
        let a = m(1, 2, &[1., 2.]);
        let b = m(2, 2, &[3., 4., 5., 6.]);
        let v = Matrix::vstack(&[&a, &b]);
        assert_eq!(v.rows(), 3);
        assert_eq!(v.data(), &[1., 2., 3., 4., 5., 6.]);

        let c = m(2, 1, &[9., 10.]);
        let h = Matrix::hstack(&[&b, &c]);
        assert_eq!(h.cols(), 3);
        assert_eq!(h.data(), &[3., 4., 9., 5., 6., 10.]);
    }

    #[test]
    fn slice_rows_extracts_block() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let s = a.slice_rows(1, 2);
        assert_eq!(s.data(), &[3., 4., 5., 6.]);
    }

    #[test]
    fn hadamard_and_scale() {
        let a = m(1, 3, &[1., 2., 3.]);
        let b = m(1, 3, &[2., 0.5, -1.]);
        assert_eq!(a.hadamard(&b).data(), &[2., 1., -3.]);
        let mut c = a.clone();
        c.scale(2.0);
        assert_eq!(c.data(), &[2., 4., 6.]);
    }

    #[test]
    fn norm_known_value() {
        let a = m(1, 2, &[3., 4.]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn map_in_place_matches_map() {
        let a = m(2, 3, &[1., -2., 3., 0., 5., -6.]);
        let mut b = a.clone();
        b.map_in_place(|x| x * x + 1.0);
        assert_eq!(b, a.map(|x| x * x + 1.0));
    }

    #[test]
    fn hadamard_assign_matches_hadamard() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let b = m(2, 2, &[0.5, -1., 2., 0.]);
        let mut c = a.clone();
        c.hadamard_assign(&b);
        assert_eq!(c, a.hadamard(&b));
    }

    /// Pseudo-random matrix with zeros sprinkled in, so the `matmul_tn`
    /// zero-skip branch is exercised.
    fn pseudo_random(rows: usize, cols: usize, seed: u32) -> Matrix {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            if state.is_multiple_of(7) {
                0.0
            } else {
                (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
            }
        })
    }

    /// Above `PAR_MIN_MACS`, all three kernels must produce bitwise
    /// identical output at 1 and many threads (each output row is owned
    /// by one thread with sequential accumulation order).
    #[test]
    fn parallel_kernels_bitwise_match_sequential() {
        let _guard = crate::parallel::test_lock();
        // 128³ = 2 MiMACs: comfortably above the parallel threshold.
        let a = pseudo_random(128, 128, 1);
        let b = pseudo_random(128, 128, 2);

        crate::parallel::set_threads(1);
        let mm_seq = a.matmul(&b);
        let nt_seq = a.matmul_nt(&b);
        let tn_seq = a.matmul_tn(&b);

        crate::parallel::set_threads(5);
        let mm_par = a.matmul(&b);
        let nt_par = a.matmul_nt(&b);
        let tn_par = a.matmul_tn(&b);
        crate::parallel::set_threads(1);

        // Matrix: PartialEq compares the f32 buffers exactly; all inputs
        // are finite and no NaNs are produced, so == is bitwise here.
        assert_eq!(mm_seq, mm_par, "matmul");
        assert_eq!(nt_seq, nt_par, "matmul_nt");
        assert_eq!(tn_seq, tn_par, "matmul_tn");
    }

    /// The gradient kernels must compute exactly the naive per-element
    /// folds — `k` ascending from zero, `matmul_tn` skipping `a`'s zero
    /// scalars — at shapes on both sides of the four-`k` blocks, whatever
    /// the output buffer held before.
    #[test]
    fn gradient_kernels_match_naive_folds() {
        let mut tn = pseudo_random(9, 9, 7);
        let mut mm = pseudo_random(2, 3, 8);
        let mut sums = pseudo_random(2, 3, 9);
        for (rows, a_cols, b_cols) in [(1, 1, 1), (11, 16, 16), (3, 217, 16), (5, 7, 150)] {
            let a = pseudo_random(rows, a_cols, 3);
            let b = pseudo_random(rows, b_cols, 4);
            tn.matmul_tn_into(&a, &b);
            let want = Matrix::from_fn(a_cols, b_cols, |i, j| {
                (0..rows).fold(0.0f32, |s, k| {
                    let x = a[(k, i)];
                    if x == 0.0 {
                        s
                    } else {
                        s + x * b[(k, j)]
                    }
                })
            });
            assert_eq!(tn, want, "matmul_tn_into {rows}x{a_cols}x{b_cols}");

            let w = pseudo_random(b_cols, a_cols, 5);
            b.matmul_into(&w, &mut mm);
            let want = Matrix::from_fn(rows, a_cols, |i, j| {
                (0..b_cols).fold(0.0f32, |s, k| s + b[(i, k)] * w[(k, j)])
            });
            assert_eq!(mm, want, "matmul_into {rows}x{b_cols}x{a_cols}");

            sums.sum_rows_into(&b);
            let want = Matrix::from_fn(1, b_cols, |_, c| {
                (0..rows).fold(0.0f32, |s, r| s + b[(r, c)])
            });
            assert_eq!(sums, want, "sum_rows_into {rows}x{b_cols}");
        }
    }

    /// The naive index-by-index transpose the blocked kernel replaced;
    /// kept as the property-test oracle.
    fn naive_transpose(a: &Matrix) -> Matrix {
        Matrix::from_fn(a.cols(), a.rows(), |r, c| a[(c, r)])
    }

    proptest::proptest! {
        #[test]
        fn blocked_transpose_matches_naive(
            rows in 1usize..70,
            cols in 1usize..70,
            seed in 0u32..1000,
        ) {
            let a = pseudo_random(rows, cols, seed);
            let t = a.transpose();
            proptest::prop_assert_eq!(&t, &naive_transpose(&a));
            // Involution: transposing twice restores the original.
            proptest::prop_assert_eq!(&t.transpose(), &a);
        }
    }
}
