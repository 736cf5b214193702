use crate::{Matrix, Module, Param};
use rand::rngs::StdRng;

/// A lookup table mapping ids to `dim`-dimensional rows.
///
/// Stateless across calls: the ids a forward gathered are the context its
/// backward scatters through, and the caller keeps them.
#[derive(Debug, Clone)]
pub struct Embedding {
    pub table: Param,
}

impl Embedding {
    /// A BERT-style σ=0.02 normal-initialised table.
    pub fn new(vocab: usize, dim: usize, rng: &mut StdRng) -> Self {
        Embedding {
            table: Param::normal_init(vocab, dim, 0.02, rng),
        }
    }

    /// Gathers the rows for `ids` into `out` (`ids.len() × dim`),
    /// reusing its buffer.
    pub fn forward_into(&self, ids: &[u32], out: &mut Matrix) {
        out.reset_for_overwrite(ids.len(), self.dim());
        for (r, &id) in ids.iter().enumerate() {
            out.row_mut(r)
                .copy_from_slice(self.table.value.row(id as usize));
        }
    }

    /// Scatters `dout` row `r` into the gradient row of the `r`-th id,
    /// in id order. The whole backward is this replay: an embedding's
    /// recorded update is the gradient rows themselves, kept by the
    /// caller (see [`crate::TransformerEncoder::replay`]).
    pub fn backward(&mut self, ids: impl IntoIterator<Item = u32>, dout: &Matrix) {
        for (r, id) in ids.into_iter().enumerate() {
            let grad_row = self.table.grad.row_mut(id as usize);
            for (g, &d) in grad_row.iter_mut().zip(dout.row(r)) {
                *g += d;
            }
        }
    }

    /// Number of embeddings.
    pub fn vocab_size(&self) -> usize {
        self.table.value.rows()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.table.value.cols()
    }
}

impl Module for Embedding {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn gather_returns_table_rows() {
        let mut rng = StdRng::seed_from_u64(0);
        let emb = Embedding::new(5, 3, &mut rng);
        let mut out = Matrix::default();
        emb.forward_into(&[2, 2, 4], &mut out);
        assert_eq!(out.row(0), emb.table.value.row(2));
        assert_eq!(out.row(1), emb.table.value.row(2));
        assert_eq!(out.row(2), emb.table.value.row(4));
    }

    #[test]
    fn backward_scatters_and_accumulates_repeats() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut emb = Embedding::new(4, 2, &mut rng);
        let dout = Matrix::from_vec(3, 2, vec![1., 2., 10., 20., 5., 6.]);
        emb.backward([1, 1, 3], &dout);
        assert_eq!(emb.table.grad.row(1), &[11., 22.]);
        assert_eq!(emb.table.grad.row(3), &[5., 6.]);
        assert_eq!(emb.table.grad.row(0), &[0., 0.]);
    }

    #[test]
    fn shape_accessors() {
        let mut rng = StdRng::seed_from_u64(0);
        let emb = Embedding::new(10, 7, &mut rng);
        assert_eq!(emb.vocab_size(), 10);
        assert_eq!(emb.dim(), 7);
    }
}
