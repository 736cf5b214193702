use crate::Matrix;
use rand::rngs::StdRng;
use rand::RngExt;

/// A trainable parameter: value, accumulated gradient, and Adam moments.
///
/// Layers own their `Param`s and expose them to the optimiser through
/// [`crate::Module::visit_params`]; gradients are accumulated by each
/// layer's `backward` and cleared by [`crate::Adam::step`].
#[derive(Debug, Clone)]
pub struct Param {
    pub value: Matrix,
    pub grad: Matrix,
    /// Adam first moment.
    pub(crate) m: Matrix,
    /// Adam second moment.
    pub(crate) v: Matrix,
}

impl Param {
    /// A parameter initialised to zeros (used for biases and LayerNorm β).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Param {
            value: Matrix::zeros(rows, cols),
            grad: Matrix::zeros(rows, cols),
            m: Matrix::zeros(rows, cols),
            v: Matrix::zeros(rows, cols),
        }
    }

    /// A parameter filled with a constant (used for LayerNorm γ = 1).
    pub fn constant(rows: usize, cols: usize, c: f32) -> Self {
        let mut p = Param::zeros(rows, cols);
        p.value = Matrix::from_fn(rows, cols, |_, _| c);
        p
    }

    /// Xavier/Glorot uniform initialisation for a `rows × cols` weight.
    pub fn xavier(rows: usize, cols: usize, rng: &mut StdRng) -> Self {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let mut p = Param::zeros(rows, cols);
        p.value = Matrix::from_fn(rows, cols, |_, _| rng.random_range(-bound..bound));
        p
    }

    /// Small-normal initialisation (σ = 0.02, BERT-style) for embeddings.
    pub fn normal_init(rows: usize, cols: usize, std: f32, rng: &mut StdRng) -> Self {
        let mut p = Param::zeros(rows, cols);
        // Box-Muller; rand's StandardNormal lives in rand_distr which we
        // deliberately avoid.
        p.value = Matrix::from_fn(rows, cols, |_, _| {
            let u1: f32 = rng.random_range(f32::EPSILON..1.0);
            let u2: f32 = rng.random_range(0.0..1.0);
            std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
        });
        p
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.data().len()
    }

    /// Whether the parameter is empty (degenerate shapes only).
    pub fn is_empty(&self) -> bool {
        self.value.data().is_empty()
    }
}

/// Anything holding trainable parameters. Gives optimisers a uniform way
/// to walk a model without the layers knowing about optimisation.
pub trait Module {
    /// Calls `f` on every parameter, in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Clears all gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total scalar parameter count.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }
}

/// A copy of every parameter value and both Adam moments of a module, in
/// [`Module::visit_params`] order, kept in one reused buffer: training
/// that restores its best epoch saves into it as often as it likes and
/// allocates only the first time. Gradients are not kept.
#[derive(Debug, Clone, Default)]
pub struct ParamSnapshot {
    words: Vec<f32>,
}

impl ParamSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        ParamSnapshot::default()
    }

    /// Replaces the snapshot with `module`'s values and moments.
    pub fn save(&mut self, module: &mut dyn Module) {
        self.words.clear();
        module.visit_params(&mut |p: &mut Param| {
            for m in [&p.value, &p.m, &p.v] {
                self.words.extend_from_slice(m.data());
            }
        });
    }

    /// Writes the saved values and moments back into `module`, which
    /// must have the parameter shapes it was saved from.
    pub fn restore(&self, module: &mut dyn Module) {
        let mut at = 0;
        module.visit_params(&mut |p: &mut Param| {
            for m in [&mut p.value, &mut p.m, &mut p.v] {
                let n = m.data().len();
                m.data_mut().copy_from_slice(&self.words[at..at + n]);
                at += n;
            }
        });
        assert_eq!(at, self.words.len(), "snapshot restored into another shape");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn xavier_within_bound() {
        let mut rng = StdRng::seed_from_u64(0);
        let p = Param::xavier(16, 16, &mut rng);
        let bound = (6.0 / 32.0f32).sqrt();
        assert!(p.value.data().iter().all(|&x| x.abs() <= bound));
        // Not all zero.
        assert!(p.value.norm() > 0.0);
    }

    #[test]
    fn normal_init_has_roughly_right_scale() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = Param::normal_init(64, 64, 0.02, &mut rng);
        let n = p.value.data().len() as f32;
        let mean: f32 = p.value.data().iter().sum::<f32>() / n;
        let var: f32 = p
            .value
            .data()
            .iter()
            .map(|&x| (x - mean).powi(2))
            .sum::<f32>()
            / n;
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!((var.sqrt() - 0.02).abs() < 0.01, "std {}", var.sqrt());
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::zeros(2, 2);
        p.grad = Matrix::from_vec(2, 2, vec![1.0; 4]);
        p.zero_grad();
        assert!(p.grad.data().iter().all(|&x| x == 0.0));
    }

    /// A restored snapshot brings back values and moments; later saves
    /// reuse the buffer.
    #[test]
    fn snapshot_restores_values_and_moments() {
        struct Two(Param, Param);
        impl Module for Two {
            fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
                f(&mut self.0);
                f(&mut self.1);
            }
        }
        let mut rng = StdRng::seed_from_u64(2);
        let mut module = Two(Param::xavier(2, 3, &mut rng), Param::zeros(1, 3));
        let mut adam = crate::Adam::new(0.1);
        module.0.grad = Matrix::from_fn(2, 3, |r, c| (r + c) as f32 - 1.5);
        adam.step(&mut module);
        let want = (module.0.clone(), module.1.clone());
        let mut snapshot = ParamSnapshot::new();
        snapshot.save(&mut module);
        module.0.grad = Matrix::from_fn(2, 3, |r, c| (r * c) as f32 + 0.5);
        module.1.grad = Matrix::from_vec(1, 3, vec![1.0, -1.0, 2.0]);
        adam.step(&mut module);
        snapshot.restore(&mut module);
        for (got, want) in [(&module.0, &want.0), (&module.1, &want.1)] {
            assert_eq!(got.value, want.value);
            assert_eq!(got.m, want.m);
            assert_eq!(got.v, want.v);
        }
    }

    #[test]
    fn constant_fill() {
        let p = Param::constant(1, 3, 1.0);
        assert_eq!(p.value.data(), &[1.0, 1.0, 1.0]);
    }
}
