use crate::{Module, Param};

/// Adam optimiser (Kingma & Ba, 2015) with optional decoupled weight decay.
#[derive(Debug, Clone)]
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub weight_decay: f32,
    /// Global step counter for bias correction.
    t: u64,
}

impl Adam {
    /// Adam with standard hyper-parameters and the given learning rate.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
        }
    }

    /// Adds decoupled weight decay (AdamW).
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Applies one update to every parameter of `module` and clears the
    /// gradients.
    pub fn step(&mut self, module: &mut dyn Module) {
        self.begin_step().apply(module);
    }

    /// Takes one step, counted as one `nn.optim.steps`, and returns its
    /// update rule for the caller to apply to every parameter of the
    /// module, in any grouping and on any thread: Adam is elementwise,
    /// so applying it to disjoint parameter groups (each group once)
    /// updates every value exactly as [`Adam::step`] does.
    pub fn begin_step(&mut self) -> AdamStep {
        taxo_obs::counter!("nn.optim.steps").inc();
        self.t += 1;
        let t = self.t as f32;
        AdamStep {
            lr: self.lr,
            b1: self.beta1,
            b2: self.beta2,
            eps: self.eps,
            wd: self.weight_decay,
            bc1: 1.0 - self.beta1.powf(t),
            bc2: 1.0 - self.beta2.powf(t),
        }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

/// One [`Adam`] step's update rule: the hyper-parameters and the step's
/// bias corrections.
#[derive(Debug, Clone, Copy)]
pub struct AdamStep {
    lr: f32,
    b1: f32,
    b2: f32,
    eps: f32,
    wd: f32,
    bc1: f32,
    bc2: f32,
}

impl AdamStep {
    /// Updates every parameter of `module` and clears its gradients.
    pub fn apply(&self, module: &mut dyn Module) {
        let AdamStep {
            lr,
            b1,
            b2,
            eps,
            wd,
            bc1,
            bc2,
        } = *self;
        module.visit_params(&mut |p: &mut Param| {
            let moments = p.m.data_mut().iter_mut().zip(p.v.data_mut());
            let params = p.value.data_mut().iter_mut().zip(p.grad.data_mut());
            for ((value, grad), (m, v)) in params.zip(moments) {
                let g = *grad;
                *m = b1 * *m + (1.0 - b1) * g;
                *v = b2 * *v + (1.0 - b2) * g * g;
                let m_hat = *m / bc1;
                let v_hat = *v / bc2;
                *value -= lr * (m_hat / (v_hat.sqrt() + eps) + wd * *value);
                *grad = 0.0;
            }
        });
    }
}

/// Plain SGD, used by small baselines and as a sanity alternative in tests.
#[derive(Debug, Clone)]
pub struct Sgd {
    pub lr: f32,
}

impl Sgd {
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }

    /// Applies one SGD update and clears gradients.
    pub fn step(&mut self, module: &mut dyn Module) {
        let lr = self.lr;
        module.visit_params(&mut |p: &mut Param| {
            let n = p.value.data().len();
            let value = p.value.data_mut();
            let grad = p.grad.data_mut();
            for i in 0..n {
                value[i] -= lr * grad[i];
                grad[i] = 0.0;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    /// A single free parameter as a module.
    struct Scalarish(Param);
    impl Module for Scalarish {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.0);
        }
    }

    /// Minimising f(x) = x² with Adam converges towards 0.
    #[test]
    fn adam_minimises_quadratic() {
        let mut p = Param::zeros(1, 1);
        p.value = Matrix::from_vec(1, 1, vec![5.0]);
        let mut module = Scalarish(p);
        let mut adam = Adam::new(0.1);
        for _ in 0..500 {
            let x = module.0.value[(0, 0)];
            module.0.grad = Matrix::from_vec(1, 1, vec![2.0 * x]);
            adam.step(&mut module);
        }
        assert!(module.0.value[(0, 0)].abs() < 1e-2);
        assert_eq!(adam.steps(), 500);
    }

    #[test]
    fn sgd_minimises_quadratic() {
        let mut p = Param::zeros(1, 1);
        p.value = Matrix::from_vec(1, 1, vec![3.0]);
        let mut module = Scalarish(p);
        let mut sgd = Sgd::new(0.1);
        for _ in 0..100 {
            let x = module.0.value[(0, 0)];
            module.0.grad = Matrix::from_vec(1, 1, vec![2.0 * x]);
            sgd.step(&mut module);
        }
        assert!(module.0.value[(0, 0)].abs() < 1e-4);
    }

    #[test]
    fn step_clears_gradients() {
        let mut module = Scalarish(Param::zeros(1, 1));
        module.0.grad = Matrix::from_vec(1, 1, vec![1.0]);
        Adam::new(0.01).step(&mut module);
        assert_eq!(module.0.grad[(0, 0)], 0.0);
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut p = Param::zeros(1, 1);
        p.value = Matrix::from_vec(1, 1, vec![1.0]);
        let mut module = Scalarish(p);
        let mut adam = Adam::new(0.1).with_weight_decay(0.1);
        for _ in 0..50 {
            adam.step(&mut module); // zero gradient, decay only
        }
        assert!(module.0.value[(0, 0)] < 1.0);
    }
}
