use crate::HeteroGraph;
use rand::rngs::StdRng;
use taxo_nn::{Matrix, Module, Param};

/// Which aggregation function a GNN layer uses (Table IX compares all
/// three; GCN with the user-behavior edge weights wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GnnKind {
    /// Graph Convolutional Network (Eq. 12): weighted-neighborhood
    /// propagation with the IF·IQF² edge attributes.
    Gcn,
    /// Graph Attention Network: weights learned by attention instead of
    /// taken from user behavior.
    Gat,
    /// GraphSAGE with a mean aggregator.
    Sage,
}

const LEAKY_SLOPE: f32 = 0.2;

#[inline]
fn leaky(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        LEAKY_SLOPE * x
    }
}

#[inline]
fn leaky_grad(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        LEAKY_SLOPE
    }
}

/// One GCN layer: `h'_u = ρ( Σ_{v∈Ñ(u)} â_uv · W · h_v )` where `â`
/// is the normalised heterogeneous adjacency (self-loop included).
#[derive(Debug, Clone)]
pub struct GcnLayer {
    pub w: Param,
}

#[derive(Debug, Clone)]
pub struct GcnCtx {
    input: Matrix,
    aggregated: Matrix,
    act: Matrix,
}

impl GcnLayer {
    pub fn new(d_in: usize, d_out: usize, rng: &mut StdRng) -> Self {
        GcnLayer {
            w: Param::xavier(d_out, d_in, rng),
        }
    }

    pub fn forward(&self, graph: &HeteroGraph, h: &Matrix) -> (Matrix, GcnCtx) {
        let aggregated = graph.propagate(h);
        let pre_act = aggregated.matmul_nt(&self.w.value);
        let out = pre_act.map(f32::tanh);
        let ctx = GcnCtx {
            input: h.clone(),
            aggregated,
            act: out.clone(),
        };
        (out, ctx)
    }

    pub fn backward(&mut self, graph: &HeteroGraph, ctx: &GcnCtx, dout: &Matrix) -> Matrix {
        let d_pre = Matrix::from_fn(dout.rows(), dout.cols(), |r, c| {
            let y = ctx.act[(r, c)];
            dout[(r, c)] * (1.0 - y * y)
        });
        self.w.grad.add_assign(&d_pre.matmul_tn(&ctx.aggregated));
        let d_agg = d_pre.matmul(&self.w.value);
        let _ = &ctx.input; // input itself not needed beyond shape
        graph.propagate_transpose(&d_agg)
    }
}

impl Module for GcnLayer {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
    }
}

/// One GAT layer with a single attention head:
/// `e_uv = LeakyReLU(a_lᵀ z_u + a_rᵀ z_v)`, `α = softmax_v`, and
/// `h'_u = ρ(Σ_v α_uv z_v)` with `z = W h`.
#[derive(Debug, Clone)]
pub struct GatLayer {
    pub w: Param,
    /// `1 × d_out` left attention vector (applied to the anchor).
    pub a_left: Param,
    /// `1 × d_out` right attention vector (applied to the neighbor).
    pub a_right: Param,
}

#[derive(Debug, Clone)]
pub struct GatCtx {
    input: Matrix,
    z: Matrix,
    /// Per-anchor: (neighbors, raw scores e, attention probs α).
    rows: Vec<(Vec<usize>, Vec<f32>, Vec<f32>)>,
    act: Matrix,
}

impl GatLayer {
    pub fn new(d_in: usize, d_out: usize, rng: &mut StdRng) -> Self {
        GatLayer {
            w: Param::xavier(d_out, d_in, rng),
            a_left: Param::xavier(1, d_out, rng),
            a_right: Param::xavier(1, d_out, rng),
        }
    }

    pub fn forward(&self, graph: &HeteroGraph, h: &Matrix) -> (Matrix, GatCtx) {
        let n = h.rows();
        let d_out = self.w.value.rows();
        let z = h.matmul_nt(&self.w.value);
        // Precompute a_l·z_u and a_r·z_v.
        let mut left = vec![0.0f32; n];
        let mut right = vec![0.0f32; n];
        for u in 0..n {
            let zu = z.row(u);
            left[u] = zu
                .iter()
                .zip(self.a_left.value.row(0))
                .map(|(&a, &b)| a * b)
                .sum();
            right[u] = zu
                .iter()
                .zip(self.a_right.value.row(0))
                .map(|(&a, &b)| a * b)
                .sum();
        }
        let mut pre_act = Matrix::zeros(n, d_out);
        let mut rows = Vec::with_capacity(n);
        for (u, &left_u) in left.iter().enumerate() {
            let neigh: Vec<usize> = graph.neighbors(u).iter().map(|&(v, _)| v).collect();
            let raw: Vec<f32> = neigh.iter().map(|&v| leaky(left_u + right[v])).collect();
            let mut alpha = raw.clone();
            taxo_nn::softmax_in_place(&mut alpha);
            for (&v, &a) in neigh.iter().zip(&alpha) {
                for (o, &zv) in pre_act.row_mut(u).iter_mut().zip(z.row(v)) {
                    *o += a * zv;
                }
            }
            rows.push((neigh, raw, alpha));
        }
        let out = pre_act.map(f32::tanh);
        let ctx = GatCtx {
            input: h.clone(),
            z,
            rows,
            act: out.clone(),
        };
        (out, ctx)
    }

    pub fn backward(&mut self, _graph: &HeteroGraph, ctx: &GatCtx, dout: &Matrix) -> Matrix {
        let n = dout.rows();
        let d_out = self.w.value.rows();
        let mut dz = Matrix::zeros(n, d_out);
        for u in 0..n {
            let (neigh, raw, alpha) = &ctx.rows[u];
            let g: Vec<f32> = (0..d_out)
                .map(|c| {
                    let y = ctx.act[(u, c)];
                    dout[(u, c)] * (1.0 - y * y)
                })
                .collect();
            // Path 1: through the value aggregation Σ α z.
            // dα_uv = g · z_v; dz_v += α_uv g.
            let mut d_alpha = vec![0.0f32; neigh.len()];
            for (k, &v) in neigh.iter().enumerate() {
                let zv = ctx.z.row(v);
                let mut acc = 0.0;
                for c in 0..d_out {
                    dz[(v, c)] += alpha[k] * g[c];
                    acc += g[c] * zv[c];
                }
                d_alpha[k] = acc;
            }
            // Softmax backward over the neighborhood.
            let dot: f32 = d_alpha.iter().zip(alpha).map(|(&d, &a)| d * a).sum();
            for (k, &v) in neigh.iter().enumerate() {
                let de = alpha[k] * (d_alpha[k] - dot);
                let dpre = de * leaky_grad(raw[k]);
                // e = a_l·z_u + a_r·z_v.
                let zu = ctx.z.row(u);
                let zv = ctx.z.row(v);
                for c in 0..d_out {
                    self.a_left.grad[(0, c)] += dpre * zu[c];
                    self.a_right.grad[(0, c)] += dpre * zv[c];
                    dz[(u, c)] += dpre * self.a_left.value[(0, c)];
                    dz[(v, c)] += dpre * self.a_right.value[(0, c)];
                }
            }
        }
        self.w.grad.add_assign(&dz.matmul_tn(&ctx.input));
        dz.matmul(&self.w.value)
    }
}

impl Module for GatLayer {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.a_left);
        f(&mut self.a_right);
    }
}

/// One GraphSAGE layer with mean aggregation:
/// `h'_u = ρ(W_self h_u + W_neigh · mean_{v∈N(u)} h_v)`.
#[derive(Debug, Clone)]
pub struct SageLayer {
    pub w_self: Param,
    pub w_neigh: Param,
}

#[derive(Debug, Clone)]
pub struct SageCtx {
    input: Matrix,
    mean_neigh: Matrix,
    act: Matrix,
}

impl SageLayer {
    pub fn new(d_in: usize, d_out: usize, rng: &mut StdRng) -> Self {
        SageLayer {
            w_self: Param::xavier(d_out, d_in, rng),
            w_neigh: Param::xavier(d_out, d_in, rng),
        }
    }

    fn mean_neighbors(graph: &HeteroGraph, h: &Matrix) -> Matrix {
        let n = h.rows();
        let mut out = Matrix::zeros(n, h.cols());
        for u in 0..n {
            let neigh = graph.neighbor_nodes(u);
            if neigh.is_empty() {
                continue;
            }
            let inv = 1.0 / neigh.len() as f32;
            for v in neigh {
                for (o, &x) in out.row_mut(u).iter_mut().zip(h.row(v)) {
                    *o += inv * x;
                }
            }
        }
        out
    }

    pub fn forward(&self, graph: &HeteroGraph, h: &Matrix) -> (Matrix, SageCtx) {
        let mean_neigh = Self::mean_neighbors(graph, h);
        let mut pre_act = h.matmul_nt(&self.w_self.value);
        pre_act.add_assign(&mean_neigh.matmul_nt(&self.w_neigh.value));
        let out = pre_act.map(f32::tanh);
        let ctx = SageCtx {
            input: h.clone(),
            mean_neigh,
            act: out.clone(),
        };
        (out, ctx)
    }

    pub fn backward(&mut self, graph: &HeteroGraph, ctx: &SageCtx, dout: &Matrix) -> Matrix {
        let d_pre = Matrix::from_fn(dout.rows(), dout.cols(), |r, c| {
            let y = ctx.act[(r, c)];
            dout[(r, c)] * (1.0 - y * y)
        });
        self.w_self.grad.add_assign(&d_pre.matmul_tn(&ctx.input));
        self.w_neigh
            .grad
            .add_assign(&d_pre.matmul_tn(&ctx.mean_neigh));
        let mut dh = d_pre.matmul(&self.w_self.value);
        let d_mean = d_pre.matmul(&self.w_neigh.value);
        // Scatter the mean back to neighbors.
        for u in 0..dh.rows() {
            let neigh = graph.neighbor_nodes(u);
            if neigh.is_empty() {
                continue;
            }
            let inv = 1.0 / neigh.len() as f32;
            for v in neigh {
                for (o, &x) in dh.row_mut(v).iter_mut().zip(d_mean.row(u)) {
                    *o += inv * x;
                }
            }
        }
        dh
    }
}

impl Module for SageLayer {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w_self);
        f(&mut self.w_neigh);
    }
}

/// One layer of any kind.
#[derive(Debug, Clone)]
pub enum GnnLayer {
    Gcn(GcnLayer),
    Gat(GatLayer),
    Sage(SageLayer),
}

/// Per-layer forward cache.
#[derive(Debug, Clone)]
pub enum GnnLayerCtx {
    Gcn(GcnCtx),
    Gat(GatCtx),
    Sage(SageCtx),
}

/// A stack of `K` GNN layers: `K = 1` is the paper's best "one-hop"
/// configuration; `K = 2` aggregates grandparents and siblings (Table IX).
#[derive(Debug, Clone)]
pub struct GnnStack {
    pub layers: Vec<GnnLayer>,
    pub kind: GnnKind,
}

/// Forward cache for the whole stack.
#[derive(Debug, Clone)]
pub struct GnnStackCtx {
    layer_ctxs: Vec<GnnLayerCtx>,
}

impl GnnStack {
    /// Builds a stack mapping dims `[d_0, d_1, …, d_K]` (K layers).
    pub fn new(kind: GnnKind, dims: &[usize], rng: &mut StdRng) -> Self {
        assert!(dims.len() >= 2, "need at least one layer");
        let layers = dims
            .windows(2)
            .map(|w| match kind {
                GnnKind::Gcn => GnnLayer::Gcn(GcnLayer::new(w[0], w[1], rng)),
                GnnKind::Gat => GnnLayer::Gat(GatLayer::new(w[0], w[1], rng)),
                GnnKind::Sage => GnnLayer::Sage(SageLayer::new(w[0], w[1], rng)),
            })
            .collect();
        GnnStack { layers, kind }
    }

    /// Number of hops (layers).
    pub fn hops(&self) -> usize {
        self.layers.len()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        match self.layers.last().expect("stack is non-empty") {
            GnnLayer::Gcn(l) => l.w.value.rows(),
            GnnLayer::Gat(l) => l.w.value.rows(),
            GnnLayer::Sage(l) => l.w_self.value.rows(),
        }
    }

    /// Propagates node features `x` (`n × d_0`) through all layers.
    pub fn forward(&self, graph: &HeteroGraph, x: &Matrix) -> (Matrix, GnnStackCtx) {
        let mut h = x.clone();
        let mut layer_ctxs = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (next, ctx) = match layer {
                GnnLayer::Gcn(l) => {
                    let (o, c) = l.forward(graph, &h);
                    (o, GnnLayerCtx::Gcn(c))
                }
                GnnLayer::Gat(l) => {
                    let (o, c) = l.forward(graph, &h);
                    (o, GnnLayerCtx::Gat(c))
                }
                GnnLayer::Sage(l) => {
                    let (o, c) = l.forward(graph, &h);
                    (o, GnnLayerCtx::Sage(c))
                }
            };
            h = next;
            layer_ctxs.push(ctx);
        }
        (h, GnnStackCtx { layer_ctxs })
    }

    /// Backpropagates `dh` through the stack; returns d(input features).
    pub fn backward(&mut self, graph: &HeteroGraph, ctx: &GnnStackCtx, dh: &Matrix) -> Matrix {
        let mut d = dh.clone();
        for (layer, lctx) in self.layers.iter_mut().zip(&ctx.layer_ctxs).rev() {
            d = match (layer, lctx) {
                (GnnLayer::Gcn(l), GnnLayerCtx::Gcn(c)) => l.backward(graph, c, &d),
                (GnnLayer::Gat(l), GnnLayerCtx::Gat(c)) => l.backward(graph, c, &d),
                (GnnLayer::Sage(l), GnnLayerCtx::Sage(c)) => l.backward(graph, c, &d),
                _ => unreachable!("layer/ctx kind mismatch"),
            };
        }
        d
    }
}

impl Module for GnnStack {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            match layer {
                GnnLayer::Gcn(l) => l.visit_params(f),
                GnnLayer::Gat(l) => l.visit_params(f),
                GnnLayer::Sage(l) => l.visit_params(f),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HeteroGraphBuilder, WeightScheme};
    use rand::SeedableRng;
    use taxo_core::ConceptId;
    use taxo_nn::gradcheck::check_gradients;

    /// Tolerance of the graph layers' finite-difference checks.
    const TOL: f64 = 6e-2;

    fn toy_graph() -> HeteroGraph {
        let mut b = HeteroGraphBuilder::new();
        b.add_taxonomy_edge(ConceptId(0), ConceptId(1));
        b.add_taxonomy_edge(ConceptId(0), ConceptId(2));
        b.add_clicks(ConceptId(1), ConceptId(3), 5);
        b.add_clicks(ConceptId(2), ConceptId(3), 2);
        b.build(WeightScheme::IfIqf)
    }

    fn features(n: usize, d: usize) -> Matrix {
        Matrix::from_fn(n, d, |r, c| 0.3 * ((r * d + c) as f32).sin() + 0.1)
    }

    #[test]
    fn gcn_shapes_and_gradients() {
        let g = toy_graph();
        let mut rng = StdRng::seed_from_u64(0);
        let layer = GcnLayer::new(3, 4, &mut rng);
        let x = features(g.node_count(), 3);
        let (y, _) = layer.forward(&g, &x);
        assert_eq!((y.rows(), y.cols()), (4, 4));
        check_gradients(
            layer,
            x,
            |l, x| l.forward(&g, x),
            |l, ctx, dy| l.backward(&g, ctx, dy),
            TOL,
        );
    }

    #[test]
    fn gat_gradients() {
        let g = toy_graph();
        let mut rng = StdRng::seed_from_u64(5);
        let layer = GatLayer::new(3, 3, &mut rng);
        let x = features(g.node_count(), 3);
        check_gradients(
            layer,
            x,
            |l, x| l.forward(&g, x),
            |l, ctx, dy| l.backward(&g, ctx, dy),
            TOL,
        );
    }

    #[test]
    fn sage_gradients() {
        let g = toy_graph();
        let mut rng = StdRng::seed_from_u64(9);
        let layer = SageLayer::new(3, 4, &mut rng);
        let x = features(g.node_count(), 3);
        check_gradients(
            layer,
            x,
            |l, x| l.forward(&g, x),
            |l, ctx, dy| l.backward(&g, ctx, dy),
            TOL,
        );
    }

    #[test]
    fn stack_two_hops() {
        let g = toy_graph();
        let mut rng = StdRng::seed_from_u64(1);
        let stack = GnnStack::new(GnnKind::Gcn, &[3, 5, 4], &mut rng);
        assert_eq!(stack.hops(), 2);
        assert_eq!(stack.output_dim(), 4);
        let x = features(g.node_count(), 3);
        let (h, _) = stack.forward(&g, &x);
        assert_eq!((h.rows(), h.cols()), (4, 4));
    }

    #[test]
    fn stack_gradcheck() {
        let g = toy_graph();
        let mut rng = StdRng::seed_from_u64(2);
        let stack = GnnStack::new(GnnKind::Gcn, &[3, 4, 3], &mut rng);
        let x = features(g.node_count(), 3);
        check_gradients(
            stack,
            x,
            |l, x| l.forward(&g, x),
            |l, ctx, dy| l.backward(&g, ctx, dy),
            TOL,
        );
    }

    #[test]
    fn propagation_spreads_information() {
        // A one-hot signal on node 0 must reach its children after one
        // hop with an identity-ish weight.
        let g = toy_graph();
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = GcnLayer::new(2, 2, &mut rng);
        layer.w.value = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let mut x = Matrix::zeros(g.node_count(), 2);
        x[(0, 0)] = 1.0;
        let (y, _) = layer.forward(&g, &x);
        // Node 1 is adjacent to node 0 and must see a positive signal.
        assert!(y[(1, 0)] > 0.0);
        // Node 3 is two hops from node 0: nothing after one layer.
        assert_eq!(y[(3, 0)], 0.0);
    }
}
