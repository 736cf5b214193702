use crate::{CandidatePair, RelationalModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use taxo_core::{ConceptId, Taxonomy, Vocabulary};
use taxo_graph::{
    pretrain_contrastive, ContrastiveConfig, GnnKind, GnnStack, HeteroGraphBuilder,
    PositionEmbeddings, WeightScheme,
};
use taxo_nn::{Matrix, Module, Param};

/// Configuration of the structural representation (Section III-B2).
#[derive(Debug, Clone)]
pub struct StructuralConfig {
    pub gnn_kind: GnnKind,
    /// GNN layers: 1 = one-hop (paper's best), 2 = two-hop (Table IX).
    pub hops: usize,
    /// Node representation dimension.
    pub dim: usize,
    /// Initialise node features from C-BERT `[CLS]` vectors (Eq. 8)
    /// rather than random vectors (`S_Random` vs `S_C-BERT`, Table VI).
    pub init_cbert: bool,
    /// Include user-click edges in the graph (the "- User Click Graph"
    /// ablation removes them, leaving the bare taxonomy).
    pub use_click_graph: bool,
    /// IF·IQF² weights vs. uniform ("- Edge Attribute" ablation).
    pub weight_scheme: WeightScheme,
    /// Run contrastive pretraining ("- Contrastive Learning" ablation).
    pub use_contrastive: bool,
    pub contrastive: ContrastiveConfig,
    /// Concatenate `p_parent`/`p_child` (Eq. 13; "- Position Embedding"
    /// ablation).
    pub use_position: bool,
    pub pos_dim: usize,
    pub seed: u64,
}

impl Default for StructuralConfig {
    fn default() -> Self {
        StructuralConfig {
            gnn_kind: GnnKind::Gcn,
            hops: 1,
            dim: 32,
            init_cbert: true,
            use_click_graph: true,
            weight_scheme: WeightScheme::IfIqf,
            use_contrastive: true,
            contrastive: ContrastiveConfig {
                epochs: 10,
                ..Default::default()
            },
            use_position: true,
            pos_dim: 8,
            seed: 0x57AC7,
        }
    }
}

impl StructuralConfig {
    /// A small configuration for tests.
    pub fn tiny(seed: u64) -> Self {
        StructuralConfig {
            dim: 16,
            pos_dim: 4,
            contrastive: ContrastiveConfig {
                epochs: 3,
                ..Default::default()
            },
            seed,
            ..Default::default()
        }
    }
}

/// The structural side of the detector: the heterogeneous graph, the
/// (contrastively pretrained) GNN, cached node representations `h^K`, and
/// the position embeddings.
#[derive(Debug, Clone)]
pub struct StructuralModel {
    pub graph: taxo_graph::HeteroGraph,
    pub gnn: GnnStack,
    pub pos: PositionEmbeddings,
    /// Final node representations (`n × dim`), refreshed by
    /// [`StructuralModel::refresh`].
    pub h: Matrix,
    /// Initial node features (kept to allow refresh after GNN updates).
    x0: Matrix,
    use_position: bool,
    /// Losses recorded by contrastive pretraining (empty if disabled).
    pub contrastive_losses: Vec<f32>,
}

impl StructuralModel {
    /// Builds the graph from the existing taxonomy (plus click pairs
    /// unless ablated), initialises node features, optionally pretrains
    /// contrastively, and caches `h^K`.
    pub fn build(
        existing: &Taxonomy,
        vocab: &Vocabulary,
        pairs: &[CandidatePair],
        relational: Option<&RelationalModel>,
        cfg: &StructuralConfig,
    ) -> Self {
        let _g = taxo_obs::span!("train.structural_build");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut builder = HeteroGraphBuilder::new();
        for e in existing.edges() {
            builder.add_taxonomy_edge(e.parent, e.child);
        }
        for n in existing.nodes() {
            builder.add_node(n);
        }
        if cfg.use_click_graph {
            for p in pairs {
                builder.add_clicks(p.query, p.item, p.clicks);
            }
        }
        let graph = builder.build(cfg.weight_scheme);

        let n = graph.node_count();
        let x0 = match (cfg.init_cbert, relational) {
            (true, Some(rel)) => {
                let d = rel.dim();
                let mut x = Matrix::zeros(n, d);
                for u in 0..n {
                    let v = rel.encode_concept(vocab.name(graph.concept_of(u)));
                    x.row_mut(u).copy_from_slice(&v);
                }
                x
            }
            _ => Param::normal_init(n, cfg.dim, 0.5, &mut rng).value,
        };

        let mut gnn = GnnStack::new(
            cfg.gnn_kind,
            &dims_for(x0.cols(), cfg.dim, cfg.hops),
            &mut rng,
        );
        let contrastive_losses = if cfg.use_contrastive {
            pretrain_contrastive(&graph, &mut gnn, &x0, &cfg.contrastive)
        } else {
            Vec::new()
        };
        let (h, _) = gnn.forward(&graph, &x0);
        let pos = PositionEmbeddings::new(cfg.pos_dim, &mut rng);
        StructuralModel {
            graph,
            gnn,
            pos,
            h,
            x0,
            use_position: cfg.use_position,
            contrastive_losses,
        }
    }

    /// Recomputes the cached node representations (after any GNN update).
    pub fn refresh(&mut self) {
        let (h, _) = self.gnn.forward(&self.graph, &self.x0);
        self.h = h;
    }

    /// Node representation of a concept (zeros when the concept is not a
    /// graph node — e.g. a brand-new concept nobody clicked).
    pub fn node_vector(&self, c: ConceptId) -> Vec<f32> {
        match self.graph.node_of(c) {
            Some(u) => self.h.row(u).to_vec(),
            None => vec![0.0; self.h.cols()],
        }
    }

    /// The structural pair feature of Eq. 13,
    /// `s = [h_q ⊕ p_parent ⊕ h_i ⊕ p_child]` (position parts dropped
    /// under the ablation), written into `out`, which must be zeroed and
    /// exactly [`StructuralModel::feature_dim`] long (unknown concepts
    /// keep their zero slice, as [`StructuralModel::node_vector`] gives
    /// them). Detector training and scoring both build the feature here.
    pub fn pair_features_into(&self, query: ConceptId, item: ConceptId, out: &mut [f32]) {
        assert_eq!(out.len(), self.feature_dim());
        let d = self.h.cols();
        let p = if self.use_position { self.pos.dim() } else { 0 };
        if let Some(u) = self.graph.node_of(query) {
            out[..d].copy_from_slice(self.h.row(u));
        }
        if let Some(u) = self.graph.node_of(item) {
            out[d + p..2 * d + p].copy_from_slice(self.h.row(u));
        }
        if self.use_position {
            out[d..d + p].copy_from_slice(self.pos.parent.value.row(0));
            out[2 * d + p..].copy_from_slice(self.pos.child.value.row(0));
        }
    }

    /// Dimension of [`StructuralModel::pair_features_into`].
    pub fn feature_dim(&self) -> usize {
        2 * self.h.cols()
            + if self.use_position {
                2 * self.pos.dim()
            } else {
                0
            }
    }

    /// Accumulates the gradient of a pair feature (`feature_dim` long)
    /// into the position embeddings (the node representations are
    /// treated as fixed features learned by contrastive pretraining).
    pub fn backward_pair(&mut self, d_s: &[f32]) {
        if !self.use_position {
            return;
        }
        let d = self.h.cols();
        let p = self.pos.dim();
        for c in 0..p {
            self.pos.parent.grad[(0, c)] += d_s[d + c];
            self.pos.child.grad[(0, c)] += d_s[2 * d + p + c];
        }
    }
}

fn dims_for(d_in: usize, d_out: usize, hops: usize) -> Vec<usize> {
    let mut dims = vec![d_in];
    for _ in 0..hops.max(1) {
        dims.push(d_out);
    }
    dims
}

impl Module for StructuralModel {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        // Only the position embeddings train with the classifier; the GNN
        // trains in its contrastive pretraining phase.
        self.pos.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct_graph;
    use taxo_synth::{ClickConfig, ClickLog, World, WorldConfig};

    fn setup(cfg: &StructuralConfig) -> (World, StructuralModel) {
        let world = World::generate(&WorldConfig::tiny(31));
        let log = ClickLog::generate(&world, &ClickConfig::tiny(31));
        let built = construct_graph(
            &world.existing,
            &world.vocab,
            &log.records,
            WeightScheme::IfIqf,
        );
        let model = StructuralModel::build(&world.existing, &world.vocab, &built.pairs, None, cfg);
        (world, model)
    }

    #[test]
    fn builds_with_expected_dims() {
        let cfg = StructuralConfig::tiny(1);
        let (world, model) = setup(&cfg);
        assert!(model.graph.node_count() >= world.existing.node_count());
        assert_eq!(model.h.cols(), cfg.dim);
        assert_eq!(model.feature_dim(), 2 * cfg.dim + 2 * cfg.pos_dim);
        assert!(!model.contrastive_losses.is_empty());
    }

    #[test]
    fn pair_features_layout_matches_eq13() {
        let cfg = StructuralConfig::tiny(2);
        let (world, model) = setup(&cfg);
        let q = world.roots[0];
        let i = world.truth.children(q)[0];
        let mut s = vec![0.0; model.feature_dim()];
        model.pair_features_into(q, i, &mut s);
        let d = cfg.dim;
        let p = cfg.pos_dim;
        // h_q slice matches node_vector(q).
        assert_eq!(&s[..d], model.node_vector(q).as_slice());
        // p_parent slice matches the embedding.
        assert_eq!(&s[d..d + p], model.pos.parent.value.row(0));
        // h_i slice.
        assert_eq!(&s[d + p..2 * d + p], model.node_vector(i).as_slice());
        // p_child slice.
        assert_eq!(&s[2 * d + p..], model.pos.child.value.row(0));
    }

    #[test]
    fn unknown_concept_gets_zero_vector() {
        let cfg = StructuralConfig::tiny(3);
        let (world, model) = setup(&cfg);
        // A withheld new concept that nobody clicked may be absent.
        let absent = world
            .vocab
            .ids()
            .find(|&c| model.graph.node_of(c).is_none());
        if let Some(c) = absent {
            assert!(model.node_vector(c).iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn no_position_ablation_shrinks_features() {
        let cfg = StructuralConfig {
            use_position: false,
            ..StructuralConfig::tiny(4)
        };
        let (_, model) = setup(&cfg);
        assert_eq!(model.feature_dim(), 2 * 16);
    }

    #[test]
    fn no_click_graph_ablation_limits_nodes() {
        let with = setup(&StructuralConfig::tiny(5)).1;
        let without = setup(&StructuralConfig {
            use_click_graph: false,
            ..StructuralConfig::tiny(5)
        })
        .1;
        assert!(without.graph.node_count() <= with.graph.node_count());
        assert_eq!(without.graph.click_edges().count(), 0);
    }

    #[test]
    fn backward_pair_fills_position_grads() {
        let cfg = StructuralConfig::tiny(6);
        let (_, mut model) = setup(&cfg);
        let d_s: Vec<f32> = (0..model.feature_dim()).map(|c| c as f32 * 0.01).collect();
        model.backward_pair(&d_s);
        assert!(model.pos.parent.grad.norm() > 0.0);
        assert!(model.pos.child.grad.norm() > 0.0);
    }

    #[test]
    fn contrastive_ablation_records_no_losses() {
        let cfg = StructuralConfig {
            use_contrastive: false,
            ..StructuralConfig::tiny(7)
        };
        let (_, model) = setup(&cfg);
        assert!(model.contrastive_losses.is_empty());
    }
}
