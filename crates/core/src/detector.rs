use crate::relational::{PairCtx, PairGrads};
use crate::{LabeledPair, RelationalModel, StructuralModel};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use taxo_core::{ConceptId, Vocabulary};
use taxo_nn::{
    losses, parallel, Adam, Matrix, Mlp, MlpCtx, MlpGrads, Module, Param, ParamSnapshot,
};
use taxo_obs::counter;

/// Configuration of the edge-classification head and its training loop
/// (Eq. 15–16).
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    pub mlp_hidden: usize,
    pub epochs: usize,
    pub batch: usize,
    /// Learning rate for the MLP and position embeddings.
    pub lr: f32,
    /// Learning rate for encoder fine-tuning (0 disables even when
    /// `finetune_encoder` is set).
    pub encoder_lr: f32,
    /// Fine-tune C-BERT during classifier training (the "- Finetune"
    /// ablation freezes it).
    pub finetune_encoder: bool,
    /// Decoupled weight decay applied by every optimiser.
    pub weight_decay: f32,
    /// Probability of zeroing each *structural* feature coordinate during
    /// training (inverted dropout). The relational slice is left intact:
    /// it is already regularised by the shared encoder, while the
    /// structural slice is a fixed feature vector that otherwise lets the
    /// MLP overfit quickly.
    pub input_dropout: f32,
    pub seed: u64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            mlp_hidden: 96,
            epochs: 60,
            batch: 16,
            lr: 3e-3,
            encoder_lr: 5e-4,
            finetune_encoder: true,
            weight_decay: 1e-4,
            input_dropout: 0.1,
            seed: 0xDE7EC,
        }
    }
}

impl DetectorConfig {
    /// A quick configuration for tests: small batches and many epochs so
    /// that even a ~20-pair toy dataset yields enough optimiser steps.
    /// Epochs match the default schedule (60): at 30 the quick config
    /// demonstrably underfits (train accuracy stalls below 0.80 on the
    /// pipeline test world and held-out accuracy lands under 0.55).
    pub fn tiny(seed: u64) -> Self {
        DetectorConfig {
            mlp_hidden: 32,
            epochs: 60,
            batch: 8,
            lr: 5e-3,
            encoder_lr: 2e-3,
            input_dropout: 0.05,
            seed,
            ..Default::default()
        }
    }
}

thread_local! {
    /// Per-thread inference arena backing [`HypoDetector::score`]: on any
    /// long-lived thread (server scorer, test main thread) every score
    /// after the first reuses warm buffers with zero heap allocations.
    static SCORER: std::cell::RefCell<crate::BatchScorer> =
        std::cell::RefCell::new(crate::BatchScorer::new());
}

/// Runs `f` with this thread's warm scoring arena — shared by every
/// backend tier so singles through [`HypoDetector::score`] and
/// [`crate::QuantizedDetector::score`] reuse the same buffers.
pub(crate) fn with_thread_scorer<R>(f: impl FnOnce(&mut crate::BatchScorer) -> R) -> R {
    SCORER.with(|s| f(&mut s.borrow_mut()))
}

/// One batch slot of detector training, reused for a whole training
/// call: the pair's encoder context and backward record, and the pair's
/// row of the head's step.
#[derive(Debug, Clone, Default)]
struct BatchSlot {
    pair: PairCtx,
    grads: PairGrads,
    /// The edge row `e` (`1 × edge_dim`), dropout applied.
    x: Matrix,
    /// The head's context; its logits end as the loss gradient.
    head: MlpCtx,
    /// The head's σ′-scaled hidden gradient (`1 × mlp_hidden`).
    d_hidden: Matrix,
    /// The head's input gradient, dropout applied (`1 × edge_dim`).
    dx: Matrix,
    /// Log-probability of the pair's label.
    log_p: f64,
}

/// The head's batch, stacked from the slots' rows for its weight-gradient
/// records.
#[derive(Debug, Clone, Default)]
struct HeadBatch {
    x: Matrix,
    hidden: Matrix,
    dlogits: Matrix,
    d_hidden: Matrix,
    grads: MlpGrads,
}

impl HeadBatch {
    /// Stacks the slots' head rows in slot order and records the head's
    /// weight gradients over them.
    fn record(&mut self, mlp: &Mlp, slots: &[BatchSlot]) {
        let (edge_dim, hidden) = (slots[0].x.cols(), slots[0].d_hidden.cols());
        self.x
            .stack_rows_from(edge_dim, slots.iter().map(|s| s.x.row(0)));
        self.hidden
            .stack_rows_from(hidden, slots.iter().map(|s| s.head.hidden().row(0)));
        self.dlogits
            .stack_rows_from(2, slots.iter().map(|s| s.head.logits().row(0)));
        self.d_hidden
            .stack_rows_from(hidden, slots.iter().map(|s| s.d_hidden.row(0)));
        mlp.record_into(
            &self.x,
            &self.hidden,
            &self.dlogits,
            &self.d_hidden,
            &mut self.grads,
        );
    }
}

/// One of a batch's two parameter groups, replayed and stepped as one
/// pool chunk.
enum ParamGroup<'a> {
    /// The relational encoder, when it is fine-tuned.
    Encoder(&'a mut RelationalModel, &'a mut Adam),
    /// The MLP head and the structural model's position embeddings.
    Head {
        mlp: &'a mut Mlp,
        structural: Option<&'a mut StructuralModel>,
        batch: &'a mut HeadBatch,
        adam_mlp: &'a mut Adam,
        adam_pos: &'a mut Adam,
    },
}

impl ParamGroup<'_> {
    /// Replays the batch's records into this group's gradients, in slot
    /// order, and steps its optimisers.
    fn replay_and_step(&mut self, slots: &[BatchSlot], rel_dim: usize) {
        match self {
            ParamGroup::Encoder(rel, adam) => {
                for slot in slots {
                    rel.replay_pair(&slot.pair, &slot.grads);
                }
                adam.step(*rel);
            }
            ParamGroup::Head {
                mlp,
                structural,
                batch,
                adam_mlp,
                adam_pos,
            } => {
                batch.record(mlp, slots);
                mlp.replay(&batch.grads);
                adam_mlp.step(*mlp);
                if let Some(st) = structural {
                    for slot in slots {
                        st.backward_pair(&slot.dx.row(0)[rel_dim..]);
                    }
                    adam_pos.step(*st);
                }
            }
        }
    }
}

/// The reused state of one detector training call: a slot per
/// batch position, the dropout mask, the head's batch, and the three
/// optimisers (head, position embeddings, encoder).
/// [`HypoDetector::train_with_val`] runs every batch through
/// [`DetectorTrainer::step`].
///
/// A batch makes two passes over the compute pool. The first does all
/// of one pair's work per slot, every step row-local: the pair forward
/// and its edge row (dropout applied), the head's row forward and
/// softmax cross-entropy row, the head's input gradient, and the
/// encoder's backward record. The second replays and steps the two
/// parameter groups, one chunk each: the relational encoder (every
/// slot's record in slot order), and the head with the structural
/// model (the head's weight-gradient records over the stacked batch
/// rows, the position-embedding rows in slot order). Every row is bit
/// for bit the batched pass's row, and every gradient receives the same
/// adds in the same order, at any thread count.
#[derive(Debug)]
pub struct DetectorTrainer {
    slots: Vec<BatchSlot>,
    mask: Matrix,
    head: HeadBatch,
    adam_mlp: Adam,
    adam_pos: Adam,
    adam_enc: Adam,
    input_dropout: f32,
}

impl DetectorTrainer {
    /// Fresh optimisers and empty buffers for a training call under `cfg`.
    pub fn new(cfg: &DetectorConfig) -> Self {
        let adam = |lr: f32| Adam::new(lr).with_weight_decay(cfg.weight_decay);
        DetectorTrainer {
            slots: Vec::new(),
            mask: Matrix::default(),
            head: HeadBatch::default(),
            adam_mlp: adam(cfg.lr),
            adam_pos: adam(cfg.lr),
            adam_enc: adam(cfg.encoder_lr),
            input_dropout: cfg.input_dropout,
        }
    }

    /// One optimiser step of `detector` on the batch `train[rows[j]]`,
    /// drawing its dropout mask from `rng`; returns the batch's mean
    /// loss. Once the slots have seen their longest pair templates, a
    /// step allocates nothing.
    pub fn step(
        &mut self,
        detector: &mut HypoDetector,
        vocab: &Vocabulary,
        train: &[LabeledPair],
        rows: &[usize],
        rng: &mut StdRng,
    ) -> f32 {
        counter!("train.detector.batches").inc();
        let n = rows.len();
        if self.slots.len() < n {
            self.slots.resize_with(n, BatchSlot::default);
        }
        let slots = &mut self.slots[..n];
        let edge_dim = detector.edge_dim();
        let rel_dim = detector.relational.as_ref().map_or(0, |r| r.dim());
        // Inverted dropout on the structural slice only (see the
        // `input_dropout` doc); when there is no relational part, the
        // whole feature vector is structural. The mask depends only on
        // the batch's shape, so it is drawn before the pool pass, in the
        // row-major order of the rng stream.
        let dropout = self.input_dropout > 0.0 && rel_dim < edge_dim;
        if dropout {
            let keep = 1.0 - self.input_dropout;
            self.mask.reset_for_overwrite(n, edge_dim);
            for r in 0..n {
                for (c, m) in self.mask.row_mut(r).iter_mut().enumerate() {
                    *m = if c >= rel_dim
                        && rng.random_range(0.0..1.0) < f64::from(self.input_dropout)
                    {
                        0.0
                    } else if c >= rel_dim {
                        1.0 / keep
                    } else {
                        1.0
                    };
                }
            }
        }
        let scale = 1.0 / n as f32;
        {
            let (det, mask) = (&*detector, &self.mask);
            let encoder = det.relational.as_ref().filter(|_| det.finetune_encoder);
            let masked = |row: &mut [f32], j: usize| {
                if dropout {
                    for (a, &m) in row.iter_mut().zip(mask.row(j)) {
                        *a *= m;
                    }
                }
            };
            parallel::par_map_into(slots, |j, slot| {
                let p = &train[rows[j]];
                if let Some(rel) = &det.relational {
                    rel.forward_pair_into(vocab, p.parent, p.child, &mut slot.pair);
                }
                slot.x.reset(1, edge_dim);
                det.fill_edge_row(&slot.pair, p.parent, p.child, slot.x.row_mut(0));
                masked(slot.x.row_mut(0), j);
                det.mlp.forward_ctx(&slot.x, &mut slot.head);
                let dlogits = slot.head.logits_mut().row_mut(0);
                slot.log_p = losses::softmax_xent_row(dlogits, usize::from(p.label), scale);
                let head = &slot.head;
                det.mlp
                    .backward_input_into(head, head.logits(), &mut slot.d_hidden, &mut slot.dx);
                masked(slot.dx.row_mut(0), j);
                if let Some(rel) = encoder {
                    rel.backward_pair_into(&slot.pair, &slot.dx.row(0)[..rel_dim], &mut slot.grads);
                }
            });
        }
        let mut loss = 0.0f64;
        for slot in slots.iter() {
            loss -= slot.log_p;
        }

        let slots = &*slots;
        let mut head = ParamGroup::Head {
            mlp: &mut detector.mlp,
            structural: detector.structural.as_mut(),
            batch: &mut self.head,
            adam_mlp: &mut self.adam_mlp,
            adam_pos: &mut self.adam_pos,
        };
        let finetune = detector.finetune_encoder;
        match detector.relational.as_mut().filter(|_| finetune) {
            Some(rel) => {
                let mut groups = [ParamGroup::Encoder(rel, &mut self.adam_enc), head];
                parallel::par_map_into(&mut groups, |_, group| {
                    group.replay_and_step(slots, rel_dim);
                });
            }
            None => head.replay_and_step(slots, rel_dim),
        }
        (loss / f64::from(n as f32)) as f32
    }
}

/// The full hyponymy detection module (Section III-B): the relational
/// representation `r`, the structural representation `s`, their
/// concatenation `e = [r ⊕ s]` (Eq. 14), and the MLP classifier (Eq. 15).
/// Either representation can be absent for the Table VI ablations.
#[derive(Debug, Clone)]
pub struct HypoDetector {
    pub relational: Option<RelationalModel>,
    pub structural: Option<StructuralModel>,
    pub mlp: Mlp,
    finetune_encoder: bool,
}

impl HypoDetector {
    /// Assembles a detector; at least one representation must be present.
    pub fn new(
        relational: Option<RelationalModel>,
        structural: Option<StructuralModel>,
        cfg: &DetectorConfig,
    ) -> Self {
        let dim = relational.as_ref().map_or(0, |r| r.dim())
            + structural.as_ref().map_or(0, |s| s.feature_dim());
        assert!(dim > 0, "detector needs at least one representation");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        HypoDetector {
            relational,
            structural,
            mlp: Mlp::new(dim, cfg.mlp_hidden, &mut rng),
            finetune_encoder: cfg.finetune_encoder,
        }
    }

    /// Edge-representation dimension (`|e|` in Eq. 14).
    pub fn edge_dim(&self) -> usize {
        self.relational.as_ref().map_or(0, |r| r.dim())
            + self.structural.as_ref().map_or(0, |s| s.feature_dim())
    }

    /// Writes the edge representation `e = [r ⊕ s]` (Eq. 14) of
    /// `<parent, child>` into `row` (zeroed, [`HypoDetector::edge_dim`]
    /// long), reading `r` from `pair` (filled by
    /// [`RelationalModel::forward_pair_into`]).
    fn fill_edge_row(&self, pair: &PairCtx, parent: ConceptId, child: ConceptId, row: &mut [f32]) {
        let rel_dim = self.relational.as_ref().map_or(0, |r| r.dim());
        if rel_dim > 0 {
            row[..rel_dim].copy_from_slice(pair.r());
        }
        if let Some(st) = &self.structural {
            st.pair_features_into(parent, child, &mut row[rel_dim..]);
        }
    }

    /// The training path's edge features of one pair, as a `1 × edge_dim`
    /// matrix plus the pair's encoder context.
    #[cfg(test)]
    fn edge_features(
        &self,
        vocab: &Vocabulary,
        parent: ConceptId,
        child: ConceptId,
    ) -> (Matrix, Option<PairCtx>) {
        let mut pair = PairCtx::default();
        if let Some(rel) = &self.relational {
            rel.forward_pair_into(vocab, parent, child, &mut pair);
        }
        let mut e = Matrix::zeros(1, self.edge_dim());
        self.fill_edge_row(&pair, parent, child, e.row_mut(0));
        (e, self.relational.is_some().then_some(pair))
    }

    /// Probability that `<parent, child>` is a hyponymy relation.
    ///
    /// Runs the allocation-free inference fast path (a thread-resident
    /// [`crate::BatchScorer`] arena): no backward context is built and no
    /// intermediate matrices are allocated after the thread's first call.
    /// Bitwise identical to the gradient-capable training path
    /// ([`RelationalModel::forward_pair_into`], the edge row, the MLP).
    pub fn score(&self, vocab: &Vocabulary, parent: ConceptId, child: ConceptId) -> f32 {
        SCORER.with(|s| s.borrow_mut().score_one(self, vocab, parent, child))
    }

    /// Scores many pairs through the batched fast path (one encoder
    /// forward and one MLP GEMM per template-length bucket), fanning the
    /// work across `par_map` workers in chunks. Workers reuse warm arenas
    /// from `pool`; results come back in input order and are bitwise
    /// identical to calling [`HypoDetector::score`] per pair at any
    /// thread count.
    pub fn score_batch(
        &self,
        vocab: &Vocabulary,
        pairs: &[(ConceptId, ConceptId)],
        pool: &crate::ScratchPool,
    ) -> Vec<f32> {
        pool.score_chunked(self, vocab, pairs, |(q, i), row| {
            if let Some(st) = &self.structural {
                st.pair_features_into(q, i, row);
            }
        })
    }

    /// Binary prediction at threshold 0.5.
    pub fn predict(&self, vocab: &Vocabulary, parent: ConceptId, child: ConceptId) -> bool {
        self.score(vocab, parent, child) > 0.5
    }

    /// Trains the classifier (and optionally fine-tunes the encoder and
    /// position embeddings) with BCE over the training pairs (Eq. 16).
    /// Returns the mean loss of each epoch.
    pub fn train(
        &mut self,
        vocab: &Vocabulary,
        train: &[LabeledPair],
        cfg: &DetectorConfig,
    ) -> Vec<f32> {
        self.train_with_val(vocab, train, &[], cfg)
    }

    /// Like [`HypoDetector::train`], but tracks accuracy on `val` after
    /// every epoch and restores the best-validation snapshot at the end
    /// (the paper holds out a 20% validation split for exactly this).
    pub fn train_with_val(
        &mut self,
        vocab: &Vocabulary,
        train: &[LabeledPair],
        val: &[LabeledPair],
        cfg: &DetectorConfig,
    ) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut trainer = DetectorTrainer::new(cfg);
        // The best epoch's parameter values and Adam moments, saved into
        // one reused buffer: the control plane fine-tunes the restored
        // detector, so its moments must be the snapshot's too.
        let (mut best, mut snapshot) = (None, ParamSnapshot::new());
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);
        let scorers = crate::ScratchPool::new();

        for _ in 0..cfg.epochs {
            counter!("train.detector.epochs").inc();
            order.shuffle(&mut rng);
            let mut total = 0.0f64;
            let mut batches = 0usize;
            for chunk in order.chunks(cfg.batch) {
                total += trainer.step(self, vocab, train, chunk, &mut rng) as f64;
                batches += 1;
            }
            epoch_losses.push((total / batches.max(1) as f64) as f32);
            if !val.is_empty() {
                let acc = self.accuracy_with(vocab, val, &scorers);
                // `>=`, not `>`: validation sets are small enough that many
                // epochs tie on accuracy, and among tied snapshots the one
                // with more optimiser steps generalises better (it has the
                // same validation score at a lower training loss).
                if best.is_none_or(|b| acc >= b) {
                    best = Some(acc);
                    snapshot.save(self);
                }
            }
        }
        if best.is_some() {
            snapshot.restore(self);
        }
        epoch_losses
    }

    /// Accuracy over a labeled set.
    pub fn accuracy(&self, vocab: &Vocabulary, pairs: &[LabeledPair]) -> f64 {
        self.accuracy_with(vocab, pairs, &crate::ScratchPool::new())
    }

    /// [`HypoDetector::accuracy`] on warm scorers from `scorers`: every
    /// pair through [`HypoDetector::score_batch`] (inline up to 64 pairs,
    /// one bucketed encoder pass per template length), whose scores equal
    /// [`HypoDetector::predict`]'s bit for bit.
    fn accuracy_with(
        &self,
        vocab: &Vocabulary,
        pairs: &[LabeledPair],
        scorers: &crate::ScratchPool,
    ) -> f64 {
        if pairs.is_empty() {
            return 0.0;
        }
        let queries: Vec<_> = pairs.iter().map(|p| (p.parent, p.child)).collect();
        let scores = self.score_batch(vocab, &queries, scorers);
        let correct = pairs
            .iter()
            .zip(scores)
            .filter(|(p, score)| (*score > 0.5) == p.label)
            .count();
        correct as f64 / pairs.len() as f64
    }
}

impl Module for HypoDetector {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        if let Some(rel) = &mut self.relational {
            rel.visit_params(f);
        }
        if let Some(st) = &mut self.structural {
            st.visit_params(f);
        }
        self.mlp.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        construct_graph, generate_dataset, DatasetConfig, RelationalConfig, Strategy,
        StructuralConfig,
    };
    use taxo_graph::WeightScheme;
    use taxo_synth::{ClickConfig, ClickLog, UgcConfig, UgcCorpus, World, WorldConfig};

    struct Fixture {
        world: World,
        dataset: crate::Dataset,
        detector: HypoDetector,
    }

    fn fixture(use_relational: bool, use_structural: bool) -> Fixture {
        // Large enough that test-set accuracy is meaningful (~60 test
        // pairs) while staying fast in debug builds.
        let world = World::generate(&WorldConfig {
            target_nodes: 220,
            max_depth: 6,
            ..WorldConfig::tiny(51)
        });
        let log = ClickLog::generate(
            &world,
            &ClickConfig {
                n_events: 12_000,
                ..ClickConfig::tiny(51)
            },
        );
        let ugc = UgcCorpus::generate(
            &world,
            &UgcConfig {
                n_sentences: 2_500,
                ..UgcConfig::tiny(51)
            },
        );
        let built = construct_graph(
            &world.existing,
            &world.vocab,
            &log.records,
            WeightScheme::IfIqf,
        );
        let dataset = generate_dataset(
            &world.existing,
            &world.vocab,
            &built.pairs,
            &DatasetConfig {
                strategy: Strategy::Adaptive,
                ..Default::default()
            },
        );
        let relational = use_relational.then(|| {
            RelationalModel::pretrain(&world.vocab, &ugc.sentences, &RelationalConfig::tiny(51)).0
        });
        let structural = use_structural.then(|| {
            StructuralModel::build(
                &world.existing,
                &world.vocab,
                &built.pairs,
                relational.as_ref(),
                &StructuralConfig::tiny(51),
            )
        });
        let detector = HypoDetector::new(relational, structural, &DetectorConfig::tiny(51));
        Fixture {
            world,
            dataset,
            detector,
        }
    }

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let mut f = fixture(true, true);
        let losses = f
            .detector
            .train(&f.world.vocab, &f.dataset.train, &DetectorConfig::tiny(54));
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "{losses:?}"
        );
        let acc = f.detector.accuracy(&f.world.vocab, &f.dataset.test);
        assert!(acc > 0.6, "test accuracy {acc}");
    }

    #[test]
    fn relational_only_detector_works() {
        let mut f = fixture(true, false);
        f.detector
            .train(&f.world.vocab, &f.dataset.train, &DetectorConfig::tiny(52));
        let acc = f.detector.accuracy(&f.world.vocab, &f.dataset.test);
        assert!(acc > 0.55, "relational-only accuracy {acc}");
    }

    #[test]
    fn structural_only_detector_works() {
        let mut f = fixture(false, true);
        f.detector
            .train(&f.world.vocab, &f.dataset.train, &DetectorConfig::tiny(53));
        // Structural-only generalisation is weak at toy scale (and weak
        // in the paper's Table VI as well); assert that the features are
        // at least fittable well beyond chance.
        let acc = f.detector.accuracy(&f.world.vocab, &f.dataset.train);
        assert!(acc > 0.6, "structural-only train accuracy {acc}");
    }

    #[test]
    #[should_panic(expected = "at least one representation")]
    fn empty_detector_rejected() {
        let _ = HypoDetector::new(None, None, &DetectorConfig::tiny(0));
    }

    /// The fast path behind `score`/`score_batch` must reproduce the
    /// gradient-capable `edge_features` + MLP path bit for bit — the
    /// contract that lets serving cache and batch scores while staying
    /// exactly equal to the offline twin.
    #[test]
    fn fast_path_scores_are_bitwise_identical_to_training_path() {
        let f = fixture(true, true);
        let vocab = &f.world.vocab;
        let pairs: Vec<_> = f
            .dataset
            .train
            .iter()
            .take(40)
            .map(|p| (p.parent, p.child))
            .collect();

        let reference: Vec<f32> = pairs
            .iter()
            .map(|&(p, c)| {
                let (e, _) = f.detector.edge_features(vocab, p, c);
                f.detector.mlp.predict_positive(&e)
            })
            .collect();

        let scalar: Vec<f32> = pairs
            .iter()
            .map(|&(p, c)| f.detector.score(vocab, p, c))
            .collect();
        let pool = crate::ScratchPool::new();
        let batched = f.detector.score_batch(vocab, &pairs, &pool);
        // Second batched run through the now-warm pool arena: buffer reuse
        // must not change a single bit either.
        let warm = f.detector.score_batch(vocab, &pairs, &pool);

        for (i, r) in reference.iter().enumerate() {
            assert_eq!(r.to_bits(), scalar[i].to_bits(), "scalar pair {i}");
            assert_eq!(r.to_bits(), batched[i].to_bits(), "batched pair {i}");
            assert_eq!(r.to_bits(), warm[i].to_bits(), "warm pair {i}");
        }
    }

    /// Ablated detectors (single representation) go through dedicated
    /// fast-path branches; both must match the training path bit for bit.
    #[test]
    fn fast_path_matches_training_path_under_ablations() {
        for (use_rel, use_st) in [(true, false), (false, true)] {
            let f = fixture(use_rel, use_st);
            let vocab = &f.world.vocab;
            let pairs: Vec<_> = f
                .dataset
                .train
                .iter()
                .take(20)
                .map(|p| (p.parent, p.child))
                .collect();
            let pool = crate::ScratchPool::new();
            let batched = f.detector.score_batch(vocab, &pairs, &pool);
            for (i, &(p, c)) in pairs.iter().enumerate() {
                let (e, _) = f.detector.edge_features(vocab, p, c);
                let reference = f.detector.mlp.predict_positive(&e);
                assert_eq!(
                    reference.to_bits(),
                    batched[i].to_bits(),
                    "rel={use_rel} st={use_st} pair {i}"
                );
            }
        }
    }

    #[test]
    fn score_is_probability_and_direction_sensitive() {
        let mut f = fixture(true, true);
        f.detector.train_with_val(
            &f.world.vocab,
            &f.dataset.train,
            &f.dataset.val,
            &DetectorConfig::tiny(54),
        );
        // Over the *training* positives, the learned direction must
        // outscore the reverse in a clear majority of cases (held-out
        // edges are too noisy at this toy scale for a direction check).
        let mut forward_wins = 0usize;
        let mut total = 0usize;
        for p in &f.dataset.train {
            if !p.label {
                continue;
            }
            let fwd = f.detector.score(&f.world.vocab, p.parent, p.child);
            let bwd = f.detector.score(&f.world.vocab, p.child, p.parent);
            assert!((0.0..=1.0).contains(&fwd));
            assert!((0.0..=1.0).contains(&bwd));
            total += 1;
            if fwd > bwd {
                forward_wins += 1;
            }
        }
        assert!(
            forward_wins * 5 > total * 3,
            "forward outscored reverse only {forward_wins}/{total} times"
        );
    }
}
