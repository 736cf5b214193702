use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use taxo_core::{ConceptId, Vocabulary};
use taxo_nn::{
    Adam, EncoderConfig, EncoderCtx, EncoderGrads, Matrix, MlmWindow, Module, TransformerEncoder,
};
use taxo_obs::counter;
use taxo_text::{ConceptMatcher, TokenVocab, CLS, MASK, SEP};

/// Configuration of the relational representation (Section III-B1).
#[derive(Debug, Clone)]
pub struct RelationalConfig {
    pub d_model: usize,
    pub n_layers: usize,
    pub n_heads: usize,
    pub ff_hidden: usize,
    pub max_len: usize,
    /// MLM pretraining epochs over the UGC corpus.
    pub pretrain_epochs: usize,
    pub lr: f32,
    /// Gradient-accumulation window (sentences per optimiser step).
    pub accum: usize,
    /// Concept-level masking (the paper's C-BERT strategy) vs. plain
    /// token-level masking (the "- Concept-level Masking" ablation).
    pub concept_level_masking: bool,
    /// Probability of masking each concept span (concept-level) — the
    /// paper masks mentioned concepts and recovers all slots.
    pub span_mask_prob: f64,
    /// Probability of masking each token (token-level ablation).
    pub token_mask_prob: f64,
    /// Encode pairs with the `"<q> is a <i>"` template (Eq. 6) vs. plain
    /// concatenation (the "- Template" ablation).
    pub use_template: bool,
    pub seed: u64,
}

impl Default for RelationalConfig {
    fn default() -> Self {
        RelationalConfig {
            d_model: 32,
            n_layers: 2,
            n_heads: 4,
            ff_hidden: 64,
            max_len: 40,
            pretrain_epochs: 6,
            lr: 3e-3,
            accum: 4,
            concept_level_masking: true,
            span_mask_prob: 0.5,
            token_mask_prob: 0.15,
            use_template: true,
            seed: 0xCBE27,
        }
    }
}

impl RelationalConfig {
    /// A very small configuration for tests.
    pub fn tiny(seed: u64) -> Self {
        RelationalConfig {
            d_model: 16,
            n_layers: 1,
            n_heads: 2,
            ff_hidden: 32,
            pretrain_epochs: 3,
            seed,
            ..Default::default()
        }
    }
}

/// Reusable forward state of one pair encoding, consumed by
/// [`RelationalModel::backward_pair_into`] during fine-tuning. Detector
/// training keeps one per batch slot for a whole training call.
#[derive(Debug, Clone, Default)]
pub struct PairCtx {
    /// The pair template's (truncated) token and segment ids.
    ids: Vec<u32>,
    segments: Vec<u32>,
    enc: EncoderCtx,
    /// The relational representation `r` (`d_model` long).
    r: Vec<f32>,
}

impl PairCtx {
    /// The relational representation `r` of the last forward.
    pub fn r(&self) -> &[f32] {
        &self.r
    }
}

/// Backward temporaries and recorded gradient updates of
/// [`RelationalModel::backward_pair_into`], replayed by
/// [`RelationalModel::replay_pair`]. Detector training keeps one per
/// batch slot for a whole training call.
#[derive(Debug, Clone, Default)]
pub struct PairGrads {
    /// Gradient w.r.t. the encoder output.
    d_hidden: Matrix,
    enc: EncoderGrads,
}

/// C-BERT and the template encoder: a Transformer pretrained on UGC with
/// concept-level masking, producing the relational representation
/// `r = C-BERT([CLS] ⊕ q ⊕ is ⊕ a ⊕ i ⊕ [SEP])[0]` (Eq. 6–7).
#[derive(Debug, Clone)]
pub struct RelationalModel {
    pub encoder: TransformerEncoder,
    pub tokens: TokenVocab,
    pub use_template: bool,
    is_id: u32,
    a_id: u32,
    /// Per-concept name tokenization, indexed by `ConceptId`, built once
    /// at construction so repeated scores never re-tokenize. Concepts
    /// interned into the vocabulary *after* construction fall back to
    /// encoding on the fly (names of existing ids are immutable, so cached
    /// entries can never go stale).
    concept_tokens: Vec<Vec<u32>>,
}

impl RelationalModel {
    fn build_token_vocab(vocab: &Vocabulary, corpus: &[String]) -> TokenVocab {
        let mut tokens = TokenVocab::new();
        tokens.intern("is");
        tokens.intern("a");
        for (_, name) in vocab.iter() {
            tokens.intern_text(name);
        }
        for s in corpus {
            tokens.intern_text(s);
        }
        tokens
    }

    fn from_parts(
        tokens: TokenVocab,
        vocab: &Vocabulary,
        cfg: &RelationalConfig,
        rng: &mut StdRng,
    ) -> Self {
        let enc_cfg = EncoderConfig {
            vocab_size: tokens.len(),
            d_model: cfg.d_model,
            n_layers: cfg.n_layers,
            n_heads: cfg.n_heads,
            ff_hidden: cfg.ff_hidden,
            max_len: cfg.max_len,
        };
        let encoder = TransformerEncoder::new(enc_cfg, rng);
        let is_id = tokens.get("is").expect("'is' interned");
        let a_id = tokens.get("a").expect("'a' interned");
        // Ids are dense and in interning order, so position in `iter` is
        // the `ConceptId` index.
        let concept_tokens = vocab.iter().map(|(_, name)| tokens.encode(name)).collect();
        RelationalModel {
            encoder,
            tokens,
            use_template: cfg.use_template,
            is_id,
            a_id,
            concept_tokens,
        }
    }

    /// A randomly initialised encoder with no domain pretraining — the
    /// `Vanilla-BERT` baseline's starting point (a general-purpose model
    /// that has never seen the domain's concepts).
    pub fn vanilla(vocab: &Vocabulary, corpus: &[String], cfg: &RelationalConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let tokens = Self::build_token_vocab(vocab, corpus);
        Self::from_parts(tokens, vocab, cfg, &mut rng)
    }

    /// Pretrains C-BERT on the UGC corpus with (by default) concept-level
    /// masking. Returns the model and the mean MLM loss per epoch.
    pub fn pretrain(
        vocab: &Vocabulary,
        corpus: &[String],
        cfg: &RelationalConfig,
    ) -> (Self, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let tokens = Self::build_token_vocab(vocab, corpus);
        let mut model = Self::from_parts(tokens, vocab, cfg, &mut rng);
        let matcher = ConceptMatcher::new(vocab);

        let mut adam = Adam::new(cfg.lr);
        let mut order: Vec<usize> = (0..corpus.len()).collect();
        let mut epoch_losses = Vec::with_capacity(cfg.pretrain_epochs);
        // One gradient-accumulation window, reused for the whole run.
        // Masks are sampled sequentially (keeping the rng stream identical
        // to the fused loop); each full window records its examples'
        // forwards and backwards in parallel and replays them in index
        // order, so results are thread-count invariant (see
        // `MlmWindow::flush`).
        let mut window = MlmWindow::new();
        // A sentence's tokens and concept mentions depend only on the
        // sentence: found once per call, not once per epoch.
        let sentences: Vec<_> = corpus
            .iter()
            .map(|sentence| {
                let body = model.tokens.encode(sentence);
                let spans = if cfg.concept_level_masking && !body.is_empty() {
                    matcher.identify_all(sentence)
                } else {
                    Vec::new()
                };
                (body, spans)
            })
            .collect();
        let (mut ids, mut masked, mut targets) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..cfg.pretrain_epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0f64;
            let mut counted = 0usize;
            for &si in &order {
                let (body, spans) = &sentences[si];
                if body.is_empty() {
                    continue;
                }
                // Sequence: [CLS] body [SEP]; body token t sits at t+1.
                ids.clear();
                ids.push(CLS);
                ids.extend_from_slice(body);
                ids.push(SEP);

                let mask_positions: Vec<usize> = if cfg.concept_level_masking {
                    // Mask exactly one mentioned concept (all its tokens),
                    // keeping any other mention visible: the model must
                    // recover a concept from its relational partner, which
                    // is precisely the hyponymy signal UGC carries.
                    let mut pos = Vec::new();
                    if !spans.is_empty() {
                        let (start, len, _) = spans[rng.random_range(0..spans.len())];
                        pos.extend((start + 1)..(start + 1 + len));
                    }
                    pos
                } else {
                    let mut pos: Vec<usize> = (1..=body.len())
                        .filter(|_| rng.random_range(0.0..1.0) < cfg.token_mask_prob)
                        .collect();
                    if pos.is_empty() {
                        pos.push(1 + rng.random_range(0..body.len()));
                    }
                    pos
                };
                if mask_positions.is_empty() {
                    continue;
                }
                masked.clone_from(&ids);
                targets.clear();
                for &p in &mask_positions {
                    if p < masked.len() - 1 {
                        targets.push((p, ids[p]));
                        masked[p] = MASK;
                    }
                }
                if targets.is_empty() {
                    continue;
                }
                window.push(&masked, &targets);
                counted += 1;
                if window.len() >= cfg.accum {
                    total += window.flush(&mut model.encoder, &mut adam);
                }
            }
            total += window.flush(&mut model.encoder, &mut adam);
            counter!("train.mlm.epochs").inc();
            counter!("train.mlm.examples").add(counted as u64);
            epoch_losses.push((total / counted.max(1) as f64) as f32);
        }
        (model, epoch_losses)
    }

    /// Token and segment ids for the pair input (Eq. 6): with the
    /// template, `[CLS] i is a q [SEP]`; without it, `[CLS] i [SEP] q
    /// [SEP]`. Segment 0 covers `[CLS]` and the first concept, segment 1
    /// the rest — the BERT sentence-A/B convention, which lets the
    /// encoder represent pair *order* (shuffle negatives have the same
    /// token multiset as their positives).
    pub fn pair_ids(&self, query_name: &str, item_name: &str) -> (Vec<u32>, Vec<u32>) {
        let q = self.tokens.encode(query_name);
        let i = self.tokens.encode(item_name);
        let mut ids = Vec::with_capacity(q.len() + i.len() + 4);
        ids.push(CLS);
        // Note the template order: the paper reads "<child> is a
        // <parent>" as the natural-language statement of hyponymy, with
        // the *item* (candidate hyponym) first.
        if self.use_template {
            ids.extend_from_slice(&i);
            ids.push(self.is_id);
            ids.push(self.a_id);
            ids.extend_from_slice(&q);
        } else {
            ids.extend_from_slice(&i);
            ids.push(SEP);
            ids.extend_from_slice(&q);
        }
        ids.push(SEP);
        let boundary = 1 + i.len();
        let segments = (0..ids.len()).map(|t| u32::from(t >= boundary)).collect();
        (ids, segments)
    }

    /// Appends the cached name tokens of `c` to `out` without allocating;
    /// concepts interned after construction are encoded on the fly (still
    /// allocation-free via [`TokenVocab::encode_into`]).
    fn concept_tokens_into(&self, vocab: &Vocabulary, c: ConceptId, out: &mut Vec<u32>) {
        match self.concept_tokens.get(c.index()) {
            Some(cached) => out.extend_from_slice(cached),
            None => self.tokens.encode_into(vocab.name(c), out),
        }
    }

    /// Id-based, cache-backed [`RelationalModel::pair_ids`] for the
    /// inference fast path: appends the pair template — already truncated
    /// to the encoder's `max_len` — to `ids`/`segments` and returns the
    /// truncated length. Produces exactly the tokens `pair_ids` would
    /// (then truncated the way the encoder truncates), so downstream
    /// scores are bitwise identical.
    pub fn append_pair_ids(
        &self,
        vocab: &Vocabulary,
        query: ConceptId,
        item: ConceptId,
        ids: &mut Vec<u32>,
        segments: &mut Vec<u32>,
    ) -> usize {
        let start = ids.len();
        ids.push(CLS);
        self.concept_tokens_into(vocab, item, ids);
        let boundary = ids.len() - start; // = 1 + item_tokens.len()
        if self.use_template {
            ids.push(self.is_id);
            ids.push(self.a_id);
        } else {
            ids.push(SEP);
        }
        self.concept_tokens_into(vocab, query, ids);
        ids.push(SEP);
        let max_len = self.encoder.config.max_len;
        if ids.len() - start > max_len {
            ids.truncate(start + max_len);
        }
        let len = ids.len() - start;
        segments.extend((0..len).map(|t| u32::from(t >= boundary)));
        len
    }

    /// Encodes a pair into its relational representation `r` (1 × d) and
    /// a backward context; see [`RelationalModel::forward_pair_into`].
    pub fn forward_pair(&self, query_name: &str, item_name: &str) -> (Matrix, PairCtx) {
        let mut ctx = PairCtx::default();
        (ctx.ids, ctx.segments) = self.pair_ids(query_name, item_name);
        self.encode_pair(&mut ctx);
        (Matrix::row_vector(ctx.r.clone()), ctx)
    }

    /// The training forward of one pair into a reused context: stages the
    /// cached pair template ([`RelationalModel::append_pair_ids`], the
    /// tokens [`RelationalModel::pair_ids`] gives for the two names, so
    /// the same bits), encodes it and reads `r` out into
    /// [`PairCtx::r`]. Allocates nothing once `ctx` is warm.
    pub fn forward_pair_into(
        &self,
        vocab: &Vocabulary,
        query: ConceptId,
        item: ConceptId,
        ctx: &mut PairCtx,
    ) {
        ctx.ids.clear();
        ctx.segments.clear();
        self.append_pair_ids(vocab, query, item, &mut ctx.ids, &mut ctx.segments);
        self.encode_pair(ctx);
    }

    /// Encodes `ctx.ids` and computes the readout, which averages the
    /// `[CLS]` vector with the mean of all token states: a small
    /// from-scratch encoder carries most pair information in the token
    /// states themselves, whereas the paper's full-size BERT can afford a
    /// pure-`[CLS]` readout (Eq. 7).
    fn encode_pair(&self, ctx: &mut PairCtx) {
        self.encoder
            .forward_ctx(&ctx.ids, Some(&ctx.segments), &mut ctx.enc);
        let hidden = ctx.enc.hidden();
        let n = hidden.rows();
        ctx.r.clear();
        ctx.r.extend((0..hidden.cols()).map(|c| {
            let mean: f32 = (0..n).map(|t| hidden.row(t)[c]).sum::<f32>() / n as f32;
            0.5 * hidden.row(0)[c] + 0.5 * mean
        }));
    }

    /// Routes the gradient w.r.t. `r` back through the encoder,
    /// accumulating its parameter gradients. Wraps
    /// [`RelationalModel::backward_pair_into`] and
    /// [`RelationalModel::replay_pair`].
    pub fn backward_pair(&mut self, ctx: &PairCtx, d_r: &Matrix) {
        let mut g = PairGrads::default();
        self.backward_pair_into(ctx, d_r.row(0), &mut g);
        self.replay_pair(ctx, &g);
    }

    /// The backward data pass of one pair: routes the gradient w.r.t.
    /// `r` (`d_model` long) back through the encoder, recording every
    /// parameter-gradient update in `g` and taking every temporary from
    /// it. Reads only parameter values, so a batch's pairs can run
    /// concurrently, each into its own `g`.
    pub fn backward_pair_into(&self, ctx: &PairCtx, d_r: &[f32], g: &mut PairGrads) {
        let hidden = ctx.enc.hidden();
        let (len, d) = (hidden.rows(), hidden.cols());
        let n = len as f32;
        g.d_hidden.reset_for_overwrite(len, d);
        for t in 0..len {
            for (o, &dr) in g.d_hidden.row_mut(t).iter_mut().zip(d_r) {
                *o = 0.5 * dr / n;
            }
        }
        for (o, &dr) in g.d_hidden.row_mut(0).iter_mut().zip(d_r) {
            *o += 0.5 * dr;
        }
        self.encoder
            .backward_into(&ctx.enc, &g.d_hidden, &mut g.enc);
    }

    /// Replays the updates [`RelationalModel::backward_pair_into`]
    /// recorded in `g` for the pair in `ctx` into the encoder gradients.
    pub fn replay_pair(&mut self, ctx: &PairCtx, g: &PairGrads) {
        self.encoder.replay(&ctx.enc, &g.enc);
    }

    /// The `[CLS]` embedding of a single concept (Eq. 8), used to
    /// initialise structural node features.
    pub fn encode_concept(&self, name: &str) -> Vec<f32> {
        let mut ids = vec![CLS];
        ids.extend(self.tokens.encode(name));
        ids.push(SEP);
        self.encoder.cls_vector(&ids)
    }

    /// Relational representation dimension.
    pub fn dim(&self) -> usize {
        self.encoder.config.d_model
    }
}

impl Module for RelationalModel {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut taxo_nn::Param)) {
        self.encoder.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxo_synth::{UgcConfig, UgcCorpus, World, WorldConfig};

    fn setup() -> (World, UgcCorpus) {
        let world = World::generate(&WorldConfig::tiny(21));
        let corpus = UgcCorpus::generate(&world, &UgcConfig::tiny(21));
        (world, corpus)
    }

    #[test]
    fn pretraining_reduces_mlm_loss() {
        let (world, corpus) = setup();
        let cfg = RelationalConfig {
            pretrain_epochs: 3,
            ..RelationalConfig::tiny(1)
        };
        let (_, losses) = RelationalModel::pretrain(&world.vocab, &corpus.sentences, &cfg);
        assert_eq!(losses.len(), 3);
        assert!(losses[2] < losses[0], "MLM loss should fall: {losses:?}");
    }

    #[test]
    fn template_ids_follow_eq6() {
        let (world, corpus) = setup();
        let model =
            RelationalModel::vanilla(&world.vocab, &corpus.sentences, &RelationalConfig::tiny(2));
        let q = world.name(world.roots[0]);
        let (ids, segments) = model.pair_ids(q, q);
        assert_eq!(ids[0], CLS);
        assert_eq!(*ids.last().unwrap(), SEP);
        assert!(ids.contains(&model.is_id));
        assert!(ids.contains(&model.a_id));
        assert_eq!(segments.len(), ids.len());
        assert_eq!(segments[0], 0);
        assert_eq!(*segments.last().unwrap(), 1);
    }

    #[test]
    fn no_template_uses_separator() {
        let (world, corpus) = setup();
        let cfg = RelationalConfig {
            use_template: false,
            ..RelationalConfig::tiny(2)
        };
        let model = RelationalModel::vanilla(&world.vocab, &corpus.sentences, &cfg);
        let q = world.name(world.roots[0]);
        let (ids, _) = model.pair_ids(q, q);
        // Middle separator plus final separator.
        assert_eq!(ids.iter().filter(|&&t| t == SEP).count(), 2);
        assert!(!ids.contains(&model.is_id) || world.name(world.roots[0]).contains("is"));
    }

    #[test]
    fn pair_representation_is_direction_sensitive() {
        let (world, corpus) = setup();
        let (model, _) =
            RelationalModel::pretrain(&world.vocab, &corpus.sentences, &RelationalConfig::tiny(3));
        let root = world.name(world.roots[0]);
        let child_id = world.truth.children(world.roots[0])[0];
        let child = world.name(child_id);
        let (r1, _) = model.forward_pair(root, child);
        let (r2, _) = model.forward_pair(child, root);
        let diff: f32 = r1
            .data()
            .iter()
            .zip(r2.data())
            .map(|(&a, &b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-3, "representations must encode direction");
    }

    #[test]
    fn backward_pair_accumulates_encoder_grads() {
        let (world, corpus) = setup();
        let mut model =
            RelationalModel::vanilla(&world.vocab, &corpus.sentences, &RelationalConfig::tiny(4));
        let q = world.name(world.roots[0]);
        let (r, ctx) = model.forward_pair(q, q);
        let d_r = Matrix::from_fn(1, r.cols(), |_, c| 0.1 * (c as f32 + 1.0));
        model.backward_pair(&ctx, &d_r);
        let mut grad_norm = 0.0f32;
        model.visit_params(&mut |p| grad_norm += p.grad.norm());
        assert!(grad_norm > 0.0);
    }

    #[test]
    fn encode_concept_has_model_dim() {
        let (world, corpus) = setup();
        let model =
            RelationalModel::vanilla(&world.vocab, &corpus.sentences, &RelationalConfig::tiny(5));
        let v = model.encode_concept(world.name(world.roots[0]));
        assert_eq!(v.len(), model.dim());
    }
}
