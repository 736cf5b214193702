//! Int8 weight-quantized serving tier.
//!
//! A [`QuantizedDetector`] wraps a trained [`HypoDetector`] with int8
//! per-row-scaled copies of every Linear weight matrix (embeddings and
//! LayerNorms stay f32 — they are small and precision-critical). It
//! plugs into the same [`BatchScorer`] arena through the
//! [`ScoreBackend`] trait, so staging, bucketing, readout, and scatter
//! are shared code with the f32 tier and both tiers are allocation-free
//! after warm-up and bit-identical at any thread count.
//!
//! Quantization is forward-only and lossy: activations and accumulation
//! stay f32 in the canonical lane order, so the only error source is
//! weight rounding, bounded per GEMM output element by
//! `Σ_k |x_k| · scale_j / 2`. The serving layer measures the realized
//! divergence against the f32 tier at snapshot-build time and exports it
//! as a gauge; `loadgen --verify` re-measures it end to end.

use std::sync::Arc;

use crate::batch_scorer::ScoreBackend;
use crate::relational::RelationalModel;
use crate::{BatchScorer, HypoDetector, StructuralModel};
use taxo_core::{ConceptId, Vocabulary};
use taxo_nn::{Matrix, QuantEncoder, QuantMlp, Scratch};

/// Int8 twin of a trained [`HypoDetector`]: shares the base detector for
/// tokenization and structural features, carries quantized encoder and
/// classifier weights. Cheap to clone (the base is behind an [`Arc`]).
#[derive(Debug, Clone)]
pub struct QuantizedDetector {
    base: Arc<HypoDetector>,
    encoder: Option<QuantEncoder>,
    mlp: QuantMlp,
}

impl QuantizedDetector {
    /// Quantizes every Linear in the detector's encoder and classifier.
    /// The base detector is retained (shared, not copied) for template
    /// tokenization and structural feature lookup.
    pub fn from_detector(base: Arc<HypoDetector>) -> Self {
        let encoder = base
            .relational
            .as_ref()
            .map(|r| QuantEncoder::from_encoder(&r.encoder));
        let mlp = QuantMlp::from_mlp(&base.mlp);
        QuantizedDetector { base, encoder, mlp }
    }

    /// The full-precision detector this tier was quantized from.
    pub fn base(&self) -> &HypoDetector {
        &self.base
    }

    /// Probability that `<parent, child>` is a hyponymy relation under
    /// the quantized weights. Same fast path as
    /// [`HypoDetector::score`], different tier.
    pub fn score(&self, vocab: &Vocabulary, parent: ConceptId, child: ConceptId) -> f32 {
        crate::detector::with_thread_scorer(|s| s.score_one(self, vocab, parent, child))
    }

    /// Scores many pairs through a caller-owned arena, in input order.
    pub fn score_into(
        &self,
        scorer: &mut BatchScorer,
        vocab: &Vocabulary,
        pairs: &[(ConceptId, ConceptId)],
        out: &mut Vec<f32>,
    ) {
        scorer.score_into(self, vocab, pairs, out);
    }

    /// Largest |quant − f32| score difference over `pairs` — the
    /// realized divergence of this quantization on live data. Serving
    /// publishes this at snapshot-build time.
    pub fn max_abs_divergence(&self, vocab: &Vocabulary, pairs: &[(ConceptId, ConceptId)]) -> f32 {
        let mut scorer = BatchScorer::new();
        let mut quant = Vec::with_capacity(pairs.len());
        let mut full = Vec::with_capacity(pairs.len());
        scorer.score_into(self, vocab, pairs, &mut quant);
        scorer.score_into(self.base.as_ref(), vocab, pairs, &mut full);
        quant
            .iter()
            .zip(&full)
            .map(|(&q, &f)| (q - f).abs())
            .fold(0.0, f32::max)
    }
}

impl ScoreBackend for QuantizedDetector {
    fn relational(&self) -> Option<&RelationalModel> {
        self.base.relational.as_ref()
    }

    fn structural(&self) -> Option<&StructuralModel> {
        self.base.structural.as_ref()
    }

    fn edge_dim(&self) -> usize {
        self.base.edge_dim()
    }

    fn encode_batch(&self, ids: &[u32], segs: &[u32], seq_len: usize, scratch: &mut Scratch) {
        self.encoder
            .as_ref()
            .expect("encode_batch requires a relational model")
            .forward_batch_into(ids, segs, seq_len, scratch);
    }

    fn classify_batch(
        &self,
        features: &Matrix,
        hidden: &mut Matrix,
        logits: &mut Matrix,
        probs: &mut Vec<f32>,
    ) {
        self.mlp
            .predict_positive_batch_into(features, hidden, logits, probs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{construct_graph, DetectorConfig, RelationalConfig, StructuralConfig};
    use taxo_graph::WeightScheme;
    use taxo_synth::{ClickConfig, ClickLog, UgcConfig, UgcCorpus, World, WorldConfig};

    fn fixture() -> (World, Vec<(ConceptId, ConceptId)>, QuantizedDetector) {
        let world = World::generate(&WorldConfig::tiny(29));
        let log = ClickLog::generate(&world, &ClickConfig::tiny(29));
        let ugc = UgcCorpus::generate(
            &world,
            &UgcConfig {
                n_sentences: 600,
                ..UgcConfig::tiny(29)
            },
        );
        let built = construct_graph(
            &world.existing,
            &world.vocab,
            &log.records,
            WeightScheme::IfIqf,
        );
        let relational =
            RelationalModel::pretrain(&world.vocab, &ugc.sentences, &RelationalConfig::tiny(29)).0;
        let structural = StructuralModel::build(
            &world.existing,
            &world.vocab,
            &built.pairs,
            Some(&relational),
            &StructuralConfig::tiny(29),
        );
        let detector = HypoDetector::new(
            Some(relational),
            Some(structural),
            &DetectorConfig::tiny(29),
        );
        let pairs: Vec<_> = built
            .pairs
            .iter()
            .take(48)
            .map(|p| (p.query, p.item))
            .collect();
        let quant = QuantizedDetector::from_detector(Arc::new(detector));
        (world, pairs, quant)
    }

    #[test]
    fn quant_scores_track_f32_scores_and_diverge_boundedly() {
        let (world, pairs, quant) = fixture();
        let div = quant.max_abs_divergence(&world.vocab, &pairs);
        // Lossy (the weights really are rounded) but close: probabilities
        // live in [0, 1], so 0.05 is a 5-point ceiling.
        assert!(div > 0.0, "quantization should not be a no-op");
        assert!(div < 0.05, "divergence {div} too large");
    }

    #[test]
    fn quant_batch_is_bitwise_identical_to_quant_singles() {
        let (world, pairs, quant) = fixture();
        let mut scorer = BatchScorer::new();
        let mut batch = Vec::new();
        quant.score_into(&mut scorer, &world.vocab, &pairs, &mut batch);
        for (&(p, c), &b) in pairs.iter().zip(&batch) {
            let single = quant.score(&world.vocab, p, c);
            assert_eq!(single.to_bits(), b.to_bits(), "pair ({p:?}, {c:?})");
        }
    }

    #[test]
    fn quant_scoring_is_deterministic_across_repeats() {
        let (world, pairs, quant) = fixture();
        let mut scorer = BatchScorer::new();
        let mut a = Vec::new();
        let mut b = Vec::new();
        quant.score_into(&mut scorer, &world.vocab, &pairs, &mut a);
        quant.score_into(&mut scorer, &world.vocab, &pairs, &mut b);
        let fa: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
        let fb: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
        assert_eq!(fa, fb);
    }
}
