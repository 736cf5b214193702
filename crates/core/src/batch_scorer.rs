//! The batched inference fast path (no gradients, no per-pair
//! allocations).
//!
//! [`BatchScorer`] scores many `(parent, child)` pairs with three
//! amortisations over the scalar [`crate::HypoDetector::score`] loop:
//!
//! 1. **Length bucketing** — pair templates are grouped by (truncated)
//!    token length, and every bucket runs *one* row-batched encoder
//!    forward instead of one forward per pair. Attention never mixes rows
//!    across sequences, and every other layer is row-wise, so each pair's
//!    score is bitwise identical to scoring it alone.
//! 2. **One MLP GEMM per bucket** — edge features are assembled into a
//!    single `batch × edge_dim` matrix and classified in one pass.
//! 3. **Arena reuse** — all intermediates live in a [`Scratch`] plus a few
//!    staging vectors owned by the scorer; after the largest bucket shape
//!    has been seen once, a scoring pass performs zero heap allocations.
//!
//! Determinism: scores are independent of batch composition, ordering,
//! and thread count — the same guarantees the training kernels give,
//! inherited from the `*_into` twins in `taxo_nn`.

use std::sync::Mutex;

use crate::relational::RelationalModel;
use crate::{HypoDetector, StructuralModel};
use taxo_core::{ConceptId, Vocabulary};
use taxo_nn::{Matrix, Scratch};

/// The model stack a batched scoring pass runs through: the
/// full-precision [`HypoDetector`] or its int8 twin
/// [`crate::QuantizedDetector`]. The backend supplies tokenization
/// metadata and the two forward stages; all staging, length bucketing,
/// feature assembly, and scatter logic in [`BatchScorer`] is
/// tier-independent, so both tiers share one allocation-free arena and
/// inherit the same determinism guarantees.
pub trait ScoreBackend {
    /// The relational model used for templates and tokenization
    /// (`None` → structural-only detector).
    fn relational(&self) -> Option<&RelationalModel>;
    /// The structural feature source, if any.
    fn structural(&self) -> Option<&StructuralModel>;
    /// Width of the assembled edge-feature vector.
    fn edge_dim(&self) -> usize;
    /// One row-batched encoder forward over a rectangular token block,
    /// leaving per-token hidden states in `scratch.enc_out`.
    fn encode_batch(&self, ids: &[u32], segs: &[u32], seq_len: usize, scratch: &mut Scratch);
    /// One classifier pass over assembled edge features, appending the
    /// positive-class probability of each row to `probs`.
    fn classify_batch(
        &self,
        features: &Matrix,
        hidden: &mut Matrix,
        logits: &mut Matrix,
        probs: &mut Vec<f32>,
    );
}

impl ScoreBackend for HypoDetector {
    fn relational(&self) -> Option<&RelationalModel> {
        self.relational.as_ref()
    }

    fn structural(&self) -> Option<&StructuralModel> {
        self.structural.as_ref()
    }

    fn edge_dim(&self) -> usize {
        HypoDetector::edge_dim(self)
    }

    fn encode_batch(&self, ids: &[u32], segs: &[u32], seq_len: usize, scratch: &mut Scratch) {
        self.relational
            .as_ref()
            .expect("encode_batch requires a relational model")
            .encoder
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

/// Reusable state for batched scoring. Create once (per thread) and feed
/// it any number of `score_into` calls; buffers grow to the largest batch
/// seen and are then reused allocation-free.
#[derive(Debug, Default)]
pub struct BatchScorer {
    scratch: Scratch,
    /// Staged template tokens of every pair in the current call, jagged;
    /// pair `p` occupies `stage_ids[offsets[p]..offsets[p + 1]]`.
    stage_ids: Vec<u32>,
    stage_segs: Vec<u32>,
    offsets: Vec<usize>,
    /// Pair indices sorted by template length — consecutive runs of equal
    /// length form the buckets.
    order: Vec<usize>,
    /// Rectangular token block of the current bucket.
    flat_ids: Vec<u32>,
    flat_segs: Vec<u32>,
    /// Positive-class probabilities of the current bucket.
    probs: Vec<f32>,
    /// Result buffer for [`BatchScorer::score_one`].
    single: Vec<f32>,
}

impl BatchScorer {
    pub fn new() -> Self {
        BatchScorer::default()
    }

    /// Scores every pair, writing probabilities into `out` (cleared first)
    /// in input order. For the full-precision backend this is bitwise
    /// identical to calling [`crate::HypoDetector::score`] per pair.
    pub fn score_into<B: ScoreBackend>(
        &mut self,
        det: &B,
        vocab: &Vocabulary,
        pairs: &[(ConceptId, ConceptId)],
        out: &mut Vec<f32>,
    ) {
        self.score_with_features_into(
            det,
            vocab,
            pairs,
            |p, row| {
                if let Some(st) = det.structural() {
                    let (q, i) = pairs[p];
                    st.pair_features_into(q, i, row);
                }
            },
            out,
        );
    }

    /// [`BatchScorer::score_into`] with the structural feature slice
    /// supplied by the caller: `fill_structural(p, slice)` receives each
    /// pair's **zeroed** structural slice (`feature_dim` wide, empty when
    /// the detector has no structural model) and must write the same
    /// bytes [`crate::StructuralModel::pair_features_into`] would — e.g.
    /// copied from a table precomputed once per serving snapshot. Leaving
    /// the slice untouched reproduces the unknown-concept zero vector.
    pub fn score_with_features_into<B: ScoreBackend, F>(
        &mut self,
        det: &B,
        vocab: &Vocabulary,
        pairs: &[(ConceptId, ConceptId)],
        fill_structural: F,
        out: &mut Vec<f32>,
    ) where
        F: Fn(usize, &mut [f32]),
    {
        out.clear();
        if pairs.is_empty() {
            return;
        }
        out.resize(pairs.len(), 0.0);
        let BatchScorer {
            scratch,
            stage_ids,
            stage_segs,
            offsets,
            order,
            flat_ids,
            flat_segs,
            probs,
            ..
        } = self;
        let rel_dim = det.relational().map_or(0, |r| r.dim());
        let edge_dim = det.edge_dim();

        let Some(rel) = det.relational() else {
            // Structural-only detector: no encoder, a single MLP batch.
            debug_assert!(
                det.structural().is_some(),
                "detector has at least one representation"
            );
            scratch.features.reset(pairs.len(), edge_dim);
            for r in 0..pairs.len() {
                fill_structural(r, scratch.features.row_mut(r));
            }
            probs.clear();
            det.classify_batch(
                &scratch.features,
                &mut scratch.mlp_hidden,
                &mut scratch.logits,
                probs,
            );
            out.copy_from_slice(probs);
            return;
        };

        // Stage every pair's (truncated) template once.
        stage_ids.clear();
        stage_segs.clear();
        offsets.clear();
        offsets.push(0);
        for &(q, i) in pairs {
            rel.append_pair_ids(vocab, q, i, stage_ids, stage_segs);
            offsets.push(stage_ids.len());
        }

        // Bucket by template length. `sort_unstable` (no temp buffer) with
        // the index as tiebreaker keeps the order reproducible; bucket
        // composition cannot change any score regardless.
        order.clear();
        order.extend(0..pairs.len());
        order.sort_unstable_by_key(|&p| (offsets[p + 1] - offsets[p], p));

        let mut start = 0;
        while start < order.len() {
            let seq_len = offsets[order[start] + 1] - offsets[order[start]];
            let mut end = start + 1;
            while end < order.len() && offsets[order[end] + 1] - offsets[order[end]] == seq_len {
                end += 1;
            }
            let bucket = &order[start..end];

            // One rectangular token block, one encoder forward.
            flat_ids.clear();
            flat_segs.clear();
            for &p in bucket {
                flat_ids.extend_from_slice(&stage_ids[offsets[p]..offsets[p + 1]]);
                flat_segs.extend_from_slice(&stage_segs[offsets[p]..offsets[p + 1]]);
            }
            det.encode_batch(flat_ids, flat_segs, seq_len, scratch);

            // Assemble edge features: relational readout (Eq. 7 variant —
            // the exact expression of `forward_pair_into`) then the structural
            // slice (Eq. 13).
            scratch.features.reset(bucket.len(), edge_dim);
            for (r, &p) in bucket.iter().enumerate() {
                let base = r * seq_len;
                let row = scratch.features.row_mut(r);
                for (c, slot) in row[..rel_dim].iter_mut().enumerate() {
                    let mean: f32 = (0..seq_len)
                        .map(|t| scratch.enc_out[(base + t, c)])
                        .sum::<f32>()
                        / seq_len as f32;
                    *slot = 0.5 * scratch.enc_out[(base, c)] + 0.5 * mean;
                }
                fill_structural(p, &mut row[rel_dim..]);
            }

            // One MLP GEMM for the whole bucket; scatter back.
            probs.clear();
            det.classify_batch(
                &scratch.features,
                &mut scratch.mlp_hidden,
                &mut scratch.logits,
                probs,
            );
            for (r, &p) in bucket.iter().enumerate() {
                out[p] = probs[r];
            }
            start = end;
        }
    }

    /// Scores a single pair through the same arena — the scalar fast path.
    pub fn score_one<B: ScoreBackend>(
        &mut self,
        det: &B,
        vocab: &Vocabulary,
        parent: ConceptId,
        child: ConceptId,
    ) -> f32 {
        let mut out = std::mem::take(&mut self.single);
        self.score_into(det, vocab, &[(parent, child)], &mut out);
        let score = out[0];
        self.single = out; // keep the capacity for the next call
        score
    }
}

/// A lock-protected stack of warm [`BatchScorer`]s, shared across
/// `par_map` workers. The compute pool's workers persist, so a
/// `thread_local` arena would stay warm as well; the pool type stays
/// because callers (servebench's replay among them) pass one in.
#[derive(Debug, Default)]
pub struct ScratchPool {
    pool: Mutex<Vec<BatchScorer>>,
}

impl ScratchPool {
    pub fn new() -> Self {
        ScratchPool::default()
    }

    /// Pops a warm scorer, or builds a cold one if the pool is empty.
    pub fn take(&self) -> BatchScorer {
        self.pool.lock().unwrap().pop().unwrap_or_default()
    }

    /// Returns a scorer to the pool for reuse.
    pub fn put(&self, scorer: BatchScorer) {
        self.pool.lock().unwrap().push(scorer);
    }

    /// Scores `pairs` in input order: 64-pair chunks fan out across
    /// `par_map` workers, each on a warm [`BatchScorer`] popped from this
    /// pool, and `fill_structural(pair, slice)` supplies each pair's
    /// structural slice (see [`BatchScorer::score_with_features_into`]).
    /// Chunking cannot change a score, so the result is bitwise identical
    /// to scoring every pair alone, at any thread count.
    pub fn score_chunked<B, F>(
        &self,
        det: &B,
        vocab: &Vocabulary,
        pairs: &[(ConceptId, ConceptId)],
        fill_structural: F,
    ) -> Vec<f32>
    where
        B: ScoreBackend + Sync,
        F: Fn((ConceptId, ConceptId), &mut [f32]) + Sync,
    {
        // Large enough to amortise bucketing, small enough to spread over
        // workers.
        const CHUNK: usize = 64;
        let run = |chunk: &[(ConceptId, ConceptId)]| -> Vec<f32> {
            let mut scorer = self.take();
            let mut out = Vec::with_capacity(chunk.len());
            scorer.score_with_features_into(
                det,
                vocab,
                chunk,
                |p, row| fill_structural(chunk[p], row),
                &mut out,
            );
            self.put(scorer);
            out
        };
        if pairs.len() <= CHUNK {
            return run(pairs);
        }
        let n_chunks = pairs.len().div_ceil(CHUNK);
        taxo_nn::parallel::par_map(n_chunks, |ci| {
            run(&pairs[ci * CHUNK..((ci + 1) * CHUNK).min(pairs.len())])
        })
        .concat()
    }
}
