//! One detector's scores of candidate pairs, each computed once.
//!
//! A pair's score depends only on the detector (Section III-C3 scores a
//! query's mined candidates with the trained classifier), so a
//! [`PairScores`] table fills each pair the first time it enters the
//! scored window and answers every later read from memory: top-down
//! expansion on every ingest, and a serving layer on every request. The
//! table is derived state — tied to one detector, never persisted.

use crate::{CandidatePair, HypoDetector, ScratchPool};
use std::collections::HashMap;
use taxo_core::{ConceptId, Vocabulary};
use taxo_obs::{counter, span};

/// Scores of `(query, item)` candidate pairs under one detector.
#[derive(Debug, Clone, Default)]
pub struct PairScores {
    scores: HashMap<(ConceptId, ConceptId), f32>,
}

impl PairScores {
    /// The stored score of a pair, bit-identical to
    /// [`HypoDetector::score`] under the detector that filled the table.
    pub fn get(&self, query: ConceptId, item: ConceptId) -> Option<f32> {
        self.scores.get(&(query, item)).copied()
    }

    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Every stored `((query, item), score)`, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = ((ConceptId, ConceptId), f32)> + '_ {
        self.scores.iter().map(|(&pair, &score)| (pair, score))
    }

    /// The pairs of `window` the table lacks, sorted and deduplicated.
    pub(crate) fn missing(
        &self,
        window: impl IntoIterator<Item = (ConceptId, ConceptId)>,
    ) -> Vec<(ConceptId, ConceptId)> {
        let mut missing: Vec<(ConceptId, ConceptId)> = window
            .into_iter()
            .filter(|pair| !self.scores.contains_key(pair))
            .collect();
        missing.sort_unstable();
        missing.dedup();
        missing
    }

    /// Scores `pairs` in one batched pass and stores them. Every pair
    /// scored anywhere counts once in `expand.scores.computed`.
    pub(crate) fn fill(
        &mut self,
        detector: &HypoDetector,
        vocab: &Vocabulary,
        pairs: Vec<(ConceptId, ConceptId)>,
        pool: &ScratchPool,
    ) {
        if pairs.is_empty() {
            return;
        }
        let _g = span!("expand.scores.fill");
        let scores = detector.score_batch(vocab, &pairs, pool);
        counter!("expand.scores.computed").add(pairs.len() as u64);
        self.scores.extend(pairs.into_iter().zip(scores));
    }
}

/// The top `cap` candidates of each listed query, self-pairs removed —
/// the pairs a window of `cap` candidates per query can ever score.
pub(crate) fn window<'a, L: AsRef<Vec<CandidatePair>> + 'a>(
    lists: impl IntoIterator<Item = (&'a ConceptId, &'a L)> + 'a,
    cap: usize,
) -> impl Iterator<Item = (ConceptId, ConceptId)> + 'a {
    lists.into_iter().flat_map(move |(&query, list)| {
        list.as_ref()
            .iter()
            .take(cap)
            .filter(move |p| p.item != query)
            .map(move |p| (query, p.item))
    })
}
