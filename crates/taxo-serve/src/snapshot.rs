//! Immutable serving snapshots and the hot-swap store.
//!
//! A [`ServeSnapshot`] is everything a `score` request reads — detector,
//! vocabulary, taxonomy, the mined candidate index, and the f32 response
//! index ranked and rendered from the detector's score table — frozen at
//! one version. Snapshots are immutable once built: the
//! ingest thread builds a **new** snapshot after every
//! [`taxo_expand::IncrementalExpander`] batch and publishes it through
//! [`SnapshotStore`]; requests in flight keep the `Arc` they started
//! with, so every response is internally consistent (entirely old state
//! or entirely new state, never a mix).
//!
//! Readers are wait-free in the steady state: each worker holds a
//! [`SnapshotReader`] that caches the current `Arc` and revalidates it
//! with a single atomic version load per request; the store's mutex is
//! touched only on the request *after* a swap (and swaps are rare —
//! one per ingest batch).

use crate::protocol::{RenderedRanking, Tier};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use taxo_core::{ConceptId, Taxonomy, Vocabulary};
use taxo_expand::{
    CandidateLists, CandidatePair, HypoDetector, IncrementalExpander, IngestChanges, PairScores,
    QuantizedDetector,
};

/// Candidate pairs sampled per snapshot build to measure the realized
/// int8-vs-f32 score divergence published on the
/// `serve.quant.max_abs_divergence` gauge.
const DIVERGENCE_SAMPLE: usize = 64;

/// One scored attachment candidate of a `score` response, ranked.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredCandidate {
    pub item: ConceptId,
    /// Detector probability that `<query, item>` is a hyponymy edge.
    pub score: f32,
    /// Whether the snapshot's taxonomy already contains the edge (i.e. a
    /// previous ingest attached it).
    pub attached: bool,
}

/// The immutable state one `score` request is answered from.
#[derive(Debug)]
pub struct ServeSnapshot {
    /// Monotonically increasing snapshot version (0 = initial).
    pub version: u64,
    pub vocab: Arc<Vocabulary>,
    pub detector: Arc<HypoDetector>,
    /// The int8 serving tier: quantized once from `detector` (weights
    /// never change after training) and shared across snapshots.
    pub quant: Arc<QuantizedDetector>,
    /// Largest |int8 − f32| score difference over a fixed sample of this
    /// snapshot's candidate pairs — the realized quantization divergence
    /// on live data, set on the `serve.quant.max_abs_divergence` gauge
    /// (nano-units) when the snapshot is published.
    pub quant_divergence: f32,
    /// The candidate pairs `quant_divergence` was measured on: the first
    /// in (query, item) order.
    divergence_sample: Vec<(ConceptId, ConceptId)>,
    pub taxonomy: Taxonomy,
    /// Candidate items per query, sorted by clicks desc then item id —
    /// the same order `taxo_expand::candidates_by_query` produces. A
    /// server's snapshots share each list by `Arc` with the expander.
    by_query: CandidateLists,
    /// Structural feature rows (Eq. 13) of every mined candidate pair,
    /// computed once at build instead of per request, and shared with
    /// the successors that keep the same rows.
    feats: Arc<FeatureRows>,
    /// The f32 response of every served query, ranked and rendered once
    /// at build. Empty for snapshots from [`ServeSnapshot::build`].
    index: ResponseIndex,
}

/// The f32 response index: one entry per query with eligible
/// candidates under the serving cap.
#[derive(Debug, Default)]
struct ResponseIndex {
    /// The serving cap the entries were ranked under (0: no index).
    cap: usize,
    entries: HashMap<ConceptId, Arc<IndexEntry>>,
}

/// One query's ranked list and its rendering. Entries are shared by
/// `Arc` between successive snapshots while the ranked list is unchanged.
#[derive(Debug)]
struct IndexEntry {
    ranked: Vec<ScoredCandidate>,
    rendered: RenderedRanking,
}

impl IndexEntry {
    /// Whether `ranked` is this entry's list: the same items, score bits
    /// and attached flags, in the same order.
    fn ranks(&self, ranked: &[ScoredCandidate]) -> bool {
        self.ranked.len() == ranked.len()
            && self.ranked.iter().zip(ranked).all(|(a, b)| {
                a.item == b.item
                    && a.score.to_bits() == b.score.to_bits()
                    && a.attached == b.attached
            })
    }
}

/// Structural feature rows of candidate pairs, per query. A row depends
/// only on the detector's structural model and the pair. Empty when the
/// detector has no structural model.
#[derive(Debug, Clone, Default)]
struct FeatureRows {
    dim: usize,
    /// Each query's rows, shared by `Arc` with the successors under
    /// which the query gains no pair.
    by_query: HashMap<ConceptId, Arc<QueryRows>>,
}

/// One query's rows: `offsets` maps an item to its row's offset in the
/// flat `data` table.
#[derive(Debug, Clone, Default)]
struct QueryRows {
    offsets: HashMap<ConceptId, usize>,
    data: Vec<f32>,
}

impl FeatureRows {
    fn new(detector: &HypoDetector) -> Self {
        FeatureRows {
            dim: detector
                .structural
                .as_ref()
                .map_or(0, |st| st.feature_dim()),
            by_query: HashMap::new(),
        }
    }

    /// Adds the row of every pair of `pairs` the table lacks.
    fn extend(
        &mut self,
        detector: &HypoDetector,
        pairs: impl IntoIterator<Item = (ConceptId, ConceptId)>,
    ) {
        let Some(st) = &detector.structural else {
            return;
        };
        for (query, item) in pairs {
            let rows = Arc::make_mut(self.by_query.entry(query).or_default());
            if let std::collections::hash_map::Entry::Vacant(e) = rows.offsets.entry(item) {
                let off = rows.data.len();
                rows.data.resize(off + self.dim, 0.0);
                st.pair_features_into(query, item, &mut rows.data[off..]);
                e.insert(off);
            }
        }
    }

    fn row(&self, query: ConceptId, item: ConceptId) -> Option<&[f32]> {
        let rows = self.by_query.get(&query)?;
        let &off = rows.offsets.get(&item)?;
        Some(&rows.data[off..off + self.dim])
    }
}

impl ServeSnapshot {
    /// Freezes one serving state from its parts. `pairs` is the full
    /// mined candidate set (e.g. [`taxo_expand::IncrementalExpander::candidate_pairs`]).
    ///
    /// Build is where serving pays its one-time costs: the per-query
    /// candidate index and the structural feature row of every candidate
    /// pair (the relational side needs no equivalent — concept
    /// tokenizations are cached inside the detector itself). Requests
    /// then copy precomputed rows instead of re-deriving them.
    ///
    /// The snapshot has no response index: [`ServeSnapshot::score_query`]
    /// recomputes every pair. Servers build theirs with
    /// [`ServeSnapshot::build_scored`].
    pub fn build(
        version: u64,
        vocab: Arc<Vocabulary>,
        detector: Arc<HypoDetector>,
        taxonomy: Taxonomy,
        pairs: &[CandidatePair],
    ) -> ServeSnapshot {
        let quant = Arc::new(QuantizedDetector::from_detector(Arc::clone(&detector)));
        ServeSnapshot::build_with_quant(version, vocab, detector, quant, taxonomy, pairs)
    }

    /// [`ServeSnapshot::build`] with a pre-quantized tier, so the server
    /// quantizes once at startup and every rebuild shares the same
    /// [`QuantizedDetector`] `Arc` (the detector never changes).
    pub fn build_with_quant(
        version: u64,
        vocab: Arc<Vocabulary>,
        detector: Arc<HypoDetector>,
        quant: Arc<QuantizedDetector>,
        taxonomy: Taxonomy,
        pairs: &[CandidatePair],
    ) -> ServeSnapshot {
        let by_query = taxo_expand::candidates_by_query(pairs)
            .into_iter()
            .map(|(query, list)| (query, Arc::new(list)))
            .collect();
        ServeSnapshot::assemble(version, vocab, detector, quant, taxonomy, by_query, pairs)
    }

    /// A snapshot without a response index over the candidate lists
    /// `by_query` of the pair set `pairs`, sorted by (query, item).
    fn assemble(
        version: u64,
        vocab: Arc<Vocabulary>,
        detector: Arc<HypoDetector>,
        quant: Arc<QuantizedDetector>,
        taxonomy: Taxonomy,
        by_query: CandidateLists,
        pairs: &[CandidatePair],
    ) -> ServeSnapshot {
        let mut feats = FeatureRows::new(&detector);
        feats.extend(&detector, pairs.iter().map(|p| (p.query, p.item)));
        let divergence_sample: Vec<_> = pairs
            .iter()
            .take(DIVERGENCE_SAMPLE)
            .map(|p| (p.query, p.item))
            .collect();
        let quant_divergence = measure_divergence(&quant, &vocab, &divergence_sample);
        ServeSnapshot {
            version,
            vocab,
            detector,
            quant,
            quant_divergence,
            divergence_sample,
            taxonomy,
            by_query,
            feats: Arc::new(feats),
            index: ResponseIndex::default(),
        }
    }

    /// A server's snapshot of `expander`'s current state: it shares the
    /// expander's candidate lists, and its response index holds every
    /// query's ranked, rendered f32 response under the serving cap `cap`,
    /// scored from the expander's table. `detector` must be the
    /// expander's detector.
    pub fn build_scored(
        version: u64,
        vocab: Arc<Vocabulary>,
        detector: Arc<HypoDetector>,
        quant: Arc<QuantizedDetector>,
        expander: &IncrementalExpander,
        cap: usize,
    ) -> ServeSnapshot {
        let mut snapshot = ServeSnapshot::assemble(
            version,
            vocab,
            detector,
            quant,
            expander.taxonomy().clone(),
            expander.candidates().clone(),
            &expander.candidate_pairs(),
        );
        let empty = ResponseIndex {
            cap,
            entries: HashMap::new(),
        };
        snapshot.index =
            snapshot.index_with(&empty, snapshot.by_query.keys().copied(), expander.scores());
        snapshot
    }

    /// The next snapshot under the same detector, after an ingest that
    /// made `changes`: `taxonomy`, `candidates` and `scores` are the
    /// expander's state after it. What the ingest left alone carries over
    /// instead of being recomputed: the structural rows (only its new
    /// pairs gain one), the int8 divergence while its sample of
    /// candidates is unchanged, and the response entry of every query
    /// neither in `changes.queries` nor the parent of a changed edge.
    /// Those queries are ranked again, and keep their entry when the
    /// ranked list is unchanged. If this snapshot holds the expander's
    /// state before the ingest, the result equals
    /// [`ServeSnapshot::build_scored`] on the state after it, at the same
    /// serving cap.
    pub(crate) fn successor(
        &self,
        version: u64,
        taxonomy: Taxonomy,
        candidates: &CandidateLists,
        changes: &IngestChanges,
        scores: &PairScores,
    ) -> ServeSnapshot {
        let mut feats = Arc::clone(&self.feats);
        if !changes.new_pairs.is_empty() {
            Arc::make_mut(&mut feats).extend(&self.detector, changes.new_pairs.iter().copied());
        }
        // The candidate set only grows, so its first pairs are among the
        // old sample's and the new pairs.
        let mut divergence_sample = [&self.divergence_sample[..], &changes.new_pairs].concat();
        divergence_sample.sort_unstable();
        divergence_sample.truncate(DIVERGENCE_SAMPLE);
        let quant_divergence = if divergence_sample == self.divergence_sample {
            self.quant_divergence
        } else {
            measure_divergence(&self.quant, &self.vocab, &divergence_sample)
        };
        let mut next = ServeSnapshot {
            version,
            vocab: Arc::clone(&self.vocab),
            detector: Arc::clone(&self.detector),
            quant: Arc::clone(&self.quant),
            quant_divergence,
            divergence_sample,
            taxonomy,
            by_query: candidates.clone(),
            feats,
            index: ResponseIndex::default(),
        };
        let mut queries: Vec<ConceptId> = changes
            .queries
            .iter()
            .copied()
            .chain(changes.edges.iter().map(|e| e.parent))
            .collect();
        queries.sort_unstable();
        queries.dedup();
        next.index = next.index_with(&self.index, queries, scores);
        next
    }

    /// Ranks the eligible candidates of each of `queries` under the cap
    /// of `prev`, scored from `scores`, and renders the f32 responses.
    /// Every other entry of `prev` carries over, and so does a ranked
    /// query's entry when its ranked list is unchanged. Ranked queries
    /// count in `serve.index.ranked`, rendered entries in
    /// `serve.index.rendered`.
    fn index_with(
        &self,
        prev: &ResponseIndex,
        queries: impl IntoIterator<Item = ConceptId>,
        scores: &PairScores,
    ) -> ResponseIndex {
        let cap = prev.cap;
        let mut entries = prev.entries.clone();
        if cap > 0 {
            let _g = taxo_obs::span!("serve.index.build");
            let (mut ranked, mut rendered) = (0u64, 0u64);
            for query in queries {
                let items = self.eligible(query, cap);
                if items.is_empty() {
                    entries.remove(&query);
                    continue;
                }
                ranked += 1;
                let scores = self.table_scores(scores, query, &items);
                let ranking = self.rank(query, &items, &scores, usize::MAX);
                if !prev.entries.get(&query).is_some_and(|e| e.ranks(&ranking)) {
                    rendered += 1;
                    let entry = IndexEntry {
                        rendered: RenderedRanking::render(
                            self.vocab.name(query),
                            &self.vocab,
                            &ranking,
                        ),
                        ranked: ranking,
                    };
                    entries.insert(query, Arc::new(entry));
                }
            }
            taxo_obs::counter!("serve.index.ranked").add(ranked);
            taxo_obs::counter!("serve.index.rendered").add(rendered);
        }
        ResponseIndex { cap, entries }
    }

    /// The f32 response to request `id` for the top `k` candidates of
    /// `query`, spliced from the response index, and the query's
    /// eligible-candidate count. The response is byte-identical to
    /// rendering [`ServeSnapshot::score_query`]`(query, cap, k)` with
    /// [`crate::protocol::score_response`] at this version. `None` when
    /// the query has no entry: no eligible candidates under the cap, or
    /// a snapshot without an index.
    pub(crate) fn indexed_response(
        &self,
        id: Option<u64>,
        query: ConceptId,
        k: usize,
    ) -> Option<(String, usize)> {
        let entry = self.index.entries.get(&query)?;
        Some((
            entry.rendered.response(id, self.version, k),
            entry.rendered.len(),
        ))
    }

    /// The precomputed structural feature row of a mined candidate pair,
    /// or `None` for pairs outside the candidate set (the scorer falls
    /// back to computing those on the fly) — and always `None` without a
    /// structural model, where rows are zero-width anyway.
    pub fn structural_row(&self, query: ConceptId, item: ConceptId) -> Option<&[f32]> {
        self.feats.row(query, item)
    }

    /// The scoring workload for `query`: its most-clicked candidate items,
    /// capped at `cap`, self-pairs removed. Empty when the query has no
    /// mined candidates (or is unknown).
    pub fn eligible(&self, query: ConceptId, cap: usize) -> Vec<ConceptId> {
        self.by_query
            .get(&query)
            .map(|list| {
                list.iter()
                    .take(cap)
                    .map(|p| p.item)
                    .filter(|&item| item != query)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The f32 scores of `items` for `query` (in `items` order), read
    /// from `scores` by the response-index build. A pair the table lacks
    /// is scored on the calling thread — bit-identical, but an encoder
    /// pass — and counted in `serve.score.table_misses`.
    fn table_scores(&self, scores: &PairScores, query: ConceptId, items: &[ConceptId]) -> Vec<f32> {
        items
            .iter()
            .map(|&item| {
                scores.get(query, item).unwrap_or_else(|| {
                    taxo_obs::counter!("serve.score.table_misses").inc();
                    self.detector.score(&self.vocab, query, item)
                })
            })
            .collect()
    }

    /// Assembles the ranked response from pre-computed scores (one per
    /// item of [`ServeSnapshot::eligible`], in the same order): sort by
    /// score descending with item id as the deterministic tie-break, keep
    /// the top `k`.
    pub fn rank(
        &self,
        query: ConceptId,
        items: &[ConceptId],
        scores: &[f32],
        k: usize,
    ) -> Vec<ScoredCandidate> {
        debug_assert_eq!(items.len(), scores.len());
        let mut out: Vec<ScoredCandidate> = items
            .iter()
            .zip(scores)
            .map(|(&item, &score)| ScoredCandidate {
                item,
                score,
                attached: self.taxonomy.contains_edge(query, item),
            })
            .collect();
        out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.item.cmp(&b.item)));
        out.truncate(k);
        out
    }

    /// Scores one query end to end on the calling thread — the offline
    /// reference the served scores (score table or micro-batched int8)
    /// must match bit for bit. It recomputes every pair and never reads
    /// the score table, so it checks the table.
    pub fn score_query(&self, query: ConceptId, cap: usize, k: usize) -> Vec<ScoredCandidate> {
        self.score_query_tier(query, cap, k, Tier::F32)
    }

    /// Tier-aware [`ServeSnapshot::score_query`]: the int8 tier is the
    /// offline reference for quantized serving, bit-identical to the
    /// server's quant responses the same way f32 is for exact ones.
    pub fn score_query_tier(
        &self,
        query: ConceptId,
        cap: usize,
        k: usize,
        tier: Tier,
    ) -> Vec<ScoredCandidate> {
        let items = self.eligible(query, cap);
        let scores: Vec<f32> = items
            .iter()
            .map(|&item| match tier {
                Tier::F32 => self.detector.score(&self.vocab, query, item),
                Tier::Int8 => self.quant.score(&self.vocab, query, item),
            })
            .collect();
        self.rank(query, &items, &scores, k)
    }
}

/// The realized int8 divergence on `sample` (published with the
/// snapshot: serving a lossy tier without a live bound on the loss would
/// be flying blind).
fn measure_divergence(
    quant: &QuantizedDetector,
    vocab: &Vocabulary,
    sample: &[(ConceptId, ConceptId)],
) -> f32 {
    if sample.is_empty() {
        0.0
    } else {
        quant.max_abs_divergence(vocab, sample)
    }
}

/// The published-snapshot cell: one writer (the ingest thread), many
/// cached readers.
#[derive(Debug)]
pub struct SnapshotStore {
    /// Version of the snapshot in `slot`, readable without the lock.
    version: AtomicU64,
    slot: Mutex<Arc<ServeSnapshot>>,
}

impl SnapshotStore {
    pub fn new(initial: ServeSnapshot) -> Self {
        let initial = Arc::new(initial);
        set_divergence_gauge(&initial);
        SnapshotStore {
            version: AtomicU64::new(initial.version),
            slot: Mutex::new(initial),
        }
    }

    /// Atomically publishes `next` as the current snapshot. Readers that
    /// already hold the previous `Arc` keep serving from it; new requests
    /// observe the version bump and refresh.
    pub fn publish(&self, next: Arc<ServeSnapshot>) {
        let _g = taxo_obs::span!("serve.snapshot.publish");
        // Delay-only chaos point: widens the window where readers hold
        // the previous snapshot while the new one exists but is not yet
        // visible — responses must stay version-pure throughout.
        let _ = taxo_fault::inject("serve.snapshot.publish");
        let version = next.version;
        set_divergence_gauge(&next);
        *self.slot.lock().unwrap_or_else(|e| e.into_inner()) = next;
        // Release-ordered so a reader that sees the new version also sees
        // the slot assignment above.
        self.version.store(version, Ordering::Release);
        taxo_obs::counter!("serve.snapshot.swaps").inc();
        taxo_obs::gauge!("serve.snapshot.version").set(version as i64);
    }

    /// Version of the currently published snapshot.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Clones the current snapshot handle (locks; use a
    /// [`SnapshotReader`] on request paths).
    pub fn load(&self) -> Arc<ServeSnapshot> {
        Arc::clone(&self.slot.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// A caching reader handle for one worker thread.
    pub fn reader(self: &Arc<Self>) -> SnapshotReader {
        SnapshotReader {
            cached: self.load(),
            store: Arc::clone(self),
        }
    }
}

/// Publishes the served snapshot's int8 divergence. Only published
/// snapshots set it: a built-but-unpublished one (a trainer's candidate,
/// a prepared ingest) must not overwrite the live value. Nano-unit fixed
/// point keeps the gauge integral.
fn set_divergence_gauge(snapshot: &ServeSnapshot) {
    taxo_obs::gauge!("serve.quant.max_abs_divergence")
        .set((f64::from(snapshot.quant_divergence) * 1e9) as i64);
}

/// Per-worker snapshot cache: [`SnapshotReader::current`] is one atomic
/// load unless a swap happened since the last call.
#[derive(Debug)]
pub struct SnapshotReader {
    store: Arc<SnapshotStore>,
    cached: Arc<ServeSnapshot>,
}

impl SnapshotReader {
    /// The current snapshot, revalidated against the store's version.
    pub fn current(&mut self) -> &Arc<ServeSnapshot> {
        if self.store.version() != self.cached.version {
            self.cached = self.store.load();
        }
        &self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_snapshot(version: u64, pairs: &[CandidatePair]) -> ServeSnapshot {
        let mut vocab = Vocabulary::new();
        let a = vocab.intern("a");
        let b = vocab.intern("b");
        let c = vocab.intern("c");
        let mut tax = Taxonomy::new();
        tax.add_node(a);
        tax.add_node(b);
        tax.add_node(c);
        tax.add_edge(a, b).unwrap();
        let relational = taxo_expand::RelationalModel::vanilla(
            &vocab,
            &[],
            &taxo_expand::RelationalConfig::tiny(1),
        );
        let detector = HypoDetector::new(
            Some(relational),
            None,
            &taxo_expand::DetectorConfig::tiny(1),
        );
        ServeSnapshot::build(version, Arc::new(vocab), Arc::new(detector), tax, pairs)
    }

    /// The candidate lists of `pairs`, as an expander holds them.
    fn lists_of(pairs: &[CandidatePair]) -> CandidateLists {
        taxo_expand::candidates_by_query(pairs)
            .into_iter()
            .map(|(query, list)| (query, Arc::new(list)))
            .collect()
    }

    fn pair(query: u32, item: u32, clicks: u64) -> CandidatePair {
        CandidatePair {
            query: ConceptId(query),
            item: ConceptId(item),
            clicks,
        }
    }

    #[test]
    fn eligible_caps_and_drops_self_pairs() {
        let snap = tiny_snapshot(0, &[pair(0, 1, 9), pair(0, 2, 5), pair(0, 0, 99)]);
        assert_eq!(
            snap.eligible(ConceptId(0), 8),
            vec![ConceptId(1), ConceptId(2)]
        );
        assert_eq!(snap.eligible(ConceptId(0), 2), vec![ConceptId(1)]);
        assert!(snap.eligible(ConceptId(7), 8).is_empty());
    }

    #[test]
    fn rank_orders_by_score_then_id_and_flags_attached() {
        let snap = tiny_snapshot(0, &[]);
        let items = [ConceptId(2), ConceptId(1)];
        let ranked = snap.rank(ConceptId(0), &items, &[0.5, 0.5], 5);
        // Equal scores: lower id first.
        assert_eq!(ranked[0].item, ConceptId(1));
        assert!(ranked[0].attached, "edge a->b exists in the fixture");
        assert!(!ranked[1].attached);
        let top1 = snap.rank(ConceptId(0), &items, &[0.9, 0.1], 1);
        assert_eq!(top1.len(), 1);
        assert_eq!(top1[0].item, ConceptId(2));
    }

    #[test]
    fn quant_tier_scores_are_close_but_distinct() {
        let snap = tiny_snapshot(0, &[pair(0, 1, 9), pair(0, 2, 5)]);
        let f = snap.score_query_tier(ConceptId(0), 8, 8, Tier::F32);
        let q = snap.score_query_tier(ConceptId(0), 8, 8, Tier::Int8);
        assert_eq!(f.len(), q.len());
        assert!(snap.quant_divergence >= 0.0);
        for (a, b) in f.iter().zip(&q) {
            // Same candidate universe; scores within the published bound.
            assert!((a.score - b.score).abs() <= snap.quant_divergence + 1e-6);
        }
    }

    #[test]
    fn successor_equals_a_fresh_build() {
        // Twelve concepts: up to 132 candidate pairs, more than the
        // divergence sample holds, and a detector with both models.
        let mut vocab = Vocabulary::new();
        let ids: Vec<ConceptId> = (0..12).map(|i| vocab.intern(&format!("c{i}"))).collect();
        let mut tax = Taxonomy::new();
        for &id in &ids {
            tax.add_node(id);
        }
        tax.add_edge(ids[0], ids[1]).unwrap();
        let all: Vec<CandidatePair> = ids
            .iter()
            .flat_map(|&q| ids.iter().map(move |&i| (q, i)))
            .filter(|(q, i)| q != i)
            .map(|(q, i)| pair(q.0, i.0, u64::from(q.0 + 2 * i.0)))
            .collect();
        let relational = taxo_expand::RelationalModel::vanilla(
            &vocab,
            &[],
            &taxo_expand::RelationalConfig::tiny(3),
        );
        let structural = taxo_expand::StructuralModel::build(
            &tax,
            &vocab,
            &all,
            None,
            &taxo_expand::StructuralConfig::tiny(3),
        );
        let detector = Arc::new(HypoDetector::new(
            Some(relational),
            Some(structural),
            &taxo_expand::DetectorConfig::tiny(3),
        ));
        let vocab = Arc::new(vocab);
        let quant = Arc::new(QuantizedDetector::from_detector(Arc::clone(&detector)));
        // A server-style snapshot: a response index under a cap of 8.
        let fresh_with = |version: u64, taxonomy: Taxonomy, pairs: &[CandidatePair]| {
            let mut snap = ServeSnapshot::build_with_quant(
                version,
                Arc::clone(&vocab),
                Arc::clone(&detector),
                Arc::clone(&quant),
                taxonomy,
                pairs,
            );
            let empty = ResponseIndex {
                cap: 8,
                entries: HashMap::new(),
            };
            let no_table = PairScores::default();
            snap.index = snap.index_with(&empty, snap.by_query.keys().copied(), &no_table);
            snap
        };
        let fresh = |version: u64, pairs: &[CandidatePair]| fresh_with(version, tax.clone(), pairs);
        // The changes of growing the candidate set from the prefix
        // `pairs[..old]` to `pairs` (new pairs, and the queries that
        // gained them) and of attaching `edges`.
        let grown = |pairs: &[CandidatePair], old: usize, edges: Vec<taxo_core::Edge>| {
            let new_pairs: Vec<_> = pairs[old..].iter().map(|p| (p.query, p.item)).collect();
            let mut queries: Vec<_> = new_pairs.iter().map(|&(q, _)| q).collect();
            queries.dedup();
            IngestChanges {
                queries,
                new_pairs,
                edges,
            }
        };
        let no_table = PairScores::default();
        let assert_same = |a: &ServeSnapshot, b: &ServeSnapshot, pairs: &[CandidatePair]| {
            assert_eq!(a.quant_divergence.to_bits(), b.quant_divergence.to_bits());
            for p in pairs {
                assert_eq!(
                    a.structural_row(p.query, p.item),
                    b.structural_row(p.query, p.item)
                );
            }
            for &q in &ids {
                assert_eq!(a.eligible(q, 8), b.eligible(q, 8));
                let render = |snap: &ServeSnapshot, k| {
                    let entry = snap.index.entries.get(&q)?;
                    Some(entry.rendered.response(Some(5), 0, k))
                };
                for k in [1, 3, 8, 20] {
                    assert_eq!(render(a, k), render(b, k), "query {q:?}, k {k}");
                }
            }
            assert_eq!(a.index.cap, b.index.cap);
            assert_eq!(a.index.entries.len(), b.index.entries.len());
        };

        // Growth inside the divergence sample: measured again.
        let v0 = fresh(0, &all[..40]);
        let v1 = v0.successor(
            1,
            tax.clone(),
            &lists_of(&all[..100]),
            &grown(&all[..100], 40, vec![]),
            &no_table,
        );
        assert_same(&v1, &fresh(1, &all[..100]), &all[..100]);
        assert!(v1.structural_row(all[99].query, all[99].item).is_some());
        // Growth past it: the sample, and so the divergence, carry over.
        let v2 = v1.successor(
            2,
            tax.clone(),
            &lists_of(&all),
            &grown(&all, 100, vec![]),
            &no_table,
        );
        assert_same(&v2, &fresh(2, &all), &all);
        // No new pair, every query ranked again: the rows and every index
        // entry are shared, not copied.
        let clicked = IngestChanges {
            queries: ids.clone(),
            ..IngestChanges::default()
        };
        let v3 = v2.successor(3, tax.clone(), &lists_of(&all), &clicked, &no_table);
        assert!(Arc::ptr_eq(&v3.feats, &v2.feats));
        assert_same(&v3, &v2, &all);
        assert!(v3
            .index
            .entries
            .iter()
            .all(|(q, entry)| Arc::ptr_eq(entry, &v2.index.entries[q])));
        assert_eq!(
            v3.indexed_response(None, ids[0], 8).map(|(r, _)| r),
            v2.indexed_response(None, ids[0], 8)
                .map(|(r, _)| r.replace("\"version\":2,", "\"version\":3,")),
            "the version is written at splice time"
        );
        // A new attachment inside a query's window changes only that
        // query's ranking (clicks rank c11 first for every query).
        let mut attached = tax.clone();
        attached.add_edge(ids[2], ids[11]).unwrap();
        let edge = taxo_core::Edge::new(ids[2], ids[11]);
        let v4 = v3.successor(
            4,
            attached.clone(),
            &lists_of(&all),
            &grown(&all, all.len(), vec![edge]),
            &no_table,
        );
        assert_same(&v4, &fresh_with(4, attached, &all), &all);
        for (q, entry) in &v4.index.entries {
            assert_eq!(Arc::ptr_eq(entry, &v3.index.entries[q]), *q != ids[2]);
        }
        // Snapshots built without a serving cap carry no index, nor do
        // their successors.
        let pairs = [pair(0, 1, 9), pair(0, 2, 5)];
        let bare = tiny_snapshot(0, &pairs);
        assert!(bare.indexed_response(None, ConceptId(0), 8).is_none());
        let next = bare.successor(
            1,
            bare.taxonomy.clone(),
            &lists_of(&pairs),
            &grown(&pairs, 0, vec![]),
            &no_table,
        );
        assert!(next.index.entries.is_empty());
    }

    /// A seeded sequence of ingests, each followed by a successor of the
    /// last snapshot: batches of the unseen click log at random places
    /// and lengths, batches that move one query's least-clicked candidate
    /// to the front, and a batch of unknown terms. After every step the
    /// expander's lists match an independent replay of the click counts
    /// and [`taxo_expand::candidates_by_query`] of its pairs, its change
    /// set names exactly what changed, and the successor serves what a
    /// fresh [`ServeSnapshot::build_scored`] serves.
    #[test]
    fn successors_of_seeded_ingests_equal_fresh_builds() {
        use std::collections::{BTreeMap, BTreeSet};
        use taxo_expand::{
            ExpansionConfig, RelationalConfig, RelationalModel, StructuralConfig, StructuralModel,
        };
        use taxo_synth::{ClickConfig, ClickLog, ClickRecord, World, WorldConfig};

        const SEED: u64 = 23;
        const CAP: usize = 16;
        let world = World::generate(&WorldConfig {
            target_nodes: 120,
            ..WorldConfig::tiny(SEED)
        });
        let vocab = Arc::new(world.vocab.clone());
        let log = ClickLog::generate(
            &world,
            &ClickConfig {
                n_events: 4_000,
                ..ClickConfig::tiny(SEED)
            },
        );
        let half = log.records.len() / 2;
        let (seen, unseen) = log.records.split_at(half);
        let built = taxo_expand::construct_graph(
            &world.existing,
            &vocab,
            seen,
            taxo_graph::WeightScheme::IfIqf,
        );
        let relational = RelationalModel::vanilla(&vocab, &[], &RelationalConfig::tiny(SEED));
        let structural = StructuralModel::build(
            &world.existing,
            &vocab,
            &built.pairs,
            Some(&relational),
            &StructuralConfig::tiny(SEED),
        );
        let detector = HypoDetector::new(
            Some(relational),
            Some(structural),
            &taxo_expand::DetectorConfig::tiny(SEED),
        );
        let cfg = ExpansionConfig::builder().threshold(0.5).build().unwrap();
        let mut expander = IncrementalExpander::with_pairs(
            detector.clone(),
            world.existing.clone(),
            &built.pairs,
            cfg,
        );
        expander.cover_window(&vocab, CAP);
        let detector = Arc::new(detector);
        let quant = Arc::new(QuantizedDetector::from_detector(Arc::clone(&detector)));
        let fresh = |version: u64, expander: &IncrementalExpander| {
            ServeSnapshot::build_scored(
                version,
                Arc::clone(&vocab),
                Arc::clone(&detector),
                Arc::clone(&quant),
                expander,
                CAP,
            )
        };
        let mut snap = fresh(0, &expander);

        // The click counts replayed independently of the expander.
        let matcher = taxo_text::ConceptMatcher::new(&vocab);
        let mut clicks: BTreeMap<(ConceptId, ConceptId), u64> = BTreeMap::new();
        for p in &built.pairs {
            *clicks.entry((p.query, p.item)).or_insert(0) += p.clicks;
        }
        let mut rng = SEED;
        let mut next_rand = |bound: usize| {
            // xorshift64*
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            (rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % bound
        };
        let (mut reordered, mut attached) = (0, 0);
        for step in 1..=12u64 {
            let batch: Vec<ClickRecord> = match step % 4 {
                2 if step == 2 => vec![ClickRecord {
                    query: ConceptId(0),
                    item_text: "zzqx unknown term".into(),
                    count: 3,
                }],
                3 => {
                    // The least-clicked candidate of a query with several
                    // overtakes its most-clicked one.
                    let lists = expander.candidates();
                    let mut queries: Vec<ConceptId> = lists
                        .iter()
                        .filter(|(_, list)| list.len() >= 3)
                        .map(|(&q, _)| q)
                        .collect();
                    queries.sort_unstable();
                    let query = queries[next_rand(queries.len())];
                    let list = &lists[&query];
                    let last = list[list.len() - 1];
                    vec![ClickRecord {
                        query,
                        item_text: vocab.name(last.item).to_owned(),
                        count: list[0].clicks + 1,
                    }]
                }
                _ => {
                    let len = 20 + next_rand(60);
                    let start = next_rand(unseen.len() - len);
                    unseen[start..start + len].to_vec()
                }
            };

            let before: BTreeSet<_> = snap.taxonomy.edges().collect();
            let old = clicks.clone();
            for r in &batch {
                let Some(item) = matcher.identify(&r.item_text) else {
                    continue;
                };
                if item != r.query {
                    *clicks.entry((r.query, item)).or_insert(0) += r.count;
                }
            }
            expander.ingest(&vocab, &batch);

            // The lists: the replayed counts, in candidate order.
            let pairs = expander.candidate_pairs();
            let replayed: Vec<_> = clicks
                .iter()
                .map(|(&(query, item), &clicks)| CandidatePair {
                    query,
                    item,
                    clicks,
                })
                .collect();
            assert_eq!(pairs, replayed, "step {step}: pairs");
            let regrouped = taxo_expand::candidates_by_query(&pairs);
            assert_eq!(expander.candidates().len(), regrouped.len());
            for (q, list) in expander.candidates() {
                assert_eq!(**list, regrouped[q], "step {step}: list of {q:?}");
            }

            // The change set: what differs from the step before.
            let changes = expander.changes();
            let new_pairs: Vec<_> = clicks
                .keys()
                .filter(|pair| !old.contains_key(pair))
                .copied()
                .collect();
            let mut queries: Vec<_> = clicks
                .iter()
                .filter(|&(pair, n)| old.get(pair) != Some(n))
                .map(|(&(q, _), _)| q)
                .collect();
            queries.dedup();
            let after: BTreeSet<_> = expander.taxonomy().edges().collect();
            let edges: BTreeSet<_> = before.symmetric_difference(&after).copied().collect();
            assert_eq!(changes.new_pairs, new_pairs, "step {step}: new pairs");
            assert_eq!(changes.queries, queries, "step {step}: changed queries");
            assert_eq!(
                changes.edges.iter().copied().collect::<BTreeSet<_>>(),
                edges,
                "step {step}: changed edges"
            );
            if step == 2 {
                assert!(queries.is_empty(), "unknown terms change no list");
            }
            if step % 4 == 3 {
                let query = batch[0].query;
                let item = matcher.identify(&batch[0].item_text);
                assert_eq!(Some(expander.candidates()[&query][0].item), item);
                reordered += 1;
            }
            attached += usize::from(!edges.is_empty());

            // The successor serves what a fresh build serves.
            let next = snap.successor(
                step,
                expander.taxonomy().clone(),
                expander.candidates(),
                changes,
                expander.scores(),
            );
            let reference = fresh(step, &expander);
            assert_eq!(
                next.quant_divergence.to_bits(),
                reference.quant_divergence.to_bits(),
                "step {step}: divergence"
            );
            for p in &pairs {
                assert_eq!(
                    next.structural_row(p.query, p.item),
                    reference.structural_row(p.query, p.item),
                    "step {step}: row of {p:?}"
                );
            }
            assert_eq!(next.index.entries.len(), reference.index.entries.len());
            for q in (0..vocab.len()).map(ConceptId::from_index) {
                assert_eq!(next.eligible(q, CAP), reference.eligible(q, CAP));
                for k in [1, 3, CAP, CAP + 5] {
                    assert_eq!(
                        next.indexed_response(Some(7), q, k),
                        reference.indexed_response(Some(7), q, k),
                        "step {step}: query {q:?}, k {k}"
                    );
                }
            }
            snap = next;
        }
        assert_eq!(reordered, 3);
        assert!(attached >= 2, "{attached} steps attached edges");
    }

    /// Serializes the tests that publish: the divergence gauge is
    /// process-global.
    fn publish_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn only_publishing_sets_the_divergence_gauge() {
        let _g = publish_lock();
        let gauge = taxo_obs::gauge!("serve.quant.max_abs_divergence");
        let nano = |snap: &ServeSnapshot| (f64::from(snap.quant_divergence) * 1e9) as i64;
        // No candidates: nothing to measure, divergence 0.
        let store = SnapshotStore::new(tiny_snapshot(0, &[]));
        assert_eq!(gauge.get(), 0);

        // A built but unpublished snapshot (a trainer's candidate, a
        // prepared ingest) leaves the live value alone.
        let next = tiny_snapshot(1, &[pair(0, 1, 9), pair(0, 2, 5)]);
        assert!(nano(&next) > 0, "the fixture must diverge to be telling");
        assert_eq!(gauge.get(), 0, "building must not set the gauge");

        store.publish(Arc::new(next));
        assert_eq!(gauge.get(), nano(&store.load()));
    }

    #[test]
    fn store_publishes_and_readers_refresh() {
        let _g = publish_lock();
        let store = Arc::new(SnapshotStore::new(tiny_snapshot(0, &[pair(0, 1, 3)])));
        let mut reader = store.reader();
        assert_eq!(reader.current().version, 0);
        store.publish(Arc::new(tiny_snapshot(1, &[pair(0, 2, 3)])));
        assert_eq!(store.version(), 1);
        assert_eq!(reader.current().version, 1);
        assert_eq!(
            reader.current().eligible(ConceptId(0), 8),
            vec![ConceptId(2)]
        );
    }
}
