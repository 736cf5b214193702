//! Continuous taxonomy maintenance — the deployment mode the paper
//! highlights as its "most remarkable advantage": the taxonomy keeps
//! updating "as user behavior information grows day by day".
//!
//! [`IncrementalExpander`] owns the current taxonomy and an accumulated
//! click-pair store; each call to [`IncrementalExpander::ingest`] merges
//! a new batch of click records (e.g. one day of logs), re-mines
//! candidates, and expands from the *current* state, so concepts attached
//! yesterday can receive children today.
//!
//! The store is kept the way expansion reads it: one candidate list per
//! query, in candidate order, updated in place per record and shared by
//! `Arc` so that a serving layer freezes it without copying. Each ingest
//! records what it changed ([`IngestChanges`]), so a serving layer can
//! update what it derives from the state instead of rebuilding it.
//!
//! The session also owns its detector's [`PairScores`] table: each ingest
//! scores only the candidate pairs the table lacks, in one batched pass,
//! and expansion reads the table. A serving layer reads the same table
//! while it builds a snapshot, to answer reads without running the
//! encoder.

use crate::graph_construction::candidate_order;
use crate::inference::expand_scored;
use crate::pair_scores::{self, PairScores};
use crate::{candidates_by_query, CandidatePair, ExpansionConfig, HypoDetector, ScratchPool};
use std::collections::HashMap;
use std::sync::Arc;
use taxo_core::{ConceptId, Edge, Taxonomy, Vocabulary};
use taxo_obs::{counter, gauge, span};
use taxo_synth::ClickRecord;
use taxo_text::ConceptMatcher;

/// Each query's candidates, most clicks first, then ascending item id —
/// the lists [`candidates_by_query`] returns, one `Arc` per query so that
/// snapshots share every list an ingest leaves alone.
pub type CandidateLists = HashMap<ConceptId, Arc<Vec<CandidatePair>>>;

/// A running expansion session over a stream of click-log batches.
pub struct IncrementalExpander {
    detector: HypoDetector,
    taxonomy: Taxonomy,
    /// Accumulated (query, item) click counts across all ingested batches.
    candidates: CandidateLists,
    cfg: ExpansionConfig,
    batches: usize,
    /// Scores of every pair in the scored window under `detector`; never
    /// persisted, and empty again after [`IncrementalExpander::restore`].
    scores: PairScores,
    /// Whether `scores` holds the window of every query. From then on an
    /// ingest can only bring new pairs into the lists it changed.
    covered: bool,
    /// Candidates per query the table covers: the expansion cap, widened
    /// by [`IncrementalExpander::cover_window`].
    window: usize,
    /// Warm scoring arenas for table fills.
    pool: ScratchPool,
    /// The item matcher over the vocabulary the last ingest saw, with
    /// that vocabulary's length. Concepts are only ever appended, so a
    /// vocabulary of the same length is the same vocabulary.
    matcher: Option<(usize, ConceptMatcher)>,
    /// What the last ingest changed.
    changes: IngestChanges,
}

/// The complete durable state of a session — everything
/// [`IncrementalExpander::ingest`] mutates, and nothing it doesn't (the
/// detector and config are frozen at training time and travel
/// separately, and the score table is derived from them). Extracted with
/// [`IncrementalExpander::state`] for
/// snapshot persistence and fed back through
/// [`IncrementalExpander::restore`] during crash recovery.
#[derive(Debug, Clone)]
pub struct ExpanderState {
    /// The maintained taxonomy.
    pub taxonomy: Taxonomy,
    /// The accumulated candidate store, sorted by (query, item).
    pub pairs: Vec<CandidatePair>,
    /// Batches ingested so far.
    pub batches: usize,
}

/// What one ingested batch changed.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Batch sequence number (1-based).
    pub batch: usize,
    /// Distinct candidate pairs known after this batch.
    pub known_pairs: usize,
    /// Relations newly attached by this batch.
    pub attached: Vec<Edge>,
    /// Total relations in the maintained taxonomy afterwards.
    pub total_relations: usize,
}

/// The parts of a session's state one ingest changed — empty before the
/// first ingest and after a restore.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestChanges {
    /// Queries whose candidate list changed (a new pair or more clicks),
    /// ascending.
    pub queries: Vec<ConceptId>,
    /// Pairs new to the candidate store, ascending.
    pub new_pairs: Vec<(ConceptId, ConceptId)>,
    /// Every edge whose presence in the taxonomy changed: the relations
    /// the batch attached (pruning removes only edges the same expansion
    /// added, never one the taxonomy held before).
    pub edges: Vec<Edge>,
}

impl IncrementalExpander {
    /// Starts a session from a trained detector and the current taxonomy.
    pub fn new(detector: HypoDetector, initial: Taxonomy, cfg: ExpansionConfig) -> Self {
        IncrementalExpander::from_parts(detector, initial, CandidateLists::new(), cfg, 0)
    }

    fn from_parts(
        detector: HypoDetector,
        taxonomy: Taxonomy,
        candidates: CandidateLists,
        cfg: ExpansionConfig,
        batches: usize,
    ) -> Self {
        IncrementalExpander {
            detector,
            taxonomy,
            candidates,
            window: cfg.max_candidates_per_query,
            cfg,
            batches,
            scores: PairScores::default(),
            covered: false,
            pool: ScratchPool::new(),
            matcher: None,
            changes: IngestChanges::default(),
        }
    }

    /// Like [`IncrementalExpander::new`], but seeds the candidate store
    /// with already-mined pairs (e.g. the construction-time pairs of a
    /// [`crate::TrainedPipeline`]), so the first snapshot a serving layer
    /// extracts already has candidates to score.
    pub fn with_pairs(
        detector: HypoDetector,
        initial: Taxonomy,
        pairs: &[CandidatePair],
        cfg: ExpansionConfig,
    ) -> Self {
        IncrementalExpander::from_parts(detector, initial, lists_of(pairs), cfg, 0)
    }

    /// Merges one batch of click records, scores the pairs of the window
    /// the table lacks, re-runs top-down expansion from the current
    /// taxonomy, and adopts the result.
    pub fn ingest(&mut self, vocab: &Vocabulary, records: &[ClickRecord]) -> IngestReport {
        let _g = span!("incremental.ingest");
        self.batches += 1;
        counter!("incremental.batches").inc();
        counter!("incremental.records").add(records.len() as u64);
        if self.matcher.as_ref().map(|(len, _)| *len) != Some(vocab.len()) {
            self.matcher = Some((vocab.len(), ConceptMatcher::new(vocab)));
        }
        let (_, matcher) = self.matcher.as_ref().expect("matcher built above");
        let mut queries = Vec::new();
        let mut new_pairs = Vec::new();
        for r in records {
            let Some(item) = matcher.identify(&r.item_text) else {
                continue;
            };
            if item == r.query {
                continue;
            }
            if let Some(is_new) = add_clicks(&mut self.candidates, r.query, item, r.count) {
                queries.push(r.query);
                if is_new {
                    new_pairs.push((r.query, item));
                }
            }
        }
        queries.sort_unstable();
        queries.dedup();
        new_pairs.sort_unstable();
        // Once the table covers every window, only the lists this batch
        // changed can hold pairs it lacks.
        self.fill_window(vocab, self.covered.then_some(queries.as_slice()));
        let result = expand_scored(&self.scores, &self.taxonomy, &self.candidates, &self.cfg);
        let attached = result.surviving_edges();
        self.taxonomy = result.expanded;
        let known_pairs = self.candidates.values().map(|list| list.len()).sum();
        counter!("incremental.attached").add(attached.len() as u64);
        gauge!("incremental.known_pairs").set(known_pairs as i64);
        gauge!("incremental.total_relations").set(self.taxonomy.edge_count() as i64);
        self.changes = IngestChanges {
            queries,
            new_pairs,
            edges: attached.clone(),
        };
        IngestReport {
            batch: self.batches,
            known_pairs,
            attached,
            total_relations: self.taxonomy.edge_count(),
        }
    }

    /// Widens the scored window to the top `cap` candidates of every
    /// query and scores the pairs the table now lacks. A serving layer
    /// calls this once with its per-query candidate cap; every later
    /// ingest keeps the wider window covered.
    pub fn cover_window(&mut self, vocab: &Vocabulary, cap: usize) {
        self.window = self.window.max(cap);
        self.fill_window(vocab, None);
    }

    /// Scores the pairs the table lacks in the window of `queries`, or of
    /// every query when `None`.
    fn fill_window(&mut self, vocab: &Vocabulary, queries: Option<&[ConceptId]>) {
        let lists = &self.candidates;
        let missing = match queries {
            Some(queries) => self.scores.missing(pair_scores::window(
                queries.iter().filter_map(|q| lists.get_key_value(q)),
                self.window,
            )),
            None => self.scores.missing(pair_scores::window(lists, self.window)),
        };
        self.scores.fill(&self.detector, vocab, missing, &self.pool);
        self.covered = true;
    }

    /// The detector's score table. After an ingest or a
    /// [`IncrementalExpander::cover_window`] it holds every pair of the
    /// window (the top candidates of each query, self-pairs removed),
    /// plus pairs that have since dropped out of it.
    pub fn scores(&self) -> &PairScores {
        &self.scores
    }

    /// The maintained taxonomy.
    pub fn taxonomy(&self) -> &Taxonomy {
        &self.taxonomy
    }

    /// The accumulated candidate store as a deterministically ordered
    /// pair list (sorted by query then item) — what
    /// [`IncrementalExpander::state`] persists.
    pub fn candidate_pairs(&self) -> Vec<CandidatePair> {
        let mut pairs: Vec<CandidatePair> = self
            .candidates
            .values()
            .flat_map(|list| list.iter().copied())
            .collect();
        pairs.sort_unstable_by_key(|p| (p.query, p.item));
        pairs
    }

    /// The accumulated candidate store as expansion reads it: equal to
    /// [`candidates_by_query`] of [`IncrementalExpander::candidate_pairs`],
    /// without the regrouping.
    pub fn candidates(&self) -> &CandidateLists {
        &self.candidates
    }

    /// What the last ingest changed.
    pub fn changes(&self) -> &IngestChanges {
        &self.changes
    }

    /// The expansion configuration each ingest expands under.
    pub fn expansion_config(&self) -> &ExpansionConfig {
        &self.cfg
    }

    /// The trained detector in use.
    pub fn detector(&self) -> &HypoDetector {
        &self.detector
    }

    /// Batches ingested so far.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// Extracts the session's durable state (see [`ExpanderState`]).
    pub fn state(&self) -> ExpanderState {
        ExpanderState {
            taxonomy: self.taxonomy.clone(),
            pairs: self.candidate_pairs(),
            batches: self.batches,
        }
    }

    /// Rebuilds a session from a previously extracted (or deserialized)
    /// state plus the frozen detector and config it was running under.
    ///
    /// A restored session is behaviorally identical to the original:
    /// scoring consults only the detector, and expansion consults the
    /// taxonomy as an edge set and each query's candidates in candidate
    /// order, so neither depends on the in-memory insertion order lost
    /// and recreated by the disk round trip.
    ///
    /// The score table starts empty (with the window back at the
    /// expansion cap): restoring under a promoted detector can never
    /// carry the previous detector's scores.
    pub fn restore(detector: HypoDetector, cfg: ExpansionConfig, state: ExpanderState) -> Self {
        let candidates = lists_of(&state.pairs);
        IncrementalExpander::from_parts(detector, state.taxonomy, candidates, cfg, state.batches)
    }
}

/// The candidate lists of `pairs`, with the clicks of a repeated pair
/// summed.
fn lists_of(pairs: &[CandidatePair]) -> CandidateLists {
    let mut clicks: HashMap<(ConceptId, ConceptId), u64> = HashMap::with_capacity(pairs.len());
    for p in pairs {
        *clicks.entry((p.query, p.item)).or_insert(0) += p.clicks;
    }
    let merged: Vec<CandidatePair> = clicks
        .into_iter()
        .map(|((query, item), clicks)| CandidatePair {
            query,
            item,
            clicks,
        })
        .collect();
    candidates_by_query(&merged)
        .into_iter()
        .map(|(query, list)| (query, Arc::new(list)))
        .collect()
}

/// Adds `clicks` to the pair `(query, item)`, keeping the query's list in
/// candidate order; the list is copied first only while a snapshot
/// shares it. Returns `None` when the list is unchanged, else whether
/// the pair is new.
fn add_clicks(
    lists: &mut CandidateLists,
    query: ConceptId,
    item: ConceptId,
    clicks: u64,
) -> Option<bool> {
    let list = lists.entry(query).or_default();
    let found = list.iter().position(|p| p.item == item);
    if found.is_some() && clicks == 0 {
        return None;
    }
    let list = Arc::make_mut(list);
    let mut at = match found {
        Some(at) => {
            list[at].clicks += clicks;
            at
        }
        None => {
            list.push(CandidatePair {
                query,
                item,
                clicks,
            });
            list.len() - 1
        }
    };
    // Clicks only grow, so a pair can only move toward the front.
    while at > 0 && candidate_order(&list[at], &list[at - 1]).is_lt() {
        list.swap(at - 1, at);
        at -= 1;
    }
    Some(found.is_none())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        construct_graph, generate_dataset, DatasetConfig, DetectorConfig, RelationalConfig,
        RelationalModel, StructuralConfig, StructuralModel,
    };
    use taxo_graph::WeightScheme;
    use taxo_synth::{ClickConfig, ClickLog, UgcConfig, UgcCorpus, World, WorldConfig};

    fn trained_world() -> (World, HypoDetector, ClickLog) {
        let world = World::generate(&WorldConfig {
            target_nodes: 150,
            ..WorldConfig::tiny(121)
        });
        let log = ClickLog::generate(
            &world,
            &ClickConfig {
                n_events: 8_000,
                ..ClickConfig::tiny(121)
            },
        );
        let ugc = UgcCorpus::generate(
            &world,
            &UgcConfig {
                n_sentences: 1_500,
                ..UgcConfig::tiny(121)
            },
        );
        let built = construct_graph(
            &world.existing,
            &world.vocab,
            &log.records,
            WeightScheme::IfIqf,
        );
        let ds = generate_dataset(
            &world.existing,
            &world.vocab,
            &built.pairs,
            &DatasetConfig::default(),
        );
        let (rel, _) =
            RelationalModel::pretrain(&world.vocab, &ugc.sentences, &RelationalConfig::tiny(121));
        let st = StructuralModel::build(
            &world.existing,
            &world.vocab,
            &built.pairs,
            Some(&rel),
            &StructuralConfig::tiny(121),
        );
        let mut det = HypoDetector::new(Some(rel), Some(st), &DetectorConfig::tiny(121));
        det.train_with_val(&world.vocab, &ds.train, &ds.val, &DetectorConfig::tiny(121));
        (world, det, log)
    }

    #[test]
    fn batches_accumulate_and_taxonomy_grows_monotonically() {
        let (world, det, log) = trained_world();
        let mut session = IncrementalExpander::new(
            det,
            world.existing.clone(),
            ExpansionConfig {
                threshold: 0.6,
                ..Default::default()
            },
        );
        let mid = log.records.len() / 2;
        let r1 = session.ingest(&world.vocab, &log.records[..mid]);
        let after_first = session.taxonomy().edge_count();
        let r2 = session.ingest(&world.vocab, &log.records[mid..]);
        assert_eq!(r1.batch, 1);
        assert_eq!(r2.batch, 2);
        assert!(r2.known_pairs >= r1.known_pairs, "pair store accumulates");
        assert!(
            session.taxonomy().edge_count() >= after_first,
            "taxonomy never shrinks"
        );
        assert_eq!(r2.total_relations, session.taxonomy().edge_count());
        // Every original relation survives both rounds.
        for e in world.existing.edges() {
            assert!(session.taxonomy().contains_edge(e.parent, e.child));
        }
    }

    #[test]
    fn multi_batch_stream_is_monotone() {
        let (world, det, log) = trained_world();
        let mut session = IncrementalExpander::new(
            det,
            world.existing.clone(),
            ExpansionConfig::builder().threshold(0.6).build().unwrap(),
        );
        // Four "days" of logs, ingested in order.
        let chunk = (log.records.len() / 4).max(1);
        let mut reports: Vec<IngestReport> = Vec::new();
        for (day, batch) in log.records.chunks(chunk).take(4).enumerate() {
            let report = session.ingest(&world.vocab, batch);
            assert_eq!(report.batch, day + 1);
            reports.push(report);
        }
        assert!(reports.len() >= 2, "need at least two batches");
        // The pair store and the maintained taxonomy never shrink across
        // the stream, and every report's totals agree with the session.
        for pair in reports.windows(2) {
            assert!(
                pair[1].known_pairs >= pair[0].known_pairs,
                "known_pairs must be monotone: {} then {}",
                pair[0].known_pairs,
                pair[1].known_pairs
            );
            assert!(
                pair[1].total_relations >= pair[0].total_relations,
                "total_relations must be monotone: {} then {}",
                pair[0].total_relations,
                pair[1].total_relations
            );
        }
        let last = reports.last().unwrap();
        assert_eq!(last.batch, session.batches());
        assert_eq!(last.total_relations, session.taxonomy().edge_count());
        // Attached edges reported per batch all live in the final state.
        for report in &reports {
            for e in &report.attached {
                assert!(session.taxonomy().contains_edge(e.parent, e.child));
            }
        }
    }

    #[test]
    fn state_restore_round_trip_is_behaviorally_identical() {
        let (world, det, log) = trained_world();
        let cfg = ExpansionConfig {
            threshold: 0.6,
            ..Default::default()
        };
        let mut live = IncrementalExpander::new(det.clone(), world.existing.clone(), cfg.clone());
        let mid = log.records.len() / 2;
        live.ingest(&world.vocab, &log.records[..mid]);

        let mut restored = IncrementalExpander::restore(det, cfg, live.state());
        assert_eq!(restored.batches(), live.batches());
        assert_eq!(restored.candidate_pairs(), live.candidate_pairs());
        assert_eq!(
            restored.taxonomy().edge_count(),
            live.taxonomy().edge_count()
        );
        for e in live.taxonomy().edges() {
            assert!(restored.taxonomy().contains_edge(e.parent, e.child));
        }

        // Ingesting the same next batch produces identical outcomes:
        // the disk round trip loses only insertion order, which neither
        // expansion nor reporting observes.
        let ra = live.ingest(&world.vocab, &log.records[mid..]);
        let rb = restored.ingest(&world.vocab, &log.records[mid..]);
        assert_eq!(ra.batch, rb.batch);
        assert_eq!(ra.known_pairs, rb.known_pairs);
        assert_eq!(ra.attached, rb.attached);
        assert_eq!(ra.total_relations, rb.total_relations);
        assert_eq!(live.candidate_pairs(), restored.candidate_pairs());
    }

    #[test]
    fn empty_batch_is_a_fixpoint() {
        let (world, det, log) = trained_world();
        let mut session =
            IncrementalExpander::new(det, world.existing.clone(), ExpansionConfig::default());
        session.ingest(&world.vocab, &log.records);
        let before = session.taxonomy().edge_count();
        let report = session.ingest(&world.vocab, &[]);
        assert_eq!(session.taxonomy().edge_count(), before);
        assert!(
            report.attached.is_empty(),
            "no new data, no new attachments: {:?}",
            report.attached
        );
    }
}
