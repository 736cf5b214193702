//! The score table's accounting contract: over a fixed trace, the
//! `expand.scores.computed` counter shows each candidate pair scored at
//! most once per detector, at any thread count —
//!
//! * the version-0 fill scores exactly the window;
//! * an ingest that adds no new pairs scores nothing;
//! * an ingest scores exactly the window pairs new to the table;
//! * a promotion (restore under another detector) refills it once;
//!
//! and after every step each table entry is bit-equal to
//! [`HypoDetector::score`] under the session's detector.
//!
//! One `#[test]` only: the global thread-count override and the metric
//! registry must not race with another test in this binary.

use std::collections::BTreeSet;
use taxo_core::{ConceptId, Vocabulary};
use taxo_expand::{
    candidates_by_query, construct_graph, DetectorConfig, ExpansionConfig, HypoDetector,
    IncrementalExpander, RelationalConfig, RelationalModel, StructuralConfig, StructuralModel,
};
use taxo_graph::WeightScheme;
use taxo_nn::parallel;
use taxo_synth::{ClickConfig, ClickLog, World, WorldConfig};

/// Candidates per query the fill covers — a serving layer's cap, wider
/// than the expansion cap (8), as in `ServeConfig::default()`.
const CAP: usize = 16;

type Pair = (ConceptId, ConceptId);

/// The window an expander's table must cover: the top `CAP` candidates
/// of each query, self-pairs removed — computed independently of the
/// table code.
fn window(expander: &IncrementalExpander) -> BTreeSet<Pair> {
    candidates_by_query(&expander.candidate_pairs())
        .into_iter()
        .flat_map(|(query, list)| {
            list.into_iter()
                .take(CAP)
                .filter(move |p| p.item != query)
                .map(move |p| (query, p.item))
        })
        .collect()
}

fn table_keys(expander: &IncrementalExpander) -> BTreeSet<Pair> {
    expander.scores().iter().map(|(pair, _)| pair).collect()
}

/// Every entry equals recomputation through `HypoDetector::score`.
fn assert_bit_exact(expander: &IncrementalExpander, vocab: &Vocabulary, step: &str) {
    for ((q, i), score) in expander.scores().iter() {
        assert_eq!(
            score.to_bits(),
            expander.detector().score(vocab, q, i).to_bits(),
            "{step}: table entry ({q:?}, {i:?}) differs from recomputation"
        );
    }
}

fn computed() -> u64 {
    taxo_obs::counter!("expand.scores.computed").get()
}

/// Checks one step: `expected` pairs scored since `before`, the window
/// covered, every entry exact. Returns the pairs scored.
fn check(
    step: &str,
    expander: &IncrementalExpander,
    vocab: &Vocabulary,
    before: u64,
    expected: usize,
) -> u64 {
    let delta = computed() - before;
    assert_eq!(delta, expected as u64, "{step}: pairs scored");
    assert!(
        window(expander).is_subset(&table_keys(expander)),
        "{step}: window covered"
    );
    assert_bit_exact(expander, vocab, step);
    delta
}

/// Runs the trace; returns the pairs scored by each step.
fn run_trace(world: &World, log: &ClickLog, detectors: &[HypoDetector; 2]) -> Vec<u64> {
    let vocab = &world.vocab;
    let cfg = ExpansionConfig::builder().threshold(0.55).build().unwrap();
    let half = log.records.len() / 2;
    let built = construct_graph(
        &world.existing,
        vocab,
        &log.records[..half],
        WeightScheme::IfIqf,
    );
    let mut deltas = Vec::new();

    // Version 0: a session seeded with mined pairs, then the serving
    // layer's one-time fill.
    let mut expander = IncrementalExpander::with_pairs(
        detectors[0].clone(),
        world.existing.clone(),
        &built.pairs,
        cfg.clone(),
    );
    assert!(expander.scores().is_empty(), "nothing scored before a fill");
    let before = computed();
    expander.cover_window(vocab, CAP);
    let w0 = window(&expander);
    assert_eq!(
        table_keys(&expander),
        w0,
        "the fill holds exactly the window"
    );
    deltas.push(check("version-0 fill", &expander, vocab, before, w0.len()));

    // An ingest that adds no pairs re-runs expansion from the table alone.
    let before = computed();
    expander.ingest(vocab, &[]);
    deltas.push(check("empty ingest", &expander, vocab, before, 0));

    // Fresh click evidence: only window pairs new to the table are scored.
    for (n, batch) in log.records[half..]
        .chunks(log.records.len() / 8)
        .enumerate()
    {
        let known = table_keys(&expander);
        let before = computed();
        expander.ingest(vocab, batch);
        let fresh = window(&expander).difference(&known).count();
        deltas.push(check(
            &format!("ingest {n}"),
            &expander,
            vocab,
            before,
            fresh,
        ));
    }
    assert!(
        deltas[2..].iter().any(|&d| d > 0),
        "the trace must bring new pairs into the window: {deltas:?}"
    );

    // Promotion: the session restarts under another detector with an
    // empty table, and the serving layer's fill scores the window once.
    let old = expander.scores().clone();
    expander = IncrementalExpander::restore(detectors[1].clone(), cfg, expander.state());
    assert!(expander.scores().is_empty(), "a promotion drops the table");
    let before = computed();
    expander.cover_window(vocab, CAP);
    let w = window(&expander);
    deltas.push(check("promotion refill", &expander, vocab, before, w.len()));
    assert!(
        expander
            .scores()
            .iter()
            .any(|((q, i), s)| old.get(q, i).is_some_and(|o| o.to_bits() != s.to_bits())),
        "the promoted detector's scores must differ from the old table's"
    );

    // And the refilled table is not re-scored by the next ingest.
    let before = computed();
    expander.ingest(vocab, &[]);
    deltas.push(check("post-promotion ingest", &expander, vocab, before, 0));
    deltas
}

#[test]
fn each_pair_is_scored_once_per_detector() {
    let world = World::generate(&WorldConfig {
        target_nodes: 150,
        ..WorldConfig::tiny(131)
    });
    let log = ClickLog::generate(
        &world,
        &ClickConfig {
            n_events: 6_000,
            ..ClickConfig::tiny(131)
        },
    );
    let built = construct_graph(
        &world.existing,
        &world.vocab,
        &log.records,
        WeightScheme::IfIqf,
    );
    let relational = RelationalModel::vanilla(&world.vocab, &[], &RelationalConfig::tiny(131));
    let structural = StructuralModel::build(
        &world.existing,
        &world.vocab,
        &built.pairs,
        Some(&relational),
        &StructuralConfig::tiny(131),
    );
    let detector = |seed| {
        HypoDetector::new(
            Some(relational.clone()),
            Some(structural.clone()),
            &DetectorConfig::tiny(seed),
        )
    };
    let detectors = [detector(131), detector(132)];

    parallel::set_threads(1);
    let sequential = run_trace(&world, &log, &detectors);
    parallel::set_threads(8);
    let threaded = run_trace(&world, &log, &detectors);
    parallel::set_threads(1);
    assert_eq!(
        sequential, threaded,
        "pairs scored per step at 1 vs 8 threads"
    );
}
