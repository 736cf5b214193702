//! The f32 response index over a fixed trace — version 0, a run of
//! ingests, a promotion, and a WAL recovery — served at 1 compute thread
//! and at 8:
//!
//! * **Byte identity.** After every step, every window query (plus one
//!   query without candidates) is served byte for byte as
//!   `score_response(.., &snapshot.score_query(q, cap, k))` renders it,
//!   for several `k` and with and without a request id.
//! * **Reuse.** The `serve.index.rendered` counter shows bind rendering
//!   every window query once, an ingest that changes no ranked list
//!   rendering nothing, any other ingest rendering exactly the queries
//!   whose ranked list changed, and a promotion or a recovery rendering
//!   every query again — the same counts at 1 and 8 threads.
//! * **Ranking.** The `serve.index.ranked` counter shows bind, a
//!   promotion and a recovery ranking every window query, and an ingest
//!   ranking only the window queries whose candidate list it changed or
//!   under which it attached an edge — against a replay of the click
//!   counts — the same counts at 1 and 8 threads. One step attaches an
//!   edge under a query whose candidate list it did not change, so an
//!   index that skipped the parents of attached edges would fail.
//!
//! One `#[test]` only: the global thread-count override must not race
//! with another test in this binary.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use taxo_core::{ConceptId, Vocabulary};
use taxo_nn::parallel;
use taxo_serve::{protocol, Client, FsyncPolicy, Reply, ServeConfig, ServeSnapshot, Tier};
use taxo_sim::{Fixture, Fleet, Split};

const SEED: u64 = 11;

/// Every query's full reference ranking as `(item, score bits,
/// attached)`, recomputed through the detector.
type Rankings = BTreeMap<ConceptId, Vec<(ConceptId, u32, bool)>>;

/// The entries rendered and the queries ranked so far.
fn counts() -> (u64, u64) {
    (
        taxo_sim::counter("serve.index.rendered"),
        taxo_sim::counter("serve.index.ranked"),
    )
}

/// Replays one wire batch into the click counts `clicks` the way the
/// server matches it; returns the queries whose candidate list changed.
fn replay(
    vocab: &Vocabulary,
    matcher: &taxo_text::ConceptMatcher,
    clicks: &mut HashMap<(ConceptId, ConceptId), u64>,
    batch: &[(String, String, u64)],
) -> BTreeSet<ConceptId> {
    let mut changed = BTreeSet::new();
    for (query, item, count) in batch {
        let (Some(query), Some(item)) = (vocab.get(query), matcher.identify(item)) else {
            continue;
        };
        if query == item {
            continue;
        }
        let known = clicks.contains_key(&(query, item));
        *clicks.entry((query, item)).or_insert(0) += count;
        if !known || *count > 0 {
            changed.insert(query);
        }
    }
    changed
}

fn rankings(snapshot: &ServeSnapshot, cap: usize) -> Rankings {
    (0..snapshot.vocab.len())
        .map(ConceptId::from_index)
        .filter(|&q| !snapshot.eligible(q, cap).is_empty())
        .map(|q| {
            let ranked = snapshot.score_query(q, cap, usize::MAX);
            let key = ranked
                .iter()
                .map(|c| (c.item, c.score.to_bits(), c.attached))
                .collect();
            (q, key)
        })
        .collect()
}

/// Two wire batches, the second of which attaches an edge under a query
/// whose candidate list it does not change. The first clicks `y` under
/// a concept `x` outside the taxonomy: nothing attaches under `x`, which
/// the expansion does not visit. The second clicks `x` under a taxonomy
/// node, which attaches `x` and so, in the same expansion, `y` under
/// `x`.
fn cascade(fixture: &Fixture) -> [Vec<(String, String, u64)>; 2] {
    let taxonomy = fixture.expander().taxonomy().clone();
    let (vocab, detector) = (&fixture.vocab, &fixture.detector);
    let attaches =
        |parent, child| detector.score(vocab, parent, child) > fixture.expansion.threshold;
    let outside: Vec<ConceptId> = vocab
        .ids()
        .filter(|&c| !taxonomy.contains_node(c))
        .collect();
    let click = |query, item| {
        vec![(
            vocab.name(query).to_owned(),
            vocab.name(item).to_owned(),
            1000,
        )]
    };
    for &x in &outside {
        let parent = taxonomy.nodes().find(|&g| attaches(g, x));
        let child = outside.iter().find(|&&y| y != x && attaches(x, y));
        if let (Some(g), Some(&y)) = (parent, child) {
            return [click(x, y), click(g, x)];
        }
    }
    panic!("no concept outside the taxonomy both attaches and takes a child");
}

/// Queries whose ranked list `next` does not share with `prev`.
fn changed(prev: &Rankings, next: &Rankings) -> u64 {
    next.iter()
        .filter(|&(q, ranked)| prev.get(q) != Some(ranked))
        .count() as u64
}

/// Checks every served response of the current snapshot against the
/// reference rendering; returns the snapshot's rankings.
fn check_bytes(fleet: &Fleet, version: u64, step: &str) -> Rankings {
    let snapshot = fleet.shard(0).store().load();
    assert_eq!(snapshot.version, version, "{step}: served version");
    let cfg = ServeConfig::default();
    let cap = cfg.max_candidates;
    let ranks = rankings(&snapshot, cap);
    assert!(
        ranks.len() >= 10,
        "{step}: a non-trivial window, got {}",
        ranks.len()
    );
    let unscored = (0..snapshot.vocab.len())
        .map(ConceptId::from_index)
        .find(|&q| snapshot.eligible(q, cap).is_empty())
        .expect("some concept has no candidates");
    let ks = [1, 2, cfg.default_k, cap, cap + 3];
    let mut client = Client::connect(fleet.addr()).unwrap();
    for q in ranks.keys().copied().chain([unscored]) {
        let name = snapshot.vocab.name(q);
        for k in ks {
            let reference = snapshot.score_query(q, cap, k);
            for id in [Some(u64::from(q.0) * 10 + k as u64), None] {
                let mut line = String::new();
                protocol::push_score_request(&mut line, id, name, Some(k), None, None);
                let expected = protocol::score_response(
                    id,
                    name,
                    version,
                    Tier::F32,
                    &snapshot.vocab,
                    &reference,
                );
                assert_eq!(
                    client.call_raw(&line).unwrap(),
                    expected,
                    "{step}: query {name:?}, k {k}, id {id:?}"
                );
            }
        }
    }
    ranks
}

/// Runs the trace; returns the entries rendered and the queries ranked
/// by each step.
fn run_trace(fixture: &Fixture) -> Vec<(u64, u64)> {
    let mut clicks: HashMap<(ConceptId, ConceptId), u64> = fixture
        .expander()
        .candidate_pairs()
        .into_iter()
        .map(|p| ((p.query, p.item), p.clicks))
        .collect();
    let matcher = taxo_text::ConceptMatcher::new(&fixture.world.vocab);
    let vocab = &fixture.vocab;

    // The fleet zeroes the metrics before it binds.
    let mut fleet = Fleet::standalone(fixture)
        .wal(FsyncPolicy::Always, 1)
        .start();
    let mut steps = vec![counts()];
    let mut ranks = check_bytes(&fleet, 0, "version 0");
    let all = ranks.len() as u64;
    assert_eq!(steps[0], (all, all), "bind renders and ranks every query");

    // First an ingest of an unknown term, which changes nothing, then a
    // cascade, then the unseen half of the click log in four batches.
    let mut batches = vec![vec![(
        "no such query".to_owned(),
        "no such item".to_owned(),
        1,
    )]];
    batches.extend(cascade(fixture));
    batches.extend(
        fixture
            .batches(4, Split::Contiguous)
            .iter()
            .map(|batch| taxo_sim::wire(vocab, batch)),
    );
    let mut version = 0;
    let (mut partial, mut narrow, mut unchanged_parent) = (false, false, false);
    let mut client = Client::connect(fleet.addr()).unwrap();
    let mut edges: BTreeSet<_> = fleet.shard(0).store().load().taxonomy.edges().collect();
    for (n, batch) in batches.iter().enumerate() {
        let before = counts();
        let reply = client.ingest(batch).unwrap();
        assert!(
            matches!(reply, Reply::Ok(_)),
            "ingest {n} failed: {reply:?}"
        );
        let (rendered, ranked) = counts();
        steps.push((rendered - before.0, ranked - before.1));
        let mut touched = replay(vocab, &matcher, &mut clicks, batch);
        let next_edges: BTreeSet<_> = fleet.shard(0).store().load().taxonomy.edges().collect();
        let parents: BTreeSet<_> = edges
            .symmetric_difference(&next_edges)
            .map(|e| e.parent)
            .collect();
        edges = next_edges;
        version += 1;
        let step = format!("ingest {n}");
        let next = check_bytes(&fleet, version, &step);
        unchanged_parent |= parents
            .iter()
            .any(|p| !touched.contains(p) && next.contains_key(p));
        touched.extend(parents);
        let expected = changed(&ranks, &next);
        let served = touched.iter().filter(|q| next.contains_key(q)).count() as u64;
        assert_eq!(
            steps.last(),
            Some(&(expected, served)),
            "{step}: renders exactly the changed queries, ranks exactly the changed and \
             attached-under queries"
        );
        narrow |= served < next.len() as u64;
        if n == 0 {
            assert_eq!(
                (expected, served),
                (0, 0),
                "an unknown-term ingest changes no ranking and ranks nothing"
            );
        }
        partial |= 0 < expected && expected < next.len() as u64;
        ranks = next;
    }
    assert!(partial, "some ingest must reuse entries and render others");
    assert!(narrow, "some ingest must leave served queries unranked");
    assert!(
        unchanged_parent,
        "some ingest must attach an edge under a served query whose candidate list it did not \
         change"
    );

    // A promotion renders and ranks every entry again under the new
    // detector.
    let promoted_detector = fixture.detector_seeded(SEED + 1);
    let before = counts();
    let outcome = fleet
        .shard(0)
        .controller()
        .promote(Arc::new(promoted_detector.clone()))
        .unwrap();
    version += 1;
    assert_eq!(outcome, version);
    let (rendered, ranked) = counts();
    steps.push((rendered - before.0, ranked - before.1));
    let promoted = check_bytes(&fleet, version, "promotion");
    let all = promoted.len() as u64;
    assert_eq!(
        steps.last(),
        Some(&(all, all)),
        "a promotion renders and ranks every query"
    );
    assert!(
        changed(&ranks, &promoted) > 0,
        "the promoted detector must change some ranking"
    );
    drop(client);

    // Recovery builds from scratch under the serving detector.
    let before = counts();
    let report = fleet.recover(0, &promoted_detector);
    assert_eq!(report.final_version, version);
    let (rendered, ranked) = counts();
    steps.push((rendered - before.0, ranked - before.1));
    let after = check_bytes(&fleet, version, "recovery");
    assert_eq!(after, promoted, "recovery serves the pre-stop rankings");
    let all = after.len() as u64;
    assert_eq!(
        steps.last(),
        Some(&(all, all)),
        "a recovery renders and ranks every query"
    );
    steps
}

#[test]
fn index_responses_are_byte_identical_and_rendered_once_per_change() {
    let fixture = Fixture::new(SEED);
    parallel::set_threads(1);
    let sequential = run_trace(&fixture);
    parallel::set_threads(8);
    let threaded = run_trace(&fixture);
    parallel::set_threads(1);
    assert_eq!(
        sequential, threaded,
        "entries rendered and queries ranked per step at 1 vs 8 threads"
    );
}
