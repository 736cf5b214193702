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
//!   counts — the same counts at 1 and 8 threads.
//!
//! One `#[test]` only: the global thread-count override and the metric
//! registry must not race with another test in this binary.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::sync::Arc;
use taxo_core::{ConceptId, Vocabulary};
use taxo_expand::{
    DetectorConfig, ExpansionConfig, HypoDetector, IncrementalExpander, RelationalConfig,
    RelationalModel,
};
use taxo_nn::parallel;
use taxo_serve::{
    protocol, Client, DurabilityConfig, FsyncPolicy, IngestPhase, Reply, ServeConfig,
    ServeSnapshot, Server, ServerHandle, Tier,
};
use taxo_synth::{ClickConfig, ClickLog, ClickRecord, World, WorldConfig};

const SEED: u64 = 11;

/// Every query's full reference ranking as `(item, score bits,
/// attached)`, recomputed through the detector.
type Rankings = BTreeMap<ConceptId, Vec<(ConceptId, u32, bool)>>;

fn rendered() -> u64 {
    taxo_obs::counter!("serve.index.rendered").get()
}

fn ranked() -> u64 {
    taxo_obs::counter!("serve.index.ranked").get()
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

/// Renders a JSON string literal (quotes and escapes included).
fn json_str(s: &str) -> String {
    let mut out = String::new();
    taxo_serve::json::encode_str(s, &mut out);
    out
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

/// Queries whose ranked list `next` does not share with `prev`.
fn changed(prev: &Rankings, next: &Rankings) -> u64 {
    next.iter()
        .filter(|&(q, ranked)| prev.get(q) != Some(ranked))
        .count() as u64
}

/// Checks every served response of the current snapshot against the
/// reference rendering; returns the snapshot's rankings.
fn check_bytes(handle: &ServerHandle, cfg: &ServeConfig, version: u64, step: &str) -> Rankings {
    let snapshot = handle.store().load();
    assert_eq!(snapshot.version, version, "{step}: served version");
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
    let mut client = Client::connect(handle.addr()).unwrap();
    for q in ranks.keys().copied().chain([unscored]) {
        let name = snapshot.vocab.name(q);
        for k in ks {
            let reference = snapshot.score_query(q, cap, k);
            for id in [Some(u64::from(q.0) * 10 + k as u64), None] {
                let line = match id {
                    Some(id) => format!(
                        "{{\"kind\":\"score\",\"id\":{id},\"query\":{},\"k\":{k}}}",
                        json_str(name)
                    ),
                    None => format!(
                        "{{\"kind\":\"score\",\"query\":{},\"k\":{k}}}",
                        json_str(name)
                    ),
                };
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

/// Wire form of one batch, exactly as a client would send it.
fn wire_batch(vocab: &Vocabulary, batch: &[ClickRecord]) -> Vec<(String, String, u64)> {
    batch
        .iter()
        .map(|r| (vocab.name(r.query).to_owned(), r.item_text.clone(), r.count))
        .collect()
}

fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig::Wal {
        dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Always,
        snapshot_every: 1,
    }
}

/// Runs the trace; returns the entries rendered and the queries ranked
/// by each step.
fn run_trace(label: &str) -> (Vec<u64>, Vec<u64>) {
    let world = World::generate(&WorldConfig {
        target_nodes: 120,
        ..WorldConfig::tiny(SEED)
    });
    let log = ClickLog::generate(
        &world,
        &ClickConfig {
            n_events: 4_000,
            ..ClickConfig::tiny(SEED)
        },
    );
    let relational = RelationalModel::vanilla(&world.vocab, &[], &RelationalConfig::tiny(SEED));
    let detector =
        |seed| HypoDetector::new(Some(relational.clone()), None, &DetectorConfig::tiny(seed));
    let expansion = ExpansionConfig::builder().threshold(0.6).build().unwrap();
    let mut expander =
        IncrementalExpander::new(detector(SEED), world.existing.clone(), expansion.clone());
    let half = log.records.len() / 2;
    expander.ingest(&world.vocab, &log.records[..half]);
    let mut clicks: HashMap<(ConceptId, ConceptId), u64> = expander
        .candidate_pairs()
        .into_iter()
        .map(|p| ((p.query, p.item), p.clicks))
        .collect();
    let matcher = taxo_text::ConceptMatcher::new(&world.vocab);
    let vocab = Arc::new(world.vocab);
    let cfg = ServeConfig::default();
    let dir = std::env::temp_dir().join(format!(
        "taxo-serve-response-index-{label}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let mut steps = Vec::new();
    let mut ranked_steps = Vec::new();
    let (before, ranked_before) = (rendered(), ranked());
    let handle = Server::builder(expander, Arc::clone(&vocab))
        .config(cfg.clone())
        .durability(durability(&dir))
        .bind("127.0.0.1:0")
        .unwrap();
    steps.push(rendered() - before);
    ranked_steps.push(ranked() - ranked_before);
    let mut ranks = check_bytes(&handle, &cfg, 0, "version 0");
    assert_eq!(steps[0], ranks.len() as u64, "bind renders every query");
    assert_eq!(
        ranked_steps[0],
        ranks.len() as u64,
        "bind ranks every query"
    );

    // First an ingest of an unknown term, which changes nothing, then the
    // unseen half of the click log in four batches.
    let mut batches = vec![vec![(
        "no such query".to_owned(),
        "no such item".to_owned(),
        1,
    )]];
    let tail = &log.records[half..];
    batches.extend(
        tail.chunks(tail.len().div_ceil(4))
            .map(|batch| wire_batch(&vocab, batch)),
    );
    let mut version = 0;
    let mut partial = false;
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut edges: BTreeSet<_> = handle.store().load().taxonomy.edges().collect();
    let mut narrow = false;
    for (n, batch) in batches.iter().enumerate() {
        let (before, ranked_before) = (rendered(), ranked());
        let reply = client.ingest(batch).unwrap();
        assert!(
            matches!(reply, Reply::Ok(_)),
            "ingest {n} failed: {reply:?}"
        );
        steps.push(rendered() - before);
        ranked_steps.push(ranked() - ranked_before);
        let mut touched = replay(&vocab, &matcher, &mut clicks, batch);
        let next_edges: BTreeSet<_> = handle.store().load().taxonomy.edges().collect();
        touched.extend(edges.symmetric_difference(&next_edges).map(|e| e.parent));
        edges = next_edges;
        version += 1;
        let step = format!("ingest {n}");
        let next = check_bytes(&handle, &cfg, version, &step);
        let expected = changed(&ranks, &next);
        assert_eq!(
            steps.last(),
            Some(&expected),
            "{step}: renders exactly the changed queries"
        );
        let served = touched.iter().filter(|q| next.contains_key(q)).count() as u64;
        assert_eq!(
            ranked_steps.last(),
            Some(&served),
            "{step}: ranks exactly the changed and attached-under queries"
        );
        narrow |= served < next.len() as u64;
        if n == 0 {
            assert_eq!(expected, 0, "an unknown-term ingest changes no ranking");
            assert_eq!(served, 0, "an unknown-term ingest ranks nothing");
        }
        partial |= 0 < expected && expected < next.len() as u64;
        ranks = next;
    }
    assert!(partial, "some ingest must reuse entries and render others");
    assert!(narrow, "some ingest must leave served queries unranked");

    // A promotion renders every entry again under the new detector.
    let (before, ranked_before) = (rendered(), ranked());
    let outcome = handle
        .controller()
        .promote(Arc::new(detector(SEED + 1)), IngestPhase::Auto)
        .unwrap();
    version += 1;
    assert_eq!(outcome.version, version);
    steps.push(rendered() - before);
    ranked_steps.push(ranked() - ranked_before);
    let promoted = check_bytes(&handle, &cfg, version, "promotion");
    assert_eq!(
        steps.last(),
        Some(&(promoted.len() as u64)),
        "a promotion renders every query"
    );
    assert_eq!(
        ranked_steps.last(),
        Some(&(promoted.len() as u64)),
        "a promotion ranks every query"
    );
    assert!(
        changed(&ranks, &promoted) > 0,
        "the promoted detector must change some ranking"
    );
    handle.shutdown_and_join();

    // Recovery builds from scratch under the serving detector.
    let (recovered, report) =
        Server::recover(&dir, detector(SEED + 1), expansion, &vocab).expect("recovery");
    assert_eq!(report.final_version, version);
    let (before, ranked_before) = (rendered(), ranked());
    let handle = Server::builder(recovered, Arc::clone(&vocab))
        .config(cfg.clone())
        .durability(durability(&dir))
        .recovered(&report)
        .bind("127.0.0.1:0")
        .unwrap();
    steps.push(rendered() - before);
    ranked_steps.push(ranked() - ranked_before);
    let after = check_bytes(&handle, &cfg, version, "recovery");
    assert_eq!(after, promoted, "recovery serves the pre-stop rankings");
    assert_eq!(
        steps.last(),
        Some(&(after.len() as u64)),
        "a recovery renders every query"
    );
    assert_eq!(
        ranked_steps.last(),
        Some(&(after.len() as u64)),
        "a recovery ranks every query"
    );
    handle.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
    (steps, ranked_steps)
}

#[test]
fn index_responses_are_byte_identical_and_rendered_once_per_change() {
    parallel::set_threads(1);
    let sequential = run_trace("1-thread");
    parallel::set_threads(8);
    let threaded = run_trace("8-thread");
    parallel::set_threads(1);
    assert_eq!(
        sequential, threaded,
        "entries rendered and queries ranked per step at 1 vs 8 threads"
    );
}
