//! End-to-end round trips against a live server on a loopback port:
//! bit-identical scoring vs. the offline baseline, error codes, health
//! and stats introspection, backpressure shedding, graceful shutdown.

use std::sync::{Arc, Mutex, MutexGuard};
use taxo_core::{ConceptId, Vocabulary};
use taxo_expand::{
    DetectorConfig, ExpansionConfig, HypoDetector, IncrementalExpander, RelationalConfig,
    RelationalModel,
};
use taxo_serve::{candidate_key, expected_key, Client, Reply, ServeConfig, Server, Tier};
use taxo_synth::{ClickConfig, ClickLog, World, WorldConfig};

/// Serializes the tests that send int8 traffic: the metrics registry is
/// process-global, and only int8 requests probe the response cache (f32
/// ones are spliced from the snapshot's response index), so a test
/// holding this lock sees exactly its own response-cache counts.
fn int8_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A deterministic serving fixture: a synthetic world, a vanilla
/// (untrained) detector — cheap but fully deterministic — and an
/// expander pre-seeded with half the click log so version 0 has a real
/// candidate store.
fn fixture(seed: u64) -> (Arc<Vocabulary>, IncrementalExpander, ClickLog) {
    let world = World::generate(&WorldConfig {
        target_nodes: 120,
        ..WorldConfig::tiny(seed)
    });
    let log = ClickLog::generate(
        &world,
        &ClickConfig {
            n_events: 4_000,
            ..ClickConfig::tiny(seed)
        },
    );
    let relational = RelationalModel::vanilla(&world.vocab, &[], &RelationalConfig::tiny(seed));
    let detector = HypoDetector::new(Some(relational), None, &DetectorConfig::tiny(seed));
    let cfg = ExpansionConfig::builder().threshold(0.6).build().unwrap();
    let mut expander = IncrementalExpander::new(detector, world.existing.clone(), cfg);
    let half = log.records.len() / 2;
    expander.ingest(&world.vocab, &log.records[..half]);
    (Arc::new(world.vocab), expander, log)
}

/// Queries the version-0 snapshot can actually score.
fn scorable_queries(
    snapshot: &taxo_serve::ServeSnapshot,
    expander_pairs: &[taxo_expand::CandidatePair],
    cap: usize,
) -> Vec<ConceptId> {
    let mut queries: Vec<ConceptId> = expander_pairs.iter().map(|p| p.query).collect();
    queries.sort_unstable();
    queries.dedup();
    queries.retain(|&q| !snapshot.eligible(q, cap).is_empty());
    queries
}

#[test]
fn scores_are_bit_identical_to_offline_baseline() {
    let (vocab, expander, _) = fixture(11);
    let pairs = expander.candidate_pairs();
    let cfg = ServeConfig::default();
    let cap = cfg.max_candidates;
    let k = cfg.default_k;
    let handle = Server::builder(expander, Arc::clone(&vocab))
        .config(cfg)
        .bind("127.0.0.1:0")
        .unwrap();
    let snapshot = handle.store().load();
    let queries = scorable_queries(&snapshot, &pairs, cap);
    assert!(
        queries.len() >= 10,
        "fixture must produce a non-trivial query universe, got {}",
        queries.len()
    );

    let mut client = Client::connect(handle.addr()).unwrap();
    for &q in queries.iter().take(40) {
        let name = vocab.name(q);
        let reply = client.score(name, Some(k)).unwrap();
        let Reply::Ok(v) = reply else {
            panic!("score {name:?} failed: {reply:?}");
        };
        assert_eq!(
            v.get("version").and_then(taxo_serve::json::Value::as_u64),
            Some(0)
        );
        let offline = expected_key(&vocab, &snapshot.score_query(q, cap, k));
        assert_eq!(
            candidate_key(&v).as_deref(),
            Some(offline.as_slice()),
            "served candidates for {name:?} must be bit-identical to offline scoring"
        );
    }
    handle.shutdown_and_join();
}

#[test]
fn repeated_queries_hit_the_cache_and_stay_bit_identical() {
    let _guard = int8_lock();
    let (vocab, expander, _) = fixture(16);
    let pairs = expander.candidate_pairs();
    let cfg = ServeConfig::default();
    let cap = cfg.max_candidates;
    let k = cfg.default_k;
    let handle = Server::builder(expander, Arc::clone(&vocab))
        .config(cfg)
        .bind("127.0.0.1:0")
        .unwrap();
    let snapshot = handle.store().load();
    let queries = scorable_queries(&snapshot, &pairs, cap);
    let q = queries[0];
    let name = vocab.name(q);
    let offline = expected_key(&vocab, &snapshot.score_query_tier(q, cap, k, Tier::Int8));

    let hits = || taxo_obs::counter!("serve.resp_cache.hits").get();
    let misses = || taxo_obs::counter!("serve.resp_cache.misses").get();
    let (hits_before, misses_before) = (hits(), misses());
    let mut client = Client::connect(handle.addr()).unwrap();
    for round in 0..3 {
        let reply = client.score_tier(name, Some(k), Some(Tier::Int8)).unwrap();
        let Reply::Ok(v) = reply else {
            panic!("round {round}: score {name:?} failed: {reply:?}");
        };
        assert_eq!(
            candidate_key(&v).as_deref(),
            Some(offline.as_slice()),
            "round {round}: cold and cache-served responses must be bit-identical"
        );
    }
    // Round 1 misses and fills the rendered-response cache; rounds 2 and
    // 3 are answered by splicing the cached tail. Exact counts: no other
    // test's traffic can reach the cache while the lock is held.
    assert_eq!(hits() - hits_before, 2, "rendered-response hits");
    assert_eq!(misses() - misses_before, 1, "rendered-response misses");
    handle.shutdown_and_join();
}

#[test]
fn int8_tier_is_bit_identical_to_offline_quant_replay() {
    let _guard = int8_lock();
    let (vocab, expander, _) = fixture(17);
    let pairs = expander.candidate_pairs();
    let cfg = ServeConfig::default();
    let cap = cfg.max_candidates;
    let k = cfg.default_k;
    let handle = Server::builder(expander, Arc::clone(&vocab))
        .config(cfg)
        .bind("127.0.0.1:0")
        .unwrap();
    let snapshot = handle.store().load();
    let queries = scorable_queries(&snapshot, &pairs, cap);
    assert!(queries.len() >= 5, "fixture too small");

    let mut client = Client::connect(handle.addr()).unwrap();
    let mut diverged = 0usize;
    for &q in queries.iter().take(20) {
        let name = vocab.name(q);
        let reply = client
            .score_tier(name, Some(k), Some(taxo_serve::Tier::Int8))
            .unwrap();
        let Reply::Ok(v) = reply else {
            panic!("int8 score {name:?} failed: {reply:?}");
        };
        assert_eq!(
            v.get("tier").and_then(taxo_serve::json::Value::as_str),
            Some("int8"),
            "response echoes the tier"
        );
        // The quant tier has its own offline reference, bit-identical the
        // same way the f32 tier is to `score_query`.
        let offline = expected_key(
            &vocab,
            &snapshot.score_query_tier(q, cap, k, taxo_serve::Tier::Int8),
        );
        assert_eq!(
            candidate_key(&v).as_deref(),
            Some(offline.as_slice()),
            "served int8 candidates for {name:?} must match offline quant replay"
        );
        // And it really is a different tier, not f32 relabelled.
        let f32_offline = expected_key(&vocab, &snapshot.score_query(q, cap, k));
        if offline != f32_offline {
            diverged += 1;
        }
    }
    assert!(
        diverged > 0,
        "int8 scores never diverged from f32 — quantization is a no-op?"
    );
    handle.shutdown_and_join();
}

#[test]
fn unknown_terms_and_garbage_lines_error_cleanly() {
    let (vocab, expander, _) = fixture(12);
    let handle = Server::builder(expander, vocab)
        .bind("127.0.0.1:0")
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let reply = client.score("definitely-not-a-term", None).unwrap();
    assert_eq!(reply.error_code(), Some("unknown_term"));

    let raw = client.call_raw("this is not json").unwrap();
    let v = taxo_serve::json::parse(&raw).unwrap();
    assert_eq!(
        v.get("error").and_then(taxo_serve::json::Value::as_str),
        Some("bad_request")
    );

    // The connection survives both errors.
    let reply = client.health().unwrap();
    assert!(matches!(reply, Reply::Ok(_)));
    handle.shutdown_and_join();
}

#[test]
fn health_and_stats_report_server_state() {
    let (vocab, expander, _) = fixture(13);
    let nodes = expander.taxonomy().node_count();
    let edges = expander.taxonomy().edge_count();
    let handle = Server::builder(expander, vocab)
        .bind("127.0.0.1:0")
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let Reply::Ok(h) = client.health().unwrap() else {
        panic!("health failed");
    };
    let get_u64 = |v: &taxo_serve::json::Value, key: &str| {
        v.get(key).and_then(taxo_serve::json::Value::as_u64)
    };
    assert_eq!(
        h.get("status").and_then(taxo_serve::json::Value::as_str),
        Some("serving")
    );
    assert_eq!(get_u64(&h, "version"), Some(0));
    assert_eq!(get_u64(&h, "nodes"), Some(nodes as u64));
    assert_eq!(get_u64(&h, "edges"), Some(edges as u64));
    assert_eq!(
        get_u64(&h, "batches"),
        Some(1),
        "fixture pre-seeds one batch"
    );

    let Reply::Ok(s) = client.stats().unwrap() else {
        panic!("stats failed");
    };
    // The metrics registry is process-global (other tests record too), so
    // only assert our own request counters are present and counted.
    let health_count = s
        .get("counters")
        .and_then(|c| c.get("serve.requests.health"))
        .and_then(taxo_serve::json::Value::as_u64)
        .expect("health counter present");
    assert!(health_count >= 1);
    handle.shutdown_and_join();
}

#[test]
fn overload_sheds_with_busy_and_never_corrupts_responses() {
    let _guard = int8_lock();
    let (vocab, expander, _) = fixture(14);
    let pairs = expander.candidate_pairs();
    let cfg = ServeConfig {
        batch_max: 2,
        score_queue_cap: 2,
        ..ServeConfig::default()
    };
    let cap = cfg.max_candidates;
    let k = cfg.default_k;
    let handle = Server::builder(expander, Arc::clone(&vocab))
        .config(cfg)
        .bind("127.0.0.1:0")
        .unwrap();
    let snapshot = handle.store().load();
    let queries = scorable_queries(&snapshot, &pairs, cap);
    let addr = handle.addr();

    // Hammer from several connections: every reply must be either a
    // bit-identical score or an explicit busy shed — nothing else. Half
    // the connections ask for int8, the tier that goes through the
    // bounded scorer queue (f32 is answered from the score table).
    let shed = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for conn in 0..4usize {
            let vocab = &vocab;
            let snapshot = &snapshot;
            let queries = &queries;
            let tier = if conn % 2 == 0 { Tier::F32 } else { Tier::Int8 };
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut busy = 0u64;
                for i in 0..50usize {
                    let q = queries[(conn * 31 + i * 7) % queries.len()];
                    let reply = client
                        .score_tier(vocab.name(q), Some(k), Some(tier))
                        .unwrap();
                    match reply {
                        Reply::Ok(v) => {
                            let offline =
                                expected_key(vocab, &snapshot.score_query_tier(q, cap, k, tier));
                            assert_eq!(candidate_key(&v).as_deref(), Some(offline.as_slice()));
                        }
                        reply if reply.is_busy() => busy += 1,
                        other => panic!("unexpected reply under load: {other:?}"),
                    }
                }
                busy
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
    });
    // Shedding is load-dependent; zero sheds is fine, corruption is not.
    let _ = shed;
    handle.shutdown_and_join();
}

#[test]
fn graceful_shutdown_acknowledges_then_stops_accepting() {
    let (vocab, expander, _) = fixture(15);
    let handle = Server::builder(expander, vocab)
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    let reply = client.shutdown().unwrap();
    assert!(
        matches!(reply, Reply::Ok(_)),
        "shutdown must be acknowledged"
    );
    handle.join();

    // The listener is gone: a fresh connection either refuses outright or
    // closes without serving.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => {
            assert!(
                c.health().is_err(),
                "post-shutdown connection must not serve"
            );
        }
    }
}
