//! The cross-shard extension of the hot-swap consistency guarantee:
//! a pipelined score burst spanning several shards, racing a
//! router-coordinated two-phase ingest, is always answered entirely
//! from one coherent version vector — every response in the burst
//! matches the offline baseline of the version it claims, and the
//! burst's version pair is `(0,0)` or `(1,1)`, never mixed.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use taxo_core::json::Value;
use taxo_core::ConceptId;
use taxo_expand::{
    DetectorConfig, ExpansionConfig, HypoDetector, IncrementalExpander, RelationalConfig,
    RelationalModel,
};
use taxo_router::{Router, RouterConfig};
use taxo_serve::{candidate_key, expected_key, Client, Reply, ServeConfig, Server};
use taxo_synth::{ClickConfig, ClickLog, World, WorldConfig};

const SEED: u64 = 21;

/// Builds one shard's expander: the full world taxonomy seeded with the
/// shared first half of the click log. Both shards run this with the
/// same inputs, so their version-0 states are identical — divergence
/// only enters through the routed second half.
fn shard_expander(world: &World, records: &[taxo_synth::ClickRecord]) -> IncrementalExpander {
    let relational = RelationalModel::vanilla(&world.vocab, &[], &RelationalConfig::tiny(SEED));
    let detector = HypoDetector::new(Some(relational), None, &DetectorConfig::tiny(SEED));
    let cfg = ExpansionConfig::builder().threshold(0.6).build().unwrap();
    let mut expander = IncrementalExpander::new(detector, world.existing.clone(), cfg);
    expander.ingest(&world.vocab, records);
    expander
}

#[test]
fn cross_shard_bursts_never_mix_epochs() {
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
    let half = log.records.len() / 2;
    let exp0 = shard_expander(&world, &log.records[..half]);
    let exp1 = shard_expander(&world, &log.records[..half]);
    let pairs = exp0.candidate_pairs();
    let swap_batch: Vec<(String, String, u64)> = log.records[half..]
        .iter()
        .map(|r| {
            (
                world.vocab.name(r.query).to_owned(),
                r.item_text.clone(),
                r.count,
            )
        })
        .collect();
    let vocab = Arc::new(world.vocab);

    let serve_cfg = ServeConfig::default();
    let cap = serve_cfg.max_candidates;
    let k = serve_cfg.default_k;
    let h0 = Server::builder(exp0, Arc::clone(&vocab))
        .config(serve_cfg.clone())
        .bind("127.0.0.1:0")
        .unwrap();
    let h1 = Server::builder(exp1, Arc::clone(&vocab))
        .config(serve_cfg)
        .bind("127.0.0.1:0")
        .unwrap();
    let router = Router::builder(vec![h0.addr(), h1.addr()])
        .config(RouterConfig::default())
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = router.addr();
    assert_eq!(*router.vector(), vec![0, 0], "probe seeds the vector");

    // The swap batch must genuinely span both shards, or the ingest
    // would degrade to the single-shard path and prove nothing.
    let ring = router.ring().clone();
    let routed_shards: std::collections::BTreeSet<u32> = swap_batch
        .iter()
        .map(|(q, _, _)| ring.shard_for(q))
        .collect();
    assert_eq!(routed_shards.len(), 2, "swap batch must span both shards");

    // One burst query per shard, eligible at version 0.
    let s0_old = h0.store().load();
    let s1_old = h1.store().load();
    assert_eq!((s0_old.version, s1_old.version), (0, 0));
    let mut queries: Vec<ConceptId> = pairs.iter().map(|p| p.query).collect();
    queries.sort_unstable();
    queries.dedup();
    let pick = |shard: u32| -> ConceptId {
        *queries
            .iter()
            .find(|&&q| {
                ring.shard_for(vocab.name(q)) == shard && !s0_old.eligible(q, cap).is_empty()
            })
            .expect("each shard owns at least one eligible query")
    };
    let q0 = pick(0);
    let q1 = pick(1);

    // Readers pipeline a two-shard burst in one frame and read both
    // responses; each observation is the burst's (version, key) pair.
    type Key = Vec<(String, u32, bool)>;
    type Observation = ((u64, Key), (u64, Key));
    let stop = AtomicBool::new(false);
    let observations: Vec<Observation> = std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..3 {
            let stop = &stop;
            let vocab = &vocab;
            readers.push(scope.spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(std::time::Duration::from_secs(10)))
                    .unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let frame = format!(
                    "{{\"kind\":\"score\",\"id\":1,\"query\":{}}}\n\
                     {{\"kind\":\"score\",\"id\":2,\"query\":{}}}\n",
                    taxo_core::json::encode(&Value::Str(vocab.name(q0).to_owned())),
                    taxo_core::json::encode(&Value::Str(vocab.name(q1).to_owned())),
                );
                let mut seen = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    writer.write_all(frame.as_bytes()).unwrap();
                    let mut parse_one = || -> Option<(u64, Key)> {
                        let mut line = String::new();
                        reader.read_line(&mut line).unwrap();
                        let v = taxo_core::json::parse(line.trim()).unwrap();
                        if v.get("ok") != Some(&Value::Bool(true)) {
                            let code = v.get("error").and_then(Value::as_str).unwrap_or("?");
                            assert_eq!(code, "busy", "unexpected burst error: {line}");
                            return None;
                        }
                        let version = v
                            .get("version")
                            .and_then(Value::as_u64)
                            .expect("score responses carry a version");
                        let key = candidate_key(&v).expect("score responses carry candidates");
                        Some((version, key))
                    };
                    let a = parse_one();
                    let b = parse_one();
                    if let (Some(a), Some(b)) = (a, b) {
                        seen.push((a, b));
                    }
                }
                seen
            }));
        }

        // Trigger the coordinated two-phase swap mid-hammer.
        let mut ingester = Client::connect(addr).unwrap();
        let Reply::Ok(summary) = ingester.ingest(&swap_batch).unwrap() else {
            panic!("routed ingest failed");
        };
        assert_eq!(summary.get("shards").and_then(Value::as_u64), Some(2));
        assert_eq!(summary.get("version").and_then(Value::as_u64), Some(1));
        std::thread::sleep(std::time::Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);
        readers
            .into_iter()
            .flat_map(|r| r.join().expect("reader panicked"))
            .collect()
    });

    let s0_new = h0.store().load();
    let s1_new = h1.store().load();
    assert_eq!((s0_new.version, s1_new.version), (1, 1));
    assert_eq!(*router.vector(), vec![1, 1], "swap published atomically");

    // Two offline baselines per shard — version 0 and version 1 — and
    // the burst discipline: a pair is all-old or all-new, never mixed.
    let baseline0 = |version: u64| -> Key {
        let snap = if version == 0 { &s0_old } else { &s0_new };
        expected_key(&vocab, &snap.score_query(q0, cap, k))
    };
    let baseline1 = |version: u64| -> Key {
        let snap = if version == 0 { &s1_old } else { &s1_new };
        expected_key(&vocab, &snap.score_query(q1, cap, k))
    };
    assert!(!observations.is_empty(), "readers must observe bursts");
    for ((v0, key0), (v1, key1)) in &observations {
        assert_eq!(
            v0, v1,
            "a burst mixed epochs: shard0 answered at {v0}, shard1 at {v1}"
        );
        assert!(*v0 <= 1, "only versions 0 and 1 exist in this run");
        assert_eq!(key0, &baseline0(*v0), "shard0 diverged from baseline");
        assert_eq!(key1, &baseline1(*v1), "shard1 diverged from baseline");
    }

    // Deterministic post-swap check: a fresh burst is (1,1) and matches
    // the new baselines bit-for-bit.
    let mut client = Client::connect(addr).unwrap();
    let Reply::Ok(r0) = client.score(vocab.name(q0), Some(k)).unwrap() else {
        panic!("post-swap score failed");
    };
    let Reply::Ok(r1) = client.score(vocab.name(q1), Some(k)).unwrap() else {
        panic!("post-swap score failed");
    };
    assert_eq!(r0.get("version").and_then(Value::as_u64), Some(1));
    assert_eq!(r1.get("version").and_then(Value::as_u64), Some(1));
    assert_eq!(candidate_key(&r0).as_deref(), Some(baseline0(1).as_slice()));
    assert_eq!(candidate_key(&r1).as_deref(), Some(baseline1(1).as_slice()));

    // Routed health merges both shards and surfaces the vector.
    let Reply::Ok(health) = client.health().unwrap() else {
        panic!("routed health failed");
    };
    assert_eq!(health.get("shards").and_then(Value::as_u64), Some(2));
    assert_eq!(
        health.get("status").and_then(Value::as_str),
        Some("serving")
    );

    // Shutdown through the router drains the shards too.
    client.shutdown().unwrap();
    router.join();
    h0.join();
    h1.join();
}

#[test]
fn overlong_client_frame_gets_one_bad_request_then_eof() {
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
    let half = log.records.len() / 2;
    let exp0 = shard_expander(&world, &log.records[..half]);
    let exp1 = shard_expander(&world, &log.records[..half]);
    let pairs = exp0.candidate_pairs();
    let vocab = Arc::new(world.vocab);
    let serve_cfg = ServeConfig::default();
    let cap = serve_cfg.max_candidates;
    let k = serve_cfg.default_k;
    let h0 = Server::builder(exp0, Arc::clone(&vocab))
        .config(serve_cfg.clone())
        .bind("127.0.0.1:0")
        .unwrap();
    let h1 = Server::builder(exp1, Arc::clone(&vocab))
        .config(serve_cfg)
        .bind("127.0.0.1:0")
        .unwrap();
    let router = Router::builder(vec![h0.addr(), h1.addr()])
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = router.addr();
    // Both shards start from the same state, so either one's snapshot
    // is the reference for every query.
    let snapshot = h0.store().load();
    let mut queries: Vec<ConceptId> = pairs.iter().map(|p| p.query).collect();
    queries.sort_unstable();
    queries.dedup();
    queries.retain(|&q| !snapshot.eligible(q, cap).is_empty());
    assert!(queries.len() >= 8, "need a non-trivial query universe");

    let sent = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sent = &sent;
        let flood = scope.spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(10)))
                .unwrap();
            stream
                .write_all(&vec![b'x'; taxo_serve::MAX_FRAME + 1])
                .unwrap();
            sent.store(true, Ordering::Relaxed);
            let mut reply = Vec::new();
            std::io::Read::read_to_end(&mut stream, &mut reply)
                .expect("the router closes the connection after its reply");
            String::from_utf8(reply).unwrap()
        });

        // Another connection keeps being served, byte for byte.
        let mut client = Client::connect(addr).unwrap();
        let mut served = 0usize;
        while !sent.load(Ordering::Relaxed) || served < queries.len() {
            let q = queries[served % queries.len()];
            let name = vocab.name(q);
            let id = served as u64;
            let line = format!(
                "{{\"kind\":\"score\",\"id\":{id},\"query\":{},\"k\":{k}}}",
                taxo_core::json::encode(&Value::Str(name.to_owned()))
            );
            let expected = taxo_serve::protocol::score_response(
                Some(id),
                name,
                0,
                taxo_serve::Tier::F32,
                &vocab,
                &snapshot.score_query(q, cap, k),
            );
            assert_eq!(client.call_raw(&line).unwrap(), expected, "query {name:?}");
            served += 1;
        }

        let reply = flood.join().expect("flooding client panicked");
        let lines: Vec<&str> = reply.lines().collect();
        assert_eq!(lines.len(), 1, "exactly one reply line, got {reply:?}");
        let v = taxo_core::json::parse(lines[0]).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(v.get("error").and_then(Value::as_str), Some("bad_request"));
    });

    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    router.join();
    h0.join();
    h1.join();
}
