//! End-to-end round trips against a live server on a loopback port:
//! bit-identical scoring vs. the model, error codes, health and stats
//! introspection, backpressure shedding, graceful shutdown.

use taxo_serve::json::Value;
use taxo_serve::{Client, Reply, ServeConfig, Tier};
use taxo_sim::{Fixture, Fleet, Served};

#[test]
fn scores_are_bit_identical_to_offline_baseline() {
    let fixture = Fixture::new(11);
    assert!(
        fixture.queries.len() >= 10,
        "fixture must produce a non-trivial query universe, got {}",
        fixture.queries.len()
    );
    let fleet = Fleet::standalone(&fixture).start();
    let history = fleet.history();
    let mut client = Client::connect(fleet.addr()).unwrap();
    for &q in fixture.queries.iter().take(40) {
        let served = history.score(&mut client, q, None);
        assert_eq!(served.ok().map(|(v, _)| v), Some(0), "{served:?}");
    }
    fleet.check();
}

#[test]
fn repeated_queries_hit_the_cache_and_stay_bit_identical() {
    let fixture = Fixture::new(16);
    let fleet = Fleet::standalone(&fixture).start();
    let history = fleet.history();
    let q = fixture.queries[0];

    // Only int8 requests probe the response cache (f32 ones are spliced
    // from the snapshot's response index), and the fleet's lock keeps
    // every other test's traffic out: the counts are exact.
    let hits = || taxo_sim::counter("serve.resp_cache.hits");
    let misses = || taxo_sim::counter("serve.resp_cache.misses");
    let (hits_before, misses_before) = (hits(), misses());
    let mut client = Client::connect(fleet.addr()).unwrap();
    for round in 0..3 {
        let served = history.score(&mut client, q, Some(Tier::Int8));
        assert!(served.ok().is_some(), "round {round}: {served:?}");
    }
    // Round 1 misses and fills the rendered-response cache; rounds 2 and
    // 3 are answered by splicing the cached tail — bit-identical either
    // way (the checker).
    assert_eq!(hits() - hits_before, 2, "rendered-response hits");
    assert_eq!(misses() - misses_before, 1, "rendered-response misses");
    fleet.check();
}

#[test]
fn int8_tier_is_bit_identical_to_offline_quant_replay() {
    let fixture = Fixture::new(17);
    assert!(fixture.queries.len() >= 5, "fixture too small");
    let fleet = Fleet::standalone(&fixture).start();
    let history = fleet.history();
    let snapshot = fleet.shard(0).store().load();
    let (cap, k) = (
        ServeConfig::default().max_candidates,
        ServeConfig::default().default_k,
    );

    let mut client = Client::connect(fleet.addr()).unwrap();
    let mut diverged = 0usize;
    for (id, &q) in fixture.queries.iter().take(20).enumerate() {
        let name = fixture.vocab.name(q);
        let mut line = String::new();
        taxo_serve::protocol::push_score_request(
            &mut line,
            Some(id as u64),
            name,
            None,
            Some(Tier::Int8),
            None,
        );
        let raw = client.call_raw(&line).unwrap();
        let v = taxo_serve::json::parse(&raw).unwrap();
        assert_eq!(
            v.get("tier").and_then(Value::as_str),
            Some("int8"),
            "response echoes the tier"
        );
        // The quant tier has its own offline reference, bit-identical the
        // same way the f32 tier is (the checker scores the echoed tier).
        assert!(history.line(q, None, &raw).ok().is_some(), "{raw}");
        // And it really is a different tier, not f32 relabelled.
        if snapshot.score_query_tier(q, cap, k, Tier::Int8) != snapshot.score_query(q, cap, k) {
            diverged += 1;
        }
    }
    assert!(
        diverged > 0,
        "int8 scores never diverged from f32 — quantization is a no-op?"
    );
    fleet.check();
}

#[test]
fn unknown_terms_and_garbage_lines_error_cleanly() {
    let fixture = Fixture::new(12);
    let fleet = Fleet::standalone(&fixture).start();
    let mut client = Client::connect(fleet.addr()).unwrap();

    let reply = client.score("definitely-not-a-term", None).unwrap();
    assert_eq!(reply.error_code(), Some("unknown_term"));

    let raw = client.call_raw("this is not json").unwrap();
    let v = taxo_serve::json::parse(&raw).unwrap();
    assert_eq!(v.get("error").and_then(Value::as_str), Some("bad_request"));

    // The connection survives both errors.
    let reply = client.health().unwrap();
    assert!(matches!(reply, Reply::Ok(_)));
}

#[test]
fn health_and_stats_report_server_state() {
    let fixture = Fixture::new(13);
    let expander = fixture.expander();
    let (nodes, edges) = (
        expander.taxonomy().node_count(),
        expander.taxonomy().edge_count(),
    );
    let fleet = Fleet::standalone(&fixture).start();
    let mut client = Client::connect(fleet.addr()).unwrap();

    let Reply::Ok(h) = client.health().unwrap() else {
        panic!("health failed");
    };
    let get_u64 = |v: &Value, key: &str| v.get(key).and_then(Value::as_u64);
    assert_eq!(h.get("status").and_then(Value::as_str), Some("serving"));
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
    let health_count = s
        .get("counters")
        .and_then(|c| c.get("serve.requests.health"))
        .and_then(Value::as_u64)
        .expect("health counter present");
    assert!(health_count >= 1);
}

#[test]
fn overload_sheds_with_busy_and_never_corrupts_responses() {
    let fixture = Fixture::new(14);
    let fleet = Fleet::standalone(&fixture)
        .config(ServeConfig {
            batch_max: 2,
            score_queue_cap: 2,
            ..ServeConfig::default()
        })
        .start();
    let history = fleet.history();
    let addr = fleet.addr();

    // Hammer from several connections: every reply must be either a
    // bit-identical score (the checker) or an explicit busy shed —
    // nothing else. Half the connections ask for int8, the tier that
    // goes through the bounded scorer queue (f32 is answered from the
    // score table). Shedding is load-dependent; zero sheds is fine,
    // corruption is not.
    std::thread::scope(|scope| {
        for conn in 0..4usize {
            let (history, queries) = (&history, &fixture.queries);
            let tier = if conn % 2 == 0 { Tier::F32 } else { Tier::Int8 };
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..50usize {
                    let q = queries[(conn * 31 + i * 7) % queries.len()];
                    let served = history.score(&mut client, q, Some(tier));
                    assert!(
                        matches!(served, Served::Ok { .. } | Served::Busy),
                        "unexpected reply under load: {served:?}"
                    );
                }
            });
        }
    });
    fleet.check();
}

#[test]
fn graceful_shutdown_acknowledges_then_stops_accepting() {
    let fixture = Fixture::new(15);
    let mut fleet = Fleet::standalone(&fixture).start();
    let addr = fleet.addr();
    let mut client = Client::connect(addr).unwrap();
    let reply = client.shutdown().unwrap();
    assert!(
        matches!(reply, Reply::Ok(_)),
        "shutdown must be acknowledged"
    );
    fleet.stop();

    // The listener is gone: a fresh connection either refuses outright or
    // closes without serving.
    if let Ok(mut c) = Client::connect(addr) {
        assert!(
            c.health().is_err(),
            "post-shutdown connection must not serve"
        );
    }
}
