//! End-to-end coverage of the epoll reactor data plane: bit-identity vs.
//! the offline baseline, pipelined response ordering, a pipelined burst
//! followed by a half-close, write-interest (EPOLLOUT) discipline under
//! a non-reading client, idle-connection reaping, shutdown drain, and
//! the exactly-once score ledger under connection chaos.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};
use taxo_core::{ConceptId, Vocabulary};
use taxo_expand::{
    DetectorConfig, ExpansionConfig, HypoDetector, IncrementalExpander, RelationalConfig,
    RelationalModel,
};
use taxo_fault::{FaultAction, FaultPlan, Trigger};
use taxo_serve::{
    candidate_key, expected_key, Client, Reply, ServeConfig, Server, ServerHandle, Tier,
};
use taxo_synth::{ClickConfig, ClickLog, World, WorldConfig};

/// The metrics registry and fault plans are process-global; tests that
/// read counter deltas or arm faults serialize on this.
fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

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

/// Renders a JSON string literal (quotes and escapes included).
fn json_str(s: &str) -> String {
    let mut out = String::new();
    taxo_serve::json::encode_str(s, &mut out);
    out
}

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

fn reactor_server(seed: u64, cfg: ServeConfig) -> (Arc<Vocabulary>, Vec<ConceptId>, ServerHandle) {
    let (vocab, expander, _) = fixture(seed);
    let pairs = expander.candidate_pairs();
    let cap = cfg.max_candidates;
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
    (vocab, queries, handle)
}

#[test]
fn reactor_scores_bit_identical_to_offline_baseline() {
    let _guard = test_lock();
    let cfg = ServeConfig::default();
    let cap = cfg.max_candidates;
    let k = cfg.default_k;
    let (vocab, queries, handle) = reactor_server(11, cfg);
    let snapshot = handle.store().load();
    let accepted_before = taxo_obs::counter!("serve.score.accepted").get();
    let misses_before = taxo_obs::counter!("serve.score.table_misses").get();
    let resp_hits_before = taxo_obs::counter!("serve.resp_cache.hits").get();
    let resp_misses_before = taxo_obs::counter!("serve.resp_cache.misses").get();

    let mut client = Client::connect(handle.addr()).unwrap();
    for &q in queries.iter().take(40) {
        let name = vocab.name(q);
        let reply = client.score(name, Some(k)).unwrap();
        let Reply::Ok(v) = reply else {
            panic!("score {name:?} failed: {reply:?}");
        };
        let offline = expected_key(&vocab, &snapshot.score_query(q, cap, k));
        assert_eq!(
            candidate_key(&v).as_deref(),
            Some(offline.as_slice()),
            "reactor-served candidates for {name:?} must be bit-identical to offline scoring"
        );
    }
    // f32 requests are spliced from the snapshot's response index on
    // the reactor thread: no score job is ever queued, no pair is
    // missing from the table, and the response cache is never probed.
    assert_eq!(
        taxo_obs::counter!("serve.score.accepted").get(),
        accepted_before,
        "f32 traffic must never reach the scorer queue"
    );
    assert_eq!(
        taxo_obs::counter!("serve.score.table_misses").get(),
        misses_before
    );
    assert_eq!(
        taxo_obs::counter!("serve.resp_cache.hits").get(),
        resp_hits_before,
        "f32 traffic must never hit the response cache"
    );
    assert_eq!(
        taxo_obs::counter!("serve.resp_cache.misses").get(),
        resp_misses_before,
        "f32 traffic must never probe the response cache"
    );
    handle.shutdown_and_join();
}

#[test]
fn reactor_preserves_pipelined_response_order() {
    let _guard = test_lock();
    let cfg = ServeConfig::default();
    let k = cfg.default_k;
    let (vocab, queries, handle) = reactor_server(12, cfg);

    // One burst of pipelined requests — a mix of queue-bound scores
    // (whose completions arrive whenever the scorer gets to them) and
    // inline-answered health probes — written in a single syscall. The
    // response slots must come back in exactly request order.
    let n = 200usize;
    let mut burst = String::new();
    for id in 0..n {
        if id % 3 == 2 {
            burst.push_str(&format!("{{\"kind\":\"health\",\"id\":{id}}}\n"));
        } else {
            let name = vocab.name(queries[id % queries.len()]);
            burst.push_str(&format!(
                "{{\"kind\":\"score\",\"id\":{id},\"query\":{},\"k\":{k}}}\n",
                json_str(name)
            ));
        }
    }
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(burst.as_bytes()).unwrap();
    let mut lines = BufReader::new(stream.try_clone().unwrap()).lines();
    for want in 0..n as u64 {
        let line = lines.next().expect("response stream ended early").unwrap();
        let v = taxo_serve::json::parse(&line).unwrap();
        assert_eq!(
            v.get("id").and_then(taxo_serve::json::Value::as_u64),
            Some(want),
            "pipelined responses must arrive in request order, got {line}"
        );
        assert!(
            matches!(v.get("ok"), Some(taxo_serve::json::Value::Bool(true))),
            "all pipelined requests must succeed, got {line}"
        );
    }
    drop(lines);
    handle.shutdown_and_join();
}

#[test]
fn reactor_answers_a_pipelined_burst_then_half_close() {
    let _guard = test_lock();
    let cfg = ServeConfig::default();
    let k = cfg.default_k;
    let (vocab, queries, handle) = reactor_server(12, cfg);

    // Several pipelined requests and the end of the write half in one
    // burst: the first read takes every request short of the read
    // buffer and ends the read burst there, so the EOF must still be
    // seen on a later readiness event — after every response is out.
    let n = 24u64;
    let mut burst = String::new();
    for id in 0..n {
        let name = vocab.name(queries[id as usize % queries.len()]);
        burst.push_str(&format!(
            "{{\"kind\":\"score\",\"id\":{id},\"query\":{},\"k\":{k}}}\n",
            json_str(name)
        ));
    }
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(burst.as_bytes()).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    let mut reply = String::new();
    stream
        .read_to_string(&mut reply)
        .expect("the server must answer, then close");
    let ids: Vec<u64> = reply
        .lines()
        .map(|line| {
            let v = taxo_serve::json::parse(line).unwrap();
            assert!(
                matches!(v.get("ok"), Some(taxo_serve::json::Value::Bool(true))),
                "every pipelined request must succeed, got {line}"
            );
            v.get("id")
                .and_then(taxo_serve::json::Value::as_u64)
                .unwrap()
        })
        .collect();
    assert_eq!(ids, (0..n).collect::<Vec<_>>(), "every response, in order");
    handle.shutdown_and_join();
}

#[test]
fn reactor_respects_write_interest_discipline() {
    let _guard = test_lock();
    let (_vocab, _queries, handle) = reactor_server(11, ServeConfig::default());

    // A client that writes a large pipelined burst but refuses to read
    // until the end: the peer's receive window fills, the reactor's
    // writes stall, and EPOLLOUT must be armed (counted once per stall)
    // and later disarmed — every response still arriving, in order.
    let stalled_before = taxo_obs::counter!("serve.reactor.stalled_writes").get();
    // Must comfortably exceed what the kernel can absorb unread: the
    // send buffer autotunes up to tcp_wmem[2] (4MB on a stock kernel) on
    // top of the peer's receive window, and with responses written while
    // the requests still stream in, a loopback peer was seen holding
    // 6MB (60k responses) unread. 200k responses are about 21MB.
    let n = 200_000usize;
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut burst = String::new();
    for id in 0..n {
        burst.push_str(&format!("{{\"kind\":\"health\",\"id\":{id}}}\n"));
    }
    stream.write_all(burst.as_bytes()).unwrap();

    let mut lines = BufReader::new(stream.try_clone().unwrap()).lines();
    for want in 0..n as u64 {
        let line = lines.next().expect("response stream ended early").unwrap();
        let v = taxo_serve::json::parse(&line).unwrap();
        assert_eq!(
            v.get("id").and_then(taxo_serve::json::Value::as_u64),
            Some(want)
        );
    }
    assert!(
        taxo_obs::counter!("serve.reactor.stalled_writes").get() > stalled_before,
        "an unread multi-megabyte burst must stall the writer at least once \
         (EPOLLOUT was never armed?)"
    );
    drop(lines);
    handle.shutdown_and_join();
}

#[test]
fn reactor_idle_closes_silent_connections() {
    let _guard = test_lock();
    let cfg = ServeConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let (_vocab, _queries, handle) = reactor_server(14, cfg);

    let closed_before = taxo_obs::counter!("serve.conn.idle_closed").get();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let start = Instant::now();
    let mut buf = [0u8; 64];
    // A silent connection must be reaped by the server: the next read
    // observes EOF, without the client sending a byte.
    let n = stream.read(&mut buf).unwrap();
    assert_eq!(n, 0, "server must close the idle connection");
    assert!(
        start.elapsed() >= Duration::from_millis(150),
        "idle close must not fire before the configured timeout"
    );
    assert!(
        taxo_obs::counter!("serve.conn.idle_closed").get() > closed_before,
        "idle close must be counted"
    );
    handle.shutdown_and_join();
}

#[test]
fn reactor_serves_hundreds_of_concurrent_connections() {
    let _guard = test_lock();
    let cfg = ServeConfig::default();
    let cap = cfg.max_candidates;
    let k = cfg.default_k;
    let (vocab, queries, handle) = reactor_server(11, cfg);
    let snapshot = handle.store().load();
    let addr = handle.addr();

    // Far more live connections than reactor threads; every one stays
    // up across three rounds and every response is verified
    // bit-identical.
    let conns = 300usize;
    let mut clients: Vec<Client> = (0..conns).map(|_| Client::connect(addr).unwrap()).collect();
    for round in 0..3 {
        for (i, client) in clients.iter_mut().enumerate() {
            let q = queries[(i + round) % queries.len()];
            let name = vocab.name(q);
            let reply = client.score(name, Some(k)).unwrap();
            let Reply::Ok(v) = reply else {
                panic!("conn {i} round {round}: score {name:?} failed: {reply:?}");
            };
            let offline = expected_key(&vocab, &snapshot.score_query(q, cap, k));
            assert_eq!(
                candidate_key(&v).as_deref(),
                Some(offline.as_slice()),
                "conn {i} round {round}: response must be bit-identical"
            );
        }
    }
    drop(clients);
    handle.shutdown_and_join();
}

#[test]
fn reactor_shutdown_drains_accepted_work_and_joins() {
    let _guard = test_lock();
    let cfg = ServeConfig::default();
    let k = cfg.default_k;
    let (vocab, queries, handle) = reactor_server(17, cfg);
    let addr = handle.addr();

    // A burst of scores in flight on one connection while another
    // connection requests shutdown. Every line the server accepted gets
    // a response (ok or shutting_down — never silence), then EOF, and
    // join() must return (the reactor threads exit).
    let mut busy = TcpStream::connect(addr).unwrap();
    let mut burst = String::new();
    for id in 0..100u64 {
        let name = vocab.name(queries[id as usize % queries.len()]);
        burst.push_str(&format!(
            "{{\"kind\":\"score\",\"id\":{id},\"query\":{},\"k\":{k}}}\n",
            json_str(name)
        ));
    }
    busy.write_all(burst.as_bytes()).unwrap();

    let mut control = Client::connect(addr).unwrap();
    let reply = control.shutdown().unwrap();
    assert!(
        matches!(reply, Reply::Ok(_)),
        "shutdown must ack: {reply:?}"
    );

    busy.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reader = BufReader::new(busy);
    for line in reader.lines() {
        let line = line.unwrap();
        let v = taxo_serve::json::parse(&line).unwrap();
        assert!(
            v.get("id")
                .and_then(taxo_serve::json::Value::as_u64)
                .is_some(),
            "every response carries its request id: {line}"
        );
    }
    // Reaching EOF above proves the server closed the connection; join
    // must not hang.
    handle.shutdown_and_join();
}

#[test]
fn reactor_chaos_keeps_exactly_once_score_ledger() {
    let _guard = test_lock();
    let cfg = ServeConfig::default();
    let cap = cfg.max_candidates;
    let k = cfg.default_k;
    let (vocab, queries, handle) = reactor_server(18, cfg);
    let snapshot = handle.store().load();
    let addr = handle.addr();

    let accepted_before = taxo_obs::counter!("serve.score.accepted").get();
    let completed_before = taxo_obs::counter!("serve.score.completed").get();
    let wakeups_before = taxo_obs::counter!("fault.injected.reactor.wakeup").get();

    // Seeded chaos on every connection point: dropped reads, torn
    // response frames, and swallowed wakeups. Connections die mid-request; the
    // client reconnects and retries. Served responses must stay
    // bit-identical, and the accepted/completed score ledger must
    // balance once the server drains — a job whose connection died is
    // still completed by the scorer, its completion dropped as stale.
    // Every other query asks for the int8 tier, the only one that still
    // goes through the scorer queue and the reactor's completion inbox
    // (f32 is answered inline from the score table).
    taxo_fault::arm(
        FaultPlan::new(18)
            .with("serve.conn.read", Trigger::Nth(13), FaultAction::Fail)
            .with("serve.conn.write", Trigger::Nth(17), FaultAction::Short(3))
            .with("reactor.wakeup", Trigger::Nth(5), FaultAction::Fail),
    );

    let mut client = Client::connect(addr).unwrap();
    let mut served = 0usize;
    for round in 0..6 {
        for (i, &q) in queries.iter().take(30).enumerate() {
            let name = vocab.name(q);
            let tier = if i % 2 == 0 { Tier::F32 } else { Tier::Int8 };
            match client.score_tier(name, Some(k), Some(tier)) {
                Ok(Reply::Ok(v)) => {
                    let offline = expected_key(&vocab, &snapshot.score_query_tier(q, cap, k, tier));
                    assert_eq!(
                        candidate_key(&v).as_deref(),
                        Some(offline.as_slice()),
                        "round {round} query {i}: chaos must never corrupt a served response"
                    );
                    served += 1;
                }
                Ok(other) => panic!("round {round} query {i}: unexpected reply {other:?}"),
                // Injected connection death: reconnect and move on.
                Err(_) => client = Client::connect(addr).unwrap(),
            }
        }
    }
    taxo_fault::disarm();
    assert!(
        served >= 40,
        "chaos must not starve the serve path entirely (served {served})"
    );

    handle.shutdown_and_join();
    let accepted = taxo_obs::counter!("serve.score.accepted").get() - accepted_before;
    let completed = taxo_obs::counter!("serve.score.completed").get() - completed_before;
    assert!(
        accepted > 0,
        "the int8 requests must reach the scorer queue"
    );
    assert_eq!(
        accepted, completed,
        "every accepted score job must complete exactly once under reactor chaos"
    );
    assert!(
        taxo_obs::counter!("fault.injected.reactor.wakeup").get() > wakeups_before,
        "completions must ring the reactor's wakeup fd, so the lost-wakeup fault must fire"
    );
}
