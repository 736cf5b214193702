//! The cross-shard extension of the hot-swap consistency guarantee:
//! a pipelined score burst spanning several shards, racing a
//! router-coordinated two-phase ingest, is always answered entirely
//! from one coherent version vector — the checker holds every response
//! to the model at the version it claims, and every burst to `(0,0)` or
//! `(1,1)`, never mixed.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use taxo_core::json::Value;
use taxo_serve::{Client, Reply, ServeConfig, Tier};
use taxo_sim::{Ack, Fixture, Fleet, Served, Split};

const SEED: u64 = 21;

#[test]
fn cross_shard_bursts_never_mix_epochs() {
    let fixture = Fixture::new(SEED);
    let swap_batch = fixture.batches(1, Split::Contiguous).remove(0);
    let fleet = Fleet::routed(&fixture).start();
    let history = fleet.history();
    let addr = fleet.addr();
    assert_eq!(
        *fleet.router().vector(),
        vec![0, 0],
        "probe seeds the vector"
    );

    // The swap batch must genuinely span both shards, or the ingest
    // would degrade to the single-shard path and prove nothing.
    let model = fleet.model();
    let routed: BTreeSet<usize> = swap_batch.iter().map(|r| model.shard_of(r.query)).collect();
    assert_eq!(routed.len(), 2, "swap batch must span both shards");

    // Readers pipeline a two-shard burst in one frame and read both
    // responses, one burst of the history per frame.
    let (q0, q1) = (fleet.query_on(0), fleet.query_on(1));
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let (stop, history, vocab) = (&stop, &history, &fixture.vocab);
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let frame = format!(
                    "{{\"kind\":\"score\",\"id\":1,\"query\":{}}}\n\
                     {{\"kind\":\"score\",\"id\":2,\"query\":{}}}\n",
                    taxo_core::json::encode(&Value::Str(vocab.name(q0).to_owned())),
                    taxo_core::json::encode(&Value::Str(vocab.name(q1).to_owned())),
                );
                while !stop.load(Ordering::Relaxed) {
                    writer.write_all(frame.as_bytes()).unwrap();
                    let burst = history.new_burst();
                    for q in [q0, q1] {
                        let mut line = String::new();
                        reader.read_line(&mut line).unwrap();
                        let served = history.line(q, Some(burst), &line);
                        assert!(
                            matches!(served, Served::Ok { .. } | Served::Busy),
                            "unexpected burst error: {line}"
                        );
                    }
                }
            });
        }

        // Trigger the coordinated two-phase swap mid-hammer.
        let mut ingester = Client::connect(addr).unwrap();
        assert_eq!(
            history.ingest(&mut ingester, &swap_batch),
            Ack::Ok(vec![1, 1])
        );
        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);
    });
    let versions = (0..2).map(|s| fleet.shard(s).store().load().version);
    assert_eq!(versions.collect::<Vec<_>>(), [1, 1]);
    assert_eq!(
        *fleet.router().vector(),
        vec![1, 1],
        "swap published atomically"
    );

    // Deterministic post-swap check: fresh scores are at version 1 (and
    // bit-identical to the model).
    let mut client = Client::connect(addr).unwrap();
    for q in [q0, q1] {
        let served = history.score(&mut client, q, None);
        assert_eq!(served.ok().map(|(v, _)| v), Some(1), "{served:?}");
    }

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
    assert!(fleet.check().ok > 2, "readers must observe bursts");
}

#[test]
fn overlong_client_frame_gets_one_bad_request_then_eof() {
    let fixture = Fixture::new(SEED);
    assert!(
        fixture.queries.len() >= 8,
        "need a non-trivial query universe"
    );
    let fleet = Fleet::routed(&fixture).start();
    let addr = fleet.addr();
    // Both shards start from the same state, so either one's snapshot
    // is the reference for every query.
    let snapshot = fleet.shard(0).store().load();
    let cfg = ServeConfig::default();
    let queries = &fixture.queries;

    let sent = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sent = &sent;
        let flood = scope.spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
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
            let name = fixture.vocab.name(q);
            let id = Some(served as u64);
            let mut line = String::new();
            taxo_serve::protocol::push_score_request(
                &mut line,
                id,
                name,
                Some(cfg.default_k),
                None,
                None,
            );
            let expected = taxo_serve::protocol::score_response(
                id,
                name,
                0,
                Tier::F32,
                &fixture.vocab,
                &snapshot.score_query(q, cfg.max_candidates, cfg.default_k),
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
    Client::connect(addr).unwrap().shutdown().unwrap();
}
