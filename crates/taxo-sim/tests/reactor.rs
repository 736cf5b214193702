//! End-to-end coverage of the epoll reactor data plane: bit-identity vs.
//! the model, pipelined response ordering, a pipelined burst followed by
//! a half-close, write-interest (EPOLLOUT) discipline under a
//! non-reading client, idle-connection reaping, shutdown drain, a
//! graceful stop that does not linger on a quiet client, and the
//! exactly-once score ledger under connection chaos.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use taxo_fault::{FaultAction, FaultPlan, Trigger};
use taxo_serve::json::Value;
use taxo_serve::{Client, Reply, ServeConfig, Tier};
use taxo_sim::{Fixture, Fleet, Served};

/// The seeded fixture, with a non-trivial query universe.
fn scorable(seed: u64) -> Fixture {
    let fixture = Fixture::new(seed);
    assert!(
        fixture.queries.len() >= 10,
        "fixture must produce a non-trivial query universe, got {}",
        fixture.queries.len()
    );
    fixture
}

/// A pipelined burst of `n` requests for `fixture`'s queries; with
/// `health_every`, every such request is a `health` probe instead.
fn burst(fixture: &Fixture, n: usize, health_every: Option<usize>) -> String {
    let k = ServeConfig::default().default_k;
    let mut burst = String::new();
    for id in 0..n {
        if health_every.is_some_and(|h| id % h == h - 1) {
            burst.push_str(&format!("{{\"kind\":\"health\",\"id\":{id}}}\n"));
        } else {
            let name = fixture
                .vocab
                .name(fixture.queries[id % fixture.queries.len()]);
            let mut query = String::new();
            taxo_serve::json::encode_str(name, &mut query);
            burst.push_str(&format!(
                "{{\"kind\":\"score\",\"id\":{id},\"query\":{query},\"k\":{k}}}\n"
            ));
        }
    }
    burst
}

/// The request id a response line echoes, asserting it succeeded.
fn ok_id(line: &str) -> u64 {
    let v = taxo_serve::json::parse(line).unwrap();
    assert!(
        matches!(v.get("ok"), Some(Value::Bool(true))),
        "every pipelined request must succeed, got {line}"
    );
    v.get("id").and_then(Value::as_u64).unwrap()
}

#[test]
fn reactor_scores_bit_identical_to_offline_baseline() {
    let fixture = scorable(11);
    let fleet = Fleet::standalone(&fixture).start();
    let history = fleet.history();
    let counters = [
        "serve.score.accepted",
        "serve.score.table_misses",
        "serve.resp_cache.hits",
        "serve.resp_cache.misses",
    ];
    let before = counters.map(taxo_sim::counter);

    let mut client = Client::connect(fleet.addr()).unwrap();
    for &q in fixture.queries.iter().take(40) {
        let served = history.score(&mut client, q, None);
        assert!(served.ok().is_some(), "score failed: {served:?}");
    }
    // f32 requests are spliced from the snapshot's response index on
    // the reactor thread: no score job is ever queued, no pair is
    // missing from the table, and the response cache is never probed.
    assert_eq!(
        counters.map(taxo_sim::counter),
        before,
        "f32 traffic must never reach the scorer queue, miss the table, or probe the \
         response cache ({counters:?})"
    );
    fleet.check();
}

#[test]
fn reactor_preserves_pipelined_response_order() {
    let fixture = scorable(12);
    let fleet = Fleet::standalone(&fixture).start();

    // One burst of pipelined requests — a mix of queue-bound scores
    // (whose completions arrive whenever the scorer gets to them) and
    // inline-answered health probes — written in a single syscall. The
    // response slots must come back in exactly request order.
    let n = 200usize;
    let mut stream = TcpStream::connect(fleet.addr()).unwrap();
    stream
        .write_all(burst(&fixture, n, Some(3)).as_bytes())
        .unwrap();
    let mut lines = BufReader::new(stream.try_clone().unwrap()).lines();
    for want in 0..n as u64 {
        let line = lines.next().expect("response stream ended early").unwrap();
        assert_eq!(
            ok_id(&line),
            want,
            "pipelined responses must arrive in request order, got {line}"
        );
    }
}

#[test]
fn reactor_answers_a_pipelined_burst_then_half_close() {
    let fixture = scorable(12);
    let fleet = Fleet::standalone(&fixture).start();
    let history = fleet.history();

    // Several pipelined requests and the end of the write half in one
    // burst: the first read takes every request short of the read
    // buffer and ends the read burst there, so the EOF must still be
    // seen on a later readiness event — after every response is out.
    let n = 24;
    let mut stream = TcpStream::connect(fleet.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(burst(&fixture, n, None).as_bytes())
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    let mut reply = String::new();
    stream
        .read_to_string(&mut reply)
        .expect("the server must answer, then close");
    let ids: Vec<u64> = reply.lines().map(ok_id).collect();
    assert_eq!(
        ids,
        (0..n as u64).collect::<Vec<_>>(),
        "every response, in order"
    );
    for (i, line) in reply.lines().enumerate() {
        history.line(fixture.queries[i % fixture.queries.len()], None, line);
    }
    fleet.check();
}

#[test]
fn reactor_respects_write_interest_discipline() {
    let fixture = scorable(11);
    let fleet = Fleet::standalone(&fixture).start();

    // A client that writes a large pipelined burst but refuses to read
    // until the end: the peer's receive window fills, the reactor's
    // writes stall, and EPOLLOUT must be armed (counted once per stall)
    // and later disarmed — every response still arriving, in order.
    let stalled_before = taxo_sim::counter("serve.reactor.stalled_writes");
    // Must comfortably exceed what the kernel can absorb unread: the
    // send buffer autotunes up to tcp_wmem[2] (4MB on a stock kernel) on
    // top of the peer's receive window, and with responses written while
    // the requests still stream in, a loopback peer was seen holding
    // 6MB (60k responses) unread. 200k responses are about 21MB.
    let n = 200_000usize;
    let mut stream = TcpStream::connect(fleet.addr()).unwrap();
    let mut burst = String::new();
    for id in 0..n {
        burst.push_str(&format!("{{\"kind\":\"health\",\"id\":{id}}}\n"));
    }
    stream.write_all(burst.as_bytes()).unwrap();

    let mut lines = BufReader::new(stream.try_clone().unwrap()).lines();
    for want in 0..n as u64 {
        let line = lines.next().expect("response stream ended early").unwrap();
        assert_eq!(ok_id(&line), want);
    }
    assert!(
        taxo_sim::counter("serve.reactor.stalled_writes") > stalled_before,
        "an unread multi-megabyte burst must stall the writer at least once \
         (EPOLLOUT was never armed?)"
    );
}

#[test]
fn reactor_idle_closes_silent_connections() {
    let fixture = scorable(14);
    let fleet = Fleet::standalone(&fixture)
        .config(ServeConfig {
            idle_timeout: Duration::from_millis(200),
            ..ServeConfig::default()
        })
        .start();

    let closed_before = taxo_sim::counter("serve.conn.idle_closed");
    let mut stream = TcpStream::connect(fleet.addr()).unwrap();
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
        taxo_sim::counter("serve.conn.idle_closed") > closed_before,
        "idle close must be counted"
    );
}

#[test]
fn reactor_serves_hundreds_of_concurrent_connections() {
    let fixture = scorable(11);
    let fleet = Fleet::standalone(&fixture).start();
    let history = fleet.history();

    // Far more live connections than reactor threads; every one stays
    // up across three rounds and every response is checked
    // bit-identical.
    let conns = 300usize;
    let mut clients: Vec<Client> = (0..conns)
        .map(|_| Client::connect(fleet.addr()).unwrap())
        .collect();
    for round in 0..3 {
        for (i, client) in clients.iter_mut().enumerate() {
            let q = fixture.queries[(i + round) % fixture.queries.len()];
            let served = history.score(client, q, None);
            assert!(
                served.ok().is_some(),
                "conn {i} round {round}: score failed: {served:?}"
            );
        }
    }
    drop(clients);
    fleet.check();
}

#[test]
fn reactor_shutdown_drains_accepted_work_and_joins() {
    let fixture = scorable(17);
    let mut fleet = Fleet::standalone(&fixture).start();

    // A burst of scores in flight on one connection while another
    // connection requests shutdown. Every line the server accepted gets
    // a response (ok or shutting_down — never silence), then EOF, and
    // the fleet's join must return (the reactor threads exit).
    let mut busy = TcpStream::connect(fleet.addr()).unwrap();
    busy.write_all(burst(&fixture, 100, None).as_bytes())
        .unwrap();

    let mut control = Client::connect(fleet.addr()).unwrap();
    let reply = control.shutdown().unwrap();
    assert!(
        matches!(reply, Reply::Ok(_)),
        "shutdown must ack: {reply:?}"
    );

    busy.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for line in BufReader::new(busy).lines() {
        let line = line.unwrap();
        let v = taxo_serve::json::parse(&line).unwrap();
        assert!(
            v.get("id").and_then(Value::as_u64).is_some(),
            "every response carries its request id: {line}"
        );
    }
    // Reaching EOF above proves the server closed the connection; join
    // must not hang.
    fleet.stop();
}

#[test]
fn graceful_stop_closes_a_quiet_client_without_lingering() {
    let fixture = Fixture::new(19);
    let mut fleet = Fleet::standalone(&fixture).start();

    // A client that was answered and then stayed quiet for longer than
    // the reactor's 250-ms linger: it has had that long to read, so a
    // graceful stop closes its connection at once instead of waiting out
    // another linger.
    let idle = TcpStream::connect(fleet.addr()).unwrap();
    (&idle)
        .write_all(b"{\"kind\":\"health\",\"id\":1}\n")
        .unwrap();
    let mut reader = BufReader::new(&idle);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(ok_id(&line), 1);
    std::thread::sleep(Duration::from_millis(300));

    let start = Instant::now();
    fleet.stop();
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(100),
        "a graceful stop with one quiet client took {took:?}"
    );
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(
        reader.read_line(&mut line).unwrap(),
        0,
        "the server closed the quiet connection"
    );
}

#[test]
fn reactor_chaos_keeps_exactly_once_score_ledger() {
    let fixture = scorable(18);
    let mut fleet = Fleet::standalone(&fixture).start();
    let history = fleet.history();

    // Seeded chaos on every connection point: dropped reads, torn
    // response frames, and swallowed wakeups. Connections die mid-request;
    // the client reconnects and retries. Served responses must stay
    // bit-identical, and the accepted/completed score ledger must
    // balance once the server drains (the checker) — a job whose
    // connection died is still completed by the scorer, its completion
    // dropped as stale. Every other query asks for the int8 tier, the
    // only one that still goes through the scorer queue and the
    // reactor's completion inbox (f32 is answered inline from the score
    // table).
    taxo_fault::arm(
        FaultPlan::new(18)
            .with("serve.conn.read", Trigger::Nth(13), FaultAction::Fail)
            .with("serve.conn.write", Trigger::Nth(17), FaultAction::Short(3))
            .with("reactor.wakeup", Trigger::Nth(5), FaultAction::Fail),
    );

    let mut client = Client::connect(fleet.addr()).unwrap();
    for round in 0..6 {
        for (i, &q) in fixture.queries.iter().take(30).enumerate() {
            let tier = if i % 2 == 0 { Tier::F32 } else { Tier::Int8 };
            match history.score(&mut client, q, Some(tier)) {
                Served::Ok { .. } => {}
                // Injected connection death: reconnect and move on.
                Served::Failed(_) => client = Client::connect(fleet.addr()).unwrap(),
                other => panic!("round {round} query {i}: unexpected reply {other:?}"),
            }
        }
    }
    taxo_fault::disarm();
    fleet.stop();
    assert!(
        taxo_sim::counter("serve.score.accepted") > 0,
        "the int8 requests must reach the scorer queue"
    );
    assert!(
        taxo_sim::counter("fault.injected.reactor.wakeup") > 0,
        "completions must ring the reactor's wakeup fd, so the lost-wakeup fault must fire"
    );
    let served = fleet.check().ok;
    assert!(
        served >= 40,
        "chaos must not starve the serve path entirely (served {served})"
    );
}
