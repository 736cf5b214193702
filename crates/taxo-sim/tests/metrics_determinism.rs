//! The router's `serve.router.*` counters are deterministic under a
//! fixed seed and a fixed traffic trace: replaying the identical
//! single-threaded trace against a fresh two-shard deployment produces
//! the identical counter deltas. This is what makes the counters
//! usable as regression oracles in the router-smoke CI job.
//!
//! The metrics registry is process-global; each fleet holds the lock
//! that keeps every other deployment's traffic out of the deltas.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use taxo_core::ConceptId;
use taxo_serve::{Client, Reply};
use taxo_sim::{Ack, Fixture, Fleet, Split};

const ROUTER_COUNTERS: [&str; 6] = [
    "serve.router.routed",
    "serve.router.fanout",
    "serve.router.merged",
    "serve.router.stale_epoch",
    "serve.router.shard_retries",
    "serve.router.upstream_reconnects",
];

/// Runs the fixed trace against a fresh deployment and returns the
/// `serve.router.*` counter deltas it produced.
fn run_trace(fixture: &Fixture) -> BTreeMap<&'static str, u64> {
    let swap_batch = fixture.batches(1, Split::Contiguous).remove(0);
    let mut fleet = Fleet::routed(fixture).start();
    let history = fleet.history();
    let (q0, q1) = (fleet.query_on(0), fleet.query_on(1));
    let before = ROUTER_COUNTERS.map(taxo_sim::counter);

    // The trace, single-threaded so arrival order is fixed:
    // 10 two-shard pipelined bursts, 10 single-shard scores per shard,
    // one multi-shard ingest, one health, one stats, one shutdown.
    let stream = TcpStream::connect(fleet.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut expect_ok = |queries: &[ConceptId], burst: Option<u64>| {
        let mut frame = String::new();
        for (id, &q) in queries.iter().enumerate() {
            let name = fixture.vocab.name(q);
            let id = Some(id as u64);
            taxo_serve::protocol::push_score_request(&mut frame, id, name, None, None, None);
            frame.push('\n');
        }
        writer.write_all(frame.as_bytes()).unwrap();
        for &q in queries {
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            let served = history.line(q, burst, &resp);
            assert!(served.ok().is_some(), "trace request failed: {resp}");
        }
    };
    for _ in 0..10 {
        expect_ok(&[q0, q1], Some(history.new_burst()));
    }
    for _ in 0..10 {
        expect_ok(&[q0], None);
        expect_ok(&[q1], None);
    }
    drop((writer, reader));

    let mut client = Client::connect(fleet.addr()).unwrap();
    let ack = history.ingest(&mut client, &swap_batch);
    assert!(matches!(&ack, Ack::Ok(v) if v.len() == 2), "{ack:?}");
    let Reply::Ok(_) = client.health().unwrap() else {
        panic!("routed health failed");
    };
    let Reply::Ok(_) = client.stats().unwrap() else {
        panic!("routed stats failed");
    };
    client.shutdown().unwrap();
    fleet.stop();
    let after = ROUTER_COUNTERS.map(taxo_sim::counter);
    fleet.check();
    (0..ROUTER_COUNTERS.len())
        .map(|i| (ROUTER_COUNTERS[i], after[i] - before[i]))
        .collect()
}

#[test]
fn router_counters_are_deterministic_under_fixed_trace() {
    let fixture = Fixture::new(91);
    let first = run_trace(&fixture);
    let second = run_trace(&fixture);
    assert_eq!(
        first, second,
        "identical traces against fresh deployments must produce \
         identical serve.router.* counter deltas"
    );

    // The deltas are also exactly predictable from the trace shape.
    // Routed counts forwarded score items: 20 burst items + 20 single
    // scores. Fanout counts multi-shard operations: 10 bursts + 1
    // ingest + 1 health + 1 stats; merged completes once for each.
    // Nothing injects faults, so stale_epoch and shard_retries stay
    // zero.
    assert_eq!(first["serve.router.routed"], 40, "{first:?}");
    assert_eq!(first["serve.router.fanout"], 13, "{first:?}");
    assert_eq!(first["serve.router.merged"], 13, "{first:?}");
    assert_eq!(first["serve.router.stale_epoch"], 0, "{first:?}");
    assert_eq!(first["serve.router.shard_retries"], 0, "{first:?}");
    // A healthy run reuses every upstream connection across all bursts:
    // only the first lazy connect per shard happens, and first connects
    // are not reconnects.
    assert_eq!(first["serve.router.upstream_reconnects"], 0, "{first:?}");
}
