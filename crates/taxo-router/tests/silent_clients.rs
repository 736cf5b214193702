//! Silent clients cannot starve the router. 64 connections that never
//! send a byte stay open while a live client asks for `health` and a
//! two-shard score burst: each answer arrives within 1 s, byte-identical
//! to the same request's answer with no silent connection open.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use taxo_core::json::Value;
use taxo_core::ConceptId;
use taxo_expand::{
    DetectorConfig, ExpansionConfig, HypoDetector, IncrementalExpander, RelationalConfig,
    RelationalModel,
};
use taxo_router::{Router, RouterConfig};
use taxo_serve::{Client, ServeConfig, Server};
use taxo_synth::{ClickConfig, ClickLog, World, WorldConfig};

const SEED: u64 = 33;

fn shard_expander(world: &World, records: &[taxo_synth::ClickRecord]) -> IncrementalExpander {
    let relational = RelationalModel::vanilla(&world.vocab, &[], &RelationalConfig::tiny(SEED));
    let detector = HypoDetector::new(Some(relational), None, &DetectorConfig::tiny(SEED));
    let cfg = ExpansionConfig::builder().threshold(0.6).build().unwrap();
    let mut expander = IncrementalExpander::new(detector, world.existing.clone(), cfg);
    expander.ingest(&world.vocab, records);
    expander
}

/// Sends `request` on a fresh connection and reads `lines` response
/// lines; returns them with the time they took.
fn ask(addr: std::net::SocketAddr, request: &str, lines: usize) -> (String, Duration) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let start = Instant::now();
    writer.write_all(request.as_bytes()).unwrap();
    let mut reply = String::new();
    for _ in 0..lines {
        reader.read_line(&mut reply).unwrap();
    }
    (reply, start.elapsed())
}

#[test]
fn silent_connections_do_not_hold_up_a_live_client() {
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
    let h0 = Server::builder(exp0, Arc::clone(&vocab))
        .config(ServeConfig::default())
        .bind("127.0.0.1:0")
        .unwrap();
    let h1 = Server::builder(exp1, Arc::clone(&vocab))
        .config(ServeConfig::default())
        .bind("127.0.0.1:0")
        .unwrap();
    let router = Router::builder(vec![h0.addr(), h1.addr()])
        .config(RouterConfig::default())
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = router.addr();

    let mut queries: Vec<ConceptId> = pairs.iter().map(|p| p.query).collect();
    queries.sort_unstable();
    queries.dedup();
    let on = |shard: u32| -> &str {
        let q = queries
            .iter()
            .find(|&&q| router.ring().shard_for(vocab.name(q)) == shard)
            .expect("each shard owns a query");
        vocab.name(*q)
    };
    let burst = format!(
        "{{\"kind\":\"score\",\"id\":1,\"query\":{}}}\n\
         {{\"kind\":\"score\",\"id\":2,\"query\":{}}}\n",
        taxo_core::json::encode(&Value::Str(on(0).to_owned())),
        taxo_core::json::encode(&Value::Str(on(1).to_owned())),
    );
    let health = "{\"kind\":\"health\",\"id\":3}\n";

    let (health_alone, _) = ask(addr, health, 1);
    let (burst_alone, _) = ask(addr, &burst, 2);

    let silent: Vec<TcpStream> = (0..64).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let (health_crowded, health_took) = ask(addr, health, 1);
    let (burst_crowded, burst_took) = ask(addr, &burst, 2);
    assert!(
        health_took < Duration::from_secs(1),
        "health took {health_took:?} beside 64 silent connections"
    );
    assert!(
        burst_took < Duration::from_secs(1),
        "the burst took {burst_took:?} beside 64 silent connections"
    );
    assert_eq!(health_crowded, health_alone);
    assert_eq!(burst_crowded, burst_alone);
    drop(silent);

    Client::connect(addr).unwrap().shutdown().unwrap();
    router.join();
    h0.join();
    h1.join();
}
