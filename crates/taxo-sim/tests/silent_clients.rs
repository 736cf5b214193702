//! Silent clients cannot starve the router. 64 connections that never
//! send a byte stay open while a live client asks for `health` and a
//! two-shard score burst: each answer arrives within 1 s, byte-identical
//! to the same request's answer with no silent connection open.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use taxo_core::json::Value;
use taxo_serve::Client;
use taxo_sim::{Fixture, Fleet};

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
    let fixture = Fixture::new(33);
    let fleet = Fleet::routed(&fixture).start();
    let addr = fleet.addr();
    let on = |shard| {
        let name = fixture.vocab.name(fleet.query_on(shard));
        taxo_core::json::encode(&Value::Str(name.to_owned()))
    };
    let burst = format!(
        "{{\"kind\":\"score\",\"id\":1,\"query\":{}}}\n\
         {{\"kind\":\"score\",\"id\":2,\"query\":{}}}\n",
        on(0),
        on(1),
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
}
