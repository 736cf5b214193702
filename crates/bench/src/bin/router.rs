//! `router` — fronts a fleet of taxo-serve shards with the
//! consistent-hash routing tier.
//!
//! ```text
//! router --shards HOST:PORT,HOST:PORT,... [--addr 127.0.0.1:7979]
//!        [--vnodes N] [--seed N] [--shard-retries N]
//!        [--metrics-json PATH]
//! ```
//!
//! Client connections are served by 8 epoll reactor threads, each with
//! one connection per shard; a connection silent for 30 s is closed.
//!
//! Every shard must already be listening: the router probes each one's
//! `health` at startup to seed its version vector and refuses to start
//! if any probe fails. Prints `taxo-router listening on <addr>` once
//! ready, then routes until a `shutdown` request arrives (which it
//! forwards to every shard before draining itself). `--metrics-json
//! PATH` writes the final taxo-obs snapshot — including the
//! `serve.router.*` counters — after shutdown.
//!
//! `--vnodes` and `--seed` shape the consistent-hash ring; every router
//! (and every offline baseline builder) pointed at the same shard list
//! with the same values routes identically.
//!
//! Continuous learning runs inside each shard process (`serve
//! --retrain-every`): the taxo-train control plane retrains and gates
//! there, and a promotion publishes in one step on its own shard. The
//! router does not coordinate promotions: each shard's trainer promotes
//! on its own schedule, and the router's version vector follows.

use std::net::SocketAddr;
use taxo_router::{Router, RouterConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = String::from("127.0.0.1:7979");
    let mut shards: Vec<SocketAddr> = Vec::new();
    let mut cfg = RouterConfig::default();
    let mut metrics_json: Option<std::path::PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = take(&args, &mut i, "--addr"),
            "--shards" => {
                shards = take(&args, &mut i, "--shards")
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| die(&format!("invalid shard address {s:?}")))
                    })
                    .collect();
            }
            "--vnodes" => cfg.vnodes = parse(&take(&args, &mut i, "--vnodes")),
            "--seed" => cfg.ring_seed = parse(&take(&args, &mut i, "--seed")),
            "--shard-retries" => {
                cfg.shard_retries = parse(&take(&args, &mut i, "--shard-retries"));
            }
            "--metrics-json" => {
                metrics_json = Some(std::path::PathBuf::from(take(
                    &args,
                    &mut i,
                    "--metrics-json",
                )));
            }
            "--help" | "-h" => {
                println!(
                    "router --shards HOST:PORT,... [--addr HOST:PORT] [--vnodes N] \
                     [--seed N] [--shard-retries N] [--metrics-json PATH]"
                );
                return;
            }
            other => die(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    if shards.is_empty() {
        die("--shards takes a comma-separated list of shard addresses");
    }

    eprintln!("# fronting {} shard(s): {shards:?}", shards.len());
    let handle = Router::builder(shards)
        .config(cfg)
        .bind(addr.as_str())
        .unwrap_or_else(|e| die(&format!("binding {addr}: {e}")));
    println!("taxo-router listening on {}", handle.addr());

    handle.join();
    eprintln!("# shut down cleanly");

    if let Some(path) = &metrics_json {
        match taxo_obs::report::write_json_lines(path) {
            Ok(()) => eprintln!("# metrics written to {}", path.display()),
            Err(e) => die(&format!("writing {}: {e}", path.display())),
        }
    }
    taxo_obs::report::report_if_configured();
}

fn take(args: &[String], i: &mut usize, flag: &str) -> String {
    *i += 1;
    args.get(*i)
        .unwrap_or_else(|| die(&format!("{flag} takes a value")))
        .clone()
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("invalid numeric value {s:?}")))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
