//! `router` — fronts a fleet of taxo-serve shards with the
//! consistent-hash routing tier.
//!
//! ```text
//! router --shards HOST:PORT,HOST:PORT,... [--addr 127.0.0.1:7979]
//!        [--vnodes N] [--seed N] [--shard-retries N]
//!        [--metrics-json PATH]
//!        [--retrain-every N] [--shadow-sample N] [--promote-gate P[:LAT_US]]
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
//! The continuous-learning knobs mirror the serve bin's so one launch
//! configuration describes the whole tier. *Enforcement* lives inside
//! each shard process (the taxo-train control plane retrains and gates
//! there, and the serving two-phase publish keeps every promotion atomic
//! per shard); the router's role is fail-fast validation plus a **fleet
//! promotion watchdog**: with `--retrain-every N` armed, a background
//! thread polls each shard's `stats`/`health`, aggregates
//! `train.promotions` / `train.rollbacks` across the fleet into
//! `router.fleet.*` gauges, logs every observed shard promotion, and
//! warns when the fleet's version spread exceeds the retrain window
//! (a shard whose trainer has stalled or was launched without one).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use taxo_router::{Router, RouterConfig};
use taxo_serve::{Client, Reply};
use taxo_train::GateConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = String::from("127.0.0.1:7979");
    let mut shards: Vec<SocketAddr> = Vec::new();
    let mut cfg = RouterConfig::default();
    let mut metrics_json: Option<std::path::PathBuf> = None;
    let mut retrain_every = 0u64;
    let mut shadow_sample = 2u64;
    let mut gate = GateConfig::default();
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
            "--retrain-every" => retrain_every = parse(&take(&args, &mut i, "--retrain-every")),
            "--shadow-sample" => shadow_sample = parse(&take(&args, &mut i, "--shadow-sample")),
            "--promote-gate" => {
                gate = GateConfig::parse(&take(&args, &mut i, "--promote-gate"))
                    .unwrap_or_else(|e| die(&format!("--promote-gate: {e}")));
            }
            "--help" | "-h" => {
                println!(
                    "router --shards HOST:PORT,... [--addr HOST:PORT] [--vnodes N] \
                     [--seed N] [--shard-retries N] [--metrics-json PATH] \
                     [--retrain-every N] [--shadow-sample N] [--promote-gate P[:LAT_US]]"
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
    let handle = Router::builder(shards.clone())
        .config(cfg)
        .bind(addr.as_str())
        .unwrap_or_else(|e| die(&format!("binding {addr}: {e}")));
    println!("taxo-router listening on {}", handle.addr());

    // Fleet promotion watchdog: each shard enforces the gate itself; the
    // router observes and aggregates so a stalled or misconfigured
    // shard's trainer is visible at the tier front door.
    let watchdog = (retrain_every > 0).then(|| {
        eprintln!(
            "# fleet policy: retrain every {retrain_every} version(s), \
             shadow 1-in-{shadow_sample}, gate precision {:.2} \
             (enforced per shard; watchdog armed)",
            gate.min_precision
        );
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("fleet-watchdog".into())
            .spawn(move || watch_fleet(&shards, retrain_every, &flag))
            .expect("spawn fleet watchdog");
        (stop, thread)
    });

    handle.join();
    eprintln!("# shut down cleanly");
    if let Some((stop, thread)) = watchdog {
        stop.store(true, Ordering::Release);
        let (promotions, rollbacks) = thread.join().expect("fleet watchdog panicked");
        eprintln!("# fleet: {promotions} promotion(s), {rollbacks} rollback(s) observed");
    }

    if let Some(path) = &metrics_json {
        match taxo_obs::report::write_json_lines(path) {
            Ok(()) => eprintln!("# metrics written to {}", path.display()),
            Err(e) => die(&format!("writing {}: {e}", path.display())),
        }
    }
    taxo_obs::report::report_if_configured();
}

/// Polls every shard's `stats` and `health` until stopped, publishing
/// fleet-wide trainer aggregates as gauges and warning when the version
/// spread across shards exceeds the retrain window. Returns the final
/// `(promotions, rollbacks)` totals.
fn watch_fleet(shards: &[SocketAddr], retrain_every: u64, stop: &AtomicBool) -> (u64, u64) {
    let mut last_promotions = vec![0u64; shards.len()];
    let mut spread_warned = false;
    let (mut promotions, mut rollbacks) = (0u64, 0u64);
    while !stop.load(Ordering::Acquire) {
        let mut versions: Vec<u64> = Vec::with_capacity(shards.len());
        let (mut promo_total, mut roll_total) = (0u64, 0u64);
        for (i, addr) in shards.iter().enumerate() {
            // Reconnect per poll: shards may restart under chaos, and at
            // watchdog cadence a fresh connection is cheap.
            let Ok(mut client) = Client::connect(*addr) else {
                continue;
            };
            if let Ok(Reply::Ok(h)) = client.health() {
                if let Some(v) = h.get("version").and_then(taxo_serve::json::Value::as_u64) {
                    versions.push(v);
                }
            }
            if let Ok(Reply::Ok(s)) = client.stats() {
                let counter = |name: &str| {
                    s.get("counters")
                        .and_then(|c| c.get(name))
                        .and_then(taxo_serve::json::Value::as_u64)
                        .unwrap_or(0)
                };
                let p = counter("train.promotions");
                if p > last_promotions[i] {
                    eprintln!("# shard {i} ({addr}) promoted (total {p})");
                }
                last_promotions[i] = p;
                promo_total += p;
                roll_total += counter("train.rollbacks");
            }
        }
        promotions = promo_total;
        rollbacks = roll_total;
        taxo_obs::gauge!("router.fleet.promotions").set(promo_total as i64);
        taxo_obs::gauge!("router.fleet.rollbacks").set(roll_total as i64);
        if versions.len() == shards.len() {
            let spread = versions.iter().max().unwrap() - versions.iter().min().unwrap();
            if spread > retrain_every && !spread_warned {
                eprintln!(
                    "# warning: fleet version spread {spread} exceeds the retrain \
                     window {retrain_every} — a shard's trainer may be stalled or absent"
                );
                spread_warned = true;
            }
        }
        std::thread::sleep(Duration::from_millis(500));
    }
    (promotions, rollbacks)
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
