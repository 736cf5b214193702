//! The deterministic chaos harness: a real fleet, N retrying clients, and
//! a seeded fault schedule — with every response checked by
//! [`taxo_sim::check`] against the sequential model of the exact ingest
//! history.
//!
//! `simulate` enforces the serving invariants:
//!
//! 1. **Answered exactly once** — every client request eventually gets
//!    one `ok` response (through bounded retries), and the server-side
//!    accepted/completed ledgers balance after drain (the checker).
//! 2. **Shedding never drops accepted work** — the same ledgers: a shed
//!    request is rejected *before* acceptance, so acceptance implies
//!    completion even under injected queue saturation and shutdown.
//! 3. **No version mixing** and 4. **bit-identical scores** — each
//!    response names a version the model built and matches it bit for
//!    bit (`f32::to_bits`) under single-threaded offline scoring.
//!
//! Every fleet holds the process-global fault/metrics lock, so the
//! simulations in this binary run one at a time.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use taxo_core::ConceptId;
use taxo_fault::{FaultAction, FaultPlan, Trigger};
use taxo_serve::json::Value;
use taxo_serve::{Client, FsyncPolicy, Reply, RetryPolicy, Tier};
use taxo_sim::{Ack, Fixture, Fleet, History, Split, StopOnDrop, Summary};
use taxo_synth::ClickRecord;

struct SimConfig {
    seed: u64,
    plan: Option<FaultPlan>,
    score_clients: usize,
    /// The fewest score requests each client sends; it keeps going until
    /// the last ingest batch has landed.
    requests_per_client: u64,
    ingest_batches: usize,
    retry: RetryPolicy,
    /// Serving tier every score request asks for (and the model scores
    /// with). Chaos invariants are tier-independent.
    tier: Tier,
    routed: bool,
    wal: bool,
    /// Write the metrics registry to `$CHAOS_METRICS_DIR` (CI artifact).
    artifact: bool,
}

impl SimConfig {
    fn new(seed: u64, plan: Option<FaultPlan>) -> SimConfig {
        SimConfig {
            seed,
            plan,
            score_clients: 4,
            requests_per_client: 40,
            ingest_batches: 3,
            retry: chaos_retry_policy(),
            tier: Tier::F32,
            routed: false,
            wal: false,
            artifact: false,
        }
    }
}

#[derive(Debug)]
struct SimReport {
    summary: Summary,
    /// Score requests sent, by all clients.
    sent: usize,
    /// `fault.injected.<point>` counts, by point.
    injected: BTreeMap<String, u64>,
    retries: u64,
    timeouts: u64,
}

impl SimReport {
    fn distinct_faults_fired(&self) -> usize {
        self.injected.len()
    }
}

/// xorshift64* — per-client deterministic query stream.
struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Runs one full chaos simulation and checks its history.
fn simulate(mut cfg: SimConfig) -> SimReport {
    let fixture = Fixture::new(cfg.seed);
    assert!(
        fixture.queries.len() >= 8,
        "need a non-trivial query universe"
    );
    let batches = fixture.batches(cfg.ingest_batches, Split::Contiguous);
    let builder = if cfg.routed {
        Fleet::routed(&fixture)
    } else {
        Fleet::standalone(&fixture)
    };
    let mut fleet = if cfg.wal {
        builder.wal(FsyncPolicy::Always, 1).start()
    } else {
        builder.start()
    };
    if let Some(plan) = cfg.plan.take() {
        taxo_fault::arm(plan);
    }
    let history = fleet.history();
    let addr = fleet.addr();

    // Clients hammer `score` while the driver feeds ingest batches
    // through the exactly-once protocol, so responses straddle every
    // swap.
    let done = AtomicBool::new(false);
    let sent = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..cfg.score_clients)
            .map(|c| {
                let (history, cfg, queries, done) = (&history, &cfg, &fixture.queries, &done);
                scope.spawn(move || score_client(addr, cfg, c, queries, history, done))
            })
            .collect();
        let stop = StopOnDrop(&done);
        ingest_driver(&mut fleet, &history, &cfg.retry, &batches);
        drop(stop);
        clients
            .into_iter()
            .map(|c| c.join().expect("score client panicked"))
            .sum()
    });

    fleet.stop();
    if let (true, Ok(dir)) = (cfg.artifact, std::env::var("CHAOS_METRICS_DIR")) {
        let path = std::path::Path::new(&dir).join(format!("chaos_seed_{}.jsonl", cfg.seed));
        taxo_obs::report::write_json_lines(&path).expect("write chaos metrics artifact");
    }
    // Nonzero only: reset() zeroes counters in place, so earlier runs'
    // points linger in the registry at 0.
    let injected = taxo_obs::snapshot()
        .counters
        .into_iter()
        .filter(|c| c.name.starts_with("fault.injected.") && c.value > 0)
        .map(|c| (c.name, c.value))
        .collect();
    SimReport {
        sent,
        injected,
        retries: taxo_sim::counter("serve.retries"),
        timeouts: taxo_sim::counter("serve.timeouts"),
        summary: fleet.check(),
    }
}

fn score_client(
    addr: SocketAddr,
    cfg: &SimConfig,
    index: usize,
    queries: &[ConceptId],
    history: &History,
    done: &AtomicBool,
) -> usize {
    let mut client = Client::builder(addr).retry(cfg.retry.clone()).build();
    let mut rng =
        Xorshift((cfg.seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index as u64 + 1)).max(1));
    let wire_tier = (cfg.tier != Tier::default()).then_some(cfg.tier);
    let mut sent = 0;
    while sent < cfg.requests_per_client as usize || !done.load(Ordering::Relaxed) {
        if sent >= cfg.requests_per_client as usize {
            // Past its quota a client only samples the versions the
            // ingest still publishes; it must not starve the writer.
            std::thread::sleep(Duration::from_millis(2));
        }
        let q = queries[(rng.next() % queries.len() as u64) as usize];
        history.score(&mut client, q, wire_tier);
        sent += 1;
    }
    sent
}

/// Applies every batch exactly once. Ingest replies are sent strictly
/// after apply+publish, so a lost reply is ambiguous — the batch may or
/// may not have landed. A crash is resolved by recovering the shard (the
/// ambiguous batch is never resent); otherwise by the `health` versions:
/// this driver is the only ingest writer, so a version past the last ack
/// means applied, and one still at it through the deadline means not.
fn ingest_driver(
    fleet: &mut Fleet,
    history: &History,
    retry: &RetryPolicy,
    batches: &[Vec<ClickRecord>],
) {
    let mut client = Client::builder(fleet.addr()).retry(retry.clone()).build();
    let mut last = 0;
    for batch in batches {
        loop {
            if let Ack::Ok(versions) = history.ingest(&mut client, batch) {
                last = versions.into_iter().fold(last, u64::max);
                break;
            }
            if let Some(shard) = fleet.await_crash() {
                taxo_fault::disarm();
                let fixture = fleet.fixture;
                last = last.max(fleet.recover(shard, &fixture.detector).final_version);
                break;
            }
            let deadline = Instant::now() + Duration::from_secs(5);
            let applied = loop {
                let vector = served_vector(&mut client);
                match vector.iter().max() {
                    Some(&top) if top > last => break Some((top, vector)),
                    _ if Instant::now() >= deadline => break None,
                    _ => std::thread::sleep(Duration::from_millis(5)),
                }
            };
            history.settle(applied.as_ref().map(|(_, v)| v.clone()));
            if let Some((top, _)) = applied {
                last = top;
                break;
            }
        }
    }
}

/// Every shard's served version, as one `health` reports it (empty when
/// the server did not answer).
fn served_vector(client: &mut Client) -> Vec<u64> {
    let Ok(Reply::Ok(h)) = client.health() else {
        return Vec::new();
    };
    match h.get("vector").and_then(Value::items) {
        Some(items) => items.iter().filter_map(Value::as_u64).collect(),
        None => h
            .get("version")
            .and_then(Value::as_u64)
            .into_iter()
            .collect(),
    }
}

fn chaos_retry_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 12,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(32),
        request_timeout: Duration::from_secs(5),
        connect_timeout: Duration::from_secs(5),
    }
}

/// The delayed swap: a slowed ingest/publish path, so readers race
/// every version change.
fn slow_swaps(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with(
            "serve.ingest.apply",
            Trigger::Nth(2),
            FaultAction::Delay(10),
        )
        .with(
            "serve.snapshot.publish",
            Trigger::Always,
            FaultAction::Delay(15),
        )
}

/// The full chaos schedule: connection drops at accept and mid-read,
/// torn response frames, simulated score-queue saturation (int8 only:
/// f32 never queues), and the delayed swap. The `nth`/`always` triggers
/// guarantee at least four distinct fault kinds actually fire on either
/// tier.
fn chaos_plan(seed: u64) -> FaultPlan {
    slow_swaps(seed)
        .with("serve.accept", Trigger::Nth(4), FaultAction::Fail)
        .with("serve.conn.read", Trigger::Prob(0.01), FaultAction::Fail)
        .with("serve.conn.write", Trigger::Nth(23), FaultAction::Short(6))
        .with(
            "serve.queue.score.push",
            Trigger::Nth(17),
            FaultAction::Fail,
        )
}

#[test]
fn chaos_seeds_hold_all_invariants() {
    for seed in [1u64, 2, 3] {
        let report = simulate(SimConfig {
            artifact: true,
            ..SimConfig::new(seed, Some(chaos_plan(seed)))
        });
        assert_eq!(report.summary.ok, report.sent, "seed {seed}");
        assert!(report.sent >= 4 * 40, "seed {seed}");
        assert_eq!(report.summary.versions, [3], "seed {seed}");
        assert!(
            report.distinct_faults_fired() >= 4,
            "seed {seed} fired only {:?}",
            report.injected
        );
        assert!(
            report.retries > 0,
            "seed {seed}: chaos this dense must force retries"
        );
    }
}

#[test]
// The heaviest seeded sweep in the suite (~10s debug): kept out of the
// default tier-1 run and exercised by CI's `-- --ignored` lane (and any
// local `cargo test -- --include-ignored`).
#[ignore = "heavy seeded chaos sweep; run via -- --ignored"]
fn quant_tier_chaos_holds_exactly_once_and_bit_identity() {
    // Same invariants, second serving tier: under a seeded chaos plan
    // every int8 response must still be answered exactly once
    // (accepted == completed ledgers), name only versions the model
    // built, and be bit-identical to that version's offline **quant**
    // replay — quantization changes the scores, never the serving
    // semantics. Only int8 requests that miss both caches push score
    // jobs — a few per snapshot version here — so saturation is
    // simulated densely enough to fire on this run.
    let report = simulate(SimConfig {
        score_clients: 3,
        requests_per_client: 30,
        ingest_batches: 2,
        tier: Tier::Int8,
        ..SimConfig::new(
            2,
            Some(chaos_plan(2).with("serve.queue.score.push", Trigger::Nth(3), FaultAction::Fail)),
        )
    });
    assert_eq!(report.summary.ok, report.sent);
    assert!(report.sent >= 3 * 30);
    assert_eq!(report.summary.versions, [2]);
    assert!(
        report.distinct_faults_fired() >= 4,
        "fired only {:?}",
        report.injected
    );
    // f32 requests never touch the scorer queue (they are answered from
    // the score table), so this is the lane where simulated score-queue
    // saturation must actually fire.
    assert!(
        report
            .injected
            .contains_key("fault.injected.serve.queue.score.push"),
        "score-queue saturation must fire on the int8 lane: {:?}",
        report.injected
    );
    assert!(report.retries > 0, "chaos this dense must force retries");
}

#[test]
fn per_request_timeouts_recover_from_stalled_responses() {
    let report = simulate(SimConfig {
        score_clients: 1,
        requests_per_client: 5,
        ingest_batches: 0,
        retry: RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
            request_timeout: Duration::from_millis(50),
            connect_timeout: Duration::from_secs(5),
        },
        // Every 3rd response write stalls far past the request timeout:
        // the client must abandon the attempt, reconnect, and retry.
        ..SimConfig::new(
            11,
            Some(FaultPlan::new(11).with(
                "serve.conn.write",
                Trigger::Nth(3),
                FaultAction::Delay(400),
            )),
        )
    });
    assert_eq!(report.summary.ok, 5);
    assert!(report.timeouts >= 1, "the stalled writes must time out");
    assert!(report.retries >= 1);
}

#[test]
fn same_seed_and_plan_give_identical_injection_counts() {
    // Deterministic-chaos scenario: one sequential client and hit-count
    // (`nth`) triggers only, so the number of hits at every point — and
    // therefore every injection decision — is interleaving-independent.
    let run = || {
        simulate(SimConfig {
            score_clients: 1,
            requests_per_client: 60,
            ingest_batches: 0,
            ..SimConfig::new(
                7,
                Some(
                    FaultPlan::new(7)
                        .with("serve.conn.write", Trigger::Nth(7), FaultAction::Fail)
                        .with("serve.accept", Trigger::Nth(5), FaultAction::Fail),
                ),
            )
        })
    };
    let first = run();
    let second = run();
    assert_eq!(
        first.injected, second.injected,
        "same seed + same plan must inject identically"
    );
    assert_eq!(first.retries, second.retries);
    assert!(
        !first.injected.is_empty(),
        "the nth triggers must actually fire"
    );
}

#[test]
fn faultless_simulation_is_clean_and_injects_nothing() {
    let report = simulate(SimConfig {
        score_clients: 2,
        requests_per_client: 25,
        ingest_batches: 2,
        ..SimConfig::new(2, None)
    });
    assert_eq!(report.summary.ok, report.sent);
    assert!(report.sent >= 50);
    assert_eq!(report.summary.versions, [2]);
    assert!(report.injected.is_empty(), "{:?}", report.injected);
    assert_eq!(report.timeouts, 0);
}

/// Every shipped configuration — {standalone, routed} × {volatile, WAL}
/// — under the same seeded workload and checker, with the delayed swap
/// armed throughout. In each WAL cell one fsync fault crashes a shard at
/// the second batch's first prepare; the driver recovers it onto its own
/// address and never resends the ambiguous batch, and the checker
/// resolves it from the recovered version.
#[test]
#[ignore = "configuration matrix; run via -- --ignored"]
fn every_configuration_holds_all_invariants_across_seeds() {
    for seed in [1u64, 2, 3] {
        for (routed, wal) in [(false, false), (false, true), (true, false), (true, true)] {
            let cell = format!("seed {seed}, routed {routed}, wal {wal}");
            // Fsync hits: one per standalone batch, one per shard per
            // routed batch (shard 0 prepares first).
            let crash_at = if routed { 3 } else { 2 };
            let plan = slow_swaps(seed).with(
                "serve.wal.fsync",
                Trigger::Once(crash_at),
                FaultAction::Fail,
            );
            let report = simulate(SimConfig {
                routed,
                wal,
                ..SimConfig::new(seed, Some(plan))
            });
            let s = &report.summary;
            assert_eq!(s.ok + s.busy + s.failed, report.sent, "{cell}");
            assert!(s.ok >= report.sent / 2, "{cell}: {s:?}");
            let shards = if routed { 2 } else { 1 };
            assert_eq!(s.versions.len(), shards, "{cell}");
            if wal {
                assert!(
                    report
                        .injected
                        .contains_key("fault.injected.serve.wal.fsync"),
                    "{cell}: the crash must fire"
                );
                // Batch 2 lands iff its unsynced append reached the disk.
                assert!(
                    s.versions.iter().all(|v| (2..=3).contains(v)),
                    "{cell}: {s:?}"
                );
            } else {
                assert_eq!(s.versions, vec![3; shards], "{cell}");
                assert_eq!(s.ok, report.sent, "{cell}");
            }
        }
    }
}
