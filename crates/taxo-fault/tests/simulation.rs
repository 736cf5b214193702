//! The deterministic chaos harness: a real taxo-serve server, N retrying
//! clients, and a seeded fault schedule — with every response checked
//! against an offline replay of the exact ingest history.
//!
//! `simulate` enforces the serving invariants the ISSUE pins down:
//!
//! 1. **Answered exactly once** — every client request eventually gets
//!    one `ok` response (through bounded retries), and the server-side
//!    accepted/completed ledgers balance: `serve.score.accepted ==
//!    serve.score.completed` and `serve.ingest.accepted ==
//!    serve.ingest.applied` after drain.
//! 2. **Shedding never drops accepted work** — the same ledgers: a shed
//!    request is rejected *before* acceptance, so acceptance implies
//!    completion even under injected queue saturation and shutdown.
//! 3. **No version mixing** — each response's `version` field names a
//!    snapshot the offline replay also built, and the response content
//!    must match that version's replay **bit for bit**.
//! 4. **Bit-identical scores** — the same check: candidate keys compare
//!    scores via `f32::to_bits` against single-threaded offline scoring.
//!
//! The harness arms one process-global fault plan per run, so all tests
//! in this binary serialize on [`sim_lock`].

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};
use taxo_core::ConceptId;
use taxo_expand::{
    DetectorConfig, ExpansionConfig, HypoDetector, IncrementalExpander, RelationalConfig,
    RelationalModel,
};
use taxo_fault::{FaultAction, FaultPlan, Trigger};
use taxo_serve::{
    candidate_key, expected_key, Client, Reply, RetryPolicy, ServeConfig, ServeSnapshot, Server,
    Tier,
};
use taxo_synth::{ClickConfig, ClickLog, ClickRecord, World, WorldConfig};

/// Serializes simulations: fault plans and the metrics registry are
/// process-global.
fn sim_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

struct SimConfig {
    seed: u64,
    plan: Option<FaultPlan>,
    score_clients: usize,
    requests_per_client: u64,
    ingest_batches: usize,
    retry: RetryPolicy,
    /// Serving tier every score request asks for (and the offline
    /// replay scores with). Chaos invariants are tier-independent.
    tier: Tier,
}

#[derive(Debug)]
struct SimReport {
    ok_responses: u64,
    violations: Vec<String>,
    /// `fault.injected.<point>` counts, by point.
    injected: BTreeMap<String, u64>,
    retries: u64,
    timeouts: u64,
    final_version: u64,
}

impl SimReport {
    fn distinct_faults_fired(&self) -> usize {
        self.injected.values().filter(|&&v| v > 0).count()
    }
}

/// xorshift64* — per-client deterministic query stream.
struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Self {
        Xorshift(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

fn expansion_config() -> ExpansionConfig {
    ExpansionConfig::builder()
        .threshold(0.6)
        .build()
        .expect("static config is valid")
}

fn build_snapshot(
    version: u64,
    vocab: &Arc<taxo_core::Vocabulary>,
    expander: &IncrementalExpander,
) -> ServeSnapshot {
    ServeSnapshot::build(
        version,
        Arc::clone(vocab),
        Arc::new(expander.detector().clone()),
        expander.taxonomy().clone(),
        &expander.candidate_pairs(),
    )
}

/// Runs one full chaos simulation (caller must hold [`sim_lock`]).
fn simulate(cfg: SimConfig) -> SimReport {
    taxo_fault::disarm();
    taxo_obs::reset();

    // Deterministic world + an *untrained-but-real* detector: scoring is
    // pure and cheap, which is all bit-identity checking needs.
    let world = World::generate(&WorldConfig {
        target_nodes: 120,
        ..WorldConfig::tiny(cfg.seed)
    });
    let log = ClickLog::generate(
        &world,
        &ClickConfig {
            n_events: 4_000,
            ..ClickConfig::tiny(cfg.seed)
        },
    );
    let relational = RelationalModel::vanilla(&world.vocab, &[], &RelationalConfig::tiny(cfg.seed));
    let detector = HypoDetector::new(Some(relational), None, &DetectorConfig::tiny(cfg.seed));
    let mut server_exp =
        IncrementalExpander::new(detector.clone(), world.existing.clone(), expansion_config());
    let mut replay_exp =
        IncrementalExpander::new(detector, world.existing.clone(), expansion_config());

    // Version 0 state: the first half of the click log, ingested into the
    // server's expander and its offline twin identically.
    let half = log.records.len() / 2;
    server_exp.ingest(&world.vocab, &log.records[..half]);
    replay_exp.ingest(&world.vocab, &log.records[..half]);
    let vocab = Arc::new(world.vocab);

    // The live ingest workload: the second half, split into batches of
    // wire-format records. The replay twin applies them all up front, so
    // expected[v] is the byte-exact serving state after batch v.
    let rest = &log.records[half..];
    let chunk = rest.len().div_ceil(cfg.ingest_batches.max(1)).max(1);
    let batches: Vec<Vec<(String, String, u64)>> = rest
        .chunks(chunk)
        .take(cfg.ingest_batches)
        .map(|records| {
            records
                .iter()
                .map(|r| (vocab.name(r.query).to_owned(), r.item_text.clone(), r.count))
                .collect()
        })
        .collect();

    let serve_cfg = ServeConfig::default();
    let (cap, k) = (serve_cfg.max_candidates, serve_cfg.default_k);
    let mut expected: Vec<ServeSnapshot> = vec![build_snapshot(0, &vocab, &replay_exp)];
    for (i, batch) in batches.iter().enumerate() {
        let records: Vec<ClickRecord> = batch
            .iter()
            .filter_map(|(query, item, count)| {
                vocab.get(query).map(|query| ClickRecord {
                    query,
                    item_text: item.clone(),
                    count: *count,
                })
            })
            .collect();
        replay_exp.ingest(&vocab, &records);
        expected.push(build_snapshot(i as u64 + 1, &vocab, &replay_exp));
    }
    let n_batches = batches.len() as u64;

    let mut queries: Vec<ConceptId> = server_exp
        .candidate_pairs()
        .iter()
        .map(|p| p.query)
        .collect();
    queries.sort_unstable();
    queries.dedup();
    queries.retain(|&q| !expected[0].eligible(q, cap).is_empty());
    assert!(queries.len() >= 8, "need a non-trivial query universe");

    let handle = Server::builder(server_exp, Arc::clone(&vocab))
        .config(serve_cfg)
        .bind("127.0.0.1:0")
        .expect("server starts");
    let addr = handle.addr();
    let store = handle.store();
    if let Some(plan) = cfg.plan {
        taxo_fault::arm(plan);
    }

    // Clients hammer `score` while the driver below feeds ingest batches
    // through the exactly-once protocol; every thread returns its own
    // (ok count, violations).
    let expected = &expected;
    let queries = &queries;
    let vocab_ref = &vocab;
    let (ok_responses, mut violations) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..cfg.score_clients)
            .map(|c| {
                let retry = cfg.retry.clone();
                scope.spawn(move || {
                    score_client(
                        addr,
                        retry,
                        cfg.seed,
                        c,
                        cfg.requests_per_client,
                        cfg.tier,
                        expected,
                        queries,
                        vocab_ref,
                        cap,
                        k,
                    )
                })
            })
            .collect();
        let mut violations = ingest_driver(addr, &cfg.retry, &batches);
        let mut ok = 0u64;
        for client in clients {
            let (client_ok, client_violations) = client.join().expect("score client panicked");
            ok += client_ok;
            violations.extend(client_violations);
        }
        (ok, violations)
    });

    // All batches confirmed applied: the published version must be exact.
    let final_version = store.version();
    if final_version != n_batches {
        violations.push(format!(
            "final snapshot version {final_version}, expected {n_batches}"
        ));
    }

    handle.shutdown_and_join();
    taxo_fault::disarm();

    // Post-drain ledgers: acceptance implies completion, exactly.
    let snap = taxo_obs::snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    for (accepted, completed) in [
        ("serve.score.accepted", "serve.score.completed"),
        ("serve.ingest.accepted", "serve.ingest.applied"),
    ] {
        let (a, c) = (counter(accepted), counter(completed));
        if a != c {
            violations.push(format!("{accepted}={a} but {completed}={c}"));
        }
    }

    // Nonzero only: reset() zeroes counters in place, so earlier runs'
    // points linger in the registry at 0.
    let injected = snap
        .counters
        .iter()
        .filter(|c| c.name.starts_with("fault.injected.") && c.value > 0)
        .map(|c| (c.name.clone(), c.value))
        .collect();
    SimReport {
        ok_responses,
        violations,
        injected,
        retries: counter("serve.retries"),
        timeouts: counter("serve.timeouts"),
        final_version,
    }
}

#[allow(clippy::too_many_arguments)]
fn score_client(
    addr: SocketAddr,
    retry: RetryPolicy,
    seed: u64,
    index: usize,
    requests: u64,
    tier: Tier,
    expected: &[ServeSnapshot],
    queries: &[ConceptId],
    vocab: &Arc<taxo_core::Vocabulary>,
    cap: usize,
    k: usize,
) -> (u64, Vec<String>) {
    let mut client = Client::builder(addr).retry(retry).build();
    let mut rng = Xorshift::new(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index as u64 + 1)));
    let mut ok = 0u64;
    let mut violations = Vec::new();
    let wire_tier = (tier != Tier::default()).then_some(tier);
    for _ in 0..requests {
        let q = queries[(rng.next() % queries.len() as u64) as usize];
        let term = vocab.name(q);
        match client.score_tier(term, Some(k), wire_tier) {
            Ok(Reply::Ok(v)) => {
                ok += 1;
                let version = v
                    .get("version")
                    .and_then(taxo_serve::json::Value::as_u64)
                    .unwrap_or(u64::MAX);
                let Some(reference) = expected.get(version as usize) else {
                    violations.push(format!(
                        "response for {term:?} claims version {version}, which the \
                         offline replay never built"
                    ));
                    continue;
                };
                let key = candidate_key(&v);
                let want = expected_key(vocab, &reference.score_query_tier(q, cap, k, tier));
                if key.as_deref() != Some(want.as_slice()) {
                    violations.push(format!(
                        "response for {term:?} at version {version} is not bit-identical \
                         to that version's offline replay"
                    ));
                }
            }
            Ok(other) => {
                violations.push(format!("score for {term:?} got unexpected reply {other:?}"))
            }
            Err(e) => violations.push(format!(
                "score for {term:?} was never answered (retries exhausted): {e}"
            )),
        }
    }
    (ok, violations)
}

/// Applies every batch exactly once. Ingest replies are sent strictly
/// after apply+publish, so a transport failure is ambiguous — the batch
/// may or may not have landed. The resolution is the `health` version:
/// this driver is the only ingest writer, so `version >= target` means
/// applied (resolving the ambiguity without ever double-applying).
fn ingest_driver(
    addr: SocketAddr,
    retry: &RetryPolicy,
    batches: &[Vec<(String, String, u64)>],
) -> Vec<String> {
    let mut violations = Vec::new();
    let mut client = Client::builder(addr).retry(retry.clone()).build();
    for (i, batch) in batches.iter().enumerate() {
        let target = i as u64 + 1;
        loop {
            match client.ingest(batch) {
                Ok(Reply::Ok(v)) => {
                    let version = v.get("version").and_then(taxo_serve::json::Value::as_u64);
                    if version != Some(target) {
                        violations.push(format!(
                            "ingest batch {target} applied at version {version:?}"
                        ));
                    }
                    break;
                }
                Ok(other) => {
                    violations.push(format!("ingest batch {target} rejected: {other:?}"));
                    break;
                }
                Err(_) => match confirm_applied(&mut client, target) {
                    Some(true) => break,
                    Some(false) => continue, // definitely not applied: resend
                    None => {
                        violations.push(format!(
                            "ingest batch {target} could not be confirmed either way"
                        ));
                        break;
                    }
                },
            }
        }
    }
    violations
}

/// Polls `health` until the served version reaches `target` (applied) or
/// stays behind it through the deadline (not applied). `None` means the
/// server answered nothing at all within the deadline.
fn confirm_applied(client: &mut Client, target: u64) -> Option<bool> {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut observed = None;
    loop {
        if let Ok(Reply::Ok(h)) = client.health() {
            let version = h.get("version").and_then(taxo_serve::json::Value::as_u64)?;
            if version >= target {
                return Some(true);
            }
            observed = Some(false);
        }
        if Instant::now() >= deadline {
            return observed;
        }
        std::thread::sleep(Duration::from_millis(5));
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

/// The full chaos schedule: connection drops at accept and mid-read,
/// torn response frames, simulated score-queue saturation (int8 only:
/// f32 never queues), and a slowed ingest/publish path (the "delayed
/// swap"). The `nth`/`always` triggers guarantee at least four distinct
/// fault kinds actually fire on either tier.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with("serve.accept", Trigger::Nth(4), FaultAction::Fail)
        .with("serve.conn.read", Trigger::Prob(0.01), FaultAction::Fail)
        .with("serve.conn.write", Trigger::Nth(23), FaultAction::Short(6))
        .with(
            "serve.queue.score.push",
            Trigger::Nth(17),
            FaultAction::Fail,
        )
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

#[test]
fn chaos_seeds_hold_all_invariants() {
    let _g = sim_lock();
    for seed in [1u64, 2, 3] {
        let report = simulate(SimConfig {
            seed,
            plan: Some(chaos_plan(seed)),
            score_clients: 4,
            requests_per_client: 40,
            ingest_batches: 3,
            retry: chaos_retry_policy(),
            tier: Tier::F32,
        });
        // Optional CI artifact: the full metrics registry (fault counts,
        // ledgers, retries) as JSON lines, one file per seed.
        if let Ok(dir) = std::env::var("CHAOS_METRICS_DIR") {
            let path = std::path::Path::new(&dir).join(format!("chaos_seed_{seed}.jsonl"));
            taxo_obs::report::write_json_lines(&path).expect("write chaos metrics artifact");
        }
        assert_eq!(
            report.violations,
            Vec::<String>::new(),
            "seed {seed} violated serving invariants"
        );
        assert_eq!(report.ok_responses, 4 * 40, "seed {seed}");
        assert_eq!(report.final_version, 3, "seed {seed}");
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
    let _g = sim_lock();
    // Same invariants, second serving tier: under a seeded chaos plan
    // every int8 response must still be answered exactly once
    // (accepted == completed ledgers, checked inside `simulate`), name
    // only versions the offline replay built, and be bit-identical to
    // that version's offline **quant** replay — quantization changes the
    // scores, never the serving semantics.
    // Only int8 requests that miss both caches push score jobs — a few
    // per snapshot version here — so saturation is simulated densely
    // enough to fire on this run.
    let report = simulate(SimConfig {
        seed: 2,
        plan: Some(chaos_plan(2).with(
            "serve.queue.score.push",
            Trigger::Nth(3),
            FaultAction::Fail,
        )),
        score_clients: 3,
        requests_per_client: 30,
        ingest_batches: 2,
        retry: chaos_retry_policy(),
        tier: Tier::Int8,
    });
    assert_eq!(
        report.violations,
        Vec::<String>::new(),
        "int8 tier violated serving invariants under chaos"
    );
    assert_eq!(report.ok_responses, 3 * 30);
    assert_eq!(report.final_version, 2);
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
            .get("fault.injected.serve.queue.score.push")
            .is_some_and(|&n| n > 0),
        "score-queue saturation must fire on the int8 lane: {:?}",
        report.injected
    );
    assert!(report.retries > 0, "chaos this dense must force retries");
}

#[test]
fn per_request_timeouts_recover_from_stalled_responses() {
    let _g = sim_lock();
    let report = simulate(SimConfig {
        seed: 11,
        // Every 3rd response write stalls far past the request timeout:
        // the client must abandon the attempt, reconnect, and retry.
        plan: Some(FaultPlan::new(11).with(
            "serve.conn.write",
            Trigger::Nth(3),
            FaultAction::Delay(400),
        )),
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
        tier: Tier::F32,
    });
    assert_eq!(report.violations, Vec::<String>::new());
    assert_eq!(report.ok_responses, 5);
    assert!(report.timeouts >= 1, "the stalled writes must time out");
    assert!(report.retries >= 1);
}

#[test]
fn same_seed_and_plan_give_identical_injection_counts() {
    let _g = sim_lock();
    // Deterministic-chaos scenario: one sequential client and hit-count
    // (`nth`) triggers only, so the number of hits at every point — and
    // therefore every injection decision — is interleaving-independent.
    let run = || {
        simulate(SimConfig {
            seed: 7,
            plan: Some(
                FaultPlan::new(7)
                    .with("serve.conn.write", Trigger::Nth(7), FaultAction::Fail)
                    .with("serve.accept", Trigger::Nth(5), FaultAction::Fail),
            ),
            score_clients: 1,
            requests_per_client: 60,
            ingest_batches: 0,
            retry: chaos_retry_policy(),
            tier: Tier::F32,
        })
    };
    let first = run();
    let second = run();
    assert_eq!(first.violations, Vec::<String>::new());
    assert_eq!(second.violations, Vec::<String>::new());
    assert_eq!(
        first.injected, second.injected,
        "same seed + same plan must inject identically"
    );
    assert_eq!(first.retries, second.retries);
    assert!(
        first.injected.values().any(|&v| v > 0),
        "the nth triggers must actually fire: {:?}",
        first.injected
    );
}

#[test]
fn faultless_simulation_is_clean_and_injects_nothing() {
    let _g = sim_lock();
    let report = simulate(SimConfig {
        seed: 2,
        plan: None,
        score_clients: 2,
        requests_per_client: 25,
        ingest_batches: 2,
        retry: chaos_retry_policy(),
        tier: Tier::F32,
    });
    assert_eq!(report.violations, Vec::<String>::new());
    assert_eq!(report.ok_responses, 50);
    assert_eq!(report.final_version, 2);
    assert!(report.injected.is_empty(), "{:?}", report.injected);
    assert_eq!(report.timeouts, 0);
}
