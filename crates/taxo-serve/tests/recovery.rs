//! Crash-twin recovery proofs for the durable serving path.
//!
//! Each scenario runs a WAL-enabled server, kills it mid-ingest with a
//! seeded taxo-fault plan (append failure, torn append, fsync failure —
//! plus a tolerated snapshot-publish failure), recovers the durability
//! directory, and asserts the recovered state is **bit-identical** to an
//! uncrashed twin that applied the same committed batches in-process:
//! same batch count, same candidate pairs, same taxonomy edges, and
//! bit-identical scores for every scorable query. The acked-version
//! ledger must be a contiguous prefix of the recovered version — acks
//! never outrun durability.
//!
//! Fault plans are process-global, so every test here serializes on one
//! lock (the simulation-harness pattern).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;
use taxo_core::{TaxoError, Vocabulary};
use taxo_expand::{
    DetectorConfig, ExpansionConfig, HypoDetector, IncrementalExpander, RelationalConfig,
    RelationalModel,
};
use taxo_serve::{
    expected_key, Client, DurabilityConfig, FsyncPolicy, Reply, RetryPolicy, ServeConfig,
    ServeError, ServeSnapshot, Server,
};
use taxo_synth::{ClickConfig, ClickLog, World, WorldConfig};

fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A fresh durability directory per test case.
fn scratch_dir(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "taxo-serve-recovery-{name}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The deterministic serving fixture from the roundtrip suite: a
/// synthetic world, a vanilla detector, and an expander pre-seeded with
/// the first half of the click log. The second half is the ingest
/// traffic the crash interrupts.
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

/// Splits the unseen half of the click log into `n` ingest batches.
fn ingest_batches(log: &ClickLog, n: usize) -> Vec<&[taxo_synth::ClickRecord]> {
    let tail = &log.records[log.records.len() / 2..];
    let per = tail.len().div_ceil(n);
    tail.chunks(per).collect()
}

/// Wire form of one batch, exactly as a client would send it.
fn wire_batch(vocab: &Vocabulary, batch: &[taxo_synth::ClickRecord]) -> Vec<(String, String, u64)> {
    batch
        .iter()
        .map(|r| (vocab.name(r.query).to_owned(), r.item_text.clone(), r.count))
        .collect()
}

/// Bit-level fingerprint of an expander's full serving behavior: the
/// ranked `(term, score bits, attached)` key of every scorable query,
/// the sorted taxonomy edge set, and the batch count.
type BehaviorKey = (
    Vec<(String, Vec<(String, u32, bool)>)>,
    Vec<(u32, u32)>,
    usize,
);

fn behavior_key(
    version: u64,
    vocab: &Arc<Vocabulary>,
    detector: &HypoDetector,
    expander: &IncrementalExpander,
) -> BehaviorKey {
    let cap = ServeConfig::default().max_candidates;
    let k = ServeConfig::default().default_k;
    let pairs = expander.candidate_pairs();
    let snapshot = ServeSnapshot::build(
        version,
        Arc::clone(vocab),
        Arc::new(detector.clone()),
        expander.taxonomy().clone(),
        &pairs,
    );
    let mut queries: Vec<_> = pairs.iter().map(|p| p.query).collect();
    queries.sort_unstable();
    queries.dedup();
    let scores = queries
        .iter()
        .filter(|&&q| !snapshot.eligible(q, cap).is_empty())
        .map(|&q| {
            (
                vocab.name(q).to_owned(),
                expected_key(vocab, &snapshot.score_query(q, cap, k)),
            )
        })
        .collect();
    let mut edges: Vec<(u32, u32)> = expander
        .taxonomy()
        .edges()
        .map(|e| (e.parent.0, e.child.0))
        .collect();
    edges.sort_unstable();
    (scores, edges, expander.batches())
}

struct CrashRun {
    /// Versions the crashed server acked, in ack order.
    acked: Vec<u64>,
    batches_sent: usize,
}

/// Drives ingest traffic into `addr` until the server crashes (or all
/// batches land), returning the acked-version ledger.
fn drive_until_crash(
    addr: std::net::SocketAddr,
    vocab: &Vocabulary,
    batches: &[&[taxo_synth::ClickRecord]],
) -> CrashRun {
    let mut client = Client::builder(addr)
        .retry(RetryPolicy {
            max_attempts: 4,
            request_timeout: Duration::from_secs(10),
            ..RetryPolicy::default()
        })
        .build();
    let mut acked = Vec::new();
    let mut sent = 0usize;
    for batch in batches {
        sent += 1;
        match client.ingest(&wire_batch(vocab, batch)) {
            Ok(Reply::Ok(v)) => {
                let version = v
                    .get("version")
                    .and_then(taxo_serve::json::Value::as_u64)
                    .expect("ingest ack carries a version");
                acked.push(version);
            }
            // The crash: the server dropped our ack or closed the
            // queues. Everything after this point is unacked.
            Ok(Reply::Err { .. }) | Err(_) => break,
        }
    }
    CrashRun {
        acked,
        batches_sent: sent,
    }
}

/// One full crash-twin scenario: serve durably, crash via `plan`,
/// recover, compare against the uncrashed twin, then resume serving
/// from the recovered state and ingest the remaining batches.
fn crash_twin_scenario(seed: u64, plan: &str, fsync: FsyncPolicy, expect_torn: bool) {
    taxo_fault::disarm();
    let dir = scratch_dir("twin");
    let (vocab, expander, log) = fixture(seed);
    let detector = expander.detector().clone();
    let expansion_cfg = expander.expansion_config().clone();
    let batches = ingest_batches(&log, 8);

    // --- the crashing server ---
    let handle = Server::builder(expander, Arc::clone(&vocab))
        .durability(DurabilityConfig::Wal {
            dir: dir.clone(),
            fsync,
            snapshot_every: 3,
        })
        .bind("127.0.0.1:0")
        .expect("durable server binds");
    taxo_fault::arm(taxo_fault::FaultPlan::parse(plan).expect("valid plan"));
    let run = drive_until_crash(handle.addr(), &vocab, &batches);
    assert!(
        run.acked.len() < batches.len(),
        "the fault plan must crash the server before all batches land"
    );
    assert!(
        handle.crashed(),
        "an injected WAL fault must crash, seed {seed}"
    );
    handle.shutdown_and_join();
    taxo_fault::disarm();

    // Acks never outrun durability, and never skip: the ledger is
    // exactly 1..=A.
    let expected_ledger: Vec<u64> = (1..=run.acked.len() as u64).collect();
    assert_eq!(
        run.acked, expected_ledger,
        "acked ledger purity, seed {seed}"
    );

    // --- recovery ---
    let (recovered, report) =
        Server::recover(&dir, detector.clone(), expansion_cfg.clone(), &vocab)
            .expect("recovery succeeds");
    assert!(
        report.final_version >= run.acked.len() as u64,
        "recovery must reach at least every acked version \
         (acked {}, recovered {}), seed {seed}",
        run.acked.len(),
        report.final_version
    );
    assert!(
        report.final_version <= run.batches_sent as u64,
        "recovery cannot invent batches, seed {seed}"
    );
    assert_eq!(
        report.truncated_bytes > 0,
        expect_torn,
        "torn-tail expectation, seed {seed}"
    );

    // --- the uncrashed twin ---
    let (twin_vocab, mut twin, _) = fixture(seed);
    for batch in &batches[..report.final_version as usize] {
        twin.ingest(&twin_vocab, batch);
    }
    assert_eq!(
        behavior_key(report.final_version, &vocab, &detector, &recovered),
        behavior_key(report.final_version, &twin_vocab, &detector, &twin),
        "recovered state must be bit-identical to the uncrashed twin, seed {seed}"
    );

    // --- resume serving from the recovered state ---
    let resumed = Server::builder(recovered, Arc::clone(&vocab))
        .durability(DurabilityConfig::Wal {
            dir: dir.clone(),
            fsync,
            snapshot_every: 3,
        })
        .recovered(&report)
        .bind("127.0.0.1:0")
        .expect("recovered server resumes");
    let rest = &batches[report.final_version as usize..];
    let resumed_run = drive_until_crash(resumed.addr(), &vocab, rest);
    assert_eq!(
        resumed_run.acked.len(),
        rest.len(),
        "no faults armed: every remaining batch lands, seed {seed}"
    );
    // The version ledger continues from the recovered version — no reuse
    // and no gap across the crash.
    let expected_resumed: Vec<u64> =
        (report.final_version + 1..=report.final_version + rest.len() as u64).collect();
    assert_eq!(
        resumed_run.acked, expected_resumed,
        "resumed ledger, seed {seed}"
    );
    assert!(!resumed.crashed());
    resumed.shutdown_and_join();

    // A second recovery sees the complete history…
    let (recovered_all, report_all) =
        Server::recover(&dir, detector.clone(), expansion_cfg, &vocab)
            .expect("second recovery succeeds");
    assert_eq!(report_all.final_version, batches.len() as u64);
    // …and a graceful shutdown checkpoints everything: nothing replays.
    assert_eq!(report_all.replayed_ops, 0, "clean stop leaves no WAL tail");
    let (twin_vocab, mut twin_all, _) = fixture(seed);
    for batch in &batches {
        twin_all.ingest(&twin_vocab, batch);
    }
    assert_eq!(
        behavior_key(batches.len() as u64, &vocab, &detector, &recovered_all),
        behavior_key(batches.len() as u64, &twin_vocab, &detector, &twin_all),
        "full history is bit-identical to the never-crashed twin, seed {seed}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_on_append_failure_recovers_bit_identically() {
    let _g = test_lock();
    crash_twin_scenario(
        21,
        "seed=21;serve.wal.append=once:4:fail",
        FsyncPolicy::Always,
        false,
    );
}

#[test]
fn crash_on_torn_append_truncates_and_recovers_bit_identically() {
    let _g = test_lock();
    // Short(7) tears mid-header: seven bytes of the fifth frame reach
    // the disk and recovery must cut them off.
    crash_twin_scenario(
        22,
        "seed=22;serve.wal.append=once:5:short:7",
        FsyncPolicy::Batch {
            max_ops: 4,
            max_delay: Duration::from_millis(2),
        },
        true,
    );
}

#[test]
fn crash_on_fsync_failure_recovers_bit_identically() {
    let _g = test_lock();
    // The snapshot-publish fault at version 3 is *tolerated* (the WAL
    // retains everything); the fsync fault at commit 5 is the crash.
    crash_twin_scenario(
        23,
        "seed=23;serve.wal.snapshot=once:2:fail;serve.wal.fsync=once:5:fail",
        FsyncPolicy::default(),
        false,
    );
}

/// Group commit under concurrent ingest writers: every acked batch
/// survives a graceful stop and replays to the exact served state.
#[test]
fn concurrent_ingest_commits_survive_restart() {
    let _g = test_lock();
    taxo_fault::disarm();
    let dir = scratch_dir("group");
    let (vocab, expander, log) = fixture(31);
    let detector = expander.detector().clone();
    let expansion_cfg = expander.expansion_config().clone();
    let batches = ingest_batches(&log, 6);

    let handle = Server::builder(expander, Arc::clone(&vocab))
        .durability(DurabilityConfig::Wal {
            dir: dir.clone(),
            fsync: FsyncPolicy::Batch {
                max_ops: 8,
                max_delay: Duration::from_millis(5),
            },
            snapshot_every: 100, // force recovery to replay the WAL
        })
        .bind("127.0.0.1:0")
        .expect("durable server binds");
    let addr = handle.addr();

    // Concurrent writers: commit groups may batch several ops per fsync.
    // Each writer acks its own batch; together they must produce the
    // versions 1..=N in *some* order.
    let mut versions: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = batches
            .iter()
            .map(|batch| {
                let vocab = Arc::clone(&vocab);
                scope.spawn(move || {
                    let mut client = Client::builder(addr).retry(RetryPolicy::default()).build();
                    match client.ingest(&wire_batch(&vocab, batch)).expect("ingest") {
                        Reply::Ok(v) => v
                            .get("version")
                            .and_then(taxo_serve::json::Value::as_u64)
                            .expect("version in ack"),
                        other => panic!("ingest rejected: {other:?}"),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    versions.sort_unstable();
    let want: Vec<u64> = (1..=batches.len() as u64).collect();
    assert_eq!(versions, want, "every batch acked exactly once");

    // Fingerprint the live served state, then stop.
    let live = handle.store().load();
    assert_eq!(live.version, batches.len() as u64);
    handle.shutdown_and_join();

    let (recovered, report) =
        Server::recover(&dir, detector.clone(), expansion_cfg, &vocab).expect("recover");
    assert_eq!(report.final_version, batches.len() as u64);
    let cap = ServeConfig::default().max_candidates;
    let k = ServeConfig::default().default_k;
    let pairs = recovered.candidate_pairs();
    let snapshot = ServeSnapshot::build(
        report.final_version,
        Arc::clone(&vocab),
        Arc::new(detector),
        recovered.taxonomy().clone(),
        &pairs,
    );
    let mut queries: Vec<_> = pairs.iter().map(|p| p.query).collect();
    queries.sort_unstable();
    queries.dedup();
    let mut scorable = 0;
    for q in queries {
        if live.eligible(q, cap).is_empty() {
            continue;
        }
        scorable += 1;
        assert_eq!(
            expected_key(&vocab, &snapshot.score_query(q, cap, k)),
            expected_key(&vocab, &live.score_query(q, cap, k)),
            "recovered scores must match the live pre-restart snapshot"
        );
    }
    assert!(scorable >= 10, "need a non-trivial query universe");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn builder_rejects_invalid_configs_with_field_names() {
    let _g = test_lock();
    let (vocab, expander, _) = fixture(41);

    let bad = ServeConfig {
        reactor_threads: 0,
        ..ServeConfig::default()
    };
    match Server::builder(expander, Arc::clone(&vocab))
        .config(bad)
        .bind("127.0.0.1:0")
    {
        Err(ServeError::Config(TaxoError::InvalidConfig { field, .. })) => {
            assert_eq!(field, "serve.reactor_threads");
        }
        Err(other) => panic!("expected a field-named InvalidConfig, got {other}"),
        Ok(_) => panic!("an invalid config must not bind"),
    }

    let (_, expander, _) = fixture(41);
    let bad_durability = DurabilityConfig::Wal {
        dir: scratch_dir("unused"),
        fsync: FsyncPolicy::Batch {
            max_ops: 0,
            max_delay: Duration::from_millis(2),
        },
        snapshot_every: 3,
    };
    match Server::builder(expander, Arc::clone(&vocab))
        .durability(bad_durability)
        .bind("127.0.0.1:0")
    {
        Err(ServeError::Config(TaxoError::InvalidConfig { field, .. })) => {
            assert_eq!(field, "durability.fsync.max_ops");
        }
        Err(other) => panic!("expected a field-named InvalidConfig, got {other}"),
        Ok(_) => panic!("an invalid durability config must not bind"),
    }
}

#[test]
fn recovering_nothing_and_shadowing_a_manifest_both_fail_loudly() {
    let _g = test_lock();
    taxo_fault::disarm();
    let dir = scratch_dir("guards");
    let (vocab, expander, _) = fixture(51);
    let detector = expander.detector().clone();
    let expansion_cfg = expander.expansion_config().clone();

    // Recovery of a directory no server ever used is an error, not an
    // empty success.
    match Server::recover(&dir, detector.clone(), expansion_cfg.clone(), &vocab) {
        Err(err) => assert!(
            err.to_string().contains("no manifest"),
            "unexpected error: {err}"
        ),
        Ok(_) => panic!("recovering an unused directory must fail"),
    }

    // A fresh bind into a directory that already has a manifest must be
    // refused — silently shadowing durable state loses it.
    let handle = Server::builder(expander, Arc::clone(&vocab))
        .durability(DurabilityConfig::wal(dir.clone()))
        .bind("127.0.0.1:0")
        .expect("first durable bind");
    handle.shutdown_and_join();

    let (_, expander, _) = fixture(51);
    match Server::builder(expander, Arc::clone(&vocab))
        .durability(DurabilityConfig::wal(dir.clone()))
        .bind("127.0.0.1:0")
    {
        Err(ServeError::Config(TaxoError::InvalidConfig { field, .. })) => {
            assert_eq!(field, "durability.dir");
        }
        Err(other) => panic!("expected the manifest guard, got {other}"),
        Ok(_) => panic!("shadowing a manifest must not bind"),
    }

    // The guarded state is still recoverable afterwards.
    let (_, report) =
        Server::recover(&dir, detector, expansion_cfg, &vocab).expect("recovery still works");
    assert_eq!(report.final_version, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
