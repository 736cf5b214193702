//! Crash-twin recovery proofs for the durable serving path.
//!
//! Each scenario runs a WAL-enabled server, kills it mid-ingest with a
//! seeded taxo-fault plan (append failure, torn append, fsync failure —
//! plus a tolerated checkpoint-write failure), recovers the durability
//! directory onto the same address, and checks the history: the
//! recovered state must be **bit-identical** to the uncrashed model that
//! applied the same committed batches — same batch count, same candidate
//! pairs, same taxonomy edges — and every score served afterwards
//! bit-identical too. The acked-version ledger must be a dense prefix of
//! the recovered version: acks never outrun durability — also when one
//! WAL commit group carries several ingests across a checkpoint.

use std::sync::Arc;
use std::time::Duration;
use taxo_core::TaxoError;
use taxo_serve::durable::{STATE_FILE, WAL_FILE};
use taxo_serve::{
    Client, DurabilityConfig, FsyncPolicy, RetryPolicy, ServeConfig, ServeError, Server,
    ServerHandle,
};
use taxo_sim::{Ack, Fixture, Fleet, ScratchDir, Split};

/// The config field a refused bind names.
fn invalid_field(bind: Result<ServerHandle, ServeError>) -> String {
    match bind {
        Err(ServeError::Config(TaxoError::InvalidConfig { field, .. })) => field,
        Err(other) => panic!("expected a field-named InvalidConfig, got {other}"),
        Ok(_) => panic!("an invalid config must not bind"),
    }
}

/// One full crash-twin scenario: serve durably, crash via `plan`,
/// recover, then resume serving from the recovered state and ingest the
/// remaining batches.
fn crash_twin_scenario(seed: u64, plan: &str, fsync: FsyncPolicy, expect_torn: bool) {
    let fixture = Fixture::new(seed);
    let batches = fixture.batches(8, Split::Contiguous);
    let mut fleet = Fleet::standalone(&fixture).wal(fsync, 3).start();
    let history = fleet.history();

    // --- the crashing server ---
    taxo_fault::arm(taxo_fault::FaultPlan::parse(plan).expect("valid plan"));
    let mut client = Client::builder(fleet.addr())
        .retry(RetryPolicy {
            max_attempts: 4,
            request_timeout: Duration::from_secs(10),
            ..RetryPolicy::default()
        })
        .build();
    // The crash drops our ack or closes the queues; everything after it
    // is unacked.
    let acked = batches
        .iter()
        .take_while(|b| matches!(history.ingest(&mut client, b), Ack::Ok(_)))
        .count();
    assert!(
        acked < batches.len(),
        "the fault plan must crash the server before all batches land"
    );
    assert!(
        fleet.await_crash().is_some(),
        "an injected WAL fault must crash, seed {seed}"
    );
    taxo_fault::disarm();
    drop(client);

    // --- recovery ---
    let report = fleet.recover(0, &fixture.detector);
    assert!(
        report.final_version <= acked as u64 + 1,
        "recovery cannot invent batches, seed {seed}"
    );
    assert_eq!(
        report.truncated_bytes > 0,
        expect_torn,
        "torn-tail expectation, seed {seed}"
    );

    // --- resume serving from the recovered state ---
    let mut client = Client::connect(fleet.addr()).unwrap();
    for batch in &batches[report.final_version as usize..] {
        let ack = history.ingest(&mut client, batch);
        assert!(
            matches!(ack, Ack::Ok(_)),
            "no faults armed: every remaining batch lands, seed {seed}: {ack:?}"
        );
    }
    assert!(!fleet.shard(0).crashed());
    drop(client);

    // A second recovery sees the complete history…
    let report_all = fleet.recover(0, &fixture.detector);
    assert_eq!(report_all.final_version, batches.len() as u64);
    // …and a graceful shutdown checkpoints everything: nothing replays.
    assert_eq!(report_all.replayed_ops, 0, "clean stop leaves no WAL tail");
    let mut client = Client::connect(fleet.addr()).unwrap();
    for &q in &fixture.queries {
        history.score(&mut client, q, None);
    }
    assert_eq!(fleet.check().ok, fixture.queries.len());
}

#[test]
fn crash_on_append_failure_recovers_bit_identically() {
    crash_twin_scenario(
        21,
        "seed=21;serve.wal.append=once:4:fail",
        FsyncPolicy::Always,
        false,
    );
}

#[test]
fn crash_on_torn_append_truncates_and_recovers_bit_identically() {
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
    // The checkpoint-write fault at version 3 is *tolerated* (the WAL
    // retains everything); the fsync fault at commit 5 is the crash.
    crash_twin_scenario(
        23,
        "seed=23;serve.wal.snapshot=once:2:fail;serve.wal.fsync=once:5:fail",
        FsyncPolicy::default(),
        false,
    );
}

/// Three ingests pipelined into one commit group carry the version
/// across the checkpoint at 2; then the fourth ingest crashes the server
/// through `plan`. Every acked version must survive recovery: the
/// checkpoint covers the whole group, so it is written at version 3.
/// Returns the recovery report.
fn crash_after_a_group_across_a_checkpoint(plan: &str) -> taxo_serve::RecoveryReport {
    let fixture = Fixture::new(31);
    let batches = fixture.batches(4, Split::Contiguous);
    let fsync = FsyncPolicy::Batch {
        max_ops: 8,
        max_delay: Duration::from_millis(300),
    };
    let mut fleet = Fleet::standalone(&fixture).wal(fsync, 2).start();
    let history = fleet.history();
    let acks = history.ingest_pipelined(fleet.addr(), &batches[..3]);
    assert_eq!(acks, [1, 2, 3].map(|v| Ack::Ok(vec![v])));
    assert_eq!(
        taxo_sim::counter("serve.wal.fsyncs"),
        1,
        "the three ingests share one commit group"
    );

    taxo_fault::arm(taxo_fault::FaultPlan::parse(plan).expect("valid plan"));
    let mut client = Client::connect(fleet.addr()).unwrap();
    let ack = history.ingest(&mut client, &batches[3]);
    assert!(
        matches!(ack, Ack::Lost(_)),
        "the fourth ingest crashes: {ack:?}"
    );
    assert!(
        fleet.await_crash().is_some(),
        "{plan} must crash the server"
    );
    taxo_fault::disarm();
    drop(client);

    let report = fleet.recover(0, &fixture.detector);
    fleet.check();
    report
}

#[test]
fn acks_of_a_commit_group_survive_a_crash_on_the_next_append() {
    let report = crash_after_a_group_across_a_checkpoint("seed=31;serve.wal.append=once:1:fail");
    assert_eq!(
        (report.snapshot_version, report.final_version),
        (3, 3),
        "{report:?}"
    );
}

#[test]
fn acks_of_a_commit_group_survive_a_crash_on_the_next_fsync() {
    // The fourth op reached the log before its fsync failed, so recovery
    // replays it on top of the checkpoint.
    let report = crash_after_a_group_across_a_checkpoint("seed=31;serve.wal.fsync=once:1:fail");
    assert_eq!(
        (report.snapshot_version, report.final_version),
        (3, 4),
        "{report:?}"
    );
}

/// Every checkpoint replaces one state file: after the checkpoints at
/// bind and at versions 8, 16 and 24, the directory holds the WAL and
/// that file. A graceful stop at version 24 writes nothing more: the
/// file already covers the whole log.
#[test]
fn checkpoints_keep_one_state_file_beside_the_wal() {
    let fixture = Fixture::new(31);
    let batches = fixture.batches(24, Split::Contiguous);
    let mut fleet = Fleet::standalone(&fixture)
        .wal(FsyncPolicy::default(), 8)
        .start();
    let history = fleet.history();
    let mut client = Client::connect(fleet.addr()).unwrap();
    for batch in &batches {
        let ack = history.ingest(&mut client, batch);
        assert!(matches!(ack, Ack::Ok(_)), "ingest rejected: {ack:?}");
    }
    // An ack does not wait for its group's checkpoint; an export rides
    // the ingest queue behind it, so it returns once the checkpoint is
    // written.
    let (version, _) = fleet.shard(0).controller().export_state().unwrap();
    assert_eq!(version, 24);
    assert_eq!(
        taxo_sim::counter("serve.wal.snapshots"),
        4,
        "checkpoints at bind and at versions 8, 16 and 24"
    );
    let files = |fleet: &Fleet| {
        let mut names: Vec<String> = std::fs::read_dir(fleet.dir(0))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };
    assert_eq!(files(&fleet), [STATE_FILE, WAL_FILE]);
    drop(client);
    fleet.stop();
    assert_eq!(
        taxo_sim::counter("serve.wal.snapshots"),
        4,
        "the stop at version 24 rewrote a state file already at 24"
    );
    assert_eq!(files(&fleet), [STATE_FILE, WAL_FILE]);
    let report = fleet.recover(0, &fixture.detector);
    assert_eq!((report.final_version, report.replayed_ops), (24, 0));
    fleet.check();
}

/// A graceful stop between checkpoints still writes the state file:
/// after 20 ingests at `snapshot_every` 8 the file stands at 16, the stop
/// checkpoints version 20, and recovery replays nothing.
#[test]
fn a_graceful_stop_between_checkpoints_writes_the_state_file() {
    let fixture = Fixture::new(31);
    let batches = fixture.batches(20, Split::Contiguous);
    let mut fleet = Fleet::standalone(&fixture)
        .wal(FsyncPolicy::default(), 8)
        .start();
    let history = fleet.history();
    let mut client = Client::connect(fleet.addr()).unwrap();
    for batch in &batches {
        let ack = history.ingest(&mut client, batch);
        assert!(matches!(ack, Ack::Ok(_)), "ingest rejected: {ack:?}");
    }
    let (version, _) = fleet.shard(0).controller().export_state().unwrap();
    assert_eq!(version, 20);
    assert_eq!(
        taxo_sim::counter("serve.wal.snapshots"),
        3,
        "checkpoints at bind and at versions 8 and 16"
    );
    drop(client);
    fleet.stop();
    assert_eq!(
        taxo_sim::counter("serve.wal.snapshots"),
        4,
        "the stop at version 20 checkpoints"
    );
    let report = fleet.recover(0, &fixture.detector);
    assert_eq!((report.final_version, report.replayed_ops), (20, 0));
    fleet.check();
}

/// Group commit under concurrent ingest writers: every acked batch
/// survives a graceful stop and replays to the exact served state.
#[test]
fn concurrent_ingest_commits_survive_restart() {
    let fixture = Fixture::new(31);
    let batches = fixture.batches(6, Split::Contiguous);
    let fsync = FsyncPolicy::Batch {
        max_ops: 8,
        max_delay: Duration::from_millis(5),
    };
    // Rare checkpoints force recovery to replay the WAL.
    let mut fleet = Fleet::standalone(&fixture).wal(fsync, 100).start();
    let history = fleet.history();
    let addr = fleet.addr();

    // Concurrent writers: commit groups may batch several ops per fsync.
    // Each writer acks its own batch; together they must produce the
    // versions 1..=N in *some* order (the checker's dense ledger).
    std::thread::scope(|scope| {
        for batch in &batches {
            let history = &history;
            scope.spawn(move || {
                let mut client = Client::builder(addr).retry(RetryPolicy::default()).build();
                let ack = history.ingest(&mut client, batch);
                assert!(matches!(ack, Ack::Ok(_)), "ingest rejected: {ack:?}");
            });
        }
    });

    // Score every query the live state can score, stop, recover, and
    // score them again.
    let cap = ServeConfig::default().max_candidates;
    let live = fleet.shard(0).store().load();
    let queries: Vec<_> = (fixture.vocab.ids())
        .filter(|&q| !live.eligible(q, cap).is_empty())
        .collect();
    assert!(queries.len() >= 10, "need a non-trivial query universe");
    let mut client = Client::connect(addr).unwrap();
    for &q in &queries {
        history.score(&mut client, q, None);
    }
    drop(client);
    let report = fleet.recover(0, &fixture.detector);
    assert_eq!(report.final_version, batches.len() as u64);
    let mut client = Client::connect(addr).unwrap();
    for &q in &queries {
        history.score(&mut client, q, None);
    }
    let summary = fleet.check();
    assert_eq!(summary.versions, [batches.len() as u64]);
    assert_eq!(summary.ok, 2 * queries.len());
}

#[test]
fn builder_rejects_invalid_configs_with_field_names() {
    let fixture = Fixture::new(41);
    let bind = |cfg: ServeConfig, durability: DurabilityConfig| {
        Server::builder(fixture.expander(), Arc::clone(&fixture.vocab))
            .config(cfg)
            .durability(durability)
            .bind("127.0.0.1:0")
    };
    let bad = ServeConfig {
        reactor_threads: 0,
        ..ServeConfig::default()
    };
    assert_eq!(
        invalid_field(bind(bad, DurabilityConfig::Volatile)),
        "serve.reactor_threads"
    );
    let unused = ScratchDir::new("unused");
    let bad_durability = DurabilityConfig::Wal {
        dir: unused.path().to_path_buf(),
        fsync: FsyncPolicy::Batch {
            max_ops: 0,
            max_delay: Duration::from_millis(2),
        },
        snapshot_every: 3,
    };
    assert_eq!(
        invalid_field(bind(ServeConfig::default(), bad_durability)),
        "durability.fsync.max_ops"
    );
}

#[test]
fn recovering_nothing_and_shadowing_a_manifest_both_fail_loudly() {
    let fixture = Fixture::new(51);

    // Recovery of a directory no server ever used is an error, not an
    // empty success.
    let unused = ScratchDir::new("unused");
    let detector = || fixture.detector.clone();
    match Server::recover(
        unused.path(),
        detector(),
        fixture.expansion.clone(),
        &fixture.vocab,
    ) {
        Err(err) => assert!(
            err.to_string().contains("no state file"),
            "unexpected error: {err}"
        ),
        Ok(_) => panic!("recovering an unused directory must fail"),
    }

    // A fresh bind into a directory that already has a state file must
    // be refused — silently shadowing durable state loses it.
    let mut fleet = Fleet::standalone(&fixture)
        .wal(FsyncPolicy::default(), 8)
        .start();
    fleet.stop();
    let shadow = Server::builder(fixture.expander(), Arc::clone(&fixture.vocab))
        .durability(DurabilityConfig::wal(fleet.dir(0)))
        .bind("127.0.0.1:0");
    assert_eq!(invalid_field(shadow), "durability.dir");

    // The guarded state is still recoverable afterwards.
    let report = fleet.recover(0, &fixture.detector);
    assert_eq!(report.final_version, 0);
    fleet.check();
}
