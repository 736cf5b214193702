//! Seeded chaos for the router tier. Every fleet holds the process-global
//! fault/metrics lock, and every history goes through `taxo_sim::check`
//! (bit-identity per served version, one version per burst, dense and
//! unique acks per shard, recovery reaching every ack).
//!
//! * **Upstream transport chaos** — injected connect refusals, lost
//!   responses, and slow shards on the router→shard connections. Scores
//!   are idempotent, so the router's whole-burst retry must absorb every
//!   injected failure: each non-busy response is bit-identical to the
//!   model, with zero tolerance for desynchronized frames.
//! * **Shard crash mid-run** — a WAL fsync fault crashes one durable
//!   shard mid two-phase ingest while a reader hammers scores through
//!   the router. The shard recovers and rebinds the same address; the
//!   ledgers must be exactly-once per shard (dense versions, nothing lost
//!   below an ack, nothing applied twice) and every served score —
//!   during the chaos and after the recovery — bit-identical to the
//!   model replaying the same applied partitions.
//! * **Wedged prepare** — a lost commit frame leaves one durable shard
//!   holding a prepared ingest unpublished. The held snapshot must not
//!   leak, the router's commit probe must clear the wedge on the next
//!   routed ingest, and no burst — score or ingest — may ever be
//!   accepted with mixed versions.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use taxo_core::json::Value;
use taxo_serve::{Client, FsyncPolicy, Reply, RetryPolicy};
use taxo_sim::{Ack, Fixture, Fleet, Served, Split, StopOnDrop};
use taxo_synth::ClickRecord;

const SEED: u64 = 33;

/// A routed WAL fleet whose checkpoints are rare: recovery must come
/// from WAL replay.
fn durable_fleet(fixture: &Fixture) -> Fleet<'_> {
    Fleet::routed(fixture).wal(FsyncPolicy::Always, 100).start()
}

/// `n` stride batches of the unseen half. Each must genuinely span both
/// shards so the fsync-hit arithmetic (2 prepares per batch, shard 0
/// first) holds.
fn spanning_batches(fleet: &Fleet, n: usize) -> Vec<Vec<ClickRecord>> {
    let model = fleet.model();
    let batches = fleet.fixture.batches(n, Split::Stride);
    for (j, b) in batches.iter().enumerate() {
        let shards: BTreeSet<usize> = b.iter().map(|r| model.shard_of(r.query)).collect();
        assert_eq!(shards.len(), 2, "batch {j} must span both shards");
    }
    batches
}

fn health_status(client: &mut Client) -> Option<String> {
    let Ok(Reply::Ok(health)) = client.health() else {
        return None;
    };
    health
        .get("status")
        .and_then(Value::as_str)
        .map(str::to_owned)
}

/// Injected transport failures on the shard connections must be
/// invisible in the payloads: every non-busy score response the router
/// returns is bit-identical to the model, even while connects are
/// refused, responses are dropped mid-pipeline, and shards stall. A
/// dropped response that desynchronized a reused connection would pair
/// query A with query B's candidates — the checker catches exactly that.
#[test]
fn scores_absorb_injected_upstream_faults_bit_identically() {
    let fixture = Fixture::new(SEED);
    let fleet = Fleet::routed(&fixture).start();
    let history = fleet.history();
    let (q0, q1) = (fleet.query_on(0), fleet.query_on(1));
    taxo_fault::arm(
        taxo_fault::FaultPlan::parse(
            "seed=5;router.upstream.read=nth:7:fail;\
             router.upstream.connect=nth:9:fail;\
             router.upstream.slow=nth:5:delay:2",
        )
        .unwrap(),
    );

    // Pipelined two-shard bursts on one raw connection: the hardest
    // shape for a desync bug to hide in.
    let stream = TcpStream::connect(fleet.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let frame = format!(
        "{{\"kind\":\"score\",\"id\":1,\"query\":{}}}\n\
         {{\"kind\":\"score\",\"id\":2,\"query\":{}}}\n",
        taxo_core::json::encode(&Value::Str(fixture.vocab.name(q0).to_owned())),
        taxo_core::json::encode(&Value::Str(fixture.vocab.name(q1).to_owned())),
    );
    let (mut ok_bursts, mut busy) = (0usize, 0usize);
    for _ in 0..150 {
        writer.write_all(frame.as_bytes()).unwrap();
        let burst = history.new_burst();
        let served: Vec<Served> = [q0, q1]
            .map(|q| {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                let served = history.line(q, Some(burst), &line);
                assert!(
                    matches!(served, Served::Ok { .. } | Served::Busy),
                    "only busy is an acceptable surface for injected faults: {line}"
                );
                served
            })
            .into();
        if served.iter().all(|s| s.ok().is_some()) {
            ok_bursts += 1;
        } else {
            busy += 1;
        }
    }
    taxo_fault::disarm();
    assert!(
        taxo_sim::counter("serve.router.shard_retries") > 0,
        "the plan must actually exercise the retry path"
    );
    assert!(
        ok_bursts >= 100,
        "most bursts must survive the chaos (ok {ok_bursts}, busy {busy})"
    );

    // Chaos off: the connection and both shards are fully usable again.
    let mut client = Client::connect(fleet.addr()).unwrap();
    let served = history.score(&mut client, q0, None);
    assert!(served.ok().is_some(), "post-chaos score failed: {served:?}");
    client.shutdown().unwrap();
    fleet.check();
}

/// The crash scenario. A `serve.wal.fsync` fault kills shard 0 at the
/// prepare of batch 4 (hit 7 = batch 4's first prepare; shard 0
/// prepares first). The driver never resends the ambiguous batch —
/// exactly-once is the client contract — so the checker's ledgers must
/// come out:
///
/// * shard 1 (survivor): versions dense `1..=acked`, batch 4 never
///   applied (the swap broke before its prepare);
/// * shard 0 (crashed): recovery lands in `[acked, sent]` — batches
///   1–3 guaranteed, batch 4 iff its unsynced append reached the disk —
///   and resumes densely from there.
#[test]
fn shard_crash_mid_burst_recovers_exactly_once_and_bit_identical() {
    let fixture = Fixture::new(SEED);
    let mut fleet = durable_fleet(&fixture);
    let batches = spanning_batches(&fleet, 10);
    let (q0, q1) = (fleet.query_on(0), fleet.query_on(1));
    let history = fleet.history();
    let addr = fleet.addr();

    // A reader hammers both shards through the router for the whole
    // run, including the crash window; busy (dead shard) is the only
    // acceptable failure surface.
    let stop = AtomicBool::new(false);
    let report = std::thread::scope(|scope| {
        let _stop = StopOnDrop(&stop);
        let reader = scope.spawn(|| {
            let mut client = Client::builder(addr)
                .retry(RetryPolicy {
                    max_attempts: 3,
                    request_timeout: Duration::from_secs(10),
                    ..RetryPolicy::default()
                })
                .build();
            let mut flip = false;
            while !stop.load(Ordering::Relaxed) {
                flip = !flip;
                let served = history.score(&mut client, if flip { q0 } else { q1 }, None);
                // A transport hiccup reconnects through the retry policy.
                if let Served::Refused(reply) = served {
                    panic!("unexpected reply under chaos: {reply}");
                }
            }
        });

        // Crash at batch 4: fsync hits 1..6 are batches 1–3 (two
        // prepares each), hit 7 is shard 0's prepare of batch 4.
        taxo_fault::arm(
            taxo_fault::FaultPlan::parse("seed=77;serve.wal.fsync=once:7:fail").unwrap(),
        );
        let mut ingester = Client::connect(addr).unwrap();
        let crashed_at = batches
            .iter()
            .position(|b| !matches!(history.ingest(&mut ingester, b), Ack::Ok(_)));
        assert_eq!(crashed_at, Some(3), "hit 7 is batch 4 (index 3)");
        assert_eq!(
            fleet.await_crash(),
            Some(0),
            "shard 0 must be the crash victim"
        );
        assert!(!fleet.shard(1).crashed(), "shard 1 must survive");
        taxo_fault::disarm();

        // SIGKILL analog complete: reap the dead shard, recover its
        // durability directory, and rebind the *same* address so the
        // router's shard list stays valid.
        let report = fleet.recover(0, &fixture.detector);
        assert!(
            (3..=4).contains(&report.final_version),
            "recovery lands in [acked, sent]: got {}",
            report.final_version
        );

        // The ambiguous batch 4 is never resent; the rest of the
        // traffic flows through the recovered twin.
        for (j, batch) in batches.iter().enumerate().skip(4) {
            let ack = history.ingest(&mut ingester, batch);
            assert!(
                matches!(ack, Ack::Ok(_)),
                "post-recovery ingest failed for batch {j}: {ack:?}"
            );
        }
        std::thread::sleep(Duration::from_millis(50));
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("reader panicked");
        report
    });
    let crash_window_scores = history
        .transcript()
        .iter()
        .filter(|(_, s)| s.ok().is_some_and(|(v, _)| (1..4).contains(&v)))
        .count();
    assert!(
        crash_window_scores > 0,
        "the reader must have observed mid-run versions"
    );

    // Post-recovery scores through the router hit the recovered twin.
    let mut client = Client::connect(addr).unwrap();
    let served = history.score(&mut client, q0, None);
    assert_eq!(
        served.ok().map(|(v, _)| v),
        Some(report.final_version + 6),
        "recovered shard serves its final version"
    );
    history.score(&mut client, q1, None);
    // Merged health sees both shards serving again.
    assert_eq!(health_status(&mut client).as_deref(), Some("serving"));
    client.shutdown().unwrap();
    let summary = fleet.check();
    assert_eq!(summary.versions, [report.final_version + 6, 9]);
}

/// Wedges shard 1 of a routed WAL fleet whose ingests go through
/// `ingester`. Two clean swaps commit at `[1,1]` and `[2,2]`. In the
/// third (`batches[2]`), the commit frame to shard 1 is lost (write hit
/// 4: the two prepares and shard 0's commit pass) and every reconnect is
/// refused, so the router gives up with `partial_ingest`: shard 0
/// published version 3, and shard 1 holds its prepared version 3
/// unpublished. The history records that ingest as lost. Bursts before
/// the wedge carry one version, and the held prepare does not leak:
/// shard 1 keeps serving version 2.
fn wedge_shard_1(fleet: &Fleet, ingester: &mut Client, batches: &[Vec<ClickRecord>]) {
    let (q0, q1) = (fleet.query_on(0), fleet.query_on(1));
    let history = fleet.history();
    let (ctl0, ctl1) = (fleet.shard(0).controller(), fleet.shard(1).controller());
    for (j, batch) in batches.iter().take(2).enumerate() {
        assert_eq!(
            history.ingest(ingester, batch),
            Ack::Ok(vec![j as u64 + 1; 2]),
            "ingest burst {j} must commit one uniform version"
        );
    }
    let mut burst_client = Client::connect(fleet.addr()).unwrap();
    let served = history.burst(&mut burst_client, &[q0, q1]);
    let versions: Vec<_> = served.iter().map(|s| s.ok().map(|(v, _)| v)).collect();
    assert_eq!(versions, [Some(2), Some(2)]);

    // The wedge: shard 1's commit frame is lost, and so is every retry
    // and health probe, because no reconnect succeeds.
    taxo_fault::arm(
        taxo_fault::FaultPlan::parse(
            "seed=3;router.upstream.write=once:4:fail;router.upstream.connect=always:fail",
        )
        .unwrap(),
    );
    let ack = history.ingest(ingester, &batches[2]);
    taxo_fault::disarm();
    assert!(
        matches!(&ack, Ack::Lost(reply) if reply.contains("partial_ingest")),
        "the router must give up on shard 1's commit: {ack:?}"
    );
    assert_eq!((ctl0.version(), ctl1.version()), (3, 2));
    let (prepared, _) = ctl1.export_state().expect("export shard 1's state");
    assert_eq!(prepared, 3, "shard 1 holds its prepared version 3");
    let mut client = Client::connect(fleet.addr()).unwrap();
    for (q, version) in [(q0, 3), (q1, 2)] {
        let served = history.score(&mut client, q, None);
        assert_eq!(
            served.ok().map(|(v, _)| v),
            Some(version),
            "a held prepare must stay unpublished"
        );
    }
}

/// A wedged ingest prepare (see `wedge_shard_1`), cleared by the next
/// routed ingest that spans both shards.
///
/// * The next routed ingest clears the wedge through the router's
///   commit probe — shard 1 answers `prepare_pending`, the probe
///   publishes its version 3, the retried prepare lands — and commits
///   one uniform version, `[4,4]`.
/// * Bursts after the heal carry one version per shard, and once the
///   lost ingest is settled as applied at `[3,3]` the checker holds
///   every response to the model.
#[test]
fn wedged_ingest_prepare_is_cleared_by_the_next_routed_ingest() {
    let fixture = Fixture::new(SEED);
    let fleet = durable_fleet(&fixture);
    let batches = spanning_batches(&fleet, 4);
    let (q0, q1) = (fleet.query_on(0), fleet.query_on(1));
    let history = fleet.history();

    // Every ingest goes through one client connection, so its router
    // thread keeps both shard connections open: until a write fails, no
    // swap below reconnects.
    let mut ingester = Client::connect(fleet.addr()).unwrap();
    wedge_shard_1(&fleet, &mut ingester, &batches);
    let mut burst_client = Client::connect(fleet.addr()).unwrap();
    let mut burst = || -> Vec<Option<u64>> {
        let served = history.burst(&mut burst_client, &[q0, q1]);
        served.iter().map(|s| s.ok().map(|(v, _)| v)).collect()
    };
    let mut client = Client::connect(fleet.addr()).unwrap();

    // The heal: shard 1 refuses the prepare with `prepare_pending`, the
    // router's commit probe publishes the held version 3, the retried
    // prepare lands, and the swap commits uniformly.
    let committed = taxo_sim::counter("serve.ingest.committed");
    assert_eq!(
        history.ingest(&mut ingester, &batches[3]),
        Ack::Ok(vec![4, 4]),
        "the healing swap must commit one uniform version"
    );
    assert_eq!(
        taxo_sim::counter("serve.ingest.committed"),
        committed + 3,
        "the probe's commit of the held prepare plus the swap's two"
    );
    assert_eq!(burst(), [Some(4), Some(4)]);
    assert_eq!(health_status(&mut client).as_deref(), Some("serving"));
    client.shutdown().unwrap();

    // Shard 0 committed the lost batch at 3 in the wedged swap, and the
    // probe published shard 1's at 3.
    history.settle(Some(vec![3, 3]));
    assert_eq!(fleet.check().versions, [4, 4]);
}

/// The same wedge, cleared by a routed ingest whose records all hash to
/// the wedged shard: the router sends it to shard 1 alone, which refuses
/// it with `prepare_pending`; the router commits the held version 3
/// through the same probe, adopts it, and resends the batch, which
/// publishes at 4. Once the lost ingest is settled as applied at
/// `[3,3]`, the checker holds every response to the model.
#[test]
fn wedged_ingest_prepare_is_cleared_by_a_single_shard_routed_ingest() {
    let fixture = Fixture::new(SEED);
    let fleet = durable_fleet(&fixture);
    let batches = spanning_batches(&fleet, 4);
    let (q0, q1) = (fleet.query_on(0), fleet.query_on(1));
    let history = fleet.history();
    let mut ingester = Client::connect(fleet.addr()).unwrap();
    wedge_shard_1(&fleet, &mut ingester, &batches);

    let model = fleet.model();
    let on_shard_1: Vec<ClickRecord> = batches[3]
        .iter()
        .filter(|r| model.shard_of(r.query) == 1)
        .cloned()
        .collect();
    assert!(!on_shard_1.is_empty(), "batch 3 has records on shard 1");
    let committed = taxo_sim::counter("serve.ingest.committed");
    assert_eq!(
        history.ingest(&mut ingester, &on_shard_1),
        Ack::Ok(vec![4]),
        "the single-shard ingest must clear the wedge and publish"
    );
    assert_eq!(
        taxo_sim::counter("serve.ingest.committed"),
        committed + 1,
        "the probe's commit of the held prepare"
    );
    let (ctl0, ctl1) = (fleet.shard(0).controller(), fleet.shard(1).controller());
    assert_eq!((ctl0.version(), ctl1.version()), (3, 4));
    let mut client = Client::connect(fleet.addr()).unwrap();
    for (q, version) in [(q0, 3), (q1, 4)] {
        let served = history.score(&mut client, q, None);
        assert_eq!(served.ok().map(|(v, _)| v), Some(version));
    }
    assert_eq!(health_status(&mut client).as_deref(), Some("serving"));
    client.shutdown().unwrap();

    history.settle(Some(vec![3, 3]));
    assert_eq!(fleet.check().versions, [3, 4]);
}
