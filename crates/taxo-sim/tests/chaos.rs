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
//! * **Promotion under chaos** — the taxo-train control plane drives a
//!   two-phase multi-shard promotion of a retrained detector and
//!   `train.promote` kills one shard mid-commit (after its promotion op
//!   is durable, before the swap publishes). The router's commit-probe
//!   must resolve the survivor's wedged prepare, the crashed shard's
//!   WAL replay must converge on the promoted version, and no burst —
//!   score or ingest — may ever be accepted with mixed versions.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use taxo_core::json::Value;
use taxo_expand::DetectorConfig;
use taxo_serve::{Client, FsyncPolicy, IngestPhase, Reply, RetryPolicy};
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

/// Promotion under chaos. The trainer retrains a candidate from shard
/// 0's exported state and drives a coordinated two-phase promotion:
/// prepare on shard 0 (holds the promoted snapshot unpublished), prepare
/// on shard 1 — where `train.promote=once:2:fail` crashes the shard
/// *after* its promotion op is durable but *before* anything publishes.
///
/// Convergence is probe-resolved, using only machinery that already
/// exists: shard 1's WAL replay lands exactly on the promoted version
/// (the empty promotion op is past the ack barrier), and shard 0's
/// wedged prepare is cleared by the router's commit-probe when the next
/// multi-shard ingest arrives — `prepare_pending` → probe-commit (which
/// finally publishes the promoted snapshot) → retried prepare.
///
/// Version-mix assertions along the way (the checker holds each served
/// pair to the model, bit for bit):
/// * the prepared promotion never leaks: shard 0 serves version 3 with
///   pre-promotion bits until the probe commits it;
/// * every score burst returns a coherent fleet state — `(3,3)` before,
///   `(3,4)` between recovery and the healing swap, `(5,5)` after —
///   never a torn mid-swap pair;
/// * every accepted multi-shard ingest acks one uniform version across
///   shards (`[n,n]`), including the healing swap (`[5,5]`).
#[test]
fn trainer_promotion_under_chaos_probe_resolves_without_version_mixing() {
    let fixture = Fixture::new(SEED);
    let mut fleet = durable_fleet(&fixture);
    let batches = spanning_batches(&fleet, 4);
    let (q0, q1) = (fleet.query_on(0), fleet.query_on(1));
    let history = fleet.history();
    let (ctl0, ctl1) = (fleet.shard(0).controller(), fleet.shard(1).controller());

    // Base: three coordinated ingests; every accepted burst must ack one
    // uniform version across shards. The fourth is the healing swap.
    let mut ingester = Client::connect(fleet.addr()).unwrap();
    for (j, batch) in batches.iter().take(3).enumerate() {
        assert_eq!(
            history.ingest(&mut ingester, batch),
            Ack::Ok(vec![j as u64 + 1; 2]),
            "ingest burst {j} must commit one uniform version"
        );
    }

    // One score burst through the router: the version each shard
    // answered at, `None` for an error.
    let mut burst_client = Client::connect(fleet.addr()).unwrap();
    let mut burst = || -> Vec<Option<u64>> {
        let served = history.burst(&mut burst_client, &[q0, q1]);
        served.iter().map(|s| s.ok().map(|(v, _)| v)).collect()
    };
    assert_eq!(
        burst(),
        [Some(3), Some(3)],
        "pre-promotion burst must serve version 3 on both shards"
    );

    // The trainer: retrain a candidate from shard 0's exported state.
    let plane = taxo_train::ControlPlane::new(taxo_train::TrainConfig {
        detector: DetectorConfig {
            epochs: 3,
            ..DetectorConfig::tiny(SEED)
        },
        seed: SEED,
        ..taxo_train::TrainConfig::default()
    });
    let (base_version, state) = ctl0.export_state().expect("export serving state");
    assert_eq!(base_version, 3);
    let retrained = plane
        .retrain(&fixture.vocab, &fixture.detector, &state)
        .expect("unfaulted retrain produces a candidate");
    let retrained = Arc::new(retrained);

    // Two-phase promotion: shard 0 prepares cleanly (hit 1 passes),
    // shard 1 crashes mid-promotion (hit 2 fails) — after its WAL op is
    // durable, before anything publishes.
    taxo_fault::arm(taxo_fault::FaultPlan::parse("seed=21;train.promote=once:2:fail").unwrap());
    let out = ctl0
        .promote(Arc::clone(&retrained), IngestPhase::Prepare)
        .expect("shard 0 prepares the promotion");
    assert_eq!((out.version, out.published), (4, false));
    history.promoted(0, Arc::clone(&retrained), Some(out.version));
    // The prepared snapshot must not leak: shard 0 still serves v3 bits.
    assert_eq!(
        burst()[0],
        Some(3),
        "a prepared promotion must stay unpublished"
    );
    assert!(
        ctl1.promote(Arc::clone(&retrained), IngestPhase::Prepare)
            .is_err(),
        "shard 1's promotion must die with the shard"
    );
    history.promoted(1, Arc::clone(&retrained), None);
    assert_eq!(
        fleet.await_crash(),
        Some(1),
        "shard 1 must be the crash victim"
    );
    assert!(!fleet.shard(0).crashed(), "shard 0 must survive");
    taxo_fault::disarm();

    // The crash kills shard 1's ingest/durability spine, not its score
    // workers: until reaped it may keep answering from its *published*
    // snapshot. A burst may degrade (shed) but never invent a version —
    // in particular the crashed promotion must never surface as v4.
    for version in burst().into_iter().flatten() {
        assert_eq!(
            version, 3,
            "a crashed shard may only serve its last published snapshot"
        );
    }

    // Probe-resolved recovery, step 1: WAL replay converges shard 1 on
    // the promoted version (the empty promotion op is durable), though —
    // by design — under the operator-supplied original detector.
    let report = fleet.recover(1, &fixture.detector);
    assert_eq!(
        report.final_version, 4,
        "the durable promotion op must replay to the promoted version"
    );

    // Post-recovery: the coherent fleet state is (3, 4) — shard 0's
    // promotion still pending, shard 1 recovered at v4. The first
    // bursts may shed while the router heals its stale upstream
    // connection and vector entry; retry until both answer.
    let mut healed = burst();
    for _ in 0..100 {
        if healed.iter().all(Option::is_some) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
        healed = burst();
    }
    assert_eq!(
        healed,
        [Some(3), Some(4)],
        "post-recovery state must be exactly (3 pending-prepare, 4 recovered)"
    );

    // Probe-resolved recovery, step 2: the next coordinated ingest heals
    // the wedged prepare. Shard 0 answers `prepare_pending`, the
    // router's commit-probe publishes the promoted snapshot, the
    // retried prepare lands, and the burst commits uniformly at [5, 5].
    let committed_before = taxo_sim::counter("serve.ingest.committed");
    assert_eq!(
        history.ingest(&mut ingester, &batches[3]),
        Ack::Ok(vec![5, 5]),
        "the healing swap must commit one uniform version"
    );
    assert!(
        taxo_sim::counter("serve.ingest.committed") >= committed_before + 3,
        "probe-commit of the pending promotion plus two swap commits"
    );

    // Shard 0 now serves the *retrained* detector's scores (the
    // promotion re-anchored its expander before batch 4 was attached);
    // shard 1 serves the original detector's (recovery cannot resurrect
    // unpersisted candidate weights — the operator re-promotes to heal
    // that, which the control-plane suite covers). The checker holds
    // both to the model.
    assert_eq!(
        burst(),
        [Some(5), Some(5)],
        "the converged fleet must serve version 5 on both shards"
    );
    let mut client = Client::connect(fleet.addr()).unwrap();
    assert_eq!(health_status(&mut client).as_deref(), Some("serving"));
    client.shutdown().unwrap();
    fleet.check();
}
