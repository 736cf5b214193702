//! The deterministic control-plane simulation suite — the proof the
//! continuous-learning loop is safe to run against live traffic.
//!
//! Every scenario replays a fixed, seeded traffic trace (score requests
//! interleaved with ingest batches carrying click drift) against a real
//! in-process server, drives [`taxo_train::ControlPlane`] epochs
//! synchronously between trace segments, and asserts:
//!
//! * **Decision determinism** — the exact promote/rollback sequence
//!   (full [`Decision`] values, integer evidence included) is identical
//!   across repeated runs *and* across worker counts (1 vs 8), because
//!   shadow sampling is a pure function of query id and seed and every
//!   training stage is seeded.
//! * **Shadow purity** — a server with the tap armed and a trainer
//!   retraining-and-rejecting every epoch serves responses bit-identical
//!   to a twin that never retrained: shadow scoring cannot contaminate
//!   live responses, and a rejected candidate leaves no trace.
//! * **Chaos convergence** — with seeded faults (crash mid-promotion on
//!   a durable server; a faulted shadow scorer), the system converges:
//!   the acked-version ledger stays contiguous, recovery reproduces the
//!   pre-crash state exactly once (the promotion marker replays as an
//!   empty op), and the next clean epoch promotes.
//!
//! Fault plans are process-global, so every test serializes on one lock
//! (the simulation-harness pattern shared with the recovery suite).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use taxo_core::Vocabulary;
use taxo_expand::{
    DetectorConfig, ExpansionConfig, HypoDetector, IncrementalExpander, RelationalConfig,
    RelationalModel,
};
use taxo_serve::{
    candidate_key, expected_key, json::Value, Client, DurabilityConfig, FsyncPolicy, Reply,
    ServeConfig, ServeController, Server,
};
use taxo_synth::{ClickConfig, ClickLog, Panel, World, WorldConfig};
use taxo_train::{
    ControlPlane, Decision, GateConfig, LatencyProbe, PanelOracle, RejectReason, TrainConfig,
    Verdict,
};

fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn scratch_dir(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "taxo-train-sim-{name}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The deterministic serving fixture: a synthetic world, a vanilla
/// (untrained-MLP) detector, and an expander pre-seeded with the first
/// half of the click log. The second half, split into batches, is the
/// drift the trainer learns from.
fn fixture(seed: u64) -> (Arc<Vocabulary>, IncrementalExpander, ClickLog, World) {
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
    let vocab = Arc::new(world.vocab.clone());
    (vocab, expander, log, world)
}

fn ingest_batches(log: &ClickLog, n: usize) -> Vec<&[taxo_synth::ClickRecord]> {
    let tail = &log.records[log.records.len() / 2..];
    let per = tail.len().div_ceil(n);
    tail.chunks(per).collect()
}

fn wire_batch(vocab: &Vocabulary, batch: &[taxo_synth::ClickRecord]) -> Vec<(String, String, u64)> {
    batch
        .iter()
        .map(|r| (vocab.name(r.query).to_owned(), r.item_text.clone(), r.count))
        .collect()
}

/// A fixed, sorted list of scorable query terms derived from the
/// expander's initial candidate universe — the same list on every run.
fn score_queries(vocab: &Vocabulary, expander: &IncrementalExpander, n: usize) -> Vec<String> {
    let mut queries: Vec<_> = expander.candidate_pairs().iter().map(|p| p.query).collect();
    queries.sort_unstable();
    queries.dedup();
    queries
        .into_iter()
        .take(n)
        .map(|q| vocab.name(q).to_owned())
        .collect()
}

/// The trainer configuration every scenario starts from: retrain every 3
/// versions, mirror 1-in-2 queries, fine-tune 3 epochs, no latency gate
/// (the probe is fixed at 0 µs so wall clock never reaches a decision).
fn sim_train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        retrain_every: 3,
        shadow_sample: 2,
        shadow_min: 1,
        detector: DetectorConfig {
            epochs: 3,
            ..DetectorConfig::tiny(seed)
        },
        gate: GateConfig {
            min_precision: 0.0,
            max_latency_us: u64::MAX,
        },
        seed,
        ..TrainConfig::default()
    }
}

/// One served score response, reduced to its bit-exact key:
/// `(version, query, ranked (term, score bits, attached))`.
type Served = (u64, String, Vec<(String, u32, bool)>);
type Transcript = Vec<Served>;

fn score_into(client: &mut Client, queries: &[String], transcript: &mut Transcript) {
    for q in queries {
        match client.score(q, Some(5)).expect("score request") {
            Reply::Ok(v) => {
                let version = v
                    .get("version")
                    .and_then(Value::as_u64)
                    .expect("score reply carries a version");
                transcript.push((version, q.clone(), candidate_key(&v).unwrap_or_default()));
            }
            other => panic!("score rejected: {other:?}"),
        }
    }
}

/// Checks served responses against recomputation under the snapshot
/// serving now (`score_query` never reads the score table). Run-to-run
/// transcript equality cannot catch a score table carried across a
/// detector change — it would replay identically — so responses served
/// after every promotion and recovery are checked this way.
fn assert_matches_reference(served: &[Served], ctl: &ServeController, vocab: &Vocabulary) {
    let snapshot = ctl.snapshot();
    let cap = ServeConfig::default().max_candidates;
    for (version, q, key) in served {
        assert_eq!(*version, snapshot.version, "{q:?}: served version");
        let id = vocab.get(q).expect("score queries are vocabulary terms");
        assert_eq!(
            key,
            &expected_key(vocab, &snapshot.score_query(id, cap, 5)),
            "{q:?} at version {version}: served bytes differ from recomputation"
        );
    }
}

/// Scores every query once more and checks the responses with
/// [`assert_matches_reference`].
fn assert_serves_reference(
    client: &mut Client,
    ctl: &ServeController,
    vocab: &Vocabulary,
    queries: &[String],
) {
    let mut served = Transcript::new();
    score_into(client, queries, &mut served);
    assert_matches_reference(&served, ctl, vocab);
}

fn ingest_one(client: &mut Client, vocab: &Vocabulary, batch: &[taxo_synth::ClickRecord]) -> u64 {
    match client.ingest(&wire_batch(vocab, batch)).expect("ingest") {
        Reply::Ok(v) => v
            .get("version")
            .and_then(Value::as_u64)
            .expect("ingest ack carries a version"),
        other => panic!("ingest rejected: {other:?}"),
    }
}

struct SimRun {
    decisions: Vec<Decision>,
    transcript: Transcript,
    acked: Vec<u64>,
    final_version: u64,
}

/// The full 8-segment decision trace: scores + one ingest batch per
/// segment, a control epoch wherever one is due, and a deliberate
/// tap-disarmed window (segments 4–5) so the second epoch is starved.
fn decision_sim(seed: u64, reactor_threads: usize) -> SimRun {
    taxo_fault::disarm();
    let (vocab, expander, log, world) = fixture(seed);
    let queries = score_queries(&vocab, &expander, 24);
    let batches = ingest_batches(&log, 8);
    let handle = Server::builder(expander, Arc::clone(&vocab))
        .config(ServeConfig {
            reactor_threads,
            ..ServeConfig::default()
        })
        .bind("127.0.0.1:0")
        .expect("server binds");
    let ctl = handle.controller();
    let mut plane = ControlPlane::new(sim_train_config(seed));
    let mut oracle = PanelOracle::new(Panel::new(3, 0.05, seed), |p, c| {
        world.is_true_hypernym(p, c)
    });
    let probe = LatencyProbe::Fixed(0);
    ctl.shadow_tap().arm(2, seed);

    let mut client = Client::connect(handle.addr()).expect("client connects");
    let mut run = SimRun {
        decisions: Vec::new(),
        transcript: Transcript::new(),
        acked: Vec::new(),
        final_version: 0,
    };
    for (i, batch) in batches.iter().enumerate() {
        // Each segment is served by the version the previous segment's
        // ingest or promotion published.
        let segment = run.transcript.len();
        score_into(&mut client, &queries, &mut run.transcript);
        assert_matches_reference(&run.transcript[segment..], &ctl, &vocab);
        run.acked.push(ingest_one(&mut client, &vocab, batch));
        if let Some(d) = plane.run_epoch(&ctl, &mut oracle, &probe) {
            run.decisions.push(d);
        }
        // Starve the second epoch: no samples mirrored in segments 4–5.
        if i == 2 {
            ctl.shadow_tap().disarm();
        }
        if i == 4 {
            ctl.shadow_tap().arm(2, seed);
        }
    }
    // The last epoch may have promoted: check what it serves too.
    assert_serves_reference(&mut client, &ctl, &vocab, &queries);
    run.final_version = ctl.version();
    drop(client);
    handle.shutdown_and_join();
    run
}

/// (a) Same seed ⇒ the same decisions, the same served bits, the same
/// ledger — across repeated runs and across reactor thread counts.
#[test]
fn decisions_are_identical_across_runs_and_worker_counts() {
    let _g = test_lock();
    let base = decision_sim(91, 1);

    // The trace is interesting: promotions and a rollback both occur.
    assert!(
        base.decisions
            .iter()
            .any(|d| matches!(d.verdict, Verdict::Promoted { .. })),
        "trace must promote at least once: {:?}",
        base.decisions
    );
    assert!(
        base.decisions
            .iter()
            .any(|d| d.verdict == Verdict::Rejected(RejectReason::ShadowStarved)),
        "the disarmed window must starve one epoch: {:?}",
        base.decisions
    );
    // Promotions consume versions: the acked ingest ledger is contiguous
    // with one skip per promotion.
    let promotions = base
        .decisions
        .iter()
        .filter(|d| matches!(d.verdict, Verdict::Promoted { .. }))
        .count() as u64;
    assert_eq!(base.final_version, base.acked.len() as u64 + promotions);

    let rerun = decision_sim(91, 1);
    assert_eq!(base.decisions, rerun.decisions, "rerun decisions");
    assert_eq!(base.transcript, rerun.transcript, "rerun transcript");
    assert_eq!(base.acked, rerun.acked, "rerun ledger");

    let wide = decision_sim(91, 8);
    assert_eq!(base.decisions, wide.decisions, "8-reactor decisions");
    assert_eq!(base.transcript, wide.transcript, "8-reactor transcript");
    assert_eq!(base.acked, wide.acked, "8-reactor ledger");
}

/// (b)+(c) A trainer that retrains and is *rejected* every epoch leaves
/// the served byte stream bit-identical to a twin that never retrained:
/// shadow scoring is pure, and a rejected candidate vanishes without a
/// trace.
#[test]
fn rejected_candidates_leave_serving_bit_identical() {
    let _g = test_lock();
    taxo_fault::disarm();
    let seed = 92;

    let run_twin = |train: bool| -> (Transcript, Vec<Decision>) {
        let (vocab, expander, log, world) = fixture(seed);
        let queries = score_queries(&vocab, &expander, 24);
        let batches = ingest_batches(&log, 6);
        let handle = Server::builder(expander, Arc::clone(&vocab))
            .bind("127.0.0.1:0")
            .expect("server binds");
        let ctl = handle.controller();
        // shadow_min = MAX: every epoch retrains, shadow-scores whatever
        // was mirrored, and is then rejected as starved.
        let mut plane = ControlPlane::new(TrainConfig {
            shadow_min: u64::MAX,
            ..sim_train_config(seed)
        });
        let mut oracle = PanelOracle::new(Panel::new(3, 0.05, seed), |p, c| {
            world.is_true_hypernym(p, c)
        });
        let probe = LatencyProbe::Fixed(0);
        if train {
            ctl.shadow_tap().arm(2, seed);
        }
        let mut client = Client::connect(handle.addr()).expect("client connects");
        let mut transcript = Transcript::new();
        let mut decisions = Vec::new();
        for batch in &batches {
            score_into(&mut client, &queries, &mut transcript);
            ingest_one(&mut client, &vocab, batch);
            if train {
                if let Some(d) = plane.run_epoch(&ctl, &mut oracle, &probe) {
                    decisions.push(d);
                }
            }
        }
        score_into(&mut client, &queries, &mut transcript);
        drop(client);
        handle.shutdown_and_join();
        (transcript, decisions)
    };

    let (shadowed, decisions) = run_twin(true);
    let (untouched, _) = run_twin(false);
    assert!(
        decisions.len() >= 2,
        "the trainer must actually retrain: {decisions:?}"
    );
    assert!(
        decisions
            .iter()
            .all(|d| d.verdict == Verdict::Rejected(RejectReason::ShadowStarved)),
        "every candidate must be rejected: {decisions:?}"
    );
    assert_eq!(
        shadowed, untouched,
        "armed tap + rejected retrains must serve bit-identical responses"
    );
}

/// (d1) Crash mid-promotion on a durable server: the promotion marker is
/// already in the WAL, so recovery replays it as an empty op — the
/// version is consumed exactly once, no ingest is lost or doubled, the
/// recovered server serves the *pre-promotion* detector's exact bits,
/// and the next clean epoch promotes.
#[test]
fn crash_mid_promotion_converges_with_exactly_once_accounting() {
    let _g = test_lock();
    taxo_fault::disarm();
    let seed = 93;
    let dir = scratch_dir("promote-crash");
    let (vocab, expander, log, world) = fixture(seed);
    let detector = expander.detector().clone();
    let expansion_cfg = expander.expansion_config().clone();
    let queries = score_queries(&vocab, &expander, 24);
    let batches = ingest_batches(&log, 6);

    let handle = Server::builder(expander, Arc::clone(&vocab))
        .durability(DurabilityConfig::Wal {
            dir: dir.clone(),
            fsync: FsyncPolicy::Always,
            snapshot_every: 100, // force recovery through the WAL
        })
        .bind("127.0.0.1:0")
        .expect("durable server binds");
    let ctl = handle.controller();
    let mut plane = ControlPlane::new(sim_train_config(seed));
    let mut oracle = PanelOracle::new(Panel::new(3, 0.05, seed), |p, c| {
        world.is_true_hypernym(p, c)
    });
    let probe = LatencyProbe::Fixed(0);
    ctl.shadow_tap().arm(2, seed);

    let mut client = Client::connect(handle.addr()).expect("client connects");
    let mut transcript = Transcript::new();
    for batch in &batches[..3] {
        score_into(&mut client, &queries, &mut transcript);
        ingest_one(&mut client, &vocab, batch);
    }
    // Consistent pre-crash state for the exactly-once comparison.
    let (base_version, pre_state) = ctl.export_state().expect("export");
    assert_eq!(base_version, 3);

    // The fault: the first promotion apply kills the ingest thread after
    // the WAL write, before the snapshot publishes.
    taxo_fault::arm(
        taxo_fault::FaultPlan::parse(&format!("seed={seed};train.promote=once:1:fail"))
            .expect("valid plan"),
    );
    let decision = plane
        .run_epoch(&ctl, &mut oracle, &probe)
        .expect("epoch is due");
    assert_eq!(
        decision.verdict,
        Verdict::Rejected(RejectReason::Control),
        "a crashed promotion surfaces as a control rejection"
    );
    assert!(handle.crashed(), "the injected fault must crash the server");
    drop(client);
    handle.shutdown_and_join();
    taxo_fault::disarm();

    // Recovery under the *original* detector: the marker replays as an
    // empty op, so the version is consumed but nothing is applied.
    let (recovered, report) =
        Server::recover(&dir, detector.clone(), expansion_cfg, &vocab).expect("recovery succeeds");
    assert_eq!(
        report.final_version,
        base_version + 1,
        "the promotion consumed exactly one durable version"
    );
    assert_eq!(
        recovered.candidate_pairs(),
        pre_state.pairs,
        "no ingest evidence lost or doubled across the crash"
    );
    let mut recovered_edges: Vec<(u32, u32)> = recovered
        .taxonomy()
        .edges()
        .map(|e| (e.parent.0, e.child.0))
        .collect();
    recovered_edges.sort_unstable();
    let mut pre_edges: Vec<(u32, u32)> = pre_state
        .taxonomy
        .edges()
        .map(|e| (e.parent.0, e.child.0))
        .collect();
    pre_edges.sort_unstable();
    assert_eq!(recovered_edges, pre_edges, "taxonomy identical post-crash");

    // Resume serving; the rejected-in-flight candidate never took
    // effect, so served bits match the pre-promotion snapshot's.
    let resumed = Server::builder(recovered, Arc::clone(&vocab))
        .durability(DurabilityConfig::Wal {
            dir: dir.clone(),
            fsync: FsyncPolicy::Always,
            snapshot_every: 100,
        })
        .recovered(&report)
        .bind("127.0.0.1:0")
        .expect("recovered server binds");
    let rctl = resumed.controller();
    rctl.shadow_tap().arm(2, seed);
    let mut client = Client::connect(resumed.addr()).expect("client reconnects");
    let mut resumed_transcript = Transcript::new();
    score_into(&mut client, &queries, &mut resumed_transcript);
    let last_segment: Transcript = transcript[transcript.len() - queries.len()..]
        .iter()
        .map(|(_, q, key)| (0, q.clone(), key.clone()))
        .collect();
    let resumed_keys: Transcript = resumed_transcript
        .iter()
        .map(|(_, q, key)| (0, q.clone(), key.clone()))
        .collect();
    assert_eq!(
        resumed_keys, last_segment,
        "post-recovery scores are bit-identical to pre-crash serving"
    );
    assert_serves_reference(&mut client, &rctl, &vocab, &queries);

    // Convergence: the next clean epoch (fresh plane, no faults) retrains
    // from the recovered state and promotes.
    let mut plane = ControlPlane::new(sim_train_config(seed));
    let decision = plane
        .run_epoch(&rctl, &mut oracle, &probe)
        .expect("epoch is due after recovery");
    match decision.verdict {
        Verdict::Promoted { version, published } => {
            assert_eq!(version, report.final_version + 1);
            assert!(published);
            assert_eq!(rctl.version(), version);
        }
        other => panic!("the post-recovery epoch must promote, got {other:?}"),
    }
    assert_serves_reference(&mut client, &rctl, &vocab, &queries);
    // And the ingest ledger continues without gap or reuse.
    let v = ingest_one(&mut client, &vocab, batches[3]);
    assert_eq!(v, report.final_version + 2);
    drop(client);
    resumed.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// (d2) A faulted shadow scorer defers promotion deterministically: the
/// epoch records a `ShadowFaulted` rollback, serving is untouched, and
/// the next clean epoch promotes. The whole scenario replays to the
/// same decision sequence.
#[test]
fn faulted_shadow_scorer_defers_promotion_deterministically() {
    let _g = test_lock();
    let seed = 94;

    let run = || -> Vec<Decision> {
        taxo_fault::disarm();
        let (vocab, expander, log, world) = fixture(seed);
        let queries = score_queries(&vocab, &expander, 24);
        let batches = ingest_batches(&log, 6);
        let handle = Server::builder(expander, Arc::clone(&vocab))
            .bind("127.0.0.1:0")
            .expect("server binds");
        let ctl = handle.controller();
        let mut plane = ControlPlane::new(sim_train_config(seed));
        let mut oracle = PanelOracle::new(Panel::new(3, 0.05, seed), |p, c| {
            world.is_true_hypernym(p, c)
        });
        let probe = LatencyProbe::Fixed(0);
        ctl.shadow_tap().arm(2, seed);
        let mut client = Client::connect(handle.addr()).expect("client connects");
        let mut transcript = Transcript::new();
        let mut decisions = Vec::new();

        for batch in &batches[..3] {
            score_into(&mut client, &queries, &mut transcript);
            ingest_one(&mut client, &vocab, batch);
        }
        // Every shadow score of the first epoch faults.
        taxo_fault::arm(
            taxo_fault::FaultPlan::parse(&format!("seed={seed};train.shadow=always:fail"))
                .expect("valid plan"),
        );
        let d = plane
            .run_epoch(&ctl, &mut oracle, &probe)
            .expect("first epoch due");
        decisions.push(d);
        taxo_fault::disarm();
        assert!(
            !handle.crashed(),
            "a faulted shadow scorer must not touch serving"
        );

        for batch in &batches[3..6] {
            score_into(&mut client, &queries, &mut transcript);
            ingest_one(&mut client, &vocab, batch);
        }
        let d = plane
            .run_epoch(&ctl, &mut oracle, &probe)
            .expect("second epoch due");
        if matches!(d.verdict, Verdict::Promoted { .. }) {
            assert_serves_reference(&mut client, &ctl, &vocab, &queries);
        }
        decisions.push(d);
        drop(client);
        handle.shutdown_and_join();
        decisions
    };

    let first = run();
    assert_eq!(
        first[0].verdict,
        Verdict::Rejected(RejectReason::ShadowFaulted),
        "faulted evidence defers: {first:?}"
    );
    assert!(first[0].faulted > 0 && first[0].judged == 0);
    assert!(
        matches!(first[1].verdict, Verdict::Promoted { .. }),
        "the clean epoch promotes: {first:?}"
    );
    let second = run();
    assert_eq!(first, second, "chaos decisions replay bit-for-bit");
}
