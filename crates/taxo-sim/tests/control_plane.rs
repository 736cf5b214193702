//! The deterministic control-plane simulation suite — the proof the
//! continuous-learning loop is safe to run against live traffic.
//!
//! Every scenario replays a fixed, seeded traffic trace (score requests
//! interleaved with ingest batches carrying click drift) against a real
//! in-process server, drives [`taxo_train::ControlPlane`] epochs
//! synchronously between trace segments, records every promotion in the
//! fleet's history, and asserts:
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
//! Every served response is also checked against the model, whose
//! promotions re-score under the promoted detector: run-to-run
//! transcript equality cannot catch a score table carried across a
//! detector change — it would replay identically.

use taxo_core::ConceptId;
use taxo_expand::DetectorConfig;
use taxo_serve::{Client, FsyncPolicy, ServeConfig, ServeController};
use taxo_sim::{Ack, Fixture, Fleet, History, Served, Split};
use taxo_synth::Panel;
use taxo_train::{
    ControlPlane, Decision, GateConfig, LatencyProbe, Oracle, PanelOracle, RejectReason,
    TrainConfig, Verdict,
};

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
    }
}

fn oracle(fixture: &Fixture) -> impl Oracle + '_ {
    PanelOracle::new(Panel::new(3, 0.05, fixture.seed), |p, c| {
        fixture.world.is_true_hypernym(p, c)
    })
}

/// A fixed list of queries from the version-0 candidate universe — the
/// same on every run.
fn queries(fixture: &Fixture) -> &[ConceptId] {
    &fixture.candidates[..fixture.candidates.len().min(24)]
}

/// Every trace's requests ask for the top five candidates.
fn serve_config() -> ServeConfig {
    ServeConfig {
        default_k: 5,
        ..ServeConfig::default()
    }
}

/// Scores every query once: one trace segment, served by the version
/// the last ingest or promotion published.
fn segment(history: &History, client: &mut Client, ctl: &ServeController, queries: &[ConceptId]) {
    for &q in queries {
        let served = history.score(client, q, None);
        assert_eq!(
            served.ok().map(|(v, _)| v),
            Some(ctl.version()),
            "served version: {served:?}"
        );
    }
}

fn ingest(history: &History, client: &mut Client, batch: &[taxo_synth::ClickRecord]) -> u64 {
    match history.ingest(client, batch) {
        Ack::Ok(versions) => versions[0],
        other => panic!("ingest rejected: {other:?}"),
    }
}

/// Runs one control epoch and records the promotion it made, if any.
fn epoch(
    plane: &mut ControlPlane,
    ctl: &ServeController,
    oracle: &mut dyn Oracle,
    history: &History,
) -> Option<Decision> {
    let decision = plane.run_epoch(ctl, oracle, &LatencyProbe::Fixed(0))?;
    if let Verdict::Promoted { version, .. } = decision.verdict {
        history.promoted(0, ctl.snapshot().detector.clone(), Some(version));
    }
    Some(decision)
}

struct SimRun {
    decisions: Vec<Decision>,
    transcript: Vec<(ConceptId, Served)>,
    acks: Vec<Ack>,
    final_version: u64,
}

/// The full 8-segment decision trace: scores + one ingest batch per
/// segment, a control epoch wherever one is due, and a deliberate
/// tap-disarmed window (segments 4–5) so the second epoch is starved.
fn decision_sim(fixture: &Fixture, reactor_threads: usize) -> SimRun {
    let fleet = Fleet::standalone(fixture)
        .config(ServeConfig {
            reactor_threads,
            ..serve_config()
        })
        .start();
    let (ctl, history) = (fleet.shard(0).controller(), fleet.history());
    let mut plane = ControlPlane::new(sim_train_config(fixture.seed));
    let mut oracle = oracle(fixture);
    ctl.shadow_tap().arm(2, fixture.seed);

    let mut client = Client::connect(fleet.addr()).expect("client connects");
    let mut decisions = Vec::new();
    for (i, batch) in fixture.batches(8, Split::Contiguous).iter().enumerate() {
        segment(&history, &mut client, &ctl, queries(fixture));
        ingest(&history, &mut client, batch);
        decisions.extend(epoch(&mut plane, &ctl, &mut oracle, &history));
        // Starve the second epoch: no samples mirrored in segments 4–5.
        if i == 2 {
            ctl.shadow_tap().disarm();
        }
        if i == 4 {
            ctl.shadow_tap().arm(2, fixture.seed);
        }
    }
    // The last epoch may have promoted: check what it serves too.
    segment(&history, &mut client, &ctl, queries(fixture));
    let final_version = ctl.version();
    drop(client);
    fleet.check();
    SimRun {
        decisions,
        transcript: history.transcript(),
        acks: history.acks(),
        final_version,
    }
}

/// (a) Same seed ⇒ the same decisions, the same served bits, the same
/// ledger — across repeated runs and across reactor thread counts.
#[test]
fn decisions_are_identical_across_runs_and_worker_counts() {
    let fixture = Fixture::new(91);
    let base = decision_sim(&fixture, 1);

    // The trace is interesting: promotions and a rollback both occur.
    let promotions = base
        .decisions
        .iter()
        .filter(|d| matches!(d.verdict, Verdict::Promoted { .. }))
        .count() as u64;
    assert!(
        promotions > 0,
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
    assert_eq!(base.final_version, base.acks.len() as u64 + promotions);

    for (label, run) in [
        ("rerun", decision_sim(&fixture, 1)),
        ("8-reactor", decision_sim(&fixture, 8)),
    ] {
        assert_eq!(base.decisions, run.decisions, "{label} decisions");
        assert_eq!(base.transcript, run.transcript, "{label} transcript");
        assert_eq!(base.acks, run.acks, "{label} ledger");
    }
}

/// (b)+(c) A trainer that retrains and is *rejected* every epoch leaves
/// the served byte stream bit-identical to a twin that never retrained:
/// shadow scoring is pure, and a rejected candidate vanishes without a
/// trace.
#[test]
fn rejected_candidates_leave_serving_bit_identical() {
    let fixture = Fixture::new(92);
    let run_twin = |train: bool| {
        let fleet = Fleet::standalone(&fixture).config(serve_config()).start();
        let (ctl, history) = (fleet.shard(0).controller(), fleet.history());
        // shadow_min = MAX: every epoch retrains, shadow-scores whatever
        // was mirrored, and is then rejected as starved.
        let mut plane = ControlPlane::new(TrainConfig {
            shadow_min: u64::MAX,
            ..sim_train_config(fixture.seed)
        });
        let mut oracle = oracle(&fixture);
        if train {
            ctl.shadow_tap().arm(2, fixture.seed);
        }
        let mut client = Client::connect(fleet.addr()).expect("client connects");
        let mut decisions = Vec::new();
        for batch in &fixture.batches(6, Split::Contiguous) {
            segment(&history, &mut client, &ctl, queries(&fixture));
            ingest(&history, &mut client, batch);
            if train {
                decisions.extend(epoch(&mut plane, &ctl, &mut oracle, &history));
            }
        }
        segment(&history, &mut client, &ctl, queries(&fixture));
        drop(client);
        fleet.check();
        (history.transcript(), decisions)
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
/// version is consumed exactly once, no ingest is lost or doubled (the
/// checker compares the recovered state with the model's), the
/// recovered server serves the *pre-promotion* detector's exact bits,
/// and the next clean epoch promotes.
#[test]
fn crash_mid_promotion_converges_with_exactly_once_accounting() {
    let fixture = Fixture::new(93);
    let queries = queries(&fixture);
    let batches = fixture.batches(6, Split::Contiguous);
    // Rare checkpoints force recovery through the WAL.
    let mut fleet = Fleet::standalone(&fixture)
        .config(serve_config())
        .wal(FsyncPolicy::Always, 100)
        .start();
    let (ctl, history) = (fleet.shard(0).controller(), fleet.history());
    let mut plane = ControlPlane::new(sim_train_config(fixture.seed));
    let mut oracle = oracle(&fixture);
    ctl.shadow_tap().arm(2, fixture.seed);

    let mut client = Client::connect(fleet.addr()).expect("client connects");
    for batch in &batches[..3] {
        segment(&history, &mut client, &ctl, queries);
        ingest(&history, &mut client, batch);
    }
    let (base_version, _) = ctl.export_state().expect("export");
    assert_eq!(base_version, 3);

    // The fault: the first promotion apply kills the ingest thread after
    // the WAL write, before the snapshot publishes.
    taxo_fault::arm(
        taxo_fault::FaultPlan::parse(&format!("seed={};train.promote=once:1:fail", fixture.seed))
            .expect("valid plan"),
    );
    let decision = epoch(&mut plane, &ctl, &mut oracle, &history).expect("epoch is due");
    assert_eq!(
        decision.verdict,
        Verdict::Rejected(RejectReason::Control),
        "a crashed promotion surfaces as a control rejection"
    );
    // Its op is durable but unacked; recovery resolves it (as an empty
    // op, so the detector recorded here is never served).
    history.promoted(0, ctl.snapshot().detector.clone(), None);
    assert!(
        fleet.await_crash().is_some(),
        "the injected fault must crash the server"
    );
    drop(client);
    taxo_fault::disarm();

    // Recovery under the *original* detector: the marker replays as an
    // empty op, so the version is consumed but nothing is applied.
    let report = fleet.recover(0, &fixture.detector);
    assert_eq!(
        report.final_version,
        base_version + 1,
        "the promotion consumed exactly one durable version"
    );

    // Resume serving; the rejected-in-flight candidate never took
    // effect, so served bits match the pre-promotion snapshot's.
    let rctl = fleet.shard(0).controller();
    rctl.shadow_tap().arm(2, fixture.seed);
    let mut client = Client::connect(fleet.addr()).expect("client reconnects");
    segment(&history, &mut client, &rctl, queries);
    let keys = |from: usize| -> Vec<_> {
        let transcript = history.transcript();
        let segment = &transcript[from..from + queries.len()];
        segment
            .iter()
            .map(|(q, s)| (*q, s.ok().unwrap().1.clone()))
            .collect()
    };
    assert_eq!(
        keys(3 * queries.len()),
        keys(2 * queries.len()),
        "post-recovery scores are bit-identical to pre-crash serving"
    );
    // The trace scores the recovered state twice before the next epoch.
    segment(&history, &mut client, &rctl, queries);

    // Convergence: the next clean epoch (fresh plane, no faults) retrains
    // from the recovered state and promotes.
    let mut plane = ControlPlane::new(sim_train_config(fixture.seed));
    let decision =
        epoch(&mut plane, &rctl, &mut oracle, &history).expect("epoch is due after recovery");
    match decision.verdict {
        Verdict::Promoted { version } => {
            assert_eq!(version, report.final_version + 1);
            assert_eq!(rctl.version(), version);
        }
        other => panic!("the post-recovery epoch must promote, got {other:?}"),
    }
    segment(&history, &mut client, &rctl, queries);
    // And the ingest ledger continues without gap or reuse.
    assert_eq!(
        ingest(&history, &mut client, &batches[3]),
        report.final_version + 2
    );
    drop(client);
    fleet.check();
}

/// (d2) A faulted shadow scorer defers promotion deterministically: the
/// epoch records a `ShadowFaulted` rollback, serving is untouched, and
/// the next clean epoch promotes. The whole scenario replays to the
/// same decision sequence.
#[test]
fn faulted_shadow_scorer_defers_promotion_deterministically() {
    let fixture = Fixture::new(94);
    let batches = fixture.batches(6, Split::Contiguous);
    let run = || -> Vec<Decision> {
        let fleet = Fleet::standalone(&fixture).config(serve_config()).start();
        let (ctl, history) = (fleet.shard(0).controller(), fleet.history());
        let mut plane = ControlPlane::new(sim_train_config(fixture.seed));
        let mut oracle = oracle(&fixture);
        ctl.shadow_tap().arm(2, fixture.seed);
        let mut client = Client::connect(fleet.addr()).expect("client connects");

        for batch in &batches[..3] {
            segment(&history, &mut client, &ctl, queries(&fixture));
            ingest(&history, &mut client, batch);
        }
        // Every shadow score of the first epoch faults.
        taxo_fault::arm(
            taxo_fault::FaultPlan::parse(&format!(
                "seed={};train.shadow=always:fail",
                fixture.seed
            ))
            .expect("valid plan"),
        );
        let first = epoch(&mut plane, &ctl, &mut oracle, &history).expect("first epoch due");
        taxo_fault::disarm();
        assert!(
            !fleet.shard(0).crashed(),
            "a faulted shadow scorer must not touch serving"
        );

        for batch in &batches[3..6] {
            segment(&history, &mut client, &ctl, queries(&fixture));
            ingest(&history, &mut client, batch);
        }
        let second = epoch(&mut plane, &ctl, &mut oracle, &history).expect("second epoch due");
        segment(&history, &mut client, &ctl, queries(&fixture));
        drop(client);
        fleet.check();
        vec![first, second]
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
