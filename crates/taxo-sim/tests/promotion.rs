//! A promotion that meets a held wire `prepare`. The ingest thread plans
//! a promotion the way it plans an `Auto` ingest, so while a prepared
//! snapshot awaits its commit the promotion is refused with
//! `prepare_pending` and leaves no trace: the published version, the
//! WAL and `serve.ingest.applied` stay where they were. Once the commit
//! lands, the same promotion publishes at the next version, and the
//! history checker holds every later score to the promoted detector.

use std::sync::Arc;
use taxo_core::json::Value;
use taxo_core::ConceptId;
use taxo_serve::durable::WAL_FILE;
use taxo_serve::{protocol, Client, ControlError, FsyncPolicy, IngestPhase, Reply};
use taxo_sim::{wire, Ack, Fixture, Fleet, History, Split};

const SEED: u64 = 17;

/// Scores every query once; each must be served at `version`.
fn segment(history: &History, client: &mut Client, queries: &[ConceptId], version: u64) {
    for &q in queries {
        let served = history.score(client, q, None);
        assert_eq!(served.ok().map(|(v, _)| v), Some(version), "{served:?}");
    }
}

#[test]
fn a_promotion_meeting_a_held_prepare_is_refused_then_publishes_after_the_commit() {
    let fixture = Fixture::new(SEED);
    let fleet = Fleet::standalone(&fixture)
        .wal(FsyncPolicy::Always, 100)
        .start();
    let (ctl, history) = (fleet.shard(0).controller(), fleet.history());
    let queries = &fixture.queries[..fixture.queries.len().min(8)];
    let batch = &fixture.batches(1, Split::Contiguous)[0];
    let promoted = Arc::new(fixture.detector_seeded(SEED + 1));
    let mut client = Client::connect(fleet.addr()).unwrap();

    // A wire prepare: applied and durable at version 1, held unpublished.
    let records = wire(&fixture.vocab, batch);
    let prepare = protocol::ingest_request(Some(1), IngestPhase::Prepare, &records);
    let prepared = match client.call(&prepare, Some(1)) {
        Ok(Reply::Ok(v)) => v,
        other => panic!("the prepare must be held: {other:?}"),
    };
    assert_eq!(
        prepared.get("phase").and_then(Value::as_str),
        Some("prepared")
    );
    assert_eq!(prepared.get("version").and_then(Value::as_u64), Some(1));
    segment(&history, &mut client, queries, 0);

    // The promotion meets the held prepare and leaves no trace.
    let wal = fleet.dir(0).join(WAL_FILE);
    let wal_len = || std::fs::metadata(&wal).expect("the WAL exists").len();
    let applied = || taxo_sim::counter("serve.ingest.applied");
    let before = (ctl.version(), wal_len(), applied());
    match ctl.promote(Arc::clone(&promoted)) {
        Err(ControlError::Rejected {
            code: "prepare_pending",
            ..
        }) => {}
        other => panic!("a promotion must not pass a held prepare: {other:?}"),
    }
    assert_eq!(
        (ctl.version(), wal_len(), applied()),
        before,
        "a refused promotion moves no version, WAL record or applied count"
    );
    segment(&history, &mut client, queries, 0);

    // The commit publishes the prepared batch; the same promotion then
    // publishes at the next version.
    let commit = protocol::ingest_request::<&str>(Some(2), IngestPhase::Commit, &[]);
    assert_eq!(
        history.ingest_acked(batch, client.call(&commit, Some(2))),
        Ack::Ok(vec![1])
    );
    segment(&history, &mut client, queries, 1);
    let version = ctl
        .promote(Arc::clone(&promoted))
        .expect("the promotion publishes once the prepare is committed");
    assert_eq!((version, ctl.version()), (2, 2));
    history.promoted(0, promoted, Some(version));
    segment(&history, &mut client, queries, 2);
    drop(client);
    fleet.check();
}
