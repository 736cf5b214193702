//! The hot-swap consistency guarantee: `score` readers running
//! concurrently with an ingest-triggered snapshot swap always see one
//! taxonomy version *in full* — every response matches the model at
//! either the old snapshot or the new one, never a mix.

use std::sync::atomic::{AtomicBool, Ordering};
use taxo_serve::Client;
use taxo_sim::{Ack, Fixture, Fleet, Served, Split};

#[test]
fn concurrent_readers_see_whole_versions_never_a_mix() {
    let fixture = Fixture::new(14);
    assert!(
        fixture.queries.len() >= 8,
        "need a non-trivial query universe"
    );
    // Version 0 holds the first half of the log; the second half is the
    // live ingest that triggers the swap to version 1.
    let swap_batch = fixture.batches(1, Split::Contiguous).remove(0);
    let fleet = Fleet::standalone(&fixture).start();
    let history = fleet.history();
    let addr = fleet.addr();

    // Readers hammer `score` across the swap; the checker later holds
    // every response to the model at the exact version it claims — old
    // or new in full, never a blend. A response scored against v0 but
    // ranked/flagged against v1 (or vice versa) would match neither.
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for conn in 0..4usize {
            let (stop, history, queries) = (&stop, &history, &fixture.queries);
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut i = conn;
                while !stop.load(Ordering::Relaxed) {
                    let served = history.score(&mut client, queries[i % queries.len()], None);
                    i += 7;
                    assert!(
                        matches!(served, Served::Ok { .. } | Served::Busy),
                        "reader hit unexpected reply: {served:?}"
                    );
                }
            });
        }

        // Trigger the swap mid-hammer, then let readers take a few more
        // laps on the new version before stopping them.
        let mut writer = Client::connect(addr).unwrap();
        assert_eq!(history.ingest(&mut writer, &swap_batch), Ack::Ok(vec![1]));
        std::thread::sleep(std::time::Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(fleet.shard(0).store().load().version, 1);

    // The post-swap window above makes new-version observations all but
    // certain; confirm deterministically with a fresh client either way.
    let mut client = Client::connect(addr).unwrap();
    for &q in fixture.queries.iter().take(10) {
        let served = history.score(&mut client, q, None);
        assert_eq!(served.ok().map(|(v, _)| v), Some(1), "{served:?}");
    }
    assert!(fleet.check().ok > 10, "readers must observe responses");
}
