//! A quiet compute pool burns no CPU. A worker that finishes a chunk
//! polls for the next one for a short fixed time, then parks; so once a
//! parallel call has returned and that time has passed, the pool's CPU
//! time, read from `/proc/self/task/*/stat`, stops advancing. This is
//! what keeps an idle `serve` or `router` from waking at all.
//!
//! The binary holds exactly one test, so the only pool threads are this
//! test's.

#![cfg(target_os = "linux")]

use std::time::Duration;
use taxo_nn::parallel::{par_map, set_threads};

/// The summed user and system CPU time, in clock ticks, of every
/// `taxo-par-*` thread, and how many there are.
fn pool_ticks() -> (u64, usize) {
    let (mut ticks, mut workers) = (0, 0);
    let tasks = std::fs::read_dir("/proc/self/task").expect("read /proc/self/task");
    for task in tasks {
        let path = task.expect("list /proc/self/task").path().join("stat");
        let stat = std::fs::read_to_string(path).expect("read a task's stat");
        // `pid (comm) state …`: the name may hold spaces, so fields are
        // counted from its closing parenthesis.
        let (open, close) = (stat.find('(').unwrap(), stat.rfind(')').unwrap());
        if !stat[open + 1..close].starts_with("taxo-par-") {
            continue;
        }
        let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
        // Fields 14 and 15 (utime, stime); `state`, field 3, is fields[0].
        for field in &fields[11..13] {
            ticks += field.parse::<u64>().expect("a tick count");
        }
        workers += 1;
    }
    (ticks, workers)
}

#[test]
fn a_quiet_pool_burns_no_cpu() {
    set_threads(2);
    // The caller's chunk sleeps, so the worker takes the other one and
    // then polls for more.
    let ran_on = par_map(2, |_| {
        std::thread::sleep(Duration::from_millis(20));
        std::thread::current().name().map(str::to_owned)
    });
    assert!(
        ran_on
            .iter()
            .flatten()
            .any(|name| name.starts_with("taxo-par-")),
        "no chunk ran on the pool: {ran_on:?}"
    );
    // Far past the pool's poll budget: the worker has parked.
    std::thread::sleep(Duration::from_millis(50));
    let (before, workers) = pool_ticks();
    assert_eq!(workers, 1, "two threads means one pool worker");
    std::thread::sleep(Duration::from_millis(200));
    let (after, _) = pool_ticks();
    assert!(
        after - before <= 1,
        "an idle pool worker used {} clock ticks of CPU in 200 ms",
        after - before
    );
}
