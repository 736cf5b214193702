//! The compute pool's thread budget, read from `/proc/self/task`: a
//! sequential run (`TAXO_THREADS=1`) starts no pool thread, the first
//! parallel call starts `threads() − 1` workers, and no later call at the
//! same thread count starts another.
//!
//! The binary holds exactly one test, so the only threads counted are
//! this test's, the harness's parked main thread, and the pool's.

#![cfg(target_os = "linux")]

use taxo_nn::parallel::{par_map, par_row_chunks_mut, set_threads, threads};

fn task_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

/// One round of both primitives, big enough to split at any thread count.
fn round(seed: usize) {
    let got = par_map(64, |i| i * seed);
    assert_eq!(got, (0..64).map(|i| i * seed).collect::<Vec<_>>());
    let mut rows = vec![0.0f32; 64 * 3];
    par_row_chunks_mut(&mut rows, 3, |first_row, block| {
        for (k, x) in block.iter_mut().enumerate() {
            *x = (first_row * 3 + k) as f32;
        }
    });
    assert!(rows.iter().enumerate().all(|(k, &x)| x == k as f32));
}

#[test]
fn pool_threads_start_once_and_never_per_call() {
    // Before anything reads the thread count, so it resolves from here.
    std::env::set_var("TAXO_THREADS", "1");
    assert_eq!(threads(), 1);
    let before = task_count();
    for seed in 0..100 {
        round(seed);
    }
    assert_eq!(task_count(), before, "TAXO_THREADS=1 started a thread");

    set_threads(2);
    round(1);
    let pooled = task_count();
    assert_eq!(pooled, before + 1, "two threads means one pool worker");
    for seed in 0..1000 {
        round(seed);
    }
    assert_eq!(task_count(), pooled, "a parallel call started a thread");

    set_threads(4);
    round(2);
    assert_eq!(task_count(), before + 3, "raising the count grows the pool");
    set_threads(2);
    round(3);
    assert_eq!(task_count(), before + 3, "lowering it keeps the workers");
}
