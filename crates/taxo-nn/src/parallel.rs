//! Workspace-wide parallel execution layer.
//!
//! Every parallel code path in the workspace — threaded matmul kernels,
//! data-parallel training batches, candidate-pair scoring — is built on
//! the primitives here ([`par_row_chunks_mut`], and [`par_map`] with its
//! slot-filling form [`par_map_into`]) and governed by one thread-count
//! knob:
//!
//! * `TAXO_THREADS=<n>` environment variable (checked once, lazily);
//!   `TAXO_THREADS=1` forces fully sequential execution.
//! * [`set_threads`] for programmatic override (used by the determinism
//!   regression tests to pin 1 vs N threads inside one process).
//! * Otherwise `std::thread::available_parallelism()`.
//!
//! # Determinism contract
//!
//! Parallel sections must produce results that are **independent of the
//! thread count**. The primitives support this by construction:
//!
//! * [`par_row_chunks_mut`] gives each chunk an exclusive contiguous
//!   block of output rows, so each output row is written by exactly one
//!   thread with the same per-row accumulation order as the sequential
//!   kernel — results are bitwise identical to `TAXO_THREADS=1`.
//! * [`par_map`] evaluates a pure function at every index and returns
//!   results in index order; callers reduce the returned `Vec` in that
//!   fixed order, so floating-point accumulation order never depends on
//!   scheduling. [`par_map_into`] does the same into caller-owned slots
//!   (a training window's reused per-example contexts).
//!
//! Training builds on the second rule with *record and replay* (see
//! [`crate::scratch`]): an MLM window or a detector batch runs each
//! example's forward and backward in one [`par_map_into`] as a pure data
//! pass against frozen parameters, writing the example's parameter-
//! gradient updates into its slot's record. A second [`par_map_into`]
//! over disjoint parameter groups then replays the records into each
//! group in example order — the `+=` updates, each value as computed,
//! that the sequential loop would have made — and steps the group's
//! optimiser. How the slots and groups were split into chunks never
//! reaches a gradient, so training is bit-identical at any thread count.
//!
//! # The compute pool
//!
//! Chunks run on one process-wide pool of `threads() − 1` workers,
//! started by the first parallel call and grown when [`set_threads`]
//! raises the count (surplus workers stay parked when it falls); a
//! sequential run (`TAXO_THREADS=1`) never starts one. A call splits its
//! work into the same chunks at any pool state, queues every chunk but
//! the first, runs the first on the calling thread, then runs any of its
//! queued chunks no worker has taken yet before it waits for the rest. A
//! caller therefore only ever waits on chunks another thread is running:
//! nested calls (an eval fan-out whose units train models that call
//! [`par_map`]) cannot deadlock, and a worker that wakes late costs no
//! more than running sequentially. A panic in any chunk re-raises on the
//! caller once every chunk of the call has finished.
//!
//! A training loop calls the pool every few tens of microseconds, and a
//! futex wake-up costs about as much as a chunk's work. So a worker that
//! finishes a chunk, and a caller waiting on its chunks, first poll for
//! a short fixed time (`POLL`) and only then park on a condvar or the
//! thread's park token; a call that finds a worker polling makes no
//! futex call. Every polling round yields the CPU, so a poll beside a
//! busy thread (two processes training on two cores) gives way at once.
//! A pool that gets no call for longer than `POLL` sleeps.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// Resolved thread count; 0 means "not yet initialised".
static THREADS: AtomicUsize = AtomicUsize::new(0);

fn resolve_default() -> usize {
    match std::env::var("TAXO_THREADS") {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or(1),
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// The thread count all parallel sections use. Reads `TAXO_THREADS` on
/// first call; later calls return the cached (or [`set_threads`]) value.
pub fn threads() -> usize {
    let cur = THREADS.load(Ordering::Relaxed);
    if cur != 0 {
        return cur;
    }
    let n = resolve_default();
    // A concurrent first call may race; both compute the same default, so
    // a plain store is fine.
    THREADS.store(n, Ordering::Relaxed);
    n
}

/// Overrides the thread count for the rest of the process (clamped to at
/// least 1). Intended for tests; library code should rely on
/// `TAXO_THREADS`.
pub fn set_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Splits `data` into per-thread contiguous blocks of whole rows
/// (`row_len` elements each) and runs `f(first_row, block)` on each block
/// concurrently. The first block runs on the calling thread.
///
/// Each row lands in exactly one block, so a kernel that fills rows
/// independently produces bitwise-identical output at any thread count.
///
/// # Panics
/// Panics if `row_len` does not divide `data.len()`.
pub fn par_row_chunks_mut<F>(data: &mut [f32], row_len: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(
        row_len > 0 && data.len().is_multiple_of(row_len),
        "par_row_chunks_mut: row_len {row_len} must divide buffer length {}",
        data.len()
    );
    let rows = data.len() / row_len;
    let t = threads().min(rows.max(1));
    if t <= 1 {
        f(0, data);
        return;
    }
    let chunk_rows = rows.div_ceil(t);
    run_parts(
        data.chunks_mut(chunk_rows * row_len).collect(),
        |c, block| f(c * chunk_rows, block),
    );
}

/// Evaluates `f(0), f(1), …, f(n-1)` across the configured threads and
/// returns the results **in index order**, like
/// `(0..n).map(f).collect()` but parallel.
///
/// `f` must be pure with respect to index order (no shared mutation);
/// callers that reduce the returned `Vec` sequentially get the same
/// floating-point accumulation order at any thread count.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    par_map_into(&mut out, |i, slot| *slot = Some(f(i)));
    out.into_iter()
        .map(|x| x.expect("par_map: every index filled"))
        .collect()
}

/// [`par_map`] into caller-owned slots: runs `f(i, &mut items[i])` for
/// every index across the configured threads, the slots split into the
/// same contiguous chunks `par_map` uses, so each slot is written by
/// exactly one thread. Training keeps one slot (a reused forward context)
/// per example; when sequential this allocates nothing. Counted as a
/// `par_map` call.
pub fn par_map_into<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    taxo_obs::counter!("nn.parallel.par_map_calls").inc();
    taxo_obs::counter!("nn.parallel.par_map_items").add(n as u64);
    let t = threads().min(n.max(1));
    if t <= 1 || n <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let chunk = n.div_ceil(t);
    run_parts(items.chunks_mut(chunk).collect(), |c, block| {
        for (i, item) in block.iter_mut().enumerate() {
            f(c * chunk + i, item);
        }
    });
}

/// Runs `f(c, parts[c])` for every part: part 0 on the calling thread,
/// the rest on the pool (or on the calling thread, if no worker has taken
/// them by the time part 0 is done). Returns once every part has run.
fn run_parts<P, F>(parts: Vec<P>, f: F)
where
    P: Send,
    F: Fn(usize, P) + Sync,
{
    let cells: Vec<Mutex<Option<P>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let run = |c: usize| {
        let part = lock(&cells[c]).take().expect("each chunk runs once");
        f(c, part);
    };
    run_chunks(cells.len(), &run);
}

/// One call's completion state, shared by `Arc` between the caller and
/// the workers running its chunks, so a worker's last touch (the
/// count-down and the caller's unpark) never reaches the caller's stack.
struct Latch {
    /// Queued chunks not yet finished.
    pending: AtomicUsize,
    caller: Thread,
    /// The first panic payload of any chunk, re-raised on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Latch {
    /// Runs one chunk, keeping a panic for the caller instead of
    /// unwinding the running thread.
    fn run(&self, chunk: impl FnOnce()) {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(chunk)) {
            lock(&self.panic).get_or_insert(payload);
        }
    }

    /// Marks one queued chunk finished. The `AcqRel` count-down and the
    /// `Acquire` load in [`Latch::wait`] that reads zero pair up, so the
    /// caller sees every write of every chunk.
    fn count_down(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.caller.unpark();
        }
    }

    /// Returns once every queued chunk has finished: polls `pending`
    /// for up to `POLL`, then parks until the last count-down unparks.
    fn wait(&self) {
        let done = || self.pending.load(Ordering::Acquire) == 0;
        if poll(done) {
            return;
        }
        while !done() {
            thread::park();
        }
    }
}

/// A queued chunk of one call.
struct Task {
    latch: Arc<Latch>,
    /// The call's chunk runner, its lifetime erased (see `run_chunks`).
    run: &'static (dyn Fn(usize) + Sync),
    chunk: usize,
}

impl Task {
    fn execute(self) {
        let Task { latch, run, chunk } = self;
        latch.run(|| run(chunk));
        latch.count_down();
    }
}

/// How long a worker that finished a chunk, and a caller waiting on its
/// queued chunks, poll before they park: longer than the 15–50 µs a
/// training loop spends between two pool calls, far shorter than any
/// pause of a server's.
const POLL: Duration = Duration::from_micros(100);

/// `spin_loop` hints per polling round, between two `yield_now` calls.
const SPINS: usize = 8;

/// Polls `done` until it holds (returning `true`) or `POLL` has passed
/// (`false`). Every round yields the CPU, so a poll never holds a core
/// another runnable thread could use.
fn poll(done: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        if done() {
            return true;
        }
        if start.elapsed() >= POLL {
            return false;
        }
        for _ in 0..SPINS {
            std::hint::spin_loop();
        }
        thread::yield_now();
    }
}

struct Pool {
    state: Mutex<PoolState>,
    /// Idle workers park here once their poll runs out; signalled for
    /// queued chunks only while one is parked.
    ready: Condvar,
    /// The queue's length, stored under the lock and read without it by
    /// polling workers.
    queued: AtomicUsize,
}

struct PoolState {
    queue: VecDeque<Task>,
    workers: usize,
    /// Workers waiting on `ready`. A worker counts itself under the lock
    /// it then waits with, so a `submit` that queues after the worker
    /// found the queue empty sees the count and signals: no wake-up is
    /// lost.
    parked: usize,
}

static POOL: Pool = Pool {
    state: Mutex::new(PoolState {
        queue: VecDeque::new(),
        workers: 0,
        parked: 0,
    }),
    ready: Condvar::new(),
    queued: AtomicUsize::new(0),
};

/// Locks a mutex, ignoring poisoning: nothing panics while holding the
/// pool's locks, and a chunk's panic is caught before it could poison one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Pool {
    /// Tops the pool up to `threads() − 1` workers, then queues chunks
    /// `1..chunks` of `latch`'s call. A worker that cannot be started is
    /// not fatal: the caller runs whatever no worker takes.
    fn submit(
        &'static self,
        latch: &Arc<Latch>,
        run: &'static (dyn Fn(usize) + Sync),
        chunks: usize,
    ) {
        let mut state = lock(&self.state);
        // Workers live as long as the process, detached: a chunk's panic
        // is caught and re-raised on its caller, so none is lost.
        while state.workers + 1 < threads() {
            let started = thread::Builder::new()
                .name(format!("taxo-par-{}", state.workers))
                .spawn(move || self.work());
            if started.is_err() {
                break;
            }
            state.workers += 1;
        }
        for chunk in 1..chunks {
            state.queue.push_back(Task {
                latch: Arc::clone(latch),
                run,
                chunk,
            });
        }
        self.queued.store(state.queue.len(), Ordering::Relaxed);
        // A polling worker sees `queued` by itself; only parked ones need
        // a signal.
        let wake = state.parked.min(chunks - 1);
        drop(state);
        for _ in 0..wake {
            self.ready.notify_one();
        }
    }

    /// Takes back every chunk of `latch`'s call that no worker has taken.
    fn reclaim(&self, latch: &Arc<Latch>) -> Vec<Task> {
        let mut state = lock(&self.state);
        let mut mine = Vec::new();
        let mut i = 0;
        while i < state.queue.len() {
            if Arc::ptr_eq(&state.queue[i].latch, latch) {
                mine.extend(state.queue.remove(i));
            } else {
                i += 1;
            }
        }
        self.queued.store(state.queue.len(), Ordering::Relaxed);
        mine
    }

    /// A worker: runs queued chunks; after each, polls for the next one
    /// before it parks on `ready` while the queue is empty.
    fn work(&self) {
        let mut state = lock(&self.state);
        loop {
            match state.queue.pop_front() {
                Some(task) => {
                    self.queued.store(state.queue.len(), Ordering::Relaxed);
                    drop(state);
                    task.execute();
                    poll(|| self.queued.load(Ordering::Relaxed) != 0);
                    state = lock(&self.state);
                }
                None => {
                    state.parked += 1;
                    state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
                    state.parked -= 1;
                }
            }
        }
    }
}

/// Runs `run(0), …, run(chunks − 1)` (`chunks ≥ 2`) on the calling
/// thread and the pool, and returns once all have finished, re-raising
/// the first panic of any chunk.
fn run_chunks(chunks: usize, run: &(dyn Fn(usize) + Sync)) {
    let latch = Arc::new(Latch {
        pending: AtomicUsize::new(chunks - 1),
        caller: thread::current(),
        panic: Mutex::new(None),
    });
    // SAFETY: the queued tasks borrow `run` past what the borrow checker
    // can see, so its lifetime is erased here. It stays valid because no
    // call returns, or unwinds, before every chunk it queued has
    // finished: the code between `submit` and `wait` catches every panic
    // a chunk raises, each queued task is either taken back by
    // `reclaim` and run here or popped by exactly one worker and run
    // there, and a worker touches only the `Arc`'d latch after its
    // chunk returns. `wait`, whether it returns from its poll or after
    // parking, returns only once an `Acquire` load reads `pending`,
    // counted down after each queued chunk finishes, at zero.
    let erased = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(run)
    };
    POOL.submit(&latch, erased, chunks);
    latch.run(|| run(0));
    for task in POOL.reclaim(&latch) {
        task.execute();
    }
    latch.wait();
    let payload = lock(&latch.panic).take();
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}

/// Serialises tests (across this crate's test binary) that mutate the
/// global thread count via [`set_threads`], so concurrently running tests
/// never observe each other's overrides.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn par_map_preserves_index_order() {
        let _guard = test_lock();
        set_threads(4);
        let got = par_map(37, |i| i * i);
        set_threads(1);
        assert_eq!(got, (0..37).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_small_and_empty_inputs() {
        let _guard = test_lock();
        set_threads(8);
        assert_eq!(par_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, |i| i + 1), vec![1]);
        set_threads(1);
    }

    #[test]
    fn par_row_chunks_mut_covers_every_row_once() {
        let _guard = test_lock();
        set_threads(4);
        let rows = 13;
        let cols = 3;
        let mut buf = vec![0.0f32; rows * cols];
        par_row_chunks_mut(&mut buf, cols, |first_row, chunk| {
            for (r, row) in chunk.chunks_mut(cols).enumerate() {
                for x in row.iter_mut() {
                    *x += (first_row + r) as f32;
                }
            }
        });
        set_threads(1);
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(buf[r * cols + c], r as f32, "row {r} col {c}");
            }
        }
    }

    /// A value per index that no chunking could produce by accident.
    fn mix(i: usize) -> u64 {
        (i as u64 ^ 0x9e37_79b9).wrapping_mul(0xff51_afd7_ed55_8ccd)
    }

    proptest! {
        #[test]
        fn pool_matches_sequential_on_ragged_sizes(n in 0usize..70, row_len in 1usize..6) {
            let _guard = test_lock();
            let want_map: Vec<u64> = (0..n).map(mix).collect();
            let want_rows: Vec<f32> = (0..n * row_len).map(|k| (mix(k) % 1000) as f32).collect();
            for t in [1, 2, 8] {
                set_threads(t);
                let got_map = par_map(n, mix);
                let mut got_rows = vec![f32::NAN; n * row_len];
                par_row_chunks_mut(&mut got_rows, row_len, |first_row, block| {
                    for (k, x) in block.iter_mut().enumerate() {
                        *x = (mix(first_row * row_len + k) % 1000) as f32;
                    }
                });
                set_threads(1);
                prop_assert_eq!(&got_map, &want_map, "par_map at {} threads", t);
                prop_assert_eq!(&got_rows, &want_rows, "par_row_chunks_mut at {} threads", t);
            }
        }
    }

    /// Runs `par_map(2, ..)` where chunk `panicking` panics at once and
    /// the other sleeps, then sets a flag; the panic must reach the
    /// caller, and only after the flag is set.
    fn panic_waits_for_sibling(panicking: usize) {
        let _guard = test_lock();
        set_threads(2);
        let sibling_done = AtomicBool::new(false);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            par_map(2, |i| {
                if i == panicking {
                    panic!("chunk {i} fails");
                }
                thread::sleep(Duration::from_millis(50));
                sibling_done.store(true, Ordering::SeqCst);
            })
        }));
        set_threads(1);
        let payload = outcome.expect_err("the chunk's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some(format!("chunk {panicking} fails").as_str()),
            "the chunk's own payload is re-raised"
        );
        assert!(
            sibling_done.load(Ordering::SeqCst),
            "the panic re-raised before the sibling chunk finished"
        );
    }

    #[test]
    fn panic_in_the_callers_chunk_waits_for_the_queued_sibling() {
        panic_waits_for_sibling(0);
    }

    #[test]
    fn panic_in_a_queued_chunk_waits_for_the_callers_sibling() {
        panic_waits_for_sibling(1);
    }

    #[test]
    fn nested_par_map_three_deep_completes() {
        let _guard = test_lock();
        set_threads(4);
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let sums = par_map(5, |a| {
                par_map(6, |b| {
                    par_map(7, |c| a * 100 + b * 10 + c).iter().sum::<usize>()
                })
                .iter()
                .sum::<usize>()
            });
            let _ = tx.send(sums);
        });
        let got = rx.recv_timeout(Duration::from_secs(60));
        set_threads(1);
        let want: Vec<usize> = (0..5)
            .map(|a| {
                (0..6)
                    .map(|b| (0..7).map(|c| a * 100 + b * 10 + c).sum::<usize>())
                    .sum()
            })
            .collect();
        assert_eq!(got.expect("nested par_map deadlocked"), want);
    }
}
