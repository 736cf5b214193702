//! Bounded work queues and the micro-batched scoring engine.
//!
//! f32 requests never come here: connection threads answer them from the
//! snapshot's score table. For the int8 tier, connection threads enqueue
//! a [`ScoreJob`] and wait on its reply channel. A dedicated scorer thread
//! drains **every queued job at once** (up to `batch_max`) and runs the
//! layered fast path over the coalesced pairs:
//!
//! 1. **Dedupe** — identical `(snapshot, query, item)` pairs across the
//!    batch collapse to one unit of work; the single result fans back
//!    out to every requester.
//! 2. **Cache** — each unique pair probes the sharded LRU
//!    [`crate::cache::ScoreCache`]; hits skip scoring entirely.
//! 3. **Batched scoring** — the misses of each snapshot run through
//!    [`taxo_expand::BatchScorer`] (length-bucketed encoder forwards,
//!    one MLP GEMM per bucket, warm arenas from a [`ScratchPool`]),
//!    chunked across [`taxo_nn::parallel::par_map`] workers by
//!    [`ScratchPool::score_chunked`] (the loop the expander's score
//!    table fills through), with structural features copied from the
//!    snapshot's precomputed table.
//!
//! Each job is scored against the snapshot `Arc` it arrived with, so
//! coalescing never mixes taxonomy versions within a response.
//!
//! Queues are bounded and never block producers: [`BoundedQueue::try_push`]
//! fails fast when full (the server sheds with a `busy` response) or
//! closed (drain phase of shutdown). [`BoundedQueue::drain`] blocks
//! consumers until work arrives, and returns `None` only once the queue
//! is closed **and** empty — which is exactly the graceful-shutdown
//! contract: close, then keep draining until dry.

use crate::cache::{ScoreCache, ScoreKey};
use crate::protocol::Tier;
use crate::server::Payload;
use crate::snapshot::ServeSnapshot;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;
use taxo_core::ConceptId;
use taxo_expand::ScratchPool;
use taxo_obs::{histogram, span};

/// Why [`BoundedQueue::try_push`] rejected an item; the item is handed
/// back so the caller can respond to its originator.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity — backpressure; shed with `busy`.
    Full(T),
    /// The queue is closed — the server is draining; shed with
    /// `shutting_down`.
    Closed(T),
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue with explicit backpressure and close-then-drain
/// shutdown. Producers never block; consumers block in [`BoundedQueue::drain`].
///
/// A queue built with [`BoundedQueue::with_fault_points`] carries two
/// `taxo-fault` injection point names: the push point can simulate
/// saturation (a fired `fail` rejects the push as if the queue were
/// full — the caller sheds with `busy` exactly as under real overload),
/// and the pop point can delay consumers (a fired `delay` stalls the
/// drain, letting real saturation build behind it). Both are zero-cost
/// while no fault plan is armed.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    readable: Condvar,
    cap: usize,
    /// `taxo-fault` point names consulted on push/pop (`None` = never).
    fault_push: Option<&'static str>,
    fault_pop: Option<&'static str>,
}

impl<T> BoundedQueue<T> {
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "queue capacity must be at least 1");
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            readable: Condvar::new(),
            cap,
            fault_push: None,
            fault_pop: None,
        }
    }

    /// A queue whose pushes and pops consult the named `taxo-fault`
    /// injection points (see the type docs for the semantics).
    pub fn with_fault_points(cap: usize, push: &'static str, pop: &'static str) -> Self {
        BoundedQueue {
            fault_push: Some(push),
            fault_pop: Some(pop),
            ..BoundedQueue::new(cap)
        }
    }

    /// Enqueues `item` unless the queue is full or closed. Returns the
    /// queue depth after the push.
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        if let Some(point) = self.fault_push {
            // An injected failure is indistinguishable from saturation:
            // the producer sheds with `busy` and the item never enters
            // the queue, so close-then-drain accounting stays exact.
            if taxo_fault::should_fail(point) {
                return Err(PushError::Full(item));
            }
        }
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.cap {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        let depth = state.items.len();
        drop(state);
        self.readable.notify_one();
        Ok(depth)
    }

    /// Takes up to `max` items, blocking while the queue is open and
    /// empty. `None` means closed and fully drained — the consumer
    /// should exit.
    pub fn drain(&self, max: usize) -> Option<Vec<T>> {
        self.take(max, None)
    }

    /// [`BoundedQueue::drain`] that gives up at `deadline`: takes up to
    /// `max` items as soon as any are pending, returning `Some(vec![])`
    /// if the queue is still open and empty at `deadline` and `None` once
    /// it is closed and dry. The WAL group committer uses this to top up
    /// an fsync batch: it sleeps on the condvar, so each arriving job
    /// costs one wake-up.
    pub fn drain_until(&self, max: usize, deadline: Instant) -> Option<Vec<T>> {
        self.take(max, Some(deadline))
    }

    /// Non-blocking [`BoundedQueue::drain`]: takes up to `max` items if
    /// any are pending, returning `Some(vec![])` when the queue is open
    /// but empty and `None` once it is closed and dry.
    pub fn try_drain(&self, max: usize) -> Option<Vec<T>> {
        self.take(max, Some(Instant::now()))
    }

    /// The drains' one loop: waits for items while the queue is open and
    /// empty, until `deadline` (forever if `None`).
    fn take(&self, max: usize, deadline: Option<Instant>) -> Option<Vec<T>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !state.items.is_empty() {
                let take = state.items.len().min(max.max(1));
                let items = state.items.drain(..take).collect();
                drop(state);
                if let Some(point) = self.fault_pop {
                    // Delay-only point: a stalled consumer is the fault
                    // (dropping drained items would violate the exactly-
                    // once delivery contract), so `fail`/`short` actions
                    // configured here deliberately do nothing.
                    let _ = taxo_fault::inject(point);
                }
                return Some(items);
            }
            if state.closed {
                return None;
            }
            state = match deadline {
                None => self.readable.wait(state).unwrap_or_else(|e| e.into_inner()),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Some(Vec::new());
                    }
                    let wait = self.readable.wait_timeout(state, deadline - now);
                    wait.unwrap_or_else(|e| e.into_inner()).0
                }
            };
        }
    }

    /// Closes the queue: further pushes fail, consumers drain what is
    /// left and then see `None`.
    pub fn close(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.readable.notify_all();
    }

    /// Current depth (for gauges; racy by nature).
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .items
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Where one job's scores go back to. A wire request's completion is
/// pushed to the reactor thread that owns its connection (waking its
/// epoll loop), with the response rendered there; in-process callers
/// wait on the receiving end of a channel.
pub enum ScoreSink {
    /// In-process callers: the caller waits on the paired receiver.
    Channel(mpsc::Sender<Vec<f32>>),
    /// Wire requests: the completion lands in the reactor thread's
    /// inbox.
    Reactor(crate::reactor::CompletionSink<Payload>),
}

impl ScoreSink {
    /// A channel-backed sink plus its receiving end.
    pub fn channel() -> (ScoreSink, mpsc::Receiver<Vec<f32>>) {
        let (tx, rx) = mpsc::channel();
        (ScoreSink::Channel(tx), rx)
    }

    /// Delivers the scores. A dead receiver (client gone) is ignored.
    pub fn send(&self, scores: Vec<f32>) {
        match self {
            ScoreSink::Channel(tx) => {
                let _ = tx.send(scores);
            }
            ScoreSink::Reactor(sink) => sink.deliver(Payload::Score(scores)),
        }
    }

    /// Abandons the sink without signalling a lost completion — used
    /// when a job bounced off a full queue and the caller answers the
    /// request inline (`busy`), so the reactor slot must not also be
    /// filled by a dead-sink completion.
    pub fn cancel(&self) {
        match self {
            ScoreSink::Channel(_) => {}
            ScoreSink::Reactor(sink) => sink.cancel(),
        }
    }
}

/// One queued `score` request: the snapshot it must be answered from,
/// the query, its eligible candidate items, and the sink the scores
/// go back on (in `items` order).
pub struct ScoreJob {
    pub snapshot: Arc<ServeSnapshot>,
    /// Which weight tier answers this job (part of the cache identity).
    pub tier: Tier,
    pub query: ConceptId,
    pub items: Vec<ConceptId>,
    pub reply: ScoreSink,
}

/// Scores one coalesced batch of jobs — dedupe, cache probe, batched
/// scoring of the misses — then routes each job's scores back on its
/// reply channel.
///
/// Scoring is pure given a snapshot and the fast path is bitwise
/// identical to the scalar one, so every score is bit-identical to
/// scoring the same pair alone on one thread — batching, deduplication,
/// caching, and `TAXO_THREADS` are all invisible in the responses.
pub fn score_batch(jobs: Vec<ScoreJob>, pool: &ScratchPool, cache: &ScoreCache) {
    let _g = span!("serve.batch");
    histogram!("serve.batch.jobs").observe(jobs.len() as u64);
    // Completion side of the `serve.score.accepted` ledger (see
    // `score_request`): jobs reaching this function are guaranteed a
    // reply-channel send below, even during shutdown drain.
    taxo_obs::counter!("serve.score.completed").add(jobs.len() as u64);

    let total: usize = jobs.iter().map(|j| j.items.len()).sum();
    histogram!("serve.batch.pairs").observe(total as u64);

    // Dedupe identical (snapshot, query, item) pairs across the whole
    // batch: each unique pair is probed and scored exactly once, and the
    // result fans back out to every job that asked for it. `uniq_jobs`
    // remembers a job holding the key's snapshot `Arc`.
    let mut index: HashMap<ScoreKey, usize> = HashMap::with_capacity(total);
    let mut uniq_keys: Vec<ScoreKey> = Vec::with_capacity(total);
    let mut uniq_jobs: Vec<usize> = Vec::with_capacity(total);
    for (j, job) in jobs.iter().enumerate() {
        for &item in &job.items {
            let key = (job.snapshot.version, job.tier, job.query, item);
            index.entry(key).or_insert_with(|| {
                uniq_keys.push(key);
                uniq_jobs.push(j);
                uniq_keys.len() - 1
            });
        }
    }
    histogram!("serve.batch.unique_pairs").observe(uniq_keys.len() as u64);

    // Cache probe per unique pair (counts serve.cache.hits/misses).
    let mut scores = vec![0.0f32; uniq_keys.len()];
    let mut missed: Vec<usize> = Vec::new();
    for (u, key) in uniq_keys.iter().enumerate() {
        match cache.get(key) {
            Some(s) => scores[u] = s,
            None => missed.push(u),
        }
    }

    // Score the misses, grouped by (snapshot, tier) — a batch usually
    // spans one version, at most two around a swap, times the tiers in
    // play. Sorting keeps each group contiguous; within a group order is
    // irrelevant to the bits.
    missed.sort_unstable_by_key(|&u| (uniq_keys[u].0, uniq_keys[u].1));
    let mut start = 0;
    while start < missed.len() {
        let (version, tier) = (uniq_keys[missed[start]].0, uniq_keys[missed[start]].1);
        let mut end = start + 1;
        while end < missed.len()
            && uniq_keys[missed[end]].0 == version
            && uniq_keys[missed[end]].1 == tier
        {
            end += 1;
        }
        let group = &missed[start..end];
        let snap = &jobs[uniq_jobs[group[0]]].snapshot;
        let pairs: Vec<(ConceptId, ConceptId)> = group
            .iter()
            .map(|&u| (uniq_keys[u].2, uniq_keys[u].3))
            .collect();
        let fresh = score_misses(snap, tier, &pairs, pool);
        for (&u, &s) in group.iter().zip(&fresh) {
            scores[u] = s;
            cache.insert(uniq_keys[u], s);
        }
        start = end;
    }

    for job in &jobs {
        let out: Vec<f32> = job
            .items
            .iter()
            .map(|&item| scores[index[&(job.snapshot.version, job.tier, job.query, item)]])
            .collect();
        // A dead receiver means the connection worker gave up (client
        // disconnected mid-request); nothing to do.
        job.reply.send(out);
    }
}

/// Batch-scores uncached pairs of one snapshot through the shared
/// chunked loop ([`ScratchPool::score_chunked`]), with structural feature
/// rows copied from the snapshot's build-time table (identical bytes to
/// recomputing them).
fn score_misses(
    snap: &ServeSnapshot,
    tier: Tier,
    pairs: &[(ConceptId, ConceptId)],
    pool: &ScratchPool,
) -> Vec<f32> {
    // Structural feature rows are tier-independent (the structural model
    // is not quantized), so both tiers share the snapshot's table.
    let fill = |(q, i): (ConceptId, ConceptId), row: &mut [f32]| match snap.structural_row(q, i) {
        Some(src) => row.copy_from_slice(src),
        // A pair outside the snapshot's candidate table (or a
        // structural-free detector, where rows are empty).
        None => {
            if let Some(st) = &snap.detector.structural {
                st.pair_features_into(q, i, row);
            }
        }
    };
    match tier {
        Tier::F32 => pool.score_chunked(snap.detector.as_ref(), &snap.vocab, pairs, fill),
        Tier::Int8 => pool.score_chunked(snap.quant.as_ref(), &snap.vocab, pairs, fill),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxo_core::{Taxonomy, Vocabulary};

    /// A tiny served snapshot with a relational (vanilla) detector and a
    /// real candidate set, enough to drive `score_batch` end to end.
    fn tiny_snapshot() -> (Arc<ServeSnapshot>, Vec<ConceptId>) {
        let mut vocab = Vocabulary::new();
        let names = ["root", "snack food", "potato chips", "banana chips"];
        let ids: Vec<ConceptId> = names.iter().map(|n| vocab.intern(n)).collect();
        let mut tax = Taxonomy::new();
        for &c in &ids {
            tax.add_node(c);
        }
        tax.add_edge(ids[0], ids[1]).unwrap();
        let relational = taxo_expand::RelationalModel::vanilla(
            &vocab,
            &[],
            &taxo_expand::RelationalConfig::tiny(7),
        );
        let detector = taxo_expand::HypoDetector::new(
            Some(relational),
            None,
            &taxo_expand::DetectorConfig::tiny(7),
        );
        let pairs: Vec<taxo_expand::CandidatePair> = [ids[2], ids[3]]
            .iter()
            .map(|&item| taxo_expand::CandidatePair {
                query: ids[1],
                item,
                clicks: 3,
            })
            .collect();
        let snap = ServeSnapshot::build(0, Arc::new(vocab), Arc::new(detector), tax, &pairs);
        (Arc::new(snap), vec![ids[2], ids[3]])
    }

    #[test]
    fn score_batch_dedupes_and_caches_bit_identically() {
        let (snap, items) = tiny_snapshot();
        let query = snap.vocab.get("snack food").unwrap();
        let reference: Vec<u32> = items
            .iter()
            .map(|&i| snap.detector.score(&snap.vocab, query, i).to_bits())
            .collect();

        let pool = ScratchPool::new();
        let cache = ScoreCache::new(1024);
        let job = |tx: mpsc::Sender<Vec<f32>>| ScoreJob {
            snapshot: Arc::clone(&snap),
            tier: Tier::F32,
            query,
            items: items.clone(),
            reply: ScoreSink::Channel(tx),
        };

        // Two identical jobs in one batch: the duplicate pairs collapse
        // to one scoring unit, and both replies carry identical bits.
        let (tx_a, rx_a) = mpsc::channel();
        let (tx_b, rx_b) = mpsc::channel();
        score_batch(vec![job(tx_a), job(tx_b)], &pool, &cache);
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        let a = bits(rx_a.recv().unwrap());
        assert_eq!(a, bits(rx_b.recv().unwrap()));
        assert_eq!(a, reference, "batched path must match scalar scoring");
        assert_eq!(cache.len(), items.len(), "every unique pair was cached");

        // A warm batch is served from the cache — same bits again.
        let (tx_c, rx_c) = mpsc::channel();
        score_batch(vec![job(tx_c)], &pool, &cache);
        assert_eq!(bits(rx_c.recv().unwrap()), reference);
    }

    #[test]
    fn mixed_tier_batch_scores_each_tier_with_its_own_weights() {
        let (snap, items) = tiny_snapshot();
        let query = snap.vocab.get("snack food").unwrap();
        let f32_ref: Vec<u32> = items
            .iter()
            .map(|&i| snap.detector.score(&snap.vocab, query, i).to_bits())
            .collect();
        let int8_ref: Vec<u32> = items
            .iter()
            .map(|&i| snap.quant.score(&snap.vocab, query, i).to_bits())
            .collect();

        let pool = ScratchPool::new();
        let cache = ScoreCache::new(1024);
        let job = |tier: Tier, tx: mpsc::Sender<Vec<f32>>| ScoreJob {
            snapshot: Arc::clone(&snap),
            tier,
            query,
            items: items.clone(),
            reply: ScoreSink::Channel(tx),
        };
        let (tx_f, rx_f) = mpsc::channel();
        let (tx_q, rx_q) = mpsc::channel();
        score_batch(
            vec![job(Tier::F32, tx_f), job(Tier::Int8, tx_q)],
            &pool,
            &cache,
        );
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(rx_f.recv().unwrap()), f32_ref);
        assert_eq!(bits(rx_q.recv().unwrap()), int8_ref);
        assert_eq!(
            cache.len(),
            2 * items.len(),
            "each tier cached under its own keys"
        );

        // Warm both tiers from the cache — same bits again.
        let (tx_f2, rx_f2) = mpsc::channel();
        let (tx_q2, rx_q2) = mpsc::channel();
        score_batch(
            vec![job(Tier::F32, tx_f2), job(Tier::Int8, tx_q2)],
            &pool,
            &cache,
        );
        assert_eq!(bits(rx_f2.recv().unwrap()), f32_ref);
        assert_eq!(bits(rx_q2.recv().unwrap()), int8_ref);
    }

    #[test]
    fn push_pop_and_backpressure() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        match q.try_push(3) {
            Err(PushError::Full(3)) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(q.drain(8), Some(vec![1, 2]));
        assert!(q.is_empty());
    }

    #[test]
    fn close_then_drain_until_dry() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        match q.try_push(3) {
            Err(PushError::Closed(3)) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(q.drain(1), Some(vec![1]));
        assert_eq!(q.drain(1), Some(vec![2]));
        assert_eq!(q.drain(1), None, "closed and dry");
    }

    #[test]
    fn try_drain_never_blocks() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        assert_eq!(q.try_drain(2), Some(vec![]), "open + empty");
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.try_push(3).unwrap();
        assert_eq!(q.try_drain(2), Some(vec![1, 2]));
        q.close();
        assert_eq!(q.try_drain(2), Some(vec![3]), "closed queues still drain");
        assert_eq!(q.try_drain(2), None, "closed and dry");
    }

    #[test]
    fn blocked_consumer_wakes_on_push_and_close() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(items) = q.drain(2) {
                    got.extend(items);
                }
                got
            })
        };
        for i in 0..5 {
            while matches!(q.try_push(i), Err(PushError::Full(_))) {
                std::thread::yield_now();
            }
        }
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }
}
