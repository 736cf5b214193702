//! Sharded LRU cache of served scores.
//!
//! Keys are `(snapshot_version, query, item)` — the full identity of a
//! served score, since scoring is pure given a snapshot. Versioned keys
//! make invalidation free: a snapshot swap simply starts missing under
//! the new version, and entries of retired versions age out through
//! normal LRU pressure. Cached values are **bit-identical** to
//! recomputing (the fast path guarantees one canonical `f32` per pair
//! per snapshot), so a hit can never change a response, only its cost.
//!
//! The map is sharded so connection workers can probe concurrently
//! (the all-hit request fast path) while the scorer thread fills misses;
//! each shard is an independent `Mutex<HashMap + intrusive LRU list>`
//! with slab-allocated nodes, so steady-state hits and evictions touch
//! no allocator at all.
//!
//! Observability: `serve.cache.hits` / `serve.cache.misses` count probe
//! outcomes, `serve.cache.evictions` counts LRU displacements, and the
//! `serve.cache.entries` gauge tracks residency.

use crate::protocol::Tier;
use std::sync::Arc;
use taxo_core::ConceptId;
use taxo_obs::{counter, gauge};

/// Cache key: one scored pair under one published snapshot and tier.
/// Tiered keys keep the two weight sets from ever cross-contaminating:
/// an int8 score can only ever be served to an int8 request.
pub type ScoreKey = (u64, Tier, ConceptId, ConceptId);

const SHARDS: usize = 16;
const NIL: u32 = u32::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    prev: u32,
    next: u32,
}

/// One LRU shard: `map` indexes into the `nodes` slab, which is linked
/// most-recent-first from `head` to `tail`. The slab never shrinks and
/// never exceeds `cap`, so once a shard has filled up, every insert
/// recycles the tail node in place.
struct Shard<K, V> {
    map: std::collections::HashMap<K, u32>,
    nodes: Vec<Node<K, V>>,
    head: u32,
    tail: u32,
}

impl<K: std::hash::Hash + Eq + Copy, V: Clone> Shard<K, V> {
    fn new() -> Self {
        Shard {
            map: std::collections::HashMap::new(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn lookup(&mut self, key: &K) -> Option<V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.touch(idx);
                Some(self.nodes[idx as usize].value.clone())
            }
            None => None,
        }
    }

    /// Inserts or refreshes; returns `true` when an existing entry was
    /// displaced to make room.
    fn insert(&mut self, key: K, value: V, cap: usize) -> InsertOutcome {
        if let Some(idx) = self.map.get(&key).copied() {
            self.nodes[idx as usize].value = value;
            self.touch(idx);
            return InsertOutcome::Refreshed;
        }
        if self.nodes.len() < cap {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            self.map.insert(key, idx);
            self.push_front(idx);
            return InsertOutcome::Grew;
        }
        // Full: recycle the LRU tail node in place.
        let idx = self.tail;
        let old = self.nodes[idx as usize].key;
        self.map.remove(&old);
        self.unlink(idx);
        {
            let n = &mut self.nodes[idx as usize];
            n.key = key;
            n.value = value;
        }
        self.map.insert(key, idx);
        self.push_front(idx);
        InsertOutcome::Evicted
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        {
            let n = &mut self.nodes[idx as usize];
            n.prev = NIL;
            n.next = old_head;
        }
        match old_head {
            NIL => self.tail = idx,
            h => self.nodes[h as usize].prev = idx,
        }
        self.head = idx;
    }

    fn touch(&mut self, idx: u32) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }
}

/// What [`Shard::insert`] did with the entry.
enum InsertOutcome {
    Refreshed,
    Grew,
    Evicted,
}

/// The process-wide served-score cache (one per server). See the module
/// docs for the keying, invalidation, and determinism story.
pub struct ScoreCache {
    shards: Vec<std::sync::Mutex<Shard<ScoreKey, f32>>>,
    /// Per-shard capacity (total capacity split evenly, rounded up).
    shard_cap: usize,
}

impl std::fmt::Debug for ScoreCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScoreCache")
            .field("shards", &self.shards.len())
            .field("shard_cap", &self.shard_cap)
            .finish()
    }
}

impl ScoreCache {
    /// A cache holding at least `capacity` entries overall (rounded up to
    /// a multiple of the shard count).
    pub fn new(capacity: usize) -> Self {
        ScoreCache {
            shards: (0..SHARDS)
                .map(|_| std::sync::Mutex::new(Shard::new()))
                .collect(),
            shard_cap: capacity.div_ceil(SHARDS).max(1),
        }
    }

    /// Deterministic shard choice — a fibonacci-style mix of the key, so
    /// shard load does not depend on `HashMap`'s per-process seed.
    fn shard(&self, key: &ScoreKey) -> &std::sync::Mutex<Shard<ScoreKey, f32>> {
        let mixed =
            (key.0 ^ ((key.1 as u64) << 48) ^ (u64::from(key.2 .0) << 32) ^ u64::from(key.3 .0))
                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(mixed >> 56) as usize % SHARDS]
    }

    fn lookup(&self, key: &ScoreKey) -> Option<f32> {
        self.shard(key)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .lookup(key)
    }

    /// Counted single-key probe: bumps `serve.cache.hits` or
    /// `serve.cache.misses` and the entry's recency.
    pub fn get(&self, key: &ScoreKey) -> Option<f32> {
        let hit = self.lookup(key);
        match hit {
            Some(_) => counter!("serve.cache.hits").inc(),
            None => counter!("serve.cache.misses").inc(),
        }
        hit
    }

    /// The request fast path: fills `scores` (cleared first) with the
    /// cached score of every `(version, query, item)` and returns `true`
    /// only if **all** items hit. Hits are counted only on full success;
    /// a partial probe counts nothing — the batched scorer will re-probe
    /// each pair and account for it there.
    pub fn get_all(
        &self,
        version: u64,
        tier: Tier,
        query: ConceptId,
        items: &[ConceptId],
        scores: &mut Vec<f32>,
    ) -> bool {
        scores.clear();
        for &item in items {
            match self.lookup(&(version, tier, query, item)) {
                Some(s) => scores.push(s),
                None => return false,
            }
        }
        counter!("serve.cache.hits").add(items.len() as u64);
        true
    }

    /// Inserts (or refreshes) one scored pair, evicting the shard's
    /// least-recently-used entry when full.
    pub fn insert(&self, key: ScoreKey, score: f32) {
        let outcome = self
            .shard(&key)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, score, self.shard_cap);
        match outcome {
            InsertOutcome::Refreshed => {}
            InsertOutcome::Grew => gauge!("serve.cache.entries").add(1),
            InsertOutcome::Evicted => counter!("serve.cache.evictions").inc(),
        }
    }

    /// Total resident entries (sums shard lengths; racy by nature).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Key of one cached rendered response: `(version, tier, query, k)`.
pub type ResponseKey = (u64, Tier, ConceptId, u64);

/// Sharded LRU of fully rendered int8 `score` response tails (f32
/// responses are spliced from the snapshot's response index instead).
///
/// Scoring is pure and ranking/rendering are deterministic, so one
/// `(snapshot_version, tier, query, k)` always produces the same bytes
/// after the request envelope. Caching that tail turns a repeat query
/// into a hash probe plus one [`crate::protocol::splice_response`] —
/// no eligibility scan, no score-cache probes, no ranking, and no float
/// formatting on the hot path. Entries of retired snapshot versions age
/// out under LRU pressure exactly like score-cache entries.
///
/// Observability: `serve.resp_cache.hits` / `serve.resp_cache.misses`
/// count probe outcomes; `serve.resp_cache.evictions` counts LRU
/// displacements.
pub struct ResponseCache {
    shards: Vec<std::sync::Mutex<Shard<ResponseKey, Arc<str>>>>,
    shard_cap: usize,
}

impl std::fmt::Debug for ResponseCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseCache")
            .field("shards", &self.shards.len())
            .field("shard_cap", &self.shard_cap)
            .finish()
    }
}

impl ResponseCache {
    /// A cache holding at least `capacity` rendered tails overall.
    pub fn new(capacity: usize) -> Self {
        ResponseCache {
            shards: (0..SHARDS)
                .map(|_| std::sync::Mutex::new(Shard::new()))
                .collect(),
            shard_cap: capacity.div_ceil(SHARDS).max(1),
        }
    }

    fn shard(&self, key: &ResponseKey) -> &std::sync::Mutex<Shard<ResponseKey, Arc<str>>> {
        let mixed = (key.0 ^ ((key.1 as u64) << 48) ^ (u64::from(key.2 .0) << 16) ^ key.3)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(mixed >> 56) as usize % SHARDS]
    }

    /// Counted probe for a rendered tail.
    pub fn get(&self, key: &ResponseKey) -> Option<Arc<str>> {
        let hit = self
            .shard(key)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .lookup(key);
        match hit {
            Some(_) => counter!("serve.resp_cache.hits").inc(),
            None => counter!("serve.resp_cache.misses").inc(),
        }
        hit
    }

    /// Inserts (or refreshes) one rendered tail.
    pub fn insert(&self, key: ResponseKey, tail: Arc<str>) {
        let outcome = self
            .shard(&key)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, tail, self.shard_cap);
        if matches!(outcome, InsertOutcome::Evicted) {
            counter!("serve.resp_cache.evictions").inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(v: u64, q: u32, i: u32) -> ScoreKey {
        (v, Tier::F32, ConceptId(q), ConceptId(i))
    }

    #[test]
    fn insert_get_and_refresh() {
        let c = ScoreCache::new(64);
        assert_eq!(c.get(&key(0, 1, 2)), None);
        c.insert(key(0, 1, 2), 0.25);
        assert_eq!(c.get(&key(0, 1, 2)), Some(0.25));
        // Same pair under a newer snapshot is a distinct entry.
        assert_eq!(c.get(&key(1, 1, 2)), None);
        c.insert(key(0, 1, 2), 0.5);
        assert_eq!(c.get(&key(0, 1, 2)), Some(0.5));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used_per_shard() {
        // Capacity 16 → shard_cap 1: any two keys landing in the same
        // shard exercise recycle-the-tail.
        let c = ScoreCache::new(16);
        let (a, b) = (key(0, 0, 0), key(0, 0, 1));
        // Find two keys sharing a shard (shard choice is deterministic).
        let shared = std::ptr::eq(c.shard(&a), c.shard(&b));
        c.insert(a, 1.0);
        c.insert(b, 2.0);
        if shared {
            assert_eq!(c.get(&a), None, "a was the LRU tail");
            assert_eq!(c.get(&b), Some(2.0));
        } else {
            assert_eq!(c.get(&a), Some(1.0));
            assert_eq!(c.get(&b), Some(2.0));
        }
    }

    #[test]
    fn lru_order_follows_touches() {
        let c = ScoreCache::new(16); // shard_cap 1 forces eviction on collision
        let mut in_shard = Vec::new();
        let probe = key(0, 9, 9);
        for i in 0..64 {
            let k = key(0, 1, i);
            if std::ptr::eq(c.shard(&k), c.shard(&probe)) {
                in_shard.push(k);
            }
        }
        if in_shard.len() < 2 {
            return; // mixing sent everything elsewhere; nothing to assert
        }
        c.insert(in_shard[0], 0.0);
        c.insert(in_shard[1], 1.0); // evicts [0]
        assert_eq!(c.get(&in_shard[0]), None);
        assert_eq!(c.get(&in_shard[1]), Some(1.0));
    }

    #[test]
    fn get_all_requires_every_item() {
        let c = ScoreCache::new(64);
        let items = [ConceptId(1), ConceptId(2)];
        let mut scores = Vec::new();
        c.insert(key(3, 0, 1), 0.1);
        assert!(!c.get_all(3, Tier::F32, ConceptId(0), &items, &mut scores));
        c.insert(key(3, 0, 2), 0.2);
        assert!(c.get_all(3, Tier::F32, ConceptId(0), &items, &mut scores));
        assert_eq!(scores, vec![0.1, 0.2]);
        // Wrong version misses even with both pairs resident.
        assert!(!c.get_all(4, Tier::F32, ConceptId(0), &items, &mut scores));
    }

    #[test]
    fn tiers_never_cross_contaminate() {
        let c = ScoreCache::new(64);
        c.insert((0, Tier::F32, ConceptId(1), ConceptId(2)), 0.5);
        assert_eq!(c.get(&(0, Tier::Int8, ConceptId(1), ConceptId(2))), None);
        c.insert((0, Tier::Int8, ConceptId(1), ConceptId(2)), 0.25);
        assert_eq!(
            c.get(&(0, Tier::F32, ConceptId(1), ConceptId(2))),
            Some(0.5)
        );
        assert_eq!(
            c.get(&(0, Tier::Int8, ConceptId(1), ConceptId(2))),
            Some(0.25)
        );
    }

    #[test]
    fn response_cache_round_trips_and_separates_keys() {
        let c = ResponseCache::new(64);
        let k_f32: ResponseKey = (1, Tier::F32, ConceptId(3), 8);
        let k_int8: ResponseKey = (1, Tier::Int8, ConceptId(3), 8);
        assert_eq!(c.get(&k_f32), None);
        c.insert(k_f32, Arc::from("\"kind\":\"score\"}"));
        assert_eq!(c.get(&k_f32).as_deref(), Some("\"kind\":\"score\"}"));
        assert_eq!(c.get(&k_int8), None, "tier is part of the identity");
        assert_eq!(c.get(&(2, Tier::F32, ConceptId(3), 8)), None, "version too");
    }
}
