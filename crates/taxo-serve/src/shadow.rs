//! Shadow tap: a deterministic sample of live score traffic, mirrored
//! for offline evaluation of a *candidate* snapshot while the published
//! snapshot keeps answering.
//!
//! The tap sits on the score path ([`crate::server`]'s `prepare_score`)
//! beside the live response, never in it: a sampled request's query and
//! tier are copied into a bounded queue and the live bytes go out
//! unchanged, so shadow scoring can never contaminate a served response.
//! The trainer (`crates/taxo-train`) drains the queue and scores the
//! samples against its candidate; those scores feed only the promotion
//! gate — they never touch the serve-side score or response caches.
//!
//! Sampling is a pure function of the query id and the armed seed, not
//! of wall clock or thread interleaving: the *set* of sampled queries in
//! a trace is identical at any worker count, which is what lets the
//! control-plane simulation pin promote/rollback decisions bit-for-bit.

use crate::batch::BoundedQueue;
use crate::protocol::Tier;
use std::sync::atomic::{AtomicU64, Ordering};
use taxo_core::ConceptId;
use taxo_obs::counter;

/// One mirrored score request: everything the trainer needs to replay
/// the request against a candidate snapshot, which derives its own
/// candidate set.
#[derive(Debug, Clone)]
pub struct ShadowSample {
    /// Tier the live request was served at.
    pub tier: Tier,
    pub query: ConceptId,
}

/// The tap itself: an arm/disarm switch plus the bounded sample queue.
/// One lives in the server's shared state; [`crate::server::ServeController`]
/// hands an `Arc` of it to the trainer.
pub struct ShadowTap {
    /// Sample 1-in-`every` queries; 0 = disarmed (the hot-path cost of a
    /// disarmed tap is one relaxed atomic load).
    every: AtomicU64,
    seed: AtomicU64,
    queue: BoundedQueue<ShadowSample>,
}

impl ShadowTap {
    pub fn new(capacity: usize) -> Self {
        ShadowTap {
            every: AtomicU64::new(0),
            seed: AtomicU64::new(0),
            queue: BoundedQueue::new(capacity),
        }
    }

    /// Arms the tap: sample 1-in-`every` queries under `seed`.
    pub fn arm(&self, every: u64, seed: u64) {
        self.seed.store(seed, Ordering::Relaxed);
        self.every.store(every, Ordering::Release);
    }

    /// Disarms the tap; queued samples remain drainable.
    pub fn disarm(&self) {
        self.every.store(0, Ordering::Release);
    }

    /// Whether `query` falls in the armed sample. Pure in
    /// `(query, seed, every)` — identical at any thread count.
    pub fn sampled(&self, query: ConceptId) -> bool {
        let every = self.every.load(Ordering::Acquire);
        if every == 0 {
            return false;
        }
        let seed = self.seed.load(Ordering::Relaxed);
        splitmix64(seed ^ (query.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .is_multiple_of(every)
    }

    /// Offers one sample; a full queue sheds (the tap must never apply
    /// backpressure to live traffic).
    pub fn offer(&self, sample: ShadowSample) {
        match self.queue.try_push(sample) {
            Ok(_) => counter!("serve.shadow.sampled").inc(),
            Err(_) => counter!("serve.shadow.shed").inc(),
        }
    }

    /// Drains up to `max` queued samples without blocking.
    pub fn drain(&self, max: usize) -> Vec<ShadowSample> {
        let drained = self.queue.try_drain(max).unwrap_or_default();
        counter!("serve.shadow.drained").add(drained.len() as u64);
        drained
    }

    /// Queued (not yet drained) samples.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.len() == 0
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u32) -> ShadowSample {
        ShadowSample {
            tier: Tier::F32,
            query: ConceptId::from_index(i as usize),
        }
    }

    #[test]
    fn disarmed_tap_samples_nothing() {
        let tap = ShadowTap::new(8);
        assert!(!tap.sampled(ConceptId::from_index(0)));
        tap.arm(1, 7);
        assert!(tap.sampled(ConceptId::from_index(0)));
        tap.disarm();
        assert!(!tap.sampled(ConceptId::from_index(0)));
    }

    #[test]
    fn sampling_is_a_pure_function_of_query_and_seed() {
        let tap = ShadowTap::new(8);
        tap.arm(3, 42);
        let first: Vec<bool> = (0..64)
            .map(|i| tap.sampled(ConceptId::from_index(i)))
            .collect();
        let second: Vec<bool> = (0..64)
            .map(|i| tap.sampled(ConceptId::from_index(i)))
            .collect();
        assert_eq!(first, second);
        assert!(first.iter().any(|&s| s));
        assert!(first.iter().any(|&s| !s));
    }

    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        let tap = ShadowTap::new(2);
        tap.arm(1, 1);
        for i in 0..5 {
            tap.offer(sample(i));
        }
        assert_eq!(tap.len(), 2);
        let drained = tap.drain(16);
        assert_eq!(drained.len(), 2);
        assert!(tap.is_empty());
    }
}
