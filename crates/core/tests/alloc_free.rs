//! Proof of the warm-arena contract: once a [`taxo_expand::BatchScorer`]
//! has seen its steady-state shapes, a scoring pass performs **zero heap
//! allocations** — the whole encoder forward, feature assembly, and MLP
//! classification run out of reused buffers.
//!
//! The binary holds exactly one test so the counting `#[global_allocator]`
//! only ever observes this test's thread plus a parked harness thread;
//! the armed window contains pure compute (no printing, no spawning, and
//! `TAXO_THREADS=1` so `par_map` runs inline and never starts the
//! compute pool).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn warm_batch_scoring_performs_zero_heap_allocations() {
    taxo_nn::parallel::set_threads(1);

    use std::sync::Arc;

    use taxo_expand::{
        construct_graph, BatchScorer, DetectorConfig, HypoDetector, QuantizedDetector,
        RelationalConfig, RelationalModel, StructuralConfig, StructuralModel,
    };
    use taxo_graph::WeightScheme;
    use taxo_synth::{ClickConfig, ClickLog, World, WorldConfig};

    let world = World::generate(&WorldConfig::tiny(23));
    let log = ClickLog::generate(&world, &ClickConfig::tiny(23));
    let built = construct_graph(
        &world.existing,
        &world.vocab,
        &log.records,
        WeightScheme::IfIqf,
    );
    let relational = RelationalModel::vanilla(&world.vocab, &[], &RelationalConfig::tiny(23));
    let structural = StructuralModel::build(
        &world.existing,
        &world.vocab,
        &built.pairs,
        Some(&relational),
        &StructuralConfig::tiny(23),
    );
    let detector = HypoDetector::new(
        Some(relational),
        Some(structural),
        &DetectorConfig::tiny(23),
    );
    let pairs: Vec<_> = built
        .pairs
        .iter()
        .take(24)
        .map(|p| (p.query, p.item))
        .collect();
    assert!(pairs.len() >= 8, "fixture mined too few candidate pairs");

    // Warm-up: the first pass sizes every buffer to the largest bucket
    // shape, the second confirms steady state before arming.
    let mut scorer = BatchScorer::new();
    let mut out = Vec::new();
    scorer.score_into(&detector, &world.vocab, &pairs, &mut out);
    let reference: Vec<u32> = out.iter().map(|s| s.to_bits()).collect();
    scorer.score_into(&detector, &world.vocab, &pairs, &mut out);

    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..5 {
        scorer.score_into(&detector, &world.vocab, &pairs, &mut out);
    }
    ARMED.store(false, Ordering::SeqCst);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "warm scoring passes must not touch the heap, saw {allocs} allocations"
    );
    // And the armed passes still produced the canonical bits.
    assert_eq!(
        out.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        reference
    );

    // The int8 tier runs through the same arena and must uphold the same
    // contract: after warm-up, quant scoring never touches the heap.
    let quant = QuantizedDetector::from_detector(Arc::new(detector));
    quant.score_into(&mut scorer, &world.vocab, &pairs, &mut out);
    let quant_reference: Vec<u32> = out.iter().map(|s| s.to_bits()).collect();
    quant.score_into(&mut scorer, &world.vocab, &pairs, &mut out);

    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..5 {
        quant.score_into(&mut scorer, &world.vocab, &pairs, &mut out);
    }
    ARMED.store(false, Ordering::SeqCst);

    let quant_allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        quant_allocs, 0,
        "warm quant scoring passes must not touch the heap, saw {quant_allocs} allocations"
    );
    assert_eq!(
        out.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        quant_reference
    );
}
