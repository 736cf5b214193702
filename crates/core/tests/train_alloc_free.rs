//! Proof of the training side of the warm-buffer contract: once its
//! reused contexts have seen their largest shapes, an MLM pretraining
//! window and a detector batch's encoder forwards and backwards perform
//! **zero heap allocations**.
//!
//! Like `alloc_free.rs`, the binary holds exactly one test so the
//! counting `#[global_allocator]` only observes this test's thread, and
//! it runs at `TAXO_THREADS=1` so `par_map_into` runs inline and never
//! starts the compute pool. The rest of a detector batch (feature
//! assembly, the MLP head and its loss) still allocates; the test prints
//! that count per batch.

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

/// Heap allocations `f` makes.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (ALLOCS.load(Ordering::SeqCst) - before, out)
}

#[test]
fn warm_training_steps_perform_zero_heap_allocations() {
    taxo_nn::parallel::set_threads(1);

    use taxo_expand::relational::{PairCtx, PairGrads};
    use taxo_expand::{
        construct_graph, generate_dataset, DatasetConfig, DetectorConfig, HypoDetector,
        RelationalConfig, RelationalModel, StructuralConfig, StructuralModel,
    };
    use taxo_graph::WeightScheme;
    use taxo_nn::{Adam, MlmWindow};
    use taxo_synth::{ClickConfig, ClickLog, UgcConfig, UgcCorpus, World, WorldConfig};
    use taxo_text::{CLS, MASK, SEP};

    let world = World::generate(&WorldConfig::tiny(29));
    let log = ClickLog::generate(&world, &ClickConfig::tiny(29));
    let ugc = UgcCorpus::generate(&world, &UgcConfig::tiny(29));
    let built = construct_graph(
        &world.existing,
        &world.vocab,
        &log.records,
        WeightScheme::IfIqf,
    );
    let dataset = generate_dataset(
        &world.existing,
        &world.vocab,
        &built.pairs,
        &DatasetConfig::default(),
    );
    let mut rel =
        RelationalModel::vanilla(&world.vocab, &ugc.sentences, &RelationalConfig::tiny(29));

    // --- One MLM accumulation window: 4 forwards, the ordered gradient
    // reduction and the optimiser step.
    type Example = (Vec<u32>, Vec<(usize, u32)>);
    let examples: Vec<Example> = ugc
        .sentences
        .iter()
        .map(|s| rel.tokens.encode(s))
        .filter(|body| body.len() >= 2)
        .take(8)
        .map(|body| {
            let mut ids = vec![CLS];
            ids.extend_from_slice(&body);
            ids.push(SEP);
            let targets = vec![(1, ids[1]), (2, ids[2])];
            let mut masked = ids.clone();
            masked[1] = MASK;
            masked[2] = MASK;
            (masked, targets)
        })
        .collect();
    assert_eq!(examples.len(), 8, "fixture corpus too small");
    let mut window = MlmWindow::new();
    let mut adam = Adam::new(1e-3);
    let mut run_window = |enc: &mut taxo_nn::TransformerEncoder, batch: &[Example]| {
        for (masked, targets) in batch {
            window.push(masked, targets);
        }
        window.flush(enc, &mut adam)
    };
    // Warm-up: each slot sees both examples it will ever hold.
    run_window(&mut rel.encoder, &examples[..4]);
    run_window(&mut rel.encoder, &examples[4..]);
    let (mlm_allocs, loss) = count_allocs(|| run_window(&mut rel.encoder, &examples[..4]));
    assert!(loss.is_finite() && loss > 0.0, "window loss {loss}");
    assert_eq!(
        mlm_allocs, 0,
        "a warm MLM window must not touch the heap, saw {mlm_allocs} allocations"
    );

    // --- One detector batch's encoder work: a forward per batch slot into
    // its reused context, then a backward per slot.
    let batch: Vec<_> = dataset.train.iter().take(8).collect();
    assert_eq!(batch.len(), 8, "fixture dataset too small");
    let mut pairs = vec![PairCtx::default(); batch.len()];
    let mut grads = PairGrads::default();
    let d_r: Vec<f32> = (0..rel.dim()).map(|c| 0.01 * (c as f32 - 3.0)).collect();
    let forwards = |rel: &RelationalModel, pairs: &mut [PairCtx]| {
        taxo_nn::parallel::par_map_into(pairs, |j, pair| {
            rel.forward_pair_into(&world.vocab, batch[j].parent, batch[j].child, pair);
        });
    };
    let backwards = |rel: &mut RelationalModel, pairs: &[PairCtx], grads: &mut PairGrads| {
        for pair in pairs {
            rel.backward_pair_into(pair, &d_r, grads);
        }
    };
    for _ in 0..2 {
        forwards(&rel, &mut pairs);
        backwards(&mut rel, &pairs, &mut grads);
    }
    let reference: Vec<u32> = pairs[0].r().iter().map(|v| v.to_bits()).collect();
    let (forward_allocs, ()) = count_allocs(|| forwards(&rel, &mut pairs));
    let (backward_allocs, ()) = count_allocs(|| backwards(&mut rel, &pairs, &mut grads));
    assert_eq!(
        forward_allocs, 0,
        "warm detector-batch encoder forwards must not touch the heap, saw {forward_allocs}"
    );
    assert_eq!(
        backward_allocs, 0,
        "warm detector-batch encoder backwards must not touch the heap, saw {backward_allocs}"
    );
    // Gradients were accumulated but never applied: the forwards reused
    // their contexts without changing a bit.
    assert_eq!(
        pairs[0].r().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        reference
    );

    // --- What the rest of a detector batch still allocates: one epoch's
    // allocations, isolated as the difference between a two-epoch and a
    // one-epoch training call, divided by the epoch's batches (the encoder
    // share of it is zero, as asserted above).
    let structural = StructuralModel::build(
        &world.existing,
        &world.vocab,
        &built.pairs,
        Some(&rel),
        &StructuralConfig::tiny(29),
    );
    let train_allocs = |epochs: usize| {
        let cfg = DetectorConfig {
            epochs,
            ..DetectorConfig::tiny(29)
        };
        let mut detector = HypoDetector::new(Some(rel.clone()), Some(structural.clone()), &cfg);
        count_allocs(|| detector.train(&world.vocab, &dataset.train, &cfg)).0
    };
    let batches = dataset.train.len().div_ceil(DetectorConfig::tiny(29).batch) as u64;
    let per_batch = (train_allocs(2) - train_allocs(1)) / batches;
    eprintln!(
        "detector batch of {}: {per_batch} heap allocations outside the encoder \
         (feature assembly, MLP head, loss)",
        DetectorConfig::tiny(29).batch
    );
}
