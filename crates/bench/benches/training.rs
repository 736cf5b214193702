//! Benchmarks of the model-side pipeline behind Tables V–IX: MLM
//! pretraining steps, contrastive pretraining, and edge-classifier
//! training/scoring; and the two training loops `serve` runs at every
//! start, one step each at the serving configuration.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use taxo_bench::build_snack;
use taxo_eval::{OursVariant, Scale};
use taxo_graph::{pretrain_contrastive, ContrastiveConfig, GnnKind, GnnStack};
use taxo_nn::Matrix;

fn bench_contrastive(c: &mut Criterion) {
    let ctx = build_snack(Scale::Test);
    let mut builder = taxo_graph::HeteroGraphBuilder::new();
    for e in ctx.world.existing.edges() {
        builder.add_taxonomy_edge(e.parent, e.child);
    }
    for p in &ctx.construction.pairs {
        builder.add_clicks(p.query, p.item, p.clicks);
    }
    let graph = builder.build(taxo_graph::WeightScheme::IfIqf);
    let x0 = Matrix::from_fn(graph.node_count(), 32, |r, q| {
        ((r * 3 + q) % 17) as f32 * 0.05
    });
    let cfg = ContrastiveConfig {
        epochs: 1,
        ..Default::default()
    };
    c.bench_function("table9/contrastive_epoch", |bench| {
        bench.iter_batched(
            || {
                let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
                GnnStack::new(GnnKind::Gcn, &[32, 32], &mut rng)
            },
            |mut stack| black_box(pretrain_contrastive(&graph, &mut stack, &x0, &cfg)),
            criterion::BatchSize::LargeInput,
        )
    });
}

fn bench_detector(c: &mut Criterion) {
    let ctx = build_snack(Scale::Test);
    // Scoring throughput: this is what Tables V, VII and XII spend their
    // time on (one forward per candidate pair).
    let ours = ctx.ours();
    let pair = ctx.adaptive.test[0];
    c.bench_function("table5/score_one_pair", |bench| {
        bench.iter(|| black_box(ours.score(&ctx.world.vocab, pair.parent, pair.child)))
    });
    // One full (small) training run: Table VI/VIII rows each pay this.
    c.bench_function("table8/train_variant_test_scale", |bench| {
        bench.iter(|| black_box(ctx.train_variant(&OursVariant::full(ctx.scale))))
    });
}

/// One step of each training loop of the serving pipeline
/// ([`taxo_bench::serving_world`] at seed 42 under
/// `PipelineConfig::tiny`): an MLM accumulation window (`accum`
/// examples recorded in one pool pass, then replayed and stepped in two
/// parameter groups in a second), and one detector batch through
/// [`DetectorTrainer::step`], the step `train_with_val` runs (each
/// pair's forward, head row and backward record in one pool pass, then
/// the encoder and the head replayed and stepped in a second), on the
/// trained serving detector. Run under `TAXO_THREADS=1` and the default
/// to see what the pool buys per step.
fn bench_serving_training(c: &mut Criterion) {
    use rand::SeedableRng;
    use taxo_expand::{DetectorTrainer, PipelineConfig, RelationalModel};
    use taxo_nn::{Adam, MlmWindow};
    use taxo_text::{CLS, MASK, SEP};

    let (world, _, ugc) = taxo_bench::serving_world(42);
    let cfg = PipelineConfig::tiny(42);
    let mut rel = RelationalModel::vanilla(&world.vocab, &ugc.sentences, &cfg.relational);

    // Corpus sentences as `[CLS] body [SEP]` with the middle body token
    // masked, cycled window by window.
    type Example = (Vec<u32>, Vec<(usize, u32)>);
    let examples: Vec<Example> = ugc
        .sentences
        .iter()
        .map(|s| rel.tokens.encode(s))
        .filter(|body| !body.is_empty())
        .map(|body| {
            let mut ids = vec![CLS];
            ids.extend_from_slice(&body);
            ids.push(SEP);
            let p = 1 + body.len() / 2;
            let targets = vec![(p, ids[p])];
            ids[p] = MASK;
            (ids, targets)
        })
        .collect();
    let accum = cfg.relational.accum;
    let mut window = MlmWindow::new();
    let mut adam = Adam::new(cfg.relational.lr);
    let mut next = 0;
    c.bench_function("training/mlm_window_flush", |bench| {
        bench.iter(|| {
            for _ in 0..accum {
                let (masked, targets) = &examples[next % examples.len()];
                window.push(masked, targets);
                next += 1;
            }
            black_box(window.flush(&mut rel.encoder, &mut adam))
        })
    });

    let (world, trained) = taxo_bench::serving_pipeline(42);
    let (mut detector, train) = (trained.detector, trained.dataset.train);
    let mut trainer = DetectorTrainer::new(&cfg.detector);
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.detector.seed);
    let mut rows = vec![0; cfg.detector.batch];
    let mut start = 0;
    c.bench_function("training/detector_batch", |bench| {
        bench.iter(|| {
            for (j, row) in rows.iter_mut().enumerate() {
                *row = (start + j) % train.len();
            }
            start += rows.len();
            black_box(trainer.step(&mut detector, &world.vocab, &train, &rows, &mut rng))
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_contrastive, bench_detector
);
criterion_group!(
    name = serving;
    config = Criterion::default().sample_size(200);
    targets = bench_serving_training
);
criterion_main!(benches, serving);
