//! Micro-benchmarks of the substrates every experiment runs on: dense
//! matrix ops, the Transformer encoder, GNN propagation, and taxonomy
//! queries.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use taxo_core::{ConceptId, Taxonomy};
use taxo_graph::{GnnKind, GnnStack, HeteroGraphBuilder, WeightScheme};
use taxo_nn::{EncoderConfig, EncoderCtx, Matrix, TransformerEncoder};

fn bench_matrix(c: &mut Criterion) {
    let a = Matrix::from_fn(64, 64, |r, q| ((r * 7 + q) % 13) as f32 * 0.1);
    let b = Matrix::from_fn(64, 64, |r, q| ((r + q * 5) % 11) as f32 * 0.1);
    c.bench_function("matrix/matmul_64x64", |bench| {
        bench.iter(|| black_box(a.matmul(&b)))
    });
    c.bench_function("matrix/matmul_nt_64x64", |bench| {
        bench.iter(|| black_box(a.matmul_nt(&b)))
    });
    let mut s = a.clone();
    c.bench_function("matrix/softmax_rows_64x64", |bench| {
        bench.iter(|| {
            s.softmax_rows();
            black_box(&s);
        })
    });
}

fn bench_encoder(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let enc = TransformerEncoder::new(EncoderConfig::small(2000), &mut rng);
    let ids: Vec<u32> = (0..16).map(|i| (i * 37 % 1900 + 5) as u32).collect();
    let mut ctx = EncoderCtx::default();
    c.bench_function("encoder/forward_seq16_d32_l2", |bench| {
        bench.iter(|| {
            enc.forward_ctx(&ids, None, &mut ctx);
            black_box(ctx.hidden());
        })
    });
    let mut enc2 = enc.clone();
    c.bench_function("encoder/mlm_step_seq16", |bench| {
        bench.iter(|| black_box(enc2.mlm_step(&ids, &[(3, 42), (7, 99)])))
    });
}

fn mid_graph() -> taxo_graph::HeteroGraph {
    let mut b = HeteroGraphBuilder::new();
    for i in 0..500u32 {
        b.add_taxonomy_edge(ConceptId(i / 4), ConceptId(i + 1));
        b.add_clicks(
            ConceptId(i / 4),
            ConceptId((i * 13) % 501),
            1 + u64::from(i % 9),
        );
    }
    b.build(WeightScheme::IfIqf)
}

fn bench_gnn(c: &mut Criterion) {
    let g = mid_graph();
    let mut rng = StdRng::seed_from_u64(1);
    let stack = GnnStack::new(GnnKind::Gcn, &[32, 32], &mut rng);
    let x = Matrix::from_fn(g.node_count(), 32, |r, q| ((r + q) % 7) as f32 * 0.1);
    c.bench_function("gnn/gcn_forward_500nodes", |bench| {
        bench.iter(|| black_box(stack.forward(&g, &x)))
    });
    let (_, ctx) = stack.forward(&g, &x);
    let dh = Matrix::from_fn(g.node_count(), 32, |_, _| 0.01);
    let mut stack2 = stack.clone();
    c.bench_function("gnn/gcn_backward_500nodes", |bench| {
        bench.iter(|| black_box(stack2.backward(&g, &ctx, &dh)))
    });
}

fn bench_taxonomy(c: &mut Criterion) {
    let mut taxo = Taxonomy::new();
    for i in 0..2000u32 {
        taxo.add_edge(ConceptId(i / 3), ConceptId(i + 1)).unwrap();
    }
    c.bench_function("taxonomy/is_ancestor_deep", |bench| {
        bench.iter(|| black_box(taxo.is_ancestor(ConceptId(0), ConceptId(1999))))
    });
    c.bench_function("taxonomy/level_order_2000", |bench| {
        bench.iter(|| black_box(taxo_core::LevelOrder::new(&taxo)))
    });
    c.bench_function("taxonomy/transitive_reduction_2000", |bench| {
        bench.iter_batched(
            || taxo.clone(),
            |mut t| black_box(t.transitive_reduction()),
            criterion::BatchSize::LargeInput,
        )
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_matrix, bench_encoder, bench_gnn, bench_taxonomy
);
criterion_main!(benches);
