//! Kernel-level benchmarks of the threaded matmul layer at the shapes
//! the training paths actually hit, plus larger square shapes where the
//! parallel row-split engages (the kernels stay sequential below the
//! FLOP-count threshold, so the small shapes double as a regression
//! check that the threshold keeps the pool hand-off off the hot path).
//!
//! Run sequentially vs threaded to measure the speedup on a multicore
//! host:
//!
//! ```text
//! TAXO_THREADS=1 cargo bench --bench kernels
//! TAXO_THREADS=8 cargo bench --bench kernels
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use taxo_nn::Matrix;

fn mat(rows: usize, cols: usize, seed: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        ((r * 31 + c * 7 + seed * 13) % 17) as f32 * 0.125 - 1.0
    })
}

/// Encoder-shaped products: a `max_len × d_model` sequence against
/// `d_model × d_model` projections (the attention/FFN inner loops).
fn bench_encoder_shapes(c: &mut Criterion) {
    let seq = mat(40, 32, 0);
    let w = mat(32, 32, 1);
    c.bench_function("kernels/matmul_40x32_32x32", |b| {
        b.iter(|| black_box(seq.matmul(&w)))
    });
    let other = mat(40, 32, 2);
    c.bench_function("kernels/matmul_nt_40x32_40x32", |b| {
        b.iter(|| black_box(seq.matmul_nt(&other)))
    });
    c.bench_function("kernels/matmul_tn_40x32_40x32", |b| {
        b.iter(|| black_box(seq.matmul_tn(&other)))
    });
}

/// The MLM head: a handful of gathered hidden rows against the whole
/// tied `vocab × d_model` embedding table.
fn bench_mlm_head(c: &mut Criterion) {
    let gathered = mat(8, 32, 3);
    let table = mat(3000, 32, 4);
    c.bench_function("kernels/mlm_logits_matmul_nt_8x32_3000x32", |b| {
        b.iter(|| black_box(gathered.matmul_nt(&table)))
    });
    let dlogits = mat(8, 3000, 5);
    c.bench_function("kernels/mlm_grad_matmul_tn_8x3000_8x32", |b| {
        b.iter(|| black_box(dlogits.matmul_tn(&gathered)))
    });
}

/// GNN-shaped propagation (node features × layer weights) and square
/// shapes above the parallel threshold.
fn bench_large_shapes(c: &mut Criterion) {
    let x = mat(500, 32, 6);
    let w = mat(32, 32, 7);
    c.bench_function("kernels/gnn_matmul_500x32_32x32", |b| {
        b.iter(|| black_box(x.matmul(&w)))
    });
    let a = mat(128, 128, 8);
    let bm = mat(128, 128, 9);
    c.bench_function("kernels/matmul_128x128", |b| {
        b.iter(|| black_box(a.matmul(&bm)))
    });
    let a256 = mat(256, 256, 10);
    let b256 = mat(256, 256, 11);
    c.bench_function("kernels/matmul_256x256", |b| {
        b.iter(|| black_box(a256.matmul(&b256)))
    });
    c.bench_function("kernels/matmul_nt_256x256", |b| {
        b.iter(|| black_box(a256.matmul_nt(&b256)))
    });
    c.bench_function("kernels/matmul_tn_256x256", |b| {
        b.iter(|| black_box(a256.matmul_tn(&b256)))
    });
}

/// Blocked transpose at a skinny training shape and a large square one.
fn bench_transpose(c: &mut Criterion) {
    let skinny = mat(3000, 32, 12);
    c.bench_function("kernels/transpose_3000x32", |b| {
        b.iter(|| black_box(skinny.transpose()))
    });
    let square = mat(512, 512, 13);
    c.bench_function("kernels/transpose_512x512", |b| {
        b.iter(|| black_box(square.transpose()))
    });
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(40);
    targets = bench_encoder_shapes, bench_mlm_head, bench_large_shapes, bench_transpose
);
criterion_main!(kernels);
