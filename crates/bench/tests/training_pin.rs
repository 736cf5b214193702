//! Pins the trained serving model to fixed bits.
//!
//! The determinism suites compare one thread count against another, and
//! the serving checks compare served bytes with an offline twin built by
//! the same code, so a kernel rewrite that changed rounding identically
//! everywhere would pass all of them. This test trains
//! [`taxo_bench::serving_pipeline`] at seed 42 — the model behind `serve`
//! and `loadgen --verify` — and compares an FNV-1a fingerprint over the
//! raw bits of every MLM epoch loss, every detector epoch loss and the
//! detector's score of every mined candidate pair with a constant. A
//! training-path change that keeps this constant keeps the model bit for
//! bit; one that moves it changes what the service answers.

/// 64-bit FNV-1a over the little-endian bytes of each word.
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn serving_model_training_is_pinned_bit_for_bit() {
    let (world, trained) = taxo_bench::serving_pipeline(42);
    let scores: Vec<u32> = trained
        .construction
        .pairs
        .iter()
        .map(|p| {
            trained
                .detector
                .score(&world.vocab, p.query, p.item)
                .to_bits()
        })
        .collect();
    assert_eq!(trained.mlm_losses.len(), 3, "MLM epochs");
    assert_eq!(trained.train_losses.len(), 60, "detector epochs");
    assert_eq!(scores.len(), 1943, "mined candidate pairs");

    let bits = trained
        .mlm_losses
        .iter()
        .chain(&trained.train_losses)
        .map(|l| l.to_bits())
        .chain(scores);
    let fingerprint = fnv1a(bits);
    assert_eq!(
        format!("{fingerprint:016x}"),
        "1d2c7f054473101b",
        "trained weights moved: the training path no longer reproduces the pinned model"
    );
}
