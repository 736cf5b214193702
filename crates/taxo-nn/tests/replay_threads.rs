//! Record and replay across thread counts: the same training windows
//! flushed at 1, 2, 3 and 8 threads must leave every parameter and
//! every loss bit for bit equal.
//!
//! A window records its examples' backwards in the compute pool, which
//! splits 4 slots into one, two or four chunks depending on the thread
//! count, then replays the records in example order. The windows are
//! built so the replay order matters: token 7 repeats within an example
//! and across a window (one embedding row and one tied-head row take
//! several adds per window), the pair windows use both segments, one
//! example is truncated past its only target, and the last window is
//! ragged.
//!
//! The binary holds exactly one test: the thread count is global.

use rand::rngs::StdRng;
use rand::SeedableRng;
use taxo_nn::parallel::{self, set_threads};
use taxo_nn::{Adam, EncoderConfig, EncoderCtx, EncoderGrads, Matrix, MlmWindow, Module};
use taxo_nn::{Param, TransformerEncoder};

const MASK: u32 = 3;

type Example = (Vec<u32>, Vec<(usize, u32)>);

/// Three MLM windows of 4, 4 and 3 examples over a 20-token vocabulary.
fn mlm_windows() -> Vec<Vec<Example>> {
    let long: Vec<u32> = (0..20).map(|i| 4 + i % 16).collect();
    vec![
        vec![
            (vec![1, 7, MASK, 7, 9, 2], vec![(2, 7)]),
            (vec![1, MASK, 11, 7, 2], vec![(1, 7)]),
            (vec![1, 12, 7, MASK, MASK, 2], vec![(3, 13), (4, 7)]),
            (vec![1, 7, 7, 7, MASK, 2], vec![(4, 9)]),
        ],
        vec![
            (vec![1, 15, MASK, 2], vec![(2, 16)]),
            // Truncated to 16 tokens: the only target does not survive.
            (long.clone(), vec![(18, 7)]),
            (long, vec![(5, 7), (18, 8)]),
            (vec![1, MASK, 7, 2], vec![(1, 7)]),
        ],
        // Ragged: the pretraining loop's end-of-epoch flush.
        vec![
            (vec![1, 7, MASK, 2], vec![(2, 17)]),
            (vec![1, MASK, 19, 7, 10, 2], vec![(1, 18)]),
            (vec![1, 5, 6, 7, MASK, 2], vec![(4, 7)]),
        ],
    ]
}

/// Two pair windows: `(ids, segments)` with both segments, as the
/// detector encodes a `<child> is a <parent>` template.
fn pair_windows() -> Vec<Vec<(Vec<u32>, Vec<u32>)>> {
    vec![
        vec![
            (vec![1, 7, 8, 4, 5, 7, 2], vec![0, 0, 0, 1, 1, 1, 1]),
            (vec![1, 9, 4, 5, 7, 7, 2], vec![0, 0, 1, 1, 1, 1, 1]),
            (vec![1, 7, 4, 5, 9, 2], vec![0, 0, 1, 1, 1, 1]),
            (vec![1, 11, 12, 4, 5, 13, 2], vec![0, 0, 0, 1, 1, 1, 1]),
        ],
        vec![
            (vec![1, 13, 4, 5, 7, 2], vec![0, 0, 1, 1, 1, 1]),
            (vec![1, 7, 7, 4, 5, 8, 2], vec![0, 0, 0, 1, 1, 1, 1]),
        ],
    ]
}

/// One slot of a pair window: its forward context and its backward
/// record.
#[derive(Default)]
struct PairSlot {
    ctx: EncoderCtx,
    grads: EncoderGrads,
}

fn fresh_encoder() -> TransformerEncoder {
    TransformerEncoder::new(EncoderConfig::tiny(20), &mut StdRng::seed_from_u64(5))
}

/// Appends the bits of every parameter value of `enc`.
fn param_bits(enc: &mut TransformerEncoder, bits: &mut Vec<u32>) {
    enc.visit_params(&mut |p: &mut Param| {
        bits.extend(p.value.data().iter().map(|v| v.to_bits()));
    });
}

/// Trains a fresh encoder through every window at the current thread
/// count; returns the bits of every loss and, after each window, of
/// every parameter value.
fn train() -> Vec<u32> {
    let mut enc = fresh_encoder();
    let mut adam = Adam::new(1e-2);
    let mut bits = Vec::new();

    let mut window = MlmWindow::new();
    for examples in mlm_windows() {
        for (masked, targets) in &examples {
            window.push(masked, targets);
        }
        let loss = window.flush(&mut enc, &mut adam).to_bits();
        bits.extend([loss as u32, (loss >> 32) as u32]);
        param_bits(&mut enc, &mut bits);
    }

    let mut slots: Vec<PairSlot> = Vec::new();
    for pairs in pair_windows() {
        slots.resize_with(pairs.len(), PairSlot::default);
        {
            let enc = &enc;
            parallel::par_map_into(&mut slots, |i, slot| {
                let (ids, segments) = &pairs[i];
                enc.forward_ctx(ids, Some(segments), &mut slot.ctx);
                let hidden = slot.ctx.hidden();
                let d_hidden = Matrix::from_fn(hidden.rows(), hidden.cols(), |r, c| {
                    hidden[(r, c)] * 0.25 - 0.01 * (r + c) as f32
                });
                enc.backward_into(&slot.ctx, &d_hidden, &mut slot.grads);
            });
        }
        for slot in &slots {
            enc.replay(&slot.ctx, &slot.grads);
        }
        adam.step(&mut enc);
        param_bits(&mut enc, &mut bits);
    }
    bits
}

/// The MLM windows alone at the current thread count, through
/// `MlmWindow` (`by_steps` false) or through the allocating `mlm_step`,
/// which records and replays one example at a time; returns the final
/// parameter bits.
fn train_mlm(by_steps: bool) -> Vec<u32> {
    let mut enc = fresh_encoder();
    let mut adam = Adam::new(1e-2);
    let mut window = MlmWindow::new();
    for examples in mlm_windows() {
        for (masked, targets) in &examples {
            if by_steps {
                enc.mlm_step(masked, targets);
            } else {
                window.push(masked, targets);
            }
        }
        if by_steps {
            adam.step(&mut enc);
        } else {
            window.flush(&mut enc, &mut adam);
        }
    }
    let mut bits = Vec::new();
    param_bits(&mut enc, &mut bits);
    bits
}

#[test]
fn windows_replay_bit_for_bit_at_any_thread_count() {
    set_threads(1);
    let want = train();
    let by_steps = train_mlm(true);
    for threads in [2, 3, 8] {
        set_threads(threads);
        let got = train();
        let mlm = train_mlm(false);
        set_threads(1);
        assert_eq!(got.len(), want.len());
        if let Some(i) = (0..want.len()).find(|&i| got[i] != want[i]) {
            panic!("{threads} threads diverge from 1 thread at word {i}");
        }
        assert!(
            mlm == by_steps,
            "{threads} threads: the MLM windows diverge from per-example steps"
        );
    }
}
