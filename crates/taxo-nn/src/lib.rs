//! From-scratch neural-network substrate (no DL framework, pure `f32`
//! Rust): dense matrices, manually backpropagated layers, a BERT-style
//! Transformer encoder with an MLM head, optimisers, and the losses the
//! paper uses (cross-entropy, BCE, InfoNCE).
//!
//! The paper fine-tunes BERT-Chinese; `repro = 2/5` flags exactly this
//! dependency ("immature DL frameworks"), so this crate *is* the
//! substitution: the same architecture class at laptop scale. Every layer
//! exposes an explicit `forward(…) -> (output, ctx)` / `backward(ctx, d)`
//! pair, and every backward pass is verified against central finite
//! differences in its test module via [`gradcheck::check_gradients`].
//! Those pairs wrap the training path proper, which writes activations
//! into caller-owned contexts (`*_ctx`), runs each backward as a pure
//! data pass that records the parameter-gradient updates in caller-owned
//! scratch (`*_into`, [`scratch`]) and then replays them in order, so a
//! warm training step allocates nothing and computes the same bits.
//!
//! # Example: train the edge-classifier MLP
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use taxo_nn::{Adam, Matrix, Mlp};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut mlp = Mlp::new(4, 8, &mut rng);
//! let mut adam = Adam::new(1e-2);
//! let x = Matrix::from_vec(2, 4, vec![1., 0., 0., 0., 0., 0., 0., 1.]);
//! for _ in 0..50 {
//!     mlp.train_batch(&x, &[1, 0]);
//!     adam.step(&mut mlp);
//! }
//! assert!(mlp.predict_positive(&x.slice_rows(0, 1)) > 0.5);
//! ```

pub mod activations;
mod attention;
mod block;
mod embedding;
mod encoder;
mod ffn;
pub mod gradcheck;
pub mod lanes;
mod layernorm;
mod linear;
pub mod losses;
mod matrix;
pub mod mlm;
mod mlp;
mod optim;
pub mod parallel;
mod param;
pub mod quant;
mod schedule;
pub mod scratch;
mod serialize;

pub use attention::{AttentionCtx, MultiHeadSelfAttention};
pub use block::{BlockCtx, TransformerBlock};
pub use embedding::Embedding;
pub use encoder::{EncoderConfig, EncoderCtx, TransformerEncoder};
pub use ffn::{FeedForward, FeedForwardCtx};
pub use layernorm::{LayerNorm, LayerNormCtx};
pub use linear::{Linear, LinearCtx};
pub use matrix::{softmax_in_place, Matrix};
pub use mlm::{MlmCtx, MlmWindow};
pub use mlp::{Mlp, MlpCtx};
pub use optim::{Adam, Sgd};
pub use parallel::Parallelism;
pub use param::{Module, Param};
pub use quant::{QuantEncoder, QuantLinear, QuantMatrix, QuantMlp};
pub use schedule::{clip_grad_norm, LrSchedule};
pub use scratch::{
    AttentionGrads, BlockGrads, BlockScratch, EncoderGrads, FeedForwardGrads, LayerNormGrads,
    LinearGrads, Scratch,
};
pub use serialize::{load_params, save_params, LoadError};
