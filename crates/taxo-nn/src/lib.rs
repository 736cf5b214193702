//! From-scratch neural-network substrate (no DL framework, pure `f32`
//! Rust): dense matrices, manually backpropagated layers, a BERT-style
//! Transformer encoder with an MLM head, optimisers, and the losses the
//! paper uses (softmax cross-entropy, InfoNCE).
//!
//! The paper fine-tunes BERT-Chinese; `repro = 2/5` flags exactly this
//! dependency ("immature DL frameworks"), so this crate *is* the
//! substitution: the same architecture class at laptop scale. Every layer
//! has one training API: a forward that writes its activations into a
//! caller-owned context (`forward_ctx`), a backward that runs as a pure
//! data pass and records the parameter-gradient updates in caller-owned
//! scratch (`backward_into`, [`scratch`]), and a `replay` that adds them
//! in order, so a warm training step allocates nothing and computes the
//! same bits at any thread count. Inference runs the same kernels through
//! `forward_into` / `forward_batch_into`. Every backward pass is verified
//! against central finite differences in its test module via
//! [`gradcheck::check_gradients`].
//!
//! # Example: train the edge-classifier MLP
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use taxo_nn::{losses, Adam, Matrix, Mlp, MlpCtx, MlpGrads};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut mlp = Mlp::new(4, 8, &mut rng);
//! let mut adam = Adam::new(1e-2);
//! let x = Matrix::from_vec(2, 4, vec![1., 0., 0., 0., 0., 0., 0., 1.]);
//! // Reused for every step: the forward context, the backward record
//! // and the input gradient.
//! let (mut ctx, mut grads) = (MlpCtx::default(), MlpGrads::default());
//! let mut dx = Matrix::default();
//! for _ in 0..50 {
//!     mlp.forward_ctx(&x, &mut ctx);
//!     losses::softmax_xent_in_place(ctx.logits_mut(), &[1, 0]);
//!     mlp.backward_into(&x, &ctx, ctx.logits(), &mut dx, &mut grads);
//!     mlp.replay(&grads);
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
pub mod scratch;
mod serialize;

pub use attention::{AttentionCtx, MultiHeadSelfAttention};
pub use block::{BlockCtx, TransformerBlock};
pub use embedding::Embedding;
pub use encoder::{EncoderConfig, EncoderCtx, TransformerEncoder};
pub use ffn::{FeedForward, FeedForwardCtx};
pub use layernorm::{LayerNorm, LayerNormCtx};
pub use linear::Linear;
pub use matrix::{softmax_in_place, Matrix};
pub use mlm::{MlmCtx, MlmWindow};
pub use mlp::{Mlp, MlpCtx};
pub use optim::{Adam, AdamStep, Sgd};
pub use param::{Module, Param, ParamSnapshot};
pub use quant::{QuantEncoder, QuantLinear, QuantMatrix, QuantMlp};
pub use scratch::{
    AttentionGrads, BlockGrads, BlockScratch, EncoderGrads, FeedForwardGrads, LayerNormGrads,
    LinearGrads, MlpGrads, Scratch,
};
pub use serialize::{load_params, save_params, LoadError};
