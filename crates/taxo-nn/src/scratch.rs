//! Reusable workspace buffers for the inference fast path and the
//! training step.
//!
//! Every `*_into` / `*_in_place` / `*_ctx` variant in this crate writes
//! into caller-owned [`Matrix`] buffers instead of allocating fresh ones.
//! A [`Scratch`] bundles every buffer one encoder + MLP scoring pass
//! needs; an [`EncoderGrads`] bundles the activation-gradient temporaries
//! of one encoder backward pass and the parameter-gradient updates it
//! records (the forward activations a backward reads live in the
//! per-sequence [`crate::EncoderCtx`]). A caller that keeps them alive
//! performs **zero heap allocations after warm-up**: [`Matrix::reset`]
//! only reallocates when a shape exceeds the largest capacity the buffer
//! has ever held, so once the biggest shape has been seen once, every
//! later pass reuses the same memory.
//!
//! Lifetime rules:
//! - A scratch is tied to no particular model; it grows to fit whatever
//!   shapes pass through it. Reusing one across models is safe (buffers
//!   are reshaped per call) but wastes capacity.
//! - Buffers hold garbage between calls; every variant fully overwrites
//!   what it reads. Never read a scratch field except the ones documented
//!   as outputs of the call that just ran.
//! - A scratch is `Send` but not shareable: one per thread, or one per
//!   example slot. Training keeps its scratch for one training call
//!   (`pretrain`, `train_with_val`), not in a thread-local.
//!
//! # Record and replay
//!
//! A training backward runs in two parts. The data pass (`backward_into`
//! / `backward_in_place`, `&self`) reads only parameter values and
//! writes each parameter-gradient update into the `*Grads` record: a
//! [`LinearGrads`] holds the `dyᵀ · x` value of every weight and the
//! row sum of every bias, a [`LayerNormGrads`] one dγ and one dβ row per
//! input row, an [`EncoderGrads`] the embedding gradient rows (one per
//! token). The replay (`replay`, `&mut self`) then performs exactly the
//! `+=` updates a one-pass backward would make, in its order: products
//! and row sums added once per element, LayerNorm rows in row order,
//! embedding rows in token order. A record keeps every value as computed and is
//! never pre-summed into a zeroed buffer: `−0.0 + 0.0` is not
//! `−0.0 + −0.0`, and float addition does not associate. Replaying
//! examples in example order therefore reproduces the sequential
//! gradients bit for bit, however the data passes were scheduled.
//!
//! Bitwise contract: every buffer-reusing variant runs the *same kernels
//! in the same accumulation order* (ascending index) as its allocating
//! twin — the allocating forms are thin wrappers over them — so results
//! are bit-identical at any thread count.

use crate::Matrix;

/// Per-layer buffers for one [`crate::TransformerBlock`] forward pass.
#[derive(Debug, Clone, Default)]
pub struct BlockScratch {
    /// LayerNorm output (reused for both LN1 and LN2).
    pub normed: Matrix,
    /// Attention block output before the residual add.
    pub attn_out: Matrix,
    /// Query projection.
    pub q: Matrix,
    /// Key projection.
    pub k: Matrix,
    /// Value projection.
    pub v: Matrix,
    /// Per-head attention scores (`seq_len × seq_len`, reused per head and
    /// per sequence).
    pub scores: Matrix,
    /// Concatenated per-head attention outputs.
    pub concat: Matrix,
    /// FFN hidden activation.
    pub ffn_hidden: Matrix,
    /// FFN output before the residual add.
    pub ffn_out: Matrix,
}

/// All buffers for one encoder + classifier scoring pass.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// Hidden states, mutated in place through the transformer blocks.
    pub h: Matrix,
    /// Shared per-block buffers.
    pub block: BlockScratch,
    /// Final-LayerNorm output: the encoder's result
    /// (`batch·seq_len × d_model`).
    pub enc_out: Matrix,
    /// Edge-feature rows assembled by a batch scorer (`n × edge_dim`).
    pub features: Matrix,
    /// MLP hidden activation.
    pub mlp_hidden: Matrix,
    /// MLP logits (`n × 2`); after `predict_positive_batch_into`, holds
    /// per-row class probabilities.
    pub logits: Matrix,
}

impl Scratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Scratch::default()
    }
}

/// The recorded parameter-gradient updates of one
/// [`crate::Linear::backward_into`]: `dW = dyᵀ · x`, each element summed
/// from zero ([`Matrix::matmul_tn_into`]), and `db`, each column of `dy`
/// summed from zero. [`crate::Linear::replay`] adds each value once.
#[derive(Debug, Clone, Default)]
pub struct LinearGrads {
    pub(crate) dw: Matrix,
    pub(crate) db: Matrix,
}

/// The recorded updates of one [`crate::LayerNorm::backward_into`]: one
/// row of dγ (`dy ⊙ x̂`) and one row of dβ (`dy`) per input row, replayed
/// row by row.
#[derive(Debug, Clone, Default)]
pub struct LayerNormGrads {
    pub(crate) dgamma: Matrix,
    pub(crate) dbeta: Matrix,
}

/// Temporaries and records of one [`crate::FeedForward::backward_into`].
#[derive(Debug, Clone, Default)]
pub struct FeedForwardGrads {
    /// Hidden-layer gradient.
    pub(crate) d_act: Matrix,
    pub(crate) lin1: LinearGrads,
    pub(crate) lin2: LinearGrads,
}

/// Temporaries and records of one
/// [`crate::MultiHeadSelfAttention::backward_into`].
#[derive(Debug, Clone, Default)]
pub struct AttentionGrads {
    /// Gradient of the concatenated head outputs.
    pub(crate) dconcat: Matrix,
    pub(crate) dq: Matrix,
    pub(crate) dk: Matrix,
    pub(crate) dv: Matrix,
    /// One head's score gradient (`n × n`, reused per head).
    pub(crate) d_scores: Matrix,
    /// One projection's input gradient before it joins `dx`.
    pub(crate) dx_part: Matrix,
    pub(crate) wq: LinearGrads,
    pub(crate) wk: LinearGrads,
    pub(crate) wv: LinearGrads,
    pub(crate) wo: LinearGrads,
}

/// Temporaries and records of one
/// [`crate::TransformerBlock::backward_in_place`].
#[derive(Debug, Clone, Default)]
pub struct BlockGrads {
    /// Gradient w.r.t. a sub-layer's (LayerNorm output) input.
    pub(crate) d_sub: Matrix,
    /// A LayerNorm's input gradient before the residual add.
    pub(crate) d_ln: Matrix,
    pub(crate) ln1: LayerNormGrads,
    pub(crate) attn: AttentionGrads,
    pub(crate) ln2: LayerNormGrads,
    pub(crate) ffn: FeedForwardGrads,
}

/// Every backward temporary and recorded update of one encoder training
/// step ([`crate::TransformerEncoder::backward_into`], replayed by
/// [`crate::TransformerEncoder::replay`]). Keep one per example slot for
/// a whole training call.
#[derive(Debug, Clone, Default)]
pub struct EncoderGrads {
    /// Gradient flowing down the residual stream (`n × d_model`); after
    /// the data pass, the embedding gradient rows the replay scatters.
    pub(crate) d: Matrix,
    /// One per block, in block order.
    pub(crate) blocks: Vec<BlockGrads>,
    pub(crate) final_ln: LayerNormGrads,
}
