//! Reusable workspace buffers for the inference fast path and the
//! training step.
//!
//! Every `*_into` / `*_in_place` / `*_ctx` variant in this crate writes
//! into caller-owned [`Matrix`] buffers instead of allocating fresh ones.
//! A [`Scratch`] bundles every buffer one encoder + MLP scoring pass
//! needs; an [`EncoderGrads`] bundles the activation-gradient temporaries
//! of one encoder backward pass (the forward activations a backward reads
//! live in the per-sequence [`crate::EncoderCtx`]). A caller that keeps
//! them alive performs **zero heap allocations after warm-up**:
//! [`Matrix::reset`] only reallocates when a shape exceeds the largest
//! capacity the buffer has ever held, so once the biggest shape has been
//! seen once, every later pass reuses the same memory.
//!
//! Lifetime rules:
//! - A scratch is tied to no particular model; it grows to fit whatever
//!   shapes pass through it. Reusing one across models is safe (buffers
//!   are reshaped per call) but wastes capacity.
//! - Buffers hold garbage between calls; every variant fully overwrites
//!   what it reads. Never read a scratch field except the ones documented
//!   as outputs of the call that just ran.
//! - A scratch is `Send` but not shareable: one per thread. Training
//!   keeps its scratch for one training call (`pretrain`,
//!   `train_with_val`), not in a thread-local.
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

/// Activation-gradient temporaries of one
/// [`crate::MultiHeadSelfAttention::backward_into`] call.
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
}

/// Activation-gradient temporaries of one
/// [`crate::TransformerBlock::backward_in_place`] call.
#[derive(Debug, Clone, Default)]
pub struct BlockGrads {
    /// Gradient w.r.t. a sub-layer's (LayerNorm output) input.
    pub(crate) d_sub: Matrix,
    /// A LayerNorm's input gradient before the residual add.
    pub(crate) d_ln: Matrix,
    /// FFN hidden-layer gradient.
    pub(crate) d_act: Matrix,
    pub(crate) attn: AttentionGrads,
}

/// Every backward temporary of one encoder training step
/// ([`crate::TransformerEncoder::backward_into`], and the MLM head's
/// [`crate::TransformerEncoder::mlm_apply`]). One is enough for a whole
/// training call: backward passes run one at a time.
#[derive(Debug, Clone, Default)]
pub struct EncoderGrads {
    /// Gradient flowing down the residual stream (`n × d_model`).
    pub(crate) d: Matrix,
    pub(crate) block: BlockGrads,
}
