//! The masked-language-model head of [`TransformerEncoder`] and its
//! gradient-accumulation window.
//!
//! The head's weight is tied to the token embedding table (logits are
//! `h · Eᵀ + b`). One example's step splits in two along the
//! record-and-replay contract of [`crate::scratch`]. The pure (`&self`)
//! [`TransformerEncoder::mlm_record`] runs the encoder and head forward,
//! the loss and the whole backward into a reused [`MlmCtx`], recording
//! every parameter-gradient update as computed: the head's
//! `dlogitsᵀ · h` product for the tied table, its bias sums, then the
//! encoder's updates. The mutating [`TransformerEncoder::mlm_replay`]
//! performs exactly those `+=` updates, the head product before the token
//! scatter into the same table: the order in which backpropagating the
//! example in one pass accumulates them.
//!
//! An [`MlmWindow`] makes two passes over the compute pool. The first
//! records a window's examples in one [`parallel::par_map_into`] against
//! frozen parameters (each slot owns its context and record). The second
//! replays the records and steps the optimiser in two disjoint parameter
//! groups, one pool chunk each: the embedding side (the token, position
//! and segment tables and the head's bias, which take the head product
//! and the scatters) and the transformer side (the blocks and the final
//! LayerNorm). Each group replays every slot in example order and steps
//! under the same [`AdamStep`]. Every gradient therefore receives the
//! same adds in the same order at any thread count, and every value the
//! same update — pretraining is bit-identical from `TAXO_THREADS=1` up —
//! and, once warm, a window allocates nothing.

use crate::encoder::{BlockParams, EmbeddingParams};
use crate::scratch::EncoderGrads;
use crate::{losses, parallel, Adam, AdamStep, EncoderCtx, Matrix, TransformerEncoder};

/// One MLM example's training state, reused from one example to the next.
#[derive(Debug, Clone, Default)]
pub struct MlmCtx {
    enc: EncoderCtx,
    /// Masked positions that survived truncation, and their target ids.
    positions: Vec<usize>,
    target_ids: Vec<usize>,
    /// Hidden rows at `positions` (`m × d_model`).
    gathered: Matrix,
    /// Head logits, overwritten by the cross-entropy gradient
    /// (`m × vocab`).
    dlogits: Matrix,
    /// `dlogits · E` (`m × d_model`).
    d_gathered: Matrix,
    /// Gradient w.r.t. the encoder output (`len × d_model`).
    d_hidden: Matrix,
    /// Recorded tied-head product `dlogitsᵀ · h` (`vocab × d_model`).
    head: Matrix,
    /// Recorded output-bias sums of `dlogits` (`1 × vocab`).
    bias: Matrix,
    /// The encoder backward's temporaries and recorded updates.
    grads: EncoderGrads,
}

impl TransformerEncoder {
    /// MLM logits for a batch of hidden rows into `out`: `h · Eᵀ + b` with
    /// `E` the tied token embedding table.
    fn mlm_logits_into(&self, hidden_rows: &Matrix, out: &mut Matrix) {
        hidden_rows.matmul_nt_into(&self.tok.table.value, out);
        out.add_row_broadcast(&self.mlm_bias.value);
    }

    /// One MLM training example: `masked_ids` is the input with `[MASK]`
    /// substitutions already applied; `targets` lists
    /// `(position, original_id)` for every masked slot. Accumulates
    /// gradients for all parameters (including the MLM head) and returns
    /// the mean cross-entropy over the masked slots. Wraps
    /// [`TransformerEncoder::mlm_record`] and
    /// [`TransformerEncoder::mlm_replay`].
    pub fn mlm_step(&mut self, masked_ids: &[u32], targets: &[(usize, u32)]) -> f32 {
        let mut ctx = MlmCtx::default();
        let loss = self.mlm_record(masked_ids, targets, &mut ctx);
        self.mlm_replay(&ctx);
        loss
    }

    /// The pure (`&self`) half of [`TransformerEncoder::mlm_step`]:
    /// encoder and head forward, the loss, and the whole backward,
    /// recording every parameter-gradient update in `ctx` with **no**
    /// parameter mutation. Returns the loss, 0 when no target position
    /// survives truncation (then [`TransformerEncoder::mlm_replay`] does
    /// nothing). Several examples can run concurrently, each into its
    /// own context.
    pub fn mlm_record(
        &self,
        masked_ids: &[u32],
        targets: &[(usize, u32)],
        ctx: &mut MlmCtx,
    ) -> f32 {
        self.forward_ctx(masked_ids, None, &mut ctx.enc);
        let hidden = ctx.enc.hidden();
        let (n, d) = (hidden.rows(), hidden.cols());
        ctx.positions.clear();
        ctx.target_ids.clear();
        for &(p, t) in targets {
            if p < n {
                ctx.positions.push(p);
                ctx.target_ids.push(t as usize);
            }
        }
        if ctx.positions.is_empty() {
            return 0.0;
        }
        // Gather hidden rows at masked positions.
        ctx.gathered.reset_for_overwrite(ctx.positions.len(), d);
        for (r, &p) in ctx.positions.iter().enumerate() {
            ctx.gathered.row_mut(r).copy_from_slice(hidden.row(p));
        }
        self.mlm_logits_into(&ctx.gathered, &mut ctx.dlogits);
        let loss = losses::softmax_xent_in_place(&mut ctx.dlogits, &ctx.target_ids);
        // Tied-head backward. Weight side: the vocab × d product
        // `dE = dlogitsᵀ · h` and the bias sums, recorded for the replay.
        // Input side: d_gathered = dlogits · E, scattered back into a full
        // d_hidden.
        ctx.head.matmul_tn_into(&ctx.dlogits, &ctx.gathered);
        ctx.bias.sum_rows_into(&ctx.dlogits);
        ctx.dlogits
            .matmul_into(&self.tok.table.value, &mut ctx.d_gathered);
        ctx.d_hidden.reset(n, d);
        for (r, &p) in ctx.positions.iter().enumerate() {
            for (o, &g) in ctx
                .d_hidden
                .row_mut(p)
                .iter_mut()
                .zip(ctx.d_gathered.row(r))
            {
                *o += g;
            }
        }
        self.backward_into(&ctx.enc, &ctx.d_hidden, &mut ctx.grads);
        loss
    }

    /// The mutating half of [`TransformerEncoder::mlm_step`]: replays one
    /// example's recorded updates — the head product into the tied
    /// embedding table and the output bias, then the encoder's, whose
    /// token scatter lands in the same table after the product — the
    /// accumulation order of backpropagating the example in one pass.
    pub fn mlm_replay(&mut self, ctx: &MlmCtx) {
        let (embeddings, blocks) = self.param_groups();
        ParamGroup::Embeddings(embeddings).replay(ctx);
        ParamGroup::Blocks(blocks).replay(ctx);
    }

    /// Predicted distribution over the vocabulary at `position` of the
    /// encoded `ids` (used to inspect what MLM pretraining learned).
    pub fn mlm_predict(&self, ids: &[u32], position: usize) -> Vec<f32> {
        let mut ctx = EncoderCtx::default();
        self.forward_ctx(ids, None, &mut ctx);
        let row = Matrix::row_vector(ctx.hidden().row(position).to_vec());
        let mut logits = Matrix::default();
        self.mlm_logits_into(&row, &mut logits);
        logits.softmax_rows();
        logits.row(0).to_vec()
    }
}

/// One of an encoder's two parameter groups, replayed and stepped as one
/// pool chunk of [`MlmWindow::flush`].
enum ParamGroup<'a> {
    Embeddings(EmbeddingParams<'a>),
    Blocks(BlockParams<'a>),
}

impl ParamGroup<'_> {
    /// This group's share of [`TransformerEncoder::mlm_replay`]. The
    /// embedding side adds the head product to the tied token table and
    /// the bias sums, then the embedding scatters: on the token table
    /// the product lands before the scatter, as in a one-pass backward.
    fn replay(&mut self, ctx: &MlmCtx) {
        if ctx.positions.is_empty() {
            return;
        }
        match self {
            ParamGroup::Embeddings(g) => {
                g.tok.table.grad.add_assign(&ctx.head);
                g.mlm_bias.grad.add_assign(&ctx.bias);
                g.replay(&ctx.enc, &ctx.grads);
            }
            ParamGroup::Blocks(g) => g.replay(&ctx.grads),
        }
    }

    /// Replays every slot in example order, then applies `step`.
    fn replay_and_step(&mut self, slots: &[MlmSlot], step: &AdamStep) {
        for slot in slots {
            self.replay(&slot.ctx);
        }
        match self {
            ParamGroup::Embeddings(g) => step.apply(g),
            ParamGroup::Blocks(g) => step.apply(g),
        }
    }
}

/// One example slot of an [`MlmWindow`].
#[derive(Debug, Default)]
struct MlmSlot {
    masked: Vec<u32>,
    targets: Vec<(usize, u32)>,
    ctx: MlmCtx,
    loss: f32,
}

/// A gradient-accumulation window of MLM pretraining: one reused slot
/// (example buffers plus an [`MlmCtx`] with its record) per example.
/// Keep one for a whole pretraining run; once every slot has seen its
/// longest example, [`MlmWindow::flush`] allocates nothing at
/// `TAXO_THREADS=1`.
#[derive(Debug, Default)]
pub struct MlmWindow {
    slots: Vec<MlmSlot>,
    len: usize,
}

impl MlmWindow {
    /// An empty window; slots are added as examples arrive.
    pub fn new() -> Self {
        MlmWindow::default()
    }

    /// Examples pushed since the last flush.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no example is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues one example (masked ids and `(position, original id)`
    /// targets), copying it into the next slot's buffers.
    pub fn push(&mut self, masked_ids: &[u32], targets: &[(usize, u32)]) {
        if self.len == self.slots.len() {
            self.slots.push(MlmSlot::default());
        }
        let slot = &mut self.slots[self.len];
        slot.masked.clear();
        slot.masked.extend_from_slice(masked_ids);
        slot.targets.clear();
        slot.targets.extend_from_slice(targets);
        self.len += 1;
    }

    /// Drains the window in two pool passes: every example's forward and
    /// backward in one [`parallel::par_map_into`] (pure, against the
    /// frozen parameter values, each into its slot's record), then the
    /// two parameter groups, each replaying every record in example
    /// order and stepping under the window's one [`Adam::begin_step`].
    /// Returns the summed loss; a no-op on an empty window. Within a
    /// window only the replays touch gradients and only the step touches
    /// values, so the records equal the sequential ones and every
    /// gradient receives the same adds in the same order: results are
    /// thread-count invariant.
    pub fn flush(&mut self, encoder: &mut TransformerEncoder, adam: &mut Adam) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let slots = &mut self.slots[..self.len];
        {
            let enc: &TransformerEncoder = encoder;
            parallel::par_map_into(slots, |_, slot| {
                slot.loss = enc.mlm_record(&slot.masked, &slot.targets, &mut slot.ctx);
            });
        }
        let slots = &*slots;
        let step = adam.begin_step();
        let (embeddings, blocks) = encoder.param_groups();
        let mut groups = [
            ParamGroup::Embeddings(embeddings),
            ParamGroup::Blocks(blocks),
        ];
        parallel::par_map_into(&mut groups, |_, group| {
            group.replay_and_step(slots, &step);
        });
        let mut total = 0.0f64;
        for slot in slots {
            total += f64::from(slot.loss);
        }
        self.len = 0;
        total
    }
}
