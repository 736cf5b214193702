//! The masked-language-model head of [`TransformerEncoder`] and its
//! gradient-accumulation window.
//!
//! The head's weight is tied to the token embedding table (logits are
//! `h · Eᵀ + b`). One example's step splits in two: the pure (`&self`)
//! [`TransformerEncoder::mlm_forward`] runs the encoder and the head
//! forward into a reused [`MlmCtx`] and computes the head-side gradients,
//! and the mutating [`TransformerEncoder::mlm_apply`] folds them into the
//! parameter gradients and runs the encoder backward. An [`MlmWindow`]
//! runs a window's forwards in parallel against frozen parameters, then
//! applies them in example order and steps the optimiser, so pretraining
//! is bit-identical at any thread count and, once warm, allocates nothing.

use crate::scratch::EncoderGrads;
use crate::{losses, parallel, Adam, EncoderCtx, Matrix, TransformerEncoder};

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
    /// [`TransformerEncoder::mlm_forward`] and
    /// [`TransformerEncoder::mlm_apply`].
    pub fn mlm_step(&mut self, masked_ids: &[u32], targets: &[(usize, u32)]) -> f32 {
        let mut ctx = MlmCtx::default();
        let loss = self.mlm_forward(masked_ids, targets, &mut ctx);
        self.mlm_apply(&ctx, &mut EncoderGrads::default());
        loss
    }

    /// The pure (`&self`) half of [`TransformerEncoder::mlm_step`]:
    /// encoder and head forward plus the head-side gradients, written into
    /// `ctx`, with **no** parameter mutation. Returns the loss, 0 when no
    /// target position survives truncation (then
    /// [`TransformerEncoder::mlm_apply`] does nothing). Several examples
    /// can run concurrently, each into its own context.
    pub fn mlm_forward(
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
        // Tied-head backward, input side: d_gathered = dlogits · E,
        // scattered back into a full d_hidden. The weight side
        // (dE = dlogitsᵀ · h) waits for `mlm_apply`.
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
        loss
    }

    /// The mutating half of [`TransformerEncoder::mlm_step`]: folds one
    /// example's head gradients into the tied embedding table and the
    /// output bias (`dE += dlogitsᵀ · h`, `db += Σ dlogits`, without the
    /// dense vocab × d product), then runs the encoder backward with
    /// temporaries from `g` — the accumulation order of the fused step.
    pub fn mlm_apply(&mut self, ctx: &MlmCtx, g: &mut EncoderGrads) {
        if ctx.positions.is_empty() {
            return;
        }
        self.tok
            .table
            .grad
            .add_matmul_tn(&ctx.dlogits, &ctx.gathered);
        self.mlm_bias.grad.add_sum_rows(&ctx.dlogits);
        self.backward_into(&ctx.enc, &ctx.d_hidden, g);
    }

    /// Predicted distribution over the vocabulary at `position` of the
    /// encoded `ids` (used to inspect what MLM pretraining learned).
    pub fn mlm_predict(&self, ids: &[u32], position: usize) -> Vec<f32> {
        let (hidden, _) = self.forward(ids);
        let row = Matrix::row_vector(hidden.row(position).to_vec());
        let mut logits = Matrix::default();
        self.mlm_logits_into(&row, &mut logits);
        logits.softmax_rows();
        logits.row(0).to_vec()
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
/// (example buffers plus [`MlmCtx`]) per example and one shared
/// [`EncoderGrads`]. Keep one for a whole pretraining run; once every
/// slot has seen its longest example, [`MlmWindow::flush`] allocates
/// nothing at `TAXO_THREADS=1`.
#[derive(Debug, Default)]
pub struct MlmWindow {
    slots: Vec<MlmSlot>,
    len: usize,
    grads: EncoderGrads,
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

    /// Drains the window: every example's forward through
    /// [`parallel::par_map_into`] (pure, against the frozen parameter
    /// values), then the gradients applied in example order and one
    /// optimiser step. Returns the summed loss; a no-op on an empty
    /// window. Within a window only `adam.step` mutates values, so the
    /// parallel forwards equal the sequential ones and the reduction
    /// order is fixed: results are thread-count invariant.
    pub fn flush(&mut self, encoder: &mut TransformerEncoder, adam: &mut Adam) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let slots = &mut self.slots[..self.len];
        {
            let enc: &TransformerEncoder = encoder;
            parallel::par_map_into(slots, |_, slot| {
                slot.loss = enc.mlm_forward(&slot.masked, &slot.targets, &mut slot.ctx);
            });
        }
        let mut total = 0.0f64;
        for slot in slots.iter() {
            total += f64::from(slot.loss);
            encoder.mlm_apply(&slot.ctx, &mut self.grads);
        }
        adam.step(encoder);
        self.len = 0;
        total
    }
}
