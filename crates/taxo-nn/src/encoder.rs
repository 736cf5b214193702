use crate::scratch::EncoderGrads;
use crate::{
    BlockCtx, Embedding, LayerNorm, LayerNormCtx, Matrix, Module, Param, TransformerBlock,
};
use rand::rngs::StdRng;

/// Hyper-parameters of the [`TransformerEncoder`].
#[derive(Debug, Clone, Copy)]
pub struct EncoderConfig {
    pub vocab_size: usize,
    pub d_model: usize,
    pub n_layers: usize,
    pub n_heads: usize,
    pub ff_hidden: usize,
    pub max_len: usize,
}

impl EncoderConfig {
    /// A small configuration suitable for the synthetic corpora: big enough
    /// to learn concept co-occurrence, small enough for CPU training.
    pub fn small(vocab_size: usize) -> Self {
        EncoderConfig {
            vocab_size,
            d_model: 32,
            n_layers: 2,
            n_heads: 4,
            ff_hidden: 64,
            max_len: 32,
        }
    }

    /// A tiny configuration for tests.
    pub fn tiny(vocab_size: usize) -> Self {
        EncoderConfig {
            vocab_size,
            d_model: 8,
            n_layers: 1,
            n_heads: 2,
            ff_hidden: 16,
            max_len: 16,
        }
    }
}

/// A BERT-style bidirectional Transformer encoder with a masked-language-
/// model head — the substrate standing in for BERT-Chinese. "C-BERT" in
/// the paper is exactly this encoder pretrained with *concept-level*
/// masking on user-generated content (Section III-B1).
///
/// Training runs on reused buffers: [`TransformerEncoder::forward_ctx`]
/// writes one sequence's activations into a caller-owned [`EncoderCtx`],
/// the pure [`TransformerEncoder::backward_into`] records the sequence's
/// parameter-gradient updates in an [`EncoderGrads`] and
/// [`TransformerEncoder::replay`] adds them, so a warm training step
/// allocates nothing. Inference runs the same kernels batched through
/// [`TransformerEncoder::forward_batch_into`].
/// The MLM head lives in [`crate::mlm`].
#[derive(Debug, Clone)]
pub struct TransformerEncoder {
    pub config: EncoderConfig,
    pub tok: Embedding,
    pub pos: Embedding,
    /// Segment (token-type) embeddings distinguishing the two concepts of
    /// a pair input, as in BERT's sentence-A/sentence-B embeddings.
    pub seg: Embedding,
    pub blocks: Vec<TransformerBlock>,
    pub final_ln: LayerNorm,
    /// Output bias of the MLM head; its weight matrix is *tied* to the
    /// token embedding table (as in BERT), which makes the embedding
    /// geometry semantic and greatly improves sample efficiency for a
    /// small from-scratch encoder.
    pub mlm_bias: Param,
}

/// Saved activations of one encoder training forward pass, reused from
/// one sequence to the next: a warm context allocates only when a longer
/// sequence than any before comes through.
#[derive(Debug, Clone, Default)]
pub struct EncoderCtx {
    /// The token and segment ids encoded (after truncation): the
    /// embedding backward scatters through them.
    ids: Vec<u32>,
    segments: Vec<u32>,
    /// The residual stream, mutated in place through the blocks.
    h: Matrix,
    /// A sub-layer's output before its residual add.
    tmp: Matrix,
    block_ctxs: Vec<BlockCtx>,
    final_ln_ctx: LayerNormCtx,
    /// Per-token hidden states, the encoder output (`len × d_model`).
    hidden: Matrix,
}

impl EncoderCtx {
    /// The hidden states of the last [`TransformerEncoder::forward_ctx`].
    pub fn hidden(&self) -> &Matrix {
        &self.hidden
    }
}

impl TransformerEncoder {
    pub fn new(config: EncoderConfig, rng: &mut StdRng) -> Self {
        TransformerEncoder {
            config,
            tok: Embedding::new(config.vocab_size, config.d_model, rng),
            pos: Embedding::new(config.max_len, config.d_model, rng),
            seg: Embedding::new(2, config.d_model, rng),
            blocks: (0..config.n_layers)
                .map(|_| {
                    TransformerBlock::new(config.d_model, config.n_heads, config.ff_hidden, rng)
                })
                .collect(),
            final_ln: LayerNorm::new(config.d_model),
            mlm_bias: Param::zeros(1, config.vocab_size),
        }
    }

    /// Training forward of one sequence into a reused context: the
    /// per-token hidden states (`len × d_model`) land in
    /// [`EncoderCtx::hidden`]. `segments` gives one
    /// segment id (0 or 1) per token; `None` puts every token in segment
    /// 0. Sequences longer than `max_len` are truncated.
    pub fn forward_ctx(&self, ids: &[u32], segments: Option<&[u32]>, ctx: &mut EncoderCtx) {
        if let Some(segments) = segments {
            assert_eq!(ids.len(), segments.len(), "one segment id per token");
        }
        let n = ids.len().min(self.config.max_len);
        assert!(n > 0, "cannot encode an empty sequence");
        ctx.ids.clear();
        ctx.ids.extend_from_slice(&ids[..n]);
        ctx.segments.clear();
        match segments {
            Some(segments) => ctx.segments.extend_from_slice(&segments[..n]),
            None => ctx.segments.resize(n, 0),
        }
        self.embed_into(&ctx.ids, &ctx.segments, n, &mut ctx.h);
        ctx.block_ctxs
            .resize_with(self.blocks.len(), BlockCtx::default);
        for (block, bctx) in self.blocks.iter().zip(&mut ctx.block_ctxs) {
            block.forward_ctx(&mut ctx.h, bctx, &mut ctx.tmp);
        }
        self.final_ln
            .forward_ctx(&ctx.h, &mut ctx.hidden, &mut ctx.final_ln_ctx);
    }

    /// The embedding layer of both paths: row `r` of `h` becomes
    /// `tok[ids[r]] + pos[r % seq_len] + seg[segments[r]]`, summed in that
    /// order per element.
    fn embed_into(&self, ids: &[u32], segments: &[u32], seq_len: usize, h: &mut Matrix) {
        self.tok.forward_into(ids, h);
        for (r, &seg) in segments.iter().enumerate() {
            let row = h.row_mut(r);
            for (a, &b) in row.iter_mut().zip(self.pos.table.value.row(r % seq_len)) {
                *a += b;
            }
            for (a, &b) in row.iter_mut().zip(self.seg.table.value.row(seg as usize)) {
                *a += b;
            }
        }
    }

    /// Forward-only, allocation-free variant of
    /// [`TransformerEncoder::forward_ctx`] over a batch of stacked
    /// equal-length sequences.
    ///
    /// `ids`/`segments` hold `batch × seq_len` tokens row-major; the
    /// caller has already truncated to `max_len` (so `1 ≤ seq_len ≤
    /// max_len`) and bucketed by length. Per-token hidden states land in
    /// `scratch.enc_out` (`batch·seq_len × d_model`); sequence `s` owns
    /// rows `s*seq_len .. (s+1)*seq_len`.
    ///
    /// The embedding sum is the shared one, blocks and the final LayerNorm
    /// are the `*_into` twins of the training kernels, so each sequence's
    /// rows are bitwise identical to encoding it alone with
    /// [`TransformerEncoder::forward_ctx`].
    pub fn forward_batch_into(
        &self,
        ids: &[u32],
        segments: &[u32],
        seq_len: usize,
        scratch: &mut crate::scratch::Scratch,
    ) {
        assert_eq!(ids.len(), segments.len(), "one segment id per token");
        assert!(
            seq_len >= 1 && seq_len <= self.config.max_len,
            "seq_len {} out of range 1..={}",
            seq_len,
            self.config.max_len
        );
        assert!(ids.len().is_multiple_of(seq_len), "ragged batch");
        self.embed_into(ids, segments, seq_len, &mut scratch.h);
        for block in &self.blocks {
            block.forward_batch_in_place(&mut scratch.h, seq_len, &mut scratch.block);
        }
        self.final_ln.forward_into(&scratch.h, &mut scratch.enc_out);
    }

    /// Backward data pass: backpropagates `d_hidden` (gradient w.r.t.
    /// the forward output) through the final LayerNorm and the blocks,
    /// last to first, recording every parameter-gradient update in `g`
    /// with every temporary taken from `g`; the embedding gradient rows
    /// end in `g` too. Reads only parameter values, so several sequences
    /// can run concurrently, each with its own context and `g`.
    pub fn backward_into(&self, ctx: &EncoderCtx, d_hidden: &Matrix, g: &mut EncoderGrads) {
        self.final_ln
            .backward_into(&ctx.final_ln_ctx, d_hidden, &mut g.d, &mut g.final_ln);
        g.blocks.resize_with(self.blocks.len(), Default::default);
        let blocks = self.blocks.iter().zip(&ctx.block_ctxs).zip(&mut g.blocks);
        for ((block, bctx), bg) in blocks.rev() {
            block.backward_in_place(bctx, &mut g.d, bg);
        }
    }

    /// Replays the backward `g` recorded for the sequence in `ctx`: the
    /// final LayerNorm's and every block's updates, then the token,
    /// position and segment scatters of the embedding gradient rows, one
    /// row per token in token order.
    pub fn replay(&mut self, ctx: &EncoderCtx, g: &EncoderGrads) {
        self.final_ln.replay(&g.final_ln);
        for (block, bg) in self.blocks.iter_mut().zip(&g.blocks) {
            block.replay(bg);
        }
        self.tok.backward(ctx.ids.iter().copied(), &g.d);
        self.pos.backward(0..ctx.ids.len() as u32, &g.d);
        self.seg.backward(ctx.segments.iter().copied(), &g.d);
    }

    /// Convenience: encode and return only the `[CLS]` (first-row) vector,
    /// the representation the paper uses for both relational encoding
    /// (Eq. 7) and node initialisation (Eq. 8).
    pub fn cls_vector(&self, ids: &[u32]) -> Vec<f32> {
        let mut ctx = EncoderCtx::default();
        self.forward_ctx(ids, None, &mut ctx);
        ctx.hidden.row(0).to_vec()
    }
}

impl Module for TransformerEncoder {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.tok.visit_params(f);
        self.pos.visit_params(f);
        self.seg.visit_params(f);
        for block in &mut self.blocks {
            block.visit_params(f);
        }
        self.final_ln.visit_params(f);
        f(&mut self.mlm_bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Adam;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let enc = TransformerEncoder::new(EncoderConfig::tiny(20), &mut rng);
        let mut ctx = EncoderCtx::default();
        enc.forward_ctx(&[1, 5, 6, 2], None, &mut ctx);
        assert_eq!((ctx.hidden().rows(), ctx.hidden().cols()), (4, 8));
        assert_eq!(enc.cls_vector(&[1, 5, 2]).len(), 8);
    }

    #[test]
    fn truncates_long_sequences() {
        let mut rng = StdRng::seed_from_u64(0);
        let enc = TransformerEncoder::new(EncoderConfig::tiny(20), &mut rng);
        let ids: Vec<u32> = (0..40).map(|i| (i % 18) as u32).collect();
        let mut ctx = EncoderCtx::default();
        enc.forward_ctx(&ids, None, &mut ctx);
        assert_eq!(ctx.hidden().rows(), 16); // max_len of tiny config
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sequence_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let enc = TransformerEncoder::new(EncoderConfig::tiny(20), &mut rng);
        enc.forward_ctx(&[], None, &mut EncoderCtx::default());
    }

    /// MLM training on a tiny deterministic corpus must drive the loss
    /// down and learn the co-occurrence: token 10 is always followed by
    /// token 11, so masking position 1 should predict 11.
    #[test]
    fn mlm_learns_a_bigram() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut enc = TransformerEncoder::new(EncoderConfig::tiny(16), &mut rng);
        let mut adam = Adam::new(3e-3);
        let mask = 3u32; // MASK special id convention
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..300 {
            // Sentence: [CLS] 10 11 [SEP]; mask position 2 (the 11).
            let loss = enc.mlm_step(&[1, 10, mask, 2], &[(2, 11)]);
            first_loss.get_or_insert(loss);
            last_loss = loss;
            adam.step(&mut enc);
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.2,
            "loss {first_loss:?} -> {last_loss}"
        );
        let probs = enc.mlm_predict(&[1, 10, mask, 2], 2);
        let argmax = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(argmax, 11);
    }

    /// The batched allocation-free fast path must reproduce the training
    /// forward bit for bit, per sequence, including on reuse of a warm
    /// scratch with different shapes in between.
    #[test]
    fn batched_fast_path_matches_training_forward() {
        let mut rng = StdRng::seed_from_u64(9);
        let enc = TransformerEncoder::new(EncoderConfig::tiny(24), &mut rng);
        let seqs: [&[u32]; 3] = [&[1, 7, 9, 2], &[1, 12, 13, 2], &[1, 20, 5, 2]];
        let segs: [&[u32]; 3] = [&[0, 0, 1, 1], &[0, 1, 1, 1], &[0, 0, 0, 1]];

        let mut scratch = crate::Scratch::new();
        // Warm the scratch on a different shape first: reuse must not leak
        // stale contents into later calls.
        enc.forward_batch_into(&[1, 2], &[0, 0], 2, &mut scratch);

        let flat_ids: Vec<u32> = seqs.concat();
        let flat_segs: Vec<u32> = segs.concat();
        enc.forward_batch_into(&flat_ids, &flat_segs, 4, &mut scratch);

        let mut ctx = EncoderCtx::default();
        for (s, (ids, segments)) in seqs.iter().zip(&segs).enumerate() {
            enc.forward_ctx(ids, Some(segments), &mut ctx);
            for t in 0..4 {
                let fast = scratch.enc_out.row(s * 4 + t);
                let slow = ctx.hidden().row(t);
                for (a, b) in fast.iter().zip(slow) {
                    assert_eq!(a.to_bits(), b.to_bits(), "seq {s} token {t}");
                }
            }
        }
    }

    #[test]
    fn param_count_is_substantial() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut enc = TransformerEncoder::new(EncoderConfig::small(100), &mut rng);
        let n = enc.param_count();
        assert!(n > 10_000, "got {n}");
    }
}
