//! `taxo-train` — the continuous-learning control plane.
//!
//! The paper's system never stops learning: user behaviors keep arriving,
//! and the deployed detector should eventually benefit from them. This
//! crate closes that loop for the serving stack without ever letting an
//! unvetted model answer live traffic:
//!
//! 1. **Retrain** ([`ControlPlane::retrain`]): every `retrain_every`
//!    ingest versions, export the serving expander's consistent state
//!    (taxonomy + accumulated click pairs) through
//!    [`taxo_serve::ServeController::export_state`], regenerate the
//!    self-supervised dataset from it ([`taxo_expand::generate_dataset`]),
//!    and fine-tune a **clone** of the live detector under a seed derived
//!    from `(cfg.seed, epoch)` — fully deterministic, like every other
//!    training path in the workspace.
//! 2. **Shadow-score** ([`ControlPlane::shadow_eval`]): the server's
//!    [`taxo_serve::ShadowTap`] mirrors a deterministic 1-in-N sample of
//!    live score traffic (a pure function of query id and seed — the
//!    sampled *set* is identical at any worker count). The candidate
//!    snapshot re-answers up to 256 of them per epoch off the serving
//!    path, ranked under the server's own candidate cap
//!    ([`taxo_serve::ServeController::max_candidates`]); the top
//!    attachment of each feeds only the gate and can never contaminate
//!    a live response.
//! 3. **Gate and promote** ([`ControlPlane::run_epoch`]): an oracle
//!    (production: humans; here: the [`taxo_synth`] judge panel over
//!    synthetic ground truth) judges the candidate's top attachments.
//!    Only if precision and latency clear [`GateConfig`] does the plane
//!    call [`taxo_serve::ServeController::promote`] — the swap rides the
//!    serving ingest queue, consumes a WAL-logged version, and publishes
//!    in one step through the same hot-swap store as any ingest (refused
//!    while a wire `prepare` awaits its commit). Anything else is a
//!    recorded rollback: the live snapshot keeps answering, bit-identical
//!    to a server that never retrained.
//!
//! Every decision is a [`Decision`] value (integer evidence only, so
//! sequences compare with `==` across runs and thread counts); the
//! deterministic simulation suite in `crates/taxo-sim/tests/control_plane.rs`
//! pins the promote/rollback sequence bit-for-bit.
//!
//! Observability: `train.epochs`, `train.promotions`, `train.rollbacks`
//! counters plus `train.shadow.*` evidence counters and `train.retrain` /
//! `train.epoch` spans. Fault points [`FAULT_RETRAIN`] and
//! [`FAULT_SHADOW`] (and `taxo_serve::FAULT_PROMOTE` on the serve side)
//! let chaos tests fail each stage at a seeded operation index.

mod config;
mod plane;
mod trainer;

pub use config::{GateConfig, TrainConfig};
pub use plane::{
    ControlPlane, Decision, LatencyProbe, Oracle, PanelOracle, RejectReason, ShadowReport, Verdict,
};
pub use trainer::Trainer;

/// Fault point: fails a retrain cycle (the epoch records a
/// [`RejectReason::RetrainFaulted`] rollback and serving is untouched).
pub const FAULT_RETRAIN: &str = "train.retrain";

/// Fault point: fails one shadow score (the epoch's gate defers with
/// [`RejectReason::ShadowFaulted`] — a candidate is never promoted on
/// partial evidence).
pub const FAULT_SHADOW: &str = "train.shadow";
