//! The synchronous control-plane core: retrain → shadow-score → gate →
//! promote, one epoch at a time.
//!
//! [`ControlPlane`] is deliberately a plain synchronous state machine —
//! the background thread ([`crate::Trainer`]) just calls
//! [`ControlPlane::run_epoch`] in a poll loop, and the deterministic
//! simulation suite calls it directly between trace segments. Everything
//! an epoch decides is captured in a [`Decision`] whose fields are
//! integers, so two runs (or two thread counts) can be compared with
//! `assert_eq!` on the whole sequence.

use crate::config::TrainConfig;
use crate::{FAULT_RETRAIN, FAULT_SHADOW};
use std::sync::Arc;
use std::time::Instant;
use taxo_core::{ConceptId, Vocabulary};
use taxo_expand::{generate_dataset, DatasetConfig, DetectorConfig, ExpanderState, HypoDetector};
use taxo_obs::{counter, span};
use taxo_serve::{ServeController, ServeSnapshot, ShadowSample};
use taxo_synth::Panel;

/// Most shadow samples drained and scored per epoch.
const SHADOW_MAX: usize = 256;

/// Top-ranked attachments judged per shadow query.
const TOP_K: usize = 1;

/// Why a candidate was not promoted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The retrain stage itself failed (fault injection at
    /// [`crate::FAULT_RETRAIN`]); no candidate was produced.
    RetrainFaulted,
    /// One or more shadow scores were lost to [`crate::FAULT_SHADOW`];
    /// the gate never promotes on partial evidence.
    ShadowFaulted,
    /// Fewer judged shadow attachments than `shadow_min`.
    ShadowStarved,
    /// Oracle precision below the gate threshold.
    Precision,
    /// A shadow score exceeded the gate's latency budget.
    Latency,
    /// The serving control path refused (queue full or shutdown); the
    /// candidate is dropped and the next due epoch retries from scratch.
    Control,
}

/// What one epoch decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Promoted {
        /// Version the promotion consumed.
        version: u64,
    },
    Rejected(RejectReason),
}

/// One control epoch's full record: the evidence (integer counts only,
/// so sequences are `Eq`-comparable across runs) and the verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// 1-based control epoch.
    pub epoch: u64,
    /// Ingest version the candidate was trained from.
    pub base_version: u64,
    /// Shadow attachments judged by the oracle.
    pub judged: u64,
    /// Judged attachments the oracle approved.
    pub approved: u64,
    /// Shadow scores lost to fault injection.
    pub faulted: u64,
    /// Slowest shadow score, in the epoch probe's microseconds.
    pub max_latency_us: u64,
    pub verdict: Verdict,
}

impl Decision {
    /// Oracle-approved fraction of judged attachments (0 when nothing
    /// was judged).
    pub fn precision(&self) -> f64 {
        if self.judged == 0 {
            0.0
        } else {
            self.approved as f64 / self.judged as f64
        }
    }
}

/// Shadow-evaluation evidence for one candidate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShadowReport {
    pub judged: u64,
    pub approved: u64,
    pub faulted: u64,
    pub max_latency_us: u64,
}

/// How shadow-score latency is measured. Production uses [`Wall`];
/// simulations use [`Fixed`] so latency (and therefore the gate) is a
/// pure function of the trace.
///
/// [`Wall`]: LatencyProbe::Wall
/// [`Fixed`]: LatencyProbe::Fixed
#[derive(Debug, Clone, Copy)]
pub enum LatencyProbe {
    Wall,
    /// Every shadow score "takes" exactly this many microseconds.
    Fixed(u64),
}

impl LatencyProbe {
    fn measure<R>(&self, f: impl FnOnce() -> R) -> (R, u64) {
        match self {
            LatencyProbe::Wall => {
                let t = Instant::now();
                let r = f();
                (r, t.elapsed().as_micros() as u64)
            }
            LatencyProbe::Fixed(us) => (f(), *us),
        }
    }
}

/// Judges proposed attachments for the promotion gate. Production would
/// put humans (or a held-out labelled set) behind this; the reproduction
/// uses [`PanelOracle`] over synthetic ground truth.
pub trait Oracle {
    /// Whether `parent` is an acceptable hypernym for `child`.
    fn approve(&mut self, parent: ConceptId, child: ConceptId) -> bool;
}

/// The workspace's stand-in for human evaluation: a seeded
/// [`taxo_synth::Panel`] majority vote over a ground-truth predicate
/// (typically `World::is_true_hypernym`).
pub struct PanelOracle<F> {
    panel: Panel,
    truth: F,
}

impl<F: FnMut(ConceptId, ConceptId) -> bool> PanelOracle<F> {
    pub fn new(panel: Panel, truth: F) -> Self {
        PanelOracle { panel, truth }
    }
}

impl<F: FnMut(ConceptId, ConceptId) -> bool> Oracle for PanelOracle<F> {
    fn approve(&mut self, parent: ConceptId, child: ConceptId) -> bool {
        let truth = (self.truth)(parent, child);
        self.panel.majority(truth)
    }
}

/// The retrain → shadow → gate → promote state machine. One instance per
/// served process; epochs are strictly sequential.
pub struct ControlPlane {
    cfg: TrainConfig,
    epoch: u64,
    /// Ingest version of the last retrain base (0 = never retrained).
    last_version: u64,
    decisions: Vec<Decision>,
}

impl ControlPlane {
    pub fn new(cfg: TrainConfig) -> ControlPlane {
        cfg.validate();
        ControlPlane {
            cfg,
            epoch: 0,
            last_version: 0,
            decisions: Vec::new(),
        }
    }

    pub fn cfg(&self) -> &TrainConfig {
        &self.cfg
    }

    /// Control epochs run so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Every decision taken, in epoch order.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// Whether serving has advanced far enough past the last retrain
    /// base for a new epoch. Note a promotion itself consumes a version,
    /// so with `retrain_every = N` a promoted epoch leaves N−1 ingest
    /// versions until the next one.
    pub fn due(&self, version: u64) -> bool {
        self.cfg.retrain_every > 0 && version >= self.last_version + self.cfg.retrain_every
    }

    /// Fine-tunes a clone of `base` on the exported serving state under
    /// this epoch's derived seed: the dataset is regenerated from the
    /// *evolved* taxonomy and accumulated click pairs, which is exactly
    /// the paper's self-supervision loop applied to what serving has
    /// learned since deployment. Returns `None` if the
    /// [`crate::FAULT_RETRAIN`] point fails the cycle.
    pub fn retrain(
        &self,
        vocab: &Vocabulary,
        base: &HypoDetector,
        state: &ExpanderState,
    ) -> Option<HypoDetector> {
        if taxo_fault::should_fail(FAULT_RETRAIN) {
            counter!("train.retrain.faulted").inc();
            return None;
        }
        let _g = span!("train.retrain");
        let seed = mix(self.cfg.seed, self.epoch);
        let dataset = generate_dataset(
            &state.taxonomy,
            vocab,
            &state.pairs,
            &DatasetConfig {
                seed,
                ..DatasetConfig::default()
            },
        );
        let mut detector = base.clone();
        let cfg = DetectorConfig {
            seed,
            ..self.cfg.detector.clone()
        };
        detector.train_with_val(vocab, &dataset.train, &dataset.val, &cfg);
        Some(detector)
    }

    /// Scores the mirrored samples against the candidate snapshot under
    /// the serving candidate cap `max_candidates` (see
    /// [`ServeController::max_candidates`]) and judges the top
    /// attachments. Pure aside from the oracle's own seeded state; live
    /// serving is never touched.
    pub fn shadow_eval(
        &self,
        candidate: &ServeSnapshot,
        samples: &[ShadowSample],
        max_candidates: usize,
        oracle: &mut dyn Oracle,
        probe: &LatencyProbe,
    ) -> ShadowReport {
        let _g = span!("train.shadow.eval");
        let mut report = ShadowReport::default();
        for sample in samples.iter().take(SHADOW_MAX) {
            if taxo_fault::should_fail(FAULT_SHADOW) {
                report.faulted += 1;
                continue;
            }
            let (ranked, us) = probe.measure(|| {
                candidate.score_query_tier(sample.query, max_candidates, TOP_K, sample.tier)
            });
            report.max_latency_us = report.max_latency_us.max(us);
            for c in &ranked {
                report.judged += 1;
                // Taxonomy edges run query → item (the serving snapshot
                // flags `attached` via `contains_edge(query, item)`), so
                // the query is the hypernym under judgment.
                if oracle.approve(sample.query, c.item) {
                    report.approved += 1;
                }
            }
        }
        counter!("train.shadow.judged").add(report.judged);
        counter!("train.shadow.approved").add(report.approved);
        counter!("train.shadow.faulted").add(report.faulted);
        report
    }

    /// Applies [`GateConfig`](crate::GateConfig) to an epoch's evidence.
    /// Checks are ordered most- to least-fundamental so a given report
    /// always maps to the same reason.
    pub fn gate(&self, report: &ShadowReport) -> Result<(), RejectReason> {
        if report.faulted > 0 {
            return Err(RejectReason::ShadowFaulted);
        }
        if report.judged < self.cfg.shadow_min {
            return Err(RejectReason::ShadowStarved);
        }
        let precision = report.approved as f64 / report.judged.max(1) as f64;
        if precision < self.cfg.gate.min_precision {
            return Err(RejectReason::Precision);
        }
        if report.max_latency_us > self.cfg.gate.max_latency_us {
            return Err(RejectReason::Latency);
        }
        Ok(())
    }

    /// Runs one full epoch against a live server if one is due: export →
    /// retrain → drain the shadow tap → gate → promote-or-rollback.
    /// Returns `None` when not due (nothing counted, nothing recorded).
    pub fn run_epoch(
        &mut self,
        ctl: &ServeController,
        oracle: &mut dyn Oracle,
        probe: &LatencyProbe,
    ) -> Option<Decision> {
        if !self.due(ctl.version()) {
            return None;
        }
        self.epoch += 1;
        counter!("train.epochs").inc();
        let _g = span!("train.epoch");
        let live = ctl.snapshot();
        let mut decision = Decision {
            epoch: self.epoch,
            base_version: live.version,
            judged: 0,
            approved: 0,
            faulted: 0,
            max_latency_us: 0,
            verdict: Verdict::Rejected(RejectReason::Control),
        };
        let (base_version, state) = match ctl.export_state() {
            Ok(x) => x,
            Err(_) => return Some(self.finish(decision)),
        };
        decision.base_version = base_version;
        self.last_version = base_version;
        let Some(retrained) = self.retrain(&live.vocab, &live.detector, &state) else {
            decision.verdict = Verdict::Rejected(RejectReason::RetrainFaulted);
            return Some(self.finish(decision));
        };
        let detector = Arc::new(retrained);
        let candidate = ServeSnapshot::build(
            base_version + 1,
            Arc::clone(&live.vocab),
            Arc::clone(&detector),
            state.taxonomy.clone(),
            &state.pairs,
        );
        let samples = ctl.shadow_tap().drain(SHADOW_MAX);
        let report = self.shadow_eval(&candidate, &samples, ctl.max_candidates(), oracle, probe);
        decision.judged = report.judged;
        decision.approved = report.approved;
        decision.faulted = report.faulted;
        decision.max_latency_us = report.max_latency_us;
        decision.verdict = match self.gate(&report) {
            Err(reason) => Verdict::Rejected(reason),
            Ok(()) => match ctl.promote(detector) {
                Ok(version) => Verdict::Promoted { version },
                Err(_) => Verdict::Rejected(RejectReason::Control),
            },
        };
        Some(self.finish(decision))
    }

    fn finish(&mut self, decision: Decision) -> Decision {
        match decision.verdict {
            Verdict::Promoted { .. } => counter!("train.promotions").inc(),
            Verdict::Rejected(_) => counter!("train.rollbacks").inc(),
        }
        self.decisions.push(decision);
        decision
    }
}

/// splitmix64 — derives per-epoch retrain seeds from the master seed.
fn mix(seed: u64, epoch: u64) -> u64 {
    let mut x = seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GateConfig;

    fn plane(min_precision: f64, shadow_min: u64, max_latency_us: u64) -> ControlPlane {
        ControlPlane::new(TrainConfig {
            shadow_min,
            gate: GateConfig {
                min_precision,
                max_latency_us,
            },
            ..TrainConfig::default()
        })
    }

    #[test]
    fn gate_orders_reasons_deterministically() {
        let p = plane(0.7, 2, 100);
        let r = |judged, approved, faulted, lat| ShadowReport {
            judged,
            approved,
            faulted,
            max_latency_us: lat,
        };
        // A faulted score dominates everything else.
        assert_eq!(p.gate(&r(10, 10, 1, 0)), Err(RejectReason::ShadowFaulted));
        assert_eq!(p.gate(&r(1, 1, 0, 0)), Err(RejectReason::ShadowStarved));
        assert_eq!(p.gate(&r(10, 6, 0, 0)), Err(RejectReason::Precision));
        assert_eq!(p.gate(&r(10, 8, 0, 101)), Err(RejectReason::Latency));
        assert_eq!(p.gate(&r(10, 8, 0, 100)), Ok(()));
    }

    #[test]
    fn due_respects_cadence_and_promotion_consumed_versions() {
        let mut p = plane(0.7, 1, u64::MAX);
        assert!(!p.due(3));
        assert!(p.due(4));
        p.last_version = 4;
        assert!(!p.due(7));
        assert!(p.due(8));
        // retrain_every = 0 disables retraining outright.
        let p = ControlPlane::new(TrainConfig {
            retrain_every: 0,
            ..TrainConfig::default()
        });
        assert!(!p.due(u64::MAX / 2));
    }

    #[test]
    fn perfect_panel_echoes_ground_truth() {
        let parent = ConceptId(1);
        let child = ConceptId(2);
        let mut oracle = PanelOracle::new(Panel::new(3, 0.0, 9), |p, c| (p, c) == (parent, child));
        assert!(oracle.approve(parent, child));
        assert!(!oracle.approve(child, parent));
    }

    #[test]
    fn epoch_seeds_differ_but_are_reproducible() {
        assert_ne!(mix(7, 1), mix(7, 2));
        assert_eq!(mix(7, 1), mix(7, 1));
        assert_ne!(mix(7, 1), mix(8, 1));
    }
}
