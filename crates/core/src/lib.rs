//! `taxo-expand` — the paper's contribution: a self-supervised,
//! user-behavior-oriented product taxonomy expansion framework
//! (Cheng et al., ICDE 2022).
//!
//! The pipeline (Fig. 1 of the paper):
//!
//! 1. **Graph construction** ([`construct_graph`], Section III-A) — mine
//!    candidate hyponymy pairs from user click logs, resolve clicked item
//!    strings to vocabulary concepts by longest-common-substring
//!    matching, and fuse taxonomy + click edges into a heterogeneous
//!    graph weighted by IF·IQF².
//! 2. **Hyponymy detection** ([`HypoDetector`], Section III-B) — classify
//!    each candidate edge using a *relational* representation from a
//!    domain-pretrained MLM ([`RelationalModel`], "C-BERT") applied to a
//!    `"<i> is a <q>"` template, concatenated with a *structural*
//!    representation from a contrastively pretrained GNN over the
//!    heterogeneous graph ([`StructuralModel`]).
//! 3. **Self-supervision** ([`generate_dataset`], Section III-C1) —
//!    balanced training data from the existing taxonomy, rebalancing the
//!    ~9:1 headword skew to 3:7 and generating shuffle/replace negatives.
//! 4. **Top-down inference** ([`expand_taxonomy`], Section III-C3) —
//!    level-order expansion with transitive-redundancy pruning, so both
//!    width and depth of the taxonomy grow.
//!
//! [`TrainedPipeline::train`] runs all of it end to end:
//!
//! ```
//! use taxo_expand::{ExpansionConfig, PipelineConfig, TrainedPipeline};
//! use taxo_synth::{ClickConfig, ClickLog, UgcConfig, UgcCorpus, World, WorldConfig};
//!
//! let world = World::generate(&WorldConfig::tiny(1));
//! let log = ClickLog::generate(&world, &ClickConfig::tiny(1));
//! let ugc = UgcCorpus::generate(&world, &UgcConfig::tiny(1));
//!
//! let trained = TrainedPipeline::train(
//!     &world.existing, &world.vocab, &log.records, &ugc.sentences,
//!     &PipelineConfig::tiny(1));
//! let result = trained.expand(&world.existing, &world.vocab, &ExpansionConfig::default());
//! assert!(result.expanded.node_count() >= world.existing.node_count());
//! ```

mod batch_scorer;
mod calibration;
mod classifier;
mod detector;
mod error_analysis;
mod graph_construction;
mod incremental;
mod inference;
mod pair_scores;
mod pipeline;
mod quantized;
pub mod relational;
mod report;
mod selfsup;
mod structural;
mod term_mining;

/// Re-export of the observability layer: `taxo_expand::obs::snapshot()`,
/// the `counter!`/`gauge!`/`histogram!`/`span!` macros, and the
/// `TAXO_LOG` / `TAXO_METRICS` reporters. Recording is always on;
/// see [`taxo_obs`] for the determinism contract.
pub use taxo_obs as obs;

pub use batch_scorer::{BatchScorer, ScoreBackend, ScratchPool};
pub use calibration::threshold_for_precision;
pub use classifier::EdgeClassifier;
pub use detector::{DetectorConfig, DetectorTrainer, HypoDetector};
pub use error_analysis::{analyze_errors, ErrorReport, KindBreakdown};
pub use graph_construction::{
    candidates_by_query, collect_all_pairs, construct_graph, CandidatePair, ConstructionResult,
    ConstructionStats,
};
pub use incremental::{
    CandidateLists, ExpanderState, IncrementalExpander, IngestChanges, IngestReport,
};
pub use inference::{expand_taxonomy, ExpansionConfig, ExpansionConfigBuilder, ExpansionResult};
pub use pair_scores::PairScores;
pub use pipeline::{PipelineConfig, PipelineConfigBuilder, TrainedPipeline};
pub use quantized::QuantizedDetector;
// `relational::PairCtx` and `relational::PairGrads` (the encoder's
// reusable forward context and backward temporaries) are deliberately
// *not* re-exported at the top level: they are implementation details of
// encoder fine-tuning, reachable under [`relational`] for the rare caller
// that drives `forward_pair_into` / `backward_pair_into` by hand.
pub use relational::{RelationalConfig, RelationalModel};
pub use report::{render_markdown, summarize, ExpansionSummary};
pub use selfsup::{
    generate_dataset, Dataset, DatasetConfig, DatasetStats, LabeledPair, PairKind, Strategy,
};
pub use structural::{StructuralConfig, StructuralModel};
pub use term_mining::{mine_terms, MinedTerm, TermMiningConfig};

/// The curated import surface: everything a typical consumer (training a
/// pipeline, expanding a taxonomy, serving scores, watching metrics)
/// needs, and nothing internal.
///
/// ```
/// use taxo_expand::prelude::*;
/// let cfg = PipelineConfig::builder().seed(1).build().unwrap();
/// let exp = ExpansionConfig::builder().threshold(0.8).build().unwrap();
/// # let _ = (cfg, exp);
/// ```
pub mod prelude {
    pub use crate::classifier::EdgeClassifier;
    pub use crate::incremental::{ExpanderState, IncrementalExpander, IngestReport};
    pub use crate::inference::{
        expand_taxonomy, ExpansionConfig, ExpansionConfigBuilder, ExpansionResult,
    };
    pub use crate::pipeline::{PipelineConfig, PipelineConfigBuilder, TrainedPipeline};
    pub use taxo_obs::{MetricsSnapshot, SpanSnapshot};
}
