//! Cross-crate integration tests: the full pipeline from synthetic world
//! generation to taxonomy expansion, exercised through the public facade.

use product_taxonomy_expansion::expand::{collect_all_pairs, DatasetConfig, Strategy};
use product_taxonomy_expansion::prelude::*;

fn small_world(seed: u64) -> (World, ClickLog, UgcCorpus) {
    let world = World::generate(&WorldConfig {
        target_nodes: 200,
        max_depth: 5,
        ..WorldConfig::tiny(seed)
    });
    let log = ClickLog::generate(
        &world,
        &ClickConfig {
            n_events: 10_000,
            ..ClickConfig::tiny(seed)
        },
    );
    let ugc = UgcCorpus::generate(
        &world,
        &UgcConfig {
            n_sentences: 2_000,
            ..UgcConfig::tiny(seed)
        },
    );
    (world, log, ugc)
}

#[test]
fn pipeline_end_to_end_expands_and_respects_invariants() {
    let (world, log, ugc) = small_world(101);
    let trained = TrainedPipeline::train(
        &world.existing,
        &world.vocab,
        &log.records,
        &ugc.sentences,
        &PipelineConfig::tiny(102),
    );
    // Learned something beyond chance.
    assert!(trained.test_accuracy(&world.vocab) > 0.5);
    // Loss curves recorded.
    assert!(!trained.mlm_losses.is_empty());
    assert!(!trained.train_losses.is_empty());

    let result = trained.expand(
        &world.existing,
        &world.vocab,
        &ExpansionConfig::builder()
            .threshold(0.7)
            .build()
            .expect("valid expansion config"),
    );
    // The expansion is a superset of the existing taxonomy…
    for e in world.existing.edges() {
        assert!(result.expanded.contains_edge(e.parent, e.child));
    }
    // …stays acyclic (guaranteed by construction; spot-check roots)…
    assert!(!result.expanded.roots().is_empty());
    // …and is transitively reduced modulo the original edges.
    for e in &result.pruned {
        assert!(result.expanded.is_ancestor(e.parent, e.child));
    }
    // Attached edges connect only new concepts (Problem 1 restriction is
    // on by default).
    for e in result.surviving_edges() {
        assert!(
            !world.existing.contains_node(e.child),
            "default expansion must only attach new concepts"
        );
    }
}

#[test]
fn pipeline_is_deterministic_under_fixed_seeds() {
    let run = || {
        let (world, log, ugc) = small_world(77);
        let trained = TrainedPipeline::train(
            &world.existing,
            &world.vocab,
            &log.records,
            &ugc.sentences,
            &PipelineConfig::tiny(77),
        );
        let result = trained.expand(&world.existing, &world.vocab, &ExpansionConfig::default());
        let mut edges: Vec<(u32, u32)> = result
            .expanded
            .edges()
            .map(|e| (e.parent.0, e.child.0))
            .collect();
        edges.sort_unstable();
        (trained.test_accuracy(&world.vocab), edges)
    };
    let (acc1, edges1) = run();
    let (acc2, edges2) = run();
    assert_eq!(acc1, acc2);
    assert_eq!(edges1, edges2);
}

#[test]
fn adaptive_dataset_is_balanced_and_previous_is_skewed() {
    let (world, log, _) = small_world(55);
    let built = product_taxonomy_expansion::expand::construct_graph(
        &world.existing,
        &world.vocab,
        &log.records,
        product_taxonomy_expansion::graph::WeightScheme::IfIqf,
    );
    let adaptive = product_taxonomy_expansion::expand::generate_dataset(
        &world.existing,
        &world.vocab,
        &built.pairs,
        &DatasetConfig {
            strategy: Strategy::Adaptive,
            ..Default::default()
        },
    );
    let previous = product_taxonomy_expansion::expand::generate_dataset(
        &world.existing,
        &world.vocab,
        &built.pairs,
        &DatasetConfig {
            strategy: Strategy::Previous,
            ..Default::default()
        },
    );
    let a = adaptive.stats();
    let p = previous.stats();
    assert!(a.head < a.others, "adaptive rebalances to 3:7");
    assert!(p.head > p.others, "previous inherits the headword skew");
    assert!(p.positives > a.positives);
    assert_eq!(a.positives, a.negatives);
    assert_eq!(p.positives, p.negatives);
}

#[test]
fn collect_all_pairs_supersets_construction_pairs() {
    let (world, log, _) = small_world(33);
    let built = product_taxonomy_expansion::expand::construct_graph(
        &world.existing,
        &world.vocab,
        &log.records,
        product_taxonomy_expansion::graph::WeightScheme::IfIqf,
    );
    let all = collect_all_pairs(&world.vocab, &log.records);
    assert!(all.len() >= built.pairs.len());
    let all_set: std::collections::HashSet<(ConceptId, ConceptId)> =
        all.iter().map(|p| (p.query, p.item)).collect();
    for p in &built.pairs {
        assert!(all_set.contains(&(p.query, p.item)));
    }
}

#[test]
fn trained_encoder_weights_round_trip_through_serialization() {
    use product_taxonomy_expansion::expand::relational::PairCtx;
    use product_taxonomy_expansion::expand::{RelationalConfig, RelationalModel};
    use product_taxonomy_expansion::nn::{load_params, save_params};

    let (world, _, ugc) = small_world(13);
    let (mut trained, _) =
        RelationalModel::pretrain(&world.vocab, &ugc.sentences, &RelationalConfig::tiny(13));
    let bytes = save_params(&mut trained);

    // A fresh model with the same architecture but different seed…
    let mut fresh = RelationalModel::vanilla(
        &world.vocab,
        &ugc.sentences,
        &RelationalConfig {
            seed: 999,
            ..RelationalConfig::tiny(13)
        },
    );
    let root = world.roots[0];
    let child = world.truth.children(root)[0];
    let r = |model: &RelationalModel| {
        let mut ctx = PairCtx::default();
        model.forward_pair_into(&world.vocab, root, child, &mut ctx);
        ctx.r().to_vec()
    };
    let before = r(&fresh);
    load_params(&mut fresh, &bytes).unwrap();
    let after = r(&fresh);
    let original = r(&trained);
    assert_ne!(before, original, "different init differs");
    assert_eq!(after, original, "loaded weights reproduce the encoder");
}
