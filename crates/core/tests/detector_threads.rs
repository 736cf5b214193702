//! Detector training across thread counts: each batch records its pair
//! backwards in the compute pool and replays them in pair order, so the
//! same training run at 1, 2, 3 and 8 threads must leave every epoch
//! loss, every parameter and the validation-picked snapshot bit for bit
//! equal. The training set ends in a ragged batch; the pair templates
//! use both segments and repeat tokens across a batch.
//!
//! The binary holds exactly one test: the thread count is global.

use taxo_expand::{
    construct_graph, generate_dataset, DatasetConfig, DetectorConfig, HypoDetector,
    RelationalConfig, RelationalModel, StructuralConfig, StructuralModel,
};
use taxo_graph::WeightScheme;
use taxo_nn::{parallel, Module, Param};
use taxo_synth::{ClickConfig, ClickLog, UgcConfig, UgcCorpus, World, WorldConfig};

#[test]
fn detector_batches_replay_bit_for_bit_at_any_thread_count() {
    let world = World::generate(&WorldConfig {
        target_nodes: 120,
        ..WorldConfig::tiny(37)
    });
    let log = ClickLog::generate(
        &world,
        &ClickConfig {
            n_events: 6_000,
            ..ClickConfig::tiny(37)
        },
    );
    let ugc = UgcCorpus::generate(&world, &UgcConfig::tiny(37));
    let built = construct_graph(
        &world.existing,
        &world.vocab,
        &log.records,
        WeightScheme::IfIqf,
    );
    let dataset = generate_dataset(
        &world.existing,
        &world.vocab,
        &built.pairs,
        &DatasetConfig::default(),
    );
    let rel = RelationalModel::vanilla(&world.vocab, &ugc.sentences, &RelationalConfig::tiny(37));
    let structural = StructuralModel::build(
        &world.existing,
        &world.vocab,
        &built.pairs,
        Some(&rel),
        &StructuralConfig::tiny(37),
    );
    let cfg = DetectorConfig {
        epochs: 4,
        ..DetectorConfig::tiny(37)
    };
    let full = dataset.train.len() / cfg.batch * cfg.batch;
    assert!(full >= 2 * cfg.batch, "fixture dataset too small");
    let train = &dataset.train[..full - 3];
    assert!(!dataset.val.is_empty(), "fixture has no validation split");

    let run = |threads: usize| -> Vec<u32> {
        parallel::set_threads(threads);
        let mut detector = HypoDetector::new(Some(rel.clone()), Some(structural.clone()), &cfg);
        let losses = detector.train_with_val(&world.vocab, train, &dataset.val, &cfg);
        parallel::set_threads(1);
        let mut bits: Vec<u32> = losses.iter().map(|l| l.to_bits()).collect();
        let mut params = |p: &mut Param| bits.extend(p.value.data().iter().map(|v| v.to_bits()));
        detector
            .relational
            .as_mut()
            .unwrap()
            .visit_params(&mut params);
        detector
            .structural
            .as_mut()
            .unwrap()
            .visit_params(&mut params);
        detector.mlp.visit_params(&mut params);
        bits
    };
    let want = run(1);
    for threads in [2, 3, 8] {
        let got = run(threads);
        assert_eq!(got.len(), want.len());
        if let Some(i) = (0..want.len()).find(|&i| got[i] != want[i]) {
            panic!("{threads} threads diverge from 1 thread at word {i}");
        }
    }
}
