use std::collections::{HashMap, HashSet};
use taxo_core::{ConceptId, Taxonomy, Vocabulary};
use taxo_graph::{HeteroGraph, HeteroGraphBuilder, WeightScheme};
use taxo_obs::{counter, span};
use taxo_synth::ClickRecord;
use taxo_text::ConceptMatcher;

/// A candidate hyponymy pair mined from the click log: users issuing
/// `query` clicked items identified as concept `item`, `clicks` times in
/// total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidatePair {
    pub query: ConceptId,
    pub item: ConceptId,
    pub clicks: u64,
}

/// The statistics of Table I, computed during graph construction.
#[derive(Debug, Clone, Default)]
pub struct ConstructionStats {
    /// #Items: total query→item click records processed.
    pub n_items: u64,
    /// #Nodes: existing-taxonomy nodes that appear as queries with
    /// clicked items.
    pub n_nodes_covered: usize,
    /// CNode: `#Nodes / |N|` (percent).
    pub c_node: f64,
    /// #IEdge: click records whose (query, item-concept) pair is an
    /// existing-taxonomy edge.
    pub n_iedge: u64,
    /// #Edges: existing-taxonomy edges that emerge as a query-item pair.
    pub n_edges_covered: usize,
    /// CEdge: `#Edges / |E|` (percent).
    pub c_edge: f64,
    /// #Concepts: distinct vocabulary concepts outside the existing
    /// taxonomy found in clicked items.
    pub n_new_concepts: usize,
    /// #INewEdge: click records contributing new potential hyponymy pairs.
    pub n_inew_edge: u64,
    /// #NewEdge: distinct new (query, item-concept) pairs not in the
    /// existing taxonomy.
    pub n_new_edge: usize,
    /// #IOthers: click records whose item mentions no known concept.
    pub n_iothers: u64,
}

/// Output of the graph-construction phase.
#[derive(Debug, Clone)]
pub struct ConstructionResult {
    /// The heterogeneous graph `G_h` (taxonomy ∪ click edges, weighted).
    pub graph: HeteroGraph,
    /// All distinct candidate (query, item) concept pairs with click
    /// counts — the pruned hyponymy search space.
    pub pairs: Vec<CandidatePair>,
    pub stats: ConstructionStats,
}

/// Runs the four-step graph construction of Section III-A:
/// 1. *Items collection* — click records whose query is a concept;
/// 2. *Nodes identification* — resolve each clicked item string to a
///    vocabulary concept by longest-common-substring matching;
/// 3. *Edge connection* — connect query and item concepts;
/// 4. *Weight assignment* — IF·IQF² softmax attributes (via `scheme`).
///
/// Every existing-taxonomy edge also enters the graph with weight 1.
pub fn construct_graph(
    existing: &Taxonomy,
    vocab: &Vocabulary,
    records: &[ClickRecord],
    scheme: WeightScheme,
) -> ConstructionResult {
    let _g = span!("construct.run");
    let matcher = ConceptMatcher::new(vocab);

    let mut stats = ConstructionStats::default();
    let mut pair_clicks: HashMap<(ConceptId, ConceptId), u64> = HashMap::new();
    let mut covered_nodes: HashSet<ConceptId> = HashSet::new();
    let mut covered_edges: HashSet<(ConceptId, ConceptId)> = HashSet::new();
    let mut new_concepts: HashSet<ConceptId> = HashSet::new();
    let mut new_pairs: HashSet<(ConceptId, ConceptId)> = HashSet::new();

    for r in records {
        // Step 1: only existing-taxonomy concepts act as query concepts.
        if !existing.contains_node(r.query) {
            continue;
        }
        stats.n_items += r.count;
        // Step 2: identify the clicked concept.
        let Some(item) = matcher.identify(&r.item_text) else {
            stats.n_iothers += r.count;
            continue;
        };
        if item == r.query {
            continue;
        }
        covered_nodes.insert(r.query);
        if existing.contains_edge(r.query, item) {
            stats.n_iedge += r.count;
            covered_edges.insert((r.query, item));
        } else {
            stats.n_inew_edge += r.count;
            new_pairs.insert((r.query, item));
            if !existing.contains_node(item) {
                new_concepts.insert(item);
            }
        }
        // Step 3: edge connection (aggregated).
        *pair_clicks.entry((r.query, item)).or_insert(0) += r.count;
    }

    // Mirror the Table I tallies into the metrics registry; recorded
    // values are work counts only, so they are thread-count invariant.
    counter!("construct.records_resolved").add(stats.n_items - stats.n_iothers);
    counter!("construct.records_dropped").add(stats.n_iothers);
    counter!("construct.pairs_mined").add(pair_clicks.len() as u64);
    counter!("construct.pairs_new").add(new_pairs.len() as u64);
    counter!("construct.new_concepts").add(new_concepts.len() as u64);

    stats.n_nodes_covered = covered_nodes.len();
    stats.c_node = 100.0 * covered_nodes.len() as f64 / existing.node_count().max(1) as f64;
    stats.n_edges_covered = covered_edges.len();
    stats.c_edge = 100.0 * covered_edges.len() as f64 / existing.edge_count().max(1) as f64;
    stats.n_new_concepts = new_concepts.len();
    stats.n_new_edge = new_pairs.len();

    // Step 4: weight assignment.
    let mut builder = HeteroGraphBuilder::new();
    for e in existing.edges() {
        builder.add_taxonomy_edge(e.parent, e.child);
    }
    let mut pairs: Vec<CandidatePair> = pair_clicks
        .iter()
        .map(|(&(query, item), &clicks)| CandidatePair {
            query,
            item,
            clicks,
        })
        .collect();
    pairs.sort_by_key(|p| (p.query, p.item));
    for p in &pairs {
        builder.add_clicks(p.query, p.item, p.clicks);
    }
    let graph = builder.build(scheme);

    ConstructionResult {
        graph,
        pairs,
        stats,
    }
}

/// Collects candidate pairs from *every* query concept in the log, not
/// only existing-taxonomy nodes — used at inference time so that nodes
/// attached during top-down expansion can themselves act as queries
/// ("the attached new nodes are also considered for further expanse when
/// we process the next layer", Section III-C3).
pub fn collect_all_pairs(vocab: &Vocabulary, records: &[ClickRecord]) -> Vec<CandidatePair> {
    let matcher = ConceptMatcher::new(vocab);
    let mut pair_clicks: HashMap<(ConceptId, ConceptId), u64> = HashMap::new();
    for r in records {
        let Some(item) = matcher.identify(&r.item_text) else {
            continue;
        };
        if item == r.query {
            continue;
        }
        *pair_clicks.entry((r.query, item)).or_insert(0) += r.count;
    }
    let mut pairs: Vec<CandidatePair> = pair_clicks
        .into_iter()
        .map(|((query, item), clicks)| CandidatePair {
            query,
            item,
            clicks,
        })
        .collect();
    pairs.sort_by_key(|p| (p.query, p.item));
    pairs
}

/// Groups candidate pairs by query concept — the per-anchor candidate
/// lists used by top-down inference, each sorted by clicks descending,
/// then item id ascending.
pub fn candidates_by_query(pairs: &[CandidatePair]) -> HashMap<ConceptId, Vec<CandidatePair>> {
    let mut map: HashMap<ConceptId, Vec<CandidatePair>> = HashMap::new();
    for &p in pairs {
        map.entry(p.query).or_default().push(p);
    }
    for v in map.values_mut() {
        v.sort_by(candidate_order);
    }
    map
}

/// The order of one query's candidate list: most clicks first, then
/// ascending item id.
pub(crate) fn candidate_order(a: &CandidatePair, b: &CandidatePair) -> std::cmp::Ordering {
    b.clicks.cmp(&a.clicks).then(a.item.cmp(&b.item))
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxo_synth::{ClickConfig, ClickLog, World, WorldConfig};

    fn setup() -> (World, ConstructionResult) {
        let world = World::generate(&WorldConfig::tiny(11));
        let log = ClickLog::generate(&world, &ClickConfig::tiny(11));
        let result = construct_graph(
            &world.existing,
            &world.vocab,
            &log.records,
            WeightScheme::IfIqf,
        );
        (world, result)
    }

    #[test]
    fn pairs_are_deduplicated_and_sorted() {
        let (_, result) = setup();
        assert!(!result.pairs.is_empty());
        for w in result.pairs.windows(2) {
            assert!((w[0].query, w[0].item) < (w[1].query, w[1].item));
        }
    }

    #[test]
    fn graph_contains_taxonomy_and_click_edges() {
        let (world, result) = setup();
        let taxo_edges = result
            .graph
            .edges()
            .iter()
            .filter(|e| e.kind == taxo_graph::EdgeType::Taxonomy)
            .count();
        assert_eq!(taxo_edges, world.existing.edge_count());
        assert_eq!(result.graph.click_edges().count(), result.pairs.len());
    }

    #[test]
    fn stats_are_internally_consistent() {
        let (world, result) = setup();
        let s = &result.stats;
        assert!(s.n_items > 0);
        assert!(s.n_nodes_covered <= world.existing.node_count());
        assert!(s.c_node <= 100.0 && s.c_node > 0.0);
        assert!(s.n_edges_covered <= world.existing.edge_count());
        assert!(s.n_iothers > 0, "some items mention no concept");
        // Every processed event is classified somewhere.
        assert!(s.n_iedge + s.n_inew_edge + s.n_iothers <= s.n_items);
    }

    #[test]
    fn queries_outside_existing_taxonomy_are_ignored() {
        let (world, result) = setup();
        for p in &result.pairs {
            assert!(world.existing.contains_node(p.query));
        }
    }

    #[test]
    fn new_concepts_are_detected() {
        let (world, result) = setup();
        // The withheld concepts should surface through clicked items.
        assert!(
            result.stats.n_new_concepts > 0,
            "expected new concepts among clicks"
        );
        for p in &result.pairs {
            if !world.existing.contains_node(p.item) {
                assert!(world.vocab.name(p.item).len() > 1);
            }
        }
    }

    #[test]
    fn candidates_by_query_sorted_by_clicks() {
        let (_, result) = setup();
        let by_query = candidates_by_query(&result.pairs);
        for list in by_query.values() {
            for w in list.windows(2) {
                assert!(w[0].clicks >= w[1].clicks);
            }
        }
        let total: usize = by_query.values().map(|v| v.len()).sum();
        assert_eq!(total, result.pairs.len());
    }
}
