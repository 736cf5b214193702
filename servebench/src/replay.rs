//! The traced in-process replay: the workload's seeded request stream
//! sent through each layer's public functions, one span per call, plus
//! timed probes of the WAL (ingest-mix) and the ring (routed), each on
//! the one workload whose traffic uses that layer.
//!
//! The replay walks the server's request path with the same cache
//! capacities as the workload's server: parse → response cache → (on a
//! miss) eligible → score cache → `score_batch` → rank → render. The
//! kernel call inside `score_batch` is not reachable from outside, so
//! the replay repeats it on the same missed pairs as a sibling span
//! (`batch_scorer.kernel`); `batch.self_us` is the `score_batch` span
//! minus that kernel time.

use crate::stats::Samples;
use crate::trace::{self_times, Span, Tracer};
use crate::wire::PlannedQuery;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use taxo_core::{ConceptId, Vocabulary};
use taxo_expand::{BatchScorer, IncrementalExpander, ScratchPool};
use taxo_serve::protocol::{parse_request, score_response_tail, splice_response};
use taxo_serve::{
    ResponseCache, ScoreCache, ScoreJob, ScoreSink, ServeConfig, ServeSnapshot, Tier,
};
use taxo_synth::ClickRecord;

pub struct ReplayInput<'a> {
    pub snapshot: Arc<ServeSnapshot>,
    pub expander: IncrementalExpander,
    pub queries: &'a [ConceptId],
    pub plan: &'a [PlannedQuery],
    /// Query indices in send order.
    pub stream: &'a [usize],
    /// Queries per client burst (1 = single requests).
    pub burst: usize,
    /// Shard owning each query (routed), for per-burst in-process time.
    pub owner: Option<Vec<u32>>,
    pub score_cache_cap: usize,
    pub resp_cache_cap: usize,
    /// Ingest batches, as click records and as wire records.
    pub ingest: &'a [Vec<ClickRecord>],
    pub wire_batches: &'a [Vec<(String, String, u64)>],
    /// Score requests replayed between two ingest batches, and the
    /// directory of the WAL probe (ingest-mix only).
    pub ingest_every: Option<(usize, &'a Path)>,
    pub budget: Duration,
}

#[derive(Default)]
pub struct ReplayOut {
    pub requests: usize,
    pub parse: Samples,
    pub render: Samples,
    pub resp_get: Samples,
    pub eligible: Samples,
    pub rank: Samples,
    pub batch_self: Samples,
    pub kernel_ns: u64,
    pub kernel_pairs: u64,
    /// In-process time per client call (request, or burst: the slowest
    /// shard's share of it), ns.
    pub in_process: Samples,
    pub wal_append: Samples,
    pub wal_sync: Samples,
    pub ring_ns: f64,
    pub spans: Vec<Span>,
}

/// WAL append+sync pairs timed by the probe.
const WAL_PROBE_OPS: usize = 40;

pub fn replay(input: ReplayInput<'_>, origin: Instant) -> ReplayOut {
    let ReplayInput {
        snapshot,
        mut expander,
        queries,
        plan,
        stream,
        burst,
        owner,
        score_cache_cap,
        resp_cache_cap,
        ingest,
        wire_batches,
        ingest_every,
        budget,
    } = input;
    let cfg = ServeConfig::default();
    let (cap, k) = (cfg.max_candidates, cfg.default_k);
    let resp = ResponseCache::new(resp_cache_cap);
    let scache = ScoreCache::new(score_cache_cap);
    let pool = ScratchPool::new();
    let mut kernel = BatchScorer::new();
    let mut tracer = Tracer::new(origin);
    let mut out = ReplayOut::default();
    let mut snap = snapshot;
    let mut next_ingest = 0usize;
    let deadline = Instant::now() + budget;

    let mut line = String::new();
    let mut request_roots: Vec<usize> = Vec::new();
    for (r, &q) in stream.iter().enumerate() {
        if r % 64 == 0 && Instant::now() >= deadline {
            break;
        }
        if let Some((every, _)) = ingest_every {
            if r > 0 && r % every.max(1) == 0 && next_ingest < ingest.len() {
                snap = ingest_one(&mut tracer, &mut expander, &snap, &ingest[next_ingest]);
                next_ingest += 1;
            }
        }
        let req = r as u64 + 1;
        let qid = queries[q];
        let root = tracer.enter("replay.request", req);
        request_roots.push(root);
        line.clear();
        plan[q].render(req, &mut line);
        let parsed = tracer.span("protocol.parse", req, || parse_request(line.trim_end()));
        debug_assert!(parsed.is_ok());
        let rkey = (snap.version, Tier::F32, qid, k as u64);
        let hit = tracer.span("cache.resp_get", req, || resp.get(&rkey));
        if let Some(tail) = hit {
            let response =
                tracer.span("protocol.render", req, || splice_response(Some(req), &tail));
            std::hint::black_box(response);
            tracer.exit(root);
            continue;
        }
        let items = tracer.span("snapshot.eligible", req, || snap.eligible(qid, cap));
        let (mut scores, missing) = tracer.span("cache.score_get", req, || {
            let mut scores = Vec::with_capacity(items.len());
            let mut missing = Vec::new();
            for &item in &items {
                match scache.get(&(snap.version, Tier::F32, qid, item)) {
                    Some(s) => scores.push(s),
                    None => missing.push((qid, item)),
                }
            }
            (scores, missing)
        });
        if !missing.is_empty() {
            let batch = tracer.enter("batch.score_batch", req);
            let (sink, rx) = ScoreSink::channel();
            let job = ScoreJob {
                snapshot: Arc::clone(&snap),
                tier: Tier::F32,
                query: qid,
                items: items.clone(),
                reply: sink,
            };
            taxo_serve::batch::score_batch(vec![job], &pool, &scache);
            scores = rx.recv().expect("score_batch replies before returning");
            tracer.exit(batch);
            let batch_dur = tracer.spans[batch].dur();
            let kspan = tracer.enter("batch_scorer.kernel", req);
            let mut fresh = Vec::with_capacity(missing.len());
            let feats = |p: usize, row: &mut [f32]| {
                let (qq, ii) = missing[p];
                if let Some(src) = snap.structural_row(qq, ii) {
                    row.copy_from_slice(src);
                }
            };
            kernel.score_with_features_into(
                snap.detector.as_ref(),
                &snap.vocab,
                &missing,
                feats,
                &mut fresh,
            );
            tracer.exit(kspan);
            let kdur = tracer.spans[kspan].dur();
            out.kernel_ns += kdur;
            out.kernel_pairs += missing.len() as u64;
            out.batch_self.push(batch_dur.saturating_sub(kdur));
            std::hint::black_box(fresh);
        }
        let ranked = tracer.span("snapshot.rank", req, || snap.rank(qid, &items, &scores, k));
        let (response, tail) = tracer.span("protocol.render", req, || {
            let tail =
                score_response_tail(&plan[q].name, snap.version, Tier::F32, &snap.vocab, &ranked);
            (splice_response(Some(req), &tail), tail)
        });
        std::hint::black_box(response);
        resp.insert(rkey, tail.into());
        tracer.exit(root);
    }
    out.requests = request_roots.len();

    // Layer medians and per-call in-process time from the spans.
    let selfs = self_times(&tracer.spans);
    let mut per_request: Vec<u64> = vec![0; out.requests];
    for (i, s) in tracer.spans.iter().enumerate() {
        let sample = match s.name {
            "protocol.parse" => &mut out.parse,
            "protocol.render" => &mut out.render,
            "cache.resp_get" => &mut out.resp_get,
            "snapshot.eligible" => &mut out.eligible,
            "snapshot.rank" => &mut out.rank,
            _ => {
                // Every other layer span still counts toward the
                // request's in-process time, except the repeated kernel.
                if s.parent.is_some() && s.name != "batch_scorer.kernel" {
                    per_request[(s.req - 1) as usize] += selfs[i];
                }
                continue;
            }
        };
        sample.push(s.dur());
        if s.parent.is_some() {
            per_request[(s.req - 1) as usize] += selfs[i];
        }
    }
    for chunk in per_request
        .chunks(burst.max(1))
        .zip(stream.chunks(burst.max(1)))
    {
        let (times, qs) = chunk;
        if times.len() < burst.max(1) {
            break;
        }
        let call_ns = match &owner {
            // Shards work in parallel: a burst waits for its slowest one.
            Some(owner) => {
                let mut by_shard = [0u64; 2];
                for (&t, &q) in times.iter().zip(qs) {
                    by_shard[(owner[q] as usize).min(1)] += t;
                }
                by_shard[0].max(by_shard[1])
            }
            None => times.iter().sum(),
        };
        out.in_process.push(call_ns);
    }

    if let Some((_, wal_dir)) = ingest_every {
        wal_probe(&mut tracer, wal_dir, wire_batches, &mut out);
    }
    if owner.is_some() {
        out.ring_ns = ring_probe(plan, stream);
    }
    out.spans = tracer.spans;
    out
}

/// Applies one ingest batch and builds the next snapshot, as the
/// server's ingest thread does.
fn ingest_one(
    tracer: &mut Tracer,
    expander: &mut IncrementalExpander,
    snap: &Arc<ServeSnapshot>,
    records: &[ClickRecord],
) -> Arc<ServeSnapshot> {
    let vocab: &Arc<Vocabulary> = &snap.vocab;
    let req = u64::MAX - snap.version;
    tracer.span("incremental.ingest", req, || {
        expander.ingest(vocab, records)
    });
    tracer.span("snapshot.build", req, || {
        Arc::new(ServeSnapshot::build_with_quant(
            snap.version + 1,
            Arc::clone(vocab),
            Arc::clone(&snap.detector),
            Arc::clone(&snap.quant),
            expander.taxonomy().clone(),
            &expander.candidate_pairs(),
        ))
    })
}

/// Times `WalWriter` appends and syncs of the workload's ingest payloads
/// on a fresh log in the run directory.
fn wal_probe(
    tracer: &mut Tracer,
    dir: &Path,
    batches: &[Vec<(String, String, u64)>],
    out: &mut ReplayOut,
) {
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join("probe.wal");
    let Ok(mut wal) = taxo_wal::WalWriter::open(&path) else {
        return;
    };
    for (j, batch) in batches.iter().cycle().take(WAL_PROBE_OPS).enumerate() {
        let records: Vec<taxo_serve::IngestRecord> = batch
            .iter()
            .map(|(query, item, count)| taxo_serve::IngestRecord {
                query: query.clone(),
                item: item.clone(),
                count: *count,
            })
            .collect();
        let payload = taxo_serve::durable::encode_ingest_op(j as u64 + 1, &records);
        let req = j as u64 + 1;
        let a = tracer.enter("wal.append", req);
        let appended = wal.append(payload.as_bytes());
        tracer.exit(a);
        let s = tracer.enter("wal.sync", req);
        let synced = wal.sync();
        tracer.exit(s);
        if appended.is_err() || synced.is_err() {
            break;
        }
        out.wal_append.push(tracer.spans[a].dur());
        out.wal_sync.push(tracer.spans[s].dur());
    }
    let _ = std::fs::remove_file(&path);
}

/// `HashRing::shard_for` cost per call over the stream's query names,
/// on the ring a default router builds over two shards.
fn ring_probe(plan: &[PlannedQuery], stream: &[usize]) -> f64 {
    let cfg = taxo_router::RouterConfig::default();
    let ring = taxo_router::HashRing::new(2, cfg.vnodes, cfg.ring_seed);
    let names: Vec<&str> = stream
        .iter()
        .take(4096)
        .map(|&q| plan[q].name.as_str())
        .collect();
    if names.is_empty() {
        return 0.0;
    }
    let mut per_call = Samples::new();
    for _ in 0..32 {
        let t = Instant::now();
        let mut acc = 0u32;
        for name in &names {
            acc = acc.wrapping_add(ring.shard_for(name));
        }
        std::hint::black_box(acc);
        per_call.push(t.elapsed().as_nanos() as u64 * 1000 / names.len() as u64);
    }
    per_call.quantile(0.5).unwrap_or(0) as f64 / 1000.0
}
