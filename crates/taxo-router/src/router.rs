//! The router tier: accepts client connections on the same wire
//! protocol as `taxo-serve` and routes each request to the shard that
//! owns it.
//!
//! Thread layout (all plain `std::thread`): client connections are
//! served by `taxo-serve`'s connection reactor, the one the shards run,
//! with this module's route handlers as its [`Service`].
//!
//! ```text
//! acceptor ──► reactor 0..7   (round-robin; epoll over client connections,
//!                │             route handlers inline; each owns one lazy
//!                ▼             blocking connection per shard)
//!         shard 0 … shard M   (taxo-serve processes)
//! ```
//!
//! A client burst is read, fanned out, drained and answered on the
//! reactor thread that owns its connection: no queue sits between a
//! reactor thread and its upstreams. A connection placed on a thread
//! that is busy with a slow burst waits for that burst.
//!
//! **Routing.** `score` routes by the query (parent-concept) term
//! through the [`HashRing`]; `ingest` partitions its records the same
//! way. `health`, `stats`, and multi-shard score bursts fan out and
//! merge. Responses a shard renders are forwarded byte-for-byte — the
//! router never re-renders a score, so the end-to-end bit-identity
//! contract survives the extra tier.
//!
//! **Score bursts.** Each epoch-stamped score line is written straight
//! into its shard's frame with `protocol::push_score_request`, in the
//! canonical shape that the shard's `parse_request` reads in one scan.
//! Every shard is sent its frame, then the shards are drained one after
//! another with blocking [`Upstream::recv`] calls; the shards work in
//! parallel meanwhile, so a burst costs its slowest shard. A response
//! is checked for `stale_epoch` only when its head reads `"ok":false`.
//!
//! **Consistency.** Every forwarded `score` is stamped with the
//! [`VectorStore`] entry the router read for the owning shard; shards
//! reject mismatches with `stale_epoch`. A burst is answered entirely
//! from one vector read — any stale rejection or transport failure
//! discards the attempt and retries the whole burst — so no client
//! write ever mixes epochs. Multi-shard ingest runs as a two-phase
//! swap under the vector's swap lock: every shard prepares (durable,
//! unpublished), then every shard commits, then the vector advances in
//! one atomic publication.

use crate::ring::HashRing;
use crate::upstream::Upstream;
use crate::vector::VectorStore;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use taxo_core::json::{self, ObjWriter, Value};
use taxo_core::TaxoError;
use taxo_obs::counter;
use taxo_serve::protocol::{self, IngestPhase, IngestRecord, Request, Tier};
use taxo_serve::reactor::{self, Burst, Service, ShutdownSignal};

/// Reactor threads serving client connections; each owns one connection
/// per shard.
const THREADS: usize = 8;

/// Close a client connection after this long without a received byte,
/// as `taxo-serve` does by default.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Router sizing and behaviour knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Virtual nodes per shard on the consistent-hash ring.
    pub vnodes: usize,
    /// Ring placement seed — every router over the same shard list must
    /// use the same seed.
    pub ring_seed: u64,
    /// Transport retries per burst before giving up with `busy`.
    pub shard_retries: usize,
    /// Read timeout on shard connections; an expiry counts as a
    /// transport failure (drop, reconnect, retry).
    pub upstream_read_timeout: Duration,
    /// Whether a client `shutdown` is forwarded to every shard before
    /// the router itself shuts down.
    pub forward_shutdown: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            vnodes: 64,
            ring_seed: 0x7461_786f_2d72_6f75, // "taxo-rou"
            shard_retries: 3,
            upstream_read_timeout: Duration::from_secs(5),
            forward_shutdown: true,
        }
    }
}

impl RouterConfig {
    /// Field-named validation, surfaced by [`RouterBuilder::bind`].
    pub fn validate(&self) -> Result<(), TaxoError> {
        if self.vnodes == 0 {
            return Err(TaxoError::invalid_config(
                "router.vnodes",
                "must be at least 1",
            ));
        }
        if self.upstream_read_timeout.is_zero() {
            return Err(TaxoError::invalid_config(
                "router.upstream_read_timeout",
                "must be non-zero",
            ));
        }
        Ok(())
    }
}

/// Errors starting a router.
#[derive(Debug)]
pub enum RouterError {
    /// A configuration field failed validation.
    Config(TaxoError),
    /// Binding the listener, starting the reactor, or probing a shard
    /// failed.
    Io(std::io::Error),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Config(e) => write!(f, "{e}"),
            RouterError::Io(e) => write!(f, "router io error: {e}"),
        }
    }
}

impl std::error::Error for RouterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RouterError::Config(e) => Some(e),
            RouterError::Io(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for RouterError {
    fn from(e: std::io::Error) -> Self {
        RouterError::Io(e)
    }
}

impl From<TaxoError> for RouterError {
    fn from(e: TaxoError) -> Self {
        RouterError::Config(e)
    }
}

struct RouterShared {
    cfg: RouterConfig,
    shards: Vec<SocketAddr>,
    ring: HashRing,
    vector: VectorStore,
    shutdown: ShutdownSignal,
}

impl RouterShared {
    fn begin_shutdown(&self) {
        self.shutdown.set();
    }
}

impl Service for RouterShared {
    type Local = Vec<Upstream>;
    type Pending = Infallible;
    type Payload = Infallible;

    /// One lazy connection per shard, reused across every client
    /// connection this reactor thread serves.
    fn local(&self) -> Vec<Upstream> {
        self.shards
            .iter()
            .map(|&addr| Upstream::new(addr, self.cfg.upstream_read_timeout))
            .collect()
    }

    fn dispatch(&self, ups: &mut Vec<Upstream>, lines: &[String], burst: &mut Burst<'_, Self>) {
        handle_burst(lines, self, ups, burst);
    }

    fn render(&self, pending: Infallible, _: Option<Infallible>) -> String {
        match pending {}
    }

    fn shutdown_signal(&self) -> &ShutdownSignal {
        &self.shutdown
    }

    fn idle_timeout(&self) -> Duration {
        IDLE_TIMEOUT
    }
}

/// Handle to a running router. Dropping it does **not** stop the
/// router; call [`RouterHandle::shutdown_and_join`] (or send a
/// `shutdown` request).
pub struct RouterHandle {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    threads: Vec<JoinHandle<()>>,
}

impl RouterHandle {
    /// The address the listener actually bound (resolves `:0` ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current version vector (one coherent publication).
    pub fn vector(&self) -> Arc<Vec<u64>> {
        self.shared.vector.read()
    }

    /// The ring, for tests that mirror the router's partitioning.
    pub fn ring(&self) -> &HashRing {
        &self.shared.ring
    }

    /// Begins graceful shutdown (does not contact the shards).
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until every router thread has exited.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// [`RouterHandle::shutdown`] then [`RouterHandle::join`].
    pub fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }
}

/// The router entry point.
pub struct Router;

impl Router {
    /// Starts a validating builder for a router over `shards` (in shard
    /// id order: shard `i` of the ring is `shards[i]`).
    pub fn builder(shards: Vec<SocketAddr>) -> RouterBuilder {
        RouterBuilder {
            shards,
            cfg: RouterConfig::default(),
        }
    }
}

/// Validating builder for a router; construct via [`Router::builder`].
pub struct RouterBuilder {
    shards: Vec<SocketAddr>,
    cfg: RouterConfig,
}

impl RouterBuilder {
    /// Replaces the configuration (validated at bind).
    pub fn config(mut self, cfg: RouterConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Binds the listener, probes every shard's `health` to seed the
    /// version vector (a dead shard fails the bind — start shards
    /// first), and starts the acceptor and reactor threads.
    pub fn bind(self, addr: impl ToSocketAddrs) -> Result<RouterHandle, RouterError> {
        let RouterBuilder { shards, cfg } = self;
        cfg.validate()?;
        if shards.is_empty() {
            return Err(RouterError::Config(TaxoError::invalid_config(
                "router.shards",
                "must name at least one shard",
            )));
        }
        taxo_fault::arm_from_env();
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;

        // Seed the vector from each shard's live version. Probing also
        // fails fast on an unreachable or misconfigured shard.
        let mut initial = Vec::with_capacity(shards.len());
        for &shard in &shards {
            let mut up = Upstream::new(shard, cfg.upstream_read_timeout);
            let line = up.call(&plain_line("health")).map_err(|e| {
                RouterError::Io(std::io::Error::new(
                    e.kind(),
                    format!("shard {shard} health probe failed: {e}"),
                ))
            })?;
            let version = ok_version(&line).ok_or_else(|| {
                RouterError::Io(std::io::Error::new(
                    ErrorKind::InvalidData,
                    format!("shard {shard} health probe returned {line:?}"),
                ))
            })?;
            initial.push(version);
        }

        let ring = HashRing::new(shards.len(), cfg.vnodes, cfg.ring_seed);
        let shared = Arc::new(RouterShared {
            vector: VectorStore::new(initial),
            ring,
            shards,
            shutdown: ShutdownSignal::new()?,
            cfg,
        });
        let threads = reactor::spawn("router", listener, THREADS, &shared)?;

        Ok(RouterHandle {
            addr,
            shared,
            threads,
        })
    }
}

/// One parsed request line of a burst.
enum Slot {
    /// Response already determined locally (parse failure).
    Ready(String),
    /// A score to route; consecutive runs are fanned out together.
    Score(ScoreItem),
    /// Anything else, handled one at a time.
    Other(Request),
}

struct ScoreItem {
    id: Option<u64>,
    query: String,
    k: Option<usize>,
    tier: Option<Tier>,
}

/// Answers every line of one client burst, in order. A run of
/// consecutive scores is routed together, so a pipelined client frame
/// fans out to the shards as pipelined per-shard frames.
fn handle_burst(
    lines: &[String],
    shared: &RouterShared,
    ups: &mut [Upstream],
    burst: &mut Burst<'_, RouterShared>,
) {
    let mut slots = lines
        .iter()
        .map(|line| match protocol::parse_request(line) {
            // The router owns epoch stamping: a client-supplied epoch is
            // discarded and replaced with the vector entry read here.
            Ok(Request::Score {
                id, query, k, tier, ..
            }) => Slot::Score(ScoreItem { id, query, k, tier }),
            Ok(req) => Slot::Other(req),
            Err(e) => {
                counter!("serve.errors.bad_request").inc();
                Slot::Ready(protocol::error_response(None, "bad_request", Some(&e)))
            }
        })
        .peekable();
    while let Some(slot) = slots.next() {
        if !burst.open() {
            break;
        }
        match slot {
            Slot::Ready(resp) => burst.ready(resp),
            Slot::Score(item) => {
                let mut items = vec![item];
                while let Some(Slot::Score(item)) = slots.next_if(|s| matches!(s, Slot::Score(_))) {
                    items.push(item);
                }
                for resp in route_scores(&items, shared, ups) {
                    burst.ready(resp);
                }
            }
            Slot::Other(req) => {
                let (resp, close) = route_other(&req, shared, ups);
                burst.ready(resp);
                if close {
                    burst.close();
                }
            }
        }
    }
}

fn plain_line(kind: &str) -> String {
    let mut w = ObjWriter::new();
    w.str("kind", kind);
    w.finish()
}

fn kind_line(kind: &str, id: Option<u64>) -> String {
    let mut w = ObjWriter::new();
    w.str("kind", kind);
    protocol::write_id(&mut w, id);
    w.finish()
}

/// A JSON array of versions.
fn version_array(versions: impl Iterator<Item = u64>) -> String {
    json::encode(&Value::Arr(
        versions.map(|v| Value::Num(v.to_string())).collect(),
    ))
}

/// Parses a line into its JSON value if it is an `ok:true` response.
fn parse_ok(line: &str) -> Option<Value> {
    json::parse(line)
        .ok()
        .filter(|v| v.get("ok") == Some(&Value::Bool(true)))
}

/// The `version` of an `ok:true` response.
fn ok_version(line: &str) -> Option<u64> {
    parse_ok(line).and_then(|v| v.get("version").and_then(Value::as_u64))
}

/// Whether a shard refused a request with `prepare_pending`: it holds a
/// prepared snapshot that an earlier two-phase ingest never committed.
fn prepare_pending(line: &str) -> bool {
    json::parse(line)
        .is_ok_and(|v| v.get("error").and_then(Value::as_str) == Some("prepare_pending"))
}

/// The current version a shard reports in a `stale_epoch` rejection.
/// Every shard response opens with `{"id":…,"ok":`, and the id is an
/// integer or `null`, so the head tells an error from a score without
/// reading the candidates; only errors are parsed.
fn stale_version(line: &str) -> Option<u64> {
    let after_id = line.strip_prefix("{\"id\":")?;
    let head = &after_id[after_id.find(',')?..];
    if !head.starts_with(",\"ok\":false,") {
        return None;
    }
    let v = json::parse(line).ok()?;
    if v.get("error").and_then(Value::as_str) != Some("stale_epoch") {
        return None;
    }
    v.get("version").and_then(Value::as_u64)
}

/// Routes one run of consecutive score requests. Every response the
/// client sees comes from a single attempt against a single vector
/// read: a stale-epoch rejection or transport failure anywhere discards
/// the whole attempt, so one burst can never mix epochs.
fn route_scores(items: &[ScoreItem], shared: &RouterShared, ups: &mut [Upstream]) -> Vec<String> {
    let mut transport_budget = shared.cfg.shard_retries;
    // Stale retries resolve by waiting out the in-flight swap; a small
    // bound only guards against a pathological commit storm.
    let mut stale_budget = 8usize;
    loop {
        let vector = shared.vector.read();
        let mut groups: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (i, item) in items.iter().enumerate() {
            groups
                .entry(shared.ring.shard_for(&item.query))
                .or_default()
                .push(i);
        }
        let multi = groups.len() > 1;
        if multi {
            counter!("serve.router.fanout").inc();
        }
        // Send every shard its frame before reading any response, so the
        // shards overlap their work during a fan-out. Draining them one
        // after another then costs the slowest shard, not the sum: the
        // others' responses wait in their socket buffers meanwhile.
        let mut failure = false;
        let mut frame = String::new();
        for (&shard, idxs) in &groups {
            frame.clear();
            for &i in idxs {
                let item = &items[i];
                let epoch = Some(vector[shard as usize]);
                protocol::push_score_request(
                    &mut frame,
                    item.id,
                    &item.query,
                    item.k,
                    item.tier,
                    epoch,
                );
                frame.push('\n');
            }
            if ups[shard as usize].send(&frame).is_err() {
                failure = true;
                break;
            }
        }
        let mut replies: Vec<Option<String>> = vec![None; items.len()];
        if !failure {
            for (&shard, idxs) in &groups {
                match ups[shard as usize].recv(idxs.len()) {
                    Ok(lines) => {
                        for (&i, line) in idxs.iter().zip(lines) {
                            replies[i] = Some(line);
                        }
                    }
                    Err(_) => {
                        failure = true;
                        break;
                    }
                }
            }
        }
        if failure {
            // Any shard of the group may still owe responses from this
            // attempt; reset them all so no orphan can desynchronize
            // the retry.
            for &shard in groups.keys() {
                ups[shard as usize].reset();
            }
            if transport_budget == 0 {
                // `busy` is what retrying clients already understand.
                return items
                    .iter()
                    .map(|it| protocol::error_response(it.id, "busy", Some("shard unavailable")))
                    .collect();
            }
            transport_budget -= 1;
            counter!("serve.router.shard_retries").inc();
            continue;
        }
        let mut stale: Vec<(usize, u64)> = Vec::new();
        for (&shard, idxs) in &groups {
            for &i in idxs {
                let line = replies[i].as_deref().expect("filled above");
                if let Some(cur) = stale_version(line) {
                    stale.push((shard as usize, cur));
                }
            }
        }
        if !stale.is_empty() {
            counter!("serve.router.stale_epoch").add(stale.len() as u64);
            if stale_budget == 0 {
                return items
                    .iter()
                    .map(|it| protocol::error_response(it.id, "busy", Some("epoch churn")))
                    .collect();
            }
            stale_budget -= 1;
            {
                // Wait out any in-flight coordinated swap, then adopt
                // the rejecting shards' current versions.
                let _g = shared.vector.swap_guard();
                shared.vector.publish(&stale);
            }
            continue;
        }
        counter!("serve.router.routed").add(items.len() as u64);
        if multi {
            counter!("serve.router.merged").inc();
        }
        return replies
            .into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect();
    }
}

/// Routes one non-score request; returns the response and whether the
/// connection closes afterwards.
fn route_other(req: &Request, shared: &RouterShared, ups: &mut [Upstream]) -> (String, bool) {
    match req {
        Request::Ingest { id, records, phase } => {
            if *phase != IngestPhase::Auto {
                // Phases are the router↔shard coordination protocol;
                // accepting one from a client would corrupt the swap
                // discipline.
                return (
                    protocol::error_response(
                        *id,
                        "bad_request",
                        Some("ingest phase is router-managed"),
                    ),
                    false,
                );
            }
            (route_ingest(*id, records, shared, ups), false)
        }
        Request::Health { id } => (fanout_health(*id, shared, ups), false),
        Request::Stats { id } => (fanout_stats(*id, ups), false),
        Request::Shutdown { id } => {
            if shared.cfg.forward_shutdown {
                for up in ups.iter_mut() {
                    let _ = up.call(&kind_line("shutdown", *id));
                }
            }
            shared.begin_shutdown();
            (protocol::shutdown_response(*id), true)
        }
        Request::Score { .. } => unreachable!("scores are routed in runs"),
    }
}

/// One shard's partition of an ingest, as its `phase` line.
fn partition_line(id: Option<u64>, phase: IngestPhase, records: &[&IngestRecord]) -> String {
    let records: Vec<_> = records
        .iter()
        .map(|r| (r.query.as_str(), r.item.as_str(), r.count))
        .collect();
    protocol::ingest_request(id, phase, &records)
}

/// Routes one ingest. Records partition by owning shard; a single-shard
/// batch forwards as-is, a multi-shard batch runs the two-phase
/// coordinated swap. Either way the vector's swap lock serializes all
/// version movement through this router.
fn route_ingest(
    id: Option<u64>,
    records: &[IngestRecord],
    shared: &RouterShared,
    ups: &mut [Upstream],
) -> String {
    let _swap = shared.vector.swap_guard();
    let mut parts: BTreeMap<u32, Vec<&IngestRecord>> = BTreeMap::new();
    for r in records {
        parts
            .entry(shared.ring.shard_for(&r.query))
            .or_default()
            .push(r);
    }
    if parts.len() <= 1 {
        // Single-phase: one shard applies and publishes on its own. An
        // empty batch still goes somewhere (shard 0) so the client gets
        // the version bump it asked for.
        let (shard, recs) = parts.into_iter().next().unwrap_or_else(|| (0, Vec::new()));
        counter!("serve.router.routed").inc();
        let line = partition_line(id, IngestPhase::Auto, &recs);
        // Pre-flight: a failed health ping resets a stale connection (a
        // restarted shard, an idle drop) so the non-retryable ingest
        // below starts on a fresh one instead of dying on the reset.
        let up = &mut ups[shard as usize];
        if up.call(&plain_line("health")).is_err() {
            counter!("serve.router.shard_retries").inc();
        }
        let mut reply = up.call(&line);
        if reply.as_deref().is_ok_and(prepare_pending) {
            // A prepare an earlier swap left uncommitted: commit it as
            // `prepare_shard` does (acked history is a prefix of it),
            // adopt its version, and resend the batch once. The refused
            // batch consumed no version, so it cannot apply twice.
            let commit = protocol::ingest_request::<&str>(id, IngestPhase::Commit, &[]);
            if let Some(version) = up.call(&commit).ok().as_deref().and_then(ok_version) {
                shared.vector.update_if_newer(shard as usize, version);
            }
            reply = up.call(&line);
        }
        return match reply {
            Ok(reply) => {
                if let Some(version) = ok_version(&reply) {
                    shared.vector.update_if_newer(shard as usize, version);
                }
                reply
            }
            // Non-`busy` error: the outcome is ambiguous (the shard may
            // have applied), so the client must not blindly retry. A
            // stale vector entry self-heals through the stale_epoch
            // refresh path once the shard is reachable again.
            Err(e) => protocol::error_response(
                id,
                "upstream",
                Some(&format!(
                    "shard {} unreachable: {e}",
                    shared.shards[shard as usize]
                )),
            ),
        };
    }

    counter!("serve.router.fanout").inc();
    // Phase 1: every shard prepares — applies, makes the batch durable,
    // builds its next snapshot, publishes nothing.
    let mut prepared: Vec<(u32, u64, Value)> = Vec::new();
    let mut committed: Vec<(usize, u64)> = Vec::new();
    let mut failed: Option<String> = None;
    for (&shard, recs) in &parts {
        let line = partition_line(id, IngestPhase::Prepare, recs);
        match prepare_shard(
            &mut ups[shard as usize],
            id,
            &line,
            shared.cfg.shard_retries,
        ) {
            Ok((version, v)) => prepared.push((shard, version, v)),
            Err(outcome) => {
                // A commit-probe may have resolved a lost-reply prepare
                // as actually committed; its version still belongs in
                // the vector publication.
                if let Some(version) = outcome.committed {
                    committed.push((shard as usize, version));
                }
                failed = Some(format!(
                    "shard {}: {}",
                    shared.shards[shard as usize], outcome.detail
                ));
                break;
            }
        }
    }
    // Phase 2: commit every successful prepare — even when a later
    // prepare failed. The partitions are independent evidence, and a
    // shard must never be left holding an unpublished snapshot (it
    // would refuse every future prepare).
    let mut commit_failed = false;
    for &(shard, version, _) in &prepared {
        if commit_shard(
            &mut ups[shard as usize],
            id,
            version,
            shared.cfg.shard_retries,
        ) {
            committed.push((shard as usize, version));
        } else {
            commit_failed = true;
        }
    }
    // One atomic vector publication for the whole swap: readers move
    // from the all-old vector to the all-new one in a single step.
    shared.vector.publish(&committed);
    if let Some(detail) = failed {
        return protocol::error_response(id, "partial_ingest", Some(&detail));
    }
    if commit_failed {
        return protocol::error_response(
            id,
            "partial_ingest",
            Some("a shard's commit could not be confirmed"),
        );
    }
    counter!("serve.router.merged").inc();

    // Merge the per-shard summaries: counts sum across disjoint
    // partitions; `version` is the vector maximum and `versions` lists
    // each shard's committed version in shard order.
    let sum = |field: &str| -> u64 {
        prepared
            .iter()
            .filter_map(|(_, _, v)| v.get(field).and_then(Value::as_u64))
            .sum()
    };
    let max_field = |field: &str| -> u64 {
        prepared
            .iter()
            .filter_map(|(_, _, v)| v.get(field).and_then(Value::as_u64))
            .max()
            .unwrap_or(0)
    };
    let versions = version_array(committed.iter().map(|&(_, version)| version));
    let mut w = ObjWriter::new();
    protocol::write_id(&mut w, id);
    w.bool("ok", true)
        .str("kind", "ingest")
        .u64("batch", max_field("batch"))
        .u64("matched", sum("matched"))
        .u64("skipped", sum("skipped"))
        .u64("attached", sum("attached"))
        .u64("known_pairs", sum("known_pairs"))
        .u64("total_relations", sum("total_relations"))
        .u64("version", max_field("version"))
        .u64("shards", committed.len() as u64)
        .raw("versions", &versions);
    w.finish()
}

/// Why a shard's prepare did not yield a pending snapshot.
struct PrepareFailure {
    detail: String,
    /// Set when the commit-probe resolved a lost-reply prepare as
    /// actually committed at this version.
    committed: Option<u64>,
}

/// Runs one shard's prepare, resolving the ways it can wedge or
/// stay ambiguous:
///
/// * **Lost reply** — the shard may have prepared (durably) without the
///   router learning its version. Left alone, the orphaned pending
///   snapshot would reject every future prepare. A commit-probe either
///   lands it (reported via `committed` so the vector can adopt it) or
///   answers `no_prepared` — proof the prepare never landed, which
///   makes resending it safe (the one transport failure that is *not*
///   ambiguous). A stale connection to a restarted shard resolves this
///   way on the first attempt.
/// * **Leftover pending** — a `prepare_pending` rejection from an
///   earlier wedge is cleared the same way (that batch was durably
///   prepared, so committing it is the correct resolution — acked
///   history is a prefix of it), then the prepare is retried.
fn prepare_shard(
    up: &mut Upstream,
    id: Option<u64>,
    line: &str,
    retries: usize,
) -> Result<(u64, Value), PrepareFailure> {
    let commit = protocol::ingest_request::<&str>(id, IngestPhase::Commit, &[]);
    for _ in 0..=retries {
        match up.call(line) {
            Ok(reply) => {
                if let Some((version, v)) = parse_ok(&reply).and_then(|v| {
                    v.get("version")
                        .and_then(Value::as_u64)
                        .map(|version| (version, v))
                }) {
                    return Ok((version, v));
                }
                if prepare_pending(&reply) {
                    let _ = up.call(&commit);
                    continue;
                }
                return Err(PrepareFailure {
                    detail: format!("refused prepare: {reply}"),
                    committed: None,
                });
            }
            Err(e) => {
                counter!("serve.router.shard_retries").inc();
                match up.call(&commit) {
                    Ok(reply) => {
                        if let Some(version) = ok_version(&reply) {
                            // The lost prepare had landed; the probe
                            // committed it.
                            return Err(PrepareFailure {
                                detail: format!("prepare failed: {e}"),
                                committed: Some(version),
                            });
                        }
                        // `no_prepared`: the prepare never reached the
                        // shard, so resending cannot double-apply.
                        continue;
                    }
                    Err(_) => {
                        return Err(PrepareFailure {
                            detail: format!("prepare failed: {e}"),
                            committed: None,
                        });
                    }
                }
            }
        }
    }
    Err(PrepareFailure {
        detail: "prepare retries exhausted".to_owned(),
        committed: None,
    })
}

/// Confirms one shard's commit, resolving ambiguity through its health
/// version: a lost commit acknowledgement and a commit that genuinely
/// landed are indistinguishable on the wire, but the shard's published
/// version answers which one happened.
fn commit_shard(up: &mut Upstream, id: Option<u64>, version: u64, retries: usize) -> bool {
    let commit = protocol::ingest_request::<&str>(id, IngestPhase::Commit, &[]);
    for attempt in 0..=retries {
        let outcome = up.call(&commit);
        match outcome {
            Ok(reply) => {
                if parse_ok(&reply).is_some() {
                    return true;
                }
                // `no_prepared` after a lost ack means an earlier send
                // landed; the health version settles it.
                if shard_version_at_least(up, version) {
                    return true;
                }
                return false;
            }
            Err(_) => {
                counter!("serve.router.shard_retries").inc();
                if shard_version_at_least(up, version) {
                    return true;
                }
                if attempt == retries {
                    return false;
                }
            }
        }
    }
    false
}

fn shard_version_at_least(up: &mut Upstream, version: u64) -> bool {
    match up.call(&plain_line("health")) {
        Ok(line) => ok_version(&line).is_some_and(|v| v >= version),
        Err(_) => false,
    }
}

/// Fans `health` out to every shard and merges: sizes sum, versions
/// surface as the vector, and status degrades pessimistically.
fn fanout_health(id: Option<u64>, shared: &RouterShared, ups: &mut [Upstream]) -> String {
    counter!("serve.router.fanout").inc();
    let mut nodes = 0u64;
    let mut edges = 0u64;
    let mut batches = 0u64;
    let mut draining = false;
    let mut degraded = false;
    let mut observed: Vec<(usize, u64)> = Vec::new();
    for (shard, up) in ups.iter_mut().enumerate() {
        match up
            .call(&plain_line("health"))
            .ok()
            .and_then(|l| parse_ok(&l))
        {
            Some(v) => {
                nodes += v.get("nodes").and_then(Value::as_u64).unwrap_or(0);
                edges += v.get("edges").and_then(Value::as_u64).unwrap_or(0);
                batches += v.get("batches").and_then(Value::as_u64).unwrap_or(0);
                if v.get("status").and_then(Value::as_str) == Some("draining") {
                    draining = true;
                }
                if let Some(version) = v.get("version").and_then(Value::as_u64) {
                    observed.push((shard, version));
                }
            }
            None => degraded = true,
        }
    }
    // Publish the observed versions only under the swap lock: a probe
    // racing a two-phase ingest may have observed a mid-swap version,
    // and publishing it immediately would leak a vector state the swap
    // never published (letting one burst mix epochs). Waiting out the
    // swap makes mid-swap observations harmless no-ops (monotonic max
    // against the swap's own publication).
    {
        let _g = shared.vector.swap_guard();
        shared.vector.publish(&observed);
    }
    let vector = shared.vector.read();
    let status = if degraded {
        "degraded"
    } else if draining || shared.is_shutdown() {
        "draining"
    } else {
        "serving"
    };
    counter!("serve.router.merged").inc();
    let mut w = ObjWriter::new();
    protocol::write_id(&mut w, id);
    w.bool("ok", true)
        .str("kind", "health")
        .str("status", status)
        .u64("version", vector.iter().copied().max().unwrap_or(0))
        .u64("nodes", nodes)
        .u64("edges", edges)
        .u64("batches", batches)
        .u64("shards", shared.shards.len() as u64)
        .raw("vector", &version_array(vector.iter().copied()));
    w.finish()
}

/// Fans `stats` out to every shard and merges each reply into the
/// router's own snapshot ([`taxo_obs::MetricsSnapshot::merge`]): gauges
/// sum too, since depths and offsets add meaningfully across shards.
/// `shards` counts the shards that answered.
fn fanout_stats(id: Option<u64>, ups: &mut [Upstream]) -> String {
    counter!("serve.router.fanout").inc();
    let mut merged = taxo_obs::snapshot();
    let mut reporting = 0u64;
    for up in ups.iter_mut() {
        let reply = up.call(&plain_line("stats")).ok();
        if let Some(shard) = reply.as_deref().and_then(protocol::parse_stats) {
            merged.merge(&shard);
            reporting += 1;
        }
    }
    counter!("serve.router.merged").inc();
    protocol::stats_response(id, Some(reporting), &merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_epoch_is_read_from_error_responses_only() {
        assert_eq!(
            stale_version(&protocol::stale_epoch_response(Some(3), 9)),
            Some(9)
        );
        assert_eq!(
            stale_version(&protocol::stale_epoch_response(None, 0)),
            Some(0)
        );
        assert_eq!(
            stale_version(&protocol::error_response(
                Some(3),
                "busy",
                Some("stale_epoch")
            )),
            None
        );
        // A score whose query names the error code is still a score.
        let score = r#"{"id":4,"ok":true,"kind":"score","query":"stale_epoch","tier":"f32","version":2,"candidates":[]}"#;
        assert_eq!(stale_version(score), None);
        assert_eq!(stale_version("not json"), None);
    }
}
