//! `taxo-sim` — the simulation harness of the serving stack's end-to-end
//! tests. Dev-only: no production crate or binary depends on it.
//!
//! * [`Fixture`]: the seeded world every suite serves — a 120-node
//!   world, a 4,000-event click log, a vanilla-relational detector, and a
//!   threshold-0.6 expander with the first half of the log ingested
//!   (version 0). The unseen half is the ingest traffic.
//! * [`Fleet`]: one server, or two shards behind a router, each volatile
//!   or WAL-backed. It holds the process-global fault/metrics lock
//!   while it lives, owns [`ScratchDir`]s that remove themselves, and
//!   runs the crash → [`Server::recover`] → rebind-the-same-address step.
//! * [`History`]: every client operation with its reply or transport
//!   failure, the version it was served at, and every ack.
//! * [`check`]: replays a history against [`Model`], the sequential
//!   model — one offline [`IncrementalExpander`] per shard applying that
//!   shard's partitions in version order, one [`ServeSnapshot`] per
//!   version — after Elle (Kingsbury & Alvaro, VLDB 2020). It asserts:
//!   every ok score response is bit-identical to the model at the version
//!   it names; a routed burst carries one version per shard and never
//!   straddles a coordinated swap; every recovery reaches each acked
//!   version and rebuilds the model's state exactly; ack versions are
//!   dense and unique per shard; each shard the fleet stopped published
//!   the model's last version; and, when nothing crashed, the score and
//!   ingest ledgers balance (accepted = completed, where an ingest or
//!   promotion completes applied or refused).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use taxo_core::json::Value;
use taxo_core::{ConceptId, Vocabulary};
use taxo_expand::{
    DetectorConfig, ExpanderState, ExpansionConfig, HypoDetector, IncrementalExpander,
    RelationalConfig, RelationalModel,
};
use taxo_router::{HashRing, Router, RouterConfig, RouterHandle};
use taxo_serve::{
    candidate_key, expected_key, protocol, Client, DurabilityConfig, FsyncPolicy, IngestPhase,
    RecoveryReport, Reply, ServeConfig, ServeError, ServeSnapshot, Server, ServerHandle, Tier,
};
use taxo_synth::{ClickConfig, ClickLog, ClickRecord, World, WorldConfig};

/// A score response's comparable content: `(term, score bits, attached)`
/// per candidate, in rank order.
pub type Key = Vec<(String, u32, bool)>;

/// Serializes fleets: fault plans and the metrics registry are
/// process-global.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The current value of one counter in the process-global registry.
pub fn counter(name: &str) -> u64 {
    taxo_obs::snapshot()
        .counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.value)
}

/// Sets its flag when dropped — also when an assertion unwinds — so
/// client loops polling the flag end and `thread::scope` can join them.
pub struct StopOnDrop<'a>(pub &'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// A fresh temporary directory, removed on drop — after a failed
/// assertion too.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(name: &str) -> ScratchDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "taxo-sim-{name}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// How [`Fixture::batches`] cuts the unseen half of the log.
#[derive(Debug, Clone, Copy)]
pub enum Split {
    /// Consecutive runs of records.
    Contiguous,
    /// Every n-th record, so each batch spans many queries — and both
    /// shards of a routed fleet.
    Stride,
}

/// The seeded serving world (see the crate docs).
pub struct Fixture {
    pub seed: u64,
    pub world: World,
    pub vocab: Arc<Vocabulary>,
    log: ClickLog,
    /// The untrained-but-real detector: scoring is pure and cheap, which
    /// is all bit-identity checking needs.
    pub detector: HypoDetector,
    pub expansion: ExpansionConfig,
    /// Every query with a candidate pair at version 0, ascending.
    pub candidates: Vec<ConceptId>,
    /// Those the version-0 snapshot can score under the default
    /// candidate cap.
    pub queries: Vec<ConceptId>,
    relational: RelationalModel,
    state: ExpanderState,
}

impl Fixture {
    pub fn new(seed: u64) -> Fixture {
        let world = World::generate(&WorldConfig {
            target_nodes: 120,
            ..WorldConfig::tiny(seed)
        });
        let log = ClickLog::generate(
            &world,
            &ClickConfig {
                n_events: 4_000,
                ..ClickConfig::tiny(seed)
            },
        );
        let relational = RelationalModel::vanilla(&world.vocab, &[], &RelationalConfig::tiny(seed));
        let detector =
            HypoDetector::new(Some(relational.clone()), None, &DetectorConfig::tiny(seed));
        let expansion = ExpansionConfig::builder()
            .threshold(0.6)
            .build()
            .expect("static config is valid");
        let mut expander =
            IncrementalExpander::new(detector.clone(), world.existing.clone(), expansion.clone());
        expander.ingest(&world.vocab, &log.records[..log.records.len() / 2]);
        let mut candidates: Vec<ConceptId> =
            expander.candidate_pairs().iter().map(|p| p.query).collect();
        candidates.sort_unstable();
        candidates.dedup();
        let cap = ServeConfig::default().max_candidates;
        let lists = expander.candidates();
        let queries = candidates
            .iter()
            .copied()
            .filter(|q| lists[q].iter().take(cap).any(|p| p.item != *q))
            .collect();
        Fixture {
            seed,
            vocab: Arc::new(world.vocab.clone()),
            world,
            log,
            detector,
            expansion,
            candidates,
            queries,
            relational,
            state: expander.state(),
        }
    }

    /// A fresh copy of the version-0 expander.
    pub fn expander(&self) -> IncrementalExpander {
        IncrementalExpander::restore(
            self.detector.clone(),
            self.expansion.clone(),
            self.state.clone(),
        )
    }

    /// The fixture's detector architecture under another seed.
    pub fn detector_seeded(&self, seed: u64) -> HypoDetector {
        HypoDetector::new(
            Some(self.relational.clone()),
            None,
            &DetectorConfig::tiny(seed),
        )
    }

    /// The unseen half of the click log cut into at most `n` batches.
    pub fn batches(&self, n: usize, split: Split) -> Vec<Vec<ClickRecord>> {
        let tail = &self.log.records[self.log.records.len() / 2..];
        match split {
            Split::Contiguous => tail
                .chunks(tail.len().div_ceil(n.max(1)))
                .take(n)
                .map(<[ClickRecord]>::to_vec)
                .collect(),
            Split::Stride => (0..n)
                .map(|j| tail.iter().skip(j).step_by(n).cloned().collect())
                .collect(),
        }
    }
}

/// Wire form of one batch, exactly as a client sends it.
pub fn wire(vocab: &Vocabulary, batch: &[ClickRecord]) -> Vec<(String, String, u64)> {
    batch
        .iter()
        .map(|r| (vocab.name(r.query).to_owned(), r.item_text.clone(), r.count))
        .collect()
}

/// One score request's outcome, as a client saw it.
#[derive(Debug, Clone, PartialEq)]
pub enum Served {
    Ok {
        version: u64,
        key: Key,
    },
    /// Shed under backpressure (or by a router with a shard down).
    Busy,
    /// Any other error reply, or an ok reply without version and
    /// candidates.
    Refused(String),
    /// A transport failure (retries exhausted, for a retrying client).
    Failed(String),
}

impl Served {
    fn of(reply: std::io::Result<Reply>) -> Served {
        match reply {
            Ok(Reply::Ok(v)) => Served::of_value(&v),
            Ok(reply) if reply.is_busy() => Served::Busy,
            Ok(reply) => Served::Refused(format!("{reply:?}")),
            Err(e) => Served::Failed(e.to_string()),
        }
    }

    fn of_value(v: &Value) -> Served {
        match (v.get("version").and_then(Value::as_u64), candidate_key(v)) {
            (Some(version), Some(key)) => Served::Ok { version, key },
            _ => Served::Refused(format!("malformed score response {v:?}")),
        }
    }

    /// The served `(version, key)`, if the request was answered.
    pub fn ok(&self) -> Option<(u64, &Key)> {
        match self {
            Served::Ok { version, key } => Some((*version, key)),
            _ => None,
        }
    }
}

/// How an ingest ended, from the client's side.
#[derive(Debug, Clone, PartialEq)]
pub enum Ack {
    /// Acknowledged: the version each shard the batch touched applied it
    /// at, in shard order.
    Ok(Vec<u64>),
    /// The reply was refused or lost: the batch may or may not have
    /// landed. A later recovery or [`History::settle`] resolves it.
    Lost(String),
    /// A lost batch a later `health` showed applied: every shard's
    /// version at that point.
    Applied(Vec<u64>),
    /// A lost batch a later `health` showed not applied.
    NotApplied,
}

impl Ack {
    fn of(reply: std::io::Result<Reply>) -> Ack {
        match reply {
            Ok(Reply::Ok(v)) => {
                let versions = match v.get("versions").and_then(Value::items) {
                    Some(items) => items.iter().filter_map(Value::as_u64).collect(),
                    None => v
                        .get("version")
                        .and_then(Value::as_u64)
                        .into_iter()
                        .collect(),
                };
                Ack::Ok(versions)
            }
            Ok(reply) => Ack::Lost(format!("{reply:?}")),
            Err(e) => Ack::Lost(e.to_string()),
        }
    }
}

struct Score {
    query: ConceptId,
    tier: Tier,
    burst: Option<u64>,
    served: Served,
}

/// A recorded state change.
enum Event {
    Ingest {
        batch: Vec<ClickRecord>,
        ack: Ack,
    },
    Promote {
        shard: usize,
        detector: Arc<HypoDetector>,
        version: Option<u64>,
    },
    Recover {
        shard: usize,
        report: RecoveryReport,
        detector: Arc<HypoDetector>,
        state: ExpanderState,
    },
}

type Lane = Arc<Mutex<Vec<Score>>>;

thread_local! {
    /// This thread's score lane in the history it last recorded into.
    static LANE: RefCell<Option<(u64, Lane)>> = const { RefCell::new(None) };
}

/// The recorded client history of one fleet. Shared by every client
/// thread; each call sends one operation and records its outcome.
pub struct History {
    /// Tells this history's lanes from an earlier one's on a thread.
    id: u64,
    vocab: Arc<Vocabulary>,
    /// The `k` every recorded score asks for (the serving default).
    k: usize,
    /// Ingests, promotions and recoveries, in order.
    events: Mutex<Vec<Event>>,
    /// Score outcomes, one lane per recording thread, so that clients
    /// hammering the fleet never wait on each other's records.
    lanes: Mutex<Vec<Lane>>,
    bursts: AtomicU64,
    drained: Mutex<Drained>,
}

/// What [`Fleet::stop`] read once the fleet drained.
#[derive(Default)]
struct Drained {
    /// The `score`/`ingest` ledger counters.
    ledger: Option<[u64; 5]>,
    /// The published version of each shard stopped uncrashed and not
    /// recovered since.
    versions: BTreeMap<usize, u64>,
}

/// Accepted work and how it completed: a score is computed; an ingest
/// or promotion is applied, or refused by the ingest thread (a
/// `prepare_pending` or `no_prepared` reply).
const LEDGER: [&str; 5] = [
    "serve.score.accepted",
    "serve.score.completed",
    "serve.ingest.accepted",
    "serve.ingest.applied",
    "serve.ingest.rejected",
];

fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .expect("a thread panicked while holding the history")
}

impl History {
    fn new(vocab: Arc<Vocabulary>, k: usize) -> History {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        History {
            id: NEXT.fetch_add(1, Ordering::Relaxed),
            vocab,
            k,
            events: Mutex::default(),
            lanes: Mutex::default(),
            bursts: AtomicU64::new(0),
            drained: Mutex::default(),
        }
    }

    fn events(&self) -> MutexGuard<'_, Vec<Event>> {
        locked(&self.events)
    }

    fn push(&self, event: Event) {
        self.events().push(event);
    }

    fn record(&self, query: ConceptId, tier: Tier, burst: Option<u64>, served: &Served) {
        let score = Score {
            query,
            tier,
            burst,
            served: served.clone(),
        };
        LANE.with_borrow_mut(|lane| {
            if lane.as_ref().map(|(id, _)| *id) != Some(self.id) {
                let fresh = Lane::default();
                locked(&self.lanes).push(Arc::clone(&fresh));
                *lane = Some((self.id, fresh));
            }
            let (_, lane) = lane.as_ref().expect("set above");
            locked(lane).push(score);
        });
    }

    /// Every thread's score lane, in the order the threads first
    /// recorded.
    fn lanes(&self) -> Vec<Lane> {
        locked(&self.lanes).clone()
    }

    /// Sends one `score` (the default tier when `tier` is `None`).
    pub fn score(&self, client: &mut Client, query: ConceptId, tier: Option<Tier>) -> Served {
        let served = Served::of(client.score_tier(self.vocab.name(query), Some(self.k), tier));
        self.record(query, tier.unwrap_or_default(), None, &served);
        served
    }

    /// Sends `queries` as one pipelined burst.
    pub fn burst(&self, client: &mut Client, queries: &[ConceptId]) -> Vec<Served> {
        let names: Vec<&str> = queries.iter().map(|&q| self.vocab.name(q)).collect();
        let served = match client.score_burst(&names, Some(self.k), None) {
            Ok(replies) => replies.into_iter().map(|r| Served::of(Ok(r))).collect(),
            Err(e) => vec![Served::Failed(e.to_string()); queries.len()],
        };
        let burst = self.new_burst();
        for (&q, s) in queries.iter().zip(&served) {
            self.record(q, Tier::default(), Some(burst), s);
        }
        served
    }

    /// A fresh burst id for [`History::line`].
    pub fn new_burst(&self) -> u64 {
        self.bursts.fetch_add(1, Ordering::Relaxed)
    }

    /// Records one response line read off a raw connection to a request
    /// for `query` at the server's default `k`, in the tier it echoes.
    pub fn line(&self, query: ConceptId, burst: Option<u64>, line: &str) -> Served {
        let v = taxo_core::json::parse(line.trim()).unwrap_or(Value::Null);
        let served = match (v.get("ok"), v.get("error").and_then(Value::as_str)) {
            (Some(Value::Bool(true)), _) => Served::of_value(&v),
            (_, Some("busy")) => Served::Busy,
            _ => Served::Refused(line.to_owned()),
        };
        let tier = v.get("tier").and_then(Value::as_str).and_then(Tier::parse);
        self.record(query, tier.unwrap_or_default(), burst, &served);
        served
    }

    /// Sends one `ingest` of `batch` (never resent: a lost reply is
    /// ambiguous).
    pub fn ingest(&self, client: &mut Client, batch: &[ClickRecord]) -> Ack {
        self.ingest_acked(batch, client.ingest(&wire(&self.vocab, batch)))
    }

    /// Records an ingest of `batch` that `reply` acknowledged — for a
    /// batch sent in two phases, the reply to its wire `commit`.
    pub fn ingest_acked(&self, batch: &[ClickRecord], reply: std::io::Result<Reply>) -> Ack {
        let ack = Ack::of(reply);
        self.push(Event::Ingest {
            batch: batch.to_vec(),
            ack: ack.clone(),
        });
        ack
    }

    /// Sends one `ingest` per batch in a single write on a fresh
    /// connection to `addr`, so that they reach the server together and
    /// share a WAL commit group, then reads one reply per batch.
    pub fn ingest_pipelined(&self, addr: SocketAddr, batches: &[Vec<ClickRecord>]) -> Vec<Ack> {
        let mut lines = String::new();
        for (id, batch) in batches.iter().enumerate() {
            let records = wire(&self.vocab, batch);
            let id = Some(id as u64);
            lines.push_str(&protocol::ingest_request(id, IngestPhase::Auto, &records));
            lines.push('\n');
        }
        let mut stream = TcpStream::connect(addr).expect("connect for a pipelined ingest");
        stream
            .write_all(lines.as_bytes())
            .expect("write the ingests");
        let mut replies = BufReader::new(stream).lines();
        batches
            .iter()
            .enumerate()
            .map(|(id, batch)| {
                let reply = match replies.next() {
                    Some(Ok(line)) => match taxo_core::json::parse(&line) {
                        Ok(v)
                            if v.get("id").and_then(Value::as_u64) == Some(id as u64)
                                && v.get("ok") == Some(&Value::Bool(true)) =>
                        {
                            Ok(Reply::Ok(v))
                        }
                        _ => Err(std::io::Error::other(line)),
                    },
                    Some(Err(e)) => Err(e),
                    None => Err(std::io::Error::other("connection closed")),
                };
                self.ingest_acked(batch, reply)
            })
            .collect()
    }

    /// Resolves the last lost ingest: `Some(vector)` when a `health`
    /// showed it applied, `None` when it showed it did not land.
    pub fn settle(&self, vector: Option<Vec<u64>>) {
        let mut events = self.events();
        let lost = events.iter_mut().rev().find_map(|e| match e {
            Event::Ingest { ack, .. } if matches!(ack, Ack::Lost(_)) => Some(ack),
            _ => None,
        });
        *lost.expect("a lost ingest to settle") = vector.map_or(Ack::NotApplied, Ack::Applied);
    }

    /// Records a promotion of `detector` on `shard`: the version it
    /// consumed, or `None` when the call failed.
    pub fn promoted(&self, shard: usize, detector: Arc<HypoDetector>, version: Option<u64>) {
        self.push(Event::Promote {
            shard,
            detector,
            version,
        });
    }

    /// Every score outcome: each thread's in the order it recorded them.
    pub fn transcript(&self) -> Vec<(ConceptId, Served)> {
        let mut transcript = Vec::new();
        for lane in self.lanes() {
            transcript.extend(locked(&lane).iter().map(|s| (s.query, s.served.clone())));
        }
        transcript
    }

    /// Every ingest outcome, in the order recorded.
    pub fn acks(&self) -> Vec<Ack> {
        self.events()
            .iter()
            .filter_map(|e| match e {
                Event::Ingest { ack, .. } => Some(ack.clone()),
                _ => None,
            })
            .collect()
    }
}

struct Shard {
    addr: SocketAddr,
    /// `None` once stopped (or while recovering).
    handle: Option<ServerHandle>,
    dir: Option<ScratchDir>,
}

/// Configures a [`Fleet`]; start with [`Fleet::standalone`] or
/// [`Fleet::routed`].
pub struct FleetBuilder<'f> {
    fixture: &'f Fixture,
    shards: usize,
    cfg: ServeConfig,
    wal: Option<(FsyncPolicy, u64)>,
}

impl<'f> FleetBuilder<'f> {
    /// Every shard's serving configuration.
    pub fn config(mut self, cfg: ServeConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// WAL-backed shards: `fsync` gates the acks, and a checkpoint is
    /// written every `snapshot_every` versions.
    pub fn wal(mut self, fsync: FsyncPolicy, snapshot_every: u64) -> Self {
        self.wal = Some((fsync, snapshot_every));
        self
    }

    /// Takes the lock, disarms faults, zeroes the metrics, and binds
    /// every shard (and the router) on an ephemeral loopback port.
    pub fn start(self) -> Fleet<'f> {
        let guard = lock();
        taxo_fault::disarm();
        taxo_obs::reset();
        let FleetBuilder {
            fixture,
            shards,
            cfg,
            wal,
        } = self;
        let mut fleet = Fleet {
            fixture,
            history: Arc::new(History::new(Arc::clone(&fixture.vocab), cfg.default_k)),
            cfg,
            wal,
            shards: Vec::new(),
            router: None,
            ring: None,
            _lock: guard,
        };
        for i in 0..shards {
            let dir = wal.map(|_| ScratchDir::new("wal"));
            fleet.shards.push(Shard {
                addr: ([127, 0, 0, 1], 0).into(),
                handle: None,
                dir,
            });
            let handle = fleet
                .serve(i, fixture.expander(), None)
                .expect("shard binds");
            fleet.shards[i].addr = handle.addr();
            fleet.shards[i].handle = Some(handle);
        }
        if shards > 1 {
            let addrs = fleet.shards.iter().map(|s| s.addr).collect();
            let router = Router::builder(addrs)
                .config(RouterConfig::default())
                .bind("127.0.0.1:0")
                .expect("router binds");
            fleet.ring = Some(router.ring().clone());
            fleet.router = Some(router);
        }
        fleet
    }
}

/// Running servers under test (see the crate docs). Dropping a fleet
/// stops it.
pub struct Fleet<'f> {
    pub fixture: &'f Fixture,
    history: Arc<History>,
    cfg: ServeConfig,
    wal: Option<(FsyncPolicy, u64)>,
    shards: Vec<Shard>,
    router: Option<RouterHandle>,
    ring: Option<HashRing>,
    _lock: MutexGuard<'static, ()>,
}

impl<'f> Fleet<'f> {
    /// One server.
    pub fn standalone(fixture: &'f Fixture) -> FleetBuilder<'f> {
        FleetBuilder {
            fixture,
            shards: 1,
            cfg: ServeConfig::default(),
            wal: None,
        }
    }

    /// Two shards behind a router.
    pub fn routed(fixture: &'f Fixture) -> FleetBuilder<'f> {
        FleetBuilder {
            shards: 2,
            ..Fleet::standalone(fixture)
        }
    }

    fn serve(
        &self,
        shard: usize,
        expander: IncrementalExpander,
        recovered: Option<&RecoveryReport>,
    ) -> Result<ServerHandle, ServeError> {
        let s = &self.shards[shard];
        let durability = match (self.wal, &s.dir) {
            (Some((fsync, snapshot_every)), Some(dir)) => DurabilityConfig::Wal {
                dir: dir.path().to_path_buf(),
                fsync,
                snapshot_every,
            },
            _ => DurabilityConfig::Volatile,
        };
        let mut builder = Server::builder(expander, Arc::clone(&self.fixture.vocab))
            .config(self.cfg.clone())
            .durability(durability);
        if let Some(report) = recovered {
            builder = builder.recovered(report);
        }
        builder.bind(s.addr)
    }

    /// Where clients connect: the router, or the one server.
    pub fn addr(&self) -> SocketAddr {
        self.router
            .as_ref()
            .map_or(self.shards[0].addr, RouterHandle::addr)
    }

    pub fn history(&self) -> Arc<History> {
        Arc::clone(&self.history)
    }

    pub fn shard(&self, shard: usize) -> &ServerHandle {
        self.shards[shard]
            .handle
            .as_ref()
            .expect("shard is running")
    }

    pub fn router(&self) -> &RouterHandle {
        self.router.as_ref().expect("a routed fleet")
    }

    /// A WAL shard's durability directory.
    pub fn dir(&self, shard: usize) -> &Path {
        self.shards[shard].dir.as_ref().expect("a WAL shard").path()
    }

    /// The first scorable query the fleet routes to `shard`.
    pub fn query_on(&self, shard: usize) -> ConceptId {
        let model = self.model();
        *self
            .fixture
            .queries
            .iter()
            .find(|&&q| model.shard_of(q) == shard)
            .expect("each shard owns a scorable query")
    }

    /// Waits up to two seconds for an injected fault to crash a shard
    /// (the dying ingest thread sets the flag just after the client saw
    /// the failure). Volatile fleets never crash: `None` at once.
    pub fn await_crash(&self) -> Option<usize> {
        self.wal?;
        for _ in 0..100 {
            let crashed = self
                .shards
                .iter()
                .position(|s| s.handle.as_ref().is_some_and(ServerHandle::crashed));
            if crashed.is_some() {
                return crashed;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        None
    }

    /// Reaps `shard` (crashed or not), recovers its WAL directory under
    /// `detector`, and rebinds the shard's own address so clients and the
    /// router keep working. Records the recovery in the history.
    pub fn recover(&mut self, shard: usize, detector: &HypoDetector) -> RecoveryReport {
        if let Some(handle) = self.shards[shard].handle.take() {
            handle.shutdown_and_join();
        }
        for _ in 0..100 {
            let (expander, report) = Server::recover(
                self.dir(shard),
                detector.clone(),
                self.fixture.expansion.clone(),
                &self.fixture.vocab,
            )
            .expect("the shard recovers");
            let state = expander.state();
            // A rebind can race the dead listener's port release.
            if let Ok(handle) = self.serve(shard, expander, Some(&report)) {
                self.shards[shard].handle = Some(handle);
                locked(&self.history.drained).versions.remove(&shard);
                self.history.push(Event::Recover {
                    shard,
                    report: report.clone(),
                    detector: Arc::new(detector.clone()),
                    state,
                });
                return report;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        panic!("shard {shard} never rebound {}", self.shards[shard].addr);
    }

    /// Stops the router and every shard, then reads the ledgers and each
    /// uncrashed shard's published version.
    pub fn stop(&mut self) {
        if let Some(router) = self.router.take() {
            router.shutdown_and_join();
        }
        let mut drained = locked(&self.history.drained);
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let Some(handle) = shard.handle.take() else {
                continue;
            };
            let (store, crashed) = (handle.store(), handle.crashed());
            handle.shutdown_and_join();
            if crashed {
                drained.versions.remove(&i);
            } else {
                drained.versions.insert(i, store.version());
            }
        }
        taxo_fault::disarm();
        drained.ledger = Some(LEDGER.map(counter));
    }

    pub fn model(&self) -> Model<'f> {
        Model {
            fixture: self.fixture,
            ring: self.ring.clone(),
            cap: self.cfg.max_candidates,
        }
    }

    /// Stops the fleet and [`check`]s its history.
    pub fn check(mut self) -> Summary {
        self.stop();
        check(&self.history, &self.model())
    }
}

impl Drop for Fleet<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return self.stop();
        }
        // An unwinding test must not hang on a wedged server, yet its
        // scratch directories are removed only after the servers' last
        // checkpoint: stop them on a helper thread, for five seconds.
        let router = self.router.take();
        let shards: Vec<_> = self
            .shards
            .iter_mut()
            .filter_map(|s| s.handle.take())
            .collect();
        let (stopped, wait) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            if let Some(router) = router {
                router.shutdown_and_join();
            }
            shards.into_iter().for_each(ServerHandle::shutdown_and_join);
            let _ = stopped.send(());
        });
        let _ = wait.recv_timeout(Duration::from_secs(5));
        taxo_fault::disarm();
    }
}

/// The sequential model a history is checked against: the fixture's
/// version-0 state per shard, the ring that partitions queries across
/// shards, and the serving candidate cap.
pub struct Model<'f> {
    fixture: &'f Fixture,
    ring: Option<HashRing>,
    cap: usize,
}

#[derive(Clone)]
enum Op {
    Ingest(Vec<ClickRecord>),
    Promote(Arc<HypoDetector>),
}

/// One shard's acknowledged and ambiguous operations.
#[derive(Default)]
struct Ledger {
    acked: BTreeMap<u64, Op>,
    /// Operations whose outcome the client never learned, each with the
    /// last version the shard was known to have consumed when sent.
    lost: Vec<(u64, Op)>,
    recoveries: Vec<(RecoveryReport, Arc<HypoDetector>, ExpanderState)>,
    last: u64,
}

impl Ledger {
    fn ack(&mut self, shard: usize, version: u64, op: Op, violations: &mut Vec<String>) {
        if self.acked.insert(version, op).is_some() {
            violations.push(format!("shard {shard} acked version {version} twice"));
        }
        self.last = self.last.max(version);
    }
}

impl Model<'_> {
    fn shards(&self) -> usize {
        self.ring.as_ref().map_or(1, HashRing::len)
    }

    /// The shard that owns `query`.
    pub fn shard_of(&self, query: ConceptId) -> usize {
        self.ring.as_ref().map_or(0, |ring| {
            ring.shard_for(self.fixture.vocab.name(query)) as usize
        })
    }

    fn partition(&self, batch: &[ClickRecord], shard: usize) -> Vec<ClickRecord> {
        batch
            .iter()
            .filter(|r| self.shard_of(r.query) == shard)
            .cloned()
            .collect()
    }

    /// The shards an ingest of `batch` reaches, ascending (an empty batch
    /// still goes to shard 0).
    fn touched(&self, batch: &[ClickRecord]) -> Vec<usize> {
        let shards: BTreeSet<usize> = batch.iter().map(|r| self.shard_of(r.query)).collect();
        if shards.is_empty() {
            vec![0]
        } else {
            shards.into_iter().collect()
        }
    }

    /// The `(shard, version)` pairs an ingest of `batch` is known to have
    /// applied at: `None` unless acked or settled as applied, or when the
    /// ack names a version per shard for other shards than it reached.
    fn applied(&self, batch: &[ClickRecord], ack: &Ack) -> Option<Vec<(usize, u64)>> {
        let touched = self.touched(batch);
        let versions: Vec<u64> = match ack {
            Ack::Ok(versions) => versions.clone(),
            Ack::Applied(vector) => touched.iter().map(|&s| vector[s]).collect(),
            Ack::Lost(_) | Ack::NotApplied => return None,
        };
        (versions.len() == touched.len()).then(|| touched.into_iter().zip(versions).collect())
    }

    fn ledgers(&self, events: &[Event], violations: &mut Vec<String>) -> Vec<Ledger> {
        let mut ledgers: Vec<Ledger> = (0..self.shards()).map(|_| Ledger::default()).collect();
        for event in events {
            match event {
                Event::Ingest { batch, ack } => match (ack, self.applied(batch, ack)) {
                    (Ack::NotApplied, _) => {}
                    (Ack::Lost(_), _) => {
                        for s in self.touched(batch) {
                            let ledger = &mut ledgers[s];
                            let op = Op::Ingest(self.partition(batch, s));
                            ledger.lost.push((ledger.last, op));
                        }
                    }
                    (_, Some(applied)) => {
                        for (s, v) in applied {
                            let op = Op::Ingest(self.partition(batch, s));
                            ledgers[s].ack(s, v, op, violations);
                        }
                    }
                    (_, None) => violations.push(format!(
                        "an ingest reaching shards {:?} was acked {ack:?}",
                        self.touched(batch)
                    )),
                },
                Event::Promote {
                    shard,
                    detector,
                    version,
                } => {
                    let ledger = &mut ledgers[*shard];
                    let op = Op::Promote(Arc::clone(detector));
                    match version {
                        Some(v) => ledger.ack(*shard, *v, op, violations),
                        None => ledger.lost.push((ledger.last, op)),
                    }
                }
                Event::Recover {
                    shard,
                    report,
                    detector,
                    state,
                } => {
                    let ledger = &mut ledgers[*shard];
                    let acked = ledger.acked.keys().next_back().copied().unwrap_or(0);
                    if report.final_version < acked {
                        violations.push(format!(
                            "shard {shard} recovered to version {} after acking {acked}",
                            report.final_version
                        ));
                    }
                    ledger.last = ledger.last.max(report.final_version);
                    let entry = (report.clone(), Arc::clone(detector), state.clone());
                    ledger.recoveries.push(entry);
                }
            }
        }
        ledgers
    }

    /// Resolves `ledger` into one operation per version: the acked one,
    /// or else the earliest unresolved lost operation sent before it.
    /// Also returns how many lost operations stay unresolved.
    fn timeline(
        &self,
        shard: usize,
        ledger: &Ledger,
        violations: &mut Vec<String>,
    ) -> (Vec<Op>, usize) {
        let top = ledger.acked.keys().next_back().copied().unwrap_or(0);
        let top = ledger
            .recoveries
            .iter()
            .map(|(r, ..)| r.final_version)
            .fold(top, u64::max);
        let mut used = vec![false; ledger.lost.len()];
        let mut ops = Vec::new();
        for v in 1..=top {
            let lost = (0..used.len()).find(|&i| !used[i] && ledger.lost[i].0 < v);
            let op = match (ledger.acked.get(&v), lost) {
                (Some(op), _) => op.clone(),
                (None, Some(i)) => {
                    used[i] = true;
                    ledger.lost[i].1.clone()
                }
                (None, None) => {
                    violations.push(format!(
                        "shard {shard}: version {v} was never acked nor explained by an \
                         unacknowledged operation"
                    ));
                    break;
                }
            };
            ops.push(op);
        }
        (ops, used.iter().filter(|&&u| !u).count())
    }

    /// Replays `ops` (and the recoveries among them), comparing every
    /// recovered state with the model's; returns the snapshots of the
    /// `needed` versions (a recovered version may have two).
    fn replay(
        &self,
        shard: usize,
        ops: &[Op],
        ledger: &Ledger,
        needed: &BTreeSet<u64>,
        violations: &mut Vec<String>,
    ) -> BTreeMap<u64, Vec<ServeSnapshot>> {
        let fx = self.fixture;
        let restore = |detector: &HypoDetector, state: ExpanderState| {
            IncrementalExpander::restore(detector.clone(), fx.expansion.clone(), state)
        };
        let mut snapshots: BTreeMap<u64, Vec<ServeSnapshot>> = BTreeMap::new();
        let mut take = |v: u64, exp: &IncrementalExpander| {
            if needed.contains(&v) {
                snapshots.entry(v).or_default().push(ServeSnapshot::build(
                    v,
                    Arc::clone(&fx.vocab),
                    Arc::new(exp.detector().clone()),
                    exp.taxonomy().clone(),
                    &exp.candidate_pairs(),
                ));
            }
        };
        let mut exp = fx.expander();
        let mut states = vec![exp.state()];
        take(0, &exp);
        for v in 0..=ops.len() as u64 {
            if v > 0 {
                match &ops[v as usize - 1] {
                    Op::Ingest(records) => {
                        exp.ingest(&fx.vocab, records);
                    }
                    Op::Promote(detector) => exp = restore(detector, exp.state()),
                }
                states.push(exp.state());
                take(v, &exp);
            }
            for (report, detector, state) in &ledger.recoveries {
                if report.final_version != v {
                    continue;
                }
                // Recovery loads the checkpoint and replays the WAL tail
                // under the operator's detector; a promotion in the tail
                // replays as an empty op.
                let c = report.snapshot_version;
                exp = restore(detector, states[c as usize].clone());
                for op in &ops[c as usize..v as usize] {
                    match op {
                        Op::Ingest(records) => exp.ingest(&fx.vocab, records),
                        Op::Promote(_) => exp.ingest(&fx.vocab, &[]),
                    };
                }
                if !same_state(&exp.state(), state) {
                    violations.push(format!(
                        "shard {shard}: the state recovered at version {v} differs from the \
                         model's replay of the same operations"
                    ));
                }
                states[v as usize] = exp.state();
                take(v, &exp);
            }
        }
        snapshots
    }
}

fn same_state(a: &ExpanderState, b: &ExpanderState) -> bool {
    let edges = |s: &ExpanderState| {
        let mut e: Vec<_> = s.taxonomy.edges().map(|e| (e.parent, e.child)).collect();
        e.sort_unstable();
        e
    };
    a.batches == b.batches && a.pairs == b.pairs && edges(a) == edges(b)
}

/// What a clean [`check`] counted.
#[derive(Debug, Default)]
pub struct Summary {
    /// Score responses answered, shed (`busy`), and refused or failed.
    pub ok: usize,
    pub busy: usize,
    pub failed: usize,
    /// Each shard's last version in the model — the version a shard
    /// stopped by the fleet published, unless operations stayed
    /// unresolved.
    pub versions: Vec<u64>,
}

/// Checks `history` against `model` (see the crate docs); panics with
/// every violation found.
pub fn check(history: &History, model: &Model) -> Summary {
    let events = history.events();
    let events = &events[..];
    let lanes = history.lanes();
    let lanes: Vec<_> = lanes.iter().map(|lane| locked(lane)).collect();
    let scores = || lanes.iter().flat_map(|lane| lane.iter());
    let drained = locked(&history.drained);
    let mut violations = Vec::new();
    let ledgers = model.ledgers(events, &mut violations);

    // The versions each shard's responses name: the only ones built.
    let mut needed = vec![BTreeSet::new(); ledgers.len()];
    for score in scores() {
        if let Served::Ok { version, .. } = score.served {
            needed[model.shard_of(score.query)].insert(version);
        }
    }
    let mut summary = Summary::default();
    let mut snapshots = Vec::new();
    for (shard, ledger) in ledgers.iter().enumerate() {
        let (ops, unresolved) = model.timeline(shard, ledger, &mut violations);
        let last = ops.len() as u64;
        // A stopped shard published the model's last version, or one
        // more per lost operation the history never resolved.
        if let Some(&stopped) = drained.versions.get(&shard) {
            if !(last..=last + unresolved as u64).contains(&stopped) {
                violations.push(format!(
                    "shard {shard} stopped at version {stopped}, but its history ends at \
                     version {last} with {unresolved} unresolved operation(s)"
                ));
            }
        }
        summary.versions.push(last);
        snapshots.push(model.replay(shard, &ops, ledger, &needed[shard], &mut violations));
    }

    // Every ok response is bit-identical to the model at its version.
    let mut expected: HashMap<(usize, u64, ConceptId, Tier), Vec<Key>> = HashMap::new();
    let mut bursts: BTreeMap<u64, BTreeMap<usize, BTreeSet<u64>>> = BTreeMap::new();
    for Score {
        query,
        tier,
        burst,
        served,
    } in scores()
    {
        let (version, key) = match served {
            Served::Ok { version, key } => (*version, key),
            Served::Busy => {
                summary.busy += 1;
                continue;
            }
            Served::Refused(_) | Served::Failed(_) => {
                summary.failed += 1;
                continue;
            }
        };
        summary.ok += 1;
        let shard = model.shard_of(*query);
        let name = model.fixture.vocab.name(*query);
        let Some(snaps) = snapshots[shard].get(&version) else {
            violations.push(format!(
                "{name:?} was served at version {version}, which shard {shard} never reached"
            ));
            continue;
        };
        let want = expected
            .entry((shard, version, *query, *tier))
            .or_insert_with(|| {
                snaps
                    .iter()
                    .map(|s| {
                        let ranked = s.score_query_tier(*query, model.cap, history.k, *tier);
                        expected_key(&model.fixture.vocab, &ranked)
                    })
                    .collect()
            });
        if !want.contains(key) {
            violations.push(format!(
                "{name:?} at version {version} ({tier:?}) is not bit-identical to the model"
            ));
        }
        if let Some(burst) = burst {
            let entry = bursts.entry(*burst).or_default();
            entry.entry(shard).or_default().insert(version);
        }
    }

    // A burst carries one version per shard and sits wholly before or
    // wholly after every coordinated (multi-shard) swap.
    let swaps: Vec<Vec<(usize, u64)>> = events
        .iter()
        .filter_map(|e| match e {
            Event::Ingest { batch, ack } => model.applied(batch, ack),
            _ => None,
        })
        .filter(|applied| applied.len() > 1)
        .collect();
    for (id, shards) in &bursts {
        if shards.values().any(|v| v.len() > 1) {
            violations.push(format!(
                "burst {id} mixed versions on one shard: {shards:?}"
            ));
            continue;
        }
        let at = |s: &usize| shards.get(s).and_then(|v| v.first().copied());
        for swap in &swaps {
            let sides: BTreeSet<bool> = swap
                .iter()
                .filter_map(|(s, v)| at(s).map(|b| b >= *v))
                .collect();
            if sides.len() > 1 {
                violations.push(format!(
                    "burst {id} straddles the swap to {swap:?}: {shards:?}"
                ));
            }
        }
    }

    // Acceptance implies completion, exactly — unless a crash dropped
    // accepted work on purpose.
    let crashed = events.iter().any(|e| matches!(e, Event::Recover { .. }));
    if let (false, Some(ledger)) = (crashed, drained.ledger) {
        let [scores, scored, ingests, applied, rejected] = ledger;
        if scores != scored || ingests != applied + rejected {
            violations.push(format!("unbalanced ledger: {LEDGER:?} = {ledger:?}"));
        }
    }
    assert!(
        violations.is_empty(),
        "{} violation(s) of the serving invariants:\n{}",
        violations.len(),
        violations.join("\n")
    );
    summary
}
