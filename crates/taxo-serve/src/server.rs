//! The TCP server: acceptor, epoll reactor threads, micro-batching
//! scorer (int8 tier), and the single ingest/rebuild thread.
//!
//! Thread layout (all plain `std::thread`, started by
//! [`ServerBuilder::bind`]):
//!
//! ```text
//! acceptor ──► reactor 0..N      (round-robin; epoll over every connection,
//!                │   ▲            parse + respond; f32 responses spliced
//!                │   │            from the snapshot's response index)
//! int8 score jobs ▼   │ completions (reactor inbox + eventfd)
//!              scorer thread      (one par_map per batch)
//!                ┆
//! reactors ──► ingest queue ──► ingest thread (WAL append+fsync →
//!                                              IncrementalExpander: score
//!                                              new pairs, expand +
//!                                              snapshot rebuild + publish)
//! ```
//!
//! Connections are served by `crate::reactor`, for which `Shared` is
//! the [`Service`]: each reactor thread owns an epoll instance and the
//! state machines of its share of the connections, so an idle connection
//! costs a slot, not a thread.
//!
//! A pair's f32 score depends only on the detector, so the
//! [`IncrementalExpander`] scores each candidate pair once per detector
//! (at bind for the served window, at ingest for pairs new to it, once
//! more after a promotion), and a snapshot reads that table while it
//! builds. An f32 response changes only when a snapshot is published, so
//! the first snapshot ranks and renders every served query once, into
//! its response index; an ingest's snapshot ranks again only the queries
//! the ingest changed and re-renders only those whose ranked list
//! changed.
//!
//! Every queue is a [`BoundedQueue`]: when one fills up the server sheds
//! the request with a `busy` response instead of stalling the socket.
//! Shutdown (a `shutdown` request or [`ServerHandle::shutdown`]) closes
//! the queues; consumers drain what was already accepted, so no accepted
//! request is ever dropped without a response.
//!
//! With [`DurabilityConfig::Wal`], the ingest thread is also the WAL's
//! single writer: it appends every batch of a commit group, fsyncs once
//! (the ack barrier), and only then applies, rebuilds, publishes, and
//! acks; once the whole group is applied it checkpoints the state file
//! when the group crossed a multiple of `snapshot_every`. An injected
//! WAL failure is treated as a crash — the server halts exactly as if
//! the process had died, and [`Server::recover`] rebuilds the durable
//! state.

use crate::batch::{score_batch, BoundedQueue, PushError, ScoreJob, ScoreSink};
use crate::cache::{ResponseCache, ResponseKey, ScoreCache};
use crate::durable::{self, DurabilityConfig, FsyncPolicy, RecoveryReport};
use crate::protocol::{self, IngestPhase, IngestRecord, IngestSummary, Request, Tier};
use crate::reactor::{self, Burst, CompletionSink, Service, ShutdownSignal};
use crate::shadow::{ShadowSample, ShadowTap};
use crate::snapshot::{ScoredCandidate, ServeSnapshot, SnapshotReader, SnapshotStore};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use taxo_core::{TaxoError, Vocabulary};
use taxo_expand::{
    ExpanderState, ExpansionConfig, HypoDetector, IncrementalExpander, QuantizedDetector,
};
use taxo_obs::{counter, gauge, histogram, span};
use taxo_wal::{WalError, WalWriter};

/// `ingest` queue capacity.
const INGEST_QUEUE_CAP: usize = 16;

/// Shadow-tap queue capacity: mirrored score samples awaiting the
/// trainer. A full queue sheds samples (never live requests).
const SHADOW_QUEUE_CAP: usize = 1024;

/// Server sizing knobs. The defaults suit the tiny demo pipeline; every
/// field must be at least 1.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum int8 `score` jobs coalesced into one batched scoring call
    /// (f32 requests never queue).
    pub batch_max: usize,
    /// int8 `score` queue capacity; beyond it requests shed with `busy`.
    pub score_queue_cap: usize,
    /// Candidate items scored per query (most-clicked first).
    pub max_candidates: usize,
    /// Default `k` (returned candidates) when a request names none.
    pub default_k: usize,
    /// int8 served-score LRU cache capacity in entries, keyed by
    /// `(snapshot_version, tier, query, item)` (f32 scores come from the
    /// snapshot's score table). Entries of retired snapshot versions age
    /// out under LRU pressure; size this to a few times the working set
    /// of hot pairs.
    pub score_cache_cap: usize,
    /// int8 rendered-response LRU capacity in entries, keyed by
    /// `(snapshot_version, tier, query, k)` — repeat int8 queries splice
    /// a cached tail instead of re-ranking and re-rendering (f32
    /// responses come from the snapshot's response index).
    pub resp_cache_cap: usize,
    /// Tier answering `score` requests that name none.
    pub default_tier: Tier,
    /// Reactor threads serving client connections (each owns one epoll
    /// instance; the acceptor deals connections out round-robin).
    pub reactor_threads: usize,
    /// Close a connection after this long without a single received
    /// byte, so a silent client cannot hold a reactor slot forever.
    /// Counted as `serve.conn.idle_closed`.
    pub idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch_max: 64,
            score_queue_cap: 256,
            max_candidates: 16,
            default_k: 8,
            score_cache_cap: 65_536,
            resp_cache_cap: 16_384,
            default_tier: Tier::F32,
            reactor_threads: 2,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

impl ServeConfig {
    /// Field-named validation, surfaced by [`ServerBuilder::bind`] as
    /// [`ServeError::Config`] (the same `TaxoError::InvalidConfig` shape
    /// the pipeline config builders use).
    pub fn validate(&self) -> Result<(), TaxoError> {
        for (name, v) in [
            ("serve.batch_max", self.batch_max),
            ("serve.score_queue_cap", self.score_queue_cap),
            ("serve.max_candidates", self.max_candidates),
            ("serve.default_k", self.default_k),
            ("serve.score_cache_cap", self.score_cache_cap),
            ("serve.resp_cache_cap", self.resp_cache_cap),
            ("serve.reactor_threads", self.reactor_threads),
        ] {
            if v == 0 {
                return Err(TaxoError::invalid_config(name, "must be at least 1"));
            }
        }
        if self.idle_timeout.is_zero() {
            return Err(TaxoError::invalid_config(
                "serve.idle_timeout",
                "must be non-zero",
            ));
        }
        Ok(())
    }
}

/// Errors starting or recovering a server.
#[derive(Debug)]
pub enum ServeError {
    /// A configuration field failed validation (carries the
    /// field-naming [`TaxoError::InvalidConfig`]).
    Config(TaxoError),
    /// Binding the listener or spawning threads failed.
    Io(std::io::Error),
    /// Opening, replaying, or initializing the durable state failed.
    Wal(WalError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(e) => write!(f, "{e}"),
            ServeError::Io(e) => write!(f, "serve io error: {e}"),
            ServeError::Wal(e) => write!(f, "serve durability error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Config(e) => Some(e),
            ServeError::Io(e) => Some(e),
            ServeError::Wal(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<WalError> for ServeError {
    fn from(e: WalError) -> Self {
        ServeError::Wal(e)
    }
}

impl From<TaxoError> for ServeError {
    fn from(e: TaxoError) -> Self {
        ServeError::Config(e)
    }
}

/// One unit of work for the single-writer ingest thread. Click batches
/// arrive from the wire; promotions and state exports arrive from a
/// [`ServeController`] (the continuous-learning control plane). Routing
/// them through the same queue keeps every mutation of the expander —
/// and every published version — serialized by one thread.
pub(crate) enum IngestJob {
    /// A click batch from the wire (`ingest` requests).
    Batch {
        records: Vec<IngestRecord>,
        phase: IngestPhase,
        reply: IngestSink,
    },
    /// Swap in a retrained detector and publish a snapshot scored by it.
    /// Consumes a version like a batch does; an empty ingest op is logged
    /// so the WAL's version sequence stays dense.
    Promote {
        detector: Arc<HypoDetector>,
        reply: IngestSink,
    },
    /// Consistent read of the expander state (the trainer's live
    /// retraining source). No version consumed, nothing logged.
    Export {
        reply: mpsc::Sender<(u64, ExpanderState)>,
    },
}

/// Where an ingest acknowledgement goes back to — the ingest twin of
/// [`crate::batch::ScoreSink`]. A dropped-without-send sink (the
/// simulated-crash path drops whole jobs) surfaces to the reactor as a
/// dead completion, and to a [`ServeController`] caller as a dead
/// channel.
pub(crate) enum IngestSink {
    /// [`ServeController`] calls: the caller waits on the paired
    /// receiver.
    Channel(mpsc::Sender<IngestReply>),
    /// Wire `ingest` requests: the ack lands in the reactor thread's
    /// inbox.
    Reactor(CompletionSink<Payload>),
}

impl IngestSink {
    /// Delivers the acknowledgement (a dead receiver is ignored).
    pub(crate) fn send(&self, reply: IngestReply) {
        match self {
            IngestSink::Channel(tx) => {
                let _ = tx.send(reply);
            }
            IngestSink::Reactor(sink) => sink.deliver(Payload::Ingest(Box::new(reply))),
        }
    }

    /// Abandons the sink without a dead-completion signal (queue-full
    /// bounces answered inline).
    fn cancel(&self) {
        match self {
            IngestSink::Channel(_) => {}
            IngestSink::Reactor(sink) => sink.cancel(),
        }
    }
}

/// What the ingest thread tells the reactor (or controller) to render.
pub enum IngestReply {
    /// Single-phase: applied and published.
    Applied(IngestSummary),
    /// Two-phase step 1: applied, durable, snapshot built but held.
    Prepared(IngestSummary),
    /// Two-phase step 2: the held snapshot is now the served one.
    Committed { version: u64 },
    /// A promotion was applied and published at this version.
    Promoted { version: u64 },
    /// The phase was illegal in the current state (e.g. a commit with
    /// nothing prepared). Nothing was applied or logged.
    Rejected {
        code: &'static str,
        detail: &'static str,
    },
}

/// What a queued job delivers to the reactor slot it fills (public
/// because [`crate::ScoreSink`] carries a sink of it).
pub enum Payload {
    /// An int8 score job's scores, in `items` order.
    Score(Vec<f32>),
    /// An ingest job's acknowledgement.
    Ingest(Box<IngestReply>),
}

/// A queued request whose response slot is waiting on a completion.
pub(crate) enum PendingReq {
    Score(PendingScore),
    Ingest { id: Option<u64> },
}

pub(crate) struct Shared {
    pub(crate) cfg: ServeConfig,
    pub(crate) store: Arc<SnapshotStore>,
    /// int8 served-score LRU: probed by the reactors (all-hit requests
    /// skip the scorer round trip entirely) and filled by the scorer.
    cache: ScoreCache,
    /// Rendered-response LRU: a hit answers the request with one splice.
    resp: ResponseCache,
    score_queue: BoundedQueue<ScoreJob>,
    ingest_queue: BoundedQueue<IngestJob>,
    shutdown: ShutdownSignal,
    /// Set when an injected WAL failure halted the server mid-flight —
    /// the in-process stand-in for the process dying.
    crashed: AtomicBool,
    /// Ingest batches applied so far (served in `health`).
    batches: AtomicU64,
    /// Shadow tap on the score path (disarmed until a control plane
    /// arms it).
    tap: Arc<ShadowTap>,
}

impl Shared {
    fn begin_shutdown(&self) {
        if !self.shutdown.set() {
            return;
        }
        counter!("serve.shutdowns").inc();
        self.score_queue.close();
        self.ingest_queue.close();
    }

    /// Simulated crash: halt like a dying process would. In-flight
    /// ingest acks are dropped (their clients see a dead channel, i.e.
    /// an ambiguous outcome — exactly what a real crash leaves behind);
    /// already-buffered score responses still flush.
    fn crash(&self, point: &str) {
        if !self.crashed.swap(true, Ordering::AcqRel) {
            counter!("serve.wal.aborts").inc();
            eprintln!("# taxo-serve: simulated crash at {point}");
        }
        self.begin_shutdown();
    }

    fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }
}

/// Handle to a running server: its bound address and the shutdown/join
/// controls. Dropping the handle does **not** stop the server; call
/// [`ServerHandle::shutdown_and_join`] (or send a `shutdown` request).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves `:0` ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The snapshot store (for tests that publish or inspect directly).
    pub fn store(&self) -> Arc<SnapshotStore> {
        Arc::clone(&self.shared.store)
    }

    /// Whether an injected WAL fault crashed the server (tests read this
    /// to distinguish a simulated crash from a graceful shutdown).
    pub fn crashed(&self) -> bool {
        self.shared.is_crashed()
    }

    /// Begins graceful shutdown: stop accepting, refuse new requests,
    /// drain everything already queued.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until every server thread has exited.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// [`ServerHandle::shutdown`] then [`ServerHandle::join`].
    pub fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }

    /// A cloneable control-plane handle: everything a background trainer
    /// needs (shadow tap, serving cap, state export, promotion) without
    /// owning the server threads. Valid for the server's whole lifetime;
    /// calls after shutdown fail with [`ControlError::ShuttingDown`].
    pub fn controller(&self) -> ServeController {
        ServeController {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Why a control-plane call ([`ServeController`]) did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlError {
    /// The ingest queue is full; retry on the next trainer cycle.
    Busy,
    /// The server is shutting down (or crashed); no more control calls
    /// will succeed.
    ShuttingDown,
    /// The ingest thread refused the request (e.g. a promotion while a
    /// wire `prepare` awaits its commit).
    Rejected {
        code: &'static str,
        detail: &'static str,
    },
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::Busy => write!(f, "ingest queue full"),
            ControlError::ShuttingDown => write!(f, "server shutting down"),
            ControlError::Rejected { code, detail } => write!(f, "rejected: {code} ({detail})"),
        }
    }
}

impl std::error::Error for ControlError {}

/// The control-plane face of a running server, handed to the background
/// trainer (`crates/taxo-train`). All mutations route through the ingest
/// queue, so the single-writer discipline — and the dense version
/// ledger — survives a second control thread.
#[derive(Clone)]
pub struct ServeController {
    shared: Arc<Shared>,
}

impl ServeController {
    /// The currently served snapshot version.
    pub fn version(&self) -> u64 {
        self.shared.store.version()
    }

    /// The currently served snapshot.
    pub fn snapshot(&self) -> Arc<ServeSnapshot> {
        self.shared.store.load()
    }

    /// The shadow tap (arm/drain it to mirror live traffic).
    pub fn shadow_tap(&self) -> Arc<ShadowTap> {
        Arc::clone(&self.shared.tap)
    }

    /// The serving candidate cap ([`ServeConfig::max_candidates`]): a
    /// candidate snapshot is judged over the ranking this server serves.
    pub fn max_candidates(&self) -> usize {
        self.shared.cfg.max_candidates
    }

    /// Whether the server has begun shutting down or crashed.
    pub fn is_shutdown(&self) -> bool {
        self.shared.is_shutdown()
    }

    /// Consistent export of the ingest thread's expander state and the
    /// version it has reached (which may be ahead of the *published*
    /// version while a prepared snapshot awaits commit). This is the
    /// trainer's live retraining source.
    pub fn export_state(&self) -> Result<(u64, ExpanderState), ControlError> {
        let (tx, rx) = mpsc::channel();
        self.push_job(IngestJob::Export { reply: tx })?;
        rx.recv().map_err(|_| ControlError::ShuttingDown)
    }

    /// Swaps a retrained detector into the serving path: the ingest
    /// thread refills the score table under the new detector, rebuilds
    /// the snapshot (and its int8 twin), and publishes it in one step.
    /// Returns the version the promotion consumed. While a wire
    /// `prepare` awaits its commit the promotion is refused with
    /// `prepare_pending`, as an `Auto` ingest is. Counts into the
    /// exactly-once ingest ledger (`serve.ingest.accepted` /
    /// `serve.ingest.applied`).
    pub fn promote(&self, detector: Arc<HypoDetector>) -> Result<u64, ControlError> {
        counter!("serve.promote.requests").inc();
        let (tx, rx) = mpsc::channel();
        self.push_job(IngestJob::Promote {
            detector,
            reply: IngestSink::Channel(tx),
        })?;
        counter!("serve.ingest.accepted").inc();
        match rx.recv() {
            Ok(IngestReply::Promoted { version }) => Ok(version),
            Ok(IngestReply::Rejected { code, detail }) => {
                Err(ControlError::Rejected { code, detail })
            }
            Ok(_) => unreachable!("promote jobs only produce promote replies"),
            Err(_) => Err(ControlError::ShuttingDown),
        }
    }

    fn push_job(&self, job: IngestJob) -> Result<(), ControlError> {
        match self.shared.ingest_queue.try_push(job) {
            Ok(depth) => {
                gauge!("serve.queue.ingest_depth").set(depth as i64);
                Ok(())
            }
            Err(PushError::Full(_)) => Err(ControlError::Busy),
            Err(PushError::Closed(_)) => Err(ControlError::ShuttingDown),
        }
    }
}

/// The serving subsystem entry point.
pub struct Server;

impl Server {
    /// Starts a validating builder for a server over `expander`'s
    /// taxonomy (the [`taxo_expand::PipelineConfig::builder`] style).
    ///
    /// The expander is consumed at [`ServerBuilder::bind`]: it moves
    /// onto the ingest thread, which owns all mutable state.
    pub fn builder(expander: IncrementalExpander, vocab: Arc<Vocabulary>) -> ServerBuilder {
        ServerBuilder {
            expander,
            vocab,
            cfg: ServeConfig::default(),
            durability: DurabilityConfig::Volatile,
            initial_version: 0,
            recovered: false,
        }
    }

    /// Rebuilds the expander state a durable server had reached before a
    /// crash (or clean stop): loads the state file, truncates any torn
    /// final WAL record, and replays the WAL from the state's offset. Pass the
    /// result to [`ServerBuilder::recovered`] to resume serving.
    ///
    /// `detector` and `cfg` are the frozen training-time artifacts the
    /// original server ran with; they are not persisted.
    pub fn recover(
        dir: &Path,
        detector: HypoDetector,
        cfg: ExpansionConfig,
        vocab: &Vocabulary,
    ) -> Result<(IncrementalExpander, RecoveryReport), ServeError> {
        Ok(durable::recover(dir, detector, cfg, vocab)?)
    }
}

/// Validating builder for a server; construct via [`Server::builder`].
pub struct ServerBuilder {
    expander: IncrementalExpander,
    vocab: Arc<Vocabulary>,
    cfg: ServeConfig,
    durability: DurabilityConfig,
    initial_version: u64,
    recovered: bool,
}

impl ServerBuilder {
    /// Replaces the sizing configuration (validated at bind).
    pub fn config(mut self, cfg: ServeConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Selects the durability mode (validated at bind). Defaults to
    /// [`DurabilityConfig::Volatile`].
    pub fn durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = durability;
        self
    }

    /// Marks this server as resuming from a [`Server::recover`] run: the
    /// snapshot version ledger continues from the recovered version, and
    /// an existing state file in the durability directory is expected
    /// rather than refused.
    pub fn recovered(mut self, report: &RecoveryReport) -> Self {
        self.initial_version = report.final_version;
        self.recovered = true;
        self
    }

    /// Binds the listener and starts every server thread (use port 0
    /// for an ephemeral port; read it back from [`ServerHandle::addr`]).
    ///
    /// With [`DurabilityConfig::Wal`], also initializes the durability
    /// directory: opens the WAL for appending and checkpoints the
    /// starting state into the state file — so a crash at any later
    /// point recovers at least the state served at bind time.
    pub fn bind(self, addr: impl ToSocketAddrs) -> Result<ServerHandle, ServeError> {
        let ServerBuilder {
            mut expander,
            vocab,
            cfg,
            durability,
            initial_version,
            recovered,
        } = self;
        cfg.validate()?;
        durability.validate()?;
        // Honour a TAXO_FAULTS chaos plan (no-op when the variable is
        // unset; harnesses that arm programmatically are unaffected
        // because an empty env never disarms).
        taxo_fault::arm_from_env();
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;

        let wal = match durability {
            DurabilityConfig::Volatile => None,
            DurabilityConfig::Wal {
                dir,
                fsync,
                snapshot_every,
            } => Some(init_durability(
                dir,
                fsync,
                snapshot_every,
                &vocab,
                &expander,
                initial_version,
                recovered,
            )?),
        };

        // The detector changes only when a promotion swaps in a retrained
        // one: until then, one Arc is shared by every snapshot the ingest
        // thread publishes — and so is its int8 twin, quantized once here.
        let detector = Arc::new(expander.detector().clone());
        let quant = Arc::new(QuantizedDetector::from_detector(Arc::clone(&detector)));
        // Version-0 fill of the score table: every pair a request can
        // name, scored once here instead of on the read path.
        {
            let _g = span!("serve.scores.initial_fill");
            expander.cover_window(&vocab, cfg.max_candidates);
        }
        let initial = build_snapshot(
            initial_version,
            &vocab,
            &detector,
            &quant,
            &expander,
            cfg.max_candidates,
        );
        let shared = Arc::new(Shared {
            score_queue: BoundedQueue::with_fault_points(
                cfg.score_queue_cap,
                "serve.queue.score.push",
                "serve.queue.score.pop",
            ),
            ingest_queue: BoundedQueue::with_fault_points(
                INGEST_QUEUE_CAP,
                "serve.queue.ingest.push",
                "serve.queue.ingest.pop",
            ),
            store: Arc::new(SnapshotStore::new(initial)),
            cache: ScoreCache::new(cfg.score_cache_cap),
            resp: ResponseCache::new(cfg.resp_cache_cap),
            shutdown: ShutdownSignal::new()?,
            crashed: AtomicBool::new(false),
            batches: AtomicU64::new(expander.batches() as u64),
            tap: Arc::new(ShadowTap::new(SHADOW_QUEUE_CAP)),
            cfg,
        });

        let mut threads = reactor::spawn("serve", listener, shared.cfg.reactor_threads, &shared)?;
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-scorer".into())
                    .spawn(move || scorer_loop(&shared))?,
            );
        }
        {
            let shared = Arc::clone(&shared);
            let vocab = Arc::clone(&vocab);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-ingest".into())
                    .spawn(move || ingest_loop(expander, &vocab, &shared, wal))?,
            );
        }

        Ok(ServerHandle {
            addr,
            shared,
            threads,
        })
    }
}

/// The ingest thread's durability state: the open WAL writer, the
/// policy knobs, and the version of the last state file written.
struct WalState {
    writer: WalWriter,
    dir: PathBuf,
    fsync: FsyncPolicy,
    snapshot_every: u64,
    /// Version of the state file on disk: written at bind (fresh or
    /// recovered) and by every successful checkpoint. Every WAL append
    /// takes a new version, so while the ledger still stands here the
    /// file covers the whole log.
    checkpointed: u64,
}

/// Prepares a durability directory at bind time: refuses to silently
/// shadow an existing state file (that is what [`Server::recover`] is
/// for), opens the WAL, and checkpoints the starting state.
fn init_durability(
    dir: PathBuf,
    fsync: FsyncPolicy,
    snapshot_every: u64,
    vocab: &Vocabulary,
    expander: &IncrementalExpander,
    initial_version: u64,
    recovered: bool,
) -> Result<WalState, ServeError> {
    std::fs::create_dir_all(&dir).map_err(WalError::Io)?;
    let state_file = dir.join(durable::STATE_FILE);
    if !recovered && state_file.try_exists().map_err(WalError::Io)? {
        return Err(ServeError::Config(TaxoError::invalid_config(
            "durability.dir",
            "already contains a state file; recover with Server::recover(...) and \
             resume via ServerBuilder::recovered(...), or point at a fresh directory",
        )));
    }
    let writer = WalWriter::open(&dir.join(durable::WAL_FILE))?
        .with_fault_points(durable::FAULT_APPEND, durable::FAULT_FSYNC);
    let checkpoint = durable::Checkpoint {
        version: initial_version,
        wal_offset: writer.offset(),
        state: expander.state(),
    };
    durable::persist_state(&dir, vocab, &checkpoint)?;
    gauge!("serve.wal.offset").set(writer.offset() as i64);
    Ok(WalState {
        writer,
        dir,
        fsync,
        snapshot_every,
        checkpointed: initial_version,
    })
}

/// A score job accepted into the scorer queue: everything needed to
/// rank, render, and cache the response once the scores come back.
pub(crate) struct PendingScore {
    pub(crate) id: Option<u64>,
    pub(crate) query: String,
    pub(crate) query_id: taxo_core::ConceptId,
    pub(crate) k: usize,
    pub(crate) tier: Tier,
    pub(crate) snapshot: Arc<ServeSnapshot>,
    pub(crate) items: Vec<taxo_core::ConceptId>,
}

impl Service for Shared {
    type Local = SnapshotReader;
    type Pending = PendingReq;
    type Payload = Payload;

    fn local(&self) -> SnapshotReader {
        self.store.reader()
    }

    fn dispatch(&self, reader: &mut SnapshotReader, lines: &[String], burst: &mut Burst<'_, Self>) {
        for line in lines {
            if !burst.open() {
                break;
            }
            process_line(line, self, reader, burst);
        }
    }

    fn render(&self, pending: PendingReq, payload: Option<Payload>) -> String {
        match (payload, pending) {
            (Some(Payload::Score(scores)), PendingReq::Score(ps)) => {
                render_score_reply(self, &ps, &scores)
            }
            (Some(Payload::Ingest(reply)), PendingReq::Ingest { id }) => {
                render_ingest_reply(id, *reply)
            }
            (None, PendingReq::Score(ps)) => protocol::error_response(ps.id, "shutting_down", None),
            (None, PendingReq::Ingest { id }) => {
                protocol::error_response(id, "shutting_down", None)
            }
            _ => unreachable!("completion kind matches the sink that queued it"),
        }
    }

    fn shutdown_signal(&self) -> &ShutdownSignal {
        &self.shutdown
    }

    fn idle_timeout(&self) -> Duration {
        self.cfg.idle_timeout
    }
}

/// Parses, dispatches and answers one request line: everything up to
/// (and including) the queue push — caches, epoch guard, shadow tap,
/// ledger counters, shedding. A queued job carries a completion sink for
/// the line's slot, made only at queue-push time (cache-hit requests
/// never touch one).
fn process_line(
    line: &str,
    shared: &Shared,
    reader: &mut SnapshotReader,
    burst: &mut Burst<'_, Shared>,
) {
    let req = match protocol::parse_request(line) {
        Ok(req) => req,
        Err(e) => {
            counter!("serve.errors.bad_request").inc();
            return burst.ready(protocol::error_response(None, "bad_request", Some(&e)));
        }
    };
    let id = req.id();
    match req {
        Request::Score {
            query,
            k,
            tier,
            epoch,
            ..
        } => {
            counter!("serve.requests.score").inc();
            let outcome = {
                let _g = span!("serve.request.score");
                prepare_score(id, &query, k, tier, epoch, shared, reader, burst)
            };
            match outcome {
                Ok(response) => burst.ready(response),
                Err(pending) => burst.pending(PendingReq::Score(pending)),
            }
        }
        Request::Ingest { records, phase, .. } => {
            counter!("serve.requests.ingest").inc();
            let outcome = {
                let _g = span!("serve.request.ingest");
                prepare_ingest(id, records, phase, shared, burst)
            };
            match outcome {
                Some(response) => burst.ready(response),
                None => burst.pending(PendingReq::Ingest { id }),
            }
        }
        Request::Health { .. } => {
            counter!("serve.requests.health").inc();
            let response = {
                let _g = span!("serve.request.health");
                let snap = reader.current();
                protocol::health_response(
                    id,
                    snap.version,
                    snap.taxonomy.node_count(),
                    snap.taxonomy.edge_count(),
                    shared.batches.load(Ordering::Relaxed),
                    shared.is_shutdown(),
                )
            };
            burst.ready(response);
        }
        Request::Stats { .. } => {
            counter!("serve.requests.stats").inc();
            let response = {
                let _g = span!("serve.request.stats");
                protocol::stats_response(id, None, &taxo_obs::snapshot())
            };
            burst.ready(response);
        }
        Request::Shutdown { .. } => {
            counter!("serve.requests.shutdown").inc();
            shared.begin_shutdown();
            // Respond, then close; other connections finish buffered
            // work, and this read's later lines are dropped.
            burst.ready(protocol::shutdown_response(id));
            burst.close();
        }
    }
}

/// The score path. `Ok` carries a finished response (every f32 request,
/// an int8 cache hit, an error, a shed); `Err` means an int8 job was
/// accepted into the scorer queue carrying a sink for the burst's next
/// slot, and its completion renders via [`render_score_reply`].
#[allow(clippy::too_many_arguments)]
fn prepare_score(
    id: Option<u64>,
    query: &str,
    k: Option<usize>,
    tier: Option<Tier>,
    epoch: Option<u64>,
    shared: &Shared,
    reader: &mut SnapshotReader,
    burst: &Burst<'_, Shared>,
) -> Result<String, PendingScore> {
    let tier = tier.unwrap_or(shared.cfg.default_tier);
    if tier == Tier::Int8 {
        counter!("serve.quant.requests").inc();
    }
    let snapshot = Arc::clone(reader.current());
    // Epoch guard for sharded serving: the router stamps each forwarded
    // request with the version vector entry it read. Serving it at any
    // other version could mix epochs inside one client burst, so a
    // mismatch bounces back with the current version instead.
    if let Some(epoch) = epoch {
        if epoch != snapshot.version {
            counter!("serve.epoch.rejected").inc();
            return Ok(protocol::stale_epoch_response(id, snapshot.version));
        }
    }
    let Some(query_id) = snapshot.vocab.get(query) else {
        counter!("serve.errors.unknown_term").inc();
        return Ok(protocol::error_response(id, "unknown_term", Some(query)));
    };
    let k = k.unwrap_or(shared.cfg.default_k);

    // Shadow tap: mirror a deterministic sample of live traffic for the
    // control plane. The sample is taken before any caching decision so
    // the trainer sees the same distribution the server does, and the
    // live response below is computed exactly as if the tap were off —
    // shadow scoring happens on the trainer thread, against a candidate
    // snapshot, and its results never reach these caches.
    if shared.tap.sampled(query_id) {
        shared.tap.offer(ShadowSample {
            tier,
            query: query_id,
        });
    }

    // f32 requests are spliced on this thread from the snapshot's
    // response index, ranked and rendered once per snapshot on the write
    // path: no response cache, no queue hop, no scorer, and so never in
    // the accepted/completed ledger. A query without an entry has no
    // eligible candidates.
    if tier == Tier::F32 {
        let (response, candidates) = match snapshot.indexed_response(id, query_id, k) {
            Some(indexed) => indexed,
            None => {
                let v = snapshot.version;
                let empty = protocol::score_response(id, query, v, tier, &snapshot.vocab, &[]);
                (empty, 0)
            }
        };
        histogram!("serve.score.candidates").observe(candidates as u64);
        return Ok(response);
    }

    // int8 fastest path: a previously rendered response for this exact
    // (version, tier, query, k). Scoring is pure and rendering
    // deterministic, so splicing the cached tail under this request's
    // envelope is byte-identical to redoing the whole request.
    let rkey = (snapshot.version, tier, query_id, k as u64);
    if let Some(tail) = shared.resp.get(&rkey) {
        return Ok(protocol::splice_response(id, &tail));
    }

    let items = snapshot.eligible(query_id, shared.cfg.max_candidates);
    histogram!("serve.score.candidates").observe(items.len() as u64);
    if items.is_empty() {
        return Ok(render_ranked(shared, id, query, &snapshot, rkey, &[]));
    }

    // int8 fast path: when every pair is cached under this snapshot, answer
    // on the reactor thread — no queue, no scorer round trip. The cached
    // scores are bit-identical to recomputing, so responses are
    // indistinguishable from the slow path. The job never enters the
    // accepted/completed ledger (it is never enqueued).
    let mut cached = Vec::new();
    if shared
        .cache
        .get_all(snapshot.version, tier, query_id, &items, &mut cached)
    {
        counter!("serve.score.cached_requests").inc();
        let ranked = snapshot.rank(query_id, &items, &cached, k);
        return Ok(render_ranked(shared, id, query, &snapshot, rkey, &ranked));
    }

    let job = ScoreJob {
        snapshot: Arc::clone(&snapshot),
        tier,
        query: query_id,
        items: items.clone(),
        reply: ScoreSink::Reactor(burst.sink()),
    };
    match shared.score_queue.try_push(job) {
        Ok(depth) => {
            // Accepted-work ledger: every increment here must be matched
            // by a `serve.score.completed` increment in `score_batch` —
            // the chaos harness asserts the two counters are equal after
            // drain, which is the "shedding never drops an accepted job"
            // invariant in counter form.
            counter!("serve.score.accepted").inc();
            gauge!("serve.queue.score_depth").set(depth as i64);
            Err(PendingScore {
                id,
                query: query.to_owned(),
                query_id,
                k,
                tier,
                snapshot,
                items,
            })
        }
        Err(PushError::Full(job)) => {
            // The bounced job still owns a sink; cancel it so a reactor
            // completion slot is not filled twice (inline "busy" now plus
            // a Dead payload when the job drops).
            job.reply.cancel();
            counter!("serve.shed.score").inc();
            Ok(protocol::error_response(id, "busy", None))
        }
        Err(PushError::Closed(job)) => {
            job.reply.cancel();
            Ok(protocol::error_response(id, "shutting_down", None))
        }
    }
}

/// Ranks, renders, and caches one completed score: the same bytes — and
/// the same response-cache insert — as a cache-hit answer.
fn render_score_reply(shared: &Shared, ps: &PendingScore, scores: &[f32]) -> String {
    let ranked = ps.snapshot.rank(ps.query_id, &ps.items, scores, ps.k);
    let rkey = (ps.snapshot.version, ps.tier, ps.query_id, ps.k as u64);
    render_ranked(shared, ps.id, &ps.query, &ps.snapshot, rkey, &ranked)
}

/// Renders a ranked response, caches its tail under `rkey`, and splices
/// this request's id in front — the one rendering step of every scored
/// reply, however its scores were found.
fn render_ranked(
    shared: &Shared,
    id: Option<u64>,
    query: &str,
    snapshot: &ServeSnapshot,
    rkey: ResponseKey,
    ranked: &[ScoredCandidate],
) -> String {
    let tail =
        protocol::score_response_tail(query, snapshot.version, rkey.1, &snapshot.vocab, ranked);
    let response = protocol::splice_response(id, &tail);
    shared.resp.insert(rkey, tail.into());
    response
}

/// The ingest path up to (and including) the queue push. `Some` carries
/// a finished response (shed, shutdown); `None` means a batch was
/// accepted carrying a sink for the burst's next slot.
fn prepare_ingest(
    id: Option<u64>,
    records: Vec<IngestRecord>,
    phase: IngestPhase,
    shared: &Shared,
    burst: &Burst<'_, Shared>,
) -> Option<String> {
    counter!("serve.ingest.records_offered").add(records.len() as u64);
    match shared.ingest_queue.try_push(IngestJob::Batch {
        records,
        phase,
        reply: IngestSink::Reactor(burst.sink()),
    }) {
        Ok(depth) => {
            // Mirrors `serve.score.accepted`: paired with
            // `serve.ingest.applied` in the ingest loop. A simulated
            // crash breaks the pairing on purpose — accepted batches the
            // crash dropped are exactly the ones recovery re-resolves.
            counter!("serve.ingest.accepted").inc();
            gauge!("serve.queue.ingest_depth").set(depth as i64);
            None
        }
        Err(PushError::Full(job)) => {
            if let IngestJob::Batch { reply, .. } = &job {
                reply.cancel();
            }
            counter!("serve.shed.ingest").inc();
            Some(protocol::error_response(id, "busy", None))
        }
        Err(PushError::Closed(job)) => {
            if let IngestJob::Batch { reply, .. } = &job {
                reply.cancel();
            }
            Some(protocol::error_response(id, "shutting_down", None))
        }
    }
}

/// Renders one ingest completion.
fn render_ingest_reply(id: Option<u64>, reply: IngestReply) -> String {
    match reply {
        IngestReply::Applied(summary) => protocol::ingest_response(id, &summary, false),
        IngestReply::Prepared(summary) => protocol::ingest_response(id, &summary, true),
        IngestReply::Committed { version } => protocol::ingest_committed_response(id, version),
        IngestReply::Promoted { .. } => {
            unreachable!("wire ingest jobs never produce promote replies")
        }
        IngestReply::Rejected { code, detail } => protocol::error_response(id, code, Some(detail)),
    }
}

fn scorer_loop(shared: &Shared) {
    // Arena pool for the batched fast path: scorers grow to the largest
    // bucket shape once, then every batch reuses warm buffers.
    let pool = taxo_expand::ScratchPool::new();
    while let Some(jobs) = shared.score_queue.drain(shared.cfg.batch_max) {
        gauge!("serve.queue.score_depth").set(shared.score_queue.len() as i64);
        score_batch(jobs, &pool, &shared.cache);
    }
}

/// Collects one WAL commit group: the jobs already drained, topped up
/// from the queue until `max_ops` or `max_delay` under a
/// [`FsyncPolicy::Batch`] policy. It sleeps on the queue between jobs,
/// so a group costs one wake-up per job that joins it.
fn fill_commit_group<T>(jobs: &mut Vec<T>, queue: &BoundedQueue<T>, fsync: FsyncPolicy) {
    let FsyncPolicy::Batch { max_ops, max_delay } = fsync else {
        return;
    };
    let deadline = Instant::now() + max_delay;
    while jobs.len() < max_ops {
        match queue.drain_until(max_ops - jobs.len(), deadline) {
            Some(more) if !more.is_empty() => jobs.extend(more),
            // The window closed, or the queue closed and ran dry: commit
            // what we have.
            _ => return,
        }
    }
}

/// Fault point that crashes the server mid-promotion (after the empty
/// promotion op is durable, before the snapshot is published) — the
/// control-plane chaos suite's crash window.
pub const FAULT_PROMOTE: &str = "train.promote";

/// What the ingest loop decided to do with one job of a commit group.
/// Planned before the WAL write so that rejected jobs and commits (which
/// re-publish already-logged records) never reach the log, keeping the
/// WAL's version sequence dense for recovery.
#[derive(Clone, Copy)]
enum JobPlan {
    /// Build the snapshot at `version` — a batch by ingesting its
    /// records, a promotion by re-anchoring on its detector — then
    /// publish it now or, for a `prepare`, hold it for a commit.
    Apply { version: u64, publish: bool },
    /// Publish the held snapshot at this version.
    Commit(u64),
    /// Reply with the expander state; no version, nothing logged.
    Export,
    /// Refuse without side effects.
    Reject {
        code: &'static str,
        detail: &'static str,
    },
}

/// Plans every job of a commit group: assigns versions after
/// `ledger_version` and decides phase legality against the snapshot
/// held for commit (`pending`), so rejected jobs never consume a version
/// or a log record.
fn plan_group(jobs: &[IngestJob], ledger_version: u64, pending: Option<u64>) -> Vec<JobPlan> {
    let mut next_version = ledger_version;
    let mut pending = pending;
    jobs.iter()
        .map(|job| {
            let phase = match job {
                IngestJob::Batch { phase, .. } => *phase,
                // A promotion publishes in one step, like an `Auto` batch.
                IngestJob::Promote { .. } => IngestPhase::Auto,
                IngestJob::Export { .. } => return JobPlan::Export,
            };
            match phase {
                // Publishing or preparing here would expose the prepared
                // (not yet committed) state and regress the version order
                // at commit time.
                IngestPhase::Auto | IngestPhase::Prepare if pending.is_some() => JobPlan::Reject {
                    code: "prepare_pending",
                    detail: "a prepared snapshot awaits commit",
                },
                IngestPhase::Auto | IngestPhase::Prepare => {
                    next_version += 1;
                    let publish = phase == IngestPhase::Auto;
                    if !publish {
                        pending = Some(next_version);
                    }
                    JobPlan::Apply {
                        version: next_version,
                        publish,
                    }
                }
                IngestPhase::Commit => match pending.take() {
                    Some(v) => JobPlan::Commit(v),
                    None => JobPlan::Reject {
                        code: "no_prepared",
                        detail: "commit without a prepared snapshot",
                    },
                },
            }
        })
        .collect()
}

/// Appends and fsyncs one commit group (only the jobs whose plan applies
/// them). Returns the fault point name on an injected failure (the
/// caller crashes the server), with all successfully appended frames
/// possibly durable — recovery semantics, not rollback semantics.
fn wal_commit_group(
    wal: &mut WalState,
    jobs: &[IngestJob],
    plans: &[JobPlan],
) -> Result<(), &'static str> {
    let mut logged = 0u64;
    for (job, plan) in jobs.iter().zip(plans) {
        let JobPlan::Apply { version, .. } = *plan else {
            continue;
        };
        let records: &[IngestRecord] = match job {
            IngestJob::Batch { records, .. } => records,
            // A promotion consumes a version (caches and the epoch guard
            // key on it), so the WAL sequence must stay dense — but there
            // is nothing to replay: it logs an empty op.
            IngestJob::Promote { .. } => &[],
            IngestJob::Export { .. } => unreachable!("exports are never planned for the WAL"),
        };
        let payload = durable::encode_ingest_op(version, records);
        let before = wal.writer.offset();
        match wal.writer.append(payload.as_bytes()) {
            Ok(after) => {
                logged += 1;
                counter!("serve.wal.appends").inc();
                counter!("serve.wal.bytes").add(after - before);
            }
            Err(WalError::Injected(point)) => return Err(point),
            Err(e) => {
                eprintln!("# taxo-serve: wal append failed: {e}");
                return Err(durable::FAULT_APPEND);
            }
        }
    }
    if logged == 0 {
        return Ok(());
    }
    match wal.writer.sync() {
        Ok(()) => {
            counter!("serve.wal.fsyncs").inc();
            histogram!("serve.wal.group_ops").observe(logged);
            gauge!("serve.wal.offset").set(wal.writer.offset() as i64);
            Ok(())
        }
        Err(WalError::Injected(point)) => Err(point),
        Err(e) => {
            eprintln!("# taxo-serve: wal fsync failed: {e}");
            Err(durable::FAULT_FSYNC)
        }
    }
}

/// A prepared-but-unpublished snapshot held by the ingest thread
/// between the two phases of a coordinated swap.
struct PendingPublish {
    version: u64,
    snapshot: Arc<ServeSnapshot>,
    batch: u64,
}

/// The single writer: appends+fsyncs each commit group to the WAL (when
/// durable), applies its jobs to the owned [`IncrementalExpander`],
/// builds an immutable snapshot per versioned job, and publishes it (or
/// holds it for a commit). Readers keep serving the previous snapshot
/// throughout.
///
/// The version ledger is thread-local (`ledger_version`), not re-read
/// from the store: a prepared snapshot advances the expander past the
/// published version, and the next version must follow the expander.
///
/// A durable server checkpoints once per commit group, after applying
/// all of it, when the group carried the ledger across a multiple of
/// `snapshot_every` — and once more at graceful shutdown, unless the
/// state file already stands at the final version. Between groups the
/// expander holds every op in the WAL, so the state it writes covers the
/// WAL to its end.
fn ingest_loop(
    mut expander: IncrementalExpander,
    vocab: &Arc<Vocabulary>,
    shared: &Shared,
    mut wal: Option<WalState>,
) {
    let group_max = match wal.as_ref().map(|w| w.fsync) {
        Some(FsyncPolicy::Batch { max_ops, .. }) => max_ops.max(1),
        _ => 1,
    };
    let cap = shared.cfg.max_candidates;
    let mut ledger_version = shared.store.version();
    let mut pending: Option<PendingPublish> = None;
    // The snapshot built last (published or prepared): the next ingest's
    // snapshot is its successor, so detector-only work is not redone.
    let mut last = shared.store.load();
    while let Some(mut jobs) = shared.ingest_queue.drain(group_max) {
        // Durable path: collect the commit group, append every frame,
        // fsync once — the ack barrier — and only then apply and ack.
        if let Some(w) = wal.as_mut() {
            fill_commit_group(&mut jobs, &shared.ingest_queue, w.fsync);
        }
        let plans = plan_group(&jobs, ledger_version, pending.as_ref().map(|p| p.version));
        if let Some(w) = wal.as_mut() {
            let committed = {
                let _g = span!("serve.wal.commit");
                wal_commit_group(w, &jobs, &plans)
            };
            if let Err(point) = committed {
                // Simulated crash. Dropping `jobs` (and everything still
                // queued) drops their reply senders: clients see a dead
                // channel, the ambiguous no-ack a real crash produces.
                shared.crash(point);
                drop(jobs);
                drain_orphans(shared);
                return;
            }
        }
        let group_start = ledger_version;
        for (job, plan) in jobs.into_iter().zip(plans) {
            let (job, version, publish) = match (job, plan) {
                (IngestJob::Export { reply }, _) => {
                    counter!("serve.control.exports").inc();
                    let _ = reply.send((ledger_version, expander.state()));
                    continue;
                }
                (
                    IngestJob::Batch { reply, .. } | IngestJob::Promote { reply, .. },
                    JobPlan::Reject { code, detail },
                ) => {
                    counter!("serve.ingest.rejected").inc();
                    reply.send(IngestReply::Rejected { code, detail });
                    continue;
                }
                (
                    IngestJob::Batch { reply, .. } | IngestJob::Promote { reply, .. },
                    JobPlan::Commit(v),
                ) => {
                    let held = pending.take().expect("plan guarantees a pending snapshot");
                    debug_assert_eq!(held.version, v);
                    shared.store.publish(Arc::clone(&held.snapshot));
                    shared.batches.store(held.batch, Ordering::Relaxed);
                    counter!("serve.ingest.applied").inc();
                    counter!("serve.ingest.committed").inc();
                    reply.send(IngestReply::Committed { version: v });
                    continue;
                }
                (job, JobPlan::Apply { version, publish }) => (job, version, publish),
                (_, JobPlan::Export) => unreachable!("only export jobs are planned as exports"),
            };
            // Build the next snapshot: `summary` is a batch's report, `None`
            // for a promotion.
            let (next, summary, reply) = match job {
                IngestJob::Batch { records, reply, .. } => {
                    // Delay-only chaos point: a slow rebuild stalls the
                    // single writer and backs pressure up into the ingest
                    // queue.
                    let _ = taxo_fault::inject("serve.ingest.apply");
                    let _g = span!("serve.ingest.apply");
                    let (records, matched, skipped) = durable::match_records(vocab, &records);
                    counter!("serve.ingest.records_matched").add(matched);
                    counter!("serve.ingest.records_skipped").add(skipped);
                    let report = expander.ingest(vocab, &records);
                    let next = {
                        let _g = span!("serve.ingest.rebuild");
                        last.successor(
                            version,
                            expander.taxonomy().clone(),
                            expander.candidates(),
                            expander.changes(),
                            expander.scores(),
                        )
                    };
                    let summary = IngestSummary {
                        batch: report.batch as u64,
                        matched,
                        skipped,
                        attached: report.attached.len() as u64,
                        known_pairs: report.known_pairs as u64,
                        total_relations: report.total_relations as u64,
                        version,
                    };
                    (next, Some(summary), reply)
                }
                IngestJob::Promote { detector, reply } => {
                    if !matches!(
                        taxo_fault::inject(FAULT_PROMOTE),
                        taxo_fault::Injection::Pass
                    ) {
                        // Crash mid-promotion: the empty promotion op is
                        // already durable but the snapshot never publishes.
                        // Recovery replays the op and converges at
                        // `version` — the client's ack (like any crashed
                        // ingest ack) is dropped, never doubled.
                        shared.crash(FAULT_PROMOTE);
                        drop(reply);
                        drain_orphans(shared);
                        return;
                    }
                    let _g = span!("serve.promote.apply");
                    // The expander re-anchors on the promoted detector:
                    // future ingest attachment decisions are made by the
                    // model that is actually serving. Its score table
                    // starts empty and is refilled once, by this detector.
                    expander = IncrementalExpander::restore(
                        (*detector).clone(),
                        expander.expansion_config().clone(),
                        expander.state(),
                    );
                    expander.cover_window(vocab, cap);
                    let quant = Arc::new(QuantizedDetector::from_detector(Arc::clone(&detector)));
                    let next = build_snapshot(version, vocab, &detector, &quant, &expander, cap);
                    counter!("serve.promote.applied").inc();
                    (next, None, reply)
                }
                IngestJob::Export { .. } => unreachable!("exports are never planned to apply"),
            };
            // Publish or hold: the one tail of every versioned job.
            let next = Arc::new(next);
            let batch = expander.batches() as u64;
            ledger_version = version;
            last = Arc::clone(&next);
            counter!("serve.ingest.applied").inc();
            if publish {
                shared.store.publish(next);
                shared.batches.store(batch, Ordering::Relaxed);
            } else {
                pending = Some(PendingPublish {
                    version,
                    snapshot: next,
                    batch,
                });
                counter!("serve.ingest.prepared").inc();
            }
            reply.send(match summary {
                Some(summary) if publish => IngestReply::Applied(summary),
                Some(summary) => IngestReply::Prepared(summary),
                None => IngestReply::Promoted { version },
            });
        }
        // Only here, with the whole group applied, does the WAL's end
        // mark what the expander holds.
        if let Some(w) = wal.as_mut() {
            if ledger_version / w.snapshot_every > group_start / w.snapshot_every {
                checkpoint(w, ledger_version, vocab, &expander);
            }
        }
    }
    // Graceful shutdown: checkpoint the final state so a restart
    // replays nothing, unless the state file already stands at the
    // final version (and so covers the whole log). Skipped after a
    // simulated crash — that is the whole point of the crash. The
    // checkpoint is at `ledger_version`, not the published version: an
    // uncommitted prepare is already in the expander (and the WAL), so a
    // restart resumes past it — the same at-least-prepared outcome a
    // crash would leave behind.
    if let Some(w) = wal.as_mut() {
        if !shared.is_crashed() && w.checkpointed != ledger_version {
            checkpoint(w, ledger_version, vocab, &expander);
        }
    }
}

/// Freezes the expander's current state as the snapshot for `version`,
/// sharing its score table and rendering its response index under the
/// serving cap `cap`.
fn build_snapshot(
    version: u64,
    vocab: &Arc<Vocabulary>,
    detector: &Arc<HypoDetector>,
    quant: &Arc<QuantizedDetector>,
    expander: &IncrementalExpander,
    cap: usize,
) -> ServeSnapshot {
    ServeSnapshot::build_scored(
        version,
        Arc::clone(vocab),
        Arc::clone(detector),
        Arc::clone(quant),
        expander,
        cap,
    )
}

/// Post-crash cleanup: drains and drops everything still queued so
/// blocked clients see a dead channel instead of hanging forever.
fn drain_orphans(shared: &Shared) {
    while let Some(orphans) = shared.ingest_queue.try_drain(usize::MAX) {
        if orphans.is_empty() {
            break;
        }
        drop(orphans);
    }
}

/// Replaces the state file with the expander at `version`, covering the
/// WAL to its end — so it runs only between commit groups, when the
/// expander holds every op the WAL does — and records `version` as the
/// file's. A failed (or injected) write is tolerable: the WAL still
/// holds every acked batch, so recovery just replays a longer tail.
fn checkpoint(w: &mut WalState, version: u64, vocab: &Vocabulary, expander: &IncrementalExpander) {
    let _g = span!("serve.wal.checkpoint");
    let checkpoint = durable::Checkpoint {
        version,
        wal_offset: w.writer.offset(),
        state: expander.state(),
    };
    match durable::persist_state(&w.dir, vocab, &checkpoint) {
        Ok(()) => w.checkpointed = version,
        Err(e) => {
            counter!("serve.wal.snapshot_errors").inc();
            eprintln!("# taxo-serve: checkpoint skipped: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WINDOW: FsyncPolicy = FsyncPolicy::Batch {
        max_ops: 4,
        max_delay: Duration::from_millis(5),
    };

    #[test]
    fn a_job_pushed_inside_the_window_joins_the_group() {
        // A push that lands after the window closed proves nothing, so a
        // run the scheduler delayed that long is retried.
        for _ in 0..20 {
            let queue = Arc::new(BoundedQueue::new(8));
            let start = Instant::now();
            let pusher = {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    let at = start + Duration::from_millis(1);
                    std::thread::sleep(at.saturating_duration_since(Instant::now()));
                    queue.try_push(2).expect("room in the queue");
                    Instant::now()
                })
            };
            let mut jobs = vec![1];
            fill_commit_group(&mut jobs, &queue, WINDOW);
            let pushed = pusher.join().expect("pusher");
            if pushed < start + Duration::from_millis(5) {
                assert_eq!(jobs, vec![1, 2], "a job pushed inside the window");
                return;
            }
        }
        panic!("no push landed inside the 5-ms window in 20 tries");
    }

    #[test]
    fn a_lone_job_commits_no_earlier_than_max_delay() {
        let queue = BoundedQueue::new(8);
        let mut jobs = vec![1];
        let start = Instant::now();
        fill_commit_group(&mut jobs, &queue, WINDOW);
        assert!(start.elapsed() >= Duration::from_millis(5));
        assert_eq!(jobs, vec![1]);
    }
}
