//! `taxo-serve` — the online query-serving subsystem.
//!
//! The offline side of the workspace trains a pipeline and expands a
//! taxonomy in one shot; this crate is the deployment shape the paper
//! describes — a continuously maintained taxonomy answering live
//! traffic. It is std-only (no tokio, no serde), matching the
//! workspace's vendored-deps constraint, and Linux-only:
//!
//! * **Connection reactor** ([`reactor`]): a few epoll threads multiplex
//!   every client connection; the acceptor deals connections out
//!   round-robin, and pipelined requests answer in request order.
//! * **Wire protocol** ([`protocol`]): line-delimited JSON over TCP with
//!   request kinds `score` (query term → ranked attachment candidates),
//!   `ingest` (new query–click evidence), `health`, `stats` (the
//!   taxo-obs snapshot), and `shutdown`.
//! * **Score table and response index** ([`snapshot`]): the
//!   [`taxo_expand::IncrementalExpander`] scores each candidate pair once
//!   per detector (at start-up and at ingest), and every snapshot ranks
//!   and renders each served query once from that table. An f32 `score`
//!   request is a lookup and a splice on the reactor thread.
//! * **Micro-batching** ([`batch`], int8 tier): concurrent `score`
//!   requests coalesce into one deduplicated, batched scoring sweep over
//!   the [`taxo_expand::BatchScorer`] fast path.
//! * **Score and response caching** ([`cache`], int8 tier): sharded
//!   LRUs keyed by `(snapshot_version, query, item)` and by
//!   `(snapshot_version, tier, query, k)`; cached requests are answered
//!   on the reactor thread without touching the scorer.
//! * **Hot-swapped snapshots** ([`snapshot`]): an immutable
//!   model+taxonomy [`ServeSnapshot`] behind a version-stamped store;
//!   the ingest thread rebuilds and atomically publishes, readers
//!   revalidate with one atomic load and never block on a swap.
//! * **Backpressure** ([`batch::BoundedQueue`]): every queue is bounded;
//!   overload sheds with a `busy` response instead of stalling sockets.
//! * **Graceful shutdown**: queues close-then-drain, so every accepted
//!   request gets a response before the threads exit.
//! * **Durability** ([`durable`], `crates/taxo-wal`): with
//!   [`DurabilityConfig::Wal`], ingest batches are appended to a
//!   CRC32-framed write-ahead log *before* they are acknowledged
//!   (append → fsync window → ack), the expander state is periodically
//!   checkpointed into one atomically replaced state file, and
//!   [`Server::recover`] rebuilds the exact pre-crash state —
//!   bit-identical scores included — from that state + WAL tail replay.
//!
//! # Determinism contract
//!
//! Served scores are **bit-identical** to offline
//! [`taxo_expand::EdgeClassifier`] scoring of the same pairs, at any
//! `TAXO_THREADS` setting and any batching: scoring is pure, `par_map`
//! preserves index order, ranking ties break on item id, and `f32`
//! scores travel as shortest round-trip decimals.
//!
//! ```no_run
//! use std::sync::Arc;
//! use taxo_serve::{Client, Server, ServeConfig};
//! # let (expander, vocab): (taxo_expand::IncrementalExpander, Arc<taxo_core::Vocabulary>) = todo!();
//!
//! let handle = Server::builder(expander, vocab)
//!     .config(ServeConfig::default())
//!     .bind("127.0.0.1:0")?;
//! let mut client = Client::connect(handle.addr())?;
//! let reply = client.score("potato chips", Some(5))?;
//! println!("{reply:?}");
//! client.shutdown()?;
//! handle.join();
//! # Ok::<(), taxo_serve::ServeError>(())
//! ```

#[cfg(not(target_os = "linux"))]
compile_error!("taxo-serve is Linux-only: its connection data plane is an epoll reactor");

pub mod batch;
pub mod cache;
pub mod client;
pub mod durable;
pub mod protocol;
pub mod reactor;
pub mod server;
pub mod shadow;
pub mod snapshot;

/// JSON codec shared with the rest of the workspace (re-exported from
/// `taxo_core` so existing `taxo_serve::json::...` paths keep working).
pub use taxo_core::json;

pub use batch::{BoundedQueue, PushError, ScoreJob, ScoreSink};
pub use cache::{ResponseCache, ScoreCache, ScoreKey};
pub use client::{candidate_key, expected_key, Client, ClientBuilder, Reply, RetryPolicy};
pub use durable::{DurabilityConfig, FsyncPolicy, RecoveryReport};
pub use protocol::{
    FrameDecoder, FrameTooLong, IngestPhase, IngestRecord, IngestSummary, Request, Tier, MAX_FRAME,
};
pub use server::{
    ControlError, ServeConfig, ServeController, ServeError, Server, ServerBuilder, ServerHandle,
    FAULT_PROMOTE,
};
pub use shadow::{ShadowSample, ShadowTap};
pub use snapshot::{ScoredCandidate, ServeSnapshot, SnapshotReader, SnapshotStore};
