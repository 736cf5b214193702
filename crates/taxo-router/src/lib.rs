//! `taxo-router` — the sharded-serving front end.
//!
//! A single `taxo-serve` process holds the whole taxonomy; this crate
//! splits it across shards and puts a std-only router tier in front,
//! speaking the same line-delimited JSON wire protocol on both sides,
//! so existing [`taxo_serve::Client`]s (and `loadgen`) work unchanged.
//!
//! * **Routing** ([`ring`]): a consistent-hash ring over parent-concept
//!   keys with deterministic, seed-driven virtual-node placement.
//!   `score` and `ingest` route to the owning shard; `score` bursts,
//!   `health`, and `stats` fan out and merge.
//! * **Consistency** ([`vector`]): a coordinated per-shard version
//!   vector extends the single-process snapshot discipline across the
//!   tier — every fan-out is epoch-stamped, shards reject stale epochs,
//!   and multi-shard ingest runs a two-phase prepare/commit swap, so no
//!   client-visible burst ever mixes snapshot versions.
//! * **Fault tolerance** ([`upstream`]): `taxo-fault` injection points
//!   at the shard connections (connect refusal, torn writes, lost
//!   reads, slow shards); whole-burst retry against reset connections
//!   keeps forwarded responses bit-identical to what a healthy exchange
//!   would have produced, and idempotent scores plus shard-side WAL
//!   recovery keep ingest exactly-once.
//! * **Connections** ([`router`]): client connections are served by
//!   `taxo-serve`'s epoll reactor, the connection layer the shards run;
//!   each of its threads runs the route handlers inline over its own
//!   connection per shard, and closes a client silent for 30 s.
//!
//! ```no_run
//! use taxo_router::{Router, RouterConfig};
//!
//! let shards = vec!["127.0.0.1:7878".parse()?, "127.0.0.1:7879".parse()?];
//! let handle = Router::builder(shards)
//!     .config(RouterConfig::default())
//!     .bind("127.0.0.1:0")?;
//! println!("routing on {}", handle.addr());
//! handle.shutdown_and_join();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod ring;
pub mod router;
pub mod upstream;
pub mod vector;

pub use ring::HashRing;
pub use router::{Router, RouterBuilder, RouterConfig, RouterError, RouterHandle};
pub use upstream::{Upstream, FAULT_CONNECT, FAULT_READ, FAULT_SLOW, FAULT_WRITE};
pub use vector::VectorStore;
