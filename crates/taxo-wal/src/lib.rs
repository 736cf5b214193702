//! `taxo-wal` — durable storage primitives for the serving layer.
//!
//! The paper's system absorbs user-behavior evidence continuously; a
//! serving process that forgets every ingested click on restart cannot
//! play that role. This crate provides the two mechanisms taxo-serve
//! composes into append-before-ack durability:
//!
//! * **Write-ahead log** ([`WalWriter`], [`recover`]): ingest operations
//!   are appended as CRC32-framed, length-prefixed records
//!   (`[len: u32 LE][crc32(payload): u32 LE][payload]`) and fsynced —
//!   either per append or in group-commit batches — *before* the client
//!   sees an ack. Recovery replays frames from a checkpoint's byte
//!   offset and physically truncates a torn tail (an incomplete or
//!   CRC-corrupt final record left by a crash mid-write).
//! * **Atomic publish** ([`atomic_write`]): a checkpoint is written to a
//!   temp file, fsynced, renamed into place, and the parent directory
//!   fsynced — readers observe either the old complete file or the new
//!   complete file, never a half-written one.
//!
//! What a checkpoint holds, and so where replay starts, is the caller's
//! business: taxo-serve keeps one state file naming its version and WAL
//! offset, so recovery is always `load state + replay WAL[offset..]`.
//! Payload contents are opaque bytes here; taxo-serve encodes them with
//! the workspace JSON codec, whose raw-token numbers keep `f32` scores
//! bit-identical across the disk round trip.
//!
//! Fault injection: [`WalWriter`] accepts taxo-fault point names for its
//! append and fsync operations, so chaos tests can tear the final frame
//! ([`taxo_fault::Injection::Short`]) or fail an fsync at a seeded
//! operation index.

mod frame;
mod log;
mod store;

pub use frame::{crc32, decode_frame, encode_frame, FrameError, FRAME_HEADER, MAX_FRAME};
pub use log::{recover, replay, Replay, WalWriter};
pub use store::atomic_write;

use std::fmt;

/// Errors from WAL and checkpoint operations.
#[derive(Debug)]
pub enum WalError {
    /// An OS-level I/O failure.
    Io(std::io::Error),
    /// The log is corrupt in a way truncation cannot repair (reserved
    /// for callers that treat a torn tail as fatal).
    Corrupt { offset: u64, detail: String },
    /// A checkpoint or log record exists but does not decode.
    Format(String),
    /// A taxo-fault injection failed the operation at this point; the
    /// server treats it exactly like a crash.
    Injected(&'static str),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt { offset, detail } => {
                write!(f, "wal corrupt at byte {offset}: {detail}")
            }
            WalError::Format(detail) => write!(f, "undecodable durable state: {detail}"),
            WalError::Injected(point) => write!(f, "injected fault at {point}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}
