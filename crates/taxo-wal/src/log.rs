//! The append-only log file: single-writer appends with injectable
//! faults, and offset-based replay with torn-tail truncation.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

use crate::frame::{decode_frame, encode_frame, FrameError};
use crate::WalError;

/// Single-writer handle to an append-only WAL file.
///
/// The writer tracks the durable byte offset itself (appends are the
/// only mutation), so `offset()` after a successful [`WalWriter::sync`]
/// is exactly the replay start a checkpoint of everything appended so
/// far should record.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    offset: u64,
    append_point: Option<&'static str>,
    fsync_point: Option<&'static str>,
}

impl WalWriter {
    /// Opens (creating if absent) the log at `path` for appending.
    pub fn open(path: &Path) -> Result<Self, WalError> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let offset = file.metadata()?.len();
        Ok(WalWriter {
            file,
            offset,
            append_point: None,
            fsync_point: None,
        })
    }

    /// Registers taxo-fault injection points for append and fsync.
    pub fn with_fault_points(mut self, append: &'static str, fsync: &'static str) -> Self {
        self.append_point = Some(append);
        self.fsync_point = Some(fsync);
        self
    }

    /// Bytes in the log as of the last successful append.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Appends one framed payload and returns the log length after it.
    ///
    /// Not durable until [`WalWriter::sync`] returns. An injected
    /// `Short(n)` fault writes only the first `n` bytes of the frame —
    /// a physically torn record, exactly what a crash mid-`write` leaves
    /// behind — and then fails.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, WalError> {
        use std::io::Write as _;
        let frame = encode_frame(payload);
        if let Some(point) = self.append_point {
            match taxo_fault::inject(point) {
                taxo_fault::Injection::Pass => {}
                taxo_fault::Injection::Fail => return Err(WalError::Injected(point)),
                taxo_fault::Injection::Short(n) => {
                    let cut = n.min(frame.len());
                    self.file.write_all(&frame[..cut])?;
                    // Make the tear durable, as a real crash after a
                    // partial write would.
                    let _ = self.file.sync_data();
                    return Err(WalError::Injected(point));
                }
            }
        }
        self.file.write_all(&frame)?;
        self.offset += frame.len() as u64;
        Ok(self.offset)
    }

    /// Fsyncs everything appended so far (the ack barrier).
    pub fn sync(&mut self) -> Result<(), WalError> {
        if let Some(point) = self.fsync_point {
            if !matches!(taxo_fault::inject(point), taxo_fault::Injection::Pass) {
                return Err(WalError::Injected(point));
            }
        }
        self.file.sync_data()?;
        Ok(())
    }
}

/// The outcome of scanning a log from a checkpoint's offset.
#[derive(Debug)]
pub struct Replay {
    /// Every valid payload at or after the start offset, in log order.
    pub payloads: Vec<Vec<u8>>,
    /// Log length through the last valid frame.
    pub valid_len: u64,
    /// Bytes after `valid_len` that do not form a valid frame — a torn
    /// final record or trailing garbage. Zero for a clean log.
    pub torn_bytes: u64,
}

/// Reads every valid frame of `path` starting at byte `from`, stopping
/// at the first invalid one. Reads nothing before `from` and does not
/// modify the file; a missing file replays as empty (a fresh log that
/// was never appended to).
pub fn replay(path: &Path, from: u64) -> Result<Replay, WalError> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(Replay {
                payloads: Vec::new(),
                valid_len: from,
                torn_bytes: 0,
            });
        }
        Err(e) => return Err(e.into()),
    };
    let total = file.metadata()?.len();
    if from > total {
        return Err(WalError::Corrupt {
            offset: from,
            detail: format!("replay offset {from} beyond log length {total}"),
        });
    }
    file.seek(SeekFrom::Start(from))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let mut pos = 0;
    let mut payloads = Vec::new();
    while pos < bytes.len() {
        match decode_frame(&bytes[pos..]) {
            Ok((payload, used)) => {
                payloads.push(payload.to_vec());
                pos += used;
            }
            // First invalid frame: everything from here to EOF is the
            // torn tail. Frames never resync mid-stream, so scanning
            // past a bad record would replay garbage.
            Err(
                FrameError::Incomplete | FrameError::TooLong { .. } | FrameError::BadCrc { .. },
            ) => {
                break;
            }
        }
    }
    Ok(Replay {
        payloads,
        valid_len: from + pos as u64,
        torn_bytes: (bytes.len() - pos) as u64,
    })
}

/// [`replay`], plus physical truncation of any torn tail so the next
/// writer appends after the last valid frame.
pub fn recover(path: &Path, from: u64) -> Result<Replay, WalError> {
    let r = replay(path, from)?;
    if r.torn_bytes > 0 {
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(r.valid_len)?;
        f.sync_data()?;
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "taxo-wal-unit-{}-{}-{name}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_sync_replay_round_trips() {
        let dir = scratch("roundtrip");
        let path = dir.join("wal.log");
        let mut w = WalWriter::open(&path).unwrap();
        let payloads: Vec<Vec<u8>> = (0..5).map(|i| format!("op-{i}").into_bytes()).collect();
        let mut offsets = vec![0u64];
        for p in &payloads {
            offsets.push(w.append(p).unwrap());
        }
        w.sync().unwrap();
        let r = replay(&path, 0).unwrap();
        assert_eq!(r.payloads, payloads);
        assert_eq!(r.valid_len, *offsets.last().unwrap());
        assert_eq!(r.torn_bytes, 0);
        // Replay from a mid-log offset sees only the tail.
        let tail = replay(&path, offsets[2]).unwrap();
        assert_eq!(tail.payloads, payloads[2..]);
        assert_eq!(tail.valid_len, *offsets.last().unwrap());
        assert_eq!(tail.torn_bytes, 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn recover_truncates_a_torn_tail_and_appends_continue() {
        let dir = scratch("torn");
        let path = dir.join("wal.log");
        let mut w = WalWriter::open(&path).unwrap();
        w.append(b"keep-me").unwrap();
        let good = w.offset();
        w.sync().unwrap();
        drop(w);
        // Simulate a crash mid-append: half a frame at the tail.
        let frame = encode_frame(b"torn-away");
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(f);

        // A replay from past the surviving frame sees only the tear.
        let tail = replay(&path, good).unwrap();
        assert!(tail.payloads.is_empty());
        assert_eq!(tail.valid_len, good);
        assert_eq!(tail.torn_bytes, (frame.len() / 2) as u64);

        let r = recover(&path, 0).unwrap();
        assert_eq!(r.payloads, vec![b"keep-me".to_vec()]);
        assert_eq!(r.valid_len, good);
        assert_eq!(r.torn_bytes, (frame.len() / 2) as u64);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good);

        // The reopened writer lands exactly after the surviving frame.
        let mut w2 = WalWriter::open(&path).unwrap();
        assert_eq!(w2.offset(), good);
        w2.append(b"after-recovery").unwrap();
        w2.sync().unwrap();
        let r2 = replay(&path, 0).unwrap();
        assert_eq!(
            r2.payloads,
            vec![b"keep-me".to_vec(), b"after-recovery".to_vec()]
        );
        assert_eq!(r2.torn_bytes, 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn missing_log_replays_empty() {
        let dir = scratch("missing");
        let r = replay(&dir.join("nope.log"), 0).unwrap();
        assert!(r.payloads.is_empty());
        assert_eq!(r.torn_bytes, 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn offset_beyond_log_is_corrupt() {
        let dir = scratch("beyond");
        let path = dir.join("wal.log");
        let mut w = WalWriter::open(&path).unwrap();
        w.append(b"x").unwrap();
        w.sync().unwrap();
        assert!(matches!(
            replay(&path, 10_000),
            Err(WalError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
