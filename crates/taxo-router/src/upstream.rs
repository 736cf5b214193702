//! Per-thread shard connections with chaos injection points.
//!
//! Each router reactor thread owns one lazy connection per shard,
//! reused across the client connections *and bursts* it serves —
//! reconnects happen only after a transport failure, counted by
//! `serve.router.upstream_reconnects` (pinned at zero by the fixed-trace
//! metrics determinism test: a healthy run never reopens). A transport
//! failure anywhere — injected or real — resets the connection; the
//! routing layer retries the *whole* burst against fresh connections, so
//! a half-exchanged pipeline can never leave orphaned responses to
//! desynchronize the next request.
//!
//! Connections stay blocking, and [`Upstream::recv`] is the only drain:
//! responses are reassembled by the shared incremental [`FrameDecoder`]
//! (no `BufReader`, no fd-duplicating `try_clone`) from 16 KiB reads.
//! A fan-out writes every shard's frame before it drains any, then
//! drains the shards one after another. The shards work in parallel
//! meanwhile, and their responses wait in the socket buffers, so a
//! burst costs its slowest shard rather than the sum. A drain has one
//! deadline, `read_timeout` from its start, checked after every read
//! and capping each read's `SO_RCVTIMEO`, so a shard that trickles
//! bytes without finishing a line cannot hold the thread. A timeout too
//! long to add to the clock leaves the drain without a deadline.
//!
//! Fault points (see `taxo-fault`):
//! * [`FAULT_CONNECT`] — upstream connect refused.
//! * [`FAULT_WRITE`] — forwarded frame lost (`fail`) or torn
//!   mid-line (`short:N`), then the connection drops.
//! * [`FAULT_READ`] — shard response lost; connection drops. Consulted
//!   once per drain, after [`FAULT_SLOW`], so a fan-out consults them
//!   shard by shard in its plan order and stops at the first failure.
//! * [`FAULT_SLOW`] — a slow shard (`delay:MS` stalls the exchange).

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use taxo_obs::counter;
use taxo_serve::FrameDecoder;

/// Injected connect refusal.
pub const FAULT_CONNECT: &str = "router.upstream.connect";
/// Injected forwarded-frame loss or tear.
pub const FAULT_WRITE: &str = "router.upstream.write";
/// Injected response loss.
pub const FAULT_READ: &str = "router.upstream.read";
/// Delay-only point modelling a slow shard.
pub const FAULT_SLOW: &str = "router.upstream.slow";

fn injected(what: &str) -> std::io::Error {
    std::io::Error::other(format!("injected {what} fault"))
}

/// Bytes one read may take from a shard socket.
const READ_CHUNK: usize = 16 * 1024;

struct Conn {
    stream: TcpStream,
    dec: FrameDecoder,
    /// The socket's current `SO_RCVTIMEO`.
    rcv_timeout: Duration,
}

impl Conn {
    /// Pops already-buffered frames until `want` are collected or the
    /// decoder runs dry.
    fn pop_into(&mut self, lines: &mut Vec<String>, want: usize) -> std::io::Result<()> {
        while lines.len() < want {
            match self.dec.next_frame() {
                Ok(Some(line)) => lines.push(line),
                Ok(None) => return Ok(()),
                Err(e) => return Err(std::io::Error::other(e.to_string())),
            }
        }
        Ok(())
    }
}

/// One shard connection, owned by one router reactor thread.
pub struct Upstream {
    addr: SocketAddr,
    read_timeout: Duration,
    conn: Option<Conn>,
    /// Whether this upstream has ever connected — distinguishes the
    /// first lazy connect (free) from a *re*connect (a reuse failure,
    /// counted).
    ever_connected: bool,
}

impl Upstream {
    pub fn new(addr: SocketAddr, read_timeout: Duration) -> Upstream {
        Upstream {
            addr,
            read_timeout,
            conn: None,
            ever_connected: false,
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drops the connection; the next exchange reconnects.
    pub fn reset(&mut self) {
        self.conn = None;
    }

    fn ensure(&mut self) -> std::io::Result<&mut Conn> {
        if self.conn.is_none() {
            if taxo_fault::should_fail(FAULT_CONNECT) {
                return Err(injected("upstream connect"));
            }
            let stream = TcpStream::connect(self.addr)?;
            let _ = stream.set_nodelay(true);
            stream.set_read_timeout(Some(self.read_timeout))?;
            if self.ever_connected {
                counter!("serve.router.upstream_reconnects").inc();
            }
            self.ever_connected = true;
            self.conn = Some(Conn {
                stream,
                dec: FrameDecoder::new(),
                rcv_timeout: self.read_timeout,
            });
        }
        Ok(self.conn.as_mut().expect("just ensured"))
    }

    /// Writes one frame of newline-terminated request lines. On any
    /// failure (injected or real) the connection is dropped so no
    /// half-written line can linger.
    pub fn send(&mut self, frame: &str) -> std::io::Result<()> {
        debug_assert!(frame.ends_with('\n'));
        let result = (|| {
            let conn = self.ensure()?;
            match taxo_fault::inject(FAULT_WRITE) {
                taxo_fault::Injection::Pass => conn.stream.write_all(frame.as_bytes()),
                taxo_fault::Injection::Fail => Err(injected("upstream write")),
                // Torn shard connection: a prefix reaches the shard,
                // then the socket drops — the shard never sees a
                // complete line, the router never gets a response.
                taxo_fault::Injection::Short(n) => {
                    let _ = conn
                        .stream
                        .write_all(&frame.as_bytes()[..n.min(frame.len())]);
                    Err(injected("upstream short write"))
                }
            }
        })();
        if result.is_err() {
            self.reset();
        }
        result
    }

    /// Reads `expect` response lines (trimmed). Drops the connection on
    /// any failure, including timeout — the caller retries the burst.
    /// The whole drain must finish within `read_timeout` of its start.
    pub fn recv(&mut self, expect: usize) -> std::io::Result<Vec<String>> {
        let read_timeout = self.read_timeout;
        let result = (|| {
            let conn = self.ensure()?;
            // Slow-shard chaos point: the delay stalls this exchange
            // (and therefore the whole fan-out it belongs to).
            let _ = taxo_fault::inject(FAULT_SLOW);
            if taxo_fault::should_fail(FAULT_READ) {
                return Err(injected("upstream read"));
            }
            let mut lines = Vec::with_capacity(expect);
            let mut chunk = [0u8; READ_CHUNK];
            let deadline = Instant::now().checked_add(read_timeout);
            loop {
                conn.pop_into(&mut lines, expect)?;
                if lines.len() == expect {
                    return Ok(lines);
                }
                let left = deadline.map_or(read_timeout, |d| {
                    d.saturating_duration_since(Instant::now())
                });
                if left.is_zero() {
                    return Err(ErrorKind::TimedOut.into());
                }
                // Cap this read at the time left, rounded up to the
                // millisecond: a drain that ends within its first
                // millisecond, as a healthy one does, keeps the socket's
                // timeout and pays no extra syscall.
                let ms = u64::try_from(left.as_micros().div_ceil(1000)).unwrap_or(u64::MAX);
                let cap = Duration::from_millis(ms).min(read_timeout);
                if cap != conn.rcv_timeout {
                    conn.stream.set_read_timeout(Some(cap))?;
                    conn.rcv_timeout = cap;
                }
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        return Err(std::io::Error::new(
                            ErrorKind::UnexpectedEof,
                            "shard closed the connection",
                        ));
                    }
                    Ok(n) => conn.dec.push(&chunk[..n]),
                    Err(e)
                        if matches!(
                            e.kind(),
                            ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                        ) => {}
                    Err(e) => return Err(e),
                }
            }
        })();
        if result.is_err() {
            self.reset();
        }
        result
    }

    /// One request line, one response line.
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        debug_assert!(!line.contains('\n'));
        self.send(&format!("{line}\n"))?;
        Ok(self.recv(1)?.pop().expect("recv(1) returns one line"))
    }
}
