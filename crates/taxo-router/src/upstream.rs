//! Per-worker shard connections with chaos injection points.
//!
//! Each router worker owns one lazy connection per shard, reused across
//! the client connections *and bursts* it serves — reconnects happen
//! only after a transport failure, counted by
//! `serve.router.upstream_reconnects` (pinned at zero by the fixed-trace
//! metrics determinism test: a healthy run never reopens). A transport
//! failure anywhere — injected or real — resets the connection; the
//! routing layer retries the *whole* burst against fresh connections, so
//! a half-exchanged pipeline can never leave orphaned responses to
//! desynchronize the next request.
//!
//! Responses are reassembled by the shared incremental
//! [`FrameDecoder`] (no `BufReader`, no fd-duplicating `try_clone`),
//! which is what lets [`recv_multi`] drain **all shards of a fan-out
//! concurrently** over one epoll instance: the burst's wall-clock is
//! the *slowest* shard, not the sum.
//!
//! Fault points (see `taxo-fault`):
//! * [`FAULT_CONNECT`] — upstream connect refused.
//! * [`FAULT_WRITE`] — forwarded frame lost (`fail`) or torn
//!   mid-line (`short:N`), then the connection drops.
//! * [`FAULT_READ`] — shard response lost; connection drops. Consulted
//!   once per shard per drain, in shard order, on both drain paths
//!   ([`Upstream::recv`] and [`recv_multi`]).
//! * [`FAULT_SLOW`] — a slow shard (`delay:MS` stalls the exchange).

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};
use taxo_obs::counter;
use taxo_serve::reactor::{Events, Poller, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLRDHUP};
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

struct Conn {
    stream: TcpStream,
    dec: FrameDecoder,
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

/// One shard connection, owned by one router worker.
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
            let mut chunk = [0u8; 4096];
            // `SO_RCVTIMEO` bounds each read; the deadline bounds the
            // whole drain so a trickling shard cannot stall forever.
            let deadline = Instant::now() + read_timeout;
            loop {
                conn.pop_into(&mut lines, expect)?;
                if lines.len() == expect {
                    return Ok(lines);
                }
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        return Err(std::io::Error::new(
                            ErrorKind::UnexpectedEof,
                            "shard closed the connection",
                        ));
                    }
                    Ok(n) => conn.dec.push(&chunk[..n]),
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        if Instant::now() >= deadline {
                            return Err(ErrorKind::TimedOut.into());
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
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

/// Drains a fan-out: for each `(shard, expect)` in `plan`, reads
/// `expect` response lines from `ups[shard]`, returning the line groups
/// in plan order. All shards drain concurrently over one epoll
/// instance; fault points fire per shard in plan order first, so a
/// seeded chaos plan replays identically whatever order the shards
/// answer in.
///
/// Any failure resets the failed connection and returns the error; the
/// caller discards the whole burst (resetting the rest of the group)
/// and retries, exactly as with sequential [`Upstream::recv`] failures.
pub fn recv_multi(
    ups: &mut [Upstream],
    plan: &[(u32, usize)],
) -> std::io::Result<Vec<Vec<String>>> {
    // Fault points first, in deterministic (plan) order — decoupled from
    // readiness-arrival order so chaos seeds replay identically.
    for &(shard, _) in plan {
        let _ = taxo_fault::inject(FAULT_SLOW);
        if taxo_fault::should_fail(FAULT_READ) {
            ups[shard as usize].reset();
            return Err(injected("upstream read"));
        }
    }

    /// Per-shard drain progress, indexed by plan position (= epoll
    /// token).
    struct SlotState {
        shard: u32,
        expect: usize,
        got: Vec<String>,
        done: bool,
    }

    // Restores every involved connection to blocking mode on exit, even
    // on the error paths — `send`/`recv` assume blocking sockets.
    struct RestoreBlocking<'a> {
        ups: &'a mut [Upstream],
        shards: Vec<u32>,
    }
    impl Drop for RestoreBlocking<'_> {
        fn drop(&mut self) {
            for &shard in &self.shards {
                if let Some(conn) = self.ups[shard as usize].conn.as_mut() {
                    // A connection that cannot return to blocking mode
                    // is unusable for the next (blocking) exchange.
                    if conn.stream.set_nonblocking(false).is_err() {
                        self.ups[shard as usize].reset();
                    }
                }
            }
        }
    }

    let read_timeout = plan
        .iter()
        .map(|&(shard, _)| ups[shard as usize].read_timeout)
        .max()
        .unwrap_or(Duration::from_secs(5));
    let guard = RestoreBlocking {
        ups,
        shards: plan.iter().map(|&(shard, _)| shard).collect(),
    };
    let ups = &mut *guard.ups;

    let poller = Poller::new()?;
    let mut states: Vec<SlotState> = Vec::with_capacity(plan.len());
    for (pos, &(shard, expect)) in plan.iter().enumerate() {
        let conn = ups[shard as usize].ensure()?;
        conn.stream.set_nonblocking(true)?;
        let mut state = SlotState {
            shard,
            expect,
            got: Vec::with_capacity(expect),
            done: false,
        };
        // Pipelined leftovers may already satisfy this shard without a
        // single readiness event.
        let popped = conn.pop_into(&mut state.got, expect);
        if popped.is_err() {
            ups[shard as usize].reset();
            return Err(popped.expect_err("checked above"));
        }
        state.done = state.got.len() == expect;
        if !state.done {
            let fd = conn.stream.as_raw_fd();
            poller.add(fd, pos as u64, EPOLLIN | EPOLLRDHUP)?;
        }
        states.push(state);
    }

    let deadline = Instant::now() + read_timeout;
    let mut events = Events::with_capacity(plan.len().max(8));
    let mut chunk = [0u8; 4096];
    while states.iter().any(|s| !s.done) {
        let now = Instant::now();
        if now >= deadline {
            for state in states.iter().filter(|s| !s.done) {
                ups[state.shard as usize].reset();
            }
            return Err(ErrorKind::TimedOut.into());
        }
        let wait_ms = (deadline - now).as_millis().clamp(1, 500) as i32;
        let fired = poller.wait(&mut events, wait_ms)?;
        if fired == 0 {
            continue;
        }
        for (token, readiness) in events.iter() {
            let pos = token as usize;
            if states[pos].done {
                continue;
            }
            let shard = states[pos].shard as usize;
            let result = (|| -> std::io::Result<()> {
                let conn = ups[shard].conn.as_mut().expect("registered above");
                if readiness & EPOLLERR != 0 {
                    return Err(std::io::Error::other("shard connection error"));
                }
                // Read until WouldBlock (level-triggered: anything left
                // re-fires next wait).
                loop {
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => {
                            // EOF: fatal unless the buffered bytes
                            // already complete the drain below.
                            break;
                        }
                        Ok(n) => conn.dec.push(&chunk[..n]),
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
                let state = &mut states[pos];
                let want = state.expect;
                conn.pop_into(&mut state.got, want)?;
                if state.got.len() == want {
                    state.done = true;
                    let _ = poller.delete(conn.stream.as_raw_fd());
                    return Ok(());
                }
                if readiness & (EPOLLRDHUP | EPOLLHUP) != 0 {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "shard closed the connection",
                    ));
                }
                Ok(())
            })();
            if result.is_err() {
                ups[shard].reset();
                return result.map(|_| Vec::new());
            }
        }
    }
    Ok(states.into_iter().map(|s| s.got).collect())
}
