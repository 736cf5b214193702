//! Event-driven connection multiplexing: a std-only epoll reactor, the
//! server's connection data plane.
//!
//! The server runs `ServeConfig::reactor_threads` reactor threads (two by
//! default); the acceptor deals connections out to them round-robin.
//! Each owns one epoll instance plus per-connection state machines: an
//! incremental [`FrameDecoder`] over a reused read buffer, an ordered
//! response-slot queue (pipelined requests answer in request order even
//! when their scores complete out of order), and a write queue flushed
//! with vectored writes.
//!
//! Decoded requests flow through [`process_line`] into the server's
//! `BoundedQueue`s. f32 scores, health, stats and sheds are answered on
//! the reactor thread; a queued job (an int8 score, an ingest) carries a
//! [`CompletionSink`], and the reactor keeps serving other sockets until
//! the completion lands back in its [`Inbox`].
//!
//! # Readiness discipline (level-triggered, deliberately)
//!
//! Registrations never set `EPOLLET`. Level-triggered readiness means a
//! missed or coalesced event costs one extra `epoll_wait` round trip,
//! never a stuck connection — the simplest discipline that is correct
//! under fault injection (a dropped wakeup is recovered by the next
//! tick). The rules, which `reactor_respects_write_interest_discipline`
//! and `reactor_answers_a_pipelined_burst_then_half_close` in the
//! integration suite pin:
//!
//! * `EPOLLIN | EPOLLRDHUP` is always armed. A read that fills less
//!   than the read buffer ends the read burst: the socket is empty, and
//!   bytes or an EOF that arrive later fire again, so no `recv` is spent
//!   on `EAGAIN`.
//! * `EPOLLOUT` is armed **only while the write queue is non-empty**
//!   (each arming counts `serve.reactor.stalled_writes`), and disarmed
//!   the moment it drains — otherwise a mostly-idle writable socket
//!   would wake the reactor on every tick.
//! * The wake eventfd is read only on a tick where its token fired.
//!
//! # Chaos points
//!
//! [`FAULT_READ`] is consulted once per read and [`FAULT_WRITE`] once
//! per response frame, so an `nth` plan counts requests and responses;
//! [`FAULT_WAKEUP`] once per inbox ring.
//!
//! The module is std-only: the syscalls it needs (`epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, `eventfd`, plus `fcntl` for `O_NONBLOCK`)
//! are declared inline below; the crate is Linux-only.

use crate::protocol::{self, FrameDecoder};
use crate::server::{
    process_line, render_ingest_reply, render_score_reply, IngestReply, LineOutcome, PendingScore,
    Shared,
};
use crate::snapshot::SnapshotReader;
use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::raw::{c_int, c_uint, c_void};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use taxo_fault::FaultAction;
use taxo_obs::{counter, gauge};

/// Chaos point consulted once per read that returned bytes (`fail`
/// drops the connection with the bytes unconsumed, `short:N` keeps an
/// N-byte prefix, answers what it completes, then closes).
pub const FAULT_READ: &str = "serve.conn.read";
/// Chaos point consulted once per response frame, in response order
/// (`fail` loses this frame and every later one and drops the
/// connection once the earlier frames flush; `short:N` sends an N-byte
/// prefix of the frame first, so the tear is observable).
///
/// A `delay:MS` at either point holds that connection's output back for
/// MS (to the next 50 ms tick) while the reactor serves every other one.
pub const FAULT_WRITE: &str = "serve.conn.write";
/// Chaos point at [`Inbox::wake`]: `Fail` swallows the eventfd write (a
/// lost wakeup). The queued item is *not* lost — every reactor tick
/// re-drains its inbox, so the only effect is added latency, which is
/// exactly the hazard a lost wakeup has in production.
pub const FAULT_WAKEUP: &str = "reactor.wakeup";

/// How long a gracefully closed connection keeps reading (and
/// discarding) after its write half is shut, waiting for the peer's EOF.
const LINGER: Duration = Duration::from_millis(250);

/// Most frames one `writev` gathers.
const MAX_IOV: usize = 64;

// ---------------------------------------------------------------------
// Raw syscall surface (no libc crate; glibc-compatible declarations).
// ---------------------------------------------------------------------

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

/// Readable (also set on listen-socket accept readiness).
pub(crate) const EPOLLIN: u32 = 0x1;
/// Writable.
pub(crate) const EPOLLOUT: u32 = 0x4;
/// Error condition (always reported; never needs registering).
pub(crate) const EPOLLERR: u32 = 0x8;
/// Hangup (always reported; never needs registering).
pub(crate) const EPOLLHUP: u32 = 0x10;
/// Peer shut down its write half — lets a half-close surface as an
/// event instead of waiting for a zero-byte read.
pub(crate) const EPOLLRDHUP: u32 = 0x2000;

const EFD_CLOEXEC: c_int = 0o2000000;
const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
const O_NONBLOCK: c_int = 0o4000;
const EINTR: i32 = 4;

/// `struct epoll_event`. glibc packs it on x86_64 only (the kernel ABI
/// there predates the alignment rules); everywhere else it has natural
/// alignment — get this wrong and the kernel scribbles tokens at the
/// wrong offsets.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Sets `O_NONBLOCK` on a raw fd via `fcntl` (the std helper only exists
/// on socket types; the eventfd needs this too).
pub(crate) fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    let flags = cvt(unsafe { fcntl(fd, F_GETFL, 0) })?;
    cvt(unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) })?;
    Ok(())
}

/// An owned epoll instance.
pub(crate) struct Poller {
    epfd: RawFd,
}

impl Poller {
    pub(crate) fn new() -> io::Result<Poller> {
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        let evp = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut EpollEvent
        };
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, evp) })?;
        Ok(())
    }

    /// Registers `fd` with the given level-triggered interest set.
    pub(crate) fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Replaces the interest set of an already-registered fd.
    pub(crate) fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregisters `fd` (closing the fd does this implicitly; explicit
    /// removal keeps the kernel table tight on long-lived reactors).
    pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits up to `timeout_ms` for readiness; fills `events` and
    /// returns how many fired. `EINTR` is reported as zero events.
    pub(crate) fn wait(&self, events: &mut Events, timeout_ms: i32) -> io::Result<usize> {
        let n = unsafe {
            epoll_wait(
                self.epfd,
                events.buf.as_mut_ptr(),
                events.buf.len() as c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            events.filled = 0;
            let err = io::Error::last_os_error();
            if err.raw_os_error() == Some(EINTR) {
                return Ok(0);
            }
            return Err(err);
        }
        events.filled = n as usize;
        Ok(n as usize)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            close(self.epfd);
        }
    }
}

/// Reusable `epoll_wait` output buffer.
pub(crate) struct Events {
    buf: Vec<EpollEvent>,
    filled: usize,
}

impl Events {
    pub(crate) fn with_capacity(cap: usize) -> Events {
        Events {
            buf: vec![EpollEvent { events: 0, data: 0 }; cap.max(1)],
            filled: 0,
        }
    }

    /// The `(token, readiness)` pairs the last wait filled in.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        // Copy out of the (possibly packed) struct before field access.
        self.buf[..self.filled].iter().map(|ev| {
            let ev = *ev;
            (ev.data, ev.events)
        })
    }
}

/// A non-blocking eventfd used to interrupt a parked `epoll_wait` when
/// work arrives from another thread (acceptor, scorer, ingest).
struct WakeFd {
    fd: RawFd,
}

impl WakeFd {
    fn new() -> io::Result<WakeFd> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC) })?;
        if let Err(e) = set_nonblocking(fd) {
            unsafe {
                close(fd);
            }
            return Err(e);
        }
        Ok(WakeFd { fd })
    }

    fn ring(&self) {
        let one: u64 = 1;
        let _ = unsafe { write(self.fd, &one as *const u64 as *const c_void, 8) };
    }

    /// Resets the counter so the level-triggered registration stops
    /// reporting readable.
    fn drain(&self) {
        let mut buf = 0u64;
        let _ = unsafe { read(self.fd, &mut buf as *mut u64 as *mut c_void, 8) };
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

/// The epoll token space: connection tokens pack `slab index | gen<<32`
/// so a completion addressed to a closed-and-reused slot is detectably
/// stale; the wake eventfd gets the one token no connection can have.
const WAKE_TOKEN: u64 = u64::MAX;

fn pack_token(idx: usize, gen: u32) -> u64 {
    (idx as u64) | ((gen as u64) << 32)
}

fn token_idx(token: u64) -> usize {
    (token & 0xffff_ffff) as usize
}

fn token_gen(token: u64) -> u32 {
    (token >> 32) as u32
}

/// A completed job travelling back to the reactor that owns the
/// connection.
struct Completion {
    token: u64,
    slot: u64,
    payload: Payload,
}

/// What a completion carries.
pub(crate) enum Payload {
    Score(Vec<f32>),
    Ingest(Box<IngestReply>),
    /// The job was dropped without completing (teardown or simulated
    /// crash) — the reactor twin of a dead mpsc channel, rendered as a
    /// `shutting_down` error.
    Dead,
}

/// One reactor thread's mailbox: fresh connections from the acceptor
/// plus completions from the scorer/ingest threads, with an eventfd to
/// interrupt the parked `epoll_wait`.
pub(crate) struct Inbox {
    conns: Mutex<Vec<TcpStream>>,
    completions: Mutex<Vec<Completion>>,
    wake: WakeFd,
}

impl Inbox {
    pub(crate) fn push_conn(&self, stream: TcpStream) {
        self.conns
            .lock()
            .expect("reactor inbox poisoned")
            .push(stream);
        self.wake();
    }

    fn push_completion(&self, completion: Completion) {
        self.completions
            .lock()
            .expect("reactor inbox poisoned")
            .push(completion);
        self.wake();
    }

    /// Rings the eventfd. Under an injected [`FAULT_WAKEUP`] the ring is
    /// swallowed — the queued item still lands on the next tick, so a
    /// lost wakeup degrades latency, never correctness.
    pub(crate) fn wake(&self) {
        counter!("serve.reactor.wakeups").inc();
        if taxo_fault::should_fail(FAULT_WAKEUP) {
            return;
        }
        self.wake.ring();
    }

    fn take_conns(&self) -> Vec<TcpStream> {
        std::mem::take(&mut *self.conns.lock().expect("reactor inbox poisoned"))
    }

    fn take_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock().expect("reactor inbox poisoned"))
    }
}

/// Creates one reactor's poller + inbox pair, with the wake eventfd
/// already registered — called at bind time so epoll/eventfd setup
/// errors surface from `ServerBuilder::bind`, not a detached thread.
pub(crate) fn reactor_parts() -> io::Result<(Poller, Arc<Inbox>)> {
    let poller = Poller::new()?;
    let wake = WakeFd::new()?;
    poller.add(wake.fd, WAKE_TOKEN, EPOLLIN)?;
    let inbox = Arc::new(Inbox {
        conns: Mutex::new(Vec::new()),
        completions: Mutex::new(Vec::new()),
        wake,
    });
    Ok((poller, inbox))
}

/// The write half of a queued job's reply path on the reactor: fills one
/// response slot of one connection, at most once. Dropping it unsent
/// delivers [`Payload::Dead`] so an abandoned job still resolves its
/// slot (the connection would otherwise wait forever); [`cancel`]
/// suppresses that for jobs bounced at the queue — their slot was
/// already answered inline with `busy`/`shutting_down`.
///
/// [`cancel`]: CompletionSink::cancel
pub struct CompletionSink {
    inbox: Arc<Inbox>,
    token: u64,
    slot: u64,
    sent: AtomicBool,
}

impl CompletionSink {
    fn new(inbox: Arc<Inbox>, token: u64, slot: u64) -> CompletionSink {
        CompletionSink {
            inbox,
            token,
            slot,
            sent: AtomicBool::new(false),
        }
    }

    pub(crate) fn deliver(&self, payload: Payload) {
        if self.sent.swap(true, Ordering::AcqRel) {
            return;
        }
        self.inbox.push_completion(Completion {
            token: self.token,
            slot: self.slot,
            payload,
        });
    }

    pub(crate) fn cancel(&self) {
        self.sent.store(true, Ordering::Release);
    }
}

impl Drop for CompletionSink {
    fn drop(&mut self) {
        if !self.sent.swap(true, Ordering::AcqRel) {
            self.inbox.push_completion(Completion {
                token: self.token,
                slot: self.slot,
                payload: Payload::Dead,
            });
        }
    }
}

/// The response slot one request line owes: the slot is assigned
/// before dispatch, so a queued job's completion knows exactly which
/// response position of which connection it fills.
pub(crate) struct ReplyTo<'a> {
    inbox: &'a Arc<Inbox>,
    token: u64,
    slot: u64,
}

impl ReplyTo<'_> {
    /// A completion sink for this slot, made only when a job is queued.
    pub(crate) fn sink(&self) -> CompletionSink {
        CompletionSink::new(Arc::clone(self.inbox), self.token, self.slot)
    }
}

/// A queued request whose response slot is waiting on a completion.
enum PendingReq {
    Score(PendingScore),
    Ingest { id: Option<u64> },
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    token: u64,
    dec: FrameDecoder,
    /// Ordered response slots: slot `flush_base + i` lives at
    /// `slots[i]`; only a filled *prefix* may move to the write queue,
    /// which is what keeps pipelined responses in request order.
    flush_base: u64,
    next_slot: u64,
    slots: VecDeque<Option<String>>,
    /// Slots waiting on scorer/ingest completions.
    pending: HashMap<u64, PendingReq>,
    /// Encoded frames not yet written; `out_head` is the partial-write
    /// offset into the front frame.
    outq: VecDeque<Vec<u8>>,
    out_head: usize,
    /// Whether `EPOLLOUT` is currently armed.
    wants_writable: bool,
    /// Close once every owed response has flushed.
    closing: bool,
    /// An injected write fault cut the response stream: nothing after
    /// the cut is answered, and the connection closes once `outq`
    /// drains.
    torn: bool,
    /// An injected delay holds `outq` back until then; the tick's sweep
    /// releases it.
    hold_until: Option<Instant>,
    /// Set once the write half is shut: the deadline by which the
    /// lingering close gives up waiting for the peer's EOF.
    linger_until: Option<Instant>,
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream, token: u64, now: Instant) -> Conn {
        Conn {
            stream,
            token,
            dec: FrameDecoder::new(),
            flush_base: 0,
            next_slot: 0,
            slots: VecDeque::new(),
            pending: HashMap::new(),
            outq: VecDeque::new(),
            out_head: 0,
            wants_writable: false,
            closing: false,
            torn: false,
            hold_until: None,
            linger_until: None,
            last_activity: now,
        }
    }

    fn interest(&self) -> u32 {
        if self.wants_writable {
            EPOLLIN | EPOLLRDHUP | EPOLLOUT
        } else {
            EPOLLIN | EPOLLRDHUP
        }
    }

    /// Fills one response slot and moves the filled prefix to the write
    /// queue, consulting [`FAULT_WRITE`] once per frame.
    fn fill_slot(&mut self, slot: u64, response: String) {
        if self.torn {
            return;
        }
        let idx = (slot - self.flush_base) as usize;
        self.slots[idx] = Some(response);
        while let Some(Some(_)) = self.slots.front() {
            let mut frame = self
                .slots
                .pop_front()
                .flatten()
                .expect("front checked Some")
                .into_bytes();
            self.flush_base += 1;
            frame.push(b'\n');
            let fault = taxo_fault::fired(FAULT_WRITE);
            match fault {
                None | Some(FaultAction::Delay(_)) => {
                    self.outq.push_back(frame);
                    self.hold(fault);
                }
                // Injected write failure: this response and every later
                // one are lost; the client must retry elsewhere.
                Some(FaultAction::Fail) => return self.tear(),
                // Half-written frame: a prefix goes out before the
                // connection drops, so the tear is observable.
                Some(FaultAction::Short(n)) => {
                    frame.truncate(n);
                    self.outq.push_back(frame);
                    return self.tear();
                }
            }
        }
    }

    /// Holds the output back for an injected delay, if `fault` is one.
    fn hold(&mut self, fault: Option<FaultAction>) {
        if let Some(FaultAction::Delay(ms)) = fault {
            let until = Instant::now() + Duration::from_millis(ms);
            self.hold_until = self.hold_until.max(Some(until));
        }
    }

    /// Cuts the response stream after what `outq` already holds.
    fn tear(&mut self) {
        self.torn = true;
        self.closing = true;
        self.slots.clear();
        self.pending.clear();
    }

    /// Writes as much of the write queue as the socket takes, gathering
    /// up to [`MAX_IOV`] frames per syscall. `Ok(true)` means nothing is
    /// left that the socket could take now (drained, or held by an
    /// injected delay); `Ok(false)` means the socket is full; `Err` means
    /// the connection must drop.
    fn flush(&mut self) -> io::Result<bool> {
        if self.hold_until.is_some() {
            return Ok(true);
        }
        while !self.outq.is_empty() {
            let written = {
                let mut slices = [IoSlice::new(&[]); MAX_IOV];
                let mut used = 0;
                for (slice, frame) in slices.iter_mut().zip(&self.outq) {
                    *slice = IoSlice::new(frame);
                    used += 1;
                }
                slices[0] = IoSlice::new(&self.outq[0][self.out_head..]);
                self.stream.write_vectored(&slices[..used])
            };
            match written {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(mut n) => {
                    while n > 0 {
                        let avail = self.outq[0].len() - self.out_head;
                        if n >= avail {
                            n -= avail;
                            self.outq.pop_front();
                            self.out_head = 0;
                        } else {
                            self.out_head += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Whether every owed response has been rendered and flushed.
    fn drained(&self) -> bool {
        self.slots.is_empty() && self.pending.is_empty() && self.outq.is_empty()
    }
}

/// Connection table: slab with generation-stamped tokens so events and
/// completions addressed to a closed (and possibly reused) slot are
/// detectably stale.
struct Slab {
    conns: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    live: usize,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    fn insert(&mut self, make: impl FnOnce(u64) -> Conn) -> usize {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.conns.push(None);
                self.gens.push(0);
                self.conns.len() - 1
            }
        };
        let token = pack_token(idx, self.gens[idx]);
        self.conns[idx] = Some(make(token));
        self.live += 1;
        idx
    }

    fn get_mut(&mut self, token: u64) -> Option<&mut Conn> {
        let idx = token_idx(token);
        if idx >= self.conns.len() || self.gens[idx] != token_gen(token) {
            return None;
        }
        self.conns[idx].as_mut()
    }

    fn remove(&mut self, idx: usize) -> Option<Conn> {
        let conn = self.conns.get_mut(idx)?.take()?;
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
        Some(conn)
    }
}

/// One reactor thread: drains its inbox, waits for readiness, and drives
/// every connection state machine it owns until shutdown has closed the
/// last one.
pub(crate) fn run(poller: Poller, inbox: &Arc<Inbox>, shared: &Shared) {
    let mut reader = shared.store.reader();
    let mut slab = Slab::new();
    let mut events = Events::with_capacity(256);
    // Reused read buffer: every connection reads through this one chunk,
    // appending into its own decoder.
    let mut buf = vec![0u8; 16 * 1024];

    loop {
        let _ = poller.wait(&mut events, 50);
        // Reset the eventfd before taking the inbox, so a push racing the
        // take rings it again; and only when it fired, so a tick woken by
        // sockets alone reads nothing extra.
        if events.iter().any(|(token, _)| token == WAKE_TOKEN) {
            inbox.wake.drain();
        }
        // One clock read per tick stamps activity and drives the sweeps.
        let now = Instant::now();

        // Fresh connections from the acceptor. One that arrives after
        // shutdown began is registered anyway: the sweep below closes it
        // unread but lingering, so request bytes already sent by the peer
        // cannot turn the refusal into a reset.
        for stream in inbox.take_conns() {
            if set_nonblocking(stream.as_raw_fd()).is_err() {
                continue;
            }
            let idx = slab.insert(|token| Conn::new(stream, token, now));
            let conn = self_conn(&mut slab, idx);
            if poller
                .add(conn.stream.as_raw_fd(), conn.token, conn.interest())
                .is_err()
            {
                slab.remove(idx);
                continue;
            }
            gauge!("serve.reactor.conns").add(1);
        }

        // Completions from the scorer/ingest threads.
        for completion in inbox.take_completions() {
            let Some(conn) = slab.get_mut(completion.token) else {
                continue; // connection died while the job was in flight
            };
            let Some(req) = conn.pending.remove(&completion.slot) else {
                continue;
            };
            let response = match (completion.payload, req) {
                (Payload::Score(scores), PendingReq::Score(ps)) => {
                    render_score_reply(shared, &ps, &scores)
                }
                (Payload::Ingest(reply), PendingReq::Ingest { id }) => {
                    render_ingest_reply(id, *reply)
                }
                (Payload::Dead, PendingReq::Score(ps)) => {
                    protocol::error_response(ps.id, "shutting_down", None)
                }
                (Payload::Dead, PendingReq::Ingest { id }) => {
                    protocol::error_response(id, "shutting_down", None)
                }
                _ => unreachable!("completion kind matches the sink that queued it"),
            };
            conn.fill_slot(completion.slot, response);
            let idx = token_idx(completion.token);
            service_writes(&poller, &mut slab, idx);
        }

        // Socket readiness.
        for (token, readiness) in events.iter() {
            if token == WAKE_TOKEN {
                continue; // already drained above
            }
            if slab.get_mut(token).is_none() {
                continue; // stale event for a closed slot
            }
            let idx = token_idx(token);
            if readiness & EPOLLERR != 0 {
                close_conn(&poller, &mut slab, idx);
                continue;
            }
            if self_conn(&mut slab, idx).linger_until.is_some() {
                discard_reads(&poller, &mut slab, idx, &mut buf);
                continue;
            }
            if readiness & EPOLLOUT != 0 && !service_writes(&poller, &mut slab, idx) {
                continue;
            }
            if readiness & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 {
                if !service_reads(
                    &poller,
                    &mut slab,
                    idx,
                    &mut buf,
                    shared,
                    &mut reader,
                    inbox,
                    now,
                ) {
                    continue;
                }
                service_writes(&poller, &mut slab, idx);
            }
        }

        // Shutdown and idle sweeps (each tick; the 50ms wait timeout
        // bounds how stale they can run).
        let shutting_down = shared.is_shutdown();
        for idx in 0..slab.conns.len() {
            let Some(conn) = slab.conns[idx].as_mut() else {
                continue;
            };
            if let Some(deadline) = conn.linger_until {
                if now >= deadline {
                    close_conn(&poller, &mut slab, idx);
                }
                continue;
            }
            if conn.hold_until.is_some_and(|until| now >= until) {
                conn.hold_until = None;
                if !service_writes(&poller, &mut slab, idx) {
                    continue;
                }
            }
            let conn = self_conn(&mut slab, idx);
            if shutting_down {
                conn.closing = true;
            }
            if conn.closing && conn.drained() {
                linger_close(&poller, &mut slab, idx);
            } else if !conn.closing
                && conn.drained()
                && now.duration_since(conn.last_activity) >= shared.cfg.idle_timeout
            {
                counter!("serve.conn.idle_closed").inc();
                close_conn(&poller, &mut slab, idx);
            }
        }

        if shutting_down && slab.live == 0 {
            return;
        }
    }
}

fn self_conn(slab: &mut Slab, idx: usize) -> &mut Conn {
    slab.conns[idx].as_mut().expect("live slot")
}

fn close_conn(poller: &Poller, slab: &mut Slab, idx: usize) {
    if let Some(conn) = slab.remove(idx) {
        let _ = poller.delete(conn.stream.as_raw_fd());
        gauge!("serve.reactor.conns").add(-1);
        // conn drops here, closing the socket; in-flight jobs for it
        // complete normally and their completions are dropped as stale.
    }
}

/// Closes a connection that owes nothing more, without losing what it
/// already wrote. Closing a socket with unread request bytes in its
/// receive buffer makes Linux send RST, and the peer then loses
/// responses it has not read yet. So: shut the write half (the peer
/// reads every response, then EOF), read and discard until the peer's
/// EOF or [`LINGER`] elapses, and only then close. Level-triggered
/// readiness brings the connection back to [`discard_reads`] while
/// bytes are pending; the shutdown sweep enforces the deadline.
fn linger_close(poller: &Poller, slab: &mut Slab, idx: usize) {
    let conn = self_conn(slab, idx);
    if conn.stream.shutdown(Shutdown::Write).is_err() {
        close_conn(poller, slab, idx);
        return;
    }
    conn.linger_until = Some(Instant::now() + LINGER);
}

/// Reads a lingering connection until `WouldBlock`, discarding the
/// bytes; closes it at EOF or on error.
fn discard_reads(poller: &Poller, slab: &mut Slab, idx: usize, buf: &mut [u8]) {
    let conn = self_conn(slab, idx);
    loop {
        match conn.stream.read(buf) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    close_conn(poller, slab, idx);
}

/// Flushes a connection's write queue and maintains the `EPOLLOUT`
/// discipline. Returns false when the connection was closed or, owing
/// nothing more, began its lingering close.
fn service_writes(poller: &Poller, slab: &mut Slab, idx: usize) -> bool {
    let conn = self_conn(slab, idx);
    match conn.flush() {
        Ok(true) => {
            if conn.wants_writable {
                conn.wants_writable = false;
                let _ = poller.modify(conn.stream.as_raw_fd(), conn.token, conn.interest());
            }
            if conn.closing && conn.drained() {
                linger_close(poller, slab, idx);
                return false;
            }
            true
        }
        // A torn stream does not wait on a slow reader: what the peer
        // has not taken yet is lost with the connection.
        Ok(false) if conn.torn => {
            close_conn(poller, slab, idx);
            false
        }
        Ok(false) => {
            if !conn.wants_writable {
                // Stalled: the kernel buffer is full. Arm EPOLLOUT and
                // come back when the peer drains it.
                counter!("serve.reactor.stalled_writes").inc();
                conn.wants_writable = true;
                let _ = poller.modify(conn.stream.as_raw_fd(), conn.token, conn.interest());
            }
            true
        }
        Err(_) => {
            close_conn(poller, slab, idx);
            false
        }
    }
}

/// Reads until the socket is empty or at EOF, decodes complete frames,
/// and dispatches each through [`process_line`]. Returns false when the
/// connection was closed.
#[allow(clippy::too_many_arguments)]
fn service_reads(
    poller: &Poller,
    slab: &mut Slab,
    idx: usize,
    buf: &mut [u8],
    shared: &Shared,
    reader: &mut SnapshotReader,
    inbox: &Arc<Inbox>,
    now: Instant,
) -> bool {
    enum ReadEnd {
        Eof,
        Empty,
        Kill,
        /// Injected short read: keep what arrived, then close after
        /// flushing what is owed.
        ShortClose,
    }
    let end = {
        let conn = self_conn(slab, idx);
        loop {
            match conn.stream.read(buf) {
                Ok(0) => break ReadEnd::Eof,
                Ok(n) => {
                    conn.last_activity = now;
                    let fault = taxo_fault::fired(FAULT_READ);
                    match fault {
                        None | Some(FaultAction::Delay(_)) => {
                            conn.dec.push(&buf[..n]);
                            conn.hold(fault);
                        }
                        // Injected read failure: drop the connection with
                        // the bytes unconsumed (a reset mid-request).
                        Some(FaultAction::Fail) => break ReadEnd::Kill,
                        // Short read: keep a prefix of the chunk, then
                        // close.
                        Some(FaultAction::Short(keep)) => {
                            conn.dec.push(&buf[..keep.min(n)]);
                            break ReadEnd::ShortClose;
                        }
                    }
                    // A read short of the buffer emptied the socket.
                    if n < buf.len() {
                        break ReadEnd::Empty;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break ReadEnd::Empty,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break ReadEnd::Kill,
            }
        }
    };
    let mut saw_eof = false;
    match end {
        ReadEnd::Kill => {
            close_conn(poller, slab, idx);
            return false;
        }
        ReadEnd::ShortClose => self_conn(slab, idx).closing = true,
        ReadEnd::Eof => saw_eof = true,
        ReadEnd::Empty => {}
    }

    // Dispatch every complete frame (even when closing: accepted bytes
    // get responses), unless a write fault has cut the response stream.
    loop {
        let conn = self_conn(slab, idx);
        if conn.torn {
            break;
        }
        let line = match conn.dec.next_frame() {
            Ok(Some(line)) => line,
            Ok(None) => break,
            // Unterminated overlong line: answer with bad_request and
            // close (the decoder cannot resynchronize).
            Err(e) => {
                counter!("serve.errors.bad_request").inc();
                let slot = conn.next_slot;
                conn.next_slot += 1;
                conn.slots.push_back(None);
                conn.fill_slot(
                    slot,
                    protocol::error_response(None, "bad_request", Some(&e.to_string())),
                );
                conn.closing = true;
                break;
            }
        };
        let slot = conn.next_slot;
        conn.next_slot += 1;
        conn.slots.push_back(None);
        let reply_to = ReplyTo {
            inbox,
            token: conn.token,
            slot,
        };
        match process_line(&line, shared, reader, &reply_to) {
            LineOutcome::Ready { response, close } => {
                let conn = self_conn(slab, idx);
                conn.fill_slot(slot, response);
                if close {
                    // Respond, then close; any frames still buffered
                    // after a shutdown request are dropped.
                    conn.closing = true;
                    break;
                }
            }
            LineOutcome::ScorePending(ps) => {
                self_conn(slab, idx)
                    .pending
                    .insert(slot, PendingReq::Score(ps));
            }
            LineOutcome::IngestPending { id } => {
                self_conn(slab, idx)
                    .pending
                    .insert(slot, PendingReq::Ingest { id });
            }
        }
    }

    if saw_eof {
        let conn = self_conn(slab, idx);
        if conn.drained() {
            close_conn(poller, slab, idx);
            return false;
        }
        // Half-close: the peer may still be reading; finish what we owe.
        conn.closing = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip_index_and_generation() {
        let token = pack_token(7, 42);
        assert_eq!(token_idx(token), 7);
        assert_eq!(token_gen(token), 42);
        assert_ne!(pack_token(7, 43), token);
        assert_ne!(token, WAKE_TOKEN);
    }

    #[test]
    fn wake_fd_rings_and_drains() {
        let wake = WakeFd::new().expect("eventfd");
        let poller = Poller::new().expect("epoll");
        poller.add(wake.fd, WAKE_TOKEN, EPOLLIN).expect("add");
        let mut events = Events::with_capacity(4);
        // Nothing rung yet: a zero-timeout wait sees nothing.
        assert_eq!(poller.wait(&mut events, 0).expect("wait"), 0);
        wake.ring();
        assert_eq!(poller.wait(&mut events, 1000).expect("wait"), 1);
        assert_eq!(events.iter().next(), Some((WAKE_TOKEN, EPOLLIN)));
        // Level-triggered: still readable until drained.
        assert_eq!(poller.wait(&mut events, 0).expect("wait"), 1);
        wake.drain();
        assert_eq!(poller.wait(&mut events, 0).expect("wait"), 0);
    }

    #[test]
    fn slab_detects_stale_tokens_after_reuse() {
        // Conn is hard to fabricate without a socket; use a real pair.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let make_conn = |token: u64| {
            let client = TcpStream::connect(addr).expect("connect");
            let (server, _) = listener.accept().expect("accept");
            std::mem::forget(client);
            Conn::new(server, token, Instant::now())
        };
        let mut slab = Slab::new();
        let idx = slab.insert(make_conn);
        let token = slab.conns[idx].as_ref().expect("live").token;
        assert!(slab.get_mut(token).is_some());
        slab.remove(idx);
        assert!(slab.get_mut(token).is_none(), "stale token must miss");
        let idx2 = slab.insert(make_conn);
        assert_eq!(idx2, idx, "slot is reused");
        assert!(
            slab.get_mut(token).is_none(),
            "old-generation token must miss the reused slot"
        );
    }
}
