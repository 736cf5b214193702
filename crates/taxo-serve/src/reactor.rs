//! Event-driven connection multiplexing: a std-only epoll reactor, the
//! connection layer of both serving tiers.
//!
//! [`spawn`] starts an acceptor and a few reactor threads on one
//! listener; the acceptor deals connections out to them round-robin,
//! and between connections sleeps in `epoll_wait` on the listener and
//! the service's [`ShutdownSignal`].
//! Each reactor thread owns one epoll instance plus per-connection state
//! machines: an incremental [`FrameDecoder`] over a reused read buffer,
//! an ordered response-slot queue (pipelined requests answer in request
//! order even when their answers complete out of order), and a write
//! queue flushed with vectored writes.
//!
//! What a request line means is up to the [`Service`]: the server's
//! shared state implements it, and so does `taxo-router`'s router. The
//! reactor hands the service every complete line one read delivered as a
//! [`Burst`], and the service answers the lines in order. The server
//! answers f32 scores, health, stats and sheds inline, and queues int8
//! scores and ingests with a [`CompletionSink`]: the reactor keeps
//! serving other sockets until the completion lands back in its inbox,
//! then renders it with [`Service::render`]. The router routes a burst
//! to its shards and drains them inline, on the reactor thread.
//!
//! # Waiting
//!
//! An idle reactor sleeps in `epoll_wait` until the nearest deadline
//! among its connections — a lingering close, an injected output delay,
//! an idle close — and without bound when it has none: new connections,
//! completions and shutdown all ring its inbox eventfd. Each wake-up
//! (a *tick*) drains the inbox, serves ready sockets, then runs the
//! linger, delay, shutdown and idle sweeps. While a fault plan is armed
//! it ticks at least every 50 ms instead, so a ring swallowed by
//! [`FAULT_WAKEUP`] still lands within one tick.
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
//!   would wake the reactor at once, every time it waits.
//! * The wake eventfd is read only on a tick where its token fired.
//!
//! # Chaos points
//!
//! [`FAULT_READ`] is consulted once per read and [`FAULT_WRITE`] once
//! per response frame, so an `nth` plan counts requests and responses;
//! [`FAULT_WAKEUP`] once per inbox ring made while the reactor sleeps in
//! a fault tick; [`FAULT_ACCEPT`] once per
//! accepted connection. They fire on both tiers.
//!
//! The module is std-only: the syscalls it needs (`epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, `eventfd`, plus `fcntl` for `O_NONBLOCK`)
//! are declared inline below; the crate is Linux-only.

use crate::protocol::{self, FrameDecoder};
use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::raw::{c_int, c_uint, c_void};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
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
/// MS (the wait ends by the release) while the reactor serves every other
/// one.
pub const FAULT_WRITE: &str = "serve.conn.write";
/// Chaos point at each inbox ring made while the reactor sleeps in a
/// fault tick (a wait of at most 50 ms, which every wait is while a plan
/// is armed): `Fail` swallows the eventfd write (a lost wakeup). The
/// queued item is *not* lost — the tick ends and re-drains the inbox, so
/// the only effect is added latency, which is exactly the hazard a lost
/// wakeup has in production.
pub const FAULT_WAKEUP: &str = "reactor.wakeup";
/// Chaos point consulted once per accepted connection: `fail` drops the
/// stream before its first byte, the "connection drop" fault.
pub const FAULT_ACCEPT: &str = "serve.accept";

/// How long a gracefully closed connection keeps reading (and
/// discarding) after its write half is shut, waiting for the peer's EOF.
/// At shutdown, a connection that has written nothing for this long
/// closes at once instead: its peer has already had that long to read.
const LINGER: Duration = Duration::from_millis(250);

/// The longest a reactor waits while a fault plan is armed, so a ring
/// swallowed by [`FAULT_WAKEUP`] lands within one tick. Unarmed, a
/// reactor sleeps until its next connection deadline.
const FAULT_TICK_MS: i32 = 50;

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
/// The listener's token on the acceptor's own epoll instance.
const LISTEN_TOKEN: u64 = 0;

fn pack_token(idx: usize, gen: u32) -> u64 {
    (idx as u64) | ((gen as u64) << 32)
}

fn token_idx(token: u64) -> usize {
    (token & 0xffff_ffff) as usize
}

fn token_gen(token: u64) -> u32 {
    (token >> 32) as u32
}

/// Begins a listener's shutdown: a flag the reactors read every tick,
/// plus an eventfd that wakes the acceptor parked on the listener (which
/// then rings every reactor).
pub struct ShutdownSignal {
    set: AtomicBool,
    wake: WakeFd,
}

impl ShutdownSignal {
    pub fn new() -> io::Result<ShutdownSignal> {
        Ok(ShutdownSignal {
            set: AtomicBool::new(false),
            wake: WakeFd::new()?,
        })
    }

    /// Sets the signal and wakes the acceptor; true for the first call.
    pub fn set(&self) -> bool {
        if self.set.swap(true, Ordering::AcqRel) {
            return false;
        }
        self.wake.ring();
        true
    }

    pub fn is_set(&self) -> bool {
        self.set.load(Ordering::Acquire)
    }
}

/// What one listener's connections mean: the reactor owns accept,
/// framing, ordering, idle and lingering close; a service answers the
/// request lines.
pub trait Service: Sized + Send + Sync + 'static {
    /// State each reactor thread owns, made on that thread.
    type Local;
    /// What a request answered later keeps in its response slot.
    type Pending;
    /// What another thread delivers to complete a pending request.
    type Payload: Send + 'static;

    /// The calling reactor thread's state.
    fn local(&self) -> Self::Local;

    /// Answers, in order, the complete request lines one read delivered.
    fn dispatch(&self, local: &mut Self::Local, lines: &[String], burst: &mut Burst<'_, Self>);

    /// Renders a pending request's response from its completion; `None`
    /// means the job was dropped without completing (teardown or a
    /// simulated crash).
    fn render(&self, pending: Self::Pending, payload: Option<Self::Payload>) -> String;

    /// The signal that begins shutdown: the acceptor stops, and the
    /// reactors stop reading, flush what is owed, close every connection
    /// and exit.
    fn shutdown_signal(&self) -> &ShutdownSignal;

    /// Whether shutdown has begun.
    fn is_shutdown(&self) -> bool {
        self.shutdown_signal().is_set()
    }

    /// How long a connection may stay silent before it is closed.
    fn idle_timeout(&self) -> Duration;
}

/// A completed job travelling back to the reactor that owns the
/// connection; a `None` payload is a job dropped without completing.
struct Completion<P> {
    token: u64,
    slot: u64,
    payload: Option<P>,
}

/// One reactor thread's mailbox: fresh connections from the acceptor
/// plus completions from other threads, with an eventfd to interrupt the
/// parked `epoll_wait`.
struct Inbox<P> {
    conns: Mutex<Vec<TcpStream>>,
    completions: Mutex<Vec<Completion<P>>>,
    wake: WakeFd,
    /// Set by the owning reactor only while it sleeps in a wait bounded by
    /// [`FAULT_TICK_MS`] (a fault plan is armed). Only then may
    /// [`FAULT_WAKEUP`] swallow a ring: a reactor that is working, or
    /// sleeping until its next deadline, would otherwise miss the lost
    /// ring for longer than a tick.
    ticking: AtomicBool,
}

impl<P> Inbox<P> {
    fn new() -> io::Result<Inbox<P>> {
        Ok(Inbox {
            conns: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            wake: WakeFd::new()?,
            ticking: AtomicBool::new(false),
        })
    }

    fn push_conn(&self, stream: TcpStream) {
        self.conns
            .lock()
            .expect("reactor inbox poisoned")
            .push(stream);
        self.wake();
    }

    fn push_completion(&self, completion: Completion<P>) {
        self.completions
            .lock()
            .expect("reactor inbox poisoned")
            .push(completion);
        self.wake();
    }

    /// Rings the eventfd. Under an injected [`FAULT_WAKEUP`] the ring is
    /// swallowed — only while the reactor sleeps in a bounded tick, so
    /// the queued item still lands when the tick ends: a lost wakeup
    /// degrades latency, never correctness. A reactor that went to sleep
    /// before a plan was armed is always rung; it ticks from then on.
    fn wake(&self) {
        counter!("serve.reactor.wakeups").inc();
        if self.ticking.load(Ordering::SeqCst) && taxo_fault::should_fail(FAULT_WAKEUP) {
            return;
        }
        self.wake.ring();
    }

    fn take_conns(&self) -> Vec<TcpStream> {
        std::mem::take(&mut *self.conns.lock().expect("reactor inbox poisoned"))
    }

    fn take_completions(&self) -> Vec<Completion<P>> {
        std::mem::take(&mut *self.completions.lock().expect("reactor inbox poisoned"))
    }
}

/// Starts the connection layer of one listener: `threads` reactor
/// threads, named `{name}-reactor-{i}`, and a `{name}-acceptor` thread
/// that deals connections out to them round-robin, all serving
/// `service`. Every epoll instance and wake eventfd is created before
/// any thread starts, so kernel set-up errors surface here.
pub fn spawn<S: Service>(
    name: &str,
    listener: TcpListener,
    threads: usize,
    service: &Arc<S>,
) -> io::Result<Vec<JoinHandle<()>>> {
    listener.set_nonblocking(true)?;
    let accept_poller = Poller::new()?;
    accept_poller.add(listener.as_raw_fd(), LISTEN_TOKEN, EPOLLIN)?;
    accept_poller.add(service.shutdown_signal().wake.fd, WAKE_TOKEN, EPOLLIN)?;
    let mut parts = Vec::with_capacity(threads);
    for _ in 0..threads {
        let poller = Poller::new()?;
        let inbox = Arc::new(Inbox::<S::Payload>::new()?);
        poller.add(inbox.wake.fd, WAKE_TOKEN, EPOLLIN)?;
        parts.push((poller, inbox));
    }
    let inboxes: Vec<_> = parts.iter().map(|(_, inbox)| Arc::clone(inbox)).collect();
    let mut handles = Vec::with_capacity(threads + 1);
    let acceptor = Arc::clone(service);
    handles.push(
        std::thread::Builder::new()
            .name(format!("{name}-acceptor"))
            .spawn(move || accept_loop(&listener, &accept_poller, &inboxes, &*acceptor))?,
    );
    for (i, (poller, inbox)) in parts.into_iter().enumerate() {
        let service = Arc::clone(service);
        handles.push(
            std::thread::Builder::new()
                .name(format!("{name}-reactor-{i}"))
                .spawn(move || run(poller, &inbox, &*service))?,
        );
    }
    Ok(handles)
}

/// Accepts connections and deals them out round-robin across the
/// reactor inboxes. There is no backlog shed here: multiplexing hundreds
/// of idle connections is the reactors' job, so the listener backlog and
/// the fd limit are the only caps. Between connections it sleeps in
/// `epoll_wait` on the listener and the [`ShutdownSignal`], with no
/// timeout. Once shutdown begins it rings every reactor, which may be
/// sleeping without a deadline, and exits.
fn accept_loop<S: Service>(
    listener: &TcpListener,
    poller: &Poller,
    inboxes: &[Arc<Inbox<S::Payload>>],
    service: &S,
) {
    let mut events = Events::with_capacity(2);
    let mut next = 0usize;
    while !service.is_shutdown() {
        match listener.accept() {
            Ok((stream, _)) => {
                if taxo_fault::should_fail(FAULT_ACCEPT) {
                    continue;
                }
                counter!("serve.connections.accepted").inc();
                // Responses are one small frame each; Nagle would hold
                // them hostage to the next request's ACK.
                let _ = stream.set_nodelay(true);
                inboxes[next % inboxes.len()].push_conn(stream);
                next += 1;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let _ = poller.wait(&mut events, -1);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // Out of fds, say: the connection stays in the backlog and
            // the listener stays readable, so back off before retrying.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    for inbox in inboxes {
        inbox.wake();
    }
}

/// The write half of a queued job's reply path on the reactor: fills one
/// response slot of one connection, at most once. Dropping it unsent
/// delivers a `None` payload so an abandoned job still resolves its
/// slot (the connection would otherwise wait forever); `cancel`
/// suppresses that for jobs bounced at the queue — their slot was
/// already answered inline with `busy`/`shutting_down`.
pub struct CompletionSink<P> {
    inbox: Arc<Inbox<P>>,
    token: u64,
    slot: u64,
    sent: AtomicBool,
}

impl<P> CompletionSink<P> {
    /// Delivers the completion and wakes the owning reactor.
    pub(crate) fn deliver(&self, payload: P) {
        self.push(Some(payload));
    }

    /// Abandons the slot without a completion.
    pub(crate) fn cancel(&self) {
        self.sent.store(true, Ordering::Release);
    }

    fn push(&self, payload: Option<P>) {
        if self.sent.swap(true, Ordering::AcqRel) {
            return;
        }
        self.inbox.push_completion(Completion {
            token: self.token,
            slot: self.slot,
            payload,
        });
    }
}

impl<P> Drop for CompletionSink<P> {
    fn drop(&mut self) {
        self.push(None);
    }
}

/// The answers to one read's complete request lines: each answer fills
/// the connection's next response slot, so answers leave in request
/// order.
pub struct Burst<'a, S: Service> {
    conn: &'a mut Conn<S::Pending>,
    inbox: &'a Arc<Inbox<S::Payload>>,
    stopped: bool,
}

impl<S: Service> Burst<'_, S> {
    /// Whether the connection still takes answers: false once an answer
    /// closed it or an injected write fault cut its response stream.
    pub fn open(&self) -> bool {
        !self.stopped && !self.conn.torn
    }

    /// Answers the next request now.
    pub fn ready(&mut self, response: String) {
        if let Some(slot) = self.next_slot() {
            self.conn.fill_slot(slot, response);
        }
    }

    /// A sink for the next request's slot, made when a job is queued.
    pub(crate) fn sink(&self) -> CompletionSink<S::Payload> {
        CompletionSink {
            inbox: Arc::clone(self.inbox),
            token: self.conn.token,
            slot: self.conn.next_slot,
            sent: AtomicBool::new(false),
        }
    }

    /// Leaves the next request's slot to the completion its
    /// [`sink`](Burst::sink) delivers.
    pub(crate) fn pending(&mut self, pending: S::Pending) {
        if let Some(slot) = self.next_slot() {
            self.conn.pending.insert(slot, pending);
        }
    }

    /// Closes the connection once everything it owes has flushed; the
    /// rest of this read's lines go unanswered.
    pub fn close(&mut self) {
        self.stopped = true;
        self.conn.closing = true;
    }

    fn next_slot(&mut self) -> Option<u64> {
        if !self.open() {
            return None;
        }
        let slot = self.conn.next_slot;
        self.conn.next_slot += 1;
        self.conn.slots.push_back(None);
        Some(slot)
    }
}

/// Per-connection state machine; `T` is what a pending slot keeps.
struct Conn<T> {
    stream: TcpStream,
    token: u64,
    dec: FrameDecoder,
    /// Ordered response slots: slot `flush_base + i` lives at
    /// `slots[i]`; only a filled *prefix* may move to the write queue,
    /// which is what keeps pipelined responses in request order.
    flush_base: u64,
    next_slot: u64,
    slots: VecDeque<Option<String>>,
    /// Slots waiting on completions.
    pending: HashMap<u64, T>,
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
    /// When bytes last went out (or the connection arrived).
    last_write: Instant,
}

impl<T> Conn<T> {
    fn new(stream: TcpStream, token: u64, now: Instant) -> Conn<T> {
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
            last_write: now,
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
    /// the connection must drop. A write stamps `last_write` with `now`.
    fn flush(&mut self, now: Instant) -> io::Result<bool> {
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
                    self.last_write = now;
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
struct Slab<T> {
    conns: Vec<Option<Conn<T>>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    live: usize,
}

impl<T> Slab<T> {
    fn new() -> Slab<T> {
        Slab {
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    fn insert(&mut self, make: impl FnOnce(u64) -> Conn<T>) -> usize {
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

    fn get_mut(&mut self, token: u64) -> Option<&mut Conn<T>> {
        let idx = token_idx(token);
        if idx >= self.conns.len() || self.gens[idx] != token_gen(token) {
            return None;
        }
        self.conns[idx].as_mut()
    }

    fn remove(&mut self, idx: usize) -> Option<Conn<T>> {
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
fn run<S: Service>(poller: Poller, inbox: &Arc<Inbox<S::Payload>>, service: &S) {
    let mut local = service.local();
    let mut slab = Slab::new();
    let mut events = Events::with_capacity(256);
    // Reused read buffer: every connection reads through this one chunk,
    // appending into its own decoder.
    let mut buf = vec![0u8; 16 * 1024];
    // Reused line list: the complete frames of one read.
    let mut lines = Vec::new();
    // The clock read of the last tick. The next wait's timeout is counted
    // from it, so the wait overruns a deadline by at most that tick's
    // work and never ends early.
    let mut now = Instant::now();

    loop {
        // `ticking` is set only for a wait bounded by the fault tick and
        // cleared as soon as it ends, so a ring is never swallowed while
        // this thread works or sleeps without bound.
        let armed = taxo_fault::armed();
        let timeout = wait_timeout_ms(&slab, service.idle_timeout(), armed, now);
        if armed {
            inbox.ticking.store(true, Ordering::SeqCst);
        }
        let _ = poller.wait(&mut events, timeout);
        if armed {
            inbox.ticking.store(false, Ordering::SeqCst);
        }
        // Reset the eventfd before taking the inbox, so a push racing the
        // take rings it again; and only when it fired, so a tick woken by
        // sockets alone reads nothing extra.
        if events.iter().any(|(token, _)| token == WAKE_TOKEN) {
            inbox.wake.drain();
        }
        // One clock read per tick stamps activity and drives the sweeps.
        now = Instant::now();

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

        // Completions from other threads.
        for completion in inbox.take_completions() {
            let Some(conn) = slab.get_mut(completion.token) else {
                continue; // connection died while the job was in flight
            };
            let Some(pending) = conn.pending.remove(&completion.slot) else {
                continue;
            };
            let response = service.render(pending, completion.payload);
            conn.fill_slot(completion.slot, response);
            let idx = token_idx(completion.token);
            service_writes(&poller, &mut slab, idx, now);
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
            if readiness & EPOLLOUT != 0 && !service_writes(&poller, &mut slab, idx, now) {
                continue;
            }
            if readiness & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 {
                if !service_reads(
                    &poller, &mut slab, idx, &mut buf, &mut lines, inbox, now, service, &mut local,
                ) {
                    continue;
                }
                service_writes(&poller, &mut slab, idx, now);
            }
        }

        // Shutdown and idle sweeps. Each wait ends by the nearest
        // deadline they act on (see `wait_timeout_ms`), and shutdown rings
        // the inbox, so they never run late.
        let shutting_down = service.is_shutdown();
        let idle_timeout = service.idle_timeout();
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
                if !service_writes(&poller, &mut slab, idx, now) {
                    continue;
                }
            }
            let conn = self_conn(&mut slab, idx);
            if shutting_down {
                conn.closing = true;
            }
            if conn.closing && conn.drained() {
                // A connection that wrote nothing for a whole linger has
                // already given its peer that long to read: no second one.
                if shutting_down && now.duration_since(conn.last_write) >= LINGER {
                    close_conn(&poller, &mut slab, idx);
                } else {
                    linger_close(&poller, &mut slab, idx);
                }
            } else if !conn.closing
                && conn.drained()
                && now.duration_since(conn.last_activity) >= idle_timeout
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

/// How long the next `epoll_wait` may sleep, in milliseconds from `now`:
/// until the nearest deadline the sweeps act on — a lingering close
/// giving up, an injected delay releasing held output, a drained
/// connection going idle — rounded up, or `-1` (no bound) when there is
/// none. Everything else that needs the reactor rings it: a new
/// connection, a completion, shutdown (the acceptor rings every
/// reactor). While `armed`, at most [`FAULT_TICK_MS`].
fn wait_timeout_ms<T>(slab: &Slab<T>, idle_timeout: Duration, armed: bool, now: Instant) -> i32 {
    let deadline = slab
        .conns
        .iter()
        .flatten()
        .filter_map(|conn| {
            conn.linger_until.or(conn.hold_until).or_else(|| {
                (!conn.closing && conn.drained())
                    .then(|| conn.last_activity.checked_add(idle_timeout))
                    .flatten()
            })
        })
        .min();
    let ms = deadline.map_or(-1, |d| {
        let wait = d.saturating_duration_since(now);
        i32::try_from(wait.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX)
    });
    if armed && !(0..=FAULT_TICK_MS).contains(&ms) {
        FAULT_TICK_MS
    } else {
        ms
    }
}

fn self_conn<T>(slab: &mut Slab<T>, idx: usize) -> &mut Conn<T> {
    slab.conns[idx].as_mut().expect("live slot")
}

fn close_conn<T>(poller: &Poller, slab: &mut Slab<T>, idx: usize) {
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
fn linger_close<T>(poller: &Poller, slab: &mut Slab<T>, idx: usize) {
    let conn = self_conn(slab, idx);
    if conn.stream.shutdown(Shutdown::Write).is_err() {
        close_conn(poller, slab, idx);
        return;
    }
    conn.linger_until = Some(Instant::now() + LINGER);
}

/// Reads a lingering connection until `WouldBlock`, discarding the
/// bytes; closes it at EOF or on error.
fn discard_reads<T>(poller: &Poller, slab: &mut Slab<T>, idx: usize, buf: &mut [u8]) {
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
fn service_writes<T>(poller: &Poller, slab: &mut Slab<T>, idx: usize, now: Instant) -> bool {
    let conn = self_conn(slab, idx);
    match conn.flush(now) {
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
/// and hands them to the service as one [`Burst`]. Returns false when
/// the connection was closed.
#[allow(clippy::too_many_arguments)]
fn service_reads<S: Service>(
    poller: &Poller,
    slab: &mut Slab<S::Pending>,
    idx: usize,
    buf: &mut [u8],
    lines: &mut Vec<String>,
    inbox: &Arc<Inbox<S::Payload>>,
    now: Instant,
    service: &S,
    local: &mut S::Local,
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
    let conn = self_conn(slab, idx);
    if !conn.torn {
        let overlong = loop {
            match conn.dec.next_frame() {
                Ok(Some(line)) => lines.push(line),
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        let mut burst = Burst {
            conn,
            inbox,
            stopped: false,
        };
        if !lines.is_empty() {
            service.dispatch(local, lines, &mut burst);
            lines.clear();
        }
        // Unterminated overlong line: answer with bad_request and close
        // (the decoder cannot resynchronize).
        if let Some(e) = overlong.filter(|_| burst.open()) {
            counter!("serve.errors.bad_request").inc();
            burst.ready(protocol::error_response(
                None,
                "bad_request",
                Some(&e.to_string()),
            ));
            burst.close();
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
            Conn::<()>::new(server, token, Instant::now())
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
