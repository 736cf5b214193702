//! A small blocking client for the line protocol, used by `loadgen`,
//! the integration tests, and anyone scripting against a server.
//!
//! There is one client type. [`Client::connect`] gives the plain
//! single-connection behavior (every transport error surfaces);
//! [`Client::builder`] layers an optional [`RetryPolicy`] on the same
//! type — bounded retry with exponential backoff over transport
//! failures, `busy` shedding, and per-request timeouts, with lazy
//! reconnects. Under fault injection individual connections die
//! constantly; the retry loop is what proves the *service* stays
//! correct anyway.
//!
//! Retried operations are the idempotent ones (`score`, `score_burst`,
//! `health`, `stats`). [`Client::ingest`] retries only `busy` replies —
//! after the request has reached the server, a transport failure is
//! returned to the caller, because blindly resending a batch that may
//! have been applied would double its clicks.
//!
//! Every retry increments the `serve.retries` counter and every
//! abandoned-by-timeout attempt increments `serve.timeouts` (in this
//! process's registry, not the server's).

use crate::json::{self, Value};
use crate::protocol::{self, Tier};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Retry/backoff/timeout knobs for [`ClientBuilder::retry`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts per request (first try included). At least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry up to
    /// [`RetryPolicy::max_backoff`].
    pub base_backoff: Duration,
    pub max_backoff: Duration,
    /// Socket read timeout per attempt; an attempt that exceeds it is
    /// abandoned (connection dropped — a late response must never be
    /// mistaken for the next request's).
    pub request_timeout: Duration,
    /// Total budget for (re)connecting to the server.
    pub connect_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(64),
            request_timeout: Duration::from_secs(5),
            connect_timeout: Duration::from_secs(5),
        }
    }
}

/// A parsed response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// `ok:true` — the full parsed object.
    Ok(Value),
    /// `ok:false` — the error code (e.g. `busy`) and optional detail.
    Err {
        code: String,
        detail: Option<String>,
    },
}

impl Reply {
    /// The error code, if this is an error reply.
    pub fn error_code(&self) -> Option<&str> {
        match self {
            Reply::Err { code, .. } => Some(code),
            Reply::Ok(_) => None,
        }
    }

    /// True when the server shed this request under backpressure.
    pub fn is_busy(&self) -> bool {
        self.error_code() == Some("busy")
    }
}

/// One live connection: the raw stream plus its buffered read half.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr, read_timeout: Option<Duration>) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        // One-line request/response framing: never let Nagle delay a
        // request behind the previous response's ACK.
        let _ = writer.set_nodelay(true);
        writer.set_read_timeout(read_timeout)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    fn read_line_trimmed(&mut self) -> std::io::Result<String> {
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(response.trim_end_matches(['\n', '\r']).to_owned())
    }

    fn call_raw(&mut self, line: &str) -> std::io::Result<String> {
        debug_assert!(!line.contains('\n'));
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.read_line_trimmed()
    }
}

/// Builds a [`Client`]; construct via [`Client::builder`]. Building does
/// no I/O — the client connects lazily on first use (and reconnects the
/// same way after a transport failure).
pub struct ClientBuilder {
    addr: SocketAddr,
    retry: Option<RetryPolicy>,
    read_timeout: Option<Duration>,
}

impl ClientBuilder {
    /// Enables the retry loop: idempotent requests retry transport
    /// failures and `busy` shedding with exponential backoff; `ingest`
    /// retries `busy` only. Also defaults the socket read timeout to the
    /// policy's `request_timeout` unless one was named explicitly.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Per-read socket timeout (both halves share one socket).
    pub fn read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = Some(timeout);
        self
    }

    pub fn build(self) -> Client {
        let read_timeout = self
            .read_timeout
            .or(self.retry.as_ref().map(|p| p.request_timeout));
        Client {
            addr: self.addr,
            retry: self.retry,
            read_timeout,
            conn: None,
            next_id: 0,
        }
    }
}

/// A client for one taxo-serve server; see the module docs for the
/// plain-vs-retrying split.
pub struct Client {
    addr: SocketAddr,
    retry: Option<RetryPolicy>,
    read_timeout: Option<Duration>,
    conn: Option<Conn>,
    next_id: u64,
}

impl Client {
    /// Starts a builder for `addr` (no I/O until the first request).
    pub fn builder(addr: SocketAddr) -> ClientBuilder {
        ClientBuilder {
            addr,
            retry: None,
            read_timeout: None,
        }
    }

    /// Connects once, eagerly, with no retry policy — connection errors
    /// and transport failures all surface to the caller.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream_addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(ErrorKind::InvalidInput, "address resolved empty")
        })?;
        let conn = Conn::open(stream_addr, None)?;
        Ok(Client {
            addr: stream_addr,
            retry: None,
            read_timeout: None,
            conn: Some(conn),
            next_id: 0,
        })
    }

    /// Sets the per-read socket timeout (both halves share one socket);
    /// applies to the current connection and every reconnect. `None`
    /// blocks forever.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.read_timeout = timeout;
        if let Some(conn) = self.conn.as_ref() {
            conn.writer.set_read_timeout(timeout)?;
        }
        Ok(())
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// The live connection, (re)established lazily. With a retry policy,
    /// connecting itself retries up to the policy's `connect_timeout`.
    fn conn(&mut self) -> std::io::Result<&mut Conn> {
        if self.conn.is_none() {
            let conn = match self.retry.as_ref() {
                Some(policy) => {
                    let deadline = Instant::now() + policy.connect_timeout;
                    loop {
                        match Conn::open(self.addr, self.read_timeout) {
                            Ok(c) => break c,
                            Err(e) if Instant::now() < deadline => {
                                let _ = e;
                                std::thread::sleep(Duration::from_millis(50));
                            }
                            Err(e) => return Err(e),
                        }
                    }
                }
                None => Conn::open(self.addr, self.read_timeout)?,
            };
            self.conn = Some(conn);
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    fn backoff(&self, retry: u32) -> Duration {
        let Some(policy) = self.retry.as_ref() else {
            return Duration::ZERO;
        };
        let exp = policy.base_backoff.saturating_mul(1u32 << retry.min(16));
        exp.min(policy.max_backoff)
    }

    fn max_attempts(&self) -> u32 {
        self.retry.as_ref().map_or(1, |p| p.max_attempts.max(1))
    }

    /// Drops the connection after a transport or framing failure: it can
    /// no longer be trusted to pair requests with responses.
    fn note_transport_error(&mut self, e: &std::io::Error) {
        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
            taxo_obs::counter!("serve.timeouts").inc();
        }
        self.conn = None;
    }

    /// Sends one raw request line and reads one response line on the
    /// current connection (no retries, even with a policy — raw lines
    /// carry caller-owned ids this client cannot regenerate).
    pub fn call_raw(&mut self, line: &str) -> std::io::Result<String> {
        match self.conn()?.call_raw(line) {
            Ok(raw) => Ok(raw),
            Err(e) => {
                self.note_transport_error(&e);
                Err(e)
            }
        }
    }

    /// Sends a request line and parses the response, checking that the
    /// echoed `id` matches (frame integrity). Single attempt; a torn or
    /// mismatched response drops the connection like a transport error.
    pub fn call(&mut self, line: &str, expect_id: Option<u64>) -> std::io::Result<Reply> {
        let raw = self.call_raw(line)?;
        parse_reply(&raw, expect_id).inspect_err(|e| self.note_transport_error(e))
    }

    /// One idempotent request with the full retry loop (a single attempt
    /// without a policy). Returns the first non-`busy` reply, or the
    /// last error once attempts are exhausted.
    fn call_retrying(&mut self, line: &str, id: u64) -> std::io::Result<Reply> {
        let mut last_err: Option<std::io::Error> = None;
        for attempt in 0..self.max_attempts() {
            if attempt > 0 {
                taxo_obs::counter!("serve.retries").inc();
                std::thread::sleep(self.backoff(attempt - 1));
            }
            match self.call(line, Some(id)) {
                Ok(reply) if reply.is_busy() && self.retry.is_some() => {
                    last_err = Some(std::io::Error::new(
                        ErrorKind::WouldBlock,
                        "server busy on every attempt",
                    ));
                }
                Ok(reply) => return Ok(reply),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| std::io::Error::other("retry loop without attempts")))
    }

    /// `score` round trip on the server's default tier.
    pub fn score(&mut self, query: &str, k: Option<usize>) -> std::io::Result<Reply> {
        self.score_tier(query, k, None)
    }

    /// `score` round trip naming a weight tier (`None` = server default).
    pub fn score_tier(
        &mut self,
        query: &str,
        k: Option<usize>,
        tier: Option<Tier>,
    ) -> std::io::Result<Reply> {
        let id = self.fresh_id();
        let mut line = String::new();
        protocol::push_score_request(&mut line, Some(id), query, k, tier, None);
        self.call_retrying(&line, id)
    }

    /// Sends every query as its own `score` request in **one** write,
    /// then reads the responses in order — request pipelining. The
    /// server answers a connection's requests strictly in order and
    /// coalesces the burst's responses into one frame, so a window of
    /// `queries.len()` in-flight requests amortizes the per-round-trip
    /// cost (syscalls, wakeups) without any protocol change. Replies
    /// come back position-for-position with `queries`.
    ///
    /// With a retry policy, a transport failure anywhere in the burst
    /// reconnects and resends the **whole** burst under fresh ids —
    /// scores are idempotent, so a double-served prefix is harmless.
    pub fn score_burst(
        &mut self,
        queries: &[&str],
        k: Option<usize>,
        tier: Option<Tier>,
    ) -> std::io::Result<Vec<Reply>> {
        let mut last_err: Option<std::io::Error> = None;
        for attempt in 0..self.max_attempts() {
            if attempt > 0 {
                taxo_obs::counter!("serve.retries").inc();
                std::thread::sleep(self.backoff(attempt - 1));
            }
            let mut frame = String::new();
            let mut ids = Vec::with_capacity(queries.len());
            for query in queries {
                let id = self.fresh_id();
                ids.push(id);
                protocol::push_score_request(&mut frame, Some(id), query, k, tier, None);
                frame.push('\n');
            }
            let burst = (|| {
                let conn = self.conn()?;
                conn.writer.write_all(frame.as_bytes())?;
                let mut replies = Vec::with_capacity(ids.len());
                for &id in &ids {
                    let raw = conn.read_line_trimmed()?;
                    replies.push(parse_reply(&raw, Some(id))?);
                }
                Ok(replies)
            })();
            match burst {
                Ok(replies) => return Ok(replies),
                Err(e) => {
                    self.note_transport_error(&e);
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| std::io::Error::other("retry loop without attempts")))
    }

    /// `ingest`, retrying **only** `busy` replies even with a policy. A
    /// transport error is surfaced: the batch may or may not have been
    /// applied, and only the caller can resolve that (e.g. by checking
    /// the `health` version — ingest replies are sent strictly after the
    /// batch is applied).
    pub fn ingest(&mut self, records: &[(String, String, u64)]) -> std::io::Result<Reply> {
        let id = self.fresh_id();
        let line = protocol::ingest_request(id, records);
        let mut retry = 0u32;
        loop {
            match self.call(&line, Some(id)) {
                Ok(r) if r.is_busy() && retry + 1 < self.max_attempts() => {
                    taxo_obs::counter!("serve.retries").inc();
                    std::thread::sleep(self.backoff(retry));
                    retry += 1;
                }
                reply => return reply,
            }
        }
    }

    /// `health` round trip (retried under a policy).
    pub fn health(&mut self) -> std::io::Result<Reply> {
        let id = self.fresh_id();
        let mut w = json::ObjWriter::new();
        w.str("kind", "health").u64("id", id);
        let line = w.finish();
        self.call_retrying(&line, id)
    }

    /// `stats` round trip (retried under a policy).
    pub fn stats(&mut self) -> std::io::Result<Reply> {
        let id = self.fresh_id();
        let mut w = json::ObjWriter::new();
        w.str("kind", "stats").u64("id", id);
        let line = w.finish();
        self.call_retrying(&line, id)
    }

    /// `shutdown` round trip. Never retried: a dead channel after a
    /// shutdown request usually *is* the shutdown.
    pub fn shutdown(&mut self) -> std::io::Result<Reply> {
        let id = self.fresh_id();
        let mut w = json::ObjWriter::new();
        w.str("kind", "shutdown").u64("id", id);
        self.call(&w.finish(), Some(id))
    }
}

fn protocol_error(msg: String) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, msg)
}

/// Parses one response line into a [`Reply`], checking the echoed `id`
/// against the request's (frame integrity).
fn parse_reply(raw: &str, expect_id: Option<u64>) -> std::io::Result<Reply> {
    let v = json::parse(raw)
        .map_err(|e| protocol_error(format!("unparseable response {raw:?}: {e}")))?;
    let got_id = v.get("id").and_then(Value::as_u64);
    if got_id != expect_id {
        return Err(protocol_error(format!(
            "response id {got_id:?} does not match request id {expect_id:?}: {raw}"
        )));
    }
    match v.get("ok") {
        Some(Value::Bool(true)) => Ok(Reply::Ok(v)),
        Some(Value::Bool(false)) => Ok(Reply::Err {
            code: v
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_owned(),
            detail: v.get("detail").and_then(Value::as_str).map(str::to_owned),
        }),
        _ => Err(protocol_error(format!("response without ok field: {raw}"))),
    }
}

/// The comparable content of a `score` response's candidate list:
/// `(term, score bits, attached)` per candidate, in ranked order. Scores
/// compare by `f32::to_bits`, making "bit-identical" literal.
pub fn candidate_key(reply: &Value) -> Option<Vec<(String, u32, bool)>> {
    let items = reply.get("candidates")?.items()?;
    let mut out = Vec::with_capacity(items.len());
    for c in items {
        out.push((
            c.get("term")?.as_str()?.to_owned(),
            c.get("score")?.as_f32()?.to_bits(),
            match c.get("attached")? {
                Value::Bool(b) => *b,
                _ => return None,
            },
        ));
    }
    Some(out)
}

/// The same key computed offline from a snapshot's ranked candidates —
/// what [`candidate_key`] must equal when server and snapshot agree.
pub fn expected_key(
    vocab: &taxo_core::Vocabulary,
    ranked: &[crate::snapshot::ScoredCandidate],
) -> Vec<(String, u32, bool)> {
    ranked
        .iter()
        .map(|c| (vocab.name(c.item).to_owned(), c.score.to_bits(), c.attached))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A listener that answers its first connection with a torn frame
    /// and closes it, then serves the retried request properly: the
    /// retry must run on a fresh connection.
    #[test]
    fn retry_reconnects_after_a_torn_response() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for reply in ["{\"id\":", "{\"id\":1,\"ok\":true,\"kind\":\"health\"}\n"] {
                let (mut stream, _) = listener.accept().unwrap();
                let mut request = String::new();
                BufReader::new(&stream).read_line(&mut request).unwrap();
                stream.write_all(reply.as_bytes()).unwrap();
            }
        });
        let mut client = Client::builder(addr)
            .retry(RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            })
            .build();
        let reply = client.health().expect("the retry reconnects");
        assert!(matches!(reply, Reply::Ok(_)), "{reply:?}");
        server.join().expect("listener thread");
    }
}
