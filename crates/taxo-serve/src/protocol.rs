//! The line-delimited JSON wire protocol.
//!
//! Every request and response is one JSON object on one line. Requests
//! carry a `kind` and an optional numeric `id` the server echoes back,
//! so clients can pipeline:
//!
//! ```text
//! → {"kind":"score","id":1,"query":"potato chips","k":5}
//! ← {"id":1,"ok":true,"kind":"score","version":0,"candidates":[{"term":"crisps","score":0.91,"attached":false}]}
//! → {"kind":"ingest","id":2,"records":[{"query":"snack","item":"banana chips","count":4}]}
//! ← {"id":2,"ok":true,"kind":"ingest","batch":1,"matched":1,"skipped":0,"attached":2,"known_pairs":312,"total_relations":160,"version":1}
//! → {"kind":"health","id":3}
//! ← {"id":3,"ok":true,"kind":"health","status":"serving","version":1,"nodes":150,"edges":160,"batches":1}
//! → {"kind":"stats","id":4}
//! ← {"id":4,"ok":true,"kind":"stats","counters":{…},"gauges":{…},"histograms":{…},"spans":{…}}
//! → {"kind":"shutdown","id":5}
//! ← {"id":5,"ok":true,"kind":"shutdown"}
//! ```
//!
//! Failures are `{"id":…,"ok":false,"error":"<code>"}` with codes
//! `busy` (backpressure shed — retry later), `unknown_term`,
//! `bad_request` (plus a `detail` member), and `shutting_down`.

use crate::json::{self, ObjWriter, Value};
use crate::snapshot::ScoredCandidate;
use std::fmt::Write as _;
use taxo_core::Vocabulary;
use taxo_obs::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot, SpanSnapshot};

/// Default [`FrameDecoder`] frame-size cap: no legitimate request line
/// comes close, and an unterminated megabyte is either a broken client
/// or an attack on the read buffer.
pub const MAX_FRAME: usize = 1 << 20;

/// The incremental line-frame decoder shared by every data plane: the
/// epoll reactor's per-connection state machines, and the router's
/// client connections and shard connections.
///
/// Bytes arrive in arbitrary splits ([`FrameDecoder::push`]);
/// [`FrameDecoder::next_frame`] yields each complete `\n`-terminated
/// line exactly once, with the terminator (and any `\r`) stripped and
/// empty lines skipped. A partial line is held until its terminator
/// arrives, so a read boundary — or a read timeout — can never tear a
/// frame. An unterminated line longer than the cap is rejected with
/// [`FrameTooLong`], and the decoder stays poisoned: the connection is
/// unrecoverable because the overlong line's tail would be misread as
/// fresh frames.
///
/// The buffer is reused across frames: consumed bytes are compacted
/// away lazily rather than drained per line, so a pipelined burst of
/// `n` frames costs `O(bytes)` rather than `O(n · bytes)`.
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Start of the first unconsumed byte in `buf`.
    start: usize,
    /// Absolute index up to which `buf` has been scanned for `\n`.
    scanned: usize,
    max_frame: usize,
    poisoned: bool,
}

/// An unterminated line exceeded the decoder's frame cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTooLong {
    /// The configured cap the pending line overran.
    pub limit: usize,
}

impl std::fmt::Display for FrameTooLong {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame exceeds {} bytes without a terminator", self.limit)
    }
}

impl std::error::Error for FrameTooLong {}

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder::new()
    }
}

impl FrameDecoder {
    /// A decoder with the default [`MAX_FRAME`] cap.
    pub fn new() -> FrameDecoder {
        FrameDecoder::with_max_frame(MAX_FRAME)
    }

    /// A decoder with a custom cap (tests use tiny caps).
    pub fn with_max_frame(max_frame: usize) -> FrameDecoder {
        FrameDecoder {
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            max_frame: max_frame.max(1),
            poisoned: false,
        }
    }

    /// Appends freshly read bytes. Consumed bytes are compacted away
    /// first when they dominate the buffer, so long-lived connections
    /// never grow the buffer past their largest in-flight burst.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
            self.scanned = 0;
        } else if self.start > 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// The next complete line, if one is buffered. `Ok(None)` means a
    /// partial (or no) line is pending — read more bytes and retry.
    pub fn next_frame(&mut self) -> Result<Option<String>, FrameTooLong> {
        if self.poisoned {
            return Err(FrameTooLong {
                limit: self.max_frame,
            });
        }
        loop {
            match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                Some(off) => {
                    let end = self.scanned + off;
                    let line = String::from_utf8_lossy(&self.buf[self.start..end]);
                    let line = line.trim_end_matches('\r').to_owned();
                    self.start = end + 1;
                    self.scanned = self.start;
                    if line.is_empty() {
                        continue;
                    }
                    return Ok(Some(line));
                }
                None => {
                    self.scanned = self.buf.len();
                    if self.buffered() > self.max_frame {
                        self.poisoned = true;
                        return Err(FrameTooLong {
                            limit: self.max_frame,
                        });
                    }
                    return Ok(None);
                }
            }
        }
    }
}

/// Which detector weights answer a `score` request.
///
/// The f32 tier is the canonical one: bit-identical to offline scoring.
/// The int8 tier serves the weight-quantized twin — ~4× smaller weights,
/// still deterministic (bit-identical to the offline *quantized* replay
/// at any thread count), but numerically divergent from f32 by a small
/// measured bound (see the `serve.quant.max_abs_divergence` gauge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Tier {
    /// Full-precision weights (default; exact-verify contract).
    #[default]
    F32,
    /// Int8 per-row-scaled weights (tolerance-verify contract).
    Int8,
}

impl Tier {
    /// Wire spelling, also used as a metric/bench label.
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::F32 => "f32",
            Tier::Int8 => "int8",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(s: &str) -> Option<Tier> {
        match s {
            "f32" => Some(Tier::F32),
            "int8" => Some(Tier::Int8),
            _ => None,
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Tier {
    type Err = String;

    fn from_str(s: &str) -> Result<Tier, String> {
        Tier::parse(s).ok_or_else(|| format!("unknown tier {s:?} (expected f32 or int8)"))
    }
}

/// Which step of the snapshot-publish protocol an `ingest` request
/// drives.
///
/// Single-process clients never set a phase: [`IngestPhase::Auto`]
/// applies and publishes in one step. The sharded router uses the
/// two-phase pair for coordinated cross-shard swaps: `prepare` makes the
/// batch durable and builds the next snapshot without publishing it;
/// `commit` atomically publishes the prepared snapshot. Between the two,
/// readers keep serving the old version — so the router can move every
/// shard's version in lockstep and no client ever observes a half-swapped
/// vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestPhase {
    /// Apply and publish in one step (the single-shard path).
    #[default]
    Auto,
    /// Append to the WAL, apply, build the next snapshot — hold it
    /// unpublished.
    Prepare,
    /// Publish the snapshot held by the previous `prepare`.
    Commit,
}

impl IngestPhase {
    /// Wire spelling (`Auto` has none — the field is simply absent).
    pub fn as_str(self) -> Option<&'static str> {
        match self {
            IngestPhase::Auto => None,
            IngestPhase::Prepare => Some("prepare"),
            IngestPhase::Commit => Some("commit"),
        }
    }
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Score {
        id: Option<u64>,
        query: String,
        /// Maximum candidates to return (server default when absent).
        k: Option<usize>,
        /// Scoring tier (server default when absent).
        tier: Option<Tier>,
        /// Router-stamped snapshot version this request must be served
        /// at. A mismatch is rejected with `stale_epoch` rather than
        /// silently served at another version — the cross-shard
        /// consistency guard.
        epoch: Option<u64>,
    },
    Ingest {
        id: Option<u64>,
        records: Vec<IngestRecord>,
        phase: IngestPhase,
    },
    Health {
        id: Option<u64>,
    },
    Stats {
        id: Option<u64>,
    },
    Shutdown {
        id: Option<u64>,
    },
}

impl Request {
    pub fn id(&self) -> Option<u64> {
        match self {
            Request::Score { id, .. }
            | Request::Ingest { id, .. }
            | Request::Health { id }
            | Request::Stats { id }
            | Request::Shutdown { id } => *id,
        }
    }

    /// The request kind as a metric label.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Score { .. } => "score",
            Request::Ingest { .. } => "ingest",
            Request::Health { .. } => "health",
            Request::Stats { .. } => "stats",
            Request::Shutdown { .. } => "shutdown",
        }
    }
}

/// One click-evidence record of an `ingest` request.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestRecord {
    /// Query concept name (must exist in the serving vocabulary).
    pub query: String,
    /// Clicked item text, matched against the vocabulary server-side.
    pub item: String,
    pub count: u64,
}

/// Parses one request line.
///
/// The canonical score line is read in one scan, with no [`Value`]
/// tree: `{"kind":"score","id":N,"query":"…"[,"k":N][,"tier":"…"][,"epoch":N]}`,
/// members in that order, no whitespace, the query free of escapes and
/// control bytes, and every number a plain integer of at most 19
/// digits without a leading zero. [`push_score_request`] writes that
/// shape for [`crate::Client`] and the router, and the load generators
/// emit it too. Any other line, and any line the scan cannot settle
/// (`k` of 0, an unknown `tier`, `"id":null`, …), goes to the tree
/// parser unchanged. Both paths give the same result for every line the
/// scan accepts (`tests/parse_scan_props.rs`).
pub fn parse_request(line: &str) -> Result<Request, String> {
    match scan_score(line) {
        Some(req) => Ok(req),
        None => parse_tree(line),
    }
}

/// The one-scan reader of a canonical score line; `None` sends the
/// line to [`parse_tree`].
fn scan_score(line: &str) -> Option<Request> {
    let rest = line.strip_prefix(r#"{"kind":"score","id":"#)?;
    let (id, rest) = scan_u64(rest)?;
    let rest = rest.strip_prefix(r#","query":""#)?;
    // A `"` ends the string; a `\` or a control byte means the tree
    // parser has to decode it. Non-ASCII bytes pass as they are, and
    // the ASCII `"` the scan stops at is always a char boundary.
    let end = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)?;
    let (query, rest) = rest.split_at(end);
    let mut rest = rest.strip_prefix('"')?;
    let mut k = None;
    if let Some(after) = rest.strip_prefix(r#","k":"#) {
        let (n, after) = scan_u64(after)?;
        k = Some(usize::try_from(n).ok().filter(|&k| k >= 1)?);
        rest = after;
    }
    let mut tier = None;
    if let Some(after) = rest.strip_prefix(r#","tier":""#) {
        let (name, after) = after.split_once('"')?;
        tier = Some(Tier::parse(name)?);
        rest = after;
    }
    let mut epoch = None;
    if let Some(after) = rest.strip_prefix(r#","epoch":"#) {
        let (n, after) = scan_u64(after)?;
        epoch = Some(n);
        rest = after;
    }
    (rest == "}").then(|| Request::Score {
        id: Some(id),
        query: query.to_owned(),
        k,
        tier,
        epoch,
    })
}

/// Reads a leading integer the way the encoder writes one: `0`, or 1 to
/// 19 digits without a leading zero, which cannot overflow a `u64`.
fn scan_u64(s: &str) -> Option<(u64, &str)> {
    let digits = s.bytes().take(20).take_while(u8::is_ascii_digit).count();
    if digits == 0 || digits == 20 || (digits > 1 && s.starts_with('0')) {
        return None;
    }
    let (num, rest) = s.split_at(digits);
    let n = num.bytes().fold(0u64, |n, d| n * 10 + u64::from(d - b'0'));
    Some((n, rest))
}

/// Appends a `score` request in the canonical shape that
/// [`parse_request`] reads in one scan (without the frame terminator):
/// members `kind`, `id`, `query`, `k`, `tier`, `epoch` in that order,
/// absent ones left out, the bytes an [`ObjWriter`] writes member by
/// member.
pub fn push_score_request(
    out: &mut String,
    id: Option<u64>,
    query: &str,
    k: Option<usize>,
    tier: Option<Tier>,
    epoch: Option<u64>,
) {
    out.push_str("{\"kind\":\"score\",\"id\":");
    match id {
        Some(id) => {
            let _ = write!(out, "{id}");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"query\":");
    json::encode_str(query, out);
    if let Some(k) = k {
        let _ = write!(out, ",\"k\":{k}");
    }
    if let Some(tier) = tier {
        let _ = write!(out, ",\"tier\":\"{}\"", tier.as_str());
    }
    if let Some(epoch) = epoch {
        let _ = write!(out, ",\"epoch\":{epoch}");
    }
    out.push('}');
}

/// An `ingest` request driving `phase` for `records`, `(query, item,
/// count)` each (without the frame terminator): members `kind`, `id`,
/// `phase`, `records` in that order, with no `phase` member for
/// [`IngestPhase::Auto`]. A `commit` sends its (empty) records too.
pub fn ingest_request<S: AsRef<str>>(
    id: Option<u64>,
    phase: IngestPhase,
    records: &[(S, S, u64)],
) -> String {
    let mut arr = String::from("[");
    for (i, (query, item, count)) in records.iter().enumerate() {
        if i > 0 {
            arr.push(',');
        }
        let mut r = ObjWriter::new();
        r.str("query", query.as_ref())
            .str("item", item.as_ref())
            .u64("count", *count);
        arr.push_str(&r.finish());
    }
    arr.push(']');
    let mut w = ObjWriter::new();
    w.str("kind", "ingest");
    write_id(&mut w, id);
    if let Some(phase) = phase.as_str() {
        w.str("phase", phase);
    }
    w.raw("records", &arr);
    w.finish()
}

/// Parses a request line through a [`Value`] tree: every request kind,
/// any member order, any valid JSON.
fn parse_tree(line: &str) -> Result<Request, String> {
    let v = json::parse(line)?;
    let id = v.get("id").and_then(Value::as_u64);
    let kind = v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or("missing \"kind\"")?;
    match kind {
        "score" => {
            let query = v
                .get("query")
                .and_then(Value::as_str)
                .ok_or("score needs a \"query\" string")?
                .to_owned();
            let k = match v.get("k") {
                None | Some(Value::Null) => None,
                Some(k) => Some(
                    k.as_u64()
                        .and_then(|k| usize::try_from(k).ok())
                        .filter(|&k| k >= 1)
                        .ok_or("\"k\" must be a positive integer")?,
                ),
            };
            let tier = match v.get("tier") {
                None | Some(Value::Null) => None,
                Some(t) => Some(
                    t.as_str()
                        .and_then(Tier::parse)
                        .ok_or("\"tier\" must be \"f32\" or \"int8\"")?,
                ),
            };
            let epoch = match v.get("epoch") {
                None | Some(Value::Null) => None,
                Some(e) => Some(
                    e.as_u64()
                        .ok_or("\"epoch\" must be a non-negative integer")?,
                ),
            };
            Ok(Request::Score {
                id,
                query,
                k,
                tier,
                epoch,
            })
        }
        "ingest" => {
            let phase = match v.get("phase").and_then(Value::as_str) {
                None => IngestPhase::Auto,
                Some("prepare") => IngestPhase::Prepare,
                Some("commit") => IngestPhase::Commit,
                Some(_) => return Err("\"phase\" must be \"prepare\" or \"commit\"".into()),
            };
            // A commit names no records — it publishes what the matching
            // prepare already applied.
            let items = match (v.get("records").and_then(Value::items), phase) {
                (Some(items), _) => items,
                (None, IngestPhase::Commit) => &[][..],
                (None, _) => return Err("ingest needs a \"records\" array".into()),
            };
            let mut records = Vec::with_capacity(items.len());
            for r in items {
                records.push(IngestRecord {
                    query: r
                        .get("query")
                        .and_then(Value::as_str)
                        .ok_or("record needs a \"query\" string")?
                        .to_owned(),
                    item: r
                        .get("item")
                        .and_then(Value::as_str)
                        .ok_or("record needs an \"item\" string")?
                        .to_owned(),
                    count: r.get("count").and_then(Value::as_u64).unwrap_or(1),
                });
            }
            Ok(Request::Ingest { id, records, phase })
        }
        "health" => Ok(Request::Health { id }),
        "stats" => Ok(Request::Stats { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        other => Err(format!("unknown kind {other:?}")),
    }
}

/// Writes the `id` member: the number, or `null` when the request
/// carried none.
pub fn write_id(w: &mut ObjWriter, id: Option<u64>) {
    match id {
        Some(id) => w.u64("id", id),
        None => w.raw("id", "null"),
    };
}

fn base(id: Option<u64>, ok: bool) -> ObjWriter {
    let mut w = ObjWriter::new();
    write_id(&mut w, id);
    w.bool("ok", ok);
    w
}

/// Renders an error response.
pub fn error_response(id: Option<u64>, code: &str, detail: Option<&str>) -> String {
    let mut w = base(id, false);
    w.str("error", code);
    if let Some(d) = detail {
        w.str("detail", d);
    }
    w.finish()
}

/// Renders a `stale_epoch` rejection: the request named a snapshot
/// version this shard no longer serves. Carries the shard's current
/// version so the router can refresh its vector entry and retry.
pub fn stale_epoch_response(id: Option<u64>, version: u64) -> String {
    let mut w = base(id, false);
    w.str("error", "stale_epoch").u64("version", version);
    w.finish()
}

/// Bytes a rendered candidate object usually takes, for pre-sizing.
const CANDIDATE_BYTES: usize = 72;

/// Appends the per-request envelope of a successful response,
/// `{"id":…,"ok":true,`.
fn push_envelope(out: &mut String, id: Option<u64>) {
    match id {
        Some(id) => {
            let _ = write!(out, "{{\"id\":{id},\"ok\":true,");
        }
        None => out.push_str("{\"id\":null,\"ok\":true,"),
    }
}

/// Appends the members of a `score` tail that precede the version:
/// `"kind":"score","query":…,"tier":…,"version":`.
fn push_score_head(out: &mut String, query: &str, tier: Tier) {
    out.push_str("\"kind\":\"score\",\"query\":");
    json::encode_str(query, out);
    out.push_str(",\"tier\":\"");
    out.push_str(tier.as_str());
    out.push_str("\",\"version\":");
}

/// Appends one ranked candidate object,
/// `{"term":…,"score":…,"attached":…}`. The score is emitted with
/// `f32::Display` so it parses back bit-identical.
fn push_candidate(out: &mut String, vocab: &Vocabulary, c: &ScoredCandidate) {
    out.push_str("{\"term\":");
    json::encode_str(vocab.name(c.item), out);
    let _ = write!(out, ",\"score\":{}", c.score);
    out.push_str(if c.attached {
        ",\"attached\":true}"
    } else {
        ",\"attached\":false}"
    });
}

/// Renders the request-independent tail of a `score` response — every
/// byte after `"ok":true,`. One `(version, tier, query, k)` always
/// produces the same tail (scoring is pure and ranking is
/// deterministic), which is what lets the server cache rendered tails
/// and answer repeat queries with [`splice_response`] alone. Candidate
/// order is the ranked order produced by
/// [`crate::snapshot::ServeSnapshot::rank`].
pub fn score_response_tail(
    query: &str,
    version: u64,
    tier: Tier,
    vocab: &Vocabulary,
    candidates: &[ScoredCandidate],
) -> String {
    let mut out = String::with_capacity(64 + query.len() + CANDIDATE_BYTES * candidates.len());
    push_score_head(&mut out, query, tier);
    let _ = write!(out, "{version},\"candidates\":[");
    for (i, c) in candidates.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_candidate(&mut out, vocab, c);
    }
    out.push_str("]}");
    out
}

/// Prepends the per-request envelope to a [`score_response_tail`].
pub fn splice_response(id: Option<u64>, tail: &str) -> String {
    // The envelope takes at most 37 bytes; one more is spare for the
    // frame terminator the server appends.
    let mut out = String::with_capacity(38 + tail.len());
    push_envelope(&mut out, id);
    out.push_str(tail);
    out
}

/// One query's whole ranked f32 candidate list, rendered once so that a
/// `score` response for any `k` is spliced from a prefix of it. Ranking
/// is a total order (score descending, then item id), so the top `k` is
/// always the first `min(k, n)` candidates. The version is written at
/// splice time: a rendering outlives the snapshot it was made for as
/// long as the ranked list stays the same.
#[derive(Debug)]
pub(crate) struct RenderedRanking {
    /// The tail's members before the version, query name included.
    head: String,
    /// The candidate objects, comma-joined in rank order.
    body: String,
    /// Where each candidate object ends in `body`.
    ends: Vec<usize>,
}

impl RenderedRanking {
    /// Renders `ranked` — the full ranking of `query`, as
    /// [`crate::snapshot::ServeSnapshot::rank`] returns it with an
    /// unbounded `k` — for the f32 tier.
    pub fn render(query: &str, vocab: &Vocabulary, ranked: &[ScoredCandidate]) -> RenderedRanking {
        let mut head = String::with_capacity(64 + query.len());
        push_score_head(&mut head, query, Tier::F32);
        let mut body = String::with_capacity(CANDIDATE_BYTES * ranked.len());
        let mut ends = Vec::with_capacity(ranked.len());
        for (i, c) in ranked.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            push_candidate(&mut body, vocab, c);
            ends.push(body.len());
        }
        RenderedRanking { head, body, ends }
    }

    /// Candidates in the ranking.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// The complete response to request `id` for the top `k` at
    /// `version`: byte-identical to [`score_response`] over the same
    /// ranking truncated to `k`.
    pub fn response(&self, id: Option<u64>, version: u64, k: usize) -> String {
        let body = match k.min(self.ends.len()) {
            0 => "",
            n => &self.body[..self.ends[n - 1]],
        };
        // Envelope, version and closing bytes take at most 74 bytes; one
        // more is spare for the frame terminator the server appends.
        let mut out = String::with_capacity(75 + self.head.len() + body.len());
        push_envelope(&mut out, id);
        out.push_str(&self.head);
        let _ = write!(out, "{version},\"candidates\":[");
        out.push_str(body);
        out.push_str("]}");
        out
    }
}

/// Renders a complete `score` response (tail + envelope in one call).
pub fn score_response(
    id: Option<u64>,
    query: &str,
    version: u64,
    tier: Tier,
    vocab: &Vocabulary,
    candidates: &[ScoredCandidate],
) -> String {
    splice_response(
        id,
        &score_response_tail(query, version, tier, vocab, candidates),
    )
}

/// Summary of what one ingest request changed, for its response.
#[derive(Debug, Clone, Copy)]
pub struct IngestSummary {
    /// Ingest batch sequence number.
    pub batch: u64,
    /// Records whose query term resolved in the vocabulary.
    pub matched: u64,
    /// Records dropped because the query term is unknown.
    pub skipped: u64,
    /// Edges newly attached by this batch (surviving pruning).
    pub attached: u64,
    /// Distinct candidate pairs known after this batch.
    pub known_pairs: u64,
    /// Total relations in the maintained taxonomy afterwards.
    pub total_relations: u64,
    /// Snapshot version this batch published.
    pub version: u64,
}

/// Renders an `ingest` response: the summary of what was applied. A
/// `prepare`-phase ingest is marked `"phase":"prepared"`, and its
/// `version` names a snapshot that is built and durable but **not yet
/// published** — it becomes visible only at the matching commit.
pub fn ingest_response(id: Option<u64>, s: &IngestSummary, prepared: bool) -> String {
    let mut w = base(id, true);
    w.str("kind", "ingest");
    if prepared {
        w.str("phase", "prepared");
    }
    w.u64("batch", s.batch)
        .u64("matched", s.matched)
        .u64("skipped", s.skipped)
        .u64("attached", s.attached)
        .u64("known_pairs", s.known_pairs)
        .u64("total_relations", s.total_relations)
        .u64("version", s.version);
    w.finish()
}

/// Renders the acknowledgement of a `commit`-phase ingest: the prepared
/// snapshot at `version` is now the served one.
pub fn ingest_committed_response(id: Option<u64>, version: u64) -> String {
    let mut w = base(id, true);
    w.str("kind", "ingest")
        .str("phase", "committed")
        .u64("version", version);
    w.finish()
}

/// Renders a `health` response from the current snapshot's shape.
pub fn health_response(
    id: Option<u64>,
    version: u64,
    nodes: usize,
    edges: usize,
    batches: u64,
    draining: bool,
) -> String {
    let mut w = base(id, true);
    w.str("kind", "health")
        .str("status", if draining { "draining" } else { "serving" })
        .u64("version", version)
        .u64("nodes", nodes as u64)
        .u64("edges", edges as u64)
        .u64("batches", batches);
    w.finish()
}

/// Renders a `stats` response embedding the full taxo-obs snapshot:
/// counters and gauges as name→value objects, histograms as
/// name→`{count,sum}`, spans as name→`{count,total_ms,max_ms}` (to the
/// microsecond). A router's merged reply also names the `shards` that
/// answered.
pub fn stats_response(id: Option<u64>, shards: Option<u64>, snap: &MetricsSnapshot) -> String {
    let counters = family(snap.counters.iter().map(|c| (&c.name, c.value.to_string())));
    let gauges = family(snap.gauges.iter().map(|g| (&g.name, g.value.to_string())));
    let hists = family(snap.histograms.iter().map(|h| {
        let value = format!("{{\"count\":{},\"sum\":{}}}", h.count, h.sum);
        (&h.name, value)
    }));
    let spans = family(snap.spans.iter().map(|s| {
        let (count, total, max) = (s.count, s.total_ms(), s.max_ns as f64 / 1e6);
        let value = format!("{{\"count\":{count},\"total_ms\":{total:.3},\"max_ms\":{max:.3}}}");
        (&s.path, value)
    }));
    let mut w = base(id, true);
    w.str("kind", "stats");
    if let Some(shards) = shards {
        w.u64("shards", shards);
    }
    w.raw("counters", &counters)
        .raw("gauges", &gauges)
        .raw("histograms", &hists)
        .raw("spans", &spans);
    w.finish()
}

/// One metric family as a JSON object of already rendered values.
fn family<'a>(members: impl Iterator<Item = (&'a String, String)>) -> String {
    let mut out = String::from("{");
    for (i, (name, value)) in members.enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::encode_str(name, &mut out);
        out.push(':');
        out.push_str(&value);
    }
    out.push('}');
    out
}

/// Reads a `stats` reply back into a snapshot, the inverse of
/// [`stats_response`] up to what the wire carries: histograms keep their
/// count and sum but no buckets, and span times come back to the
/// microsecond. `None` unless `line` is an `ok` reply.
pub fn parse_stats(line: &str) -> Option<MetricsSnapshot> {
    let v = json::parse(line).ok()?;
    if v.get("ok") != Some(&Value::Bool(true)) {
        return None;
    }
    let ns = |ms: f64| (ms * 1e6).round() as u64;
    Some(MetricsSnapshot {
        counters: members(&v, "counters")
            .map(|(name, v)| CounterSnapshot {
                name: name.clone(),
                value: num(Some(v)),
            })
            .collect(),
        gauges: members(&v, "gauges")
            .map(|(name, v)| GaugeSnapshot {
                name: name.clone(),
                value: num(Some(v)),
            })
            .collect(),
        histograms: members(&v, "histograms")
            .map(|(name, v)| HistogramSnapshot {
                name: name.clone(),
                bounds: Vec::new(),
                buckets: Vec::new(),
                count: num(v.get("count")),
                sum: num(v.get("sum")),
            })
            .collect(),
        spans: members(&v, "spans")
            .map(|(path, v)| SpanSnapshot {
                path: path.clone(),
                count: num(v.get("count")),
                total_ns: ns(num(v.get("total_ms"))),
                max_ns: ns(num(v.get("max_ms"))),
            })
            .collect(),
    })
}

/// The name-sorted members of one metric family of a `stats` reply.
fn members<'v>(v: &'v Value, family: &str) -> impl Iterator<Item = (&'v String, &'v Value)> {
    match v.get(family) {
        Some(Value::Obj(map)) => Some(map.iter()),
        _ => None,
    }
    .into_iter()
    .flatten()
}

/// A number member read as `T`; 0 when absent or out of range.
fn num<T: std::str::FromStr + Default>(v: Option<&Value>) -> T {
    match v {
        Some(Value::Num(tok)) => tok.parse().unwrap_or_default(),
        _ => T::default(),
    }
}

/// Renders a `shutdown` acknowledgement.
pub fn shutdown_response(id: Option<u64>) -> String {
    let mut w = base(id, true);
    w.str("kind", "shutdown");
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_request_kind() {
        assert_eq!(
            parse_request(r#"{"kind":"score","id":3,"query":"chips","k":2}"#).unwrap(),
            Request::Score {
                id: Some(3),
                query: "chips".into(),
                k: Some(2),
                tier: None,
                epoch: None
            }
        );
        assert_eq!(
            parse_request(r#"{"kind":"score","query":"chips"}"#).unwrap(),
            Request::Score {
                id: None,
                query: "chips".into(),
                k: None,
                tier: None,
                epoch: None
            }
        );
        assert_eq!(
            parse_request(r#"{"kind":"score","query":"chips","epoch":7}"#).unwrap(),
            Request::Score {
                id: None,
                query: "chips".into(),
                k: None,
                tier: None,
                epoch: Some(7)
            }
        );
        let ingest = parse_request(
            r#"{"kind":"ingest","id":1,"records":[{"query":"snack","item":"banana chips","count":4},{"query":"x","item":"y"}]}"#,
        )
        .unwrap();
        match ingest {
            Request::Ingest { id, records, phase } => {
                assert_eq!(id, Some(1));
                assert_eq!(records.len(), 2);
                assert_eq!(records[0].count, 4);
                assert_eq!(records[1].count, 1, "count defaults to 1");
                assert_eq!(phase, IngestPhase::Auto);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse_request(r#"{"kind":"health"}"#).unwrap(),
            Request::Health { id: None }
        );
        assert_eq!(
            parse_request(r#"{"kind":"stats","id":9}"#).unwrap(),
            Request::Stats { id: Some(9) }
        );
        assert_eq!(
            parse_request(r#"{"kind":"shutdown"}"#).unwrap(),
            Request::Shutdown { id: None }
        );
    }

    /// Lines the one-scan reader leaves to the tree parser;
    /// `tests/parse_scan_props.rs` checks that both paths agree on every
    /// line.
    #[test]
    fn scan_leaves_other_lines_to_the_tree() {
        for line in [
            r#"{"kind":"score","query":"chips"}"#,
            r#"{"kind":"score","id":null,"query":"chips"}"#,
            r#"{"kind":"score","id":18446744073709551615,"query":"chips"}"#,
            r#"{"kind":"score","id":-1,"query":"chips"}"#,
            r#"{"kind":"score","id":1.5,"query":"chips"}"#,
            r#"{"kind":"score","id":01,"query":"chips"}"#,
            r#"{"kind":"score","id":1,"query":"say \"hi\""}"#,
            r#"{"kind":"score","id":1,"query":"ch\u0069ps"}"#,
            "{\"kind\":\"score\",\"id\":1,\"query\":\"tab\there\"}",
            r#"{"kind":"score","id":1,"query":"chips","k":0}"#,
            r#"{"kind":"score","id":1,"query":"chips","k":05}"#,
            r#"{"kind":"score","id":1,"query":"chips","tier":"fp16"}"#,
            r#"{"kind":"score","id":1,"query":"chips","tier":"f\u00332"}"#,
            r#"{"kind":"score","id":1,"query":"chips","epoch":1e2}"#,
            r#"{"kind":"score","id":1,"query":"chips","epoch":1,"k":2}"#,
            r#"{"kind":"score","id":1,"query":"chips","k":2,"k":3}"#,
            r#"{"id":1,"kind":"score","query":"chips"}"#,
            r#"{"kind":"score", "id":1,"query":"chips"}"#,
            r#"{"kind":"score","id":1,"query":"chips"} "#,
            r#"{"kind":"score","id":1,"query":"chips"}x"#,
        ] {
            assert_eq!(scan_score(line), None, "{line}");
        }
    }

    /// The writer's bytes are what an `ObjWriter` writes member by
    /// member, and the scan reads them back whenever an id is present.
    #[test]
    fn score_requests_match_the_object_writer_and_scan_back() {
        for id in [None, Some(0), Some(u64::MAX / 2)] {
            for query in ["chips", "say \"hi\"\tnow\u{1}", "crème brûlée", ""] {
                for k in [None, Some(1), Some(usize::MAX / 2)] {
                    for tier in [None, Some(Tier::F32), Some(Tier::Int8)] {
                        for epoch in [None, Some(0), Some(u64::MAX / 2)] {
                            let mut w = ObjWriter::new();
                            w.str("kind", "score");
                            write_id(&mut w, id);
                            w.str("query", query);
                            if let Some(k) = k {
                                w.u64("k", k as u64);
                            }
                            if let Some(t) = tier {
                                w.str("tier", t.as_str());
                            }
                            if let Some(e) = epoch {
                                w.u64("epoch", e);
                            }
                            let mut line = String::from("prefix");
                            push_score_request(&mut line, id, query, k, tier, epoch);
                            assert_eq!(line, format!("prefix{}", w.finish()));
                            let line = &line["prefix".len()..];
                            let req = Request::Score {
                                id,
                                query: query.to_owned(),
                                k,
                                tier,
                                epoch,
                            };
                            assert_eq!(parse_request(line), Ok(req.clone()), "{line}");
                            // Only an id-less line or a query that needs escapes
                            // leaves the scan.
                            let plain = id.is_some()
                                && !query.contains(|c: char| c == '"' || c == '\\' || c < ' ');
                            assert_eq!(scan_score(line), plain.then_some(req), "{line}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"id":1}"#).is_err());
        assert!(parse_request(r#"{"kind":"nope"}"#).is_err());
        assert!(parse_request(r#"{"kind":"score"}"#).is_err());
        assert!(parse_request(r#"{"kind":"score","query":"x","k":0}"#).is_err());
        assert!(parse_request(r#"{"kind":"score","query":"x","tier":"fp64"}"#).is_err());
        assert!(parse_request(r#"{"kind":"score","query":"x","epoch":-1}"#).is_err());
        assert!(parse_request(r#"{"kind":"ingest"}"#).is_err());
        assert!(parse_request(r#"{"kind":"ingest","records":[{"item":"y"}]}"#).is_err());
        assert!(parse_request(r#"{"kind":"ingest","records":[],"phase":"abort"}"#).is_err());
        assert!(
            parse_request(r#"{"kind":"ingest","phase":"prepare"}"#).is_err(),
            "prepare still needs records"
        );
    }

    #[test]
    fn two_phase_ingest_parses_and_renders() {
        match parse_request(
            r#"{"kind":"ingest","id":4,"phase":"prepare","records":[{"query":"a","item":"b"}]}"#,
        )
        .unwrap()
        {
            Request::Ingest { phase, records, .. } => {
                assert_eq!(phase, IngestPhase::Prepare);
                assert_eq!(records.len(), 1);
            }
            other => panic!("{other:?}"),
        }
        // One encoder for every ingest line: an `Auto` request has no
        // `phase` member, and a `commit` carries empty records.
        let records = [("snack", "banana chips", 4), ("x", "say \"hi\"", 1)];
        assert_eq!(
            ingest_request(Some(2), IngestPhase::Auto, &records),
            r#"{"kind":"ingest","id":2,"records":[{"query":"snack","item":"banana chips","count":4},{"query":"x","item":"say \"hi\"","count":1}]}"#
        );
        assert_eq!(
            ingest_request(Some(7), IngestPhase::Prepare, &records[..1]),
            r#"{"kind":"ingest","id":7,"phase":"prepare","records":[{"query":"snack","item":"banana chips","count":4}]}"#
        );
        assert_eq!(
            ingest_request::<&str>(None, IngestPhase::Commit, &[]),
            r#"{"kind":"ingest","id":null,"phase":"commit","records":[]}"#
        );
        for phase in [IngestPhase::Auto, IngestPhase::Prepare, IngestPhase::Commit] {
            let line = ingest_request(Some(7), phase, &records);
            let Ok(Request::Ingest {
                id,
                records,
                phase: p,
            }) = parse_request(&line)
            else {
                panic!("{line}");
            };
            let read = (id, p, records.len(), records[1].count);
            assert_eq!(read, (Some(7), phase, 2, 1), "{line}");
        }
        match parse_request(r#"{"kind":"ingest","id":5,"phase":"commit"}"#).unwrap() {
            Request::Ingest { phase, records, .. } => {
                assert_eq!(phase, IngestPhase::Commit);
                assert!(records.is_empty(), "commit needs no records");
            }
            other => panic!("{other:?}"),
        }
        let s = IngestSummary {
            batch: 2,
            matched: 3,
            skipped: 0,
            attached: 1,
            known_pairs: 10,
            total_relations: 9,
            version: 6,
        };
        let prepared = ingest_response(Some(4), &s, true);
        let v = json::parse(&prepared).unwrap();
        assert_eq!(v.get("phase").unwrap().as_str(), Some("prepared"));
        assert_eq!(v.get("version").unwrap().as_u64(), Some(6));
        let committed = ingest_committed_response(Some(5), 6);
        let v = json::parse(&committed).unwrap();
        assert_eq!(v.get("phase").unwrap().as_str(), Some("committed"));
        assert_eq!(v.get("version").unwrap().as_u64(), Some(6));
        let stale = stale_epoch_response(Some(9), 3);
        let v = json::parse(&stale).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(v.get("error").unwrap().as_str(), Some("stale_epoch"));
        assert_eq!(v.get("version").unwrap().as_u64(), Some(3));
    }

    /// `parse_stats` and `stats_response` invert each other, up to what
    /// the wire carries: no histogram buckets, span times to the
    /// microsecond.
    #[test]
    fn stats_replies_parse_back_into_the_snapshot() {
        let line = concat!(
            r#"{"id":4,"ok":true,"kind":"stats","shards":2,"counters":{"a":18446744073709551615,"#,
            r#""b":0},"gauges":{"g \"odd\"":-9223372036854775808},"histograms":{"h":{"count":3,"#,
            r#""sum":9}},"spans":{"s":{"count":12,"total_ms":86400000.000,"max_ms":0.001}}}"#
        );
        let snap = parse_stats(line).expect("an ok stats reply");
        assert_eq!(stats_response(Some(4), Some(2), &snap), line);
        assert_eq!(snap.counters[0].value, u64::MAX);
        assert_eq!(snap.gauges[0].value, i64::MIN);
        assert_eq!(snap.spans[0].total_ns, 86_400_000_000_000);
        let mut fine = snap.clone();
        fine.histograms[0].bounds = vec![4];
        fine.histograms[0].buckets = vec![2, 1];
        fine.spans[0].max_ns = 1_499;
        assert_eq!(parse_stats(&stats_response(None, None, &fine)), Some(snap));
        assert_eq!(parse_stats(&error_response(Some(4), "busy", None)), None);
    }

    /// Fleet `stats` folds shard replies by name: counters, gauges,
    /// histogram counts and sums, span counts and totals add, span
    /// maxima take the larger, and no histogram buckets survive.
    #[test]
    fn parsed_stats_replies_merge_by_name() {
        let a = r#"{"ok":true,"counters":{"a":1,"c":3},"gauges":{"g":-2},"histograms":{"h":{"count":1,"sum":4}},"spans":{"s":{"count":2,"total_ms":0.500,"max_ms":0.300}}}"#;
        let b = r#"{"ok":true,"counters":{"b":2,"c":4},"gauges":{"g":5},"histograms":{"h":{"count":2,"sum":6}},"spans":{"r":{"count":1,"total_ms":0.007,"max_ms":0.007},"s":{"count":1,"total_ms":0.900,"max_ms":0.900}}}"#;
        let mut merged = parse_stats(a).unwrap();
        (merged.histograms[0].bounds, merged.histograms[0].buckets) = (vec![4], vec![0, 1]);
        merged.merge(&parse_stats(b).unwrap());
        assert!(merged.histograms[0].buckets.is_empty() && merged.histograms[0].bounds.is_empty());
        assert_eq!(
            stats_response(None, Some(2), &merged),
            r#"{"id":null,"ok":true,"kind":"stats","shards":2,"counters":{"a":1,"b":2,"c":7},"gauges":{"g":3},"histograms":{"h":{"count":3,"sum":10}},"spans":{"r":{"count":1,"total_ms":0.007,"max_ms":0.007},"s":{"count":3,"total_ms":1.400,"max_ms":0.900}}}"#
        );
    }

    #[test]
    fn responses_are_single_line_json() {
        let mut vocab = Vocabulary::new();
        let chips = vocab.intern("crisps");
        let cands = vec![ScoredCandidate {
            item: chips,
            score: 0.25,
            attached: true,
        }];
        for line in [
            score_response(Some(1), "snack", 2, Tier::F32, &vocab, &cands),
            error_response(None, "busy", None),
            error_response(Some(2), "bad_request", Some("nope")),
            health_response(Some(3), 1, 10, 9, 0, false),
            stats_response(Some(4), None, &taxo_obs::snapshot()),
            shutdown_response(Some(5)),
        ] {
            assert!(!line.contains('\n'), "{line}");
            let v = crate::json::parse(&line).expect(&line);
            assert!(v.get("ok").is_some(), "{line}");
        }
        let score = score_response(Some(1), "snack", 2, Tier::Int8, &vocab, &cands);
        let v = crate::json::parse(&score).unwrap();
        let c = &v.get("candidates").unwrap().items().unwrap()[0];
        assert_eq!(c.get("term").unwrap().as_str(), Some("crisps"));
        assert_eq!(c.get("score").unwrap().as_f32(), Some(0.25));
        assert_eq!(c.get("attached"), Some(&Value::Bool(true)));
        assert_eq!(v.get("tier").unwrap().as_str(), Some("int8"));
    }

    /// The exact bytes of a score response: every other check compares
    /// two renderings with each other, so this one holds the format.
    #[test]
    fn score_response_bytes_are_pinned() {
        let mut vocab = Vocabulary::new();
        let odd = vocab.intern("say \"hi\"\tnow\u{1}");
        let crisps = vocab.intern("crisps");
        let cands = vec![
            ScoredCandidate {
                item: odd,
                score: 0.875,
                attached: false,
            },
            ScoredCandidate {
                item: crisps,
                score: 1.5e-5,
                attached: true,
            },
        ];
        let query = "snack \"mix\"";
        assert_eq!(
            score_response(Some(7), query, 3, Tier::F32, &vocab, &cands),
            r#"{"id":7,"ok":true,"kind":"score","query":"snack \"mix\"","tier":"f32","version":3,"candidates":[{"term":"say \"hi\"\tnow\u0001","score":0.875,"attached":false},{"term":"crisps","score":0.000015,"attached":true}]}"#
        );
        assert_eq!(
            score_response(None, query, 3, Tier::Int8, &vocab, &cands),
            r#"{"id":null,"ok":true,"kind":"score","query":"snack \"mix\"","tier":"int8","version":3,"candidates":[{"term":"say \"hi\"\tnow\u0001","score":0.875,"attached":false},{"term":"crisps","score":0.000015,"attached":true}]}"#
        );
        assert_eq!(
            score_response(None, "snack", 0, Tier::F32, &vocab, &[]),
            r#"{"id":null,"ok":true,"kind":"score","query":"snack","tier":"f32","version":0,"candidates":[]}"#
        );
        assert_eq!(
            score_response(Some(1), "snack", 12, Tier::Int8, &vocab, &[]),
            r#"{"id":1,"ok":true,"kind":"score","query":"snack","tier":"int8","version":12,"candidates":[]}"#
        );
    }

    #[test]
    fn rendered_ranking_splices_every_prefix() {
        let mut vocab = Vocabulary::new();
        let ranked: Vec<ScoredCandidate> = ["say \"hi\"\tnow\u{1}", "crisps", "chips"]
            .into_iter()
            .zip([0.875, 1.5e-5, -0.0])
            .enumerate()
            .map(|(i, (term, score))| ScoredCandidate {
                item: vocab.intern(term),
                score,
                attached: i == 1,
            })
            .collect();
        let rendered = RenderedRanking::render("snack \"mix\"", &vocab, &ranked);
        assert_eq!(rendered.len(), 3);
        assert_eq!(
            rendered.response(Some(7), 3, 2),
            r#"{"id":7,"ok":true,"kind":"score","query":"snack \"mix\"","tier":"f32","version":3,"candidates":[{"term":"say \"hi\"\tnow\u0001","score":0.875,"attached":false},{"term":"crisps","score":0.000015,"attached":true}]}"#
        );
        for k in 0..=ranked.len() + 2 {
            for id in [Some(u64::MAX), Some(0), None] {
                let top = &ranked[..k.min(ranked.len())];
                assert_eq!(
                    rendered.response(id, u64::MAX, k),
                    score_response(id, "snack \"mix\"", u64::MAX, Tier::F32, &vocab, top),
                    "k = {k}, id = {id:?}"
                );
            }
        }
    }

    #[test]
    fn tier_parses_both_ways() {
        assert_eq!(
            parse_request(r#"{"kind":"score","query":"x","tier":"int8"}"#).unwrap(),
            Request::Score {
                id: None,
                query: "x".into(),
                k: None,
                tier: Some(Tier::Int8),
                epoch: None
            }
        );
        assert_eq!("f32".parse::<Tier>().unwrap(), Tier::F32);
        assert_eq!("int8".parse::<Tier>().unwrap(), Tier::Int8);
        assert!("fp16".parse::<Tier>().is_err());
    }

    #[test]
    fn frame_decoder_reassembles_split_and_pipelined_frames() {
        let mut dec = FrameDecoder::new();
        dec.push(b"{\"kind\":\"he");
        assert_eq!(dec.next_frame().unwrap(), None, "partial line held");
        dec.push(b"alth\"}\r\n{\"kind\":\"stats\"}\n\n{\"k");
        assert_eq!(
            dec.next_frame().unwrap().as_deref(),
            Some("{\"kind\":\"health\"}"),
            "\\r\\n terminator stripped"
        );
        assert_eq!(
            dec.next_frame().unwrap().as_deref(),
            Some("{\"kind\":\"stats\"}"),
            "pipelined second frame, empty line skipped"
        );
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.buffered(), 3);
        dec.push(b"\n");
        assert_eq!(dec.next_frame().unwrap().as_deref(), Some("{\"k"));
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn frame_decoder_rejects_oversized_frames_and_stays_poisoned() {
        let mut dec = FrameDecoder::with_max_frame(8);
        dec.push(b"12345678");
        assert_eq!(dec.next_frame().unwrap(), None, "exactly at the cap");
        dec.push(b"9");
        let err = dec.next_frame().unwrap_err();
        assert_eq!(err.limit, 8);
        // A later terminator cannot resurrect the stream: the overlong
        // line's tail would otherwise be parsed as fresh frames.
        dec.push(b"\nok\n");
        assert!(dec.next_frame().is_err(), "decoder stays poisoned");
    }

    #[test]
    fn spliced_tail_equals_direct_rendering() {
        let mut vocab = Vocabulary::new();
        let c = vocab.intern("crisps");
        let cands = vec![ScoredCandidate {
            item: c,
            score: 0.75,
            attached: false,
        }];
        let tail = score_response_tail("snack", 3, Tier::F32, &vocab, &cands);
        assert_eq!(
            splice_response(Some(9), &tail),
            score_response(Some(9), "snack", 3, Tier::F32, &vocab, &cands)
        );
        assert_eq!(
            splice_response(None, &tail),
            score_response(None, "snack", 3, Tier::F32, &vocab, &cands)
        );
    }
}
