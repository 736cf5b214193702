//! A lean line-protocol client and the response verifier.
//!
//! The generator shares two vCPUs with the server, so its per-request
//! cost matters: requests are rendered from pre-escaped fragments, and a
//! response at snapshot version 0 is verified by one byte comparison
//! against the tail rendered offline from the baseline snapshot. Only a
//! response that differs in bytes is parsed, and it passes only if its
//! candidates are bit-identical to the baseline.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use taxo_serve::json::{self, Value};
use taxo_serve::{candidate_key, Tier};

/// One scorable query: its wire fragment and the baseline answer.
pub struct PlannedQuery {
    pub name: String,
    /// `"query":"<escaped name>"}` — the request line after the id.
    pub request_tail: String,
    /// The version-0 response bytes after `{"id":N,"ok":true,`.
    pub expected_tail: String,
    /// The version-0 candidates as `(term, score bits, attached)`.
    pub expected_key: Vec<(String, u32, bool)>,
}

impl PlannedQuery {
    pub fn new(
        name: &str,
        snapshot: &taxo_serve::ServeSnapshot,
        qid: taxo_core::ConceptId,
    ) -> Self {
        let cfg = taxo_serve::ServeConfig::default();
        let ranked = snapshot.score_query(qid, cfg.max_candidates, cfg.default_k);
        let mut escaped = String::new();
        json::encode_str(name, &mut escaped);
        PlannedQuery {
            name: name.to_owned(),
            request_tail: format!("\"query\":{escaped}}}\n"),
            expected_tail: taxo_serve::protocol::score_response_tail(
                name,
                snapshot.version,
                Tier::F32,
                &snapshot.vocab,
                &ranked,
            ),
            expected_key: taxo_serve::expected_key(&snapshot.vocab, &ranked),
        }
    }

    /// Appends this query's `score` request line under `id`.
    pub fn render(&self, id: u64, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "{{\"kind\":\"score\",\"id\":{id},");
        out.push_str(&self.request_tail);
    }
}

/// The score hot path's blocking line connection: it writes pre-rendered
/// frames and reads replies into reused buffers. No retries: a
/// transport error is a failed operation.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    pub fn send(&mut self, bytes: &str) -> std::io::Result<()> {
        self.writer.write_all(bytes.as_bytes())
    }

    /// Reads one response line into `line` (terminator stripped).
    pub fn recv(&mut self, line: &mut String) -> std::io::Result<()> {
        line.clear();
        if self.reader.read_line(line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let trimmed = line.trim_end_matches(['\n', '\r']).len();
        line.truncate(trimmed);
        Ok(())
    }
}

/// How one response checked out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Version 0, bit-identical to the offline baseline.
    Exact,
    /// A later snapshot version, byte-identical to every other response
    /// for the same (query, version).
    Pure,
    /// Any error reply (`busy` included) or a verify mismatch.
    Failed(String),
}

/// Checks responses against the baseline and the (query, version)
/// purity ledger shared by every connection.
#[derive(Default)]
pub struct Verifier {
    ledger: Mutex<HashMap<(usize, u64), String>>,
}

impl Verifier {
    pub fn check(&self, plan: &[PlannedQuery], q: usize, id: u64, line: &str) -> Verdict {
        let mut prefix = String::with_capacity(32);
        {
            use std::fmt::Write as _;
            let _ = write!(prefix, "{{\"id\":{id},\"ok\":true,");
        }
        let Some(tail) = line.strip_prefix(prefix.as_str()) else {
            return Verdict::Failed(error_code(line));
        };
        let expected = &plan[q];
        if tail == expected.expected_tail {
            return Verdict::Exact;
        }
        // Bytes differ from the version-0 rendering: parse once.
        let Ok(v) = json::parse(line) else {
            return Verdict::Failed(format!("unparseable response {line:?}"));
        };
        if v.get("query").and_then(Value::as_str) != Some(expected.name.as_str()) {
            return Verdict::Failed(format!("response for the wrong query: {line}"));
        }
        let Some(key) = candidate_key(&v) else {
            return Verdict::Failed(format!("malformed candidates: {line}"));
        };
        match v.get("version").and_then(Value::as_u64) {
            Some(0) if key == expected.expected_key => Verdict::Exact,
            Some(0) => Verdict::Failed(format!("differs from the baseline: {line}")),
            Some(version) => {
                let mut ledger = self.ledger.lock().unwrap_or_else(|e| e.into_inner());
                match ledger.get(&(q, version)) {
                    Some(seen) if seen == tail => Verdict::Pure,
                    Some(seen) => Verdict::Failed(format!(
                        "impure: query {:?} at version {version} answered both {seen:?} and {tail:?}",
                        expected.name
                    )),
                    None => {
                        ledger.insert((q, version), tail.to_owned());
                        Verdict::Pure
                    }
                }
            }
            None => Verdict::Failed(format!("response without a version: {line}")),
        }
    }
}

/// The error code of a reply, or a description of what it was instead.
pub fn error_code(line: &str) -> String {
    match json::parse(line) {
        Ok(v) => match v.get("error").and_then(Value::as_str) {
            Some(code) => format!("error reply {code}"),
            None => format!("unexpected reply {line:?}"),
        },
        Err(_) => format!("unparseable reply {line:?}"),
    }
}
