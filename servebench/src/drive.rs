//! The closed-loop score connections and the paced ingest sender.
//!
//! Every connection runs on the same clock: a warm-up, then the timed
//! measurement windows back to back. With tracing, the second half of
//! the windows is the traced phase. A request belongs to the window it
//! was sent in; nothing is sent after the last window.

use crate::stats::Samples;
use crate::stream::Picker;
use crate::trace::Span;
use crate::wire::{Conn, PlannedQuery, Verdict, Verifier};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use taxo_serve::{Client, Reply};

/// The shared schedule of the timed windows.
#[derive(Clone, Copy)]
pub struct Clock {
    pub origin: Instant,
    /// The warm-up ends and window 0 starts.
    pub t1: Instant,
    pub win: Duration,
    /// Timed windows in the run.
    pub windows: usize,
    /// With tracing: the first window of the traced phase.
    pub traced_from: Option<usize>,
}

/// Where an instant falls on the clock.
#[derive(Debug, PartialEq, Eq)]
pub enum Slot {
    Warmup,
    /// Timed window `k` of phase `phase` (1 = traced).
    Window {
        k: usize,
        phase: usize,
    },
    Done,
}

impl Clock {
    pub fn window_start(&self, k: usize) -> Instant {
        self.t1 + self.win * k as u32
    }

    pub fn phase_of(&self, k: usize) -> usize {
        usize::from(self.traced_from.is_some_and(|t| k >= t))
    }

    pub fn slot(&self, at: Instant) -> Slot {
        if at < self.t1 {
            return Slot::Warmup;
        }
        let k = (at.duration_since(self.t1).as_nanos() / self.win.as_nanos()) as usize;
        if k >= self.windows {
            Slot::Done
        } else {
            Slot::Window {
                k,
                phase: self.phase_of(k),
            }
        }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }
}

pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Ingest-mix pacing: ingest batch `j` falls due once the score
/// connections have completed `(j + 1) * every` timed queries, so every
/// run does the same mix of reads and writes whatever the host's speed.
/// The score connections wait while two due batches are unacked.
pub struct Pace {
    every: u64,
    /// Timed score queries completed.
    scored: AtomicU64,
    /// Batches acked or failed.
    done: AtomicU64,
    /// When batch `j` fell due (ns on the clock), in slot `j % 4`.
    due: [AtomicU64; 4],
}

impl Pace {
    pub fn new(every: u64) -> Self {
        Pace {
            every,
            scored: AtomicU64::new(0),
            done: AtomicU64::new(0),
            due: Default::default(),
        }
    }

    /// Called before a timed burst: waits while two due batches are
    /// unacked, or until the phase ends.
    fn hold(&self, clock: &Clock) {
        while self.scored.load(Ordering::Acquire)
            >= (self.done.load(Ordering::Acquire) + 2) * self.every
            && clock.slot(Instant::now()) != Slot::Done
        {
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Counts `n` completed timed queries, stamping any batch that fell due.
    fn scored(&self, n: u64, clock: &Clock) {
        let before = self.scored.fetch_add(n, Ordering::AcqRel);
        let now = clock.ns(Instant::now());
        for j in before / self.every..(before + n) / self.every {
            self.due[j as usize % 4].store(now, Ordering::Release);
        }
    }

    /// Waits until batch `j` is due; its due time, or `None` once the
    /// phase is over.
    fn wait_due(&self, j: u64, clock: &Clock) -> Option<Instant> {
        while self.scored.load(Ordering::Acquire) < (j + 1) * self.every {
            if clock.slot(Instant::now()) == Slot::Done {
                return None;
            }
            std::thread::park_timeout(Duration::from_micros(500));
        }
        let ns = self.due[j as usize % 4].load(Ordering::Acquire);
        Some(clock.origin + Duration::from_nanos(ns))
    }
}

/// What one connection observed.
#[derive(Default)]
pub struct ConnOut {
    /// Per timed window: one latency sample (ns) per query; a query sent
    /// in a pipelined burst gets the burst's latency.
    pub windows: Vec<Samples>,
    /// Per timed phase: one latency sample per burst (one per query for
    /// single requests).
    pub burst_latency: [Samples; 2],
    /// `(send time ns, query)` of every timed query, for the repeat-share
    /// input property and the in-process replay.
    pub sent: Vec<(u64, u32)>,
    /// One span per client call in the traced phase.
    pub spans: Vec<Span>,
    pub counts: Counts,
}

/// Operation outcomes, summed over every phase of the run.
#[derive(Default, Clone, Debug)]
pub struct Counts {
    pub attempted: u64,
    pub failed: u64,
    pub exact: u64,
    pub pure: u64,
    /// Ingest acks checked `ok` with a new version.
    pub acked: u64,
    pub first_failure: Option<String>,
}

impl Counts {
    /// Counts `n` failed operations, keeping the first reason.
    pub fn fail_n(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }

    pub fn fail(&mut self, why: String) {
        self.fail_n(1, why);
    }

    pub fn record(&mut self, verdict: Verdict) {
        match verdict {
            Verdict::Exact => self.exact += 1,
            Verdict::Pure => self.pure += 1,
            Verdict::Failed(why) => self.fail(why),
        }
    }

    /// Operations whose result passed verification.
    pub fn verified(&self) -> u64 {
        self.exact + self.pure + self.acked
    }

    pub fn add(&mut self, other: &Counts) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.exact += other.exact;
        self.pure += other.pure;
        self.acked += other.acked;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&other.first_failure);
        }
    }
}

/// Reused buffers for the bursts of one connection.
#[derive(Default)]
pub struct Burst {
    frame: String,
    lines: Vec<String>,
}

impl Burst {
    /// Sends `picks` as one pipelined write under ids `first_id..`, reads
    /// every reply, then verifies them. Returns the burst's latency (ns),
    /// or `None` after a transport failure (counted in `counts`).
    pub fn run(
        &mut self,
        conn: &mut Conn,
        picks: &[usize],
        first_id: u64,
        plan: &[PlannedQuery],
        verifier: &Verifier,
        counts: &mut Counts,
    ) -> Option<u64> {
        self.frame.clear();
        for (i, &q) in picks.iter().enumerate() {
            plan[q].render(first_id + i as u64, &mut self.frame);
        }
        if self.lines.len() < picks.len() {
            self.lines.resize_with(picks.len(), String::new);
        }
        counts.attempted += picks.len() as u64;
        let start = Instant::now();
        if let Err(e) = conn.send(&self.frame) {
            counts.fail_n(picks.len() as u64, format!("send: {e}"));
            return None;
        }
        for i in 0..picks.len() {
            if let Err(e) = conn.recv(&mut self.lines[i]) {
                counts.fail_n((picks.len() - i) as u64, format!("receive: {e}"));
                return None;
            }
        }
        let ns = start.elapsed().as_nanos() as u64;
        for (i, &q) in picks.iter().enumerate() {
            counts.record(verifier.check(plan, q, first_id + i as u64, &self.lines[i]));
        }
        Some(ns)
    }
}

/// Sends every query once on one connection — the cache-filling sweep
/// that starts each workload.
pub fn sweep(addr: SocketAddr, plan: &[PlannedQuery], verifier: &Verifier) -> Counts {
    let mut counts = Counts::default();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            counts.attempted += plan.len() as u64;
            counts.fail_n(plan.len() as u64, format!("sweep connect: {e}"));
            return counts;
        }
    };
    let mut burst = Burst::default();
    for q in 0..plan.len() {
        if burst
            .run(&mut conn, &[q], q as u64 + 1, plan, verifier, &mut counts)
            .is_none()
        {
            break;
        }
    }
    counts
}

/// One closed-loop score connection sending bursts of `burst` queries
/// (1 = one request at a time). `global` numbers queries across
/// connections for the cycling picker; `pace` couples the ingest sender
/// to this connection's progress.
#[allow(clippy::too_many_arguments)]
pub fn score_conn(
    addr: SocketAddr,
    clock: Clock,
    burst: usize,
    mut picker: Picker,
    global: &AtomicU64,
    pace: Option<&Pace>,
    plan: &[PlannedQuery],
    verifier: &Verifier,
    conn_idx: u64,
) -> ConnOut {
    let mut out = ConnOut {
        windows: vec![Samples::new(); clock.windows],
        ..ConnOut::default()
    };
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.counts.attempted += burst as u64;
            out.counts
                .fail_n(burst as u64, format!("connect {addr}: {e}"));
            return out;
        }
    };
    let mut bursts = Burst::default();
    let mut picks = vec![0usize; burst];
    let mut next_id = 1u64;
    loop {
        let mut window = match clock.slot(Instant::now()) {
            Slot::Done => break,
            Slot::Warmup => None,
            Slot::Window { k, phase } => Some((k, phase)),
        };
        if let (Some(p), Some(_)) = (pace, window) {
            p.hold(&clock);
            window = match clock.slot(Instant::now()) {
                Slot::Window { k, phase } => Some((k, phase)),
                _ => break,
            };
        }
        for p in picks.iter_mut() {
            *p = picker.pick(global.fetch_add(1, Ordering::Relaxed));
        }
        let first_id = next_id;
        next_id += burst as u64;
        let start = Instant::now();
        let Some(ns) = bursts.run(&mut conn, &picks, first_id, plan, verifier, &mut out.counts)
        else {
            break;
        };
        let Some((k, phase)) = window else { continue };
        if let Some(p) = pace {
            p.scored(burst as u64, &clock);
        }
        out.burst_latency[phase].push(ns);
        let sent_ns = clock.ns(start);
        for &q in &picks {
            out.windows[k].push(ns);
            out.sent.push((sent_ns, q as u32));
        }
        if phase == 1 {
            out.spans.push(Span {
                name: if burst == 1 {
                    "client.score"
                } else {
                    "client.burst"
                },
                start: sent_ns,
                end: sent_ns + ns,
                parent: None,
                req: (conn_idx << 40) | first_id,
            });
        }
    }
    out
}

/// Ingest acks after which ingest-mix reads the servers' memory, so
/// that every run has ingested the same records when it does.
pub const RSS_AFTER_ACKS: u64 = 50;

/// Summed `VmHWM` (peak resident memory) of processes, in MB.
pub fn vm_hwm_mb(pids: &[u32]) -> f64 {
    let kb: u64 = pids
        .iter()
        .filter_map(|p| std::fs::read_to_string(format!("/proc/{p}/status")).ok())
        .filter_map(|st| {
            st.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
        })
        .sum();
    kb as f64 / 1024.0
}

/// What the ingest sender observed.
#[derive(Default)]
pub struct IngestOut {
    /// Per timed phase: scheduled send time to durable ack (ns).
    pub ack: [Samples; 2],
    /// Acks per timed window of their due time.
    pub ack_windows: Vec<u64>,
    /// How late each batch was sent against its schedule (ns).
    pub lag: Samples,
    pub spans: Vec<Span>,
    pub counts: Counts,
    /// `vm_hwm_mb` of the servers right after ack `RSS_AFTER_ACKS`.
    pub rss_mb: Option<f64>,
}

/// The paced ingest sender: batch `j` is sent when `pace` says it is
/// due and is timed from that due time, so a stalled server pays for
/// the batch queued behind the stall. Every ack must be `ok` and publish
/// a version above the previous ack's. `pids` are the server processes
/// whose memory is read after `RSS_AFTER_ACKS` acks.
pub fn ingest_conn(
    addr: SocketAddr,
    clock: Clock,
    pace: &Pace,
    batches: &[Vec<(String, String, u64)>],
    pids: &[u32],
) -> IngestOut {
    let mut out = IngestOut {
        ack_windows: vec![0; clock.windows],
        ..IngestOut::default()
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.counts.attempted += 1;
            out.counts.fail(format!("ingest connect {addr}: {e}"));
            return out;
        }
    };
    let mut last_version = 0u64;
    for j in 0.. {
        let Some(due) = pace.wait_due(j, &clock) else {
            break;
        };
        let Some(batch) = batches.get(j as usize) else {
            out.counts.attempted += 1;
            out.counts.fail(format!(
                "the ingest segment ({} batches) ran out before the phase ended",
                batches.len()
            ));
            break;
        };
        out.counts.attempted += 1;
        let sent = Instant::now();
        let reply = client.ingest(batch);
        let done = Instant::now();
        pace.done.fetch_add(1, Ordering::AcqRel);
        match check_ack(reply, last_version) {
            Ok(version) => {
                last_version = version;
                out.counts.acked += 1;
                if out.counts.acked == RSS_AFTER_ACKS {
                    out.rss_mb = Some(vm_hwm_mb(pids));
                }
            }
            Err(why) => {
                out.counts.fail(format!("ingest batch {j}: {why}"));
                continue;
            }
        }
        let Slot::Window { k, phase } = clock.slot(due) else {
            continue;
        };
        out.ack[phase].push(done.duration_since(due).as_nanos() as u64);
        out.ack_windows[k] += 1;
        out.lag
            .push(sent.saturating_duration_since(due).as_nanos() as u64);
        if phase == 1 {
            out.spans.push(Span {
                name: "client.ingest",
                start: clock.ns(due),
                end: clock.ns(done),
                parent: None,
                req: (u64::MAX << 40) | j,
            });
        }
    }
    out
}

/// Checks an ingest ack: `ok`, with a version above the previous ack's,
/// since every acked batch publishes a new snapshot.
pub fn check_ack(reply: std::io::Result<Reply>, last_version: u64) -> Result<u64, String> {
    let v = match reply {
        Ok(Reply::Ok(v)) => v,
        Ok(Reply::Err { code, .. }) => return Err(format!("error reply {code}")),
        Err(e) => return Err(format!("transport: {e}")),
    };
    match v.get("version").and_then(taxo_serve::json::Value::as_u64) {
        Some(version) if version > last_version => Ok(version),
        Some(version) => Err(format!(
            "ack at version {version}, not above the previous ack's {last_version}"
        )),
        None => Err("ack without a version".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxo_serve::json;

    #[test]
    fn slots_follow_the_windows() {
        let origin = Instant::now();
        let c = Clock {
            origin,
            t1: origin + Duration::from_millis(1000),
            win: Duration::from_millis(500),
            windows: 3,
            traced_from: Some(2),
        };
        let ms = |m: u64| c.origin + Duration::from_millis(m);
        assert_eq!(c.slot(ms(999)), Slot::Warmup);
        assert_eq!(c.slot(ms(1000)), Slot::Window { k: 0, phase: 0 });
        assert_eq!(c.slot(ms(1499)), Slot::Window { k: 0, phase: 0 });
        assert_eq!(c.slot(ms(1500)), Slot::Window { k: 1, phase: 0 });
        assert_eq!(c.slot(ms(2100)), Slot::Window { k: 2, phase: 1 });
        assert_eq!(c.slot(ms(2500)), Slot::Done);
    }

    #[test]
    fn ingest_batches_fall_due_by_score_count() {
        let origin = Instant::now();
        let open = Clock {
            origin,
            t1: origin,
            win: Duration::from_secs(60),
            windows: 1,
            traced_from: None,
        };
        let pace = Pace::new(3);
        pace.scored(2, &open);
        pace.scored(5, &open);
        // 7 queries: batches 0 and 1 (due at 3 and 6) are due, batch 2 is not.
        assert!(pace.wait_due(0, &open).is_some());
        assert!(pace.wait_due(1, &open).is_some());
        let over = Clock {
            t1: origin - Duration::from_secs(120),
            ..open
        };
        assert_eq!(pace.wait_due(2, &over), None, "not due when the phase ends");
        // Two due batches unacked: the score side holds until the phase
        // ends; one ack releases it.
        let t = Instant::now();
        pace.hold(&over);
        assert!(t.elapsed() < Duration::from_secs(1));
        pace.done.fetch_add(1, Ordering::AcqRel);
        assert!(
            pace.scored.load(Ordering::Acquire) < (pace.done.load(Ordering::Acquire) + 2) * 3,
            "one ack lets the score side go on"
        );
    }

    #[test]
    fn acks_must_publish_a_new_version() {
        let ack = |line: &str| Ok(Reply::Ok(json::parse(line).expect("test json")));
        assert_eq!(
            check_ack(ack(r#"{"id":1,"ok":true,"version":1}"#), 0),
            Ok(1)
        );
        assert_eq!(
            check_ack(ack(r#"{"id":2,"ok":true,"version":5}"#), 1),
            Ok(5)
        );
        assert!(check_ack(ack(r#"{"id":3,"ok":true,"version":5}"#), 5).is_err());
        assert!(check_ack(ack(r#"{"id":3,"ok":true,"version":4}"#), 5).is_err());
        assert!(check_ack(ack(r#"{"id":3,"ok":true}"#), 0).is_err());
        let busy = Ok(Reply::Err {
            code: "busy".into(),
            detail: None,
        });
        assert_eq!(check_ack(busy, 0), Err("error reply busy".into()));
    }
}
