//! `servegen` — the load generator of the serving benchmark.
//!
//! `run.py` starts the servers, then runs this binary against them:
//!
//! ```text
//! servegen --workload NAME --seed N --seconds S --trace 0|1
//!          --targets FRONT[,SHARD,SHARD] --pids PID[,PID,...]
//!          --clk-tck HZ --run-dir DIR [--trace-out FILE]
//! ```
//!
//! It rebuilds the serving baseline offline, drives the workload over
//! loopback with at most two threads and two connections, verifies
//! every response, and prints `# ` lines for people followed by one JSON
//! line for `run.py`. It exits nonzero when any operation failed.

mod drive;
mod replay;
mod stats;
mod stream;
mod trace;
mod wire;

use drive::{sleep_until, Burst, Clock, ConnOut, Counts, IngestOut};
use stats::{us, Samples};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stream::Picker;
use taxo_serve::json::Value;
use taxo_serve::{Client, Reply, ServeConfig, ServeSnapshot};
use wire::{Conn, PlannedQuery, Verifier};

/// The world seed: it defines the trained model, so it never varies.
const WORLD_SEED: u64 = 42;
/// Time-based warm-up after the cache-filling sweep.
const WARMUP: Duration = Duration::from_secs(1);
/// Records per ingest batch on ingest-mix.
const INGEST_BATCH: usize = 50;
/// Timed score queries per ingest batch on ingest-mix.
const INGEST_EVERY: u64 = 500;
/// The fastest score rate the ingest segment is sized for.
const INGEST_MAX_RPS: f64 = 50_000.0;
/// Queries per pipelined burst on routed.
const ROUTED_BURST: usize = 8;
/// Wall-time cap of the in-process replay.
const REPLAY_BUDGET: Duration = Duration::from_secs(2);
/// Length of the interleaved routed-versus-direct burst probe.
const DIRECT_PROBE: Duration = Duration::from_secs(2);
/// Measurement window of the timed phase.
const WINDOW: Duration = Duration::from_millis(500);
/// How much slower the CPU time the hypervisor grants runs when it
/// grants only part of what the machine wanted: at granted share `g` it
/// runs at `g^CONTENTION` of full speed. Fitted over 120 runs on the
/// benchmark's 2-vCPU host (README, "At full host speed"); `run.py`
/// applies the same value to set-up time.
const CONTENTION: f64 = 0.25;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    ScoreHot,
    ScoreCold,
    IngestMix,
    Routed,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "score-hot" => Some(Workload::ScoreHot),
            "score-cold" => Some(Workload::ScoreCold),
            "ingest-mix" => Some(Workload::IngestMix),
            "routed" => Some(Workload::Routed),
            _ => None,
        }
    }

    fn score_conns(self) -> usize {
        match self {
            Workload::ScoreHot | Workload::ScoreCold => 2,
            Workload::IngestMix | Workload::Routed => 1,
        }
    }

    fn burst(self) -> usize {
        if self == Workload::Routed {
            ROUTED_BURST
        } else {
            1
        }
    }

    /// `(score cache, response cache)` capacities of the workload's
    /// server: score-cold runs with `--score-cache 1 --resp-cache 1`.
    fn cache_caps(self) -> (usize, usize) {
        let d = ServeConfig::default();
        match self {
            Workload::ScoreCold => (1, 1),
            _ => (d.score_cache_cap, d.resp_cache_cap),
        }
    }
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    targets: Vec<SocketAddr>,
    pids: Vec<u32>,
    clk_tck: f64,
    run_dir: std::path::PathBuf,
    trace_out: Option<std::path::PathBuf>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut get = HashMap::new();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].clone();
        let value = argv
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| die(&format!("{flag} takes a value")));
        get.insert(flag, value);
        i += 2;
    }
    let take = |flag: &str| -> String {
        get.get(flag)
            .cloned()
            .unwrap_or_else(|| die(&format!("missing {flag}")))
    };
    let name = take("--workload");
    let workload =
        Workload::parse(&name).unwrap_or_else(|| die(&format!("unknown workload {name:?}")));
    let list = |flag: &str| -> Vec<String> { take(flag).split(',').map(str::to_owned).collect() };
    Args {
        workload,
        name,
        seed: take("--seed")
            .parse()
            .unwrap_or_else(|_| die("--seed takes an integer")),
        seconds: take("--seconds")
            .parse()
            .unwrap_or_else(|_| die("--seconds takes a number")),
        trace: take("--trace") == "1",
        targets: list("--targets")
            .iter()
            .map(|a| {
                a.parse()
                    .unwrap_or_else(|_| die(&format!("bad address {a:?}")))
            })
            .collect(),
        pids: list("--pids")
            .iter()
            .map(|p| p.parse().unwrap_or_else(|_| die(&format!("bad pid {p:?}"))))
            .collect(),
        clk_tck: take("--clk-tck")
            .parse()
            .unwrap_or_else(|_| die("--clk-tck takes a number")),
        run_dir: take("--run-dir").into(),
        trace_out: get.get("--trace-out").map(Into::into),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("servegen: {msg}");
    std::process::exit(2);
}

/// The offline twin of the servers' version-0 state.
struct Baseline {
    expander: taxo_expand::IncrementalExpander,
    snapshot: Arc<ServeSnapshot>,
    queries: Vec<taxo_core::ConceptId>,
    plan: Vec<PlannedQuery>,
    initial_build: Duration,
    /// The workload-seeded click segment, as wire and click records.
    wire_batches: Vec<Vec<(String, String, u64)>>,
    click_batches: Vec<Vec<taxo_synth::ClickRecord>>,
}

fn baseline(seed: u64, batches_needed: usize) -> Baseline {
    let (world, trained) = taxo_bench::serving_pipeline(WORLD_SEED);
    let expander = trained.into_expander(&world.existing, taxo_bench::serving_expansion_config());
    let vocab = Arc::new(world.vocab.clone());
    let pairs = expander.candidate_pairs();
    let t = Instant::now();
    let snapshot = Arc::new(ServeSnapshot::build(
        0,
        Arc::clone(&vocab),
        Arc::new(expander.detector().clone()),
        expander.taxonomy().clone(),
        &pairs,
    ));
    let initial_build = t.elapsed();
    let cap = ServeConfig::default().max_candidates;
    let mut queries: Vec<taxo_core::ConceptId> = pairs.iter().map(|p| p.query).collect();
    queries.sort_unstable();
    queries.dedup();
    queries.retain(|&q| !snapshot.eligible(q, cap).is_empty());
    let plan = queries
        .iter()
        .map(|&q| PlannedQuery::new(vocab.name(q), &snapshot, q))
        .collect();

    // Unseen click evidence for this seed, built the way `loadgen
    // --drift` builds its segment, cut into fixed-size batches.
    let mut n_events = 20_000;
    let records = if batches_needed == 0 {
        Vec::new()
    } else {
        loop {
            let log = taxo_synth::ClickLog::generate(
                &world,
                &taxo_synth::ClickConfig {
                    n_events,
                    ..taxo_synth::ClickConfig::tiny(seed ^ 0xD21F)
                },
            );
            if log.records.len() >= batches_needed * INGEST_BATCH || n_events >= 5_000_000 {
                break log.records;
            }
            n_events *= 2;
        }
    };
    let click_batches: Vec<Vec<taxo_synth::ClickRecord>> = records
        .chunks_exact(INGEST_BATCH)
        .map(<[_]>::to_vec)
        .collect();
    let wire_batches = click_batches
        .iter()
        .map(|b| {
            b.iter()
                .map(|r| {
                    (
                        world.vocab.name(r.query).to_owned(),
                        r.item_text.clone(),
                        r.count,
                    )
                })
                .collect()
        })
        .collect();
    Baseline {
        expander,
        snapshot,
        queries,
        plan,
        initial_build,
        wire_batches,
        click_batches,
    }
}

/// `utime + stime` of a process, in clock ticks.
fn cpu_ticks(pid: u32) -> u64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0;
    };
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| {
        f.get(n - 3)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    field(14) + field(15)
}

/// `(busy, steal)` ticks summed over this machine's CPUs, from the `cpu`
/// line of `/proc/stat`. Busy is user + nice + system + irq + softirq;
/// steal is the time a CPU wanted to run but the hypervisor ran
/// something else.
fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let v: Vec<u64> = stat
        .lines()
        .next()
        .map(|l| {
            l.split_whitespace()
                .skip(1)
                .filter_map(|x| x.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    let at = |i: usize| v.get(i).copied().unwrap_or(0);
    (at(0) + at(1) + at(2) + at(5) + at(6), at(7))
}

/// The share of the time this machine's CPUs wanted to run that the
/// hypervisor let them run: busy / (busy + steal). 1 without ticks.
fn granted(busy: u64, steal: u64) -> f64 {
    if busy + steal == 0 {
        1.0
    } else {
        busy as f64 / (busy + steal) as f64
    }
}

/// The parts of a `stats` reply the benchmark reads.
#[derive(Default, Clone)]
struct Stats {
    counters: HashMap<String, u64>,
    hists: HashMap<String, (u64, u64)>,
    spans: HashMap<String, (u64, f64)>,
}

impl Stats {
    fn fetch(addr: SocketAddr) -> Result<Stats, String> {
        let v = match Client::connect(addr).and_then(|mut c| c.stats()) {
            Ok(Reply::Ok(v)) => v,
            Ok(Reply::Err { code, .. }) => return Err(format!("stats from {addr}: {code}")),
            Err(e) => return Err(format!("stats from {addr}: {e}")),
        };
        let mut s = Stats::default();
        if let Some(Value::Obj(map)) = v.get("counters") {
            for (k, val) in map {
                s.counters.insert(k.clone(), val.as_u64().unwrap_or(0));
            }
        }
        if let Some(Value::Obj(map)) = v.get("histograms") {
            for (k, val) in map {
                let f = |n: &str| val.get(n).and_then(Value::as_u64).unwrap_or(0);
                s.hists.insert(k.clone(), (f("count"), f("sum")));
            }
        }
        if let Some(Value::Obj(map)) = v.get("spans") {
            for (k, val) in map {
                let count = val.get("count").and_then(Value::as_u64).unwrap_or(0);
                let total = match val.get("total_ms") {
                    Some(Value::Num(tok)) => tok.parse().unwrap_or(0.0),
                    _ => 0.0,
                };
                s.spans.insert(k.clone(), (count, total));
            }
        }
        Ok(s)
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn hist(&self, name: &str) -> (u64, u64) {
        self.hists.get(name).copied().unwrap_or((0, 0))
    }

    fn span_ms(&self, name: &str) -> (u64, f64) {
        self.spans.get(name).copied().unwrap_or((0, 0.0))
    }

    /// Counter and histogram growth from `before` to `self`.
    fn since(&self, before: &Stats) -> Stats {
        let mut d = self.clone();
        for (k, v) in &mut d.counters {
            *v = v.saturating_sub(before.counter(k));
        }
        for (k, v) in &mut d.hists {
            let (c, s) = before.hist(k);
            *v = (v.0.saturating_sub(c), v.1.saturating_sub(s));
        }
        for (k, v) in &mut d.spans {
            let (c, t) = before.span_ms(k);
            *v = (v.0.saturating_sub(c), v.1 - t);
        }
        d
    }

    fn ratio(&self, hits: &str, misses: &str) -> (f64, u64) {
        let (h, m) = (self.counter(hits), self.counter(misses));
        if h + m == 0 {
            (0.0, 0)
        } else {
            (h as f64 / (h + m) as f64, h + m)
        }
    }
}

/// Stats of the front process; a router's reply already merges every
/// shard's counters into its own.
fn fetch_stats(front: SocketAddr, failures: &mut Counts) -> Stats {
    match Stats::fetch(front) {
        Ok(s) => s,
        Err(e) => {
            failures.attempted += 1;
            failures.fail(e);
            Stats::default()
        }
    }
}

/// One printed metric: name, value, unit and the samples behind it.
type Metric = (&'static str, f64, &'static str, usize);

/// What the main thread read at the window edges, per window.
#[derive(Default)]
struct Timing {
    /// Server CPU ticks.
    cpu: Vec<u64>,
    /// Busy ticks of the whole machine.
    busy: Vec<u64>,
    /// Steal ticks of the whole machine.
    steal: Vec<u64>,
}

/// What the timed windows of one phase measured.
struct WindowData<'a> {
    /// Score latencies (ns) per window.
    lat: &'a [Samples],
    /// Ingest acks due per window.
    acks: &'a [u64],
    /// Server CPU ticks per window.
    cpu: &'a [u64],
    /// Machine busy and steal ticks per window.
    busy: &'a [u64],
    steal: &'a [u64],
}

/// What the clock and `/proc` read, before the host correction.
struct Raw {
    rps: f64,
    p50_us: f64,
    cpu_us_per_op: f64,
    /// The share of wanted CPU time the hypervisor granted (see `granted`).
    granted: f64,
}

/// End-to-end metrics of a phase, over every window, at full host
/// speed: score throughput and server CPU per operation.
///
/// On a shared host the hypervisor grants only a share `g` of the CPU
/// time the machine wants (see `granted`), and that share moves from run
/// to run and from minute to minute. The time it does grant runs slower
/// too, at `g^CONTENTION`. So throughput is queries over the phase's
/// time divided by `g^(1 + CONTENTION)`, and CPU per operation (which
/// never includes stolen time) is multiplied by `g^CONTENTION`. The
/// share comes from the host's accounting, not from the program.
fn e2e_metrics(d: &WindowData<'_>, clk_tck: f64) -> (Vec<Metric>, Raw) {
    let mut all = Samples::new();
    let (mut ops, mut cpu_ticks) = (0u64, 0u64);
    for (k, window) in d.lat.iter().enumerate() {
        all.extend(window);
        ops += window.len() as u64 + d.acks[k];
        cpu_ticks += d.cpu[k];
    }
    let n = all.len();
    let raw = Raw {
        rps: n as f64 / (WINDOW.as_secs_f64() * d.lat.len() as f64),
        p50_us: us(all.quantile(0.5).unwrap_or(0)),
        cpu_us_per_op: cpu_ticks as f64 * 1e6 / clk_tck / ops.max(1) as f64,
        granted: granted(d.busy.iter().sum(), d.steal.iter().sum()),
    };
    let speed = raw.granted.powf(CONTENTION);
    let e2e = vec![
        ("score_rps", raw.rps / (raw.granted * speed), "1/s", n),
        (
            "cpu_us_per_op",
            raw.cpu_us_per_op * speed,
            "us",
            ops as usize,
        ),
    ];
    (e2e, raw)
}

/// A metric line for people: value, unit and the samples behind it.
fn show(name: &str, value: f64, unit: &str, samples: usize) {
    println!("# {name:<28} {value:>14.3} {unit:<6} (n={samples})");
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    let t_build = Instant::now();
    let n_windows = ((args.seconds / WINDOW.as_secs_f64()).round() as usize).max(2);
    let window_time = (WINDOW * n_windows as u32).as_secs_f64();
    let batches_needed = match w {
        Workload::IngestMix => (window_time * INGEST_MAX_RPS / INGEST_EVERY as f64) as usize + 2,
        _ => 0,
    };
    let base = baseline(args.seed, batches_needed);
    let n = base.plan.len();
    println!(
        "# baseline: {n} scorable queries, {} ingest batches of {INGEST_BATCH} records, rebuilt in {:.2?}",
        base.click_batches.len(),
        t_build.elapsed()
    );

    let verifier = Verifier::default();
    let front = args.targets[0];
    let mut counts = drive::sweep(front, &base.plan, &verifier);

    // Phase clock: warm-up, then the timed windows; with tracing the
    // second half of the windows is traced.
    let origin = Instant::now();
    let clock = Clock {
        origin,
        t1: origin + WARMUP,
        win: WINDOW,
        windows: n_windows,
        traced_from: args.trace.then_some(n_windows / 2),
    };
    let global = AtomicU64::new(0);
    let pace = drive::Pace::new(INGEST_EVERY);
    let pace = (w == Workload::IngestMix).then_some(&pace);
    let mut stat_failures = Counts::default();
    let (conns, ingest, timing, stats_t1, stats_t2, stats_end) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..w.score_conns())
            .map(|c| {
                let picker = match w {
                    Workload::ScoreCold => Picker::cycle(n, args.seed),
                    _ => Picker::zipf(n, args.seed, c),
                };
                let (plan, verifier, global) = (&base.plan, &verifier, &global);
                scope.spawn(move || {
                    drive::score_conn(
                        front,
                        clock,
                        w.burst(),
                        picker,
                        global,
                        pace,
                        plan,
                        verifier,
                        c as u64,
                    )
                })
            })
            .collect();
        let ingest = pace.map(|pace| {
            let batches = &base.wire_batches;
            let pids = &args.pids;
            scope.spawn(move || drive::ingest_conn(front, clock, pace, batches, pids))
        });
        // Server CPU and host ticks at every window edge; stats at the
        // start of each phase.
        let server_ticks = || args.pids.iter().map(|&p| cpu_ticks(p)).sum::<u64>();
        let mut t = Timing::default();
        let (mut s1, mut s2) = (None, None);
        let (mut cpu0, mut busy0, mut steal0) = (0, 0, 0);
        for k in 0..=n_windows {
            sleep_until(clock.window_start(k));
            let (cpu, (busy, steal)) = (server_ticks(), host_ticks());
            if k > 0 {
                t.cpu.push(cpu.saturating_sub(cpu0));
                t.busy.push(busy.saturating_sub(busy0));
                t.steal.push(steal.saturating_sub(steal0));
            }
            (cpu0, busy0, steal0) = (cpu, busy, steal);
            if k == 0 {
                s1 = Some(fetch_stats(front, &mut stat_failures));
            }
            if clock.traced_from == Some(k) {
                s2 = Some(fetch_stats(front, &mut stat_failures));
            }
        }
        let conns: Vec<ConnOut> = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect();
        let ingest: Option<IngestOut> = ingest.map(|h| h.join().expect("ingest thread"));
        let s_end = fetch_stats(front, &mut stat_failures);
        let s1 = s1.expect("window 0 fetched stats");
        (conns, ingest, t, s1, s2, s_end)
    });
    for c in &conns {
        counts.add(&c.counts);
    }
    if let Some(ing) = &ingest {
        counts.add(&ing.counts);
    }
    counts.add(&stat_failures);

    // Windows of the untraced phase: all of them without tracing.
    let first = clock.traced_from.unwrap_or(n_windows);
    let mut lat_w: Vec<Samples> = vec![Samples::new(); n_windows];
    let mut burst_lat: [Samples; 2] = Default::default();
    for c in &conns {
        for (k, s) in c.windows.iter().enumerate() {
            lat_w[k].extend(s);
        }
        for (all, part) in burst_lat.iter_mut().zip(&c.burst_latency) {
            all.extend(part);
        }
    }
    let mut lat: [Samples; 2] = Default::default();
    for (k, s) in lat_w.iter().enumerate() {
        lat[clock.phase_of(k)].extend(s);
    }
    let mut ack: [Samples; 2] = Default::default();
    let acks_w = match &ingest {
        Some(ing) => {
            for (all, part) in ack.iter_mut().zip(&ing.ack) {
                all.extend(part);
            }
            ing.ack_windows.clone()
        }
        None => vec![0; n_windows],
    };
    let mut sent: Vec<(u64, u32)> = conns.iter().flat_map(|c| c.sent.iter().copied()).collect();
    sent.sort_unstable();
    let t2_ns = clock
        .traced_from
        .map_or(u64::MAX, |k| clock.ns(clock.window_start(k)));
    let phase_seq = |traced: bool| -> Vec<usize> {
        sent.iter()
            .filter(|(t, _)| (*t >= t2_ns) == traced)
            .map(|&(_, q)| q as usize)
            .collect()
    };

    // End-to-end view of the untraced phase.
    let stats0 = stats_t2.as_ref().unwrap_or(&stats_end).since(&stats_t1);
    let (mut e2e, raw) = e2e_metrics(
        &WindowData {
            lat: &lat_w[..first],
            acks: &acks_w[..first],
            cpu: &timing.cpu[..first],
            busy: &timing.busy[..first],
            steal: &timing.steal[..first],
        },
        args.clk_tck,
    );
    let mut grants: Vec<f64> = (0..first)
        .map(|k| granted(timing.busy[k], timing.steal[k]))
        .collect();
    grants.sort_by(f64::total_cmp);
    println!(
        "# host: the hypervisor granted {:.1}% of the CPU time this machine wanted \
         (median window {:.1}%, range {:.1}-{:.1}%)",
        100.0 * raw.granted,
        100.0 * grants[first / 2],
        100.0 * grants[0],
        100.0 * grants[first - 1],
    );
    if args.trace {
        e2e.retain(|e| e.0 != "cpu_us_per_op");
    }
    println!(
        "# --- {} seed {} timed {:.1}s in {first} windows of {WINDOW:?}{}; at full host speed ---",
        args.name,
        args.seed,
        (WINDOW * first as u32).as_secs_f64(),
        if args.trace { " (untraced half)" } else { "" },
    );
    for &(name, value, unit, samples) in &e2e {
        show(name, value, unit, samples);
    }
    println!(
        "# as measured (not judged): score_rps {:.3}, cpu_us_per_op {:.3}, score_p50_us {:.3} (n={})",
        raw.rps,
        raw.cpu_us_per_op,
        raw.p50_us,
        lat[0].len()
    );
    for q in [0.9, 0.99, 0.999] {
        let v = lat[0].quantile(q).unwrap_or(0);
        println!(
            "# score_p{:<25} {:>14.3} us     (n={}, {} samples beyond; not judged)",
            q * 100.0,
            us(v),
            lat[0].len(),
            lat[0].beyond(q)
        );
    }
    if let Some(ing) = &ingest {
        let mut lag = ing.lag.clone();
        show(
            "ingest_ack_p50_us",
            us(ack[0].quantile(0.5).unwrap_or(0)),
            "us",
            ack[0].len(),
        );
        show(
            "ingest_lag_p50_us",
            us(lag.quantile(0.5).unwrap_or(0)),
            "us",
            lag.len(),
        );
    }
    let fail_ratio = counts.failed as f64 / counts.attempted.max(1) as f64;
    println!(
        "# fail_ratio {fail_ratio:.6} ({} failed / {} attempted; {} bit-exact at version 0, \
         {} purity-checked, {} ingest acks checked)",
        counts.failed, counts.attempted, counts.exact, counts.pure, counts.acked
    );
    let (resp_hit, resp_n) = stats0.ratio("serve.resp_cache.hits", "serve.resp_cache.misses");
    let (score_hit, score_n) = stats0.ratio("serve.cache.hits", "serve.cache.misses");
    let (score_cap, resp_cap) = w.cache_caps();
    let seq0 = phase_seq(false);
    // A 16-way sharded cache of capacity C holds at most max(C, 16).
    let reach = resp_cap.max(16);
    println!(
        "# input: {:.4} of score requests repeat within the response cache's reach ({reach} entries); \
         server resp_cache hit ratio {resp_hit:.4} (n={resp_n}), score cache hit ratio {score_hit:.4} (n={score_n})",
        stream::repeat_share(&seq0, reach)
    );
    let (jobs_n, jobs_sum) = stats0.hist("serve.batch.jobs");
    println!(
        "# server batching: {jobs_n} batches, {:.3} jobs per batch",
        jobs_sum as f64 / jobs_n.max(1) as f64
    );

    let mut result = Vec::new();
    if !args.trace {
        for &(name, value, _, _) in &e2e {
            result.push((name.to_owned(), value));
        }
        // Ingest-mix reads memory at a fixed amount of ingested data;
        // `run.py` reads it at the end of the phase everywhere else.
        if let Some(mb) = ingest.as_ref().and_then(|i| i.rss_mb) {
            println!(
                "# peak_rss_mb {mb:.3} read after {} ingest acks",
                drive::RSS_AFTER_ACKS
            );
            result.push(("peak_rss_mb".to_owned(), mb));
        }
    } else {
        let traced = TracedRun {
            args: &args,
            base,
            clock,
            conns: &conns,
            ingest: ingest.as_ref(),
            lat,
            burst_lat,
            ack,
            seq: phase_seq(true),
            delta: stats_end.since(stats_t2.as_ref().expect("trace has a midpoint")),
            end_stats: &stats_end,
            caps: (score_cap, resp_cap),
            verifier: &verifier,
        };
        result = traced.per_layer(&mut counts);
    }

    let metrics: Vec<String> = result
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\":{}",
                if v.is_finite() {
                    format!("{v}")
                } else {
                    "0".into()
                }
            )
        })
        .collect();
    println!(
        "{{\"attempted\":{},\"failed\":{},\"verified\":{},\"first_failure\":{},\"metrics\":{{{}}}}}",
        counts.attempted,
        counts.failed,
        counts.verified(),
        counts.first_failure.as_deref().map_or_else(
            || "null".to_owned(),
            |f| {
                let mut quoted = String::new();
                taxo_serve::json::encode_str(f, &mut quoted);
                quoted
            }
        ),
        metrics.join(",")
    );
    if counts.failed > 0 || counts.attempted == 0 {
        std::process::exit(1);
    }
}

/// Everything the traced half of a `--trace 1` run needs.
struct TracedRun<'a> {
    args: &'a Args,
    base: Baseline,
    clock: Clock,
    conns: &'a [ConnOut],
    ingest: Option<&'a IngestOut>,
    lat: [Samples; 2],
    burst_lat: [Samples; 2],
    ack: [Samples; 2],
    /// Query indices of the traced phase, in send order.
    seq: Vec<usize>,
    /// Server counters over the traced phase.
    delta: Stats,
    end_stats: &'a Stats,
    caps: (usize, usize),
    verifier: &'a Verifier,
}

impl TracedRun<'_> {
    fn per_layer(mut self, counts: &mut Counts) -> Vec<(String, f64)> {
        let w = self.args.workload;
        let mut m: Vec<(String, f64)> = Vec::new();
        let mut put = |name: &str, v: f64| m.push((name.to_owned(), v));

        // Client view of the traced phase and the tracing overhead.
        let p50 = |s: &mut Samples| us(s.quantile(0.5).unwrap_or(0));
        let traced_p50 = p50(&mut self.lat[1]);
        let untraced_p50 = p50(&mut self.lat[0]);
        put("client.trace_overhead_us", traced_p50 - untraced_p50);
        match self.ingest {
            Some(ing) => {
                let mut lag = ing.lag.clone();
                put("client.ingest_lag_us", us(lag.quantile(0.5).unwrap_or(0)));
                put("client.ingest_ack_p50_us", p50(&mut self.ack[1]));
            }
            None => {
                put("client.ingest_lag_us", 0.0);
                put("client.ingest_ack_p50_us", 0.0);
            }
        }

        // Routed: the same bursts through the router and straight to
        // their owning shards, interleaved so host drift cancels.
        let router_added = if w == Workload::Routed {
            self.direct_probe(counts)
        } else {
            0.0
        };
        put("client.verified", counts.verified() as f64);

        // In-process replay of the traced phase's request stream.
        let owner = (w == Workload::Routed).then(|| {
            let cfg = taxo_router::RouterConfig::default();
            let ring = taxo_router::HashRing::new(2, cfg.vnodes, cfg.ring_seed);
            self.base
                .plan
                .iter()
                .map(|p| ring.shard_for(&p.name))
                .collect()
        });
        let score_ops = self.lat[1].len();
        let acks = self.ack[1].len();
        let Baseline {
            expander,
            snapshot,
            queries,
            plan,
            initial_build,
            wire_batches,
            click_batches,
        } = self.base;
        let wal_dir = self.args.run_dir.join("wal-probe");
        let ingest_every = (acks > 0).then(|| (score_ops / acks, wal_dir.as_path()));
        let rep = replay::replay(
            replay::ReplayInput {
                snapshot,
                expander,
                queries: &queries,
                plan: &plan,
                stream: &self.seq,
                burst: w.burst(),
                owner,
                score_cache_cap: self.caps.0,
                resp_cache_cap: self.caps.1,
                ingest: &click_batches,
                wire_batches: &wire_batches,
                ingest_every,
                budget: REPLAY_BUDGET,
            },
            self.clock.origin,
        );
        let _ = std::fs::remove_dir_all(&wal_dir);
        let med_us = |s: &Samples| us(s.clone().quantile(0.5).unwrap_or(0));
        let d = &self.delta;

        // server: what the client waited beyond the layers' own time.
        let client_call_p50 = p50(&mut self.burst_lat[1]);
        put("server.wait_us", client_call_p50 - med_us(&rep.in_process));
        let shed: u64 = [
            "serve.shed.score",
            "serve.shed.ingest",
            "serve.shed.conn",
            "serve.router.shed.conn",
        ]
        .iter()
        .map(|c| d.counter(c))
        .sum();
        put("server.shed", shed as f64);
        put("protocol.parse_us", med_us(&rep.parse));
        put("protocol.render_us", med_us(&rep.render));
        put(
            "cache.resp_hit_ratio",
            d.ratio("serve.resp_cache.hits", "serve.resp_cache.misses")
                .0,
        );
        put(
            "cache.score_hit_ratio",
            d.ratio("serve.cache.hits", "serve.cache.misses").0,
        );
        put("cache.resp_get_us", med_us(&rep.resp_get));
        let (jobs_n, jobs_sum) = d.hist("serve.batch.jobs");
        put(
            "batch.jobs_mean",
            if jobs_n > 0 {
                jobs_sum as f64 / jobs_n as f64
            } else {
                0.0
            },
        );
        let pairs = d.hist("serve.batch.pairs").1;
        let uniq = d.hist("serve.batch.unique_pairs").1;
        put(
            "batch.unique_pair_ratio",
            if pairs > 0 {
                uniq as f64 / pairs as f64
            } else {
                0.0
            },
        );
        put("batch.self_us", med_us(&rep.batch_self));
        put(
            "batch_scorer.ns_per_pair",
            if rep.kernel_pairs > 0 {
                rep.kernel_ns as f64 / rep.kernel_pairs as f64
            } else {
                0.0
            },
        );
        // Pairs the server's kernel scored: every batch probe that missed.
        let ops = (score_ops + acks).max(1) as f64;
        put(
            "batch_scorer.pairs_per_op",
            d.counter("serve.cache.misses") as f64 / ops,
        );
        put("snapshot.eligible_us", med_us(&rep.eligible));
        put("snapshot.rank_us", med_us(&rep.rank));
        // The server's own rebuild and ingest spans (ingest-mix only).
        let span_mean_ms = |name: &str| match d.span_ms(name) {
            (0, _) => 0.0,
            (n, total) => total / n as f64,
        };
        put("snapshot.build_ms", span_mean_ms("serve.ingest.rebuild"));
        put("snapshot.swaps", d.counter("serve.snapshot.swaps") as f64);
        put("snapshot.initial_build_s", initial_build.as_secs_f64());
        put("incremental.ingest_ms", span_mean_ms("incremental.ingest"));
        put(
            "incremental.attached",
            d.counter("incremental.attached") as f64,
        );
        put("wal.append_us", med_us(&rep.wal_append));
        put("wal.sync_us", med_us(&rep.wal_sync));
        put(
            "wal.fsyncs_per_ack",
            if acks > 0 {
                d.counter("serve.wal.fsyncs") as f64 / acks as f64
            } else {
                0.0
            },
        );
        let (groups, group_ops) = d.hist("serve.wal.group_ops");
        put(
            "wal.group_ops_mean",
            if groups > 0 {
                group_ops as f64 / groups as f64
            } else {
                0.0
            },
        );
        put("wal.checkpoints", d.counter("serve.wal.snapshots") as f64);
        let bursts = self.burst_lat[1].len().max(1) as f64;
        // The stats request that closed the phase fanned out once too.
        let fanouts = d.counter("serve.router.fanout").saturating_sub(1);
        put(
            "router.fanout_per_burst",
            if w == Workload::Routed {
                fanouts as f64 / bursts
            } else {
                0.0
            },
        );
        let retries = d.counter("serve.router.shard_retries")
            + d.counter("serve.router.stale_epoch")
            + d.counter("serve.router.upstream_reconnects");
        put("router.retries", retries as f64);
        put("router.ring_ns", rep.ring_ns);
        put("router.added_us", router_added);
        // Set-up, from the servers' own pipeline spans (summed over
        // processes: routed trains once per shard).
        let s = self.end_stats;
        for (metric, span) in [
            ("pipeline.train_s", "pipeline.train"),
            ("pipeline.mlm_s", "pipeline.mlm_pretrain"),
            ("pipeline.structural_s", "pipeline.structural_pretrain"),
            ("pipeline.detector_s", "pipeline.detector_train"),
            ("pipeline.construct_s", "pipeline.construct_graph"),
        ] {
            put(metric, s.span_ms(span).1 / 1e3);
        }

        println!(
            "# --- per-layer (traced half: {} calls, replay: {} requests) ---",
            self.burst_lat[1].len(),
            rep.requests
        );
        for (name, v) in &m {
            println!("# {name:<28} {v:>14.3}");
        }
        println!(
            "# tracing overhead: traced p50 {traced_p50:.3} us - untraced p50 {untraced_p50:.3} us"
        );

        if let Some(path) = &self.args.trace_out {
            let client: Vec<trace::Span> = self
                .conns
                .iter()
                .flat_map(|c| c.spans.iter().cloned())
                .chain(self.ingest.iter().flat_map(|i| i.spans.iter().cloned()))
                .collect();
            match trace::write_spans(path, &[("client", &client), ("replay", &rep.spans)]) {
                Ok(()) => println!("# spans written to {}", path.display()),
                Err(e) => println!("# writing spans to {}: {e}", path.display()),
            }
        }
        m
    }

    /// `router.added_us`: p50 of bursts through the router minus p50 of
    /// the same bursts sent straight to their owning shards.
    fn direct_probe(&self, counts: &mut Counts) -> f64 {
        let cfg = taxo_router::RouterConfig::default();
        let ring = taxo_router::HashRing::new(2, cfg.vnodes, cfg.ring_seed);
        let plan = &self.base.plan;
        let owner: Vec<usize> = plan
            .iter()
            .map(|p| ring.shard_for(&p.name) as usize)
            .collect();
        let conns: Result<Vec<Conn>, _> = self
            .args
            .targets
            .iter()
            .map(|&a| Conn::connect(a))
            .collect();
        let mut conns = match conns {
            Ok(c) if c.len() == 3 => c,
            other => {
                counts.attempted += 1;
                counts.fail(format!("router probe connect: {:?}", other.err()));
                return 0.0;
            }
        };
        let mut picker = Picker::zipf(plan.len(), self.args.seed, 7);
        let (mut routed, mut direct) = (Samples::new(), Samples::new());
        let stop = Instant::now() + DIRECT_PROBE;
        let mut id = 1u64;
        let mut round = 0u64;
        let mut burst = Burst::default();
        while Instant::now() < stop {
            let picks: Vec<usize> = (0..ROUTED_BURST).map(|_| picker.pick(0)).collect();
            for side in [round % 2, (round + 1) % 2] {
                let (front, shards) = conns.split_at_mut(1);
                let (ns, samples) = if side == 0 {
                    let ns = burst.run(&mut front[0], &picks, id, plan, self.verifier, counts);
                    (ns, &mut routed)
                } else {
                    let ns = direct_burst(shards, &owner, &picks, id, plan, self.verifier, counts);
                    (ns, &mut direct)
                };
                let Some(ns) = ns else { return 0.0 };
                samples.push(ns);
                id += picks.len() as u64;
            }
            round += 1;
        }
        println!(
            "# router probe: {} bursts each way, routed p50 {:.3} us, direct p50 {:.3} us",
            routed.len(),
            us(routed.quantile(0.5).unwrap_or(0)),
            us(direct.quantile(0.5).unwrap_or(0))
        );
        us(routed.quantile(0.5).unwrap_or(0)) - us(direct.quantile(0.5).unwrap_or(0))
    }
}

/// One burst split by owning shard: every shard's part is written
/// before any reply is read, as the router's fan-out does.
fn direct_burst(
    shards: &mut [Conn],
    owner: &[usize],
    picks: &[usize],
    first_id: u64,
    plan: &[PlannedQuery],
    verifier: &Verifier,
    counts: &mut Counts,
) -> Option<u64> {
    let mut frames = vec![String::new(); shards.len()];
    let mut parts: Vec<Vec<(usize, u64)>> = vec![Vec::new(); shards.len()];
    for (i, &q) in picks.iter().enumerate() {
        let s = owner[q].min(shards.len() - 1);
        plan[q].render(first_id + i as u64, &mut frames[s]);
        parts[s].push((q, first_id + i as u64));
    }
    counts.attempted += picks.len() as u64;
    let start = Instant::now();
    for (conn, frame) in shards.iter_mut().zip(&frames) {
        if !frame.is_empty() {
            if let Err(e) = conn.send(frame) {
                counts.fail_n(picks.len() as u64, format!("direct send: {e}"));
                return None;
            }
        }
    }
    let mut replies = Vec::with_capacity(picks.len());
    for (conn, part) in shards.iter_mut().zip(&parts) {
        for &(q, id) in part {
            let mut line = String::new();
            if let Err(e) = conn.recv(&mut line) {
                let left = picks.len() - replies.len();
                counts.fail_n(left as u64, format!("direct receive: {e}"));
                return None;
            }
            replies.push((q, id, line));
        }
    }
    let ns = start.elapsed().as_nanos() as u64;
    for (q, id, line) in &replies {
        counts.record(verifier.check(plan, *q, *id, line));
    }
    Some(ns)
}
