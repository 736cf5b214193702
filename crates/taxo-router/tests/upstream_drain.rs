//! The shard drain against fake shards that misbehave in time.
//!
//! * A shard that trickles bytes without ever finishing a line must not
//!   hold a drain past its deadline.
//! * A fan-out writes every shard's frame before it drains any, so two
//!   slow shards answer one burst in parallel: the burst costs the
//!   slowest shard, not the sum, although the drain reads the shards one
//!   after another.
//! * The drain's fault points fire per shard in plan order, `slow`
//!   before `read`, and stop at the first failure.
//! * Router clients get the connection contract of the serve reactor:
//!   a pipelined burst and a half-close are answered in order, then EOF;
//!   an injected `serve.conn.write` fault cuts one connection only.
//! * The upstream read timeout is validated: zero is a config error, and
//!   one too long to add to the clock means no deadline, not a panic.
//!
//! The tests share one lock: a fault plan is armed process-wide. The
//! fake shards are plain threads, so the router's reactor is the only
//! consumer of the `serve.conn.*` fault points here.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use taxo_core::json::{self, Value};
use taxo_core::TaxoError;
use taxo_fault::{FaultAction, FaultPlan, Trigger};
use taxo_router::{
    Router, RouterConfig, RouterError, RouterHandle, Upstream, FAULT_READ, FAULT_SLOW,
};
use taxo_serve::protocol::{self, Request};

fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn counter_value(name: &str) -> u64 {
    taxo_obs::snapshot()
        .counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.value)
}

/// A fake shard: accepts connections until stopped and runs `serve` on
/// each one, on its own thread. Stopping shuts every accepted socket,
/// so a connection its peer left open (a test that failed before it
/// stopped its router) cannot keep the join waiting.
struct FakeShard {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl FakeShard {
    fn start(serve: fn(TcpStream)) -> FakeShard {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let acceptor = std::thread::spawn(move || {
            let mut conns = Vec::new();
            while !flag.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(false).unwrap();
                        let handle = stream.try_clone().unwrap();
                        conns.push((handle, std::thread::spawn(move || serve(stream))));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
            for (handle, conn) in conns {
                let _ = handle.shutdown(Shutdown::Both);
                conn.join().unwrap();
            }
        });
        FakeShard {
            addr,
            stop,
            acceptor: Some(acceptor),
        }
    }
}

impl Drop for FakeShard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.acceptor.take() {
            // A panic here would abort a test that is already failing.
            let _ = t.join();
        }
    }
}

/// Writes one byte every 20 ms and never a newline, for at most 3 s.
fn trickle(mut stream: TcpStream) {
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(3) {
        if stream.write_all(b"x").is_err() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Answers `health` at once and each score line 300 ms after reading it.
fn slow_scores(stream: TcpStream) {
    answer(stream, Duration::from_millis(300));
}

/// Answers every line at once.
fn quick_scores(stream: TcpStream) {
    answer(stream, Duration::ZERO);
}

/// Answers `health` at once and each score line `delay` after reading
/// it, with an empty candidate list.
fn answer(stream: TcpStream, delay: Duration) {
    let mut writer = stream.try_clone().unwrap();
    for line in BufReader::new(stream).lines() {
        let Ok(line) = line else { return };
        let reply = match protocol::parse_request(&line) {
            Ok(Request::Score { id, query, .. }) => {
                std::thread::sleep(delay);
                format!(
                    "{}\n",
                    protocol::score_response(
                        id,
                        &query,
                        0,
                        taxo_serve::Tier::F32,
                        &taxo_core::Vocabulary::new(),
                        &[]
                    )
                )
            }
            Ok(Request::Health { id }) => {
                format!("{}\n", protocol::health_response(id, 0, 0, 0, 0, false))
            }
            _ => return,
        };
        if writer.write_all(reply.as_bytes()).is_err() {
            return;
        }
    }
}

/// A router over `shards` that leaves them running at shutdown.
fn router_over(shards: &[FakeShard]) -> RouterHandle {
    Router::builder(shards.iter().map(|s| s.addr).collect())
        .config(RouterConfig {
            forward_shutdown: false,
            ..RouterConfig::default()
        })
        .bind("127.0.0.1:0")
        .unwrap()
}

/// [`router_over`] with `cfg`, returning the bind result.
fn router_with(shards: &[FakeShard], cfg: RouterConfig) -> Result<RouterHandle, RouterError> {
    Router::builder(shards.iter().map(|s| s.addr).collect())
        .config(RouterConfig {
            forward_shutdown: false,
            ..cfg
        })
        .bind("127.0.0.1:0")
}

/// One two-line score burst whose first query is owned by shard 0 and
/// second by shard 1.
fn two_shard_burst(router: &RouterHandle) -> String {
    let query_on = |shard: u32| -> String {
        (0..)
            .map(|i| format!("query {i}"))
            .find(|q| router.ring().shard_for(q) == shard)
            .unwrap()
    };
    let mut burst = String::new();
    for (id, shard) in [(1u64, 0u32), (2, 1)] {
        let mut query = String::new();
        json::encode_str(&query_on(shard), &mut query);
        burst.push_str(&format!(
            "{{\"kind\":\"score\",\"id\":{id},\"query\":{query}}}\n"
        ));
    }
    burst
}

/// Sends `burst` on a fresh connection, shuts its write half if
/// `half_close`, and returns every response line the router sent before
/// its EOF.
fn exchange(router: &RouterHandle, burst: &str, half_close: bool) -> Vec<String> {
    let mut stream = TcpStream::connect(router.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(burst.as_bytes()).unwrap();
    if half_close {
        stream.shutdown(Shutdown::Write).unwrap();
    }
    let mut replies = String::new();
    stream.read_to_string(&mut replies).unwrap();
    replies.lines().map(str::to_owned).collect()
}

/// The id and `ok` flag of one response line.
fn id_ok(line: &str) -> (Option<u64>, bool) {
    let v = json::parse(line).unwrap();
    (
        v.get("id").and_then(Value::as_u64),
        v.get("ok") == Some(&Value::Bool(true)),
    )
}

/// Sends `burst` through the router and checks its two responses come
/// back `ok`, in order; returns how long that took.
fn route(router: &RouterHandle, burst: &str) -> Duration {
    let stream = TcpStream::connect(router.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let start = Instant::now();
    writer.write_all(burst.as_bytes()).unwrap();
    for id in [1, 2] {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = json::parse(line.trim()).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{line}");
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(id), "{line}");
    }
    start.elapsed()
}

#[test]
fn drain_deadline_holds_against_a_trickling_shard() {
    let _g = test_lock();
    let shard = FakeShard::start(trickle);
    let addr = shard.addr;
    let (tx, rx) = mpsc::channel();
    // On its own thread, so a drain that never ends fails the test
    // instead of hanging it.
    let caller = std::thread::spawn(move || {
        let start = Instant::now();
        let result = Upstream::new(addr, Duration::from_millis(200)).call(r#"{"kind":"health"}"#);
        let _ = tx.send((result, start.elapsed()));
    });
    let (result, took) = rx
        .recv_timeout(Duration::from_secs(2))
        .expect("a trickling shard held the drain past 2 s");
    caller.join().unwrap();
    let err = result.expect_err("no line was ever completed");
    assert_eq!(err.kind(), ErrorKind::TimedOut, "{err}");
    assert!(took < Duration::from_secs(2), "took {took:?}");
}

#[test]
fn fan_out_overlaps_slow_shards() {
    let _g = test_lock();
    let shards = [FakeShard::start(slow_scores), FakeShard::start(slow_scores)];
    let router = router_over(&shards);
    let took = route(&router, &two_shard_burst(&router));
    // Sequential send→recv per shard would take at least 600 ms.
    assert!(
        took < Duration::from_millis(500),
        "a two-shard burst over 300 ms shards took {took:?}"
    );
    router.shutdown_and_join();
}

/// With `slow` firing on every hit and `read` failing on its first, one
/// two-shard burst consults `slow` three times: shard 0, whose `read`
/// fails, then the retry's shard 0 and shard 1. Two would mean `read`
/// ran before `slow`; four, that shard 1 was consulted after the
/// failure.
#[test]
fn fault_points_fire_per_shard_and_stop_at_the_first_failure() {
    let _g = test_lock();
    let shards = [
        FakeShard::start(quick_scores),
        FakeShard::start(quick_scores),
    ];
    let router = router_over(&shards);
    let burst = two_shard_burst(&router);
    let slow = format!("fault.injected.{FAULT_SLOW}");
    let read = format!("fault.injected.{FAULT_READ}");
    let (slow0, read0) = (counter_value(&slow), counter_value(&read));
    let retries0 = counter_value("serve.router.shard_retries");
    taxo_fault::arm(
        FaultPlan::new(0)
            .with(FAULT_SLOW, Trigger::Always, FaultAction::Delay(0))
            .with(FAULT_READ, Trigger::Once(1), FaultAction::Fail),
    );
    route(&router, &burst);
    taxo_fault::disarm();
    assert_eq!(counter_value(&slow) - slow0, 3);
    assert_eq!(counter_value(&read) - read0, 1);
    assert_eq!(counter_value("serve.router.shard_retries") - retries0, 1);
    router.shutdown_and_join();
}

#[test]
fn pipelined_burst_then_half_close_is_answered_in_order_then_eof() {
    let _g = test_lock();
    let shards = [
        FakeShard::start(quick_scores),
        FakeShard::start(quick_scores),
    ];
    let router = router_over(&shards);
    // Two two-shard score runs around a fanned-out health, in one frame.
    let scores = two_shard_burst(&router);
    let burst = format!(
        "{}{{\"kind\":\"health\",\"id\":3}}\n{}",
        scores,
        scores
            .replace("\"id\":1,", "\"id\":4,")
            .replace("\"id\":2,", "\"id\":5,")
    );
    let replies = exchange(&router, &burst, true);
    let seen: Vec<(Option<u64>, bool)> = replies.iter().map(|l| id_ok(l)).collect();
    let want: Vec<(Option<u64>, bool)> = (1..=5).map(|id| (Some(id), true)).collect();
    assert_eq!(seen, want, "{replies:?}");
    router.shutdown_and_join();
}

#[test]
fn a_write_fault_cuts_one_connection_and_spares_the_next() {
    let _g = test_lock();
    let shards = [
        FakeShard::start(quick_scores),
        FakeShard::start(quick_scores),
    ];
    let router = router_over(&shards);
    let burst = two_shard_burst(&router);
    taxo_fault::arm(FaultPlan::new(0).with(
        taxo_serve::reactor::FAULT_WRITE,
        Trigger::Nth(2),
        FaultAction::Fail,
    ));
    // The second response is the fault's second hit: it is lost, and the
    // router closes the connection after the first, although the client
    // keeps its write half open.
    let cut = exchange(&router, &burst, false);
    // A fresh connection's one response is the third hit, and passes.
    let fresh = exchange(&router, "{\"kind\":\"health\",\"id\":7}\n", true);
    taxo_fault::disarm();
    let cut: Vec<(Option<u64>, bool)> = cut.iter().map(|l| id_ok(l)).collect();
    assert_eq!(cut, vec![(Some(1), true)]);
    let fresh: Vec<(Option<u64>, bool)> = fresh.iter().map(|l| id_ok(l)).collect();
    assert_eq!(fresh, vec![(Some(7), true)]);
    router.shutdown_and_join();
}

#[test]
fn zero_upstream_read_timeout_is_a_config_error() {
    let _g = test_lock();
    let shards = [FakeShard::start(quick_scores)];
    let cfg = RouterConfig {
        upstream_read_timeout: Duration::ZERO,
        ..RouterConfig::default()
    };
    match router_with(&shards, cfg) {
        Err(RouterError::Config(TaxoError::InvalidConfig { field, .. })) => {
            assert_eq!(field, "router.upstream_read_timeout");
        }
        Err(other) => panic!("expected a field-named InvalidConfig, got {other}"),
        Ok(_) => panic!("a zero upstream read timeout must not bind"),
    }
}

#[test]
fn an_unaddable_upstream_read_timeout_means_no_deadline() {
    let _g = test_lock();
    let shards = [
        FakeShard::start(quick_scores),
        FakeShard::start(quick_scores),
    ];
    let cfg = RouterConfig {
        upstream_read_timeout: Duration::MAX,
        ..RouterConfig::default()
    };
    let router = router_with(&shards, cfg).expect("Duration::MAX binds");
    route(&router, &two_shard_burst(&router));
    router.shutdown_and_join();
}
