//! `taxo-fault` — seeded fault injection for the serving layer.
//!
//! The paper's system ran continuously against production traffic, which
//! means the serving path has to survive the failure modes the paper
//! never had to write down: dropped connections, half-written frames,
//! saturated queues, and crashes mid-swap. This crate makes those
//! failures *injectable, seeded, and countable* so that chaos runs are
//! reproducible experiments instead of flaky accidents.
//!
//! # Injection points
//!
//! Instrumented code declares named points and asks what to do:
//!
//! ```
//! match taxo_fault::inject("serve.accept") {
//!     taxo_fault::Injection::Fail => { /* drop the connection */ }
//!     taxo_fault::Injection::Short(_n) => { /* truncate the frame */ }
//!     taxo_fault::Injection::Pass => { /* normal path */ }
//! }
//! ```
//!
//! With no plan armed, [`inject`] is a single relaxed atomic load and a
//! predictable branch — zero allocation, zero locking — so production
//! binaries carry the points for free. Delay faults are applied *inside*
//! [`inject`] (the call sleeps, then reports [`Injection::Pass`]), so
//! call sites only ever branch on `Fail`/`Short`. A call site that must
//! not sleep its thread asks [`fired`] instead and applies the fault
//! itself.
//!
//! # Plans
//!
//! A [`FaultPlan`] maps point names to a seeded [`Trigger`] and a
//! [`FaultAction`]. Plans come from code ([`FaultPlan::new`] +
//! [`FaultPlan::with`]) or from the `TAXO_FAULTS` environment variable
//! ([`arm_from_env`]):
//!
//! ```text
//! TAXO_FAULTS="seed=42;serve.accept=prob:0.05:fail;serve.conn.write=nth:50:short:4"
//! ```
//!
//! Spec grammar (`;`-separated, first entry may set the seed):
//!
//! ```text
//! seed=<u64>
//! <point>=<trigger>:<action>
//! trigger := always | nth:<K>     (every Kth hit, 1-based)
//!          | once:<K>             (exactly hit K, then never again)
//!          | prob:<P>             (P in [0,1], seeded per point+hit)
//! action  := fail | delay:<MS> | short:<N>
//! ```
//!
//! # Determinism contract
//!
//! Whether hit number `i` of point `p` fires is a pure function of
//! `(plan seed, p, i)` — thread interleaving decides *which* operation
//! gets hit, never *how many* do. Every fired injection increments the
//! taxo-obs counter `fault.injected.<point>`, so two runs with the same
//! seed, plan, and workload report identical injection counts — the
//! property the simulation harness's determinism test pins down.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Duration;

/// What an armed injection point tells its call site to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Proceed normally (delay faults sleep before returning this).
    Pass,
    /// Fail the operation (drop the connection, reject the push, …).
    Fail,
    /// Truncate the operation to the first `n` bytes, then fail it —
    /// the half-written/half-read frame fault.
    Short(usize),
}

/// The failure a policy injects when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// The operation fails outright.
    Fail,
    /// The operation is delayed by this many milliseconds, then proceeds.
    Delay(u64),
    /// Byte-stream operations are cut to the first `n` bytes.
    Short(usize),
}

/// When a policy fires, as a pure function of the 1-based hit index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Every hit.
    Always,
    /// Every `K`th hit (hit indices K, 2K, 3K, …).
    Nth(u64),
    /// Exactly hit `K`, then never again — the crash-once trigger the
    /// durability twin tests use to kill a server at a chosen operation.
    Once(u64),
    /// Each hit independently with probability `p`, decided by a hash of
    /// `(plan seed, point name, hit index)`.
    Prob(f64),
}

impl Trigger {
    fn fires(&self, seed: u64, point: &str, hit: u64) -> bool {
        match *self {
            Trigger::Always => true,
            Trigger::Nth(k) => hit.is_multiple_of(k.max(1)),
            Trigger::Once(k) => hit == k.max(1),
            Trigger::Prob(p) => {
                let x = splitmix64(seed ^ fnv1a(point.as_bytes()) ^ hit.wrapping_mul(0x9e37));
                ((x >> 11) as f64 / (1u64 << 53) as f64) < p
            }
        }
    }
}

/// One point's policy: trigger, action, and its hit counter.
#[derive(Debug)]
struct PointPolicy {
    trigger: Trigger,
    action: FaultAction,
    hits: AtomicU64,
}

/// A named set of injection policies plus the seed that makes
/// probabilistic triggers reproducible.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    points: BTreeMap<String, PointPolicy>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            points: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) the policy for `point`.
    pub fn with(mut self, point: &str, trigger: Trigger, action: FaultAction) -> Self {
        self.points.insert(
            point.to_owned(),
            PointPolicy {
                trigger,
                action,
                hits: AtomicU64::new(0),
            },
        );
        self
    }

    /// Parses a `TAXO_FAULTS` spec (see the crate docs for the grammar).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(0);
        for entry in spec.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault entry {entry:?} has no '='"))?;
            if key == "seed" {
                plan.seed = value
                    .parse()
                    .map_err(|_| format!("bad seed {value:?} (want a u64)"))?;
                continue;
            }
            let mut parts = value.split(':');
            let trigger = match parts.next() {
                Some("always") => Trigger::Always,
                Some("nth") => {
                    let k: u64 = parse_field(parts.next(), "nth wants nth:<K>")?;
                    if k == 0 {
                        return Err(format!("{key}: nth:0 never fires; use nth:1"));
                    }
                    Trigger::Nth(k)
                }
                Some("once") => {
                    let k: u64 = parse_field(parts.next(), "once wants once:<K>")?;
                    if k == 0 {
                        return Err(format!("{key}: once:0 never fires; use once:1"));
                    }
                    Trigger::Once(k)
                }
                Some("prob") => {
                    let p: f64 = parse_field(parts.next(), "prob wants prob:<P>")?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("{key}: probability {p} outside [0, 1]"));
                    }
                    Trigger::Prob(p)
                }
                other => return Err(format!("{key}: unknown trigger {other:?}")),
            };
            let action = match parts.next() {
                Some("fail") => FaultAction::Fail,
                Some("delay") => {
                    FaultAction::Delay(parse_field(parts.next(), "delay wants delay:<MS>")?)
                }
                Some("short") => {
                    FaultAction::Short(parse_field(parts.next(), "short wants short:<N>")?)
                }
                other => return Err(format!("{key}: unknown action {other:?}")),
            };
            if let Some(junk) = parts.next() {
                return Err(format!("{key}: trailing {junk:?} in spec"));
            }
            plan.points.insert(
                key.to_owned(),
                PointPolicy {
                    trigger,
                    action,
                    hits: AtomicU64::new(0),
                },
            );
        }
        Ok(plan)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Point names this plan injects at, in sorted order.
    pub fn point_names(&self) -> Vec<&str> {
        self.points.keys().map(String::as_str).collect()
    }

    fn decide(&self, name: &str) -> Option<FaultAction> {
        let policy = self.points.get(name)?;
        let hit = policy.hits.fetch_add(1, Ordering::Relaxed) + 1;
        policy
            .trigger
            .fires(self.seed, name, hit)
            .then_some(policy.action)
    }
}

fn parse_field<T: std::str::FromStr>(field: Option<&str>, err: &str) -> Result<T, String> {
    field
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| err.to_owned())
}

/// SplitMix64 — the per-hit decision hash behind [`Trigger::Prob`].
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the point name — mixes distinct points into distinct
/// probability streams under one plan seed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// `true` while a plan is armed — the only state the unarmed hot path
/// reads.
static ARMED: AtomicBool = AtomicBool::new(false);

fn plan_slot() -> &'static RwLock<Option<Arc<FaultPlan>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<FaultPlan>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Arms `plan` process-wide. Any previously armed plan (and its hit
/// counters) is replaced.
pub fn arm(plan: FaultPlan) {
    *plan_slot().write().unwrap_or_else(|e| e.into_inner()) = Some(Arc::new(plan));
    ARMED.store(true, Ordering::Release);
}

/// Disarms fault injection; every point returns to the zero-cost path.
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
    *plan_slot().write().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Arms the plan described by `TAXO_FAULTS`, if set and parseable.
/// Returns whether a plan was armed; parse errors are reported on stderr
/// rather than taking the process down (an operator typo must not crash
/// a server that is otherwise healthy).
pub fn arm_from_env() -> bool {
    match std::env::var("TAXO_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => match FaultPlan::parse(&spec) {
            Ok(plan) => {
                eprintln!(
                    "# taxo-fault: armed {} point(s) from TAXO_FAULTS (seed {})",
                    plan.points.len(),
                    plan.seed
                );
                arm(plan);
                true
            }
            Err(e) => {
                eprintln!("# taxo-fault: ignoring TAXO_FAULTS: {e}");
                false
            }
        },
        _ => false,
    }
}

/// True while a plan is armed (for logging in harnesses).
pub fn armed() -> bool {
    ARMED.load(Ordering::Acquire)
}

/// The fault that fires on this hit of `name`, if any: the hit is
/// counted and a fired fault bumps `fault.injected.<name>`, but nothing
/// is applied — for call sites that apply it themselves, like an event
/// loop that holds one connection back for a [`FaultAction::Delay`]
/// instead of sleeping the thread that serves every other one.
///
/// Unarmed: one relaxed load, returns `None`.
pub fn fired(name: &str) -> Option<FaultAction> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let action = plan_slot()
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()?
        .decide(name)?;
    taxo_obs::registry()
        .counter(&format!("fault.injected.{name}"))
        .inc();
    Some(action)
}

/// The injection decision for one hit of `name`: [`fired`], with a
/// [`FaultAction::Delay`] applied inline (sleeps, then passes).
pub fn inject(name: &str) -> Injection {
    match fired(name) {
        None => Injection::Pass,
        Some(FaultAction::Fail) => Injection::Fail,
        Some(FaultAction::Short(n)) => Injection::Short(n),
        Some(FaultAction::Delay(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
            Injection::Pass
        }
    }
}

/// Convenience for points that can only fail: applies delays inline and
/// maps both `Fail` and `Short` to `true`.
pub fn should_fail(name: &str) -> bool {
    !matches!(inject(name), Injection::Pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Instant;

    /// `arm`/`disarm` are process-global; every test that touches them
    /// holds this for its whole body.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parse_accepts_the_full_grammar() {
        let plan =
            FaultPlan::parse("seed=7; a=always:fail ;b=nth:3:delay:20;c=prob:0.5:short:4").unwrap();
        assert_eq!(plan.seed(), 7);
        assert_eq!(plan.point_names(), vec!["a", "b", "c"]);
        assert_eq!(plan.decide("a"), Some(FaultAction::Fail));
        assert_eq!(plan.decide("b"), None, "nth:3 hit 1");
        assert_eq!(plan.decide("b"), None, "nth:3 hit 2");
        assert_eq!(
            plan.decide("b"),
            Some(FaultAction::Delay(20)),
            "nth:3 hit 3"
        );
        assert_eq!(plan.decide("unregistered"), None);
    }

    #[test]
    fn once_trigger_fires_exactly_one_hit() {
        let plan = FaultPlan::parse("seed=5;w=once:3:fail").unwrap();
        assert_eq!(
            (1..=6).map(|_| plan.decide("w")).collect::<Vec<_>>(),
            vec![None, None, Some(FaultAction::Fail), None, None, None],
            "once:3 fires on hit 3 and never again"
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "justapoint",
            "seed=notanumber",
            "p=sometimes:fail",
            "p=nth:0:fail",
            "p=once:0:fail",
            "p=prob:1.5:fail",
            "p=nth:3:explode",
            "p=nth:3:fail:extra",
            "p=delay:10",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn prob_trigger_is_a_pure_function_of_seed_point_and_hit() {
        let t = Trigger::Prob(0.3);
        let fired: Vec<bool> = (1..=10_000).map(|hit| t.fires(99, "p", hit)).collect();
        let again: Vec<bool> = (1..=10_000).map(|hit| t.fires(99, "p", hit)).collect();
        assert_eq!(fired, again, "same inputs, same decisions");
        let count = fired.iter().filter(|&&f| f).count();
        assert!(
            (2_500..3_500).contains(&count),
            "p=0.3 over 10k hits fired {count} times"
        );
        // Different seeds and different points give different streams.
        assert_ne!(
            fired,
            (1..=10_000)
                .map(|hit| t.fires(100, "p", hit))
                .collect::<Vec<_>>()
        );
        assert_ne!(
            fired,
            (1..=10_000)
                .map(|hit| t.fires(99, "q", hit))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn armed_plan_fires_counts_and_disarms_cleanly() {
        let _g = lock();
        arm(FaultPlan::new(1).with("t.unit.point", Trigger::Nth(2), FaultAction::Fail));
        assert!(armed());
        assert_eq!(
            (1..=4).map(|_| inject("t.unit.point")).collect::<Vec<_>>(),
            vec![
                Injection::Pass,
                Injection::Fail,
                Injection::Pass,
                Injection::Fail
            ]
        );
        let fired = taxo_obs::registry().counter("fault.injected.t.unit.point");
        assert_eq!(fired.get(), 2);
        disarm();
        assert!(!armed());
        assert_eq!(inject("t.unit.point"), Injection::Pass);
        assert_eq!(fired.get(), 2, "disarmed points stop counting");
    }

    #[test]
    fn unarmed_inject_is_pass_metric_free_and_cheap() {
        let _g = lock();
        disarm();
        let calls = 5_000_000u64;
        let t0 = Instant::now();
        for _ in 0..calls {
            assert!(matches!(inject("t.unit.never.armed"), Injection::Pass));
        }
        let elapsed = t0.elapsed();
        let registered = taxo_obs::snapshot()
            .counters
            .iter()
            .any(|c| c.name == "fault.injected.t.unit.never.armed");
        assert!(!registered, "unarmed points must not touch the registry");
        // One relaxed load per call; even unoptimised builds do far
        // better than 1µs/call. Generous bound to stay flake-free.
        assert!(
            elapsed < Duration::from_secs(5),
            "unarmed inject took {elapsed:?} for {calls} calls"
        );
    }

    #[test]
    fn arm_from_env_parses_and_survives_typos() {
        let _g = lock();
        std::env::set_var("TAXO_FAULTS", "seed=3;t.env.point=always:fail");
        assert!(arm_from_env());
        assert!(should_fail("t.env.point"));
        disarm();
        // A typo must not take the process down, and must not arm.
        std::env::set_var("TAXO_FAULTS", "t.env.point=often:fail");
        assert!(!arm_from_env());
        assert!(!armed());
        std::env::remove_var("TAXO_FAULTS");
        assert!(!arm_from_env());
    }
}
