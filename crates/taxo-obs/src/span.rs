//! Hierarchical wall-time spans with RAII guards.
//!
//! A span measures one phase: create a guard with [`crate::span!`], and
//! its wall time is merged into the global per-path aggregate when the
//! guard drops. Aggregation is keyed by the dotted path, not by thread,
//! so a span opened inside a `taxo_nn::parallel` worker contributes to
//! the same aggregate as one opened on the main thread.
//!
//! A path carries its hierarchy in the name: `"pipeline.mlm_pretrain"`
//! is a child of `"pipeline"` by naming convention, so the hierarchy is
//! deterministic no matter which thread the span runs on.
//!
//! # Cost
//!
//! `span!` with a string literal registers its aggregate once per call
//! site, in a `static` (as `counter!` does), and records with three
//! atomics — count, total, and max via `fetch_max` — so a warm literal
//! span takes no lock and allocates nothing. A name built at run time
//! through [`enter`] is copied when it opens and looks its aggregate up
//! in the global map when it closes. Aggregates stay registered across
//! [`reset_spans`], which zeroes them; [`snapshot_spans`] lists only the
//! ones entered since.
//!
//! Span wall-times are the one observability output that is *not*
//! thread-count invariant; determinism comparisons must use
//! [`crate::MetricsSnapshot::deterministic`], which drops them.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The aggregate of one span path.
#[derive(Debug, Default)]
struct SpanStat {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl SpanStat {
    fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }
}

fn store() -> &'static Mutex<BTreeMap<String, Arc<SpanStat>>> {
    static STORE: OnceLock<Mutex<BTreeMap<String, Arc<SpanStat>>>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// The aggregate registered for `path`, created on first use.
fn stat_for(path: &str) -> Arc<SpanStat> {
    let mut map = store().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(stat) = map.get(path) {
        return Arc::clone(stat);
    }
    let stat = Arc::new(SpanStat::default());
    map.insert(path.to_owned(), Arc::clone(&stat));
    stat
}

/// Aggregated timings of one span path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    pub path: String,
    /// Times the span was entered.
    pub count: u64,
    /// Summed wall time across entries, nanoseconds.
    pub total_ns: u64,
    /// Longest single entry, nanoseconds.
    pub max_ns: u64,
}

impl SpanSnapshot {
    /// Total wall time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

/// RAII timer for one span entry; records on drop.
#[derive(Debug)]
pub struct SpanGuard {
    path: Cow<'static, str>,
    /// The call site's registered aggregate; `None` for a name built at
    /// run time, whose aggregate is looked up on drop.
    stat: Option<&'static SpanStat>,
    start: Instant,
}

/// One `span!` call site with a literal name: caches its aggregate in a
/// `static`, registered on first entry. Built by [`crate::span!`].
#[derive(Debug)]
pub struct SpanSite {
    name: &'static str,
    stat: OnceLock<Arc<SpanStat>>,
}

impl SpanSite {
    #[doc(hidden)]
    pub const fn new(name: &'static str) -> Self {
        SpanSite {
            name,
            stat: OnceLock::new(),
        }
    }

    /// Opens a span at this site.
    pub fn enter(&'static self) -> SpanGuard {
        let stat: &'static SpanStat = self.stat.get_or_init(|| stat_for(self.name));
        SpanGuard {
            path: Cow::Borrowed(self.name),
            stat: Some(stat),
            start: Instant::now(),
        }
    }
}

/// Opens a span. Prefer the [`crate::span!`] macro, which reads as
/// instrumentation at the call site and, for a literal name, skips the
/// per-entry path allocation and map lookup.
pub fn enter(name: &str) -> SpanGuard {
    SpanGuard {
        path: Cow::Owned(name.to_owned()),
        stat: None,
        start: Instant::now(),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        match self.stat {
            Some(stat) => stat.record(ns),
            None => stat_for(&self.path).record(ns),
        }
        crate::report::log_span_close(&self.path, ns);
    }
}

/// Opens a wall-time span for the enclosing scope:
/// `let _guard = span!("pipeline.mlm_pretrain");`. Binding the guard to
/// `_` drops it immediately and times nothing — always name the binding.
/// A string literal registers its aggregate once per call site; any
/// other expression goes through [`span::enter`](crate::span::enter).
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static SITE: $crate::span::SpanSite = $crate::span::SpanSite::new($name);
        SITE.enter()
    }};
    ($name:expr) => {
        $crate::span::enter($name)
    };
}

/// Sorted copy of every span aggregate entered since the last reset.
pub fn snapshot_spans() -> Vec<SpanSnapshot> {
    let map = store().lock().unwrap_or_else(|e| e.into_inner());
    map.iter()
        .filter_map(|(path, s)| {
            let count = s.count.load(Ordering::Relaxed);
            (count > 0).then(|| SpanSnapshot {
                path: path.clone(),
                count,
                total_ns: s.total_ns.load(Ordering::Relaxed),
                max_ns: s.max_ns.load(Ordering::Relaxed),
            })
        })
        .collect()
}

/// Zeroes every span aggregate (open guards still record on drop).
pub fn reset_spans() {
    let map = store().lock().unwrap_or_else(|e| e.into_inner());
    for s in map.values() {
        s.count.store(0, Ordering::Relaxed);
        s.total_ns.store(0, Ordering::Relaxed);
        s.max_ns.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(path: &str) -> Option<SpanSnapshot> {
        snapshot_spans().into_iter().find(|s| s.path == path)
    }

    #[test]
    fn span_records_count_and_time() {
        {
            let _g = enter("test.span.timed");
        }
        {
            let _g = enter("test.span.timed");
        }
        let s = stat("test.span.timed").expect("recorded");
        assert_eq!(s.count, 2);
        assert!(s.max_ns <= s.total_ns);
    }

    #[test]
    fn worker_thread_spans_merge_into_the_same_aggregate() {
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _g = enter("test.span.worker");
                });
            }
        });
        {
            let _g = enter("test.span.worker");
        }
        assert!(stat("test.span.worker").expect("recorded").count >= 5);
    }
}
