//! `taxo-obs` — the workspace's zero-dependency observability layer.
//!
//! Production question this crate answers: *where did the last expansion
//! spend its time, and how many candidates did each stage drop?* — from
//! instrumentation, not from log scraping or rerunning under a profiler.
//!
//! Three pieces:
//!
//! 1. **Metrics** ([`registry`]): a process-global [`MetricRegistry`] of
//!    atomic [`Counter`]s, [`Gauge`]s and fixed-bucket [`Histogram`]s,
//!    addressed by dotted names (`"expand.candidates_scored"`). Handles
//!    are `Arc`s; the [`counter!`]/[`gauge!`]/[`histogram!`] macros cache
//!    the registry lookup in a `static`, so hot paths pay one atomic add.
//! 2. **Spans** ([`span!`]): lightweight hierarchical wall-time phases
//!    with RAII guards. Aggregation is keyed by the span's dotted path in
//!    a global store, so time recorded on `taxo_nn::parallel` worker
//!    threads lands in the same aggregate as the spawning thread's.
//! 3. **Reporters** ([`report`]): human-readable text and JSON-lines
//!    renderings of a [`MetricsSnapshot`], selected by the `TAXO_LOG`
//!    (live span-close lines on stderr) and `TAXO_METRICS` (end-of-run
//!    summary) environment knobs, plus [`snapshot`] for programmatic
//!    access.
//!
//! # Determinism contract
//!
//! Instrumentation is **purely additive**: this crate records values but
//! offers no way for the instrumented code to branch on them, and every
//! counter/histogram in the workspace records *work counts* (items
//! scored, edges attached), never timings — so the recorded metric
//! values are identical at any `TAXO_THREADS` setting. Wall-clock time
//! lives only in span aggregates, which are excluded from determinism
//! comparisons. Recording is always on (the knobs only select
//! *reporting*), which keeps the hot path branch-free and means enabling
//! `TAXO_METRICS` cannot perturb results.
//!
//! # Example
//!
//! ```
//! use taxo_obs::{counter, histogram, span};
//!
//! {
//!     let _phase = span!("pipeline.mlm_pretrain");
//!     counter!("train.mlm.examples").add(128);
//!     histogram!("expand.candidates_per_query").observe(7);
//! } // span closes here and its wall time is aggregated
//!
//! let snap = taxo_obs::snapshot();
//! assert!(snap.counters.iter().any(|c| c.name == "train.mlm.examples"));
//! ```

mod metrics;
pub mod report;
pub mod span;

pub use metrics::{
    registry, Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram, HistogramSnapshot,
    MetricRegistry, DEFAULT_BOUNDS,
};
pub use span::{SpanGuard, SpanSite, SpanSnapshot};

/// A point-in-time copy of every metric and span aggregate, sorted by
/// name so two snapshots of identical recordings compare equal.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<CounterSnapshot>,
    pub gauges: Vec<GaugeSnapshot>,
    pub histograms: Vec<HistogramSnapshot>,
    pub spans: Vec<SpanSnapshot>,
}

impl MetricsSnapshot {
    /// The thread-count-invariant part of the snapshot: everything except
    /// span wall-times. Two runs of the same deterministic workload must
    /// produce equal `deterministic()` views at any `TAXO_THREADS`.
    pub fn deterministic(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
            spans: Vec::new(),
        }
    }

    /// Looks up a counter value by name (0 if never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// True when nothing has been recorded at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Folds `other` into `self` by name, keeping every family sorted:
    /// counters, gauges, histogram counts and sums, and span counts and
    /// totals add; a span's maximum is the larger one. A merged snapshot
    /// carries no histogram buckets.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        merge_by(
            &mut self.counters,
            &other.counters,
            |c| &c.name,
            |a, b| a.value += b.value,
        );
        merge_by(
            &mut self.gauges,
            &other.gauges,
            |g| &g.name,
            |a, b| a.value += b.value,
        );
        merge_by(
            &mut self.histograms,
            &other.histograms,
            |h| &h.name,
            |a, b| (a.count, a.sum) = (a.count + b.count, a.sum + b.sum),
        );
        for h in &mut self.histograms {
            (h.bounds, h.buckets) = (Vec::new(), Vec::new());
        }
        merge_by(
            &mut self.spans,
            &other.spans,
            |s| &s.path,
            |a, b| {
                (a.count, a.total_ns) = (a.count + b.count, a.total_ns + b.total_ns);
                a.max_ns = a.max_ns.max(b.max_ns);
            },
        );
    }
}

/// Merges the name-sorted `from` into the name-sorted `into`: an entry
/// whose name `into` holds is folded in with `add`, any other inserted in
/// order.
fn merge_by<T: Clone>(
    into: &mut Vec<T>,
    from: &[T],
    name: impl Fn(&T) -> &String,
    add: impl Fn(&mut T, &T),
) {
    for item in from {
        match into.binary_search_by(|x| name(x).cmp(name(item))) {
            Ok(i) => add(&mut into[i], item),
            Err(i) => into.insert(i, item.clone()),
        }
    }
}

/// Snapshots the global registry *and* the span store.
pub fn snapshot() -> MetricsSnapshot {
    let mut snap = registry().snapshot();
    snap.spans = span::snapshot_spans();
    snap
}

/// Zeroes every metric value and clears span aggregates. Cached handles
/// (from [`counter!`] etc.) stay valid: values are reset in place.
/// Intended for tests and long-running processes that report per-window.
pub fn reset() {
    registry().reset();
    span::reset_spans();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global registry is shared across tests in this binary; use
    // unique metric names per test and never reset() here (reset-based
    // behaviour is covered by the dedicated integration test binaries).

    #[test]
    fn snapshot_contains_recorded_metrics() {
        counter!("test.lib.counter").add(3);
        gauge!("test.lib.gauge").set(-7);
        histogram!("test.lib.hist").observe(5);
        let snap = snapshot();
        assert_eq!(snap.counter("test.lib.counter"), 3);
        assert!(snap
            .gauges
            .iter()
            .any(|g| g.name == "test.lib.gauge" && g.value == -7));
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "test.lib.hist")
            .expect("histogram registered");
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 5);
    }

    #[test]
    fn deterministic_view_drops_spans() {
        {
            let _g = span!("test.lib.span");
        }
        let snap = snapshot();
        assert!(snap.spans.iter().any(|s| s.path == "test.lib.span"));
        assert!(snap.deterministic().spans.is_empty());
    }

    #[test]
    fn snapshots_are_sorted_by_name() {
        counter!("test.lib.zzz").inc();
        counter!("test.lib.aaa").inc();
        let snap = snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }
}
