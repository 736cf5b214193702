//! A warm `span!` with an absolute literal name allocates nothing: its
//! aggregate is registered once per call site and recorded with atomics,
//! and its guard borrows the literal instead of copying it.
//!
//! One test only, so the counting `#[global_allocator]` observes nothing
//! but this test's thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn nested_spans() {
    let _outer = taxo_obs::span!("test.alloc.outer");
    let _inner = taxo_obs::span!("test.alloc.outer.inner");
}

#[test]
fn warm_absolute_span_allocates_nothing() {
    // Warm-up registers both call sites.
    nested_spans();

    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..100 {
        nested_spans();
    }
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(allocs, 0, "warm absolute spans allocated {allocs} times");

    let spans = taxo_obs::span::snapshot_spans();
    for path in ["test.alloc.outer", "test.alloc.outer.inner"] {
        let s = spans.iter().find(|s| s.path == path).expect("recorded");
        assert_eq!(s.count, 101, "{path}");
        assert!(s.max_ns <= s.total_ns, "{path}");
    }

    // A reset zeroes the aggregates; only spans entered since are listed.
    taxo_obs::span::reset_spans();
    assert!(taxo_obs::span::snapshot_spans().is_empty());
    {
        let _g = taxo_obs::span!("test.alloc.outer");
    }
    let spans = taxo_obs::span::snapshot_spans();
    assert_eq!(spans.len(), 1);
    assert_eq!(
        (spans[0].path.as_str(), spans[0].count),
        ("test.alloc.outer", 1)
    );
}
