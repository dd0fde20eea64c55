//! Memory check for the latency tally.
//!
//! A counting global allocator (this test binary only) tracks the live
//! heap bytes of the test thread while a `Tally` records 2^20 request
//! latencies shaped like an M/G/k completion log's: whole nanosecond
//! counts in seconds. Kept as 4-byte counts, they need 4 MiB; as `f64`s
//! they would need 8.

use ic_sim::rng::SimRng;
use ic_sim::stats::Tally;
use ic_sim::time::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

struct Counting;

/// A statistic only (it publishes no other data), so `Relaxed` suffices.
static LIVE: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Only allocations made while this is set are counted, so the test
    /// harness's own threads cannot disturb the figure.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: i64) {
    if COUNTING.with(Cell::get) {
        LIVE.fetch_add(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments to `System` unchanged, so
// `System`'s implementation of the contract holds; counting is a side
// effect that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller upholds `realloc`'s contract; `ptr` came from
        // this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: the caller upholds `dealloc`'s contract; `ptr` came from
        // this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_million_latencies_hold_four_bytes_each() {
    const SAMPLES: usize = 1 << 20;
    let mut rng = SimRng::seed_from_u64(7);
    let before = LIVE.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let mut tally = Tally::new();
    for _ in 0..SAMPLES {
        // Up to ~50 ms, as the paper's Client-Server latencies are.
        let ns = rng.next_u64() % 50_000_000;
        tally.record(SimDuration::from_nanos(ns).as_secs_f64());
    }
    // A query selects in place: it must not grow the heap either.
    let p95 = tally.percentile(0.95);
    COUNTING.with(|c| c.set(false));
    let live = LIVE.load(Ordering::Relaxed) - before;

    assert_eq!(tally.len(), SAMPLES);
    assert!(p95 > 0.04 && p95 < 0.05, "P95 {p95}");
    assert!(
        live <= 4 * SAMPLES as i64 + (SAMPLES as i64) / 2,
        "{SAMPLES} latencies hold {live} live heap bytes"
    );
}
