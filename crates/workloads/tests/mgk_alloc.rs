//! Allocation check for the M/G/k hot path.
//!
//! A counting global allocator (this test binary only) records every
//! allocation made on the test thread while a warmed-up simulation runs
//! a 30 s window at 4000 QPS on 8 VMs — roughly 240k events. The kernel
//! runs that window as sub-windows of a fixed number of arrivals, so
//! once its per-sub-window arenas (arrivals, requests in service, sort
//! keys) and the VM queues have reached their steady-state sizes, the
//! only allocations left are the doublings of the completion log, and
//! the count stays at a few dozen.

use ic_sim::time::SimTime;
use ic_workloads::mgk::ClientServerSim;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

/// A statistic only (it publishes no other data), so `Relaxed` suffices.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Only allocations made while this is set are counted, so the test
    /// harness's own threads cannot disturb the figure.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every method forwards its arguments to `System` unchanged, so
// `System`'s implementation of the contract holds; counting is a side
// effect that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `realloc`'s contract; `ptr` came from
        // this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `dealloc`'s contract; `ptr` came from
        // this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_window_allocates_only_for_the_completion_log() {
    let mut sim = ClientServerSim::new(37, 0.0028, 1.5, 4, 0.1);
    for _ in 0..8 {
        sim.add_vm();
    }
    sim.set_qps(4000.0);
    sim.advance_to(SimTime::from_secs(30));
    // Start the window with an empty completion log.
    drop(sim.take_completions());

    let events_before = sim.events_processed();
    let allocs = allocations_during(|| sim.advance_to(SimTime::from_secs(60)));
    let events = sim.events_processed() - events_before;
    let completions = sim.take_completions().len();

    assert!(events > 200_000, "window ran {events} events");
    // A doubling `Vec` of ~120k completions reallocates ~17 times.
    let log_growth = usize::BITS - completions.leading_zeros();
    assert!(
        allocs <= u64::from(log_growth) + 16,
        "{allocs} allocations over {events} events ({completions} completions)"
    );
}
