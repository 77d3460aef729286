//! Allocation budget of the DES hot loop: a reused `ServingSim` serves a
//! steady-state window with a handful of heap allocations (the owned
//! output buffers of `WindowMetrics` and arrival bookkeeping), and that
//! number does not grow with the window's event count.
//!
//! A global allocator counts allocations per thread, so whatever the test
//! harness's other threads allocate never lands in the count.

use clover_models::zoo::Application;
use clover_models::PerfModel;
use clover_serving::{Deployment, ServingSim};
use clover_simkit::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    // Const-initialized and without a destructor, so touching it never
    // allocates (which would recurse into the allocator).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count_one() {
    // `try_with`: the slot is gone while a thread tears down its locals.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System` upholds the `GlobalAlloc` contract for each call.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serves one window of `window_s` seconds to warm the scratch, then
/// `windows` more; returns their mean allocations and DES events per window.
fn per_window(sim: &mut ServingSim, rate: f64, window_s: f64, windows: u64) -> (f64, f64) {
    let window = SimDuration::from_secs(window_s);
    let warmup = SimDuration::from_secs(3.0);
    sim.run_window(rate, window, warmup);
    let before = ALLOCS.with(Cell::get);
    let events: u64 = (0..windows)
        .map(|_| sim.run_window(rate, window, warmup).sim_events)
        .sum();
    let allocs = ALLOCS.with(Cell::get) - before;
    (
        allocs as f64 / windows as f64,
        events as f64 / windows as f64,
    )
}

#[test]
fn steady_state_windows_allocate_a_few_times_whatever_their_length() {
    let family = Arc::new(Application::ImageClassification.family());
    let perf = PerfModel::a100();
    let deployment = Deployment::base(&family, 4);
    let capacity = clover_serving::estimate(&family, &perf, &deployment, 1.0).capacity_rps;
    let mut sim = ServingSim::new(family, perf, deployment, 7);
    let rate = 0.7 * capacity;

    let (short_allocs, short_events) = per_window(&mut sim, rate, 60.0, 40);
    assert!(
        short_allocs <= 8.0,
        "a steady-state 60 s window made {short_allocs:.2} allocations (budget 8)"
    );
    let (long_allocs, long_events) = per_window(&mut sim, rate, 600.0, 4);
    assert!(
        long_events >= 9.0 * short_events,
        "600 s windows must carry ~10x the events"
    );
    assert!(
        long_allocs <= short_allocs,
        "600 s windows made {long_allocs:.2} allocations each vs {short_allocs:.2} for 60 s: \
         the hot loop allocates per event"
    );
}
