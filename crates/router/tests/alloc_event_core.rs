//! Counting-allocator assertion for the event core: after a warmup that
//! grows the calendar-queue buckets, the overflow heap, and the query slab
//! to their high-water marks, a steady-state stretch of the event loop —
//! arrivals, policy picks (Prequal pool maintenance included), probe
//! replies, completions, latency sampling — performs no per-event heap
//! allocations. This is the "zero per-event allocation in steady state"
//! claim of the router, pinned as a test instead of folklore, following
//! `crates/core/tests/alloc_hot_loop.rs`.
//!
//! "No per-event" rather than literally zero: in-flight high-water marks
//! keep creeping for a while (a bucket that has never held nine events
//! doubles the first time it does), so a long steady phase may see a
//! handful of one-off growth events — O(log) in the high-water mark,
//! never O(events). The assertion bounds them at a constant far below the
//! ~100k events the measured window processes.
//!
//! The counter is process-global, so this file holds exactly one test —
//! parallel tests in the same binary would race the counter. It measures
//! the window twice: with the arrival feed filled inline (one thread) and
//! by its producer thread (two), whose allocations the counter sees too.

use rex_obs::Recorder;
use rex_router::{PolicyKind, Router, RouterConfig};
use rex_workload::synthetic::{generate, DemandFamily, Placement, SynthConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation (alloc, alloc_zeroed, realloc) made through the
/// global allocator. Deallocations are free to happen — the event loop's
/// invariant is about *acquiring* memory.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// The one kind of `unsafe` the workspace allows: a `GlobalAlloc` impl.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations across a 40k-step steady-state window after a 40k-step
/// warmup, with the thread override at `threads`.
fn window_allocations(threads: usize) -> u64 {
    rayon::set_threads_override(Some(threads));
    // A balanced fleet the service rates can keep up with, so queues are
    // stationary and the in-flight high-water mark is reached early.
    let inst = generate(&SynthConfig {
        n_machines: 16,
        n_exchange: 0,
        n_shards: 400,
        dims: 1,
        stringency: 0.5,
        placement: Placement::BalancedBfd,
        family: DemandFamily::Uniform,
        seed: 13,
        ..Default::default()
    })
    .expect("generate");
    // Prequal is the worst-case policy for this claim: probe events, pool
    // sweeps, and reply upserts all ride the measured loop. A step is a
    // micro-tick with work, not a micro-tick: at 0.15 queries per µs the
    // two 40k-step windows cover about 150 ms, so the horizon is twice
    // that and both stay inside the arrival phase.
    let cfg = RouterConfig {
        horizon_us: 300_000,
        qps: 150_000.0,
        base_service_us: 400.0,
        policy: PolicyKind::Prequal,
        ..Default::default()
    };
    let mut rec = Recorder::noop();
    let mut router = Router::new(&inst, &cfg);
    router.start(&mut rec);

    // Warmup: drive every growable structure to its high-water mark.
    for _ in 0..40_000 {
        assert!(router.step(&mut rec), "horizon must outlast the warmup");
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..40_000 {
        assert!(router.step(&mut rec), "horizon must outlast the window");
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    rayon::set_threads_override(None);
    after - before
}

/// At one thread the loop fills the arrival feed's batches inline; at two
/// a producer thread fills them (its allocations count too: the counter
/// is process-global) and the drained batches are recycled.
#[test]
fn steady_state_event_loop_does_not_allocate() {
    for threads in [1, 2] {
        let grown = window_allocations(threads);
        assert!(
            grown <= 16,
            "steady-state event loop allocated {grown} times across 40k \
             steps at {threads} thread(s); only rare high-water growth is allowed"
        );
    }
}
