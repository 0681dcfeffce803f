//! The recording convention, pinned: the same calls cost nothing on a
//! disabled recorder (counting allocator, the pattern of
//! `crates/core/tests/alloc_hot_loop.rs`) and export the bytes the
//! `Vec`-taking API exported on an active one.
//!
//! The counter is process-global, so this file holds exactly one test.

use rex_obs::Recorder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every acquisition: `alloc_zeroed` and `realloc` default to `alloc`.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Every call shape the product makes: spans and events with u64, usize,
/// f64 (finite and not), bool and literal-text fields, empty field
/// lists, counters, gauges, histograms, tick stamps.
fn narrate(rec: &mut Recorder, round: u64) {
    rec.set_tick(round);
    rec.span_open(
        "sra",
        "solve",
        &[
            ("machines", 12usize.into()),
            ("seed", round.into()),
            ("policy", "sra".into()),
        ],
    );
    rec.span_open("sra", "search", &[]);
    rec.event(
        "lns",
        "iter",
        &[
            ("intensity", 0.25f64.into()),
            ("delta", f64::NAN.into()),
            ("accepted", round.is_multiple_of(2).into()),
            ("outcome", "new_best".into()),
        ],
    );
    rec.add("lns.iterations", 1);
    rec.gauge("sra.objective", 0.5 + round as f64);
    rec.observe("lns.delta", 0.125);
    rec.span_close("sra", "search", &[("ok", true.into())]);
    rec.span_close("sra", "solve", &[("objective", 0.75f64.into())]);
}

/// `narrate` over rounds 0 and 1 through the `Vec`-taking API, recorded at
/// the parent commit.
const PARENT_JSONL: &str = r#"{"tick":0,"seq":0,"depth":0,"layer":"sra","event":"solve","kind":"span_open","fields":{"machines":12,"seed":0,"policy":"sra"}}
{"tick":0,"seq":1,"depth":1,"layer":"sra","event":"search","kind":"span_open","fields":{}}
{"tick":0,"seq":2,"depth":2,"layer":"lns","event":"iter","kind":"point","fields":{"intensity":0.25,"delta":null,"accepted":true,"outcome":"new_best"}}
{"tick":0,"seq":3,"depth":1,"layer":"sra","event":"search","kind":"span_close","open_seq":1,"fields":{"ok":true}}
{"tick":0,"seq":4,"depth":0,"layer":"sra","event":"solve","kind":"span_close","open_seq":0,"fields":{"objective":0.75}}
{"tick":1,"seq":5,"depth":0,"layer":"sra","event":"solve","kind":"span_open","fields":{"machines":12,"seed":1,"policy":"sra"}}
{"tick":1,"seq":6,"depth":1,"layer":"sra","event":"search","kind":"span_open","fields":{}}
{"tick":1,"seq":7,"depth":2,"layer":"lns","event":"iter","kind":"point","fields":{"intensity":0.25,"delta":null,"accepted":false,"outcome":"new_best"}}
{"tick":1,"seq":8,"depth":1,"layer":"sra","event":"search","kind":"span_close","open_seq":6,"fields":{"ok":true}}
{"tick":1,"seq":9,"depth":0,"layer":"sra","event":"solve","kind":"span_close","open_seq":5,"fields":{"objective":0.75}}
"#;

#[test]
fn disabled_calls_never_allocate_and_active_calls_export_the_same_bytes() {
    let mut active = Recorder::active();
    narrate(&mut active, 0);
    narrate(&mut active, 1);
    assert_eq!(active.to_jsonl(), PARENT_JSONL);

    let mut noop = Recorder::noop();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for round in 0..100 {
        narrate(&mut noop, round);
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(allocated, 0, "a disabled recorder allocated");
    assert!(!noop.is_active() && noop.events().is_empty());
    assert_eq!(
        (noop.counter("lns.iterations"), noop.to_jsonl()),
        (0, String::new())
    );
}
