//! # rex-obs
//!
//! A **deterministic** tracing and metrics facade for the solver and the
//! runtime. Nothing in this crate ever consults the wall clock, thread ids,
//! or iteration order of hash maps: events are keyed by `(tick, sequence)`
//! where `tick` is supplied by the instrumented layer (LNS iteration
//! number, simulator tick) and `sequence` is a monotonic per-recorder
//! counter. Two same-seed runs therefore produce **byte-identical** JSONL
//! traces — the same discipline as the runtime's metrics bus — and the
//! trace is independent of how many threads the host machine has.
//!
//! ## The facade
//!
//! [`Recorder`] is a two-state enum, not a trait object and not a macro:
//!
//! * [`Recorder::Noop`] — the disabled path. Every method begins with a
//!   discriminant check and returns immediately.
//! * [`Recorder::active`] — buffers [`EventRecord`]s and aggregates
//!   [`metrics`] (counters, gauges, [`Histogram`]s) in `BTreeMap`s
//!   (deterministic iteration order for the summary).
//!
//! ## Calling convention
//!
//! Fields are plain data: a call site passes a borrowed stack array,
//! `rec.event("sra", "start", &[("peak", peak.into()), ("ok", true.into())])`,
//! and a [`Value`] is a scalar or a `Cow<'static, str>` (a literal borrows;
//! only an owned `String` allocates, where the caller built it). A disabled
//! call therefore builds a few scalars on the stack and returns — it cannot
//! allocate, so call sites record unconditionally. Only the active variant
//! copies the slice into an [`EventRecord`]. What a caller may still test
//! [`Recorder::is_active`] for is the cost of *computing* a field (a fleet
//! scan, an operator name rendered to a `String`), never the call itself;
//! the one such place on a hot path is the LNS engine's per-iteration
//! `("lns", "iter")` event, behind one flag read once per iteration.
//!
//! ## Event taxonomy
//!
//! Every event carries a `layer` (`"lns"`, `"sra"`, `"runtime"`), a `name`,
//! and typed fields in a fixed code-defined order. Hierarchical **spans**
//! are open/close event pairs: `span_close` back-references the opening
//! event's sequence number, and every event records its nesting `depth`, so
//! a consumer can rebuild the tree from the flat stream.
//!
//! ## Export
//!
//! [`Recorder::to_jsonl`] writes one JSON object per event (hand-rolled
//! writer — this crate is dependency-free so trace byte-identity rests on
//! nothing but `std`), and [`Recorder::summary`] renders a roll-up table of
//! event counts, counters, gauges, and histogram quantiles.

pub mod export;
pub mod metrics;

use metrics::Gauge;
pub use metrics::Histogram;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// A typed field value attached to an event.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Float (serialized with Rust's shortest-roundtrip formatter; NaN and
    /// infinities serialize as `null`).
    F64(f64),
    /// Text: a literal borrows, a name rendered at run time is owned.
    Str(Cow<'static, str>),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Str(Cow::Borrowed(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Cow::Owned(v))
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// What kind of record an event is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// A point event.
    Point,
    /// Opens a span; closed by the `SpanClose` carrying this event's `seq`.
    SpanOpen,
    /// Closes the span opened at `open_seq`.
    SpanClose {
        /// Sequence number of the matching `SpanOpen`.
        open_seq: u64,
    },
}

/// One recorded event. `(tick, seq)` is its deterministic key: `seq` is
/// globally monotonic, so the stream is totally ordered without wall-clock
/// timestamps.
#[derive(Clone, Debug)]
pub struct EventRecord {
    /// Logical time supplied by the instrumented layer.
    pub tick: u64,
    /// Monotonic sequence number (unique per recorder).
    pub seq: u64,
    /// Span-nesting depth at emission time.
    pub depth: u32,
    /// Which layer emitted the event (`"lns"`, `"sra"`, `"runtime"`).
    pub layer: &'static str,
    /// Event name within the layer.
    pub name: &'static str,
    /// Point, span-open, or span-close.
    pub kind: EventKind,
    /// Typed fields, in the (fixed) order the call site listed them.
    pub fields: Vec<(&'static str, Value)>,
}

/// The buffering state behind [`Recorder::active`].
#[derive(Debug, Default)]
pub struct Trace {
    tick: u64,
    seq: u64,
    events: Vec<EventRecord>,
    /// Open spans: sequence numbers of their `SpanOpen` events.
    span_stack: Vec<u64>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, Gauge>,
    histograms: BTreeMap<&'static str, Histogram>,
}

/// The tracing facade: either disabled ([`Recorder::Noop`], every call is a
/// discriminant check and an immediate return) or buffering into a
/// [`Trace`]. No macros, no globals — instrumented code takes
/// `&mut Recorder` and the caller decides which variant to pass.
#[derive(Debug, Default)]
pub enum Recorder {
    /// Disabled: all methods return immediately.
    #[default]
    Noop,
    /// Enabled: events and metrics are buffered for export.
    Active(Box<Trace>),
}

impl Recorder {
    /// A disabled recorder (same as `Recorder::Noop`; reads better at call
    /// sites that need a temporary).
    pub fn noop() -> Self {
        Recorder::Noop
    }

    /// An enabled recorder with an empty trace.
    pub fn active() -> Self {
        Recorder::Active(Box::default())
    }

    /// True when events are being recorded. Recording calls never need
    /// this test; it exists to skip computing a field that is itself costly.
    #[inline]
    pub fn is_active(&self) -> bool {
        matches!(self, Recorder::Active(_))
    }

    /// Sets the logical time stamped on subsequent events. Ticks are
    /// expected to be non-decreasing within a layer but this is not
    /// enforced — nested layers (a solve inside a simulation tick) may
    /// rebase and restore.
    #[inline]
    pub fn set_tick(&mut self, tick: u64) {
        if let Recorder::Active(t) = self {
            t.tick = tick;
        }
    }

    /// Records a point event.
    pub fn event(
        &mut self,
        layer: &'static str,
        name: &'static str,
        fields: &[(&'static str, Value)],
    ) {
        if let Recorder::Active(t) = self {
            t.push(layer, name, EventKind::Point, fields);
        }
    }

    /// Opens a span. Every span must be closed by a matching
    /// [`Recorder::span_close`]; spans nest strictly (LIFO).
    pub fn span_open(
        &mut self,
        layer: &'static str,
        name: &'static str,
        fields: &[(&'static str, Value)],
    ) {
        if let Recorder::Active(t) = self {
            let seq = t.push(layer, name, EventKind::SpanOpen, fields);
            t.span_stack.push(seq);
        }
    }

    /// Closes the innermost open span, attaching `fields` to the close
    /// event. No-op (and no panic) when no span is open, so instrumented
    /// code stays panic-free even if a caller mismatches.
    pub fn span_close(
        &mut self,
        layer: &'static str,
        name: &'static str,
        fields: &[(&'static str, Value)],
    ) {
        if let Recorder::Active(t) = self {
            let Some(open_seq) = t.span_stack.pop() else {
                return;
            };
            t.push(layer, name, EventKind::SpanClose { open_seq }, fields);
        }
    }

    /// Adds to a named counter.
    #[inline]
    pub fn add(&mut self, counter: &'static str, n: u64) {
        if let Recorder::Active(t) = self {
            *t.counters.entry(counter).or_insert(0) += n;
        }
    }

    /// Sets a named gauge (last value wins; min/max/count are kept).
    #[inline]
    pub fn gauge(&mut self, gauge: &'static str, value: f64) {
        if let Recorder::Active(t) = self {
            t.gauges.entry(gauge).or_default().set(value);
        }
    }

    /// Records a sample into a named [`Histogram`].
    #[inline]
    pub fn observe(&mut self, histogram: &'static str, value: f64) {
        if let Recorder::Active(t) = self {
            t.histograms.entry(histogram).or_default().record(value);
        }
    }

    /// The buffered events (empty when disabled).
    pub fn events(&self) -> &[EventRecord] {
        match self {
            Recorder::Noop => &[],
            Recorder::Active(t) => &t.events,
        }
    }

    /// Number of spans currently open.
    pub fn open_spans(&self) -> usize {
        match self {
            Recorder::Noop => 0,
            Recorder::Active(t) => t.span_stack.len(),
        }
    }

    /// Counter value (0 if never touched or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        match self {
            Recorder::Noop => 0,
            Recorder::Active(t) => t.counters.get(name).copied().unwrap_or(0),
        }
    }

    /// The JSONL event stream: one JSON object per line, trailing newline,
    /// byte-identical for identical recording sequences.
    pub fn to_jsonl(&self) -> String {
        match self {
            Recorder::Noop => String::new(),
            Recorder::Active(t) => export::to_jsonl(&t.events),
        }
    }

    /// The roll-up summary table (markdown) over events and metrics.
    pub fn summary(&self) -> String {
        match self {
            Recorder::Noop => String::from("(tracing disabled — no events recorded)\n"),
            Recorder::Active(t) => {
                export::summary(&t.events, &t.counters, &t.gauges, &t.histograms)
            }
        }
    }
}

impl Trace {
    fn push(
        &mut self,
        layer: &'static str,
        name: &'static str,
        kind: EventKind,
        fields: &[(&'static str, Value)],
    ) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        // A close event sits at the depth of the span it closes; its open
        // seq was already popped off the stack, so the post-pop length is
        // exactly that depth.
        let depth = self.span_stack.len() as u32;
        self.events.push(EventRecord {
            tick: self.tick,
            seq,
            depth,
            layer,
            name,
            kind,
            fields: fields.to_vec(),
        });
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_is_monotonic_and_tick_sticks() {
        let mut r = Recorder::active();
        r.set_tick(7);
        r.event("lns", "a", &[]);
        r.event("lns", "b", &[]);
        r.set_tick(9);
        r.event("lns", "c", &[]);
        let ev = r.events();
        assert_eq!(ev.len(), 3);
        assert_eq!((ev[0].tick, ev[0].seq), (7, 0));
        assert_eq!((ev[1].tick, ev[1].seq), (7, 1));
        assert_eq!((ev[2].tick, ev[2].seq), (9, 2));
    }

    #[test]
    fn spans_nest_and_backreference() {
        let mut r = Recorder::active();
        r.span_open("sra", "solve", &[]);
        r.span_open("sra", "search", &[]);
        r.event("lns", "iter", &[]);
        r.span_close("sra", "search", &[]);
        r.span_close("sra", "solve", &[("ok", true.into())]);
        let ev = r.events();
        assert_eq!(ev[0].depth, 0);
        assert_eq!(ev[1].depth, 1);
        assert_eq!(ev[2].depth, 2);
        assert_eq!(ev[3].kind, EventKind::SpanClose { open_seq: 1 });
        assert_eq!(ev[3].depth, 1);
        assert_eq!(ev[4].kind, EventKind::SpanClose { open_seq: 0 });
        assert_eq!(ev[4].depth, 0);
        assert_eq!(r.open_spans(), 0);
    }

    #[test]
    fn unbalanced_span_close_is_a_noop() {
        let mut r = Recorder::active();
        r.span_close("sra", "search", &[]);
        assert!(r.events().is_empty());
    }

    #[test]
    fn counters_accumulate() {
        let mut r = Recorder::active();
        r.add("iters", 2);
        r.add("iters", 3);
        assert_eq!(r.counter("iters"), 5);
        assert_eq!(r.counter("other"), 0);
    }

    #[test]
    fn identical_recordings_are_byte_identical() {
        let record = || {
            let mut r = Recorder::active();
            r.set_tick(1);
            r.span_open("sra", "solve", &[("seed", 42u64.into())]);
            for i in 0..10u64 {
                r.set_tick(i);
                r.event(
                    "lns",
                    "iter",
                    &[
                        ("destroy", "random-remove".into()),
                        ("delta", (-0.125f64 * i as f64).into()),
                        ("accepted", (i % 2 == 0).into()),
                    ],
                );
                r.observe("lns.delta", 0.125 * i as f64);
            }
            r.span_close("sra", "solve", &[]);
            (r.to_jsonl(), r.summary())
        };
        let (a_jsonl, a_summary) = record();
        let (b_jsonl, b_summary) = record();
        assert!(!a_jsonl.is_empty());
        assert_eq!(a_jsonl, b_jsonl);
        assert_eq!(a_summary, b_summary);
    }
}
