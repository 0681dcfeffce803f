//! The benchmark's own span recorder.
//!
//! The program under test is not instrumented in this change, so spans are
//! recorded here, around calls into each layer's public functions: name,
//! start, end, the span that caused it, and the id of the operation they
//! all belong to. Spans stay in memory and are written out once, when the
//! traced run ends.
//!
//! Two kinds of child exist. A **measured** child ran inside its parent's
//! interval (the replica called `io::load`, then `solve`, ...). A
//! **replayed** child ran *after* the parent, on the same inputs, to learn
//! how long a step the parent performs internally takes (`run_search`
//! inside `solve`); determinism makes it the same work. A replayed child
//! may stand for `count` executions (one controller solve timed, N
//! triggers observed).

use serde::Serialize;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug, Serialize)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Operation the span belongs to (spans of one op share it).
    pub op: u32,
    /// `layer.step`, e.g. `core.search`.
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Ran after its parent, re-executing one of the parent's steps.
    pub replayed: bool,
    /// How many executions inside the parent this span stands for.
    pub count: u32,
    /// Duration not covered by children; filled in by [`SpanRecorder::finish`].
    pub self_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span sink. A disabled recorder runs the closures it is handed
/// and records nothing, which is how the untraced replica is timed.
pub struct SpanRecorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
}

impl SpanRecorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Starts a new operation: later spans carry the next op id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    fn record<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        replayed: bool,
        count: u32,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, Option<usize>) {
        if !self.enabled {
            return (f(self), None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op: self.op,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            replayed,
            count,
            self_ns: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        (out, Some(id))
    }

    /// Times `f` as a measured child of the innermost open span.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let parent = self.stack.last().copied();
        self.record(name, parent, false, 1, f).0
    }

    /// Like [`time`](Self::time), also returning the span's id so replays
    /// can be attached to it afterwards.
    pub fn time_id<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> (T, Option<usize>) {
        let parent = self.stack.last().copied();
        self.record(name, parent, false, 1, f)
    }

    /// Times `f` as a replayed child of `parent`, standing for `count`
    /// executions of that step inside the parent.
    pub fn replay<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        count: u32,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, Option<usize>) {
        self.record(name, parent, true, count, f)
    }

    /// Closes the recording: computes every span's self time and returns
    /// the spans.
    pub fn finish(mut self) -> Vec<Span> {
        let self_ns: Vec<u64> = (0..self.spans.len())
            .map(|i| self_time_ns(&self.spans, i))
            .collect();
        for (s, ns) in self.spans.iter_mut().zip(self_ns) {
            s.self_ns = ns;
        }
        self.spans
    }
}

/// Nanoseconds of span `id` that its direct children account for: the
/// union of the measured children's intervals clipped to the parent (two
/// children overlapping in time count once), plus `duration × count` of
/// each replayed child. Replays are estimates, so this can exceed the
/// parent's own duration.
pub fn explained_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut measured: Vec<(u64, u64)> = Vec::new();
    let mut replayed = 0u64;
    for c in spans.iter().filter(|c| c.parent == Some(id)) {
        if c.replayed {
            replayed += c.duration_ns() * u64::from(c.count);
        } else {
            let (lo, hi) = (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns));
            if hi > lo {
                measured.push((lo, hi));
            }
        }
    }
    measured.sort_unstable();
    let mut union = 0u64;
    let mut reach = 0u64;
    for (lo, hi) in measured {
        let lo = lo.max(reach);
        if hi > lo {
            union += hi - lo;
            reach = hi;
        }
    }
    union + replayed
}

/// A span's self time: its duration minus what its children account for,
/// and never negative.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    spans[id]
        .duration_ns()
        .saturating_sub(explained_ns(spans, id))
}

/// Share of span `root`'s duration that is attributed to a named leaf
/// step: one minus, for every span in its tree that has children, the part
/// of it that the children do not account for. Replays that over-estimate
/// (a first solve timed, cheaper later solves counted) push it above 1 —
/// which is reported, not hidden.
pub fn cover_share(spans: &[Span], root: usize) -> f64 {
    let mut unexplained = 0.0f64;
    let mut todo = vec![root];
    while let Some(id) = todo.pop() {
        let children: Vec<usize> = spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.id)
            .collect();
        if !children.is_empty() {
            unexplained += spans[id].duration_ns() as f64 - explained_ns(spans, id) as f64;
            todo.extend(children);
        }
    }
    1.0 - unexplained / spans[root].duration_ns() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start: u64, end: u64, replayed: bool) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: format!("s{id}"),
            start_ns: start,
            end_ns: end,
            replayed,
            count: 1,
            self_ns: 0,
        }
    }

    #[test]
    fn children_are_subtracted_once_and_grandchildren_not_at_all() {
        let spans = vec![
            span(0, None, 0, 100, false),
            span(1, Some(0), 10, 40, false),
            span(2, Some(0), 50, 70, false),
            // A grandchild must only reduce its own parent's self time.
            span(3, Some(1), 15, 35, false),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 30 - 20);
        assert_eq!(self_time_ns(&spans, 1), 30 - 20);
        assert_eq!(self_time_ns(&spans, 3), 20);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let spans = vec![
            span(0, None, 0, 100, false),
            span(1, Some(0), 10, 60, false),
            span(2, Some(0), 40, 80, false),
            // Entirely inside span 1: adds nothing to the union.
            span(3, Some(0), 20, 30, false),
            // Sticks out of the parent: only the inside part counts.
            span(4, Some(0), 90, 150, false),
        ];
        assert_eq!(explained_ns(&spans, 0), (80 - 10) + (100 - 90));
        assert_eq!(self_time_ns(&spans, 0), 20);
    }

    #[test]
    fn replayed_children_cover_by_duration_times_count_and_are_capped() {
        let mut spans = vec![
            span(0, None, 0, 100, false),
            // Replays run after the parent closed; their position in time
            // is irrelevant, their length is what they cover.
            span(1, Some(0), 200, 230, true),
            span(2, Some(0), 300, 310, true),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 30 - 10);
        spans[2].count = 5;
        assert_eq!(self_time_ns(&spans, 0), 100 - 30 - 50);
        // Replays that add up to more than the parent leave zero self time,
        // and the over-estimate shows as a cover above 1.
        spans[2].count = 50;
        assert_eq!(self_time_ns(&spans, 0), 0);
        assert_eq!(cover_share(&spans, 0), (30.0 + 500.0) / 100.0);
    }

    #[test]
    fn cover_counts_unexplained_self_time_of_opened_spans_only() {
        let spans = vec![
            span(0, None, 0, 100, false),
            span(1, Some(0), 0, 80, false),
            // Replays explain 60 of span 1's 80; span 2 is a leaf.
            span(2, Some(1), 200, 260, true),
            span(3, Some(0), 80, 90, false),
        ];
        // Unexplained: 10 of the root, 20 of span 1. Leaves are explained.
        assert_eq!(cover_share(&spans, 0), 0.7);
        assert_eq!(cover_share(&spans, 1), 0.75);
    }

    #[test]
    fn recorder_nests_by_call_structure_and_disabled_records_nothing() {
        let mut rec = SpanRecorder::new(true);
        rec.next_op();
        let (_, outer) = rec.time_id("outer", |r| {
            r.time("inner", |_| std::hint::black_box(1 + 1));
        });
        rec.replay("again", outer, 3, |_| ());
        let spans = rec.finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[2].replayed && spans[2].count == 3);
        assert!(spans.iter().all(|s| s.op == 1));
        assert!(spans[0].self_ns <= spans[0].end_ns - spans[0].start_ns);

        let mut off = SpanRecorder::new(false);
        assert_eq!(off.time("x", |_| 7), 7);
        assert!(off.finish().is_empty());
    }
}
