//! The raw-speed event core: a bucketed calendar queue over integer
//! micro-ticks.
//!
//! The simulator's generic `BinaryHeap` queue (`rex_runtime::events`) pays
//! an `O(log n)` comparison cascade per event — fine at thousands of ticks,
//! ruinous at millions of query events. Here the common case is an `O(1)`
//! `Vec::push` into the wheel bucket of the target micro-tick:
//!
//! * the wheel spans `buckets.len()` micro-ticks (a power of two); an
//!   event due within the span goes straight into
//!   `buckets[time & mask]`, which holds events for exactly one absolute
//!   time at any given moment,
//! * events due beyond the span land in a min-heap **overflow** keyed
//!   `(time, seq)` and are pulled into the wheel lazily as `now`
//!   approaches — `seq` makes the pull order (and therefore intra-bucket
//!   order) a pure function of the schedule history,
//! * within a bucket, events run in insertion order (FIFO), the same
//!   insertion-order tie-break the tick simulator uses.
//!
//! Two contracts keep the hot loop allocation-free and borrow-friendly:
//! scheduling is **strictly future** (`time > now`; same-tick scheduling
//! is clamped to `now + 1`), so the bucket being drained never grows under
//! the iterator; and buckets are drained by index
//! ([`CalendarQueue::event_at`]) with `Event: Copy`, so the caller can
//! mutate the queue (schedule follow-ups) mid-drain. After warmup, bucket
//! `Vec`s and the overflow heap sit at their high-water capacity and a
//! schedule/pop cycle touches the allocator zero times — locked by
//! `tests/alloc_event_core.rs`.

/// What happens when an event fires. Payloads are plain indices
/// (replica/query/shard handles), never owned data: `Event` is `Copy` and
/// 16 bytes, so buckets move raw words around.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// The arrival pump as a queue event re-armed every micro-tick: the
    /// reference the router's computed arrival schedule is tested against.
    #[cfg(test)]
    ArrivalPump,
    /// A subrequest finished on `replica` for query-slab slot `query`.
    SubComplete {
        /// Replica that served the subrequest.
        replica: u32,
        /// Query-slab slot the subrequest belongs to.
        query: u32,
    },
    /// A Prequal probe answer for `shard` from `replica` comes back.
    ProbeReply {
        /// Shard whose pool receives the answer.
        shard: u32,
        /// Probed replica.
        replica: u32,
    },
    /// Periodic SRA reassignment poll.
    SraPoll,
}

/// A scheduled event: absolute micro-tick plus its kind.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Absolute due time (micro-ticks).
    pub time: u64,
    /// Payload.
    pub kind: EventKind,
}

/// Overflow entry: ordering key `(time, seq)` under `Reverse` gives a
/// deterministic min-heap pop order.
#[derive(Clone, Copy, Debug)]
struct Deferred {
    time: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Deferred {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for Deferred {}
impl PartialOrd for Deferred {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Deferred {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The calendar queue. See the module docs for the invariants.
pub struct CalendarQueue {
    /// The wheel: `buckets[t & mask]` holds the events due at absolute
    /// time `t` for the unique `t` in `(now, now + span)` with that index
    /// (exclusive at both ends — `now + span` would alias `now`'s bucket).
    buckets: Vec<Vec<Event>>,
    mask: u64,
    /// Current micro-tick: every queued event is strictly later.
    now: u64,
    /// Events due beyond the wheel span, pulled in lazily.
    overflow: std::collections::BinaryHeap<std::cmp::Reverse<Deferred>>,
    /// Monotone schedule counter ordering same-time overflow entries.
    seq: u64,
    /// Total queued events (wheel + overflow).
    len: usize,
}

impl CalendarQueue {
    /// A queue whose wheel spans `span` micro-ticks (rounded up to a power
    /// of two, minimum 8). `bucket_cap` pre-sizes every bucket and
    /// `overflow_cap` the deferred heap, so a correctly-sized queue never
    /// allocates after construction.
    pub fn with_capacity(span: usize, bucket_cap: usize, overflow_cap: usize) -> Self {
        let span = span.next_power_of_two().max(8);
        Self {
            buckets: (0..span).map(|_| Vec::with_capacity(bucket_cap)).collect(),
            mask: span as u64 - 1,
            now: 0,
            overflow: std::collections::BinaryHeap::with_capacity(overflow_cap),
            seq: 0,
            len: 0,
        }
    }

    /// Wheel span in micro-ticks.
    pub fn span(&self) -> u64 {
        self.buckets.len() as u64
    }

    /// Current micro-tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Queued events (all horizons).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `kind` at absolute micro-tick `time`. Times at or before
    /// `now` are clamped to `now + 1`: the bucket being drained must never
    /// grow mid-drain.
    #[inline]
    pub fn schedule(&mut self, time: u64, kind: EventKind) {
        let time = time.max(self.now + 1);
        self.len += 1;
        // Strictly less than the span: an event at exactly `now + span`
        // would alias the bucket currently being drained.
        if time - self.now < self.span() {
            self.buckets[(time & self.mask) as usize].push(Event { time, kind });
        } else {
            self.seq += 1;
            self.overflow.push(std::cmp::Reverse(Deferred {
                time,
                seq: self.seq,
                kind,
            }));
        }
    }

    /// Advances to the next non-empty micro-tick and returns
    /// `(time, bucket_index, event_count)`, or `None` when the queue is
    /// drained. Drain the tick with [`Self::event_at`] (events may be
    /// scheduled freely meanwhile — they land strictly later) and finish
    /// with [`Self::finish_tick`].
    pub fn next_tick(&mut self) -> Option<(u64, usize, usize)> {
        self.next_tick_until(u64::MAX)
    }

    /// Like [`Self::next_tick`] but never advances past `limit`: returns
    /// `None` once the next populated micro-tick would exceed `limit`,
    /// leaving those events queued. A finite `limit` also advances `now`
    /// to `limit` on the `None` path, so a caller driving the queue in
    /// bounded slices (the runtime's event backend advancing one simulator
    /// tick at a time) resumes exactly where the window closed;
    /// `u64::MAX` — the unbounded case — leaves `now` at the last drained
    /// tick. One extra compare per scanned bucket is the whole cost.
    pub fn next_tick_until(&mut self, limit: u64) -> Option<(u64, usize, usize)> {
        if self.len == 0 {
            self.close_window(limit);
            return None;
        }
        loop {
            self.pull_as_of(self.now);
            // Scan the window for the first populated bucket.
            for dt in 1..=self.span() {
                let t = self.now + dt;
                if t > limit {
                    // Every event at or before `limit` would have been
                    // found by now; the rest stay queued for a later call.
                    self.close_window(limit);
                    return None;
                }
                let idx = (t & self.mask) as usize;
                if !self.buckets[idx].is_empty() {
                    debug_assert!(self.buckets[idx].iter().all(|e| e.time == t));
                    self.now = t;
                    return Some((t, idx, self.buckets[idx].len()));
                }
            }
            // Wheel empty, so everything left is deferred: jump the window
            // to just before the earliest deferred event and re-pull.
            let head = self
                .overflow
                .peek()
                .expect("len > 0 with an empty wheel implies overflow events")
                .0;
            if head.time > limit {
                self.close_window(limit);
                return None;
            }
            self.now = head.time - 1;
        }
    }

    /// Pulls into the wheel every overflow entry a drain with the clock at
    /// `at` pulls: those due before `at + span`. Pop order is `(time, seq)`,
    /// so same-time entries append in schedule order.
    ///
    /// Every drain pulls at its own clock first. A caller that skips
    /// micro-ticks a per-tick drain would have visited (the router computes
    /// its arrival schedule instead of queueing a pump every µs) calls this
    /// with the last skipped micro-tick before handling a tick, so each
    /// bucket keeps the order per-tick draining gives it. `at` must not
    /// exceed `now`; a clock no later than one already pulled at is a no-op.
    pub(crate) fn pull_as_of(&mut self, at: u64) {
        debug_assert!(at <= self.now);
        while let Some(std::cmp::Reverse(head)) = self.overflow.peek().copied() {
            if head.time - at >= self.span() {
                break;
            }
            self.overflow.pop();
            self.buckets[(head.time & self.mask) as usize].push(Event {
                time: head.time,
                kind: head.kind,
            });
        }
    }

    /// Ends a bounded drain: every remaining event is strictly past
    /// `limit`, so `now` may jump there (keeping future `schedule` clamps
    /// relative to the drained window). The unbounded sentinel must *not*
    /// move `now` — a drained queue stays schedulable at its last tick.
    fn close_window(&mut self, limit: u64) {
        if limit != u64::MAX {
            self.now = self.now.max(limit);
        }
    }

    /// The `i`-th event of the bucket returned by [`Self::next_tick`]
    /// (insertion order).
    #[inline]
    pub fn event_at(&self, bucket: usize, i: usize) -> Event {
        self.buckets[bucket][i]
    }

    /// Ends the current tick: clears the drained bucket (capacity kept).
    /// `count` must be the event count [`Self::next_tick`] reported —
    /// strictly-future scheduling guarantees nothing was appended since.
    pub fn finish_tick(&mut self, bucket: usize, count: usize) {
        debug_assert_eq!(self.buckets[bucket].len(), count);
        self.buckets[bucket].clear();
        self.len -= count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(q: &mut CalendarQueue) -> Vec<(u64, EventKind)> {
        let mut out = Vec::new();
        while let Some((t, b, n)) = q.next_tick() {
            for i in 0..n {
                out.push((t, q.event_at(b, i).kind));
            }
            q.finish_tick(b, n);
        }
        out
    }

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut q = CalendarQueue::with_capacity(16, 4, 4);
        q.schedule(5, EventKind::SraPoll);
        q.schedule(3, EventKind::ArrivalPump);
        q.schedule(
            5,
            EventKind::SubComplete {
                replica: 1,
                query: 2,
            },
        );
        q.schedule(
            3,
            EventKind::ProbeReply {
                shard: 7,
                replica: 0,
            },
        );
        let order = drain_all(&mut q);
        assert_eq!(order.len(), 4);
        assert_eq!(
            order.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![3, 3, 5, 5]
        );
        // FIFO within a tick.
        assert_eq!(order[0].1, EventKind::ArrivalPump);
        assert_eq!(order[2].1, EventKind::SraPoll);
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_events_survive_the_wheel_horizon() {
        let mut q = CalendarQueue::with_capacity(8, 2, 2);
        q.schedule(2, EventKind::ArrivalPump);
        q.schedule(1_000, EventKind::SraPoll); // far beyond the 8-tick span
        q.schedule(
            1_000,
            EventKind::SubComplete {
                replica: 9,
                query: 9,
            },
        );
        q.schedule(500, EventKind::ArrivalPump);
        let order = drain_all(&mut q);
        assert_eq!(
            order.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![2, 500, 1_000, 1_000]
        );
        // Same-time overflow entries keep schedule order.
        assert_eq!(order[2].1, EventKind::SraPoll);
    }

    #[test]
    fn same_tick_scheduling_is_clamped_to_the_next_tick() {
        let mut q = CalendarQueue::with_capacity(8, 2, 2);
        q.schedule(1, EventKind::ArrivalPump);
        let (t, b, n) = q.next_tick().unwrap();
        assert_eq!((t, n), (1, 1));
        // "Now" and "past" both land at now + 1, never in the open bucket.
        q.schedule(1, EventKind::SraPoll);
        q.schedule(0, EventKind::ArrivalPump);
        assert_eq!(q.event_at(b, 0).kind, EventKind::ArrivalPump);
        q.finish_tick(b, n);
        let order = drain_all(&mut q);
        assert_eq!(
            order.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![2, 2]
        );
    }

    #[test]
    fn bounded_drain_stops_at_the_limit_and_resumes() {
        let mut q = CalendarQueue::with_capacity(8, 2, 4);
        q.schedule(2, EventKind::ArrivalPump);
        q.schedule(5, EventKind::SraPoll);
        q.schedule(100, EventKind::ArrivalPump); // overflow at span 8
                                                 // First slice: only times ≤ 3.
        let (t, b, n) = q.next_tick_until(3).unwrap();
        assert_eq!((t, n), (2, 1));
        q.finish_tick(b, n);
        assert!(q.next_tick_until(3).is_none());
        assert_eq!(q.now(), 3, "the window closes at the limit");
        assert_eq!(q.len(), 2, "later events stay queued");
        // Second slice includes the in-window event but not the deferred one.
        let (t, b, n) = q.next_tick_until(50).unwrap();
        assert_eq!(t, 5);
        q.finish_tick(b, n);
        assert!(q.next_tick_until(50).is_none());
        assert_eq!(q.now(), 50);
        // Scheduling relative to the closed window still lands in order.
        q.schedule(60, EventKind::SraPoll);
        let order = drain_all(&mut q);
        assert_eq!(
            order.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![60, 100]
        );
    }

    #[test]
    fn pulling_at_a_skipped_clock_keeps_per_tick_bucket_order() {
        let overflowed = EventKind::SubComplete {
            replica: 0,
            query: 0,
        };
        let direct = EventKind::SubComplete {
            replica: 1,
            query: 1,
        };
        let order = |catch_up: bool| {
            let mut q = CalendarQueue::with_capacity(8, 2, 2);
            q.schedule(12, overflowed); // beyond the span: overflow heap
            q.schedule(6, EventKind::SraPoll);
            let (t, b, n) = q.next_tick().unwrap();
            assert_eq!(t, 6);
            if catch_up {
                q.pull_as_of(t - 1);
            }
            q.schedule(12, direct); // within the span: straight to the wheel
            q.finish_tick(b, n);
            drain_all(&mut q)
                .into_iter()
                .map(|(_, kind)| kind)
                .collect::<Vec<_>>()
        };
        // Draining ticks 1..=5 one at a time pulls `overflowed` at tick 5,
        // before `direct` is scheduled; a drain that jumped to 6 has not.
        assert_eq!(order(true), vec![overflowed, direct]);
        assert_eq!(order(false), vec![direct, overflowed]);
    }

    #[test]
    fn long_idle_gaps_jump_instead_of_scanning() {
        let mut q = CalendarQueue::with_capacity(8, 2, 2);
        q.schedule(1 << 40, EventKind::SraPoll);
        let (t, b, n) = q.next_tick().unwrap();
        assert_eq!(t, 1 << 40);
        q.finish_tick(b, n);
        assert!(q.next_tick().is_none());
    }

    #[test]
    fn interleaved_schedule_and_drain_is_deterministic() {
        // Two identical interleavings produce identical pop sequences.
        let run = || {
            let mut q = CalendarQueue::with_capacity(16, 4, 4);
            q.schedule(1, EventKind::ArrivalPump);
            let mut log = Vec::new();
            while let Some((t, b, n)) = q.next_tick() {
                for i in 0..n {
                    let ev = q.event_at(b, i);
                    log.push((t, ev.kind));
                    if t < 40 {
                        if let EventKind::ArrivalPump = ev.kind {
                            q.schedule(t + 1, EventKind::ArrivalPump);
                            q.schedule(
                                t + 3 + (t % 5),
                                EventKind::SubComplete {
                                    replica: t as u32,
                                    query: 0,
                                },
                            );
                            q.schedule(t + 100, EventKind::SraPoll);
                        }
                    }
                }
                q.finish_tick(b, n);
            }
            log
        };
        assert_eq!(run(), run());
    }
}
