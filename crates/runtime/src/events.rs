//! The discrete-event queue.
//!
//! A binary min-heap over `(tick, seq)` where `seq` is a monotonically
//! increasing insertion counter: two events scheduled for the same tick
//! fire in the order they were scheduled. That tie-break is what makes the
//! whole runtime deterministic — the heap never consults anything but
//! integers, and the integers never depend on wall-clock time.

use rex_cluster::MachineId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What can happen inside the runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// This tick's query arrivals (self-rescheduling, fires every tick).
    Arrivals,
    /// Sample the gauges (self-rescheduling).
    Sample,
    /// The controller observes the fleet and may trigger a rebalance
    /// (self-rescheduling; never scheduled under `ControllerPolicy::Off`).
    ControllerPoll,
    /// The adopted migration plan with this id begins executing its first
    /// batch (fires `PLAN_LATENCY_TICKS` after the decision). The id guards
    /// against stale events: a plan aborted before starting leaves its
    /// `PlanStart` in the queue, and the id mismatch makes it a no-op.
    PlanStart(u64),
    /// The in-flight batch of the plan with this id completes and commits.
    BatchComplete(u64),
    /// Machine fails.
    Crash(MachineId),
    /// Machine rejoins as available (vacant) capacity.
    Recover(MachineId),
    /// Flash crowd `idx` (index into the spike table) starts.
    SpikeStart(usize),
    /// Flash crowd `idx` ends.
    SpikeEnd(usize),
    /// Hot-shard control-plane round: observe per-shard load, expire and
    /// start operators (reschedules itself every hotshard poll interval).
    HotShardPoll,
    /// Check whether failed machines still host shards and, if so, plan an
    /// evacuation (reschedules itself while blocked by an in-flight plan).
    EvacCheck,
    /// Apply one epoch of demand drift (defers itself while a migration is
    /// in flight).
    Drift,
    /// Apply one epoch of the workload plane's Zipfian popularity walk
    /// (defers itself while a migration is in flight).
    Popularity,
    /// End of the simulation horizon.
    End,
}

/// An event scheduled at a tick, ordered by `(tick, seq)`.
#[derive(Clone, Copy, Debug)]
struct Scheduled {
    tick: u64,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.tick == other.tick && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (other.tick, other.seq).cmp(&(self.tick, self.seq))
    }
}

/// Deterministic event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at `tick`.
    pub fn schedule(&mut self, tick: u64, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { tick, seq, event });
    }

    /// Pops the earliest event, `(tick, event)`.
    pub fn pop(&mut self) -> Option<(u64, Event)> {
        self.heap.pop().map(|s| (s.tick, s.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_tick_order() {
        let mut q = EventQueue::new();
        q.schedule(5, Event::End);
        q.schedule(1, Event::Arrivals);
        q.schedule(3, Event::Sample);
        assert_eq!(q.pop(), Some((1, Event::Arrivals)));
        assert_eq!(q.pop(), Some((3, Event::Sample)));
        assert_eq!(q.pop(), Some((5, Event::End)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_tick_fires_in_schedule_order() {
        let mut q = EventQueue::new();
        q.schedule(2, Event::Sample);
        q.schedule(2, Event::Arrivals);
        q.schedule(2, Event::ControllerPoll);
        assert_eq!(q.pop(), Some((2, Event::Sample)));
        assert_eq!(q.pop(), Some((2, Event::Arrivals)));
        assert_eq!(q.pop(), Some((2, Event::ControllerPoll)));
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(0, Event::End);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_scheduling_stays_deterministic() {
        // Scheduling from inside the drain loop (self-rescheduling events)
        // must preserve the (tick, seq) order.
        let mut q = EventQueue::new();
        q.schedule(0, Event::Arrivals);
        let mut trace = Vec::new();
        while let Some((t, e)) = q.pop() {
            trace.push((t, e));
            if e == Event::Arrivals && t < 3 {
                q.schedule(t + 1, Event::Arrivals);
                q.schedule(t + 1, Event::Sample);
            }
        }
        assert_eq!(
            trace,
            vec![
                (0, Event::Arrivals),
                (1, Event::Arrivals),
                (1, Event::Sample),
                (2, Event::Arrivals),
                (2, Event::Sample),
                (3, Event::Arrivals),
                (3, Event::Sample),
            ]
        );
    }
}
