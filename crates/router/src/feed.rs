//! The arrival feed: everything on the router's arrival path that never
//! reads router state.
//!
//! Which micro-ticks admit queries, how many, where the flash crowd flips,
//! which shard each subrequest hits and the unit exponential its service
//! time scales are a pure function of the seed and the config. [`Feed`]
//! generates them — the walk over idle micro-ticks with the pump's
//! accumulator adds, the demand-weighted shard draws, the unit sojourn
//! factors — into fixed-size [`Batch`]es of pump records; the event loop
//! reads them back through a [`FeedReader`] and keeps only the work that
//! depends on its state (policy picks, FIFO service, completions).
//!
//! Above one worker thread ([`rayon::current_num_threads`]) a producer
//! thread runs the feed ahead of the loop: full batches travel over one
//! bounded channel, drained ones come back over a second to be refilled,
//! so the steady state allocates nothing. At one thread, or when the
//! thread cannot be spawned, the reader fills each batch inline when the
//! last one drains. Either way the loop reads the same records in the
//! same order, so no report or trace byte depends on the thread count.

use crate::config::RouterConfig;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rex_cluster::service;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// Queries a batch holds before it closes. A micro-tick's queries never
/// split across batches, so a batch can overshoot by one micro-tick's
/// worth. Sized for peak RSS: each batch in flight holds this many
/// queries' draws.
const BATCH_QUERIES: usize = 256;
/// Batches circulating between the producer thread and the event loop.
const BATCHES: usize = 4;

/// One micro-tick the arrival schedule must process: it admits queries or
/// flips the flash crowd (or both).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Pump {
    /// The micro-tick.
    pub t: u64,
    /// Idle micro-ticks the walk covered since the previous pump, each one
    /// counted event of the per-µs schedule.
    pub idle: u64,
    /// Queries admitted here; the batch holds `fanout` draws for each.
    pub queries: u64,
    /// The flash crowd turns on (off) here, before the queries arrive.
    pub flip: bool,
}

/// A run of pump records and the per-subrequest draws of their queries.
pub(crate) struct Batch {
    pumps: Vec<Pump>,
    /// Drawn shard per subrequest, in dispatch order.
    shards: Vec<u32>,
    /// Unit exponential sojourn factor per subrequest
    /// ([`service::exp_unit`]); the service time is `mean · unit`.
    units: Vec<f64>,
    /// Queries after which the batch closes.
    cap: usize,
    /// The walk passed the horizon: no pump follows this batch's.
    done: bool,
    /// Idle micro-ticks after the last pump, up to the horizon (set on the
    /// `done` batch only).
    tail_idle: u64,
}

/// The arrival generator: the named arrival and service streams, the
/// steady and flash-crowd weight tables, and the walk's cursor.
pub(crate) struct Feed {
    rng_arrival: StdRng,
    rng_service: StdRng,
    /// Cumulative arrival weights, steady and flash-crowd variants.
    cum_base: Vec<f64>,
    cum_spike: Vec<f64>,
    total_base: f64,
    total_spike: f64,
    /// Queries per µs off- and on-spike.
    lambda_base: f64,
    lambda_spike: f64,
    /// Fractional queries carried between micro-ticks.
    acc: f64,
    /// The next micro-tick the walk has not covered.
    t: u64,
    /// Idle micro-ticks walked since the last pump.
    idle: u64,
    /// The feed's own copy of the crowd flag (the router keeps its own,
    /// flipped by the pump records).
    spike_active: bool,
    /// The crowd's window `[at, end)`, if any.
    window: Option<(u64, u64)>,
    horizon_us: u64,
    fanout: usize,
}

impl Feed {
    /// The feed of one run: `weights[s]` is shard `s`'s steady arrival
    /// weight, multiplied by the crowd factor while the crowd is on where
    /// `hot[s]`.
    pub fn new(cfg: &RouterConfig, weights: &[f64], hot: &[bool]) -> Self {
        let factor = cfg.spike.map_or(1.0, |s| s.factor);
        let mut cum_base = Vec::with_capacity(weights.len());
        let mut cum_spike = Vec::with_capacity(weights.len());
        let (mut tb, mut ts) = (0.0, 0.0);
        for (&w, &h) in weights.iter().zip(hot) {
            tb += w;
            ts += w * if h { factor } else { 1.0 };
            cum_base.push(tb);
            cum_spike.push(ts);
        }
        let lambda_base = cfg.qps / 1_000_000.0;
        Self {
            rng_arrival: StdRng::seed_from_u64(cfg.seed ^ 0xA117_77A1_0000_0001),
            rng_service: StdRng::seed_from_u64(cfg.seed ^ 0x5E1C_E000_0000_0002),
            cum_base,
            cum_spike,
            total_base: tb,
            total_spike: ts,
            lambda_base,
            lambda_spike: lambda_base * ts / tb,
            acc: 0.0,
            t: 1,
            idle: 0,
            spike_active: false,
            window: cfg.spike.map(|s| (s.at_us, s.at_us + s.duration_us)),
            horizon_us: cfg.horizon_us,
            fanout: cfg.fanout,
        }
    }

    /// Queries per µs while the crowd is on: the peak rate the router
    /// sizes its queue and slab for.
    pub fn lambda_spike(&self) -> f64 {
        self.lambda_spike
    }

    /// An empty batch closing after `cap` queries, pre-sized so refilling
    /// it never grows it.
    fn batch(&self, cap: usize) -> Batch {
        // The accumulator stays below 1, so one micro-tick admits at most
        // ⌊λ⌋ + 1 queries past the cap (bounded by the cap itself for
        // absurd rates, which then grow the batch once).
        let per_us = (self.lambda_base.max(self.lambda_spike) as usize + 1).min(cap);
        let draws = (cap + per_us) * self.fanout;
        Batch {
            pumps: Vec::with_capacity(cap + 2),
            shards: Vec::with_capacity(draws),
            units: Vec::with_capacity(draws),
            cap,
            done: false,
            tail_idle: 0,
        }
    }

    /// Refills `b` with the next pumps of the walk until it holds
    /// `b.cap` queries or the walk passes the horizon.
    pub fn fill(&mut self, b: &mut Batch) {
        b.pumps.clear();
        b.shards.clear();
        b.units.clear();
        let mut queries = 0;
        while queries < b.cap {
            let Some(pump) = self.next_pump() else {
                b.done = true;
                b.tail_idle = std::mem::take(&mut self.idle);
                return;
            };
            for _ in 0..pump.queries as usize * self.fanout {
                let (shard, unit) = self.draw();
                b.shards.push(shard);
                b.units.push(unit);
            }
            queries += pump.queries as usize;
            b.pumps.push(pump);
        }
    }

    /// Walks idle micro-ticks to the next one that admits a query or flips
    /// the crowd, with the accumulator adds the per-µs pump makes. `None`
    /// once the walk passes the horizon.
    fn next_pump(&mut self) -> Option<Pump> {
        while self.t <= self.horizon_us {
            let t = self.t;
            self.t += 1;
            let flip = self.flips_at(t);
            if flip {
                self.spike_active = !self.spike_active;
            }
            // An idle µs subtracts `0 as f64` from the accumulator, which
            // keeps its bits: skipping the subtraction changes nothing.
            let acc = self.acc + self.lambda();
            if !flip && acc < 1.0 {
                self.acc = acc;
                self.idle += 1;
                continue;
            }
            let queries = acc as u64;
            self.acc = acc - queries as f64;
            let idle = std::mem::take(&mut self.idle);
            return Some(Pump {
                t,
                idle,
                queries,
                flip,
            });
        }
        None
    }

    #[inline]
    fn lambda(&self) -> f64 {
        if self.spike_active {
            self.lambda_spike
        } else {
            self.lambda_base
        }
    }

    /// Whether the pump at `t` turns the flash crowd on (inside its window
    /// while off) or off (past it while on).
    #[inline]
    fn flips_at(&self, t: u64) -> bool {
        self.window.is_some_and(|(at, end)| {
            if self.spike_active {
                t >= end
            } else {
                t >= at && t < end
            }
        })
    }

    /// One subrequest's draws: a demand-weighted shard from the active
    /// distribution and the unit sojourn factor of its service time.
    #[inline]
    fn draw(&mut self) -> (u32, f64) {
        let (cum, total) = if self.spike_active {
            (&self.cum_spike, self.total_spike)
        } else {
            (&self.cum_base, self.total_base)
        };
        let u: f64 = self.rng_arrival.random::<f64>() * total;
        let shard = cum.partition_point(|&x| x <= u).min(cum.len() - 1) as u32;
        (shard, service::exp_unit(self.rng_service.random()))
    }

    /// The pump re-armed every µs, as the router ran before its schedule
    /// was computed: the crowd flag flips at `t` if due, then the
    /// accumulator admits its whole queries. Returns `(flip, queries)`.
    #[cfg(test)]
    fn per_us_pump(&mut self, t: u64) -> (bool, u64) {
        let flip = self.flips_at(t);
        if flip {
            self.spike_active = !self.spike_active;
        }
        self.acc += self.lambda();
        let n = self.acc as u64;
        self.acc -= n as f64;
        (flip, n)
    }
}

/// The event loop's end of the feed: the batch it reads and where the
/// next batch comes from.
pub(crate) struct FeedReader {
    batch: Batch,
    pump_i: usize,
    draw_i: usize,
    /// The feed itself while it runs inline.
    inline: Option<Feed>,
    /// The producer thread once [`FeedReader::start`] spawned it.
    producer: Option<Producer>,
}

impl FeedReader {
    /// A reader that fills inline until [`FeedReader::start`].
    pub fn new(feed: Feed) -> Self {
        Self::with_batch(feed, BATCH_QUERIES)
    }

    fn with_batch(feed: Feed, cap: usize) -> Self {
        Self {
            batch: feed.batch(cap),
            pump_i: 0,
            draw_i: 0,
            inline: Some(feed),
            producer: None,
        }
    }

    /// Hands the feed to a producer thread when more than one worker
    /// thread is allowed; otherwise (or when the spawn fails) the reader
    /// keeps filling inline.
    pub fn start(&mut self) {
        if rayon::current_num_threads() > 1 {
            self.producer = Producer::spawn(&mut self.inline, self.batch.cap);
        }
    }

    /// The micro-tick of the next unread pump; `None` once the walk has
    /// passed the horizon and every pump was read.
    #[inline]
    pub fn due(&mut self) -> Option<u64> {
        loop {
            if let Some(p) = self.batch.pumps.get(self.pump_i) {
                return Some(p.t);
            }
            if self.batch.done {
                return None;
            }
            self.refill();
        }
    }

    /// Reads the pump [`FeedReader::due`] announced.
    #[inline]
    pub fn take_pump(&mut self) -> Pump {
        let p = self.batch.pumps[self.pump_i];
        self.pump_i += 1;
        p
    }

    /// Reads the next subrequest's `(shard, unit sojourn factor)`.
    #[inline]
    pub fn take_draw(&mut self) -> (u32, f64) {
        let i = self.draw_i;
        self.draw_i += 1;
        (self.batch.shards[i], self.batch.units[i])
    }

    /// The idle micro-ticks after the last pump, once; 0 after that and
    /// before the walk ended.
    pub fn take_tail(&mut self) -> u64 {
        std::mem::take(&mut self.batch.tail_idle)
    }

    /// Swaps the drained batch for the next full one.
    fn refill(&mut self) {
        debug_assert_eq!(self.draw_i, self.batch.shards.len(), "undrained draws");
        self.pump_i = 0;
        self.draw_i = 0;
        if let Some(p) = &mut self.producer {
            let next = p.next();
            let drained = std::mem::replace(&mut self.batch, next);
            // Fails only once the producer sent its last batch and left.
            let _ = p.empty.send(drained);
        } else if let Some(feed) = &mut self.inline {
            feed.fill(&mut self.batch);
        } else {
            self.batch.done = true;
        }
    }

    /// Switches the reader to the per-µs pump: its schedule reads empty,
    /// and [`FeedReader::per_us_pump`] / [`FeedReader::per_us_draw`] draw
    /// straight from the inline feed's streams.
    #[cfg(test)]
    pub fn switch_to_per_us(&mut self) {
        self.batch.pumps.clear();
        self.batch.done = true;
    }

    /// See [`Feed::per_us_pump`].
    #[cfg(test)]
    pub fn per_us_pump(&mut self, t: u64) -> (bool, u64) {
        self.inline
            .as_mut()
            .map_or((false, 0), |f| f.per_us_pump(t))
    }

    /// One subrequest's draws, straight from the inline feed's streams.
    #[cfg(test)]
    pub fn per_us_draw(&mut self) -> (u32, f64) {
        self.inline.as_mut().map_or((0, 1.0), Feed::draw)
    }
}

/// The producer thread's handles. Fields drop in declaration order: both
/// channels hang up before the thread is joined, so a producer blocked on
/// either wakes and returns.
struct Producer {
    /// Full batches, in walk order.
    full: Receiver<Batch>,
    /// Drained batches going back to be refilled.
    empty: SyncSender<Batch>,
    thread: JoinOnDrop,
}

/// Joins the producer thread when the reader goes away. A panic there was
/// already resumed in the loop if the loop waited on it; dropping must not
/// panic, so it is not resumed again.
struct JoinOnDrop(Option<JoinHandle<()>>);

impl Drop for JoinOnDrop {
    fn drop(&mut self) {
        if let Some(thread) = self.0.take() {
            let _ = thread.join();
        }
    }
}

impl Producer {
    /// Spawns the thread that runs the feed taken from `inline` over
    /// `BATCHES` circulating batches of `cap` queries. If the thread
    /// cannot be started the feed goes back into `inline`.
    fn spawn(inline: &mut Option<Feed>, cap: usize) -> Option<Self> {
        let feed = inline.take()?;
        let (full_tx, full) = sync_channel::<Batch>(BATCHES);
        let (empty, empty_rx) = sync_channel::<Batch>(BATCHES);
        let (feed_tx, feed_rx) = sync_channel::<Feed>(1);
        // The reader holds one batch; the rest start out empty here.
        for _ in 1..BATCHES {
            let _ = empty.try_send(feed.batch(cap));
        }
        let spawned = std::thread::Builder::new()
            .name("rex-router-feed".into())
            .spawn(move || {
                let Ok(mut feed) = feed_rx.recv() else { return };
                while let Ok(mut b) = empty_rx.recv() {
                    feed.fill(&mut b);
                    let done = b.done;
                    if full_tx.send(b).is_err() || done {
                        return;
                    }
                }
            });
        let Ok(thread) = spawned else {
            *inline = Some(feed);
            return None;
        };
        if let Err(back) = feed_tx.send(feed) {
            *inline = Some(back.0);
            return None;
        }
        Some(Self {
            full,
            empty,
            thread: JoinOnDrop(Some(thread)),
        })
    }

    /// The next full batch. The producer only hangs up early by
    /// panicking; that panic is resumed here, as `rayon::join` resumes a
    /// worker's.
    fn next(&mut self) -> Batch {
        match self.full.recv() {
            Ok(b) => b,
            Err(_) => {
                let payload = match self.thread.0.take().map(JoinHandle::join) {
                    Some(Err(payload)) => payload,
                    _ => Box::new("the router's feed thread hung up"),
                };
                std::panic::resume_unwind(payload)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlashCrowd;

    /// A feed over 40 shards whose every fifth one is hot.
    fn feed(horizon_us: u64, qps: f64, fanout: usize, spike: Option<(u64, u64)>) -> Feed {
        let cfg = RouterConfig {
            horizon_us,
            qps,
            fanout,
            spike: spike.map(|(at_us, duration_us)| FlashCrowd {
                at_us,
                duration_us,
                factor: 3.0,
                shard_fraction: 0.2,
            }),
            seed: 5,
            ..Default::default()
        };
        let weights: Vec<f64> = (0..40).map(|s| 1.0 + (s % 7) as f64).collect();
        let hot: Vec<bool> = (0..40).map(|s| s % 5 == 0).collect();
        Feed::new(&cfg, &weights, &hot)
    }

    /// Pumps, draws (as bits) and the total of idle micro-ticks.
    type Stream = (Vec<Pump>, Vec<(u32, u64)>, u64);

    /// The per-µs walk: every micro-tick of the horizon pumps; the ones
    /// that admit nothing and flip nothing are idle.
    fn per_us(mut f: Feed) -> Stream {
        let (mut pumps, mut draws, mut idle) = (Vec::new(), Vec::new(), 0);
        for t in 1..=f.horizon_us {
            let (flip, queries) = f.per_us_pump(t);
            if !flip && queries == 0 {
                idle += 1;
                continue;
            }
            pumps.push(Pump {
                t,
                idle,
                queries,
                flip,
            });
            idle = 0;
            for _ in 0..queries as usize * f.fanout {
                let (s, u) = f.draw();
                draws.push((s, u.to_bits()));
            }
        }
        (pumps, draws, idle)
    }

    /// `fill` over batches of `cap` queries, concatenated; every batch
    /// but the last closes at or past its cap.
    fn batched(f: Feed, cap: usize) -> Stream {
        let mut reader = FeedReader::with_batch(f, cap);
        let (mut pumps, mut draws) = (Vec::new(), Vec::new());
        loop {
            reader.refill();
            let b = &reader.batch;
            let queries: u64 = b.pumps.iter().map(|p| p.queries).sum();
            assert!(b.done || queries as usize >= cap, "batch closed early");
            assert_eq!(
                b.shards.len(),
                queries as usize * reader.inline.as_ref().unwrap().fanout
            );
            pumps.extend_from_slice(&b.pumps);
            draws.extend(
                b.shards
                    .iter()
                    .zip(&b.units)
                    .map(|(&s, u)| (s, u.to_bits())),
            );
            reader.draw_i = b.shards.len();
            if b.done {
                return (pumps, draws, reader.take_tail());
            }
        }
    }

    #[test]
    fn fill_matches_the_per_us_walk() {
        // (horizon, qps, fanout, crowd window): a crowd from µs 1, one
        // ending at the horizon, a 1-µs crowd, one past the horizon,
        // sparse and multi-query micro-ticks, fanout 1 and 4.
        let cases = [
            (3_000, 20_000.0, 4, Some((1, 500))),
            (3_000, 20_000.0, 1, Some((1_000, 2_000))),
            (3_000, 80_000.0, 4, Some((1_500, 1))),
            (3_000, 5_000.0, 4, Some((2_000, 50_000))),
            (2_000, 3_500_000.0, 4, Some((700, 300))),
            (2_000, 3_500_000.0, 1, None),
            (5, 2_000.0, 4, None),
        ];
        for (i, &(horizon, qps, fanout, spike)) in cases.iter().enumerate() {
            let expect = per_us(feed(horizon, qps, fanout, spike));
            assert!(!expect.0.is_empty() || horizon < 100, "case {i}: no pumps");
            if let Some((at, len)) = spike {
                let flips = expect.0.iter().filter(|p| p.flip).count();
                let want = usize::from(at <= horizon) + usize::from(at + len <= horizon);
                assert_eq!(flips, want, "case {i}: crowd flips");
            }
            // Caps of 1 and 3 fall inside the 3.5-query micro-ticks, so
            // those batches close past their cap (a µs is never split).
            for cap in [1, 3, 7, BATCH_QUERIES] {
                assert_eq!(
                    batched(feed(horizon, qps, fanout, spike), cap),
                    expect,
                    "case {i} cap {cap}"
                );
            }
        }
    }

    /// A reader on a producer thread whatever the thread count.
    fn threaded(mut r: FeedReader) -> FeedReader {
        r.producer = Producer::spawn(&mut r.inline, r.batch.cap);
        assert!(r.producer.is_some() && r.inline.is_none(), "spawn");
        r
    }

    /// The threaded reader hands the loop what the inline one fills, and
    /// a reader dropped mid-run joins its producer.
    #[test]
    fn producer_feeds_the_inline_stream() {
        let read = |mut r: FeedReader| {
            let mut out = Vec::new();
            while let Some(t) = r.due() {
                let p = r.take_pump();
                assert_eq!(p.t, t);
                for _ in 0..p.queries * 4 {
                    let (s, u) = r.take_draw();
                    out.push((p, s, u.to_bits()));
                }
            }
            (out, r.take_tail())
        };
        let f = || FeedReader::with_batch(feed(20_000, 300_000.0, 4, Some((5_000, 5_000))), 16);
        assert_eq!(read(threaded(f())), read(f()));
        let mut early = threaded(f());
        assert_eq!(early.due(), read(f()).0.first().map(|d| d.0.t));
        drop(early);
    }
}
