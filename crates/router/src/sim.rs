//! The query-level routing simulation: one event loop over the calendar
//! queue.
//!
//! A run is a pure function of `(Instance, RouterConfig)`: arrivals,
//! service draws, policy randomness, and the flash-crowd hot set each use
//! a named `StdRng` stream derived from the master seed, the event queue
//! breaks ties by insertion order, and the optional mid-run SRA solve runs
//! the serial deterministic engine — so two same-config runs produce
//! byte-identical [`RouterReport`] JSON at any `REX_THREADS`, and an
//! attached [`Recorder`] observes without perturbing (every obs call is
//! behind [`Recorder::is_active`]).
//!
//! Per simulated micro-tick the arrival pump admits a deterministic,
//! demand-weighted batch of queries; each query fans out to
//! `cfg.fanout` shard subrequests, the policy picks a replica per
//! subrequest, and the replica serves FIFO at an exponential service time
//! whose mean follows the machine's `1/(1−ρ)` straggler factor — the same
//! shape `rex_runtime::server` uses at tick granularity. After the arrival
//! horizon the pump stops and in-flight work drains.
//!
//! The pump is not a queue event. Most micro-ticks admit no query (80 qps
//! per 1 000-µs tick admits one every 12.5 µs), so the arrival schedule is
//! computed instead: the feed (`feed.rs`) walks idle micro-ticks with the
//! same floating-point accumulator adds and records the next one that
//! admits a query or flips the flash crowd, together with every shard and
//! unit service draw of its queries — none of which reads router state
//! (DESIGN.md §13). The loop reads those records in order; above one
//! worker thread a producer thread generates them ahead of it. Every
//! report byte is what a pump re-armed each micro-tick gives.

use crate::bridge::{build_fleet, move_primary, Coupling};
use crate::config::{HotSetMode, RouterConfig};
use crate::feed::{Feed, FeedReader};
use crate::policy::Policy;
use crate::queue::{CalendarQueue, EventKind};
use crate::state::{MachineState, QuerySlab, ReplicaState};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rex_cluster::service;
use rex_cluster::Instance;
use rex_obs::{Histogram, Recorder};
use serde::Serialize;

/// Prequal's probe round-trip time: a reply lands this many µs after its
/// probe.
const PROBE_RTT_US: u64 = 300;
/// EWMA smoothing for per-replica latency estimates.
const EWMA_ALPHA: f64 = 0.2;

/// Everything one routing run reports. Serialization order is declaration
/// order and every field is deterministic, so same-config runs write
/// byte-identical JSON (no wall-clock anywhere — throughput is the
/// bench harness's business).
#[derive(Clone, Debug, Serialize)]
pub struct RouterReport {
    /// Policy that routed the run.
    pub policy: String,
    /// Master seed.
    pub seed: u64,
    /// Arrival horizon (µs).
    pub horizon_us: u64,
    /// Queries admitted.
    pub queries: u64,
    /// Subrequests dispatched.
    pub subrequests: u64,
    /// Events processed (the bench denominator): every queued event plus
    /// one per micro-tick of the arrival horizon, idle or not — the count
    /// a pump event re-armed each micro-tick gives.
    pub events: u64,
    /// Most queries simultaneously in flight.
    pub peak_in_flight: u64,
    /// Probes issued (Prequal only).
    pub probes_sent: u64,
    /// Probe replies processed.
    pub probe_replies: u64,
    /// Picks answered from the probe pool.
    pub pool_hits: u64,
    /// Picks that fell back to power-of-d (pool dry).
    pub pool_misses: u64,
    /// Pool entries dropped for age.
    pub probes_expired: u64,
    /// Pool entries dropped for exhausting their reuse budget.
    pub probes_exhausted: u64,
    /// Picks that settled for a hot replica.
    pub hot_picks: u64,
    /// Mid-run SRA solves.
    pub sra_solves: u64,
    /// Replica-map moves those solves applied.
    pub sra_moves: u64,
    /// Query latencies in the percentile histogram.
    pub sampled: u64,
    /// Mean query latency (µs).
    pub mean_us: f64,
    /// Median query latency (µs).
    pub p50_us: f64,
    /// 95th percentile (µs).
    pub p95_us: f64,
    /// 99th percentile (µs).
    pub p99_us: f64,
    /// Worst sampled latency (µs).
    pub max_us: f64,
}

impl RouterReport {
    /// Pretty JSON with a trailing newline; byte-identical across
    /// same-config runs (the determinism artifact `cmp` checks).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("report serializes");
        s.push('\n');
        s
    }
}

/// Run counters (everything integer the report needs).
#[derive(Default)]
struct Counters {
    queries: u64,
    subrequests: u64,
    events: u64,
    probes_sent: u64,
    probe_replies: u64,
}

/// The router engine. Build with [`Router::new`] (the [`Policy`] arm the
/// config names), then call [`Router::run`] or [`Router::run_traced`].
pub struct Router {
    cfg: RouterConfig,
    queue: CalendarQueue,
    st: ReplicaState,
    ms: MachineState,
    shares: Vec<f64>,
    slab: QuerySlab,
    policy: Policy,
    rng_policy: StdRng,
    /// The arrival schedule and its draws.
    feed: FeedReader,
    /// Flash-crowd state: per-shard surcharge while active (`(factor−1) ·
    /// share`, one replica's worth), and whether the crowd is on.
    hot_extra: Vec<f64>,
    spike_active: bool,
    coupling: Option<Coupling>,
    /// The surcharge an SRA poll moves while the crowd is off: all zeros
    /// (sized only when coupled).
    no_extra: Vec<f64>,
    /// Replicas per machine, scratch for [`Router::observed_machine_rho`].
    hosted: Vec<u32>,
    /// Every completed query's latency, in the tick engine's relative
    /// units (µs ÷ `base_service_us`).
    latency: Histogram,
    counters: Counters,
    /// Every event handled, in order (the pump's own events excluded).
    #[cfg(test)]
    handled: Vec<(u64, EventKind)>,
    /// The pump runs as a queue event re-armed every µs (see
    /// `PER_US_PUMP`).
    #[cfg(test)]
    per_us: bool,
}

impl Router {
    /// Engine over `inst`'s fleet with the policy named by `cfg.policy`.
    /// Everything the run needs is allocated here or, for a threaded
    /// arrival feed, in [`Router::start`]; the event loop then runs
    /// allocation-free once warm (`tests/alloc_event_core.rs`).
    /// Panics on a config [`RouterConfig::validate`] rejects; input-facing
    /// callers run that check first and report its error.
    pub fn new(inst: &Instance, cfg: &RouterConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        assert!(
            inst.n_machines() >= 1 && inst.n_shards() >= 1,
            "router needs a non-empty fleet"
        );
        let (st, ms, shares) = build_fleet(inst, cfg.replication, cfg.base_service_us, cfg.rho_max);
        let n_s = inst.n_shards();

        // Arrival weights follow shard demand; the flash crowd multiplies
        // the hot set's weight (hot set drawn from the named spike stream).
        let weights: Vec<f64> = shares.iter().map(|s| s * cfg.replication as f64).collect();
        let mut hot = vec![false; n_s];
        let mut hot_extra = vec![0.0; n_s];
        if let Some(sp) = &cfg.spike {
            let k = ((n_s as f64) * sp.shard_fraction).ceil() as usize;
            let chosen: Vec<u32> = match cfg.hot_set {
                HotSetMode::Random => {
                    let mut order: Vec<u32> = (0..n_s as u32).collect();
                    let mut rng_spike = StdRng::seed_from_u64(cfg.seed ^ 0x5B1C_E000_0000_0004);
                    order.shuffle(&mut rng_spike);
                    order.truncate(k.min(n_s));
                    order
                }
                HotSetMode::Hottest => rex_cluster::scenario::hot_set(inst, sp.shard_fraction)
                    .iter()
                    .map(|s| s.idx() as u32)
                    .collect(),
            };
            for &s in &chosen {
                hot[s as usize] = true;
                hot_extra[s as usize] = (sp.factor - 1.0) * shares[s as usize];
            }
        }
        let feed = Feed::new(cfg, &weights, &hot);
        let lambda_spike = feed.lambda_spike();

        // Pre-size everything the steady-state loop touches: the latency
        // histogram is fixed-size, and the slab and queue grow to their
        // high-water mark during warmup and then stop.
        let concurrent = (lambda_spike * cfg.base_service_us * 16.0) as usize + 64;
        let span = (PROBE_RTT_US as usize * 2)
            .max(cfg.base_service_us as usize * 8)
            .max(1024);

        // Bucket capacity covers the common per-tick event clusters
        // (co-scheduled completions and probe replies);
        // sizing it to the mean-per-tick event rate with generous headroom
        // keeps steady-state bucket doublings off the hot loop.
        let per_tick = ((lambda_spike * cfg.fanout as f64 * 3.0) as usize + 2)
            .next_power_of_two()
            .max(32);
        Self {
            queue: CalendarQueue::with_capacity(span, per_tick, concurrent * cfg.fanout),
            st,
            ms,
            shares,
            slab: QuerySlab::with_capacity(concurrent),
            policy: Policy::from_config(cfg, n_s),
            rng_policy: StdRng::seed_from_u64(cfg.seed ^ 0x7011_C700_0000_0003),
            feed: FeedReader::new(feed),
            hot_extra,
            spike_active: false,
            coupling: cfg.sra.map(|c| Coupling::new(c, n_s, cfg.seed)),
            no_extra: vec![0.0; if cfg.sra.is_some() { n_s } else { 0 }],
            hosted: Vec::new(),
            latency: Histogram::default(),
            counters: Counters::default(),
            #[cfg(test)]
            handled: Vec::new(),
            #[cfg(test)]
            per_us: false,
            cfg: cfg.clone(),
        }
    }

    /// Runs to completion with no recording.
    pub fn run(self) -> RouterReport {
        self.run_traced(&mut Recorder::noop())
    }

    /// Runs to completion, narrating into `rec` when it records. The
    /// metrics are identical either way — recording never perturbs.
    pub fn run_traced(mut self, rec: &mut Recorder) -> RouterReport {
        self.start(rec);
        while self.step(rec) {}
        self.finish(rec)
    }

    /// Opens the run span, starts the arrival feed (on its own thread
    /// above one worker thread) and arms the first SRA poll when coupled.
    /// [`Router::run_traced`] calls this; call it directly only when
    /// driving the loop tick-by-tick with [`Router::step`], and only once.
    pub fn start(&mut self, rec: &mut Recorder) {
        rec.span_open(
            "router",
            "run",
            &[
                ("policy", self.cfg.policy.name().into()),
                ("machines", self.ms.len().into()),
                ("shards", self.shares.len().into()),
                ("replication", (self.cfg.replication as u64).into()),
                ("fanout", (self.cfg.fanout as u64).into()),
                ("horizon_us", self.cfg.horizon_us.into()),
                ("seed", self.cfg.seed.into()),
                ("sra", self.coupling.is_some().into()),
            ],
        );
        if !self.arm_per_us_pump() {
            self.feed.start();
        }
        if let Some(c) = &self.cfg.sra {
            self.queue.schedule(c.every_us, EventKind::SraPoll);
        }
    }

    /// Under test with `PER_US_PUMP` set: arms the pump as a queue event
    /// at µs 1, re-armed every µs, drawing inline from the feed's streams
    /// (the reference the computed schedule is checked against). Returns
    /// whether it did; the feed then does not start.
    fn arm_per_us_pump(&mut self) -> bool {
        #[cfg(test)]
        if PER_US_PUMP.with(std::cell::Cell::get) {
            self.per_us = true;
            self.feed.switch_to_per_us();
            self.queue.schedule(1, EventKind::ArrivalPump);
            return true;
        }
        false
    }

    /// Processes the next micro-tick with work: its queued events and, if
    /// the arrival schedule falls due there, the pump. Returns `false` once
    /// the queue is drained and the horizon passed (the run is over).
    /// Exposed so the allocation test can bracket a steady-state window
    /// with counter reads.
    pub fn step(&mut self, rec: &mut Recorder) -> bool {
        self.step_until(u64::MAX, rec)
    }

    /// Processes every micro-tick with work at or before `limit_us`, then
    /// returns with the queue's clock parked at the limit. This is the
    /// backend-mode driver: `rex_runtime::Simulation` owns the outer tick
    /// loop and advances the embedded router one tick-width at a time
    /// (`advance_to(u64::MAX, …)` drains the in-flight tail after the
    /// horizon). Interleaving `advance_to` windows is event-for-event
    /// identical to one free-running [`Router::run`] over the same config.
    pub fn advance_to(&mut self, limit_us: u64, rec: &mut Recorder) {
        while self.step_until(limit_us, rec) {}
    }

    /// [`Router::step`] bounded by `limit`.
    ///
    /// The order rule of the computed schedule: the pump at µs `t` runs
    /// after every queued event of `t` — where a pump event re-armed at
    /// `t − 1` sat in the bucket — except that a poll every µs was armed
    /// after that pump event and so runs after the pump.
    fn step_until(&mut self, limit: u64, rec: &mut Recorder) -> bool {
        let due = self.pump_due();
        let (t, drained) = match self
            .queue
            .next_tick_until(due.map_or(limit, |d| d.min(limit)))
        {
            Some((t, bucket, n)) => (t, Some((bucket, n))),
            None => match due {
                Some(d) if d <= limit => (d, None),
                _ => return false,
            },
        };
        if t - 1 <= self.cfg.horizon_us {
            // A pump event at every µs of the horizon made the queue drain
            // each one, and each drain pulled the overflow that came in
            // reach. (Past the horizon nothing is scheduled any more, so
            // when overflow enters the wheel no longer orders anything.)
            self.queue.pull_as_of(t - 1);
        }
        let mut pump = due == Some(t);
        let poll_after_pump = self.cfg.sra.is_some_and(|c| c.every_us == 1);
        if let Some((bucket, n)) = drained {
            for i in 0..n {
                let kind = self.queue.event_at(bucket, i).kind;
                if pump && poll_after_pump && kind == EventKind::SraPoll {
                    self.scheduled_pump(t, rec);
                    pump = false;
                }
                self.handle(t, kind, rec);
            }
            self.queue.finish_tick(bucket, n);
            self.counters.events += n as u64;
        }
        if pump {
            self.scheduled_pump(t, rec);
        }
        true
    }

    /// The next micro-tick the arrival schedule must be processed at: the
    /// first that admits a query or flips the flash crowd. `None` once the
    /// feed's walk has passed the horizon; its idle micro-ticks after the
    /// last pump are counted then, one event each.
    #[inline]
    fn pump_due(&mut self) -> Option<u64> {
        let due = self.feed.due();
        if due.is_none() {
            self.counters.events += self.feed.take_tail();
        }
        due
    }

    /// The pump at the micro-tick [`Router::pump_due`] returned. It and
    /// the idle micro-ticks the feed walked before it count one event
    /// each.
    fn scheduled_pump(&mut self, t: u64, rec: &mut Recorder) {
        let pump = self.feed.take_pump();
        debug_assert_eq!(pump.t, t, "the pump is read where it falls due");
        self.counters.events += pump.idle + 1;
        self.pump(t, pump.flip, pump.queries, rec);
    }

    /// One micro-tick of arrivals: the crowd flips first if `flip`, then
    /// `queries` arrive.
    fn pump(&mut self, t: u64, flip: bool, queries: u64, rec: &mut Recorder) {
        if flip {
            self.set_spike(!self.spike_active, rec, t);
        }
        for _ in 0..queries {
            self.spawn_query(t);
        }
    }

    /// Mirrors an external control-plane decision (a runtime executor
    /// batch move) into the replica map via the single mutation path,
    /// [`crate::bridge::move_primary`]. Any live flash-crowd surcharge on
    /// the shard travels with its primary. Returns `false` when the
    /// primary already sits on `to`.
    pub fn apply_primary_move(&mut self, shard: usize, to: usize) -> bool {
        let spike = if self.spike_active {
            self.hot_extra[shard]
        } else {
            0.0
        };
        move_primary(
            &mut self.st,
            &mut self.ms,
            shard,
            to,
            self.shares[shard],
            spike,
        )
    }

    /// Mirrors a crash/recovery flip: a failed machine keeps serving its
    /// replicas, pinned at the saturation latency factor.
    pub fn set_failed(&mut self, m: usize, down: bool) {
        self.ms.set_failed(m, down);
    }

    /// Hands over the latency histogram (relative units: µs ÷
    /// `base_service_us`), leaving an empty one. Backend mode takes it once,
    /// after the horizon.
    pub fn take_latency(&mut self) -> Histogram {
        std::mem::take(&mut self.latency)
    }

    /// Queries admitted so far.
    pub fn queries(&self) -> u64 {
        self.counters.queries
    }

    /// Steady per-machine hosted demand (the runtime parity assertion
    /// checks this stays bit-equal to its `Assignment` usage).
    pub fn machine_loads(&self) -> &[f64] {
        &self.ms.load
    }

    /// Live flash-crowd surcharge per machine.
    pub fn machine_spike_extras(&self) -> &[f64] {
        &self.ms.spike_extra
    }

    /// Derives an *observed* utilization per machine from the replica
    /// latency EWMAs: mean observed sojourn factor over hosted replicas,
    /// inverted through the `1/(1−ρ)` service model
    /// ([`service::rho_from_factor`]). Machines hosting nothing read 0.
    /// This is the router-side signal the runtime's `ewma_controller` mode
    /// feeds its controller instead of ground-truth assignment usage.
    pub fn observed_machine_rho(&mut self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.ms.len(), 0.0);
        self.hosted.clear();
        self.hosted.resize(self.ms.len(), 0);
        for r in 0..self.st.len() {
            let m = self.st.machine[r] as usize;
            out[m] += self.st.ewma_us[r];
            self.hosted[m] += 1;
        }
        for (rho, &c) in out.iter_mut().zip(&self.hosted) {
            if c == 0 {
                *rho = 0.0;
                continue;
            }
            let factor = *rho / c as f64 / self.cfg.base_service_us;
            *rho = service::rho_from_factor(factor, self.cfg.rho_max);
        }
    }

    #[inline]
    fn handle(&mut self, t: u64, kind: EventKind, rec: &mut Recorder) {
        #[cfg(test)]
        if kind != EventKind::ArrivalPump {
            self.handled.push((t, kind));
        }
        match kind {
            #[cfg(test)]
            EventKind::ArrivalPump => {
                let (flip, queries) = self.feed.per_us_pump(t);
                self.pump(t, flip, queries, rec);
                if t < self.cfg.horizon_us {
                    self.queue.schedule(t + 1, EventKind::ArrivalPump);
                }
            }
            EventKind::SubComplete { replica, query } => {
                let r = replica as usize;
                self.st.queue_depth[r] -= 1;
                self.st.served[r] += 1;
                self.policy.on_complete(replica);
                if let Some(latency) = self.slab.complete_one(query, t) {
                    self.latency
                        .record(latency as f64 / self.cfg.base_service_us);
                }
            }
            EventKind::ProbeReply { shard, replica } => {
                self.counters.probe_replies += 1;
                self.policy.on_probe_reply(
                    shard,
                    replica,
                    self.st.queue_depth[replica as usize],
                    self.st.ewma_us[replica as usize],
                    t,
                );
            }
            EventKind::SraPoll => self.sra_poll(t, rec),
        }
    }

    /// Toggles the flash crowd: every hot replica's machine gains/sheds
    /// its surcharge (the feed switched the arrival weights at the same
    /// micro-tick).
    fn set_spike(&mut self, on: bool, rec: &mut Recorder, t: u64) {
        self.spike_active = on;
        let sign = if on { 1.0 } else { -1.0 };
        for s in 0..self.hot_extra.len() {
            let extra = self.hot_extra[s];
            if extra == 0.0 {
                continue;
            }
            let base = self.st.base(s as u32) as usize;
            for j in 0..self.cfg.replication {
                let m = self.st.machine[base + j] as usize;
                self.ms.spike_extra[m] += sign * extra;
            }
        }
        for m in 0..self.ms.len() {
            self.ms.recompute(m);
        }
        rec.set_tick(t);
        rec.event(
            "router",
            if on { "spike_start" } else { "spike_end" },
            &[("tick_us", t.into())],
        );
    }

    fn spawn_query(&mut self, t: u64) {
        let qid = self.slab.admit(self.cfg.fanout as u32, t);
        self.counters.queries += 1;
        for _ in 0..self.cfg.fanout {
            let (shard, unit) = self.next_draw();
            if let Some(c) = &mut self.coupling {
                c.note_arrival(shard);
            }
            self.dispatch(shard, unit, qid, t);
        }
    }

    /// The next subrequest's `(shard, unit sojourn factor)` from the feed.
    #[inline]
    fn next_draw(&mut self) -> (u32, f64) {
        #[cfg(test)]
        if self.per_us {
            return self.feed.per_us_draw();
        }
        self.feed.take_draw()
    }

    /// Routes one subrequest: policy pick, optional probe, FIFO service at
    /// the machine's straggler-shaped exponential rate (`unit` is the
    /// feed's unit-mean draw).
    #[inline]
    fn dispatch(&mut self, shard: u32, unit: f64, qid: u32, now: u64) {
        let base = self.st.base(shard);
        let r = self.st.replication;
        let replica = self
            .policy
            .pick(shard, base, r, &self.st, now, &mut self.rng_policy);
        if let Some(target) = self.policy.probe_target(shard, base, r) {
            self.counters.probes_sent += 1;
            self.queue.schedule(
                now + PROBE_RTT_US,
                EventKind::ProbeReply {
                    shard,
                    replica: target,
                },
            );
        }
        let rep = replica as usize;
        let m = self.st.machine[rep] as usize;
        // Same straggler shape as `rex_runtime::server::sample_fanout_latency`
        // — `mean * unit` is `rex_cluster::service::exp_sojourn(mean, u)`
        // bit for bit, the mean scaled by the machine's cached
        // 1/(1−min(ρ, ρ_max)) factor.
        let mean = self.cfg.base_service_us * self.ms.lat_factor[m];
        let service = (mean * unit).max(1.0) as u64;
        let done = (now.max(self.st.busy_until[rep]) + service).max(now + 1);
        self.st.busy_until[rep] = done;
        self.st.queue_depth[rep] += 1;
        let e = &mut self.st.ewma_us[rep];
        *e += EWMA_ALPHA * ((done - now) as f64 - *e);
        self.counters.subrequests += 1;
        self.queue.schedule(
            done,
            EventKind::SubComplete {
                replica,
                query: qid,
            },
        );
    }

    fn sra_poll(&mut self, t: u64, rec: &mut Recorder) {
        let Some(c) = &mut self.coupling else { return };
        // The surcharge that must travel with a moved primary: only live
        // while the crowd is on.
        let spike_share: &[f64] = if self.spike_active {
            &self.hot_extra
        } else {
            &self.no_extra
        };
        let applied = c.poll(&mut self.st, &mut self.ms, &self.shares, spike_share);
        rec.set_tick(t);
        rec.event(
            "router",
            "sra_poll",
            &[("tick_us", t.into()), ("moves", (applied as u64).into())],
        );
        rec.add("router_sra_moves", applied as u64);
        if t < self.cfg.horizon_us {
            let every = c.every_us();
            self.queue.schedule(t + every, EventKind::SraPoll);
        }
    }

    /// Final roll-up: the histogram's percentiles, multiplied back to µs,
    /// plus the obs gauges/counters. Public for step-driven callers
    /// ([`Router::start`] / [`Router::step`] / [`Router::advance_to`]);
    /// [`Router::run_traced`] calls it last.
    pub fn finish(self, rec: &mut Recorder) -> RouterReport {
        let us = |rel: f64| rel * self.cfg.base_service_us;
        let h = &self.latency;
        let [p50, p95, p99] = [50.0, 95.0, 99.0].map(|p| us(h.percentile(p)));
        let probe = self.policy.probe_stats();
        let (sra_solves, sra_moves) = self
            .coupling
            .as_ref()
            .map_or((0, 0), |c| (c.solves, c.moves_applied));
        rec.add("router_queries", self.counters.queries);
        rec.add("router_subrequests", self.counters.subrequests);
        rec.add("router_events", self.counters.events);
        rec.add("router_probes_sent", self.counters.probes_sent);
        rec.add("router_probe_replies", self.counters.probe_replies);
        rec.add("router_pool_hits", probe.pool_hits);
        rec.add("router_pool_misses", probe.pool_misses);
        rec.gauge("router_p50_us", p50);
        rec.gauge("router_p95_us", p95);
        rec.gauge("router_p99_us", p99);
        rec.span_close(
            "router",
            "run",
            &[
                ("queries", self.counters.queries.into()),
                ("events", self.counters.events.into()),
                ("p99_us", p99.into()),
            ],
        );
        RouterReport {
            policy: self.cfg.policy.name().to_string(),
            seed: self.cfg.seed,
            horizon_us: self.cfg.horizon_us,
            queries: self.counters.queries,
            subrequests: self.counters.subrequests,
            events: self.counters.events,
            peak_in_flight: self.slab.high_water() as u64,
            probes_sent: self.counters.probes_sent,
            probe_replies: self.counters.probe_replies,
            pool_hits: probe.pool_hits,
            pool_misses: probe.pool_misses,
            probes_expired: probe.expired,
            probes_exhausted: probe.exhausted,
            hot_picks: probe.hot_picks,
            sra_solves,
            sra_moves,
            sampled: h.count(),
            mean_us: us(h.mean()),
            p50_us: p50,
            p95_us: p95,
            p99_us: p99,
            max_us: us(h.max()),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Re-arms the arrival pump as a queue event every µs, as the router
    /// ran before its schedule was computed: the reference the schedule
    /// proptest compares the computed loop with.
    static PER_US_PUMP: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Convenience: build + run with the config's policy, no recording.
pub fn run(inst: &Instance, cfg: &RouterConfig) -> RouterReport {
    Router::new(inst, cfg).run()
}

/// Convenience: build + run with the config's policy, narrating into
/// `rec`.
pub fn run_traced(inst: &Instance, cfg: &RouterConfig, rec: &mut Recorder) -> RouterReport {
    Router::new(inst, cfg).run_traced(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FlashCrowd, PolicyKind, SraCoupling};
    use rex_workload::synthetic::{generate, DemandFamily, Placement, SynthConfig};

    /// A balanced fleet the default service rates can actually keep up
    /// with (stringency well under 1, BalancedBfd placement).
    fn fleet(seed: u64) -> Instance {
        generate(&SynthConfig {
            n_machines: 8,
            n_exchange: 0,
            n_shards: 96,
            dims: 1,
            stringency: 0.5,
            placement: Placement::BalancedBfd,
            family: DemandFamily::Uniform,
            seed,
            ..Default::default()
        })
        .expect("generate")
    }

    fn stable_cfg() -> RouterConfig {
        RouterConfig {
            horizon_us: 30_000,
            qps: 20_000.0,
            base_service_us: 400.0,
            ..Default::default()
        }
    }

    #[test]
    fn run_drains_and_reports_sane_metrics() {
        let inst = fleet(3);
        let report = run(&inst, &stable_cfg());
        assert!(report.queries > 400, "30 ms at 20k qps admits ~600 queries");
        assert_eq!(report.subrequests, report.queries * 4);
        assert_eq!(report.sampled, report.queries, "every query is sampled");
        assert!(report.p50_us <= report.p95_us);
        assert!(report.p95_us <= report.p99_us);
        // A percentile is its bucket's midpoint: within 2 % of the max.
        assert!(report.p99_us <= report.max_us * 1.02);
        assert!(report.mean_us >= 1.0, "latency is at least one service");
        assert!(report.events >= report.subrequests + report.horizon_us);
    }

    #[test]
    fn same_seed_is_byte_identical_and_seeds_decorrelate() {
        let inst = fleet(3);
        let cfg = RouterConfig {
            policy: PolicyKind::Prequal,
            ..stable_cfg()
        };
        let a = run(&inst, &cfg).to_json();
        let b = run(&inst, &cfg).to_json();
        assert_eq!(a, b, "same config must reproduce byte-identically");
        let c = run(
            &inst,
            &RouterConfig {
                seed: 43,
                ..cfg.clone()
            },
        )
        .to_json();
        assert_ne!(a, c, "a different seed must change the run");
    }

    #[test]
    fn recording_never_perturbs_the_run() {
        let inst = fleet(5);
        let cfg = RouterConfig {
            policy: PolicyKind::Prequal,
            spike: Some(FlashCrowd {
                at_us: 5_000,
                duration_us: 5_000,
                factor: 3.0,
                shard_fraction: 0.1,
            }),
            ..stable_cfg()
        };
        let silent = run(&inst, &cfg).to_json();
        let mut rec = Recorder::active();
        let traced = run_traced(&inst, &cfg, &mut rec).to_json();
        assert_eq!(silent, traced);
        assert!(
            rec.events().iter().any(|e| e.name == "spike_start"),
            "the active recorder must actually have recorded"
        );
    }

    #[test]
    fn policies_share_one_arrival_stream() {
        // The named-stream seeding means swapping the policy must not move
        // a single arrival: query counts agree across all five policies.
        let inst = fleet(7);
        let queries: Vec<u64> = PolicyKind::ALL
            .iter()
            .map(|&policy| {
                run(
                    &inst,
                    &RouterConfig {
                        policy,
                        ..stable_cfg()
                    },
                )
                .queries
            })
            .collect();
        assert!(queries.windows(2).all(|w| w[0] == w[1]), "{queries:?}");
    }

    #[test]
    fn flash_crowd_adds_arrivals_and_latency() {
        let inst = fleet(9);
        let calm = run(&inst, &stable_cfg());
        let spiked = run(
            &inst,
            &RouterConfig {
                spike: Some(FlashCrowd {
                    at_us: 10_000,
                    duration_us: 10_000,
                    factor: 4.0,
                    shard_fraction: 0.2,
                }),
                ..stable_cfg()
            },
        );
        assert!(
            spiked.queries > calm.queries,
            "hot shards arrive more often"
        );
        assert!(
            spiked.p99_us > calm.p99_us,
            "the crowd must hurt the tail: {} vs {}",
            spiked.p99_us,
            calm.p99_us
        );
    }

    #[test]
    fn sra_coupling_solves_and_stays_deterministic() {
        let inst = generate(&SynthConfig {
            n_machines: 8,
            n_exchange: 0,
            n_shards: 96,
            dims: 1,
            stringency: 0.5,
            placement: Placement::Hotspot(0.3),
            family: DemandFamily::Uniform,
            seed: 11,
            ..Default::default()
        })
        .expect("generate");
        let cfg = RouterConfig {
            sra: Some(SraCoupling {
                every_us: 10_000,
                iters: 300,
            }),
            ..stable_cfg()
        };
        let a = run(&inst, &cfg);
        assert_eq!(a.sra_solves, 3, "polls at 10/20/30 ms");
        assert!(a.sra_moves > 0, "a hotspot placement must trigger moves");
        assert_eq!(a.to_json(), run(&inst, &cfg).to_json());
    }

    #[test]
    fn tick_windowed_advance_matches_free_running_run() {
        // Backend mode drives the router in tick-width windows; the event
        // stream (and hence the report) must be byte-identical to one
        // free-running run over the same config.
        let inst = fleet(5);
        let cfg = RouterConfig {
            spike: Some(FlashCrowd {
                at_us: 8_000,
                duration_us: 8_000,
                factor: 3.0,
                shard_fraction: 0.1,
            }),
            sra: Some(SraCoupling {
                every_us: 10_000,
                iters: 200,
            }),
            ..stable_cfg()
        };
        let mut rec = Recorder::noop();
        let mut r = Router::new(&inst, &cfg);
        r.start(&mut rec);
        while r.step(&mut rec) {}
        let free = (r.latency.clone(), r.finish(&mut rec).to_json());
        let mut r = Router::new(&inst, &cfg);
        r.start(&mut rec);
        let mut t = 0;
        while t < cfg.horizon_us {
            t += 1_000;
            r.advance_to(t, &mut rec);
        }
        r.advance_to(u64::MAX, &mut rec);
        assert_eq!(free, (r.latency.clone(), r.finish(&mut rec).to_json()));
    }

    #[test]
    fn hottest_mode_spikes_the_same_shards_as_the_scenario_helper() {
        let inst = fleet(7);
        let spec = rex_cluster::ScenarioSpec {
            spike: Some(rex_cluster::SpikeSpec {
                at_tick: 10,
                duration_ticks: 10,
                factor: 3.0,
                shard_fraction: 0.1,
            }),
            ..Default::default()
        };
        let cfg = RouterConfig::from_scenario(&spec, PolicyKind::Random);
        assert_eq!(cfg.hot_set, crate::config::HotSetMode::Hottest);
        assert_eq!(cfg.replication, 1);
        let r = Router::new(&inst, &cfg);
        let expect = rex_cluster::scenario::hot_set(&inst, 0.1);
        let hot: Vec<usize> = (0..inst.n_shards())
            .filter(|&s| r.hot_extra[s] != 0.0)
            .collect();
        assert_eq!(hot, expect.iter().map(|s| s.idx()).collect::<Vec<_>>());
    }

    #[test]
    fn mirrored_primary_move_updates_loads_and_observed_rho_reads_sane() {
        let inst = fleet(9);
        let cfg = RouterConfig {
            replication: 1,
            ..stable_cfg()
        };
        let mut r = Router::new(&inst, &cfg);
        let from = r.st.machine[r.st.base(0) as usize] as usize;
        let to = (from + 1) % r.ms.len();
        let share = r.shares[0];
        let load_from = r.machine_loads()[from];
        let load_to = r.machine_loads()[to];
        assert!(r.apply_primary_move(0, to));
        assert!(!r.apply_primary_move(0, to), "already there");
        assert_eq!(
            r.machine_loads()[from].to_bits(),
            (load_from - share).to_bits()
        );
        assert_eq!(r.machine_loads()[to].to_bits(), (load_to + share).to_bits());
        // Failure flips pin the factor; observed ρ stays within [0, ρ_max].
        r.set_failed(from, true);
        assert!(r.ms.failed[from]);
        let mut rho = Vec::new();
        r.observed_machine_rho(&mut rho);
        assert_eq!(rho.len(), r.ms.len());
        assert!(rho.iter().all(|&x| (0.0..=0.98).contains(&x)));
    }

    #[test]
    fn token_and_round_robin_beat_random_on_tail() {
        // Informed (or at least even) policies must not lose to blind
        // random on the tail in a moderately loaded fleet.
        let inst = fleet(13);
        let p99_of = |policy: PolicyKind| {
            run(
                &inst,
                &RouterConfig {
                    policy,
                    qps: 40_000.0,
                    ..stable_cfg()
                },
            )
            .p99_us
        };
        let random = p99_of(PolicyKind::Random);
        assert!(p99_of(PolicyKind::RoundRobin) <= random);
        assert!(p99_of(PolicyKind::Token) <= random);
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// A fleet loaded enough that service times outgrow the wheel span, so
    /// completions detour through the overflow heap.
    fn hot_fleet() -> Instance {
        generate(&SynthConfig {
            n_machines: 8,
            n_exchange: 0,
            n_shards: 96,
            dims: 1,
            stringency: 0.9,
            placement: Placement::Hotspot(0.3),
            family: DemandFamily::Uniform,
            seed: 21,
            ..Default::default()
        })
        .expect("generate")
    }

    /// The arrival schedule's edges: spikes that start at µs 0, run past
    /// the horizon or end exactly at it; SRA polls every µs (the poll
    /// shares each µs with the pump) and every other µs; Prequal probes;
    /// three replicas under Token; a one-µs horizon;
    /// sparse arrivals over completions that overflow the wheel.
    fn schedule_edge_grid() -> Vec<(&'static str, Instance, RouterConfig)> {
        let spike = |at_us, duration_us| {
            Some(FlashCrowd {
                at_us,
                duration_us,
                factor: 3.0,
                shard_fraction: 0.1,
            })
        };
        let short_sra = |every_us| RouterConfig {
            horizon_us: 400,
            qps: 200_000.0,
            spike: spike(100, 100),
            sra: Some(SraCoupling {
                every_us,
                iters: 10,
            }),
            ..stable_cfg()
        };
        let sparse = RouterConfig {
            horizon_us: 40_000,
            qps: 2_000.0,
            base_service_us: 300.0,
            policy: PolicyKind::Random,
            ..stable_cfg()
        };
        vec![
            (
                "spike-at-0",
                fleet(3),
                RouterConfig {
                    spike: spike(0, 5_000),
                    ..stable_cfg()
                },
            ),
            (
                "spike-past-horizon",
                fleet(3),
                RouterConfig {
                    spike: spike(20_000, 50_000),
                    ..stable_cfg()
                },
            ),
            (
                "spike-ends-at-horizon",
                fleet(3),
                RouterConfig {
                    spike: spike(10_000, 20_000),
                    ..stable_cfg()
                },
            ),
            ("sra-every-1", fleet(11), short_sra(1)),
            ("sra-every-2", fleet(11), short_sra(2)),
            (
                "prequal",
                fleet(5),
                RouterConfig {
                    policy: PolicyKind::Prequal,
                    spike: spike(8_000, 8_000),
                    ..stable_cfg()
                },
            ),
            (
                "token-r3",
                fleet(7),
                RouterConfig {
                    policy: PolicyKind::Token,
                    replication: 3,
                    ..stable_cfg()
                },
            ),
            (
                "horizon-1",
                fleet(3),
                RouterConfig {
                    horizon_us: 1,
                    qps: 2_000_000.0,
                    ..stable_cfg()
                },
            ),
            ("sparse-overflow", hot_fleet(), sparse.clone()),
            (
                "sparse-overflow-sra",
                hot_fleet(),
                RouterConfig {
                    spike: spike(15_000, 10_000),
                    sra: Some(SraCoupling {
                        every_us: 5_000,
                        iters: 50,
                    }),
                    ..sparse
                },
            ),
        ]
    }

    /// FNV-1a of the report JSON and of the traced JSONL for every grid
    /// run, recorded at commit 6b49d94 (when the arrival pump was a queue
    /// event re-armed every µs). Any change to arrival order, event order
    /// within a µs, spike/poll timing or a counter moves one of these. The
    /// two SRA rows were re-recorded once when regret-2 began breaking
    /// exact score ties by the canonical scan key (DESIGN.md §6): their
    /// integer-count traffic snapshots tie everywhere. Every row was
    /// re-recorded once when the latency percentiles moved to the shared
    /// 2 % histogram (bucket midpoints instead of exact samples, and one
    /// report field fewer).
    #[test]
    fn schedule_edges_match_the_frozen_reports() {
        let frozen: [(&str, u64, u64); 10] = [
            ("spike-at-0", 0xc614_d61e_dd33_c513, 0x5866_b39d_cf8e_1d40),
            (
                "spike-past-horizon",
                0x5c07_88ec_0403_90c5,
                0xe82d_65df_049b_7876,
            ),
            (
                "spike-ends-at-horizon",
                0x627c_5164_c752_8b21,
                0x7734_e853_d01d_4946,
            ),
            ("sra-every-1", 0x5a8c_8e1f_811e_2de5, 0x664b_b766_caf6_73b8),
            ("sra-every-2", 0xc015_9e08_1836_0061, 0x9494_5a48_cb4c_e155),
            ("prequal", 0x2c4a_2684_f583_ffa8, 0xec36_46df_d918_4c28),
            ("token-r3", 0xd382_b87a_56ca_bf0f, 0x7aa2_c377_eda0_f399),
            ("horizon-1", 0x2bea_7faf_7ffe_798e, 0x93ce_3071_31f1_817c),
            (
                "sparse-overflow",
                0x268a_5d04_32bd_faa7,
                0xa3b3_b65e_cdf8_1508,
            ),
            (
                "sparse-overflow-sra",
                0x33a1_35b5_e58c_6cf4,
                0x8f61_aedb_4904_0ae1,
            ),
        ];
        let got: Vec<(&str, u64, u64)> = schedule_edge_grid()
            .into_iter()
            .map(|(name, inst, cfg)| {
                let mut rec = Recorder::active();
                let report = run_traced(&inst, &cfg, &mut rec).to_json();
                (
                    name,
                    fnv1a(report.as_bytes()),
                    fnv1a(rec.to_jsonl().as_bytes()),
                )
            })
            .collect();
        assert_eq!(got, frozen);
    }

    /// What one config gives with the computed schedule, or with the pump
    /// re-armed as a queue event every µs: the free-running report, trace
    /// and handled-event stream; then, driving in `window`-µs slices as the
    /// runtime backend does, the query count and the latency histogram's
    /// count and mean bits after each slice, and the whole histogram and
    /// the report after the tail.
    #[allow(clippy::type_complexity)]
    fn schedule_bytes(
        inst: &Instance,
        cfg: &RouterConfig,
        window: u64,
        per_us_pump: bool,
    ) -> (
        String,
        String,
        Vec<(u64, EventKind)>,
        Vec<(u64, u64, u64)>,
        Histogram,
        String,
    ) {
        PER_US_PUMP.with(|p| p.set(per_us_pump));
        let mut rec = Recorder::active();
        let mut r = Router::new(inst, cfg);
        r.start(&mut rec);
        while r.step(&mut rec) {}
        let handled = std::mem::take(&mut r.handled);
        let free = r.finish(&mut rec).to_json();
        let trace = rec.to_jsonl();
        let mut r = Router::new(inst, cfg);
        let mut rec = Recorder::noop();
        r.start(&mut rec);
        let mut slices = Vec::new();
        let mut limit = 0;
        while limit < cfg.horizon_us {
            limit += window;
            r.advance_to(limit, &mut rec);
            slices.push((r.queries(), r.latency.count(), r.latency.mean().to_bits()));
        }
        r.advance_to(u64::MAX, &mut rec);
        let latency = r.latency.clone();
        let windowed = r.finish(&mut rec).to_json();
        PER_US_PUMP.with(|p| p.set(false));
        (free, trace, handled, slices, latency, windowed)
    }

    /// An overloaded fleet at 25-µs service: backlogged replicas complete
    /// beyond the wheel span (overflow heap) while light ones complete
    /// within it, and on these seeds one of each lands on the same µs
    /// right after an idle gap. Without the catch-up pull at the skipped
    /// µs the two swap — report bytes happen to survive, the event stream
    /// does not.
    #[test]
    fn overflow_keeps_its_place_across_idle_gaps() {
        for seed in [7, 38] {
            let inst = generate(&SynthConfig {
                n_machines: 6,
                n_exchange: 0,
                n_shards: 36,
                dims: 1,
                stringency: 0.9,
                placement: Placement::Hotspot(0.3),
                family: DemandFamily::Uniform,
                seed,
                ..Default::default()
            })
            .expect("generate");
            let cfg = RouterConfig {
                horizon_us: 4_000,
                qps: 200_000.0,
                base_service_us: 25.0,
                policy: PolicyKind::Prequal,
                replication: 1,
                seed,
                ..stable_cfg()
            };
            assert_eq!(
                schedule_bytes(&inst, &cfg, 1_000, false),
                schedule_bytes(&inst, &cfg, 1_000, true),
                "seed {seed}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(40))]

        /// The computed arrival schedule against the per-µs pump event it
        /// replaced, over random fleets and configs: sparse to dense
        /// arrivals, loads whose service times overflow the wheel, every
        /// policy, spikes anywhere relative to the horizon, SRA polls every
        /// µs, every other µs or rarely, and backend windows of any width.
        #[test]
        fn computed_schedule_matches_the_per_us_pump(
            seed in 0u64..10_000,
            stringency in 0.3f64..0.95,
            horizon_us in 1u64..4_000,
            log_qps in 2.5f64..6.3,
            base_service_us in 20.0f64..500.0,
            policy in 0usize..5,
            replication in 1usize..4,
            spike in 0u64..3,
            spike_at in 0u64..5_000,
            spike_len in 1u64..5_000,
            sra_every in 0u64..4,
            window in 1u64..3_000,
        ) {
            let inst = generate(&SynthConfig {
                n_machines: 6,
                n_exchange: 0,
                n_shards: 36,
                dims: 1,
                stringency,
                placement: Placement::Hotspot(0.3),
                family: DemandFamily::Uniform,
                seed,
                ..Default::default()
            })
            .expect("generate");
            // Polls every µs or two run a solve each: keep those runs short.
            let horizon_us = if matches!(sra_every, 1 | 2) {
                horizon_us.min(300)
            } else {
                horizon_us
            };
            let cfg = RouterConfig {
                horizon_us,
                qps: 10f64.powf(log_qps),
                base_service_us,
                policy: PolicyKind::ALL[policy],
                replication,
                spike: (spike > 0).then_some(FlashCrowd {
                    at_us: spike_at,
                    duration_us: spike_len,
                    factor: 1.0 + spike as f64,
                    shard_fraction: 0.2,
                }),
                sra: (sra_every > 0).then_some(SraCoupling {
                    every_us: if sra_every == 3 { horizon_us / 3 + 1 } else { sra_every },
                    iters: 8,
                }),
                seed,
                ..stable_cfg()
            };
            proptest::prop_assert_eq!(
                schedule_bytes(&inst, &cfg, window, false),
                schedule_bytes(&inst, &cfg, window, true)
            );
        }
    }
}
