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

use crate::bridge::{build_fleet, move_primary, Coupling};
use crate::config::{HotSetMode, RouterConfig};
use crate::policy::{AnyPolicy, RoutingPolicy};
use crate::queue::{CalendarQueue, EventKind};
use crate::state::{MachineState, QuerySlab, ReplicaState};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use rex_cluster::metrics::nearest_rank_percentiles;
use rex_cluster::service;
use rex_cluster::Instance;
use rex_obs::Recorder;
use serde::Serialize;

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
    /// Events processed by the calendar queue (the bench denominator).
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
    /// Latencies in the percentile sample set.
    pub sampled: u64,
    /// Samples dropped at the pre-sized buffer's cap (0 in practice).
    pub dropped_samples: u64,
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
    sampled: u64,
    dropped_samples: u64,
}

/// The router engine. Build with [`Router::new`] (the policy named by the
/// config, dispatched through [`AnyPolicy`]), then call [`Router::run`] or
/// [`Router::run_traced`].
pub struct Router {
    cfg: RouterConfig,
    queue: CalendarQueue,
    st: ReplicaState,
    ms: MachineState,
    shares: Vec<f64>,
    slab: QuerySlab,
    policy: AnyPolicy,
    rng_arrival: StdRng,
    rng_service: StdRng,
    rng_policy: StdRng,
    /// Cumulative arrival weights, steady and flash-crowd variants.
    cum_base: Vec<f64>,
    cum_spike: Vec<f64>,
    total_base: f64,
    total_spike: f64,
    /// Queries per µs off- and on-spike.
    lambda_base: f64,
    lambda_spike: f64,
    arrival_acc: f64,
    /// Flash-crowd state: per-shard surcharge while active (`(factor−1) ·
    /// share`, one replica's worth), and whether the crowd is on.
    hot_extra: Vec<f64>,
    spike_active: bool,
    coupling: Option<Coupling>,
    samples: Vec<f64>,
    sample_gate: u64,
    counters: Counters,
}

impl Router {
    /// Engine over `inst`'s fleet with the policy named by `cfg.policy`.
    /// Everything the run needs is allocated here; the event loop then
    /// runs allocation-free once warm (`tests/alloc_event_core.rs`).
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
        let factor = cfg.spike.map_or(1.0, |s| s.factor);
        let mut cum_base = Vec::with_capacity(n_s);
        let mut cum_spike = Vec::with_capacity(n_s);
        let (mut tb, mut ts) = (0.0, 0.0);
        for s in 0..n_s {
            tb += weights[s];
            ts += weights[s] * if hot[s] { factor } else { 1.0 };
            cum_base.push(tb);
            cum_spike.push(ts);
        }
        let lambda_base = cfg.qps / 1_000_000.0;
        let lambda_spike = lambda_base * ts / tb;

        // Pre-size everything the steady-state loop touches: the arrival
        // count is deterministic (floor-accumulator), so the sample buffer
        // bound is exact; the slab and queue grow to their high-water mark
        // during warmup and then stop.
        let spike_ticks = cfg.spike.map_or(0, |s| {
            s.duration_us.min(cfg.horizon_us.saturating_sub(s.at_us))
        });
        let max_queries = ((cfg.horizon_us - spike_ticks) as f64 * lambda_base
            + spike_ticks as f64 * lambda_spike)
            .ceil() as usize
            + 2;
        let sample_cap = max_queries / cfg.sample_every as usize + 2;
        let concurrent = (lambda_spike * cfg.base_service_us * 16.0) as usize + 64;
        let span = (cfg.probe_rtt_us as usize * 2)
            .max(cfg.base_service_us as usize * 8)
            .max(1024);

        // Bucket capacity covers the common per-tick event clusters
        // (arrival pump + co-scheduled completions and probe replies);
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
            policy: AnyPolicy::from_config(cfg, n_s),
            rng_arrival: StdRng::seed_from_u64(cfg.seed ^ 0xA117_77A1_0000_0001),
            rng_service: StdRng::seed_from_u64(cfg.seed ^ 0x5E1C_E000_0000_0002),
            rng_policy: StdRng::seed_from_u64(cfg.seed ^ 0x7011_C700_0000_0003),
            cum_base,
            cum_spike,
            total_base: tb,
            total_spike: ts,
            lambda_base,
            lambda_spike,
            arrival_acc: 0.0,
            hot_extra,
            spike_active: false,
            coupling: cfg.sra.map(|c| Coupling::new(c, n_s, cfg.seed)),
            samples: Vec::with_capacity(sample_cap),
            sample_gate: 0,
            counters: Counters::default(),
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

    /// Arms the initial events (the arrival pump and, when coupled, the
    /// first SRA poll). [`Router::run_traced`] calls this; call it
    /// directly only when driving the loop tick-by-tick with
    /// [`Router::step`], and only once.
    pub fn start(&mut self, rec: &mut Recorder) {
        rec.span_open(
            "router",
            "run",
            &[
                ("policy", self.policy.kind().name().into()),
                ("machines", self.ms.len().into()),
                ("shards", self.shares.len().into()),
                ("replication", (self.cfg.replication as u64).into()),
                ("fanout", (self.cfg.fanout as u64).into()),
                ("horizon_us", self.cfg.horizon_us.into()),
                ("seed", self.cfg.seed.into()),
                ("sra", self.coupling.is_some().into()),
            ],
        );
        self.queue.schedule(1, EventKind::ArrivalPump);
        if let Some(c) = &self.cfg.sra {
            self.queue.schedule(c.every_us, EventKind::SraPoll);
        }
    }

    /// Processes the next populated micro-tick. Returns `false` once the
    /// queue is drained (the run is over). Exposed so the allocation test
    /// can bracket a steady-state window with counter reads.
    pub fn step(&mut self, rec: &mut Recorder) -> bool {
        let Some((t, bucket, n)) = self.queue.next_tick() else {
            return false;
        };
        for i in 0..n {
            let ev = self.queue.event_at(bucket, i);
            self.handle(t, ev.kind, rec);
        }
        self.queue.finish_tick(bucket, n);
        self.counters.events += n as u64;
        true
    }

    /// Processes every populated micro-tick at or before `limit_us`, then
    /// returns with the queue's clock parked at the limit. This is the
    /// backend-mode driver: `rex_runtime::Simulation` owns the outer tick
    /// loop and advances the embedded router one tick-width at a time
    /// (`advance_to(u64::MAX, …)` drains the in-flight tail after the
    /// horizon). Interleaving `advance_to` windows is event-for-event
    /// identical to one free-running [`Router::run`] over the same config.
    pub fn advance_to(&mut self, limit_us: u64, rec: &mut Recorder) {
        while let Some((t, bucket, n)) = self.queue.next_tick_until(limit_us) {
            for i in 0..n {
                let ev = self.queue.event_at(bucket, i);
                self.handle(t, ev.kind, rec);
            }
            self.queue.finish_tick(bucket, n);
            self.counters.events += n as u64;
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

    /// Latency samples collected so far (µs). Backend mode drains this
    /// incrementally with a cursor; the buffer only grows.
    pub fn samples(&self) -> &[f64] {
        &self.samples
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

    /// Per-machine failure flags.
    pub fn machine_failed(&self) -> &[bool] {
        &self.ms.failed
    }

    /// Derives an *observed* utilization per machine from the replica
    /// latency EWMAs: mean observed sojourn factor over hosted replicas,
    /// inverted through the `1/(1−ρ)` service model
    /// ([`service::rho_from_factor`]). Machines hosting nothing read 0.
    /// This is the router-side signal the runtime's `ewma_controller` mode
    /// feeds its controller instead of ground-truth assignment usage.
    pub fn observed_machine_rho(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.ms.len(), 0.0);
        let mut counts = vec![0u32; self.ms.len()];
        for r in 0..self.st.len() {
            let m = self.st.machine[r] as usize;
            out[m] += self.st.ewma_us[r];
            counts[m] += 1;
        }
        for (rho, &c) in out.iter_mut().zip(&counts) {
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
        match kind {
            EventKind::ArrivalPump => self.pump(t, rec),
            EventKind::SubComplete { replica, query } => {
                let r = replica as usize;
                self.st.queue_depth[r] -= 1;
                self.st.served[r] += 1;
                self.policy.on_complete(replica);
                if let Some(latency) = self.slab.complete_one(query, t) {
                    self.sample_gate += 1;
                    if self.sample_gate >= self.cfg.sample_every {
                        self.sample_gate = 0;
                        if self.samples.len() < self.samples.capacity() {
                            self.samples.push(latency as f64);
                            self.counters.sampled += 1;
                        } else {
                            self.counters.dropped_samples += 1;
                        }
                    }
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

    /// One micro-tick of arrivals; re-arms itself until the horizon.
    fn pump(&mut self, t: u64, rec: &mut Recorder) {
        if let Some(sp) = self.cfg.spike {
            if !self.spike_active && t >= sp.at_us && t < sp.at_us + sp.duration_us {
                self.set_spike(true, rec, t);
            } else if self.spike_active && t >= sp.at_us + sp.duration_us {
                self.set_spike(false, rec, t);
            }
        }
        self.arrival_acc += if self.spike_active {
            self.lambda_spike
        } else {
            self.lambda_base
        };
        let n = self.arrival_acc as u64;
        self.arrival_acc -= n as f64;
        for _ in 0..n {
            self.spawn_query(t);
        }
        if t < self.cfg.horizon_us {
            self.queue.schedule(t + 1, EventKind::ArrivalPump);
        }
    }

    /// Toggles the flash crowd: arrival weights switch distribution and
    /// every hot replica's machine gains/sheds its surcharge.
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
            let shard = self.sample_shard();
            if let Some(c) = &mut self.coupling {
                c.note_arrival(shard);
            }
            self.dispatch(shard, qid, t);
        }
    }

    /// Demand-weighted shard draw from the active distribution.
    #[inline]
    fn sample_shard(&mut self) -> u32 {
        let (cum, total) = if self.spike_active {
            (&self.cum_spike, self.total_spike)
        } else {
            (&self.cum_base, self.total_base)
        };
        let u: f64 = self.rng_arrival.random::<f64>() * total;
        (cum.partition_point(|&x| x <= u).min(cum.len() - 1)) as u32
    }

    /// Routes one subrequest: policy pick, optional probe, FIFO service at
    /// the machine's straggler-shaped exponential rate.
    #[inline]
    fn dispatch(&mut self, shard: u32, qid: u32, now: u64) {
        let base = self.st.base(shard);
        let r = self.st.replication;
        let replica = self
            .policy
            .pick(shard, base, r, &self.st, now, &mut self.rng_policy);
        if let Some(target) = self
            .policy
            .probe_target(shard, base, r, now, &mut self.rng_policy)
        {
            self.counters.probes_sent += 1;
            self.queue.schedule(
                now + self.cfg.probe_rtt_us,
                EventKind::ProbeReply {
                    shard,
                    replica: target,
                },
            );
        }
        let rep = replica as usize;
        let m = self.st.machine[rep] as usize;
        // Same straggler shape as `rex_runtime::server::sample_fanout_latency`
        // — both draw through `rex_cluster::service::exp_sojourn` with mean
        // scaled by the machine's cached 1/(1−min(ρ, ρ_max)) factor.
        let mean = self.cfg.base_service_us * self.ms.lat_factor[m];
        let u: f64 = self.rng_service.random();
        let service = service::exp_sojourn(mean, u).max(1.0) as u64;
        let done = (now.max(self.st.busy_until[rep]) + service).max(now + 1);
        self.st.busy_until[rep] = done;
        self.st.queue_depth[rep] += 1;
        let e = &mut self.st.ewma_us[rep];
        *e += self.cfg.ewma_alpha * ((done - now) as f64 - *e);
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
        let zeros;
        let spike_share: &[f64] = if self.spike_active {
            &self.hot_extra
        } else {
            zeros = vec![0.0; self.hot_extra.len()];
            &zeros
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
            let every = self.cfg.sra.expect("coupling implies sra config").every_us;
            self.queue.schedule(t + every, EventKind::SraPoll);
        }
    }

    /// Final roll-up: percentiles over the sample set (the only allocating
    /// step, outside the event loop) plus the obs gauges/counters. Public
    /// for step-driven callers ([`Router::start`] / [`Router::step`] /
    /// [`Router::advance_to`]); [`Router::run_traced`] calls it last.
    pub fn finish(self, rec: &mut Recorder) -> RouterReport {
        let (p50, p95, p99) = nearest_rank_percentiles(&self.samples);
        let mean = if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        };
        let max = self.samples.iter().fold(0.0f64, |a, &b| a.max(b));
        let probe = self.policy.probe_stats().unwrap_or_default();
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
            policy: self.policy.kind().name().to_string(),
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
            sampled: self.counters.sampled,
            dropped_samples: self.counters.dropped_samples,
            mean_us: mean,
            p50_us: p50,
            p95_us: p95,
            p99_us: p99,
            max_us: max,
        }
    }
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
        assert_eq!(report.sampled, report.queries, "sample_every = 1 keeps all");
        assert_eq!(report.dropped_samples, 0);
        assert!(report.p50_us <= report.p95_us);
        assert!(report.p95_us <= report.p99_us);
        assert!(report.p99_us <= report.max_us);
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
                snapshot_utilization: 0.6,
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
                snapshot_utilization: 0.6,
            }),
            ..stable_cfg()
        };
        let free = run(&inst, &cfg).to_json();
        let mut r = Router::new(&inst, &cfg);
        let mut rec = Recorder::noop();
        r.start(&mut rec);
        let mut t = 0;
        while t < cfg.horizon_us {
            t += 1_000;
            r.advance_to(t, &mut rec);
        }
        r.advance_to(u64::MAX, &mut rec);
        assert_eq!(free, r.finish(&mut rec).to_json());
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
        assert!(r.machine_failed()[from]);
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
}
