//! The arrival plane: where queries and their latency samples come from.
//!
//! The control brain ([`super::Simulation`]) never asks which engine is
//! running. It calls five methods on [`ArrivalPlane`] unconditionally —
//! [`arrive`](ArrivalPlane::arrive) once per tick,
//! [`committed`](ArrivalPlane::committed) per executed move,
//! [`set_failed`](ArrivalPlane::set_failed) per crash/recovery,
//! [`controller_signal`](ArrivalPlane::controller_signal) per gauge sample,
//! [`finish`](ArrivalPlane::finish) once after the horizon — and each plane
//! owns everything only its engine needs: the tick plane its two RNG
//! streams and the sampled-fanout weight tables, the event plane the
//! embedded router and its drain cursors (DESIGN.md §7, §14).

use super::LiveCluster;
use crate::server::{
    diurnal_multiplier, effective_rho, sample_fanout_latency, sample_sampled_fanout_latency,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rex_cluster::{MachineId, Move, ScenarioSpec, ShardId};
use rex_obs::Recorder;
use rex_router::Router;

/// One `arrive`/`finish` call's yield: queries admitted and the latency
/// samples drawn for them (relative units, service mean 1.0 at ρ = 0).
pub(crate) struct Arrived<'a> {
    pub queries: u64,
    pub latencies: &'a [f64],
}

/// The two arrival engines behind one seam. A simulation holds exactly one
/// plane, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub(crate) enum ArrivalPlane {
    /// Poisson arrival counts and sampled latencies per tick.
    Tick(TickArrivals),
    /// Query-level events from an embedded [`Router`].
    Event(Box<EventBackend>),
}

impl ArrivalPlane {
    /// This tick's arrivals against the live cluster.
    pub fn arrive(&mut self, tick: u64, cl: &LiveCluster, obs: &mut Recorder) -> Arrived<'_> {
        match self {
            ArrivalPlane::Tick(t) => t.arrive(tick, cl),
            ArrivalPlane::Event(be) => be.arrive(tick, obs),
        }
    }

    /// The executor committed `mv` to the live placement.
    pub fn committed(&mut self, mv: &Move) {
        if let ArrivalPlane::Event(be) = self {
            // Mirror the move into the replica map through the single
            // mutation path — the same `±share` float ops in the same
            // order keep both sides bit-equal.
            be.router.apply_primary_move(mv.shard.idx(), mv.to.idx());
        }
    }

    /// Machine `m` crashed (`down`) or recovered.
    pub fn set_failed(&mut self, m: MachineId, down: bool) {
        if let ArrivalPlane::Event(be) = self {
            be.router.set_failed(m.idx(), down);
        }
    }

    /// Called at every gauge sample with the per-machine spike surcharge
    /// the gauge was built from. The `(peak, imbalance)` the controller
    /// should observe instead of ground-truth usage, if this plane measures
    /// one; the event plane first asserts gauge parity with the brain.
    pub fn controller_signal(&mut self, cl: &LiveCluster, spike_cpu: &[f64]) -> Option<(f64, f64)> {
        match self {
            ArrivalPlane::Tick(_) => None,
            ArrivalPlane::Event(be) => {
                be.verify_backend_parity(cl, spike_cpu);
                be.ewma_controller.then(|| be.observed_signal(cl))
            }
        }
    }

    /// After the horizon: whatever is still in flight inside the plane.
    pub fn finish(&mut self, obs: &mut Recorder) -> Arrived<'_> {
        match self {
            ArrivalPlane::Tick(_) => Arrived {
                queries: 0,
                latencies: &[],
            },
            ArrivalPlane::Event(be) => be.drain_backend_tail(obs),
        }
    }
}

/// The tick-aggregate engine's arrival state.
pub(crate) struct TickArrivals {
    arrivals_rng: StdRng,
    latency_rng: StdRng,
    /// Sampled-fanout arrival weights (`cfg.fanout > 0` only): per-shard
    /// weight, its cumulative table, and the total.
    shard_weight: Vec<f64>,
    cum_weight: Vec<f64>,
    total_weight: f64,
    // Scratch buffers reused across ticks.
    rho: Vec<f64>,
    spike_cpu: Vec<f64>,
    serving: Vec<bool>,
    samples: Vec<f64>,
}

impl TickArrivals {
    /// Streams derived from the run's master `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            arrivals_rng: StdRng::seed_from_u64(seed ^ 0xA441_7A15),
            latency_rng: StdRng::seed_from_u64(seed ^ 0x1A7E_0C11),
            shard_weight: Vec::new(),
            cum_weight: Vec::new(),
            total_weight: 0.0,
            rho: Vec::new(),
            spike_cpu: Vec::new(),
            serving: Vec::new(),
            samples: Vec::new(),
        }
    }

    fn arrive(&mut self, tick: u64, cl: &LiveCluster) -> Arrived<'_> {
        let cfg = &cl.cfg;
        let mult = diurnal_multiplier(tick, cfg.ticks_per_hour, cfg.diurnal_amplitude);
        let mut lambda = cfg.qps * mult;
        if cfg.fanout > 0 {
            // Sampled-fanout mode scales arrivals by the live/base weight
            // ratio — a flash crowd raises traffic exactly the way the
            // event engine's `lambda_spike = lambda_base · ts / tb` does.
            lambda *= self.refresh_arrival_weights(cl);
        }
        let n = poisson(&mut self.arrivals_rng, lambda);
        self.samples.clear();
        let k = (n as usize).min(cfg.latency_samples_per_tick);
        if k > 0 {
            self.serving.clear();
            self.serving.extend(
                (0..cl.inst.n_machines()).map(|m| !cl.asg.shards_on(MachineId::from(m)).is_empty()),
            );
            cl.spike_cpu(&mut self.spike_cpu);
            effective_rho(
                &cl.inst,
                &cl.asg,
                &self.spike_cpu,
                &cl.transient,
                mult,
                &mut self.rho,
            );
            for _ in 0..k {
                let lat = if cfg.fanout > 0 {
                    sample_sampled_fanout_latency(
                        &self.rho,
                        &cl.failed,
                        cfg.rho_max,
                        &self.cum_weight,
                        self.total_weight,
                        cl.asg.placement(),
                        cfg.fanout,
                        &mut self.latency_rng,
                    )
                } else {
                    sample_fanout_latency(
                        &self.rho,
                        &self.serving,
                        &cl.failed,
                        cfg.rho_max,
                        &mut self.latency_rng,
                    )
                };
                self.samples.push(lat);
            }
        }
        Arrived {
            queries: n,
            latencies: &self.samples,
        }
    }

    /// Rebuilds the sampled-fanout arrival weights: per-shard CPU demand
    /// times any active spike factors. Returns the live/base total-weight
    /// ratio.
    ///
    /// Overlapping spikes compound *multiplicatively* here (`d·Πfᵢ`), as
    /// they do in the planning snapshot — a different rule from
    /// [`LiveCluster::spike_cpu`], whose gauges *add* `(fᵢ−1)·d` per spike.
    /// The snapshot still dominates the gauges because
    /// `Πfᵢ − 1 ≥ Σ(fᵢ − 1)` whenever every `fᵢ ≥ 1`.
    fn refresh_arrival_weights(&mut self, cl: &LiveCluster) -> f64 {
        let n = cl.inst.n_shards();
        self.shard_weight.clear();
        for i in 0..n {
            self.shard_weight.push(cl.inst.demand(ShardId::from(i))[0]);
        }
        let base_total: f64 = self.shard_weight.iter().sum();
        for (factor, shards) in cl.active_spikes() {
            for &s in shards {
                self.shard_weight[s.idx()] *= factor;
            }
        }
        self.cum_weight.clear();
        let mut total = 0.0;
        for &w in &self.shard_weight {
            total += w;
            self.cum_weight.push(total);
        }
        self.total_weight = total;
        if base_total > 0.0 {
            total / base_total
        } else {
            1.0
        }
    }
}

/// The embedded query-level engine of *event mode*
/// ([`super::Simulation::from_workload_event`]): a [`Router`] advanced one
/// tick-width of micro-ticks per runtime tick. The runtime stays the single
/// control brain — this plane supplies arrivals and latency samples, and
/// mirrors every placement mutation ([`Router::apply_primary_move`],
/// [`Router::set_failed`]) so the replica map and the runtime `Assignment`
/// share one source of truth (DESIGN.md §14).
pub(crate) struct EventBackend {
    router: Router,
    /// Micro-ticks per runtime tick (the scenario's `tick_us`).
    tick_us: u64,
    /// Divisor turning router µs latencies into the tick engine's
    /// relative units (service mean 1.0 at ρ = 0).
    base_service_us: f64,
    /// Samples already drained from the router's buffer.
    cursor: usize,
    /// Router query count at the last drain.
    queries_seen: u64,
    /// Feed the controller router-observed EWMA utilization instead of
    /// ground-truth assignment usage.
    ewma_controller: bool,
    /// Router event loop armed (first `arrive` starts it).
    started: bool,
    // Scratch: `Router::observed_machine_rho` and the drained samples in
    // relative units.
    observed_rho: Vec<f64>,
    samples: Vec<f64>,
}

impl EventBackend {
    /// `router` lowered from `scenario`, not yet started.
    pub fn new(router: Router, scenario: &ScenarioSpec, ewma_controller: bool) -> Self {
        Self {
            router,
            tick_us: scenario.tick_us,
            base_service_us: scenario.base_service_us,
            cursor: 0,
            queries_seen: 0,
            ewma_controller,
            started: false,
            observed_rho: Vec::new(),
            samples: Vec::new(),
        }
    }

    /// Advances the router through this tick's micro-tick window
    /// `(tick·tick_us, (tick+1)·tick_us]` and drains its new samples. The
    /// router's own pump flips flash crowds from its lowered config at the
    /// same microsecond the runtime's spike plane flips its tick.
    fn arrive(&mut self, tick: u64, obs: &mut Recorder) -> Arrived<'_> {
        if !self.started {
            self.started = true;
            self.router.start(obs);
        }
        self.router.advance_to((tick + 1) * self.tick_us, obs);
        self.drain_backend_samples()
    }

    /// Pulls the router's query count delta and new latency samples
    /// (µs ÷ `base_service_us` → the tick engine's relative units).
    fn drain_backend_samples(&mut self) -> Arrived<'_> {
        let q = self.router.queries();
        let queries = q - self.queries_seen;
        self.queries_seen = q;
        let samples = self.router.samples();
        self.samples.clear();
        self.samples.extend(
            samples[self.cursor..]
                .iter()
                .map(|s| s / self.base_service_us),
        );
        self.cursor = samples.len();
        Arrived {
            queries,
            latencies: &self.samples,
        }
    }

    /// After the horizon: queries still in flight inside the router finish
    /// past the last tick window; drain them so the percentile set covers
    /// every admitted query (the standalone router drains identically).
    fn drain_backend_tail(&mut self, obs: &mut Recorder) -> Arrived<'_> {
        if self.started {
            self.router.advance_to(u64::MAX, obs);
        }
        self.drain_backend_samples()
    }

    /// Event-mode invariant (asserted every gauge): the runtime
    /// `Assignment` and the router's machine state never drift. Steady
    /// load is bit-equal — both sides apply the same `±share` f64
    /// operations in the same order through the single mutation path.
    /// Spike surcharge is compared at 1e-9: a mid-spike move transfers the
    /// surcharge incrementally while the runtime re-sums from scratch, so
    /// the two accumulate in different addition orders.
    fn verify_backend_parity(&self, cl: &LiveCluster, spike_cpu: &[f64]) {
        let loads = self.router.machine_loads();
        let spikes = self.router.machine_spike_extras();
        for m in 0..cl.inst.n_machines() {
            let usage = cl.asg.usage(MachineId::from(m))[0];
            assert_eq!(
                usage.to_bits(),
                loads[m].to_bits(),
                "machine {m}: assignment usage {usage} != router load {}",
                loads[m]
            );
            assert!(
                (spike_cpu[m] - spikes[m]).abs() < 1e-9,
                "machine {m}: spike surcharge drifted: {} vs {}",
                spike_cpu[m],
                spikes[m]
            );
        }
    }

    /// The `ewma_controller` signal: router-observed per-machine ρ
    /// (latency EWMAs inverted through the service model) rolled up into
    /// the controller's `(peak, imbalance)` pair, mean taken over occupied
    /// machines like the ground-truth path.
    fn observed_signal(&mut self, cl: &LiveCluster) -> (f64, f64) {
        self.router.observed_machine_rho(&mut self.observed_rho);
        let mut peak = 0.0f64;
        let mut sum = 0.0f64;
        let mut occupied = 0usize;
        for (m, &rho) in self
            .observed_rho
            .iter()
            .enumerate()
            .take(cl.inst.n_machines())
        {
            peak = peak.max(rho);
            if !cl.asg.shards_on(MachineId::from(m)).is_empty() {
                sum += rho;
                occupied += 1;
            }
        }
        let mean = if occupied > 0 {
            sum / occupied as f64
        } else {
            0.0
        };
        let imbalance = if mean > 0.0 { peak / mean } else { 1.0 };
        (peak, imbalance)
    }
}

/// Knuth's Poisson sampler; fine for the λ ≲ 20 this runtime uses.
fn poisson(rng: &mut StdRng, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0f64;
    loop {
        let u: f64 = rng.random();
        p *= u;
        if p <= l {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use rex_cluster::InstanceBuilder;

    #[test]
    fn tick_plane_measures_no_controller_signal_and_has_no_tail() {
        let mut b = InstanceBuilder::new(1);
        let m = b.machine(&[10.0]);
        b.shard(&[1.0], 1.0, m);
        let cl = LiveCluster::new(b.build().unwrap(), RuntimeConfig::default());
        let mut plane = ArrivalPlane::Tick(TickArrivals::new(1));
        assert!(plane.controller_signal(&cl, &[0.0]).is_none());
        let mut obs = Recorder::noop();
        assert!(plane.arrive(0, &cl, &mut obs).queries > 0, "default qps");
        let tail = plane.finish(&mut obs);
        assert!(tail.queries == 0 && tail.latencies.is_empty());
    }

    #[test]
    fn poisson_mean_is_close() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 4000;
        let total: u64 = (0..n).map(|_| poisson(&mut rng, 5.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "poisson mean drifted: {mean}");
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }
}
