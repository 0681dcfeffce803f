//! The closed-loop simulation: one event loop tying together arrivals,
//! service, the rebalance controller, the migration executor, faults, and
//! the metrics bus.
//!
//! # Determinism contract
//!
//! A run is a pure function of `(Instance, RuntimeConfig)`. Time is integer
//! ticks; ties break on insertion order ([`crate::events`]); randomness
//! comes from named `StdRng` streams derived from the master seed; and the
//! export contains no wall-clock data. Two same-seed runs therefore produce
//! byte-identical metrics JSON (tested).
//!
//! # Membership invariant
//!
//! Whenever no plan is in flight, `inst.initial` equals the live placement
//! and every exchange-flagged machine is vacant — i.e. the live `Instance`
//! always validates, so it can be snapshotted and handed to any solver
//! as-is. [`Simulation::normalize_membership`] restores the invariant after
//! every plan completion or abort; completed SRA plans additionally rotate
//! the exchange loan onto the machines the solver handed back (the paper's
//! per-epoch exchange cycle).
//!
//! # Faults and replanning
//!
//! A crash marks the machine failed: it serves its shards at the saturation
//! latency until an **evacuation** plan drains it, and every subsequent
//! solve lists it as a drain so no policy ever moves shards onto it. If a
//! crash lands mid-migration the in-flight plan finishes its current batch
//! (copies already on the wire), aborts the rest, and an [`Event::EvacCheck`]
//! replans. Evacuations run under every policy, `Off` included — an
//! operator cannot leave shards on a dead machine — which keeps the
//! policies comparable on exactly the load-driven decisions.
//!
//! # Why plans stay transient-safe
//!
//! Plans are verified against the planning snapshot, and executed against
//! the live cluster. The two can only differ by (a) flash crowds — the
//! snapshot adds each spiked shard's extra demand (`factor ≥ 1`, capped by
//! the hosting machine's headroom so the snapshot stays valid), hence every
//! snapshot demand ≥ its live demand — and (b) demand drift, which defers
//! itself while a plan is in flight. Steady-state capacity checks that pass
//! on the snapshot therefore pass live; the executor still re-checks every
//! batch independently and counts `transient_violations` (which must stay
//! zero).

use crate::config::{ControllerPolicy, FaultSpec, RuntimeConfig};
use crate::controller::{plan_evacuation, plan_load_rebalance, Controller};
use crate::events::{Event, EventQueue};
use crate::exec::{batch_footprint, MigrationKind, PlannedMigration};
use crate::hotshard::{plan_hotshard_migration, EwmaCache, OperatorKind, OperatorScheduler};
use crate::metrics::{GaugeSample, MetricsBus, MetricsExport, RunMeta};
use crate::server::{
    diurnal_multiplier, effective_rho, sample_fanout_latency, sample_sampled_fanout_latency,
};
use crate::trace::{ReplayScript, TraceLine};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rex_cluster::{
    Assignment, BalanceReport, Instance, MachineId, ResourceVec, ScenarioSpec, ShardId,
    WorkloadSpec,
};
use rex_obs::Recorder;
use rex_router::{AnyPolicy, PolicyKind, Router, RouterConfig};
use rex_workload::evolve::{next_epoch, DriftConfig};
use rex_workload::popularity::{apply_popularity, PopularityWalk};

/// A plan being executed, one batch at a time.
#[derive(Clone, Debug)]
struct ActivePlan {
    /// Id echoed by `PlanStart`/`BatchComplete` events; stale ids no-op.
    id: u64,
    pm: PlannedMigration,
    next_batch: usize,
    /// False until `PlanStart` fires (plans aborted before starting have
    /// no copies on the wire and vanish immediately).
    started: bool,
}

impl ActivePlan {
    fn moves_remaining(&self) -> usize {
        self.pm.plan.batches[self.next_batch..]
            .iter()
            .map(Vec::len)
            .sum()
    }
}

/// The embedded query-level engine when the simulation runs in *event
/// mode* ([`Simulation::from_workload_event`]): a [`rex_router::Router`]
/// advanced one tick-width of micro-ticks per runtime tick. The runtime
/// stays the single control brain — the backend supplies arrivals and
/// latency samples, and mirrors every placement mutation (executor batch
/// moves via [`Router::apply_primary_move`], crash flips via
/// [`Router::set_failed`]) so the replica map and the runtime
/// [`Assignment`] share one source of truth (DESIGN.md §14).
struct EventBackend {
    router: Router<AnyPolicy>,
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
    /// Router event loop armed (first Arrivals tick starts it).
    started: bool,
    /// Scratch for [`Router::observed_machine_rho`].
    observed_rho: Vec<f64>,
}

/// The discrete-event closed-loop simulator.
pub struct Simulation {
    cfg: RuntimeConfig,
    inst: Instance,
    asg: Assignment,
    queue: EventQueue,
    controller: Controller,
    /// Per-machine failure flags.
    failed: Vec<bool>,
    /// Per-fault spike state: `Some(shards)` while that spike is active.
    spikes: Vec<Option<Vec<ShardId>>>,
    /// In-flight copy footprint per machine (zero outside batches).
    transient: Vec<ResourceVec>,
    active: Option<ActivePlan>,
    abort_requested: bool,
    /// Monotonic plan id source.
    next_plan_id: u64,
    /// Monotonic solve-attempt counter; seeds each planning call.
    plan_attempts: u64,
    bus: MetricsBus,
    /// Trace recorder ([`Recorder::Noop`] unless [`Simulation::run_traced`]
    /// installs an active one); narrates controller decisions, migration
    /// progress, and fault injection on the `"runtime"` layer.
    obs: Recorder,
    initial_report: BalanceReport,
    base_label: String,
    /// The exchange loan size fixed at construction; rotation never grows it.
    loan_k: usize,
    arrivals_rng: StdRng,
    latency_rng: StdRng,
    /// Hot-peer cache of per-shard EWMA load fractions (hot-shard plane).
    hotshard_cache: EwmaCache,
    /// Operator scheduler for split/merge/migrate (hot-shard plane).
    hotshard_sched: OperatorScheduler,
    /// Sibling pairs produced by splits, `(parent, child)` — merge
    /// candidates while both stay under the hysteresis band.
    siblings: Vec<(ShardId, ShardId)>,
    /// The running Migrate operator whose plan is currently in flight.
    hotshard_plan_op: Option<u64>,
    /// Hard shard-count cap resolved at construction.
    hotshard_max_shards: usize,
    /// Event-mode backend (`None` in pure tick mode).
    backend: Option<Box<EventBackend>>,
    /// The popularity rank walk (present iff `cfg.popularity` is).
    popwalk: Option<PopularityWalk>,
    /// Workload-trace recording enabled ([`Simulation::run_recorded`]).
    wtrace_enabled: bool,
    /// Recorded workload-trace lines (append-only; never perturbs the run).
    wtrace: Vec<TraceLine>,
    /// Pinned realizations from a replayed trace, if any.
    replay: Option<ReplayScript>,
    // Scratch buffers reused across ticks.
    rho: Vec<f64>,
    spike_cpu: Vec<f64>,
    serving: Vec<bool>,
    /// Sampled-fanout arrival weights (`cfg.fanout > 0` only): per-shard
    /// weight, its cumulative table, and the total.
    shard_weight: Vec<f64>,
    cum_weight: Vec<f64>,
    total_weight: f64,
}

impl Simulation {
    /// Builds a simulation over `inst`. Panics on invalid configuration or
    /// fault specs referencing unknown machines — everything
    /// [`RuntimeConfig::validate_for`] rejects; input-facing callers run that
    /// check first and report its error.
    pub fn new(inst: Instance, cfg: RuntimeConfig) -> Self {
        if let Err(e) = cfg.validate_for(inst.n_machines()) {
            panic!("{e}");
        }
        inst.validate().expect("instance must validate");
        let asg = Assignment::from_initial(&inst);
        let initial_report = BalanceReport::compute(&inst, &asg);
        let n = inst.n_machines();
        let controller = Controller::new(cfg.controller);
        let arrivals_rng = StdRng::seed_from_u64(cfg.seed ^ 0xA441_7A15);
        let latency_rng = StdRng::seed_from_u64(cfg.seed ^ 0x1A7E_0C11);
        let hs = cfg.hotshard;
        let (hotshard_cache, hotshard_sched, hotshard_max_shards) = if hs.enabled {
            (
                EwmaCache::new(hs.cache_capacity, hs.ewma_alpha),
                OperatorScheduler::new(hs.operator_limit, hs.operator_expiry_ticks),
                if hs.max_shards == 0 {
                    inst.n_shards().saturating_mul(4)
                } else {
                    hs.max_shards
                },
            )
        } else {
            // Inert placeholders: a disabled plane never polls, and its
            // knobs are unvalidated, so do not build from them.
            (EwmaCache::new(1, 1.0), OperatorScheduler::new(1, 0), 0)
        };
        Self {
            base_label: inst.label.clone(),
            loan_k: inst.k_return,
            hotshard_cache,
            hotshard_sched,
            siblings: Vec::new(),
            hotshard_plan_op: None,
            hotshard_max_shards,
            asg,
            queue: EventQueue::new(),
            controller,
            failed: vec![false; n],
            spikes: vec![None; cfg.faults.len()],
            transient: vec![ResourceVec::zero(inst.dims); n],
            active: None,
            abort_requested: false,
            next_plan_id: 0,
            plan_attempts: 0,
            bus: MetricsBus::default(),
            obs: Recorder::noop(),
            initial_report,
            arrivals_rng,
            latency_rng,
            backend: None,
            popwalk: cfg
                .popularity
                .map(|p| PopularityWalk::new(inst.n_shards(), p.zipf_alpha)),
            wtrace_enabled: false,
            wtrace: Vec::new(),
            replay: None,
            rho: Vec::with_capacity(n),
            spike_cpu: vec![0.0; n],
            serving: vec![false; n],
            shard_weight: Vec::new(),
            cum_weight: Vec::new(),
            total_weight: 0.0,
            inst,
            cfg,
        }
    }

    /// Tick-mode simulation of an engine-neutral [`ScenarioSpec`]:
    /// [`Simulation::from_workload`] on the degenerate workload. The
    /// differential suite runs this against
    /// [`Simulation::from_scenario_event`] on the same spec.
    pub fn from_scenario(inst: Instance, spec: &ScenarioSpec) -> Self {
        Self::from_workload(inst, &WorkloadSpec::from_scenario(spec.clone()))
    }

    /// Event-mode simulation of the same [`ScenarioSpec`]:
    /// [`Simulation::from_workload_event`] on the degenerate workload.
    pub fn from_scenario_event(
        inst: Instance,
        spec: &ScenarioSpec,
        policy: PolicyKind,
        ewma_controller: bool,
    ) -> Self {
        let w = WorkloadSpec::from_scenario(spec.clone());
        Self::from_workload_event(inst, &w, policy, ewma_controller)
    }

    /// Tick-mode simulation of an engine-neutral [`WorkloadSpec`]: the
    /// lowering of [`RuntimeConfig::from_workload`] over `inst` — rack
    /// crashes expand to per-machine faults and the load script arms the
    /// diurnal envelope and the popularity walk.
    pub fn from_workload(inst: Instance, w: &WorkloadSpec) -> Self {
        let n = inst.n_machines();
        Self::new(inst, RuntimeConfig::from_workload(w, n))
    }

    /// Event-mode simulation of the same [`WorkloadSpec`]: arrivals,
    /// service, and latency come from an embedded [`rex_router::Router`]
    /// lowered from the scenario plane (replication forced to 1 so the
    /// replica map mirrors the one-home-per-shard [`Assignment`]), while
    /// the controller, executor, and fault planes stay the runtime's —
    /// rack crashes forward through the existing `set_failed`/evacuation
    /// paths. With `ewma_controller` the controller observes
    /// router-measured per-replica latency EWMAs inverted through the
    /// service model instead of ground-truth usage.
    ///
    /// # Panics
    /// If the workload carries a load script: the event engine has no
    /// diurnal/popularity counterpart to converge against — run those
    /// through the tick engine (`rex simulate`).
    pub fn from_workload_event(
        inst: Instance,
        w: &WorkloadSpec,
        policy: PolicyKind,
        ewma_controller: bool,
    ) -> Self {
        assert!(
            w.load.is_none(),
            "the event engine has no load-script counterpart; run diurnal/\
             popularity workloads through the tick engine"
        );
        let rcfg = RouterConfig::from_scenario(&w.scenario, policy);
        let router = Router::new(&inst, &rcfg);
        let mut sim = Self::from_workload(inst, w);
        debug_assert!(
            !sim.cfg.hotshard.enabled && sim.cfg.drift.is_none() && sim.cfg.popularity.is_none(),
            "event mode mirrors placement moves only; membership mutation \
             planes must stay off"
        );
        sim.backend = Some(Box::new(EventBackend {
            router,
            tick_us: w.scenario.tick_us,
            base_service_us: w.scenario.base_service_us,
            cursor: 0,
            queries_seen: 0,
            ewma_controller,
            started: false,
            observed_rho: Vec::new(),
        }));
        sim
    }

    /// Pins the RNG-dependent realizations (spike hot sets, popularity
    /// rank permutations) to a recorded trace's values instead of
    /// re-deriving them — the replay half of the trace layer.
    pub fn set_replay(&mut self, script: ReplayScript) {
        self.replay = Some(script);
    }

    /// Runs to the horizon and returns the metrics export.
    pub fn run(self) -> MetricsExport {
        self.run_traced(&mut Recorder::noop())
    }

    /// Like [`run_traced`], additionally recording the realized workload
    /// stream — every crash, recovery, spike flip (with its realized hot
    /// set), and popularity epoch (with its rank permutation) — and
    /// returning the trace lines alongside the export. Recording is an
    /// append-only side channel: the export is byte-identical to an
    /// unrecorded run.
    ///
    /// [`run_traced`]: Simulation::run_traced
    pub fn run_recorded(mut self, rec: &mut Recorder) -> (MetricsExport, Vec<TraceLine>) {
        self.wtrace_enabled = true;
        self.run_core(rec)
    }

    /// Like [`run`], narrating the run into `rec` when it is recording: a
    /// `("runtime", "simulate")` span wrapping controller decisions
    /// (trigger fired, plan adopted/empty/failed), per-batch migration
    /// progress, and fault-injection events, all keyed by the simulation
    /// tick. The recorder is moved in for the duration of the run and moved
    /// back out before returning, so the caller's `rec` holds the full
    /// trace afterwards. With a [`Recorder::Noop`] this is exactly [`run`].
    ///
    /// [`run`]: Simulation::run
    pub fn run_traced(self, rec: &mut Recorder) -> MetricsExport {
        self.run_core(rec).0
    }

    fn run_core(mut self, rec: &mut Recorder) -> (MetricsExport, Vec<TraceLine>) {
        self.obs = std::mem::take(rec);
        if self.obs.is_active() {
            self.obs.span_open(
                "runtime",
                "simulate",
                vec![
                    ("instance", self.base_label.as_str().into()),
                    ("policy", self.cfg.controller.policy.name().into()),
                    ("seed", self.cfg.seed.into()),
                    ("ticks", self.cfg.ticks.into()),
                    ("machines", self.inst.n_machines().into()),
                    ("shards", self.inst.n_shards().into()),
                ],
            );
        }
        self.schedule_initial_events();
        while let Some((tick, event)) = self.queue.pop() {
            if event == Event::End {
                break;
            }
            if self.obs.is_active() {
                self.obs.set_tick(tick);
            }
            self.handle(tick, event);
        }
        self.drain_backend_tail();
        self.final_gauge();
        if self.obs.is_active() {
            self.obs.set_tick(self.cfg.ticks);
            let c = &self.bus.counters;
            self.obs.span_close(
                "runtime",
                "simulate",
                vec![
                    ("rebalances_triggered", c.rebalances_triggered.into()),
                    ("rebalances_completed", c.rebalances_completed.into()),
                    ("rebalances_aborted", c.rebalances_aborted.into()),
                    ("moves_committed", c.moves_committed.into()),
                    ("evacuations", c.evacuations.into()),
                    ("transient_violations", c.transient_violations.into()),
                ],
            );
        }
        let trace = std::mem::take(&mut self.wtrace);
        let export = MetricsExport {
            meta: RunMeta {
                instance: self.base_label.clone(),
                policy: self.cfg.controller.policy.name().to_string(),
                seed: self.cfg.seed,
                ticks: self.cfg.ticks,
            },
            counters: self.bus.counters,
            latency: self.bus.latency.summary(),
            initial_report: self.initial_report,
            final_report: BalanceReport::compute(&self.inst, &self.asg),
            gauges: std::mem::take(&mut self.bus.gauges),
        };
        *rec = std::mem::take(&mut self.obs);
        (export, trace)
    }

    /// Appends a realized-workload trace line when recording is on.
    fn record(&mut self, line: TraceLine) {
        if self.wtrace_enabled {
            self.wtrace.push(line);
        }
    }

    fn schedule_initial_events(&mut self) {
        self.queue.schedule(0, Event::Arrivals);
        self.queue.schedule(0, Event::Sample);
        if self.cfg.controller.policy != ControllerPolicy::Off {
            self.queue
                .schedule(self.cfg.controller.poll_interval, Event::ControllerPoll);
        }
        if self.cfg.hotshard.enabled {
            self.queue
                .schedule(self.cfg.hotshard.poll_interval, Event::HotShardPoll);
        }
        for (i, f) in self.cfg.faults.iter().enumerate() {
            match *f {
                FaultSpec::Crash {
                    at,
                    machine,
                    recover_at,
                } => {
                    self.queue.schedule(at, Event::Crash(MachineId(machine)));
                    if let Some(r) = recover_at {
                        self.queue.schedule(r, Event::Recover(MachineId(machine)));
                    }
                }
                FaultSpec::Spike { at, duration, .. } => {
                    self.queue.schedule(at, Event::SpikeStart(i));
                    self.queue.schedule(at + duration, Event::SpikeEnd(i));
                }
            }
        }
        if let Some(d) = self.cfg.drift {
            self.queue.schedule(d.every_ticks, Event::Drift);
        }
        if let Some(p) = self.cfg.popularity {
            self.queue.schedule(p.every_ticks, Event::Popularity);
        }
        self.queue.schedule(self.cfg.ticks, Event::End);
    }

    fn handle(&mut self, tick: u64, event: Event) {
        match event {
            Event::Arrivals => self.on_arrivals(tick),
            Event::Sample => self.on_sample(tick),
            Event::ControllerPoll => self.on_controller_poll(tick),
            Event::PlanStart(id) => self.on_plan_start(tick, id),
            Event::BatchComplete(id) => self.on_batch_complete(tick, id),
            Event::Crash(m) => self.on_crash(tick, m),
            Event::Recover(m) => self.on_recover(tick, m),
            Event::SpikeStart(i) => self.on_spike_start(tick, i),
            Event::SpikeEnd(i) => self.on_spike_end(tick, i),
            Event::HotShardPoll => self.on_hotshard_poll(tick),
            Event::EvacCheck => self.on_evac_check(tick),
            Event::Drift => self.on_drift(tick),
            Event::Popularity => self.on_popularity(tick),
            Event::End => unreachable!("End terminates the loop"),
        }
    }

    // ---- traffic ----------------------------------------------------------

    fn on_arrivals(&mut self, tick: u64) {
        if self.backend.is_some() {
            self.on_arrivals_event(tick);
            if tick + 1 < self.cfg.ticks {
                self.queue.schedule(tick + 1, Event::Arrivals);
            }
            return;
        }
        let mult = diurnal_multiplier(tick, self.cfg.ticks_per_hour, self.cfg.diurnal_amplitude);
        let mut lambda = self.cfg.qps * mult;
        if self.cfg.fanout > 0 {
            // Sampled-fanout mode scales arrivals by the live/base weight
            // ratio — a flash crowd raises traffic exactly the way the
            // event engine's `lambda_spike = lambda_base · ts / tb` does.
            lambda *= self.refresh_arrival_weights();
        }
        let n = poisson(&mut self.arrivals_rng, lambda);
        self.bus.counters.queries_arrived += n;
        if n > 0 {
            self.refresh_serving();
            let degraded = self.failed.iter().zip(&self.serving).any(|(&f, &s)| f && s);
            if degraded {
                self.bus.counters.queries_degraded += n;
            }
            let k = (n as usize).min(self.cfg.latency_samples_per_tick);
            if k > 0 {
                self.refresh_spike_cpu();
                effective_rho(
                    &self.inst,
                    &self.asg,
                    &self.spike_cpu,
                    &self.transient,
                    mult,
                    &mut self.rho,
                );
                for _ in 0..k {
                    let lat = if self.cfg.fanout > 0 {
                        sample_sampled_fanout_latency(
                            &self.rho,
                            &self.failed,
                            self.cfg.rho_max,
                            &self.cum_weight,
                            self.total_weight,
                            self.asg.placement(),
                            self.cfg.fanout,
                            &mut self.latency_rng,
                        )
                    } else {
                        sample_fanout_latency(
                            &self.rho,
                            &self.serving,
                            &self.failed,
                            self.cfg.rho_max,
                            &mut self.latency_rng,
                        )
                    };
                    self.bus.latency.record(lat);
                }
                self.bus.counters.queries_sampled += k as u64;
            }
        }
        if tick + 1 < self.cfg.ticks {
            self.queue.schedule(tick + 1, Event::Arrivals);
        }
    }

    /// Rebuilds the sampled-fanout arrival weights: per-shard CPU demand
    /// times any active spike factors (overlapping spikes compound
    /// multiplicatively, matching the additive compounding of
    /// `refresh_spike_cpu`). Returns the live/base total-weight ratio.
    fn refresh_arrival_weights(&mut self) -> f64 {
        let n = self.inst.n_shards();
        self.shard_weight.clear();
        for i in 0..n {
            self.shard_weight
                .push(self.inst.demand(ShardId::from(i))[0]);
        }
        let base_total: f64 = self.shard_weight.iter().sum();
        for (idx, state) in self.spikes.iter().enumerate() {
            let Some(shards) = state else { continue };
            let FaultSpec::Spike { factor, .. } = self.cfg.faults[idx] else {
                continue;
            };
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

    /// Event-mode arrivals: advance the embedded router through this
    /// tick's micro-tick window `(tick·tick_us, (tick+1)·tick_us]` and
    /// drain its new samples into the metrics bus. The router's own pump
    /// flips flash crowds from its lowered config at the same microsecond
    /// the runtime's spike plane flips its tick.
    fn on_arrivals_event(&mut self, tick: u64) {
        let mut be = self.backend.take().expect("event arrivals need a backend");
        if !be.started {
            be.started = true;
            be.router.start(&mut self.obs);
        }
        be.router.advance_to((tick + 1) * be.tick_us, &mut self.obs);
        self.drain_backend_samples(&mut be);
        self.backend = Some(be);
    }

    /// Pulls the router's query count delta and new latency samples
    /// (µs ÷ `base_service_us` → the tick engine's relative units).
    fn drain_backend_samples(&mut self, be: &mut EventBackend) {
        let q = be.router.queries();
        let n = q - be.queries_seen;
        be.queries_seen = q;
        self.bus.counters.queries_arrived += n;
        if n > 0 {
            self.refresh_serving();
            let degraded = self.failed.iter().zip(&self.serving).any(|(&f, &s)| f && s);
            if degraded {
                self.bus.counters.queries_degraded += n;
            }
        }
        let samples = be.router.samples();
        for &s in &samples[be.cursor..] {
            self.bus.latency.record(s / be.base_service_us);
        }
        self.bus.counters.queries_sampled += (samples.len() - be.cursor) as u64;
        be.cursor = samples.len();
    }

    /// After the horizon: queries still in flight inside the router finish
    /// past the last tick window; drain them so the percentile set covers
    /// every admitted query (the standalone router drains identically).
    fn drain_backend_tail(&mut self) {
        let Some(mut be) = self.backend.take() else {
            return;
        };
        if be.started {
            be.router.advance_to(u64::MAX, &mut self.obs);
            self.drain_backend_samples(&mut be);
        }
        self.backend = Some(be);
    }

    /// Event-mode invariant (asserted every gauge): the runtime
    /// [`Assignment`] and the router's machine state never drift. Steady
    /// load is bit-equal — both sides apply the same `±share` f64
    /// operations in the same order through the single mutation path.
    /// Spike surcharge is compared at 1e-9: a mid-spike move transfers the
    /// surcharge incrementally while the runtime re-sums from scratch, so
    /// the two accumulate in different addition orders.
    fn verify_backend_parity(&self, be: &EventBackend) {
        let loads = be.router.machine_loads();
        let spikes = be.router.machine_spike_extras();
        for m in 0..self.inst.n_machines() {
            let usage = self.asg.usage(MachineId::from(m))[0];
            assert_eq!(
                usage.to_bits(),
                loads[m].to_bits(),
                "machine {m}: assignment usage {usage} != router load {}",
                loads[m]
            );
            assert!(
                (self.spike_cpu[m] - spikes[m]).abs() < 1e-9,
                "machine {m}: spike surcharge drifted: {} vs {}",
                self.spike_cpu[m],
                spikes[m]
            );
        }
    }

    /// The `ewma_controller` signal: router-observed per-machine ρ
    /// (latency EWMAs inverted through the service model) rolled up into
    /// the controller's `(peak, imbalance)` pair, mean taken over occupied
    /// machines like the ground-truth path.
    fn observed_signal(&self, be: &mut EventBackend) -> (f64, f64) {
        let mut obs = std::mem::take(&mut be.observed_rho);
        be.router.observed_machine_rho(&mut obs);
        let mut peak = 0.0f64;
        let mut sum = 0.0f64;
        let mut occupied = 0usize;
        for (m, &rho) in obs.iter().enumerate().take(self.inst.n_machines()) {
            peak = peak.max(rho);
            if !self.asg.shards_on(MachineId::from(m)).is_empty() {
                sum += rho;
                occupied += 1;
            }
        }
        be.observed_rho = obs;
        let mean = if occupied > 0 {
            sum / occupied as f64
        } else {
            0.0
        };
        let imbalance = if mean > 0.0 { peak / mean } else { 1.0 };
        (peak, imbalance)
    }

    // ---- observation ------------------------------------------------------

    fn on_sample(&mut self, tick: u64) {
        self.push_gauge(tick);
        if tick + self.cfg.sample_interval < self.cfg.ticks {
            self.queue
                .schedule(tick + self.cfg.sample_interval, Event::Sample);
        }
    }

    /// Steady per-machine load: hosted demand plus active spike CPU, no
    /// diurnal multiplier and no copy overhead — the quantity the balancer
    /// can actually act on.
    fn steady_load(&self, m: usize) -> f64 {
        let cap = &self.inst.machines[m].capacity;
        let usage = self.asg.usage(MachineId::from(m));
        let mut load = (usage[0] + self.spike_cpu[m]) / cap[0];
        for d in 1..self.inst.dims {
            load = load.max(usage[d] / cap[d]);
        }
        load
    }

    fn push_gauge(&mut self, tick: u64) {
        self.refresh_spike_cpu();
        let n = self.inst.n_machines();
        let mut peak = 0.0f64;
        let mut occupied_sum = 0.0f64;
        let mut occupied = 0usize;
        for m in 0..n {
            let load = self.steady_load(m);
            peak = peak.max(load);
            if !self.asg.shards_on(MachineId::from(m)).is_empty() {
                occupied_sum += load;
                occupied += 1;
            }
        }
        let mean = if occupied > 0 {
            occupied_sum / occupied as f64
        } else {
            0.0
        };
        let imbalance = if mean > 0.0 { peak / mean } else { 1.0 };
        let mult = diurnal_multiplier(tick, self.cfg.ticks_per_hour, self.cfg.diurnal_amplitude);
        effective_rho(
            &self.inst,
            &self.asg,
            &self.spike_cpu,
            &self.transient,
            mult,
            &mut self.rho,
        );
        let effective_peak_rho = self.rho.iter().cloned().fold(0.0, f64::max);
        self.bus.gauges.push(GaugeSample {
            tick,
            peak_util: peak,
            mean_util: mean,
            imbalance,
            effective_peak_rho,
            in_flight_moves: self.active.as_ref().map_or(0, ActivePlan::moves_remaining),
            failed_machines: self.failed.iter().filter(|&&f| f).count(),
            shards: self.inst.n_shards(),
        });
        if let Some(be) = &self.backend {
            self.verify_backend_parity(be);
        }
        // Feed the controller's trigger window only when no plan is in
        // flight: a slow migration's transient peak would otherwise refill
        // the window and double-trigger the moment the plan completes.
        // Gauges above still record every sample for metrics/export.
        if self.active.is_none() {
            let ewma = self.backend.as_deref().is_some_and(|b| b.ewma_controller);
            if ewma {
                let mut be = self.backend.take().expect("checked above");
                let (p, i) = self.observed_signal(&mut be);
                self.controller.observe(p, i);
                self.backend = Some(be);
            } else {
                self.controller.observe(peak, imbalance);
            }
        }
    }

    /// One last gauge at the horizon so the series always covers the end.
    fn final_gauge(&mut self) {
        if self.bus.gauges.last().map(|g| g.tick) != Some(self.cfg.ticks) {
            self.push_gauge(self.cfg.ticks);
        }
    }

    // ---- control ----------------------------------------------------------

    fn on_controller_poll(&mut self, tick: u64) {
        let idle = self.active.is_none() && !self.any_failed_hosting();
        if idle && self.controller.should_trigger(tick) {
            self.controller.note_trigger(tick);
            self.bus.counters.rebalances_triggered += 1;
            if self.obs.is_active() {
                self.obs.event(
                    "runtime",
                    "trigger",
                    vec![("policy", self.cfg.controller.policy.name().into())],
                );
                self.obs.add("runtime.triggers", 1);
            }
            let snapshot = self.build_snapshot();
            let failed = self.failed_list();
            let seed = self.plan_seed();
            match plan_load_rebalance(
                &self.cfg.controller,
                &snapshot,
                &failed,
                seed,
                self.cfg.copy_bandwidth,
                self.cfg.batch_overhead_ticks,
            ) {
                Ok(pm) if !pm.plan.batches.is_empty() => self.adopt(tick, pm),
                Ok(_) => {
                    // The solver found nothing better than staying put;
                    // count it as a completed (empty) rebalance.
                    self.bus.counters.rebalances_completed += 1;
                    if self.obs.is_active() {
                        self.obs
                            .event("runtime", "plan_empty", vec![("seed", seed.into())]);
                    }
                }
                Err(_) => {
                    self.bus.counters.plans_failed += 1;
                    if self.obs.is_active() {
                        self.obs
                            .event("runtime", "plan_failed", vec![("seed", seed.into())]);
                        self.obs.add("runtime.plans_failed", 1);
                    }
                }
            }
        }
        let next = tick + self.cfg.controller.poll_interval;
        if next < self.cfg.ticks {
            self.queue.schedule(next, Event::ControllerPoll);
        }
    }

    fn adopt(&mut self, tick: u64, pm: PlannedMigration) {
        debug_assert!(self.active.is_none());
        if pm.kind == MigrationKind::Evacuation {
            self.bus.counters.evacuations += 1;
        }
        let id = self.next_plan_id;
        self.next_plan_id += 1;
        if self.obs.is_active() {
            let moves: usize = pm.plan.batches.iter().map(Vec::len).sum();
            self.obs.event(
                "runtime",
                "plan_adopted",
                vec![
                    ("plan", id.into()),
                    (
                        "kind",
                        match pm.kind {
                            MigrationKind::Load => "load",
                            MigrationKind::Evacuation => "evacuation",
                            MigrationKind::HotShard => "hotshard",
                        }
                        .into(),
                    ),
                    ("batches", pm.plan.batches.len().into()),
                    ("moves", moves.into()),
                ],
            );
            self.obs.add("runtime.plans_adopted", 1);
            self.obs.observe("runtime.plan_moves", moves as f64);
        }
        self.active = Some(ActivePlan {
            id,
            pm,
            next_batch: 0,
            started: false,
        });
        self.abort_requested = false;
        self.queue
            .schedule(tick + self.cfg.plan_latency_ticks, Event::PlanStart(id));
    }

    /// A fresh deterministic seed per *solve attempt*. Keyed by its own
    /// counter (not the adopted-plan id): a solve that comes back empty or
    /// fails must not hand the identical seed — and therefore the identical
    /// doomed search — to the retry at the next cooldown.
    fn plan_seed(&mut self) -> u64 {
        let attempt = self.plan_attempts;
        self.plan_attempts += 1;
        self.cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(attempt)
    }

    // ---- execution --------------------------------------------------------

    fn on_plan_start(&mut self, tick: u64, id: u64) {
        let Some(a) = self.active.as_mut() else {
            return; // plan aborted before it started; stale event
        };
        if a.id != id {
            return;
        }
        a.started = true;
        if self.obs.is_active() {
            self.obs
                .event("runtime", "plan_start", vec![("plan", id.into())]);
        }
        self.start_batch(tick);
    }

    fn start_batch(&mut self, tick: u64) {
        let a = self.active.as_ref().expect("start_batch without a plan");
        let batch = &a.pm.plan.batches[a.next_batch];
        for t in self.transient.iter_mut() {
            *t = ResourceVec::zero(self.inst.dims);
        }
        batch_footprint(&self.inst, batch, &mut self.transient);
        // Independent live check of the transient constraint (DESIGN.md §7):
        // steady usage plus the batch footprint must fit every machine.
        for m in 0..self.inst.n_machines() {
            let cap = &self.inst.machines[m].capacity;
            if !self
                .asg
                .usage(MachineId::from(m))
                .fits_after_add(&self.transient[m], cap)
            {
                self.bus.counters.transient_violations += 1;
            }
        }
        let duration = a.pm.durations[a.next_batch];
        let id = a.id;
        if self.obs.is_active() {
            let a = self.active.as_ref().expect("checked above");
            self.obs.event(
                "runtime",
                "batch",
                vec![
                    ("plan", id.into()),
                    ("index", a.next_batch.into()),
                    ("moves", a.pm.plan.batches[a.next_batch].len().into()),
                    ("remaining", a.moves_remaining().into()),
                    ("duration", duration.into()),
                ],
            );
            self.obs.add("runtime.batches", 1);
        }
        self.queue
            .schedule(tick + duration, Event::BatchComplete(id));
    }

    fn on_batch_complete(&mut self, tick: u64, id: u64) {
        let Some(a) = self.active.as_mut() else {
            return;
        };
        if a.id != id {
            return;
        }
        let batch = a.pm.plan.batches[a.next_batch].clone();
        a.next_batch += 1;
        let finished = a.next_batch == a.pm.plan.batches.len();
        for mv in &batch {
            self.asg.move_shard(&self.inst, mv.shard, mv.to);
            if let Some(be) = self.backend.as_mut() {
                // Mirror the committed move into the replica map through
                // the single mutation path — the same `±share` float ops
                // in the same order keep both sides bit-equal.
                be.router.apply_primary_move(mv.shard.idx(), mv.to.idx());
            }
            self.bus.counters.moves_committed += 1;
            self.bus.counters.migration_traffic += self.inst.shards[mv.shard.idx()].move_cost;
        }
        self.bus.counters.batches_executed += 1;
        for t in self.transient.iter_mut() {
            *t = ResourceVec::zero(self.inst.dims);
        }
        if self.abort_requested {
            self.finalize_plan(tick, false);
        } else if finished {
            self.finalize_plan(tick, true);
        } else {
            self.start_batch(tick);
        }
    }

    fn finalize_plan(&mut self, tick: u64, completed: bool) {
        let a = self.active.take().expect("finalize without a plan");
        self.abort_requested = false;
        if self.obs.is_active() {
            self.obs.event(
                "runtime",
                "plan_done",
                vec![
                    ("plan", a.id.into()),
                    ("completed", completed.into()),
                    (
                        "kind",
                        match a.pm.kind {
                            MigrationKind::Load => "load",
                            MigrationKind::Evacuation => "evacuation",
                            MigrationKind::HotShard => "hotshard",
                        }
                        .into(),
                    ),
                ],
            );
        }
        if completed {
            match a.pm.kind {
                MigrationKind::Load => self.bus.counters.rebalances_completed += 1,
                MigrationKind::Evacuation => {}
                MigrationKind::HotShard => self.bus.counters.hotshard_migrations += 1,
            }
        } else {
            self.bus.counters.rebalances_aborted += 1;
        }
        if a.pm.kind == MigrationKind::HotShard {
            // The migrate operator owns this plan; completed or aborted,
            // its slot frees now (a crash-abort already cancelled it).
            if let Some(op) = self.hotshard_plan_op.take() {
                self.hotshard_sched.complete(op);
            }
        }
        if completed && a.pm.kind == MigrationKind::Load {
            // The resource-exchange cycle: hand the solver's returned
            // machines back to the operator, who immediately re-lends up to
            // `loan_k` vacant machines as the next borrowed set. Preferring
            // the solver's `returned` list and topping up from any other
            // healthy vacancy rebuilds the float after a crash consumed it.
            let mut pool = a.pm.returned.clone();
            pool.retain(|m| !self.failed[m.idx()] && self.asg.shards_on(*m).is_empty());
            for m in (0..self.inst.n_machines()).map(MachineId::from) {
                if !pool.contains(&m) && !self.failed[m.idx()] && self.asg.shards_on(m).is_empty() {
                    pool.push(m);
                }
            }
            pool.truncate(self.loan_k);
            if pool.is_empty() {
                self.normalize_membership(None);
            } else {
                self.normalize_membership(Some(&pool));
            }
        } else {
            self.normalize_membership(None);
        }
        // Catch failed machines that still host shards (abort, or a second
        // crash during this plan).
        self.queue.schedule(tick, Event::EvacCheck);
    }

    /// Restores the idle-state invariant: `initial` mirrors the live
    /// placement, exchange flags sit only on vacant *healthy* machines, and
    /// the return quota equals the number of flagged machines — the
    /// currently borrowed set is exactly what is owed back. A vacancy
    /// without a flag (a recovered machine, or slack the last solve opened
    /// up beyond the quota) is free working capacity, not debt: reserving
    /// it would starve the solver of the very float the exchange scheme
    /// exists to provide. An evacuation can legitimately consume every
    /// flagged machine; the quota then drops to 0 until a completed
    /// rebalance re-borrows vacancies (see `finalize_plan`).
    ///
    /// `rotate_to`: `Some(machines)` moves the exchange loan onto exactly
    /// those (vacant, healthy) machines — the resource-exchange cycle after
    /// a completed SRA plan. `None` keeps existing flags where still legal.
    fn normalize_membership(&mut self, rotate_to: Option<&[MachineId]>) {
        self.inst.initial = self.asg.placement().to_vec();
        let n = self.inst.n_machines();
        let mut flagged = 0usize;
        for m in 0..n {
            let vacant = self.asg.shards_on(MachineId::from(m)).is_empty();
            let healthy = !self.failed[m];
            let flag = match rotate_to {
                Some(rs) => rs.contains(&MachineId::from(m)),
                None => self.inst.machines[m].exchange && vacant && healthy,
            };
            assert!(
                !flag || (vacant && healthy),
                "exchange flag on occupied or failed machine {m} breaks the invariant"
            );
            self.inst.machines[m].exchange = flag;
            flagged += flag as usize;
        }
        self.inst.k_return = self.loan_k.min(flagged);
        debug_assert!(self.inst.validate().is_ok(), "live instance must validate");
    }

    // ---- hot-shard control plane ------------------------------------------

    /// One observation/decision/execution round of the hot-shard plane.
    fn on_hotshard_poll(&mut self, tick: u64) {
        self.observe_shard_loads(tick);
        let expired = self.hotshard_sched.expire(tick);
        if !expired.is_empty() {
            self.bus.counters.hotshard_expired += expired.len() as u64;
            if self.obs.is_active() {
                self.obs.event(
                    "runtime",
                    "hotshard_expired",
                    vec![("operators", expired.len().into())],
                );
            }
        }
        self.propose_operators(tick);
        self.run_operators(tick);
        let next = tick + self.cfg.hotshard.poll_interval;
        if next < self.cfg.ticks {
            self.queue.schedule(next, Event::HotShardPoll);
        }
    }

    /// Feeds every hosted shard's load fraction of its machine's capacity
    /// (CPU dimension, active spikes included) into the hot-peer cache.
    fn observe_shard_loads(&mut self, tick: u64) {
        let n = self.inst.n_shards();
        // Per-shard spike extra on the CPU dimension, compounding like the
        // planning snapshot does.
        let mut extra = vec![0.0f64; n];
        for (idx, state) in self.spikes.iter().enumerate() {
            let Some(shards) = state else { continue };
            let FaultSpec::Spike { factor, .. } = self.cfg.faults[idx] else {
                continue;
            };
            for &sid in shards {
                let live = self.inst.demand(sid)[0];
                extra[sid.idx()] = (live + extra[sid.idx()]) * factor - live;
            }
        }
        let hot = self.cfg.hotshard.split_fraction;
        for (i, &x) in extra.iter().enumerate() {
            let m = self.asg.placement()[i];
            if self.failed[m.idx()] {
                continue;
            }
            let cap = self.inst.machines[m.idx()].capacity[0];
            let frac = (self.inst.demand(ShardId::from(i))[0] + x) / cap;
            self.hotshard_cache
                .observe(tick, ShardId::from(i), frac, hot);
        }
        if self.obs.is_active() {
            if let Some(e) = self.hotshard_cache.hottest() {
                self.obs.gauge("runtime.hotshard_ewma_peak", e.ewma);
            }
            self.obs.gauge(
                "runtime.hotshard_cache_len",
                self.hotshard_cache.len() as f64,
            );
        }
    }

    /// Turns the cache's view into operators: split the hottest shard
    /// above the split threshold; merge sibling pairs once both halves
    /// have cooled below the merge threshold (the gap is the hysteresis
    /// band). Admission dedup keeps one operator per shard in flight.
    fn propose_operators(&mut self, tick: u64) {
        let hs = self.cfg.hotshard;
        if let Some(e) = self.hotshard_cache.hottest() {
            if e.ewma > hs.split_fraction && self.inst.n_shards() < self.hotshard_max_shards {
                if let Some(id) = self
                    .hotshard_sched
                    .admit(tick, OperatorKind::Split { shard: e.shard })
                {
                    if self.obs.is_active() {
                        self.obs.event(
                            "runtime",
                            "hotshard_admit_split",
                            vec![
                                ("op", id.into()),
                                ("shard", e.shard.idx().into()),
                                ("ewma", e.ewma.into()),
                            ],
                        );
                    }
                }
            }
        }
        let pairs = self.siblings.clone();
        for (keep, drop) in pairs {
            let (Some(a), Some(b)) = (self.hotshard_cache.get(keep), self.hotshard_cache.get(drop))
            else {
                continue;
            };
            if a < hs.merge_fraction && b < hs.merge_fraction {
                if let Some(id) = self
                    .hotshard_sched
                    .admit(tick, OperatorKind::Merge { keep, drop })
                {
                    if self.obs.is_active() {
                        self.obs.event(
                            "runtime",
                            "hotshard_admit_merge",
                            vec![
                                ("op", id.into()),
                                ("keep", keep.idx().into()),
                                ("drop", drop.idx().into()),
                            ],
                        );
                    }
                }
            }
        }
    }

    /// Starts ready operators. Membership mutations (split/merge) and plan
    /// adoption both require an idle executor and no failed machine still
    /// hosting shards — the same invariant the controller plans under.
    fn run_operators(&mut self, tick: u64) {
        while self.active.is_none() && !self.any_failed_hosting() {
            let Some(op) = self.hotshard_sched.start_next() else {
                break;
            };
            match op.kind {
                OperatorKind::Split { shard } => self.exec_split(tick, op.id, shard),
                OperatorKind::Merge { keep, drop } => self.exec_merge(tick, op.id, keep, drop),
                OperatorKind::Migrate { shards } => self.exec_delta_migrate(tick, op.id, shards),
            }
        }
    }

    /// Splits `shard` in place (instant: a split is metadata, not a copy)
    /// and queues the delta migration that gives one half a new home.
    fn exec_split(&mut self, tick: u64, opid: u64, shard: ShardId) {
        if shard.idx() >= self.inst.n_shards() || self.inst.n_shards() >= self.hotshard_max_shards {
            self.hotshard_sched.complete(opid);
            return;
        }
        let child = self.inst.split_shard(shard);
        // A spiked parent's flash crowd splits with its demand.
        for state in self.spikes.iter_mut().flatten() {
            if state.contains(&shard) {
                state.push(child);
            }
        }
        self.asg = Assignment::from_initial(&self.inst);
        self.hotshard_cache
            .split(tick, shard, child, self.cfg.hotshard.split_fraction);
        self.siblings.push((shard, child));
        self.bus.counters.shard_splits += 1;
        if self.obs.is_active() {
            self.obs.event(
                "runtime",
                "hotshard_split",
                vec![
                    ("op", opid.into()),
                    ("parent", shard.idx().into()),
                    ("child", child.idx().into()),
                ],
            );
            self.obs.add("runtime.hotshard_splits", 1);
        }
        self.hotshard_sched.complete(opid);
        // Both halves sit on the still-hot machine; ask the solver for a
        // better placement of exactly these two shards.
        self.hotshard_sched.admit(
            tick,
            OperatorKind::Migrate {
                shards: vec![shard, child],
            },
        );
    }

    /// Merges `drop` back into `keep`. Instant when co-located; otherwise
    /// adopts a directed single-move plan bringing `drop` to `keep`'s
    /// machine first (the merge re-admits once they share a host).
    fn exec_merge(&mut self, tick: u64, opid: u64, keep: ShardId, drop: ShardId) {
        let n = self.inst.n_shards();
        if keep == drop || keep.idx() >= n || drop.idx() >= n {
            self.hotshard_sched.complete(opid);
            return;
        }
        let dest = self.asg.placement()[keep.idx()];
        if self.asg.placement()[drop.idx()] != dest {
            // Directed co-location move, transient-verified by the planner.
            let mut target = self.asg.placement().to_vec();
            target[drop.idx()] = dest;
            match rex_cluster::plan_migration(
                &self.inst,
                &self.inst.initial,
                &target,
                &rex_cluster::PlannerConfig::default(),
            ) {
                Ok(plan) if !plan.batches.is_empty() => {
                    let durations = crate::exec::batch_durations(
                        &self.inst,
                        &plan,
                        self.cfg.copy_bandwidth,
                        self.cfg.batch_overhead_ticks,
                    );
                    let pm = PlannedMigration {
                        target,
                        returned: Vec::new(),
                        plan,
                        durations,
                        kind: MigrationKind::HotShard,
                    };
                    self.hotshard_plan_op = Some(opid);
                    self.adopt(tick, pm);
                }
                _ => {
                    // No feasible co-location right now; retry on a later
                    // poll if the pair is still cold.
                    self.hotshard_sched.complete(opid);
                }
            }
            return;
        }
        match self.inst.merge_shards(keep, drop) {
            Ok(renamed) => {
                // `drop` is gone; scrub it everywhere first.
                for state in self.spikes.iter_mut().flatten() {
                    state.retain(|&sid| sid != drop);
                }
                self.hotshard_cache.remove(drop);
                self.hotshard_cache.remove(keep); // EWMA of the half is stale
                self.siblings
                    .retain(|&(a, b)| a != drop && b != drop && !(a == keep && b == keep));
                // The old last shard (if any) now answers to `drop`'s id.
                if let Some(moved) = renamed {
                    for state in self.spikes.iter_mut().flatten() {
                        for sid in state.iter_mut() {
                            if *sid == moved {
                                *sid = drop;
                            }
                        }
                    }
                    self.hotshard_cache.remap(moved, drop);
                    self.hotshard_sched.remap_shard(moved, drop);
                    for (a, b) in self.siblings.iter_mut() {
                        if *a == moved {
                            *a = drop;
                        }
                        if *b == moved {
                            *b = drop;
                        }
                    }
                }
                self.asg = Assignment::from_initial(&self.inst);
                self.bus.counters.shard_merges += 1;
                if self.obs.is_active() {
                    self.obs.event(
                        "runtime",
                        "hotshard_merge",
                        vec![
                            ("op", opid.into()),
                            ("keep", keep.idx().into()),
                            ("dropped", drop.idx().into()),
                        ],
                    );
                    self.obs.add("runtime.hotshard_merges", 1);
                }
            }
            Err(_) => {
                // Stale premise (ids shifted since admission); drop the op.
            }
        }
        self.hotshard_sched.complete(opid);
    }

    /// Delta-solves a new placement for exactly `shards` on the planning
    /// snapshot and adopts the resulting plan.
    fn exec_delta_migrate(&mut self, tick: u64, opid: u64, shards: Vec<ShardId>) {
        let n = self.inst.n_shards();
        let changed: Vec<ShardId> = shards.into_iter().filter(|s| s.idx() < n).collect();
        if changed.is_empty() {
            self.hotshard_sched.complete(opid);
            return;
        }
        let snapshot = self.build_snapshot();
        let seed = self.plan_seed();
        match plan_hotshard_migration(
            &snapshot,
            &changed,
            &self.cfg.hotshard,
            seed,
            self.cfg.copy_bandwidth,
            self.cfg.batch_overhead_ticks,
        ) {
            Ok(pm) if !pm.plan.batches.is_empty() => {
                self.hotshard_plan_op = Some(opid);
                self.adopt(tick, pm);
            }
            Ok(_) => {
                // The best delta placement keeps everything put.
                if self.obs.is_active() {
                    self.obs
                        .event("runtime", "hotshard_plan_empty", vec![("op", opid.into())]);
                }
                self.hotshard_sched.complete(opid);
            }
            Err(e) => {
                self.bus.counters.plans_failed += 1;
                if self.obs.is_active() {
                    self.obs.event(
                        "runtime",
                        "hotshard_plan_failed",
                        vec![("op", opid.into()), ("error", e.into())],
                    );
                }
                self.hotshard_sched.complete(opid);
            }
        }
    }

    // ---- faults -----------------------------------------------------------

    fn on_crash(&mut self, tick: u64, m: MachineId) {
        if self.failed[m.idx()] {
            return;
        }
        self.failed[m.idx()] = true;
        if let Some(be) = self.backend.as_mut() {
            be.router.set_failed(m.idx(), true);
        }
        self.bus.counters.crashes += 1;
        self.record(TraceLine {
            machine: m.0,
            ..TraceLine::at(tick, "crash")
        });
        if self.obs.is_active() {
            self.obs.event(
                "runtime",
                "crash",
                vec![
                    ("machine", m.idx().into()),
                    ("mid_plan", self.active.is_some().into()),
                ],
            );
            self.obs.add("runtime.crashes", 1);
        }
        if self.cfg.hotshard.enabled {
            // Cancel-on-crash: the fleet shape is about to change under an
            // evacuation; every queued/running operator's premise is stale.
            let cancelled = self.hotshard_sched.cancel_all();
            self.bus.counters.hotshard_cancelled += cancelled.len() as u64;
            self.hotshard_plan_op = None;
            if self.obs.is_active() && !cancelled.is_empty() {
                self.obs.event(
                    "runtime",
                    "hotshard_cancelled",
                    vec![
                        ("machine", m.idx().into()),
                        ("operators", cancelled.len().into()),
                    ],
                );
                self.obs
                    .add("runtime.hotshard_cancelled", cancelled.len() as u64);
            }
        }
        if let Some(a) = self.active.as_ref() {
            if a.started {
                // Copies are on the wire: finish the current batch, then
                // abandon the rest of the plan.
                self.abort_requested = true;
            } else {
                // Nothing started yet — drop the plan outright; its
                // PlanStart event goes stale via the id check.
                self.bus.counters.rebalances_aborted += 1;
                self.active = None;
                self.normalize_membership(None);
            }
        }
        self.queue.schedule(tick, Event::EvacCheck);
    }

    fn on_recover(&mut self, tick: u64, m: MachineId) {
        if !self.failed[m.idx()] {
            return;
        }
        self.failed[m.idx()] = false;
        if let Some(be) = self.backend.as_mut() {
            be.router.set_failed(m.idx(), false);
        }
        self.bus.counters.recoveries += 1;
        self.record(TraceLine {
            machine: m.0,
            ..TraceLine::at(tick, "recover")
        });
        if self.obs.is_active() {
            self.obs
                .event("runtime", "recover", vec![("machine", m.idx().into())]);
        }
        // The machine rejoins as healthy capacity: its vacancy counts
        // toward the return quota again. Mid-plan the bookkeeping waits
        // for `finalize_plan`, which normalizes anyway.
        if self.active.is_none() {
            self.normalize_membership(None);
        }
    }

    fn on_spike_start(&mut self, tick: u64, idx: usize) {
        let FaultSpec::Spike { shard_fraction, .. } = self.cfg.faults[idx] else {
            unreachable!("SpikeStart for a non-spike fault");
        };
        // Hottest shards by CPU demand at spike start, ties by id — the
        // shared selection both engines use, returned in ascending id
        // order so per-machine surcharge sums accumulate in the same
        // float order as the router's. A replay script pins the realized
        // hot set instead (demands may have drifted differently by now).
        let ids = match self.replay.as_ref().and_then(|r| r.spike_shards(idx)) {
            Some(pinned) => pinned.iter().copied().map(ShardId).collect(),
            None => rex_cluster::scenario::hot_set(&self.inst, shard_fraction),
        };
        self.record(TraceLine {
            fault: idx,
            shards: ids.iter().map(|s| s.0).collect(),
            ..TraceLine::at(tick, "spike_start")
        });
        if self.obs.is_active() {
            self.obs.event(
                "runtime",
                "spike_start",
                vec![("fault", idx.into()), ("shards", ids.len().into())],
            );
        }
        self.spikes[idx] = Some(ids);
        self.bus.counters.spikes_started += 1;
    }

    fn on_spike_end(&mut self, tick: u64, idx: usize) {
        if self.spikes[idx].take().is_some() {
            self.bus.counters.spikes_ended += 1;
            self.record(TraceLine {
                fault: idx,
                ..TraceLine::at(tick, "spike_end")
            });
            if self.obs.is_active() {
                self.obs
                    .event("runtime", "spike_end", vec![("fault", idx.into())]);
            }
        }
    }

    fn on_evac_check(&mut self, tick: u64) {
        if !self.any_failed_hosting() {
            return;
        }
        if self.active.is_some() {
            // A plan is in flight (abort pending or an evacuation already
            // running); try again shortly.
            self.queue
                .schedule(tick + self.cfg.controller.poll_interval, Event::EvacCheck);
            return;
        }
        let snapshot = self.build_snapshot();
        let failed = self.failed_list();
        let seed = self.plan_seed();
        match plan_evacuation(
            &snapshot,
            &failed,
            seed,
            self.cfg.copy_bandwidth,
            self.cfg.batch_overhead_ticks,
        ) {
            Ok(pm) if !pm.plan.batches.is_empty() => self.adopt(tick, pm),
            Ok(_) | Err(_) => {
                self.bus.counters.plans_failed += 1;
                if self.obs.is_active() {
                    self.obs
                        .event("runtime", "evac_retry", vec![("seed", seed.into())]);
                }
                self.queue
                    .schedule(tick + self.cfg.controller.poll_interval, Event::EvacCheck);
            }
        }
    }

    fn on_drift(&mut self, tick: u64) {
        let Some(d) = self.cfg.drift else { return };
        if self.active.is_some() {
            // Drifting demands under an in-flight plan would break the
            // snapshot-dominance argument; wait for it to finish.
            self.queue.schedule(tick + 1, Event::Drift);
            return;
        }
        let drift_cfg = DriftConfig {
            sigma: d.sigma,
            target_utilization: d.target_utilization,
        };
        let seed = self
            .cfg
            .seed
            .wrapping_mul(0xD1F7)
            .wrapping_add(self.bus.counters.drift_epochs);
        let placement = self.inst.initial.clone();
        match next_epoch(&self.inst, &placement, &drift_cfg, seed) {
            Ok((mut inst, _clamped)) => {
                inst.label = self.base_label.clone();
                self.inst = inst;
                // Demands changed under the shards' feet; rebuild usage.
                self.asg = Assignment::from_initial(&self.inst);
                self.bus.counters.drift_epochs += 1;
                if self.obs.is_active() {
                    self.obs.event(
                        "runtime",
                        "drift",
                        vec![("epoch", self.bus.counters.drift_epochs.into())],
                    );
                }
            }
            Err(_) => {
                // Extremely unlikely (next_epoch clamps); skip this epoch.
            }
        }
        let next = tick + d.every_ticks;
        if next < self.cfg.ticks {
            self.queue.schedule(next, Event::Drift);
        }
    }

    fn on_popularity(&mut self, tick: u64) {
        let Some(p) = self.cfg.popularity else { return };
        if self.active.is_some() {
            // Same snapshot-dominance argument as drift: never reshape
            // demands under an in-flight plan.
            self.queue.schedule(tick + 1, Event::Popularity);
            return;
        }
        let epoch = self.bus.counters.popularity_epochs;
        let Some(walk) = self.popwalk.as_mut() else {
            return;
        };
        match self
            .replay
            .as_ref()
            .and_then(|r| r.popularity_ranks(epoch as usize))
        {
            Some(pinned) => walk.set_ranks(pinned.to_vec()),
            None => {
                let seed = self.cfg.seed.wrapping_mul(0x2B5D).wrapping_add(epoch);
                walk.step(p.swaps_per_epoch, seed);
            }
        }
        let ranks = walk.ranks().to_vec();
        let placement = self.inst.initial.clone();
        match apply_popularity(&self.inst, &placement, walk, p.target_utilization) {
            Ok((mut inst, _clamped)) => {
                inst.label = self.base_label.clone();
                self.inst = inst;
                // Demands changed under the shards' feet; rebuild usage.
                self.asg = Assignment::from_initial(&self.inst);
                self.bus.counters.popularity_epochs += 1;
                self.record(TraceLine {
                    ranks,
                    ..TraceLine::at(tick, "popularity")
                });
                if self.obs.is_active() {
                    self.obs.event(
                        "runtime",
                        "popularity",
                        vec![("epoch", self.bus.counters.popularity_epochs.into())],
                    );
                }
            }
            Err(_) => {
                // Extremely unlikely (apply_popularity clamps); skip this
                // epoch.
            }
        }
        let next = tick + p.every_ticks;
        if next < self.cfg.ticks {
            self.queue.schedule(next, Event::Popularity);
        }
    }

    // ---- helpers ----------------------------------------------------------

    fn failed_list(&self) -> Vec<MachineId> {
        (0..self.inst.n_machines())
            .map(MachineId::from)
            .filter(|m| self.failed[m.idx()])
            .collect()
    }

    fn any_failed_hosting(&self) -> bool {
        (0..self.inst.n_machines())
            .any(|m| self.failed[m] && !self.asg.shards_on(MachineId::from(m)).is_empty())
    }

    fn refresh_serving(&mut self) {
        for m in 0..self.inst.n_machines() {
            self.serving[m] = !self.asg.shards_on(MachineId::from(m)).is_empty();
        }
    }

    fn refresh_spike_cpu(&mut self) {
        for x in self.spike_cpu.iter_mut() {
            *x = 0.0;
        }
        let placement = self.asg.placement();
        for (idx, state) in self.spikes.iter().enumerate() {
            let Some(shards) = state else { continue };
            let FaultSpec::Spike { factor, .. } = self.cfg.faults[idx] else {
                continue;
            };
            for &s in shards {
                let m = placement[s.idx()].idx();
                self.spike_cpu[m] += (factor - 1.0) * self.inst.demand(s)[0];
            }
        }
    }

    /// A validated snapshot for planning: live demands with active spikes
    /// baked in, so the solver plans against the *worst case* it could
    /// execute under.
    ///
    /// The dominance invariant — every snapshot demand ≥ the corresponding
    /// live demand — is what makes snapshot-verified plans safe to execute
    /// live, so the spike extra is capped by each machine's CPU *headroom*
    /// rather than shrinking the machine's shards proportionally (which
    /// would push unspiked shards below their live demand and break the
    /// invariant). Live usage always fits capacity, so capping only the
    /// extra keeps the snapshot both valid and dominating.
    fn build_snapshot(&self) -> Instance {
        let mut s = self.inst.clone();
        // Desired spike extra per shard (CPU dim 0); a shard hit by
        // overlapping spikes compounds their factors.
        let mut extra = vec![0.0f64; s.n_shards()];
        let mut spiked = false;
        for (idx, state) in self.spikes.iter().enumerate() {
            let Some(shards) = state else { continue };
            let FaultSpec::Spike { factor, .. } = self.cfg.faults[idx] else {
                continue;
            };
            for &sid in shards {
                let live = s.shards[sid.idx()].demand[0];
                extra[sid.idx()] = (live + extra[sid.idx()]) * factor - live;
                spiked = true;
            }
        }
        if spiked {
            for mi in 0..s.n_machines() {
                let cap = s.machines[mi].capacity[0];
                let on_m = |i: &usize| s.initial[*i].idx() == mi;
                let used: f64 = (0..s.n_shards())
                    .filter(on_m)
                    .map(|i| s.shards[i].demand[0])
                    .sum();
                let want: f64 = (0..s.n_shards()).filter(on_m).map(|i| extra[i]).sum();
                if want <= 0.0 {
                    continue;
                }
                let headroom = (cap - used).max(0.0);
                let scale = (headroom / want * 0.999).min(1.0);
                for i in (0..s.n_shards()).filter(on_m) {
                    s.shards[i].demand[0] += extra[i] * scale;
                }
            }
        }
        debug_assert!(s.validate().is_ok(), "snapshot must validate");
        s
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
    use crate::config::{ControllerConfig, DriftSpec};
    use rex_workload::synthetic::{generate, Placement, SynthConfig};

    fn hotspot(seed: u64) -> Instance {
        generate(&SynthConfig {
            n_machines: 10,
            n_exchange: 2,
            n_shards: 80,
            stringency: 0.65,
            alpha: 0.1,
            placement: Placement::Hotspot(0.35),
            seed,
            ..Default::default()
        })
        .unwrap()
    }

    fn short_cfg(policy: ControllerPolicy) -> RuntimeConfig {
        RuntimeConfig {
            ticks: 1_500,
            seed: 7,
            controller: ControllerConfig {
                policy,
                poll_interval: 25,
                window: 2,
                cooldown_ticks: 200,
                sra_iters: 400,
                ..Default::default()
            },
            ..Default::default()
        }
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

    #[test]
    fn same_seed_runs_are_byte_identical() {
        let run = || {
            let mut cfg = short_cfg(ControllerPolicy::Sra);
            cfg.faults = vec![
                FaultSpec::Crash {
                    at: 400,
                    machine: 1,
                    recover_at: Some(900),
                },
                FaultSpec::Spike {
                    at: 600,
                    duration: 200,
                    factor: 1.5,
                    shard_fraction: 0.1,
                },
            ];
            cfg.drift = Some(DriftSpec {
                every_ticks: 300,
                sigma: 0.15,
                target_utilization: 0.6,
            });
            Simulation::new(hotspot(11), cfg).run().to_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let mut cfg = short_cfg(ControllerPolicy::Sra);
            cfg.seed = seed;
            Simulation::new(hotspot(11), cfg).run().to_json()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn off_policy_never_rebalances_for_load() {
        let e = Simulation::new(hotspot(12), short_cfg(ControllerPolicy::Off)).run();
        assert_eq!(e.counters.rebalances_triggered, 0);
        assert_eq!(e.counters.rebalances_completed, 0);
        assert!(e.counters.queries_arrived > 0);
        assert!(e.latency.count > 0);
    }

    #[test]
    fn slow_plan_does_not_double_trigger_on_completion() {
        // Regression: samples recorded while a plan was in flight used to
        // refill the trigger window `note_trigger` had cleared, so the
        // first poll after a slow plan completed re-triggered on stale
        // in-flight peaks. Here a flash crowd burns out mid-flight (spike
        // ticks 60..100, plan ticks 50..119 at this seed): before the fix
        // the window still held the spiked samples at completion and
        // re-triggered at tick 125 — and the solver found nothing to do
        // (`plan_empty`), proving the trigger was spurious. Fixed, the
        // window restarts empty at completion and the run triggers once.
        let cfg = RuntimeConfig {
            ticks: 1_000,
            seed: 7,
            copy_bandwidth: 0.02,
            faults: vec![FaultSpec::Spike {
                at: 60,
                duration: 40,
                factor: 2.0,
                shard_fraction: 0.05,
            }],
            controller: ControllerConfig {
                policy: ControllerPolicy::Sra,
                poll_interval: 25,
                window: 4,
                cooldown_ticks: 40,
                sra_iters: 400,
                ..Default::default()
            },
            ..Default::default()
        };
        let e = Simulation::new(hotspot(3), cfg).run();
        assert_eq!(
            e.counters.rebalances_triggered, 1,
            "stale in-flight samples must not re-trigger after completion"
        );
        assert_eq!(e.counters.rebalances_completed, 1);
        assert_eq!(e.counters.transient_violations, 0);
    }

    #[test]
    fn sra_controller_rebalances_a_hotspot() {
        let e = Simulation::new(hotspot(13), short_cfg(ControllerPolicy::Sra)).run();
        assert!(e.counters.rebalances_triggered > 0, "hotspot must trigger");
        assert!(e.counters.moves_committed > 0);
        assert_eq!(e.counters.transient_violations, 0);
        assert!(e.final_report.peak < e.initial_report.peak);
    }

    #[test]
    fn crash_is_evacuated_and_drained() {
        let mut cfg = short_cfg(ControllerPolicy::Off);
        cfg.ticks = 2_000;
        cfg.faults = vec![FaultSpec::Crash {
            at: 100,
            machine: 0,
            recover_at: None,
        }];
        let inst = hotspot(14);
        assert!(
            inst.initial.contains(&MachineId(0)),
            "test premise: machine 0 hosts shards"
        );
        let e = Simulation::new(inst, cfg).run();
        assert!(e.counters.evacuations >= 1);
        assert_eq!(e.counters.transient_violations, 0);
        let last = e.gauges.last().unwrap();
        assert_eq!(last.failed_machines, 1);
        // Degradation happened, then stopped once drained.
        assert!(e.counters.queries_degraded > 0);
        assert!(e.counters.queries_degraded < e.counters.queries_arrived);
    }

    #[test]
    fn crash_mid_migration_aborts_and_replans() {
        // Crash right when the SRA controller is likely mid-plan; whatever
        // the timing, the run must finish with the machine drained and no
        // transient violations.
        let mut cfg = short_cfg(ControllerPolicy::Sra);
        cfg.ticks = 2_500;
        cfg.copy_bandwidth = 0.05; // long batches → crash lands mid-flight
        cfg.faults = vec![FaultSpec::Crash {
            at: 300,
            machine: 2,
            recover_at: None,
        }];
        let e = Simulation::new(hotspot(15), cfg).run();
        assert_eq!(e.counters.transient_violations, 0);
        assert!(e.counters.crashes == 1);
        assert!(e.counters.evacuations >= 1);
    }

    #[test]
    fn traced_run_matches_plain_run_and_narrates_decisions() {
        let mk = || {
            let mut cfg = short_cfg(ControllerPolicy::Sra);
            cfg.faults = vec![
                FaultSpec::Crash {
                    at: 400,
                    machine: 1,
                    recover_at: Some(900),
                },
                FaultSpec::Spike {
                    at: 600,
                    duration: 200,
                    factor: 1.5,
                    shard_fraction: 0.1,
                },
            ];
            Simulation::new(hotspot(11), cfg)
        };
        let plain = mk().run().to_json();
        let mut rec = Recorder::active();
        let traced = mk().run_traced(&mut rec).to_json();
        assert_eq!(plain, traced, "tracing must not perturb the run");

        assert_eq!(rec.open_spans(), 0);
        assert!(rec.is_active());
        let names: Vec<&str> = rec.events().iter().map(|e| e.name).collect();
        assert_eq!(names.first(), Some(&"simulate"));
        assert_eq!(names.last(), Some(&"simulate"));
        for expected in [
            "trigger",
            "plan_adopted",
            "plan_start",
            "batch",
            "plan_done",
            "crash",
            "recover",
            "spike_start",
            "spike_end",
        ] {
            assert!(
                names.contains(&expected),
                "missing runtime event {expected}"
            );
        }
        // Counters in the trace agree with the metrics bus.
        let export = mk().run();
        assert_eq!(
            rec.counter("runtime.triggers"),
            export.counters.rebalances_triggered
        );
        assert_eq!(rec.counter("runtime.crashes"), export.counters.crashes);
    }

    #[test]
    fn traced_runs_are_byte_identical() {
        let mk = || {
            let mut cfg = short_cfg(ControllerPolicy::Sra);
            cfg.drift = Some(DriftSpec {
                every_ticks: 300,
                sigma: 0.15,
                target_utilization: 0.6,
            });
            Simulation::new(hotspot(11), cfg)
        };
        let mut ra = Recorder::active();
        let _ = mk().run_traced(&mut ra);
        let mut rb = Recorder::active();
        let _ = mk().run_traced(&mut rb);
        assert_eq!(ra.to_jsonl(), rb.to_jsonl());
        assert_eq!(ra.summary(), rb.summary());
        assert!(!ra.to_jsonl().is_empty());
    }

    #[test]
    fn spike_and_drift_keep_the_loop_safe() {
        let mut cfg = short_cfg(ControllerPolicy::Sra);
        cfg.faults = vec![FaultSpec::Spike {
            at: 200,
            duration: 400,
            factor: 2.0,
            shard_fraction: 0.15,
        }];
        cfg.drift = Some(DriftSpec {
            every_ticks: 250,
            sigma: 0.2,
            target_utilization: 0.6,
        });
        let e = Simulation::new(hotspot(16), cfg).run();
        assert_eq!(e.counters.spikes_started, 1);
        assert_eq!(e.counters.spikes_ended, 1);
        assert!(e.counters.drift_epochs > 0);
        assert_eq!(e.counters.transient_violations, 0);
    }

    /// A fleet where one shard alone dominates its machine, plus light
    /// background load everywhere else.
    fn one_hot(hot_demand: f64) -> Instance {
        let mut b = rex_cluster::InstanceBuilder::new(1)
            .alpha(0.1)
            .label("one-hot");
        let machines: Vec<MachineId> = (0..6).map(|_| b.machine(&[100.0])).collect();
        b.exchange_machine(&[100.0]);
        b.exchange_machine(&[100.0]);
        b.shard(&[hot_demand], 8.0, machines[0]);
        for i in 0..15 {
            b.shard(&[6.0], 2.0, machines[1 + i % 5]);
        }
        b.build().unwrap()
    }

    fn hotshard_cfg() -> RuntimeConfig {
        RuntimeConfig {
            ticks: 1_500,
            seed: 9,
            controller: ControllerConfig {
                policy: ControllerPolicy::Off,
                ..Default::default()
            },
            hotshard: crate::hotshard::HotShardConfig {
                enabled: true,
                poll_interval: 20,
                ewma_alpha: 0.4,
                delta_iters: 400,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn hotshard_splits_dominant_shard_and_sheds_load() {
        // One indivisible 55%-of-machine shard: no whole-shard migration
        // can fix m0, only a split followed by a delta migration can.
        let e = Simulation::new(one_hot(55.0), hotshard_cfg()).run();
        assert!(e.counters.shard_splits >= 1, "no split: {:?}", e.counters);
        assert!(
            e.counters.hotshard_migrations >= 1,
            "no delta migration completed: {:?}",
            e.counters
        );
        assert_eq!(e.counters.transient_violations, 0);
        let last = e.gauges.last().unwrap();
        assert!(
            last.shards > 16,
            "shard count did not grow: {}",
            last.shards
        );
        // m0 held 0.55 + background; after the split one half moved away.
        assert!(
            last.peak_util < 0.50,
            "peak did not drop below the pre-split level: {}",
            last.peak_util
        );
    }

    #[test]
    fn hotshard_merges_cold_siblings_after_spike_ends() {
        // Statically warm (0.30) shard pushed over the split threshold by
        // a flash crowd; once the crowd passes, both halves cool below the
        // merge threshold and the pair merges back.
        let mut cfg = hotshard_cfg();
        cfg.faults = vec![FaultSpec::Spike {
            at: 100,
            duration: 300,
            factor: 2.0,
            shard_fraction: 0.01, // hottest shard only
        }];
        cfg.ticks = 3_000;
        let e = Simulation::new(one_hot(30.0), cfg).run();
        assert!(e.counters.shard_splits >= 1, "no split: {:?}", e.counters);
        assert!(e.counters.shard_merges >= 1, "no merge: {:?}", e.counters);
        assert_eq!(e.counters.transient_violations, 0);
        let last = e.gauges.last().unwrap();
        assert_eq!(
            last.shards, 16,
            "fleet did not return to its original shape"
        );
    }

    #[test]
    fn hotshard_runs_are_deterministic_and_trace_never_perturbs() {
        let run = || {
            Simulation::new(one_hot(55.0), hotshard_cfg())
                .run()
                .to_json()
        };
        assert_eq!(run(), run());
        let mut rec = Recorder::active();
        let traced = Simulation::new(one_hot(55.0), hotshard_cfg())
            .run_traced(&mut rec)
            .to_json();
        assert_eq!(run(), traced, "tracing perturbed a hot-shard run");
        let mut rec2 = Recorder::active();
        let _ = Simulation::new(one_hot(55.0), hotshard_cfg()).run_traced(&mut rec2);
        assert_eq!(rec.to_jsonl(), rec2.to_jsonl(), "same-seed traces diverged");
    }

    /// A one-dimensional fleet shaped like the differential scenarios.
    fn scenario_fleet(seed: u64, hotspot: bool) -> Instance {
        generate(&SynthConfig {
            n_machines: 8,
            n_exchange: if hotspot { 2 } else { 0 },
            n_shards: 64,
            dims: 1,
            stringency: 0.4,
            placement: if hotspot {
                Placement::Hotspot(0.35)
            } else {
                Placement::BalancedBfd
            },
            seed,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn sampled_fanout_mode_is_deterministic_and_spikes_scale_arrivals() {
        let spec = rex_cluster::ScenarioSpec {
            ticks: 300,
            qps_per_tick: 4.0,
            ..Default::default()
        };
        let calm = Simulation::from_scenario(scenario_fleet(3, false), &spec).run();
        assert!(calm.counters.queries_arrived > 600, "300 ticks at 4 qpt");
        assert_eq!(
            calm.counters.queries_sampled, calm.counters.queries_arrived,
            "scenario lowering samples every arrival"
        );
        let a = Simulation::from_scenario(scenario_fleet(3, false), &spec)
            .run()
            .to_json();
        assert_eq!(a, calm.to_json(), "same scenario must reproduce");
        // A flash crowd scales the arrival rate by the weight ratio.
        let spiked_spec = rex_cluster::ScenarioSpec {
            spike: Some(rex_cluster::SpikeSpec {
                at_tick: 50,
                duration_ticks: 200,
                factor: 3.0,
                shard_fraction: 0.2,
            }),
            ..spec
        };
        let spiked = Simulation::from_scenario(scenario_fleet(3, false), &spiked_spec).run();
        assert!(
            spiked.counters.queries_arrived > calm.counters.queries_arrived,
            "hot shards must arrive more often: {} vs {}",
            spiked.counters.queries_arrived,
            calm.counters.queries_arrived
        );
        assert!(spiked.latency.p99 > calm.latency.p99);
    }

    #[test]
    fn event_mode_runs_deterministically_over_the_same_scenario() {
        let spec = rex_cluster::ScenarioSpec {
            ticks: 200,
            qps_per_tick: 4.0,
            ..Default::default()
        };
        let run = || {
            Simulation::from_scenario_event(
                scenario_fleet(3, false),
                &spec,
                PolicyKind::RoundRobin,
                false,
            )
            .run()
        };
        let e = run();
        assert!(e.counters.queries_arrived > 400);
        assert!(e.latency.count > 0);
        assert_eq!(e.to_json(), run().to_json());
    }

    #[test]
    fn event_mode_mirrors_moves_through_spike_crash_and_sra() {
        // The strongest lockstep check in the crate: every gauge sample
        // runs the bitwise load-parity assertion while the controller
        // evacuates a crash, SRA rebalances a hotspot, and a flash crowd
        // moves surcharge around — any drift between the Assignment and
        // the router replica map panics the run.
        let spec = rex_cluster::ScenarioSpec {
            ticks: 600,
            qps_per_tick: 4.0,
            spike: Some(rex_cluster::SpikeSpec {
                at_tick: 100,
                duration_ticks: 200,
                factor: 2.0,
                shard_fraction: 0.1,
            }),
            crash: Some(rex_cluster::CrashSpec {
                at_tick: 300,
                machine: 1,
                recover_at_tick: Some(500),
            }),
            sra: Some(rex_cluster::SraSpec {
                every_ticks: 50,
                iters: 300,
            }),
            ..Default::default()
        };
        let e = Simulation::from_scenario_event(
            scenario_fleet(7, true),
            &spec,
            PolicyKind::PowerOfD,
            false,
        )
        .run();
        assert_eq!(e.counters.crashes, 1);
        assert_eq!(e.counters.spikes_started, 1);
        assert!(
            e.counters.moves_committed > 0,
            "the evacuation moves shards"
        );
        assert!(
            e.counters.queries_degraded > 0,
            "crash degrades until drained"
        );
        assert_eq!(e.counters.transient_violations, 0);
    }

    #[test]
    fn ewma_controller_mode_observes_router_latency_and_stays_deterministic() {
        let spec = rex_cluster::ScenarioSpec {
            ticks: 400,
            qps_per_tick: 4.0,
            sra: Some(rex_cluster::SraSpec {
                every_ticks: 50,
                iters: 300,
            }),
            ..Default::default()
        };
        let run = |ewma: bool| {
            Simulation::from_scenario_event(
                scenario_fleet(7, true),
                &spec,
                PolicyKind::PowerOfD,
                ewma,
            )
            .run()
        };
        let a = run(true);
        assert_eq!(a.to_json(), run(true).to_json());
        // The observed-EWMA signal is a different controller input than
        // ground truth, so trigger counts may differ — but the run stays
        // healthy either way.
        assert!(a.counters.queries_arrived > 800);
        assert_eq!(a.counters.transient_violations, 0);
    }

    #[test]
    fn crash_cancels_in_flight_hotshard_operators() {
        // The split fires at the first poll (tick 20) and its follow-up
        // delta migration flies for ~80 ticks at this bandwidth; a crash
        // at tick 50 lands mid-flight and must cancel the operator.
        let mut cfg = hotshard_cfg();
        cfg.copy_bandwidth = 0.05;
        cfg.faults = vec![FaultSpec::Crash {
            at: 50,
            machine: 3,
            recover_at: Some(600),
        }];
        let e = Simulation::new(one_hot(55.0), cfg).run();
        assert!(
            e.counters.hotshard_cancelled >= 1,
            "crash did not cancel operators: {:?}",
            e.counters
        );
        assert_eq!(e.counters.transient_violations, 0);
    }

    // ---- workload plane ----------------------------------------------------

    /// A 3-generation fleet on 3 racks with a rack crash, a flash crowd,
    /// and (optionally) a drifting-Zipfian load script — the full workload
    /// plane in one spec.
    fn heterogeneous_workload(with_load: bool) -> (Instance, rex_cluster::WorkloadSpec) {
        let w = rex_cluster::WorkloadSpec {
            scenario: rex_cluster::ScenarioSpec {
                ticks: 800,
                seed: 11,
                spike: Some(rex_cluster::SpikeSpec {
                    at_tick: 200,
                    duration_ticks: 100,
                    factor: 1.6,
                    shard_fraction: 0.08,
                }),
                sra: Some(rex_cluster::SraSpec {
                    every_ticks: 100,
                    iters: 300,
                }),
                ..Default::default()
            },
            fleet: Some(rex_cluster::FleetSpec {
                generations: vec![
                    rex_cluster::GenerationSpec {
                        name: "gen-a".into(),
                        count: 4,
                        scale: 1.0,
                    },
                    rex_cluster::GenerationSpec {
                        name: "gen-b".into(),
                        count: 4,
                        scale: 2.0,
                    },
                    rex_cluster::GenerationSpec {
                        name: "gen-c".into(),
                        count: 4,
                        scale: 4.0,
                    },
                ],
                exchange: 2,
                exchange_scale: 4.0,
                racks: 3,
            }),
            load: with_load.then_some(rex_cluster::LoadScriptSpec {
                diurnal_amplitude: 0.2,
                ticks_per_hour: 200,
                zipf_alpha: 0.9,
                drift_every_ticks: 150,
                swaps_per_epoch: 40,
                target_utilization: 0.6,
            }),
            rack_crashes: vec![rex_cluster::RackCrashSpec {
                at_tick: 350,
                rack: 1,
                recover_at_tick: Some(600),
            }],
        };
        let inst = rex_workload::generate_workload(
            &w,
            &SynthConfig {
                n_shards: 96,
                stringency: 0.65,
                alpha: 0.1,
                ..Default::default()
            },
        )
        .unwrap();
        (inst, w)
    }

    #[test]
    fn workload_popularity_and_rack_crashes_run_deterministically() {
        let run = || {
            let (inst, w) = heterogeneous_workload(true);
            Simulation::from_workload(inst, &w).run()
        };
        let e = run();
        assert_eq!(e.to_json(), run().to_json());
        assert!(
            e.counters.popularity_epochs > 0,
            "the load script must drive popularity epochs: {:?}",
            e.counters
        );
        // Rack 1 of 3 over 12 machines crashes machines 4..8 as one clause.
        assert_eq!(e.counters.crashes, 4);
        assert_eq!(e.counters.recoveries, 4);
        assert_eq!(e.counters.transient_violations, 0);
    }

    #[test]
    fn recording_never_perturbs_and_replay_is_byte_identical() {
        let (inst, w) = heterogeneous_workload(true);
        let plain = Simulation::from_workload(inst.clone(), &w).run().to_json();
        let (recorded, lines) =
            Simulation::from_workload(inst.clone(), &w).run_recorded(&mut Recorder::noop());
        assert_eq!(
            plain,
            recorded.to_json(),
            "recording must be an append-only side channel"
        );
        assert!(
            lines.iter().any(|l| l.kind == "popularity"),
            "trace must capture popularity epochs"
        );
        assert!(lines.iter().any(|l| l.kind == "crash"));
        assert!(lines.iter().any(|l| l.kind == "spike_start"));
        // Round-trip the trace through its JSONL file form, then replay.
        let text = crate::trace::write_jsonl(&w, &inst, &lines);
        let (w2, inst2, lines2) = crate::trace::parse_jsonl(&text).unwrap();
        let mut sim = Simulation::from_workload(inst2, &w2);
        sim.set_replay(ReplayScript::from_lines(&lines2));
        assert_eq!(
            plain,
            sim.run().to_json(),
            "a replayed trace must reproduce the run byte for byte"
        );
    }

    #[test]
    fn workload_replays_through_the_event_engine_too() {
        let (inst, w) = heterogeneous_workload(false);
        let run = |replay: Option<ReplayScript>| {
            let mut sim =
                Simulation::from_workload_event(inst.clone(), &w, PolicyKind::PowerOfD, false);
            if let Some(script) = replay {
                sim.set_replay(script);
            }
            sim.run_recorded(&mut Recorder::noop())
        };
        let (original, lines) = run(None);
        assert_eq!(original.counters.crashes, 4);
        assert!(original.counters.spikes_started > 0);
        let (replayed, _) = run(Some(ReplayScript::from_lines(&lines)));
        assert_eq!(
            original.to_json(),
            replayed.to_json(),
            "event-engine replay must reproduce the run byte for byte"
        );
    }

    #[test]
    #[should_panic(expected = "load-script")]
    fn event_engine_rejects_load_scripts() {
        let (inst, w) = heterogeneous_workload(true);
        let _ = Simulation::from_workload_event(inst, &w, PolicyKind::PowerOfD, false);
    }
}
