//! The closed-loop simulation: one control brain — the event loop, the
//! rebalance controller, the migration executor, faults, the metrics bus —
//! over the planes it calls through one seam each: where queries come from
//! (`arrivals`: the tick or the event engine) and the hot-shard control
//! plane ([`crate::hotshard`]). Both see the cluster through `LiveCluster`.
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
//! as-is. `Simulation::normalize_membership` restores the invariant after
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

mod arrivals;

use crate::config::{ControllerPolicy, FaultSpec, RuntimeConfig};
use crate::controller::{plan_evacuation, plan_load_rebalance, Controller};
use crate::events::{Event, EventQueue};
use crate::exec::{MigrationKind, PlannedMigration};
use crate::hotshard::{HotShardPlane, PlaneCtx};
use crate::metrics::{Counters, GaugeSample, LatencySummary, MetricsExport, RunMeta};
use crate::server::{diurnal_multiplier, effective_rho};
use crate::trace::{ReplayScript, TraceLine};
use arrivals::{ArrivalPlane, EventBackend, TickArrivals};
use rex_cluster::migration::batch_footprint;
use rex_cluster::{
    Assignment, BalanceReport, Instance, MachineId, ResourceVec, ScenarioSpec, ShardId,
    WorkloadSpec,
};
use rex_obs::Recorder;
use rex_router::{PolicyKind, Router, RouterConfig};
use rex_workload::evolve::{next_epoch, DriftConfig};
use rex_workload::popularity::{apply_popularity, PopularityWalk};

/// Ticks between gauge samples.
const SAMPLE_INTERVAL: u64 = 10;

/// Ticks between a rebalance decision and its first batch starting: the
/// decision-to-action gap of a real control loop.
const PLAN_LATENCY_TICKS: u64 = 2;

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

/// The live cluster: the state the control brain mutates and the planes
/// observe. The arrival plane reads it (`&LiveCluster` is the *view* its
/// seam methods take); the hot-shard plane also reshapes it (split/merge).
pub(crate) struct LiveCluster {
    pub cfg: RuntimeConfig,
    pub inst: Instance,
    pub asg: Assignment,
    /// Per-machine failure flags.
    pub failed: Vec<bool>,
    /// Per-fault spike state: `Some(shards)` while that spike is active.
    pub spikes: Vec<Option<Vec<ShardId>>>,
    /// In-flight copy footprint per machine (zero outside batches).
    pub transient: Vec<ResourceVec>,
    /// Moves whenever a shard's demand or the active spike set changes
    /// (spike start and end, a demand epoch, a split, a merge); the tick
    /// plane rebuilds its arrival weights only then.
    pub demand_epoch: u64,
    /// Monotonic solve-attempt counter; seeds each planning call.
    plan_attempts: u64,
}

/// The discrete-event closed-loop simulator: one control brain over an
/// arrival plane and an optional hot-shard plane (DESIGN.md §7).
pub struct Simulation {
    live: LiveCluster,
    queue: EventQueue,
    controller: Controller,
    active: Option<ActivePlan>,
    abort_requested: bool,
    /// Monotonic plan id source.
    next_plan_id: u64,
    /// The metrics bus: event counters and the gauge time series.
    counters: Counters,
    gauges: Vec<GaugeSample>,
    /// Trace recorder ([`Recorder::Noop`] unless [`Simulation::run_traced`]
    /// installs an active one); narrates controller decisions, migration
    /// progress, and fault injection on the `"runtime"` layer.
    obs: Recorder,
    initial_report: BalanceReport,
    base_label: String,
    /// The exchange loan size fixed at construction; rotation never grows it.
    loan_k: usize,
    /// Where queries and latency samples come from (tick or event engine).
    arrivals: ArrivalPlane,
    /// The hot-shard control plane; `None` when disabled.
    hotshard: Option<HotShardPlane>,
    /// The popularity rank walk (present iff `cfg.popularity` is).
    popwalk: Option<PopularityWalk>,
    /// Recorded workload-trace lines, `Some` under
    /// [`Simulation::run_recorded`] (append-only; never perturbs the run).
    wtrace: Option<Vec<TraceLine>>,
    /// Pinned realizations from a replayed trace, if any.
    replay: Option<ReplayScript>,
    // Gauge scratch buffers reused across samples.
    rho: Vec<f64>,
    spike_cpu: Vec<f64>,
}

impl Simulation {
    /// Builds a simulation over `inst`.
    ///
    /// # Errors
    ///
    /// The message of [`RuntimeConfig::validate_for`] (an out-of-range
    /// setting, a fault naming a machine past the fleet), else that of
    /// [`Instance::validate`].
    pub fn try_new(inst: Instance, cfg: RuntimeConfig) -> Result<Self, String> {
        cfg.validate_for(inst.n_machines())?;
        inst.validate().map_err(|e| e.to_string())?;
        let live = LiveCluster::new(inst, cfg);
        let (inst, cfg) = (&live.inst, &live.cfg);
        Ok(Self {
            initial_report: BalanceReport::compute(inst, &live.asg),
            base_label: inst.label.clone(),
            loan_k: inst.k_return,
            queue: EventQueue::new(),
            controller: Controller::new(cfg.controller),
            active: None,
            abort_requested: false,
            next_plan_id: 0,
            counters: Counters::default(),
            gauges: Vec::new(),
            obs: Recorder::noop(),
            arrivals: ArrivalPlane::Tick(TickArrivals::new(cfg.seed)),
            hotshard: HotShardPlane::new(&cfg.hotshard, inst.n_shards()),
            popwalk: cfg
                .popularity
                .map(|p| PopularityWalk::new(inst.n_shards(), p.zipf_alpha)),
            wtrace: None,
            replay: None,
            rho: Vec::new(),
            spike_cpu: Vec::new(),
            live,
        })
    }

    /// [`Simulation::try_new`] for configurations known to be valid.
    ///
    /// # Panics
    ///
    /// On everything [`Simulation::try_new`] rejects, with its message.
    pub fn new(inst: Instance, cfg: RuntimeConfig) -> Self {
        Self::try_new(inst, cfg).unwrap_or_else(|e| panic!("{e}"))
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
    ///
    /// The run (not this constructor) panics in its gauge-parity check if
    /// the scenario's flash crowd starts at tick 0 or 1: the event engine
    /// orders tick 0 differently from the tick engine (DESIGN.md §14), so
    /// the earliest spike tick it accepts is 2. `rex converge` rejects an
    /// earlier one with an error.
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
        let cfg = &sim.live.cfg;
        debug_assert!(
            sim.hotshard.is_none() && cfg.drift.is_none() && cfg.popularity.is_none(),
            "event mode mirrors placement moves only; membership mutation \
             planes must stay off"
        );
        let backend = EventBackend::new(router, &w.scenario, ewma_controller);
        sim.arrivals = ArrivalPlane::Event(Box::new(backend));
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
        self.wtrace = Some(Vec::new());
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
        // Protects the label clone, the one owned field.
        if self.obs.is_active() {
            self.obs.span_open(
                "runtime",
                "simulate",
                &[
                    ("instance", self.base_label.clone().into()),
                    ("policy", self.live.cfg.controller.policy.name().into()),
                    ("seed", self.live.cfg.seed.into()),
                    ("ticks", self.live.cfg.ticks.into()),
                    ("machines", self.live.inst.n_machines().into()),
                    ("shards", self.live.inst.n_shards().into()),
                ],
            );
        }
        self.schedule_initial_events();
        while let Some((tick, event)) = self.queue.pop() {
            if event == Event::End {
                break;
            }
            self.obs.set_tick(tick);
            self.handle(tick, event);
        }
        let (tail, latency) = self.arrivals.finish(&mut self.obs);
        record_arrivals(&mut self.counters, &self.live, tail);
        self.counters.queries_sampled = latency.count();
        self.final_gauge();
        self.obs.set_tick(self.live.cfg.ticks);
        let c = &self.counters;
        self.obs.span_close(
            "runtime",
            "simulate",
            &[
                ("rebalances_triggered", c.rebalances_triggered.into()),
                ("rebalances_completed", c.rebalances_completed.into()),
                ("rebalances_aborted", c.rebalances_aborted.into()),
                ("moves_committed", c.moves_committed.into()),
                ("evacuations", c.evacuations.into()),
                ("transient_violations", c.transient_violations.into()),
            ],
        );
        let trace = self.wtrace.take().unwrap_or_default();
        let export = MetricsExport {
            meta: RunMeta {
                instance: self.base_label.clone(),
                policy: self.live.cfg.controller.policy.name().to_string(),
                seed: self.live.cfg.seed,
                ticks: self.live.cfg.ticks,
            },
            counters: self.counters,
            latency: LatencySummary::of(&latency),
            initial_report: self.initial_report,
            final_report: BalanceReport::compute(&self.live.inst, &self.live.asg),
            gauges: std::mem::take(&mut self.gauges),
        };
        *rec = std::mem::take(&mut self.obs);
        (export, trace)
    }

    /// Appends a realized-workload trace line when recording is on.
    fn record(&mut self, line: TraceLine) {
        if let Some(trace) = self.wtrace.as_mut() {
            trace.push(line);
        }
    }

    fn schedule_initial_events(&mut self) {
        let cfg = &self.live.cfg;
        self.queue.schedule(0, Event::Arrivals);
        self.queue.schedule(0, Event::Sample);
        if cfg.controller.policy != ControllerPolicy::Off {
            self.queue
                .schedule(cfg.controller.poll_interval, Event::ControllerPoll);
        }
        if self.hotshard.is_some() {
            self.queue
                .schedule(cfg.hotshard.poll_interval, Event::HotShardPoll);
        }
        for (i, f) in cfg.faults.iter().enumerate() {
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
        if let Some(d) = cfg.drift {
            self.queue.schedule(d.every_ticks, Event::Drift);
        }
        if let Some(p) = cfg.popularity {
            self.queue.schedule(p.every_ticks, Event::Popularity);
        }
        self.queue.schedule(cfg.ticks, Event::End);
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
        let arrived = self.arrivals.arrive(tick, &self.live, &mut self.obs);
        record_arrivals(&mut self.counters, &self.live, arrived);
        if tick + 1 < self.live.cfg.ticks {
            self.queue.schedule(tick + 1, Event::Arrivals);
        }
    }

    // ---- observation ------------------------------------------------------

    fn on_sample(&mut self, tick: u64) {
        self.push_gauge(tick);
        let next = tick + SAMPLE_INTERVAL;
        if next < self.live.cfg.ticks {
            self.queue.schedule(next, Event::Sample);
        }
    }

    /// Steady per-machine load: hosted demand plus active spike CPU, no
    /// diurnal multiplier and no copy overhead — the quantity the balancer
    /// can actually act on.
    fn steady_load(&self, m: usize) -> f64 {
        let cap = &self.live.inst.machines[m].capacity;
        let usage = self.live.asg.usage(MachineId::from(m));
        let mut load = (usage[0] + self.spike_cpu[m]) / cap[0];
        for d in 1..self.live.inst.dims {
            load = load.max(usage[d] / cap[d]);
        }
        load
    }

    fn push_gauge(&mut self, tick: u64) {
        self.live.spike_cpu(&mut self.spike_cpu);
        let mut peak = 0.0f64;
        let mut occupied_sum = 0.0f64;
        let mut occupied = 0usize;
        for m in 0..self.live.inst.n_machines() {
            let load = self.steady_load(m);
            peak = peak.max(load);
            if !self.live.asg.shards_on(MachineId::from(m)).is_empty() {
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
        let cfg = &self.live.cfg;
        let mult = diurnal_multiplier(tick, cfg.ticks_per_hour, cfg.diurnal_amplitude);
        effective_rho(
            &self.live.inst,
            &self.live.asg,
            &self.spike_cpu,
            &self.live.transient,
            mult,
            &mut self.rho,
        );
        let effective_peak_rho = self.rho.iter().cloned().fold(0.0, f64::max);
        self.gauges.push(GaugeSample {
            tick,
            peak_util: peak,
            mean_util: mean,
            imbalance,
            effective_peak_rho,
            in_flight_moves: self.active.as_ref().map_or(0, ActivePlan::moves_remaining),
            failed_machines: self.live.failed.iter().filter(|&&f| f).count(),
            shards: self.live.inst.n_shards(),
        });
        let signal = self.arrivals.controller_signal(&self.live, &self.spike_cpu);
        // Feed the controller's trigger window only when no plan is in
        // flight: a slow migration's transient peak would otherwise refill
        // the window and double-trigger the moment the plan completes.
        // Gauges above still record every sample for metrics/export.
        if self.active.is_none() {
            let (p, i) = signal.unwrap_or((peak, imbalance));
            self.controller.observe(p, i);
        }
    }

    /// One last gauge at the horizon so the series always covers the end.
    fn final_gauge(&mut self) {
        if self.gauges.last().map(|g| g.tick) != Some(self.live.cfg.ticks) {
            self.push_gauge(self.live.cfg.ticks);
        }
    }

    // ---- control ----------------------------------------------------------

    fn on_controller_poll(&mut self, tick: u64) {
        let idle = self.active.is_none() && !self.live.any_failed_hosting();
        if idle && self.controller.should_trigger(tick) {
            self.controller.note_trigger(tick);
            self.counters.rebalances_triggered += 1;
            self.obs.event(
                "runtime",
                "trigger",
                &[("policy", self.live.cfg.controller.policy.name().into())],
            );
            self.obs.add("runtime.triggers", 1);
            let snapshot = self.live.build_snapshot();
            let failed = self.live.failed_list();
            let seed = self.live.plan_seed();
            match plan_load_rebalance(
                &self.live.cfg.controller,
                &snapshot,
                &failed,
                seed,
                self.live.cfg.copy_bandwidth,
                self.live.cfg.batch_overhead_ticks,
            ) {
                Ok(pm) if !pm.plan.batches.is_empty() => self.adopt(tick, pm),
                Ok(_) => {
                    // The solver found nothing better than staying put;
                    // count it as a completed (empty) rebalance.
                    self.counters.rebalances_completed += 1;
                    self.obs
                        .event("runtime", "plan_empty", &[("seed", seed.into())]);
                }
                Err(_) => {
                    self.counters.plans_failed += 1;
                    self.obs
                        .event("runtime", "plan_failed", &[("seed", seed.into())]);
                    self.obs.add("runtime.plans_failed", 1);
                }
            }
        }
        let next = tick + self.live.cfg.controller.poll_interval;
        if next < self.live.cfg.ticks {
            self.queue.schedule(next, Event::ControllerPoll);
        }
    }

    fn adopt(&mut self, tick: u64, pm: PlannedMigration) {
        debug_assert!(self.active.is_none());
        if pm.kind == MigrationKind::Evacuation {
            self.counters.evacuations += 1;
        }
        let id = self.next_plan_id;
        self.next_plan_id += 1;
        let moves: usize = pm.plan.batches.iter().map(Vec::len).sum();
        self.obs.event(
            "runtime",
            "plan_adopted",
            &[
                ("plan", id.into()),
                ("kind", pm.kind.name().into()),
                ("batches", pm.plan.batches.len().into()),
                ("moves", moves.into()),
            ],
        );
        self.obs.add("runtime.plans_adopted", 1);
        self.obs.observe("runtime.plan_moves", moves as f64);
        self.active = Some(ActivePlan {
            id,
            pm,
            next_batch: 0,
            started: false,
        });
        self.abort_requested = false;
        let start = tick + PLAN_LATENCY_TICKS;
        self.queue.schedule(start, Event::PlanStart(id));
    }

    // ---- execution --------------------------------------------------------

    fn on_plan_start(&mut self, tick: u64, id: u64) {
        let Some(a) = self.active.as_mut().filter(|a| a.id == id) else {
            return; // plan aborted before it started; stale event
        };
        a.started = true;
        self.obs
            .event("runtime", "plan_start", &[("plan", id.into())]);
        self.start_batch(tick);
    }

    fn start_batch(&mut self, tick: u64) {
        let a = self.active.as_ref().expect("start_batch without a plan");
        let batch = &a.pm.plan.batches[a.next_batch];
        for t in self.live.transient.iter_mut() {
            *t = ResourceVec::zero(self.live.inst.dims);
        }
        batch_footprint(&self.live.inst, batch, &mut self.live.transient);
        // Independent live check of the transient constraint (DESIGN.md §7):
        // steady usage plus the batch footprint must fit every machine.
        for m in 0..self.live.inst.n_machines() {
            let cap = &self.live.inst.machines[m].capacity;
            let usage = self.live.asg.usage(MachineId::from(m));
            if !usage.fits_after_add(&self.live.transient[m], cap) {
                self.counters.transient_violations += 1;
            }
        }
        let duration = a.pm.durations[a.next_batch];
        let id = a.id;
        self.obs.event(
            "runtime",
            "batch",
            &[
                ("plan", id.into()),
                ("index", a.next_batch.into()),
                ("moves", batch.len().into()),
                ("remaining", a.moves_remaining().into()),
                ("duration", duration.into()),
            ],
        );
        self.obs.add("runtime.batches", 1);
        self.queue
            .schedule(tick + duration, Event::BatchComplete(id));
    }

    fn on_batch_complete(&mut self, tick: u64, id: u64) {
        let Some(a) = self.active.as_mut().filter(|a| a.id == id) else {
            return; // stale event of an aborted plan
        };
        let batch = a.pm.plan.batches[a.next_batch].clone();
        a.next_batch += 1;
        let finished = a.next_batch == a.pm.plan.batches.len();
        for mv in &batch {
            self.live.asg.move_shard(&self.live.inst, mv.shard, mv.to);
            self.arrivals.committed(mv);
            self.counters.moves_committed += 1;
            self.counters.migration_traffic += self.live.inst.shards[mv.shard.idx()].move_cost;
        }
        self.counters.batches_executed += 1;
        for t in self.live.transient.iter_mut() {
            *t = ResourceVec::zero(self.live.inst.dims);
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
        self.obs.event(
            "runtime",
            "plan_done",
            &[
                ("plan", a.id.into()),
                ("completed", completed.into()),
                ("kind", a.pm.kind.name().into()),
            ],
        );
        if completed {
            match a.pm.kind {
                MigrationKind::Load => self.counters.rebalances_completed += 1,
                MigrationKind::Evacuation => {}
                MigrationKind::HotShard => self.counters.hotshard_migrations += 1,
            }
        } else {
            self.counters.rebalances_aborted += 1;
        }
        if a.pm.kind == MigrationKind::HotShard {
            if let Some(plane) = self.hotshard.as_mut() {
                plane.plan_finished();
            }
        }
        let mut pool = Vec::new();
        if completed && a.pm.kind == MigrationKind::Load {
            // The resource-exchange cycle: hand the solver's returned
            // machines back to the operator, who immediately re-lends up to
            // `loan_k` vacant machines as the next borrowed set. Preferring
            // the solver's `returned` list and topping up from any other
            // healthy vacancy rebuilds the float after a crash consumed it.
            let live = &self.live;
            let free = |m: &MachineId| !live.failed[m.idx()] && live.asg.shards_on(*m).is_empty();
            pool = a.pm.returned.iter().copied().filter(free).collect();
            for m in (0..live.inst.n_machines()).map(MachineId::from) {
                if !pool.contains(&m) && free(&m) {
                    pool.push(m);
                }
            }
            pool.truncate(self.loan_k);
        }
        // An empty pool keeps the existing flags where still legal.
        self.normalize_membership((!pool.is_empty()).then_some(&pool));
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
        self.live.inst.initial = self.live.asg.placement().to_vec();
        let n = self.live.inst.n_machines();
        let mut flagged = 0usize;
        for m in 0..n {
            let vacant = self.live.asg.shards_on(MachineId::from(m)).is_empty();
            let healthy = !self.live.failed[m];
            let flag = match rotate_to {
                Some(rs) => rs.contains(&MachineId::from(m)),
                None => self.live.inst.machines[m].exchange && vacant && healthy,
            };
            assert!(
                !flag || (vacant && healthy),
                "exchange flag on occupied or failed machine {m} breaks the invariant"
            );
            self.live.inst.machines[m].exchange = flag;
            flagged += flag as usize;
        }
        self.live.inst.k_return = self.loan_k.min(flagged);
        debug_assert!(self.live.inst.validate().is_ok(), "instance must validate");
    }

    // ---- hot-shard control plane ------------------------------------------

    /// One round of the hot-shard plane; a plan it issues is adopted here.
    fn on_hotshard_poll(&mut self, tick: u64) {
        let plane = self.hotshard.as_mut().expect("only an enabled plane polls");
        let cx = &mut PlaneCtx {
            cl: &mut self.live,
            counters: &mut self.counters,
            obs: &mut self.obs,
        };
        if let Some(pm) = plane.poll(tick, self.active.is_none(), cx) {
            self.adopt(tick, pm);
        }
        let next = tick + self.live.cfg.hotshard.poll_interval;
        if next < self.live.cfg.ticks {
            self.queue.schedule(next, Event::HotShardPoll);
        }
    }

    // ---- faults -----------------------------------------------------------

    fn on_crash(&mut self, tick: u64, m: MachineId) {
        if self.live.failed[m.idx()] {
            return;
        }
        self.live.failed[m.idx()] = true;
        self.arrivals.set_failed(m, true);
        self.counters.crashes += 1;
        self.record(TraceLine {
            machine: m.0,
            ..TraceLine::at(tick, "crash")
        });
        self.obs.event(
            "runtime",
            "crash",
            &[
                ("machine", m.idx().into()),
                ("mid_plan", self.active.is_some().into()),
            ],
        );
        self.obs.add("runtime.crashes", 1);
        if let Some(plane) = self.hotshard.as_mut() {
            plane.on_crash(m, &mut self.counters, &mut self.obs);
        }
        if let Some(a) = self.active.as_ref() {
            if a.started {
                // Copies are on the wire: finish the current batch, then
                // abandon the rest of the plan.
                self.abort_requested = true;
            } else {
                // Nothing started yet — drop the plan outright; its
                // PlanStart event goes stale via the id check.
                self.counters.rebalances_aborted += 1;
                self.active = None;
                self.normalize_membership(None);
            }
        }
        self.queue.schedule(tick, Event::EvacCheck);
    }

    fn on_recover(&mut self, tick: u64, m: MachineId) {
        if !self.live.failed[m.idx()] {
            return;
        }
        self.live.failed[m.idx()] = false;
        self.arrivals.set_failed(m, false);
        self.counters.recoveries += 1;
        self.record(TraceLine {
            machine: m.0,
            ..TraceLine::at(tick, "recover")
        });
        self.obs
            .event("runtime", "recover", &[("machine", m.idx().into())]);
        // The machine rejoins as healthy capacity: its vacancy counts
        // toward the return quota again. Mid-plan the bookkeeping waits
        // for `finalize_plan`, which normalizes anyway.
        if self.active.is_none() {
            self.normalize_membership(None);
        }
    }

    fn on_spike_start(&mut self, tick: u64, idx: usize) {
        let FaultSpec::Spike { shard_fraction, .. } = self.live.cfg.faults[idx] else {
            unreachable!("SpikeStart for a non-spike fault");
        };
        // Hottest shards by CPU demand at spike start, ties by id — the
        // shared selection both engines use, returned in ascending id
        // order so per-machine surcharge sums accumulate in the same
        // float order as the router's. A replay script pins the realized
        // hot set instead (demands may have drifted differently by now).
        let ids = match self.replay.as_ref().and_then(|r| r.spike_shards(idx)) {
            Some(pinned) => pinned.iter().copied().map(ShardId).collect(),
            None => rex_cluster::scenario::hot_set(&self.live.inst, shard_fraction),
        };
        self.record(TraceLine {
            fault: idx,
            shards: ids.iter().map(|s| s.0).collect(),
            ..TraceLine::at(tick, "spike_start")
        });
        self.obs.event(
            "runtime",
            "spike_start",
            &[("fault", idx.into()), ("shards", ids.len().into())],
        );
        self.live.spikes[idx] = Some(ids);
        self.live.demand_epoch += 1;
        self.counters.spikes_started += 1;
    }

    fn on_spike_end(&mut self, tick: u64, idx: usize) {
        if self.live.spikes[idx].take().is_some() {
            self.live.demand_epoch += 1;
            self.counters.spikes_ended += 1;
            self.record(TraceLine {
                fault: idx,
                ..TraceLine::at(tick, "spike_end")
            });
            self.obs
                .event("runtime", "spike_end", &[("fault", idx.into())]);
        }
    }

    fn on_evac_check(&mut self, tick: u64) {
        if !self.live.any_failed_hosting() {
            return;
        }
        let retry_at = tick + self.live.cfg.controller.poll_interval;
        if self.active.is_some() {
            // A plan is in flight (abort pending or an evacuation already
            // running); try again shortly.
            self.queue.schedule(retry_at, Event::EvacCheck);
            return;
        }
        let snapshot = self.live.build_snapshot();
        let failed = self.live.failed_list();
        let seed = self.live.plan_seed();
        match plan_evacuation(
            &snapshot,
            &failed,
            seed,
            self.live.cfg.copy_bandwidth,
            self.live.cfg.batch_overhead_ticks,
        ) {
            Ok(pm) if !pm.plan.batches.is_empty() => self.adopt(tick, pm),
            Ok(_) | Err(_) => {
                self.counters.plans_failed += 1;
                self.obs
                    .event("runtime", "evac_retry", &[("seed", seed.into())]);
                self.queue.schedule(retry_at, Event::EvacCheck);
            }
        }
    }

    /// A demand epoch (drift or popularity) re-derived the instance: the
    /// demands changed under the shards' feet, so rebuild usage.
    fn install_demands(&mut self, mut inst: Instance) {
        inst.label = self.base_label.clone();
        self.live.inst = inst;
        self.live.asg = Assignment::from_initial(&self.live.inst);
        self.live.demand_epoch += 1;
    }

    fn on_drift(&mut self, tick: u64) {
        let Some(d) = self.live.cfg.drift else { return };
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
        let epoch = self.counters.drift_epochs;
        let seed = self.live.cfg.seed.wrapping_mul(0xD1F7).wrapping_add(epoch);
        let placement = self.live.inst.initial.clone();
        match next_epoch(&self.live.inst, &placement, &drift_cfg, seed) {
            Ok((inst, _clamped)) => {
                self.install_demands(inst);
                self.counters.drift_epochs += 1;
                self.obs.event(
                    "runtime",
                    "drift",
                    &[("epoch", self.counters.drift_epochs.into())],
                );
            }
            Err(_) => {
                // Extremely unlikely (next_epoch clamps); skip this epoch.
            }
        }
        let next = tick + d.every_ticks;
        if next < self.live.cfg.ticks {
            self.queue.schedule(next, Event::Drift);
        }
    }

    fn on_popularity(&mut self, tick: u64) {
        let (Some(p), Some(walk)) = (self.live.cfg.popularity, self.popwalk.as_mut()) else {
            return;
        };
        if self.active.is_some() {
            // Same snapshot-dominance argument as drift: never reshape
            // demands under an in-flight plan.
            self.queue.schedule(tick + 1, Event::Popularity);
            return;
        }
        let epoch = self.counters.popularity_epochs;
        match self
            .replay
            .as_ref()
            .and_then(|r| r.popularity_ranks(epoch as usize))
        {
            Some(pinned) => walk.set_ranks(pinned.to_vec()),
            None => {
                let seed = self.live.cfg.seed.wrapping_mul(0x2B5D).wrapping_add(epoch);
                walk.step(p.swaps_per_epoch, seed);
            }
        }
        let ranks = walk.ranks().to_vec();
        let placement = self.live.inst.initial.clone();
        match apply_popularity(&self.live.inst, &placement, walk, p.target_utilization) {
            Ok((inst, _clamped)) => {
                self.install_demands(inst);
                self.counters.popularity_epochs += 1;
                self.record(TraceLine {
                    ranks,
                    ..TraceLine::at(tick, "popularity")
                });
                self.obs.event(
                    "runtime",
                    "popularity",
                    &[("epoch", self.counters.popularity_epochs.into())],
                );
            }
            Err(_) => {
                // Extremely unlikely (apply_popularity clamps); skip this
                // epoch.
            }
        }
        let next = tick + p.every_ticks;
        if next < self.live.cfg.ticks {
            self.queue.schedule(next, Event::Popularity);
        }
    }
}

/// Counts one `arrive`/`finish` yield of queries into the metrics bus.
/// Queries that arrive while a failed machine still hosts shards count as
/// degraded.
fn record_arrivals(counters: &mut Counters, live: &LiveCluster, queries: u64) {
    counters.queries_arrived += queries;
    if queries > 0 && live.any_failed_hosting() {
        counters.queries_degraded += queries;
    }
}

impl LiveCluster {
    /// The healthy, calm cluster `inst` starts as.
    pub fn new(inst: Instance, cfg: RuntimeConfig) -> Self {
        let n = inst.n_machines();
        Self {
            asg: Assignment::from_initial(&inst),
            failed: vec![false; n],
            spikes: vec![None; cfg.faults.len()],
            transient: vec![ResourceVec::zero(inst.dims); n],
            demand_epoch: 0,
            plan_attempts: 0,
            inst,
            cfg,
        }
    }

    fn failed_list(&self) -> Vec<MachineId> {
        (0..self.inst.n_machines())
            .map(MachineId::from)
            .filter(|m| self.failed[m.idx()])
            .collect()
    }

    pub fn any_failed_hosting(&self) -> bool {
        (0..self.inst.n_machines())
            .any(|m| self.failed[m] && !self.asg.shards_on(MachineId::from(m)).is_empty())
    }

    /// A fresh deterministic seed per *solve attempt*. Keyed by its own
    /// counter (not the adopted-plan id): a solve that comes back empty or
    /// fails must not hand the identical seed — and therefore the identical
    /// doomed search — to the retry at the next cooldown.
    pub fn plan_seed(&mut self) -> u64 {
        let attempt = self.plan_attempts;
        self.plan_attempts += 1;
        self.cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(attempt)
    }

    /// Active spikes with their factors, in fault order.
    pub fn active_spikes(&self) -> impl Iterator<Item = (f64, &[ShardId])> {
        self.spikes
            .iter()
            .zip(&self.cfg.faults)
            .filter_map(|(state, fault)| match (state, fault) {
                (Some(shards), FaultSpec::Spike { factor, .. }) => Some((*factor, &shards[..])),
                _ => None,
            })
    }

    /// Per-machine extra CPU from active flash crowds, as the gauges and
    /// the service model see it: each spike *adds* `(factor − 1)·d`.
    pub fn spike_cpu(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.inst.n_machines(), 0.0);
        let placement = self.asg.placement();
        for (factor, shards) in self.active_spikes() {
            for &s in shards {
                out[placement[s.idx()].idx()] += (factor - 1.0) * self.inst.demand(s)[0];
            }
        }
    }

    /// Per-shard extra CPU a planner must allow for: a shard hit by
    /// overlapping spikes *compounds* their factors,
    /// `(live + extra)·factor − live` per spike in fault order. That
    /// dominates the additive gauge rule of [`LiveCluster::spike_cpu`]
    /// (`Πfᵢ − 1 ≥ Σ(fᵢ − 1)` for `fᵢ ≥ 1`), which is what dominance of
    /// the planning snapshot over the live cluster needs.
    pub fn spike_extras(&self) -> Vec<f64> {
        let mut extra = vec![0.0f64; self.inst.n_shards()];
        for (factor, shards) in self.active_spikes() {
            for &sid in shards {
                let live = self.inst.demand(sid)[0];
                extra[sid.idx()] = (live + extra[sid.idx()]) * factor - live;
            }
        }
        extra
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
    pub fn build_snapshot(&self) -> Instance {
        let mut s = self.inst.clone();
        let extra = self.spike_extras();
        // One ascending-shard pass per machine total (the order a
        // per-machine scan would add in), then one pass to apply the scale.
        let mut used = vec![0.0f64; s.n_machines()];
        let mut want = vec![0.0f64; s.n_machines()];
        for (i, &x) in extra.iter().enumerate() {
            let m = s.initial[i].idx();
            used[m] += s.shards[i].demand[0];
            want[m] += x;
        }
        for (i, &x) in extra.iter().enumerate() {
            let m = s.initial[i].idx();
            if want[m] <= 0.0 {
                continue;
            }
            let headroom = (s.machines[m].capacity[0] - used[m]).max(0.0);
            let scale = (headroom / want[m] * 0.999).min(1.0);
            s.shards[i].demand[0] += x * scale;
        }
        debug_assert!(s.validate().is_ok(), "snapshot must validate");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_workload::synthetic::{generate, Placement, SynthConfig};

    fn hotspot() -> Instance {
        generate(&SynthConfig {
            n_machines: 10,
            n_exchange: 2,
            n_shards: 80,
            stringency: 0.65,
            alpha: 0.1,
            placement: Placement::Hotspot(0.35),
            seed: 11,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn try_new_returns_what_new_panics_on() {
        let crash = RuntimeConfig {
            faults: vec![FaultSpec::Crash {
                at: 5,
                machine: 99,
                recover_at: None,
            }],
            ..Default::default()
        };
        let e = Simulation::try_new(hotspot(), crash).err().unwrap();
        assert!(e.contains("machine 99") && e.contains("12"), "{e}");
        let mut bad = hotspot();
        bad.k_return = 99;
        let e = Simulation::try_new(bad.clone(), RuntimeConfig::default())
            .err()
            .unwrap();
        assert_eq!(e, bad.validate().unwrap_err().to_string());
        assert!(Simulation::try_new(hotspot(), RuntimeConfig::default()).is_ok());
    }

    #[test]
    fn disabled_hotshard_plane_is_absent_and_never_polls() {
        let polls = |mut sim: Simulation| {
            sim.schedule_initial_events();
            let mut polls = 0;
            while let Some((_, event)) = sim.queue.pop() {
                polls += usize::from(event == Event::HotShardPoll);
            }
            polls
        };
        let off = Simulation::new(hotspot(), RuntimeConfig::default());
        assert!(off.hotshard.is_none(), "no placeholder plane when disabled");
        assert_eq!(polls(off), 0);
        let mut cfg = RuntimeConfig::default();
        cfg.hotshard.enabled = true;
        let on = Simulation::new(hotspot(), cfg);
        assert!(on.hotshard.is_some());
        assert_eq!(polls(on), 1);
    }

    /// The planning snapshot as it was computed before the one-pass
    /// rewrite: every machine rescans all shards for `used` and `want`,
    /// then again to apply its scale.
    fn quadratic_snapshot(live: &LiveCluster) -> Instance {
        let mut s = live.inst.clone();
        let mut extra = vec![0.0f64; s.n_shards()];
        for (idx, state) in live.spikes.iter().enumerate() {
            let Some(shards) = state else { continue };
            let FaultSpec::Spike { factor, .. } = live.cfg.faults[idx] else {
                continue;
            };
            for &sid in shards {
                let d = s.shards[sid.idx()].demand[0];
                extra[sid.idx()] = (d + extra[sid.idx()]) * factor - d;
            }
        }
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
        s
    }

    #[test]
    fn snapshot_matches_the_quadratic_reference_bit_for_bit() {
        // Two overlapping flash crowds: the hottest 10% are hit by both
        // (compounded extra), the next 20% by the second only, and at these
        // factors some machines have the headroom and some are capped.
        let spike = |factor, shard_fraction| FaultSpec::Spike {
            at: 10,
            duration: 100,
            factor,
            shard_fraction,
        };
        let cfg = RuntimeConfig {
            faults: vec![spike(1.8, 0.1), spike(1.4, 0.3)],
            ..Default::default()
        };
        let mut sim = Simulation::new(hotspot(), cfg);
        let calm = sim.live.build_snapshot();
        sim.on_spike_start(10, 0);
        sim.on_spike_start(10, 1);
        let (new, old) = (sim.live.build_snapshot(), quadratic_snapshot(&sim.live));
        let bits = |inst: &Instance| -> Vec<u64> {
            inst.shards.iter().map(|s| s.demand[0].to_bits()).collect()
        };
        assert_eq!(bits(&new), bits(&old));
        assert_eq!(bits(&calm), bits(&sim.live.inst), "no spike, no extra");
        // The fixture exercises both regimes: the scale is 1 on machines
        // with headroom and below 1 where the extra had to be capped.
        let extra = sim.live.spike_extras();
        let share = |i: usize| (new.shards[i].demand[0] - calm.shards[i].demand[0]) / extra[i];
        let spiked = || (0..extra.len()).filter(|&i| extra[i] > 0.0);
        assert!(spiked().any(|i| share(i) < 0.99), "no machine was capped");
        assert!(spiked().any(|i| share(i) > 0.99), "no machine had headroom");
    }
}
