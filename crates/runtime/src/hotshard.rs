//! The hot-shard control plane: continuous per-shard observation with
//! split/merge/migrate operators.
//!
//! SRA's exchange moves whole shards, so one shard hot enough to saturate
//! its machine is unfixable by reassignment alone. This module adds a
//! Libra-style second control loop on top of the simulator:
//!
//! 1. **Observe** — every [`HotShardConfig::poll_interval`] ticks, each
//!    hosted shard's load *fraction of its machine's capacity* feeds a
//!    bounded hot-peer cache ([`EwmaCache`]) that maintains per-shard
//!    exponentially weighted moving averages. Eviction is hotness-aware:
//!    the cache never drops a shard currently above the split threshold to
//!    admit a colder one.
//! 2. **Decide** — a shard whose EWMA fraction exceeds
//!    [`HotShardConfig::split_fraction`] is scheduled for a split; a
//!    sibling pair produced by an earlier split whose EWMAs have both
//!    fallen below [`HotShardConfig::merge_fraction`] is scheduled for a
//!    merge. The gap between the two thresholds is the hysteresis band
//!    that keeps a shard oscillating around one threshold from
//!    split-merge thrashing.
//! 3. **Execute** — operators flow through an `OperatorScheduler` with
//!    per-operator pending expiry and cancel-on-crash. Operators start only
//!    while the executor is idle, and the one whose plan the executor then
//!    runs is the scheduler's one in-flight operator until the plan leaves.
//!    Split and merge mutate the `Instance` in place (only while the
//!    executor is idle, preserving the membership invariant); the
//!    follow-up migration feeds the solver a *delta* — only the shards
//!    the operator changed — via `rex_core::solve_delta`, so the full LNS
//!    spine runs but no unrelated shard can move.
//!
//! Everything here is deterministic: decisions are pure functions of the
//! observed load history, and the only randomness (the delta solve's seed)
//! comes from the simulation's named seed streams.

use crate::config::ensure;
use crate::exec::{MigrationKind, PlannedMigration};
use crate::metrics::Counters;
use crate::sim::LiveCluster;
use rex_cluster::{Assignment, Instance, MachineId, ShardId};
use rex_core::{solve_delta, SolveOptions};
use rex_obs::Recorder;
use std::collections::VecDeque;

/// Configuration for the hot-shard control plane. Disabled by default;
/// enable with `rex simulate --hotshard`.
#[derive(Clone, Copy, Debug)]
pub struct HotShardConfig {
    /// Master switch; when false the control plane never polls.
    pub enabled: bool,
    /// Ticks between observation/decision rounds.
    pub poll_interval: u64,
    /// EWMA smoothing factor in `(0, 1]`: weight of the newest sample.
    pub ewma_alpha: f64,
    /// Hot-peer cache capacity (entries).
    pub cache_capacity: usize,
    /// Split a shard when its EWMA load fraction of its host's capacity
    /// exceeds this.
    pub split_fraction: f64,
    /// Merge a sibling pair when both EWMAs are below this. Must sit below
    /// `split_fraction`; the gap is the hysteresis band.
    pub merge_fraction: f64,
    /// Pending operators older than this are expired (dropped) unstarted.
    pub operator_expiry_ticks: u64,
    /// LNS iterations for the delta solve behind a hot-shard migration.
    pub delta_iters: u64,
}

impl Default for HotShardConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            poll_interval: 25,
            ewma_alpha: 0.3,
            cache_capacity: 64,
            split_fraction: 0.45,
            merge_fraction: 0.2,
            operator_expiry_ticks: 400,
            delta_iters: 800,
        }
    }
}

impl HotShardConfig {
    /// Range-checks the enabled plane's knobs (a disabled plane never polls,
    /// so its knobs are inert); called from `RuntimeConfig::validate`.
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        ensure(self.poll_interval > 0, "hotshard poll_interval must be > 0")?;
        ensure(
            self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0,
            "hotshard ewma_alpha must lie in (0, 1]",
        )?;
        ensure(
            self.cache_capacity > 0,
            "hotshard cache_capacity must be > 0",
        )?;
        ensure(
            self.split_fraction > 0.0 && self.split_fraction <= 1.0,
            "hotshard split_fraction must lie in (0, 1]",
        )?;
        ensure(
            self.merge_fraction >= 0.0 && self.merge_fraction < self.split_fraction,
            "hotshard merge_fraction must lie in [0, split_fraction): \
             the gap is the hysteresis band",
        )?;
        ensure(self.delta_iters > 0, "hotshard delta_iters must be > 0")
    }
}

// ---- hot-peer cache -------------------------------------------------------

/// One tracked shard in the hot-peer cache.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EwmaEntry {
    /// The shard this entry tracks.
    pub shard: ShardId,
    /// EWMA of the shard's load fraction of its host's capacity.
    pub ewma: f64,
    /// Tick of the latest observation folded in.
    pub last_tick: u64,
}

/// A bounded cache of per-shard EWMA load fractions, ordered by shard id.
///
/// Eviction never drops a shard currently above the split threshold: when
/// the cache is full and every resident is hot, a new (necessarily
/// colder-history) shard is simply not admitted this round — it will be
/// admitted once some resident cools below the threshold. This is the
/// property the control plane relies on to never lose sight of a shard it
/// still owes a split.
#[derive(Clone, Debug)]
pub struct EwmaCache {
    capacity: usize,
    alpha: f64,
    /// Sorted by shard id for deterministic iteration.
    entries: Vec<EwmaEntry>,
}

impl EwmaCache {
    /// An empty cache. `capacity ≥ 1`, `alpha ∈ (0, 1]`.
    pub fn new(capacity: usize, alpha: f64) -> Self {
        assert!(capacity >= 1 && alpha > 0.0 && alpha <= 1.0);
        Self {
            capacity,
            alpha,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Folds one observation of `shard`'s load fraction in. Returns false
    /// only when the shard is new, the cache is full, and every resident
    /// entry is above `hot_threshold` (so nothing may be evicted).
    pub fn observe(
        &mut self,
        tick: u64,
        shard: ShardId,
        fraction: f64,
        hot_threshold: f64,
    ) -> bool {
        match self.entries.binary_search_by_key(&shard, |e| e.shard) {
            Ok(i) => {
                let e = &mut self.entries[i];
                e.ewma = self.alpha * fraction + (1.0 - self.alpha) * e.ewma;
                e.last_tick = tick;
                true
            }
            Err(_) => {
                if self.entries.len() >= self.capacity {
                    // Evict the coldest entry that is not protected by the
                    // split threshold; oldest observation breaks ties.
                    let victim = self
                        .entries
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.ewma <= hot_threshold)
                        .min_by(|(_, a), (_, b)| {
                            a.ewma
                                .partial_cmp(&b.ewma)
                                .unwrap_or(std::cmp::Ordering::Equal)
                                .then(a.last_tick.cmp(&b.last_tick))
                        })
                        .map(|(j, _)| j);
                    match victim {
                        Some(j) => {
                            self.entries.remove(j);
                        }
                        None => return false,
                    }
                }
                let i = self
                    .entries
                    .binary_search_by_key(&shard, |e| e.shard)
                    .unwrap_err();
                self.entries.insert(
                    i,
                    EwmaEntry {
                        shard,
                        ewma: fraction,
                        last_tick: tick,
                    },
                );
                true
            }
        }
    }

    /// The tracked EWMA for `shard`, if resident.
    pub fn get(&self, shard: ShardId) -> Option<f64> {
        self.entries
            .binary_search_by_key(&shard, |e| e.shard)
            .ok()
            .map(|i| self.entries[i].ewma)
    }

    /// Splits `parent`'s tracked history: its EWMA halves (its demand
    /// did), and `child` is seeded with the same halved value under the
    /// normal admission rules. No-op when `parent` is not resident.
    pub fn split(&mut self, tick: u64, parent: ShardId, child: ShardId, hot_threshold: f64) {
        if let Ok(i) = self.entries.binary_search_by_key(&parent, |e| e.shard) {
            self.entries[i].ewma *= 0.5;
            self.entries[i].last_tick = tick;
            let half = self.entries[i].ewma;
            self.observe(tick, child, half, hot_threshold);
        }
    }

    /// Drops `shard`'s entry (e.g. the shard was merged away).
    pub fn remove(&mut self, shard: ShardId) {
        if let Ok(i) = self.entries.binary_search_by_key(&shard, |e| e.shard) {
            self.entries.remove(i);
        }
    }

    /// Renames `old` to `new` (merge renumbered the last shard into a
    /// freed id), keeping the order invariant.
    fn remap(&mut self, old: ShardId, new: ShardId) {
        if let Ok(i) = self.entries.binary_search_by_key(&old, |e| e.shard) {
            let mut e = self.entries.remove(i);
            e.shard = new;
            let j = self
                .entries
                .binary_search_by_key(&new, |x| x.shard)
                .unwrap_err();
            self.entries.insert(j, e);
        }
    }

    /// Resident entries, ascending by shard id.
    pub fn entries(&self) -> &[EwmaEntry] {
        &self.entries
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The hottest resident entry (highest EWMA; lowest shard id on ties).
    pub fn hottest(&self) -> Option<EwmaEntry> {
        self.entries.iter().copied().max_by(|a, b| {
            a.ewma
                .partial_cmp(&b.ewma)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.shard.cmp(&a.shard))
        })
    }
}

// ---- operator scheduler ---------------------------------------------------

/// What an operator does when it runs.
#[derive(Clone, Debug, PartialEq, Eq)]
enum OperatorKind {
    /// Split `shard` into two half-demand siblings.
    Split {
        /// The shard to split.
        shard: ShardId,
    },
    /// Merge `drop` back into its sibling `keep` (requires co-location).
    Merge {
        /// The surviving shard.
        keep: ShardId,
        /// The shard absorbed and removed.
        drop: ShardId,
    },
    /// Delta-solve a new placement for exactly `shards` and migrate.
    Migrate {
        /// The changed set handed to the delta solve.
        shards: Vec<ShardId>,
    },
}

impl OperatorKind {
    /// Shards this operator touches (used for admission dedup and remaps).
    fn shards(&self) -> Vec<ShardId> {
        match self {
            OperatorKind::Split { shard } => vec![*shard],
            OperatorKind::Merge { keep, drop } => vec![*keep, *drop],
            OperatorKind::Migrate { shards } => shards.clone(),
        }
    }

    fn remap(&mut self, old: ShardId, new: ShardId) {
        let fix = |s: &mut ShardId| {
            if *s == old {
                *s = new;
            }
        };
        match self {
            OperatorKind::Split { shard } => fix(shard),
            OperatorKind::Merge { keep, drop } => {
                fix(keep);
                fix(drop);
            }
            OperatorKind::Migrate { shards } => shards.iter_mut().for_each(fix),
        }
    }
}

/// A scheduled operator.
#[derive(Clone, Debug)]
struct Operator {
    /// Monotonic id unique within the scheduler.
    id: u64,
    /// What to do.
    kind: OperatorKind,
    /// Tick the operator was admitted.
    admitted_at: u64,
}

/// Admits, expires, starts, and cancels operators, one in flight at a
/// time. Pure bookkeeping — the simulation executes the operators.
#[derive(Clone, Debug, Default)]
struct OperatorScheduler {
    expiry: u64,
    next_id: u64,
    pending: VecDeque<Operator>,
    /// The operator whose plan the executor runs. An operator that
    /// finishes at once (a split, a co-located merge, a stale premise, an
    /// empty or failed delta solve) never enters it.
    in_flight: Option<Operator>,
}

impl OperatorScheduler {
    /// An empty scheduler; pending operators expire after `expiry` ticks
    /// unstarted.
    fn new(expiry: u64) -> Self {
        Self {
            expiry,
            ..Self::default()
        }
    }

    /// Admits `kind` unless an equivalent or overlapping operator is
    /// already queued or in flight. Returns the operator id on admission.
    fn admit(&mut self, tick: u64, kind: OperatorKind) -> Option<u64> {
        let touches = kind.shards();
        let overlaps = |op: &Operator| op.kind.shards().iter().any(|s| touches.contains(s));
        if self.pending.iter().chain(&self.in_flight).any(overlaps) {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push_back(Operator {
            id,
            kind,
            admitted_at: tick,
        });
        Some(id)
    }

    /// Drops pending operators older than the expiry and returns them.
    fn expire(&mut self, tick: u64) -> Vec<Operator> {
        let expiry = self.expiry;
        let mut out = Vec::new();
        self.pending.retain(|op| {
            if tick.saturating_sub(op.admitted_at) > expiry {
                out.push(op.clone());
                false
            } else {
                true
            }
        });
        out
    }

    /// Takes the oldest pending operator to run, unless one is in flight.
    fn start_next(&mut self) -> Option<Operator> {
        if self.in_flight.is_some() {
            return None;
        }
        self.pending.pop_front()
    }

    /// Cancels everything (crash recovery) and returns how many operators
    /// were dropped, the in-flight one included.
    fn cancel_all(&mut self) -> usize {
        self.pending.drain(..).count() + usize::from(self.in_flight.take().is_some())
    }

    /// Renames a shard id across all queued and in-flight operators.
    fn remap_shard(&mut self, old: ShardId, new: ShardId) {
        for op in self.pending.iter_mut().chain(&mut self.in_flight) {
            op.kind.remap(old, new);
        }
    }
}

// ---- the plane ------------------------------------------------------------

/// The hot-shard control plane's live state. The simulation holds
/// `Option<HotShardPlane>` — `None` when [`HotShardConfig::enabled`] is
/// off, in which case no poll is ever scheduled — and calls in at three
/// points: every poll ([`HotShardPlane::poll`]), every crash
/// ([`HotShardPlane::on_crash`]), and when a plan the plane issued leaves
/// the executor ([`HotShardPlane::plan_finished`]).
pub(crate) struct HotShardPlane {
    /// Hot-peer cache of per-shard EWMA load fractions.
    cache: EwmaCache,
    /// Operator scheduler for split/merge/migrate.
    sched: OperatorScheduler,
    /// Sibling pairs produced by splits, `(parent, child)` — merge
    /// candidates while both stay under the hysteresis band.
    siblings: Vec<(ShardId, ShardId)>,
    /// Hard shard-count cap: [`MAX_SHARDS_FACTOR`] × the initial count.
    max_shards: usize,
}

/// Splits stop once the fleet holds this many times its initial shard
/// count (caps runaway splitting).
const MAX_SHARDS_FACTOR: usize = 4;

/// What the simulation lends the plane for one call: the cluster to
/// observe and reshape, the counters it bumps, the recorder it narrates to.
pub(crate) struct PlaneCtx<'a> {
    pub cl: &'a mut LiveCluster,
    pub counters: &'a mut Counters,
    pub obs: &'a mut Recorder,
}

impl HotShardPlane {
    /// The plane for a fleet of `n_shards`, or `None` when disabled (a
    /// disabled plane's knobs are unvalidated, so nothing is built from
    /// them).
    pub fn new(hs: &HotShardConfig, n_shards: usize) -> Option<Self> {
        hs.enabled.then(|| Self {
            cache: EwmaCache::new(hs.cache_capacity, hs.ewma_alpha),
            sched: OperatorScheduler::new(hs.operator_expiry_ticks),
            siblings: Vec::new(),
            max_shards: n_shards.saturating_mul(MAX_SHARDS_FACTOR),
        })
    }

    /// One observation/decision/execution round. `idle` says the executor
    /// has no plan in flight; a returned plan is the caller's to adopt.
    pub fn poll(&mut self, tick: u64, idle: bool, cx: &mut PlaneCtx) -> Option<PlannedMigration> {
        self.observe_shard_loads(tick, cx.cl, cx.obs);
        let expired = self.sched.expire(tick);
        if !expired.is_empty() {
            cx.counters.hotshard_expired += expired.len() as u64;
            cx.obs.event(
                "runtime",
                "hotshard_expired",
                &[("operators", expired.len().into())],
            );
        }
        self.propose_operators(tick, cx.cl, cx.obs);
        if idle {
            self.run_operators(tick, cx)
        } else {
            None
        }
    }

    /// Cancel-on-crash: the fleet shape is about to change under an
    /// evacuation; every queued/in-flight operator's premise is stale.
    pub fn on_crash(&mut self, m: MachineId, counters: &mut Counters, obs: &mut Recorder) {
        let cancelled = self.sched.cancel_all();
        counters.hotshard_cancelled += cancelled as u64;
        if cancelled > 0 {
            obs.event(
                "runtime",
                "hotshard_cancelled",
                &[("machine", m.idx().into()), ("operators", cancelled.into())],
            );
            obs.add("runtime.hotshard_cancelled", cancelled as u64);
        }
    }

    /// A [`MigrationKind::HotShard`] plan left the executor, completed or
    /// aborted: the operator that owns it is done (a crash already
    /// cancelled it).
    pub fn plan_finished(&mut self) {
        self.sched.in_flight = None;
    }

    /// Feeds every hosted shard's load fraction of its machine's capacity
    /// (CPU dimension, active spikes included) into the hot-peer cache.
    fn observe_shard_loads(&mut self, tick: u64, cl: &LiveCluster, obs: &mut Recorder) {
        let hot = cl.cfg.hotshard.split_fraction;
        for (i, &x) in cl.spike_extras().iter().enumerate() {
            let m = cl.asg.placement()[i];
            if cl.failed[m.idx()] {
                continue;
            }
            let cap = cl.inst.machines[m.idx()].capacity[0];
            let frac = (cl.inst.demand(ShardId::from(i))[0] + x) / cap;
            self.cache.observe(tick, ShardId::from(i), frac, hot);
        }
        // Protects the cache scan in `hottest()`.
        if obs.is_active() {
            if let Some(e) = self.cache.hottest() {
                obs.gauge("runtime.hotshard_ewma_peak", e.ewma);
            }
            obs.gauge("runtime.hotshard_cache_len", self.cache.len() as f64);
        }
    }

    /// Turns the cache's view into operators: split the hottest shard
    /// above the split threshold; merge sibling pairs once both halves
    /// have cooled below the merge threshold (the gap is the hysteresis
    /// band). Admission dedup keeps one operator per shard in flight.
    fn propose_operators(&mut self, tick: u64, cl: &LiveCluster, obs: &mut Recorder) {
        let hs = cl.cfg.hotshard;
        if let Some(e) = self.cache.hottest() {
            if e.ewma > hs.split_fraction && cl.inst.n_shards() < self.max_shards {
                if let Some(id) = self
                    .sched
                    .admit(tick, OperatorKind::Split { shard: e.shard })
                {
                    obs.event(
                        "runtime",
                        "hotshard_admit_split",
                        &[
                            ("op", id.into()),
                            ("shard", e.shard.idx().into()),
                            ("ewma", e.ewma.into()),
                        ],
                    );
                }
            }
        }
        for &(keep, drop) in &self.siblings {
            let (Some(a), Some(b)) = (self.cache.get(keep), self.cache.get(drop)) else {
                continue;
            };
            if a < hs.merge_fraction && b < hs.merge_fraction {
                if let Some(id) = self.sched.admit(tick, OperatorKind::Merge { keep, drop }) {
                    obs.event(
                        "runtime",
                        "hotshard_admit_merge",
                        &[
                            ("op", id.into()),
                            ("keep", keep.idx().into()),
                            ("drop", drop.idx().into()),
                        ],
                    );
                }
            }
        }
    }

    /// Starts ready operators until one produces a plan; that operator is
    /// then in flight until [`HotShardPlane::plan_finished`]. Membership
    /// mutations (split/merge) and plan adoption both require an idle
    /// executor and no failed machine still hosting shards — the same
    /// invariant the controller plans under.
    fn run_operators(&mut self, tick: u64, cx: &mut PlaneCtx) -> Option<PlannedMigration> {
        while !cx.cl.any_failed_hosting() {
            let op = self.sched.start_next()?;
            let pm = match &op.kind {
                OperatorKind::Split { shard } => {
                    self.exec_split(tick, op.id, *shard, cx);
                    None
                }
                OperatorKind::Merge { keep, drop } => self.exec_merge(op.id, *keep, *drop, cx),
                OperatorKind::Migrate { shards } => self.exec_delta_migrate(op.id, shards, cx),
            };
            if pm.is_some() {
                self.sched.in_flight = Some(op);
                return pm;
            }
        }
        None
    }

    /// Splits `shard` in place (instant: a split is metadata, not a copy)
    /// and queues the delta migration that gives one half a new home.
    fn exec_split(&mut self, tick: u64, opid: u64, shard: ShardId, cx: &mut PlaneCtx) {
        if shard.idx() >= cx.cl.inst.n_shards() || cx.cl.inst.n_shards() >= self.max_shards {
            return;
        }
        let child = cx.cl.inst.split_shard(shard);
        // A spiked parent's flash crowd splits with its demand.
        for state in cx.cl.spikes.iter_mut().flatten() {
            if state.contains(&shard) {
                state.push(child);
            }
        }
        cx.cl.asg = Assignment::from_initial(&cx.cl.inst);
        cx.cl.demand_epoch += 1;
        self.cache
            .split(tick, shard, child, cx.cl.cfg.hotshard.split_fraction);
        self.siblings.push((shard, child));
        cx.counters.shard_splits += 1;
        cx.obs.event(
            "runtime",
            "hotshard_split",
            &[
                ("op", opid.into()),
                ("parent", shard.idx().into()),
                ("child", child.idx().into()),
            ],
        );
        cx.obs.add("runtime.hotshard_splits", 1);
        // Both halves sit on the still-hot machine; ask the solver for a
        // better placement of exactly these two shards.
        self.sched.admit(
            tick,
            OperatorKind::Migrate {
                shards: vec![shard, child],
            },
        );
    }

    /// Merges `drop` back into `keep`. Instant when co-located; otherwise
    /// returns a directed single-move plan bringing `drop` to `keep`'s
    /// machine first (the merge re-admits once they share a host).
    fn exec_merge(
        &mut self,
        opid: u64,
        keep: ShardId,
        drop: ShardId,
        cx: &mut PlaneCtx,
    ) -> Option<PlannedMigration> {
        let n = cx.cl.inst.n_shards();
        if keep == drop || keep.idx() >= n || drop.idx() >= n {
            return None;
        }
        let dest = cx.cl.asg.placement()[keep.idx()];
        if cx.cl.asg.placement()[drop.idx()] != dest {
            // Directed co-location move, transient-verified by the planner.
            let mut target = cx.cl.asg.placement().to_vec();
            target[drop.idx()] = dest;
            return match rex_cluster::plan_migration(
                &cx.cl.inst,
                &cx.cl.inst.initial,
                &target,
                &rex_cluster::PlannerConfig::default(),
            ) {
                Ok(plan) if !plan.batches.is_empty() => Some(PlannedMigration::new(
                    &cx.cl.inst,
                    plan,
                    target,
                    Vec::new(),
                    MigrationKind::HotShard,
                    cx.cl.cfg.copy_bandwidth,
                    cx.cl.cfg.batch_overhead_ticks,
                )),
                // No feasible co-location right now; retry on a later poll
                // if the pair is still cold.
                _ => None,
            };
        }
        // `Err` is a stale premise (ids shifted since admission): drop the op.
        if let Ok(renamed) = cx.cl.inst.merge_shards(keep, drop) {
            self.forget_merged(&mut cx.cl.spikes, keep, drop, renamed);
            cx.cl.asg = Assignment::from_initial(&cx.cl.inst);
            cx.cl.demand_epoch += 1;
            cx.counters.shard_merges += 1;
            cx.obs.event(
                "runtime",
                "hotshard_merge",
                &[
                    ("op", opid.into()),
                    ("keep", keep.idx().into()),
                    ("dropped", drop.idx().into()),
                ],
            );
            cx.obs.add("runtime.hotshard_merges", 1);
        }
        None
    }

    /// `drop` was merged into `keep` and, when `renamed` is `Some(moved)`,
    /// the old last shard `moved` now answers to `drop`'s id: the one
    /// place that scrubs and renumbers every structure holding shard ids —
    /// the spike hot sets, the cache, the scheduler and the sibling list.
    fn forget_merged(
        &mut self,
        spikes: &mut [Option<Vec<ShardId>>],
        keep: ShardId,
        drop: ShardId,
        renamed: Option<ShardId>,
    ) {
        for state in spikes.iter_mut().flatten() {
            state.retain(|&sid| sid != drop);
        }
        self.cache.remove(drop);
        self.cache.remove(keep); // EWMA of the half is stale
        self.siblings
            .retain(|&(a, b)| a != drop && b != drop && !(a == keep && b == keep));
        let Some(moved) = renamed else { return };
        let fix = |sid: &mut ShardId| {
            if *sid == moved {
                *sid = drop;
            }
        };
        spikes.iter_mut().flatten().flatten().for_each(fix);
        self.cache.remap(moved, drop);
        self.sched.remap_shard(moved, drop);
        for (a, b) in self.siblings.iter_mut() {
            fix(a);
            fix(b);
        }
    }

    /// Delta-solves a new placement for exactly `shards` on the planning
    /// snapshot; a non-empty plan is returned for adoption.
    fn exec_delta_migrate(
        &mut self,
        opid: u64,
        shards: &[ShardId],
        cx: &mut PlaneCtx,
    ) -> Option<PlannedMigration> {
        let n = cx.cl.inst.n_shards();
        let changed: Vec<ShardId> = shards.iter().copied().filter(|s| s.idx() < n).collect();
        if changed.is_empty() {
            return None;
        }
        let snapshot = cx.cl.build_snapshot();
        let seed = cx.cl.plan_seed();
        match plan_hotshard_migration(
            &snapshot,
            &changed,
            &cx.cl.cfg.hotshard,
            seed,
            cx.cl.cfg.copy_bandwidth,
            cx.cl.cfg.batch_overhead_ticks,
        ) {
            Ok(pm) if !pm.plan.batches.is_empty() => return Some(pm),
            Ok(_) => {
                // The best delta placement keeps everything put.
                cx.obs
                    .event("runtime", "hotshard_plan_empty", &[("op", opid.into())]);
            }
            Err(e) => {
                cx.counters.plans_failed += 1;
                cx.obs.event(
                    "runtime",
                    "hotshard_plan_failed",
                    &[("op", opid.into()), ("error", e.into())],
                );
            }
        }
        None
    }
}

// ---- planning -------------------------------------------------------------

/// Plans a hot-shard migration: a delta solve over exactly `changed` on
/// the snapshot, packaged for the executor with
/// [`MigrationKind::HotShard`] (completion does not rotate the exchange
/// loan — the operator owns the move, not the per-epoch exchange cycle).
pub fn plan_hotshard_migration(
    snapshot: &Instance,
    changed: &[ShardId],
    hs: &HotShardConfig,
    seed: u64,
    copy_bandwidth: f64,
    overhead_ticks: u64,
) -> Result<PlannedMigration, String> {
    let cfg = SolveOptions::new()
        .iters(hs.delta_iters)
        .seed(seed)
        .build_for(snapshot)
        .map_err(|e| format!("hotshard solver config: {e}"))?;
    let out =
        solve_delta(snapshot, &cfg, changed, &mut Recorder::noop()).map_err(|e| e.to_string())?;
    Ok(PlannedMigration::new(
        snapshot,
        out.plan,
        out.assignment.into_placement(),
        Vec::new(),
        MigrationKind::HotShard,
        copy_bandwidth,
        overhead_ticks,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> ShardId {
        ShardId(i)
    }

    #[test]
    fn ewma_converges_toward_the_signal() {
        let mut c = EwmaCache::new(4, 0.5);
        for t in 0..10 {
            assert!(c.observe(t, s(0), 0.8, 0.9));
        }
        let e = c.get(s(0)).unwrap();
        assert!((e - 0.8).abs() < 1e-3, "ewma should converge: {e}");
    }

    #[test]
    fn eviction_prefers_the_coldest_entry() {
        let mut c = EwmaCache::new(2, 1.0);
        c.observe(0, s(0), 0.9, 0.5);
        c.observe(0, s(1), 0.1, 0.5);
        // Full; admitting s2 must evict the cold s1, never the hot s0.
        assert!(c.observe(1, s(2), 0.3, 0.5));
        assert!(c.get(s(0)).is_some());
        assert!(c.get(s(1)).is_none());
        assert!(c.get(s(2)).is_some());
    }

    #[test]
    fn full_cache_of_hot_shards_refuses_admission() {
        let mut c = EwmaCache::new(2, 1.0);
        c.observe(0, s(0), 0.9, 0.5);
        c.observe(0, s(1), 0.8, 0.5);
        // Everything resident is above the threshold: nothing may be
        // evicted, so the newcomer is refused — not a hot shard dropped.
        assert!(!c.observe(1, s(2), 0.95, 0.5));
        assert_eq!(c.len(), 2);
        assert!(c.get(s(0)).is_some() && c.get(s(1)).is_some());
    }

    #[test]
    fn remap_preserves_order_and_history() {
        let mut c = EwmaCache::new(4, 1.0);
        c.observe(0, s(1), 0.3, 0.9);
        c.observe(0, s(7), 0.6, 0.9);
        c.remap(s(7), s(0));
        assert_eq!(c.get(s(0)), Some(0.6));
        assert!(c.get(s(7)).is_none());
        let ids: Vec<u32> = c.entries().iter().map(|e| e.shard.0).collect();
        assert_eq!(ids, vec![0, 1], "entries must stay sorted after remap");
    }

    #[test]
    fn hottest_breaks_ties_toward_the_lowest_id() {
        let mut c = EwmaCache::new(4, 1.0);
        c.observe(0, s(3), 0.7, 0.9);
        c.observe(0, s(1), 0.7, 0.9);
        assert_eq!(c.hottest().unwrap().shard, s(1));
    }

    #[test]
    fn admission_dedups_overlapping_operators() {
        let mut sched = OperatorScheduler::new(100);
        assert!(sched
            .admit(0, OperatorKind::Split { shard: s(4) })
            .is_some());
        assert!(
            sched
                .admit(1, OperatorKind::Split { shard: s(4) })
                .is_none(),
            "same shard already queued"
        );
        assert!(
            sched
                .admit(
                    1,
                    OperatorKind::Merge {
                        keep: s(4),
                        drop: s(5)
                    }
                )
                .is_none(),
            "overlapping shard already queued"
        );
        assert!(sched
            .admit(1, OperatorKind::Split { shard: s(6) })
            .is_some());
    }

    #[test]
    fn pending_operators_expire_but_running_do_not() {
        let mut sched = OperatorScheduler::new(10);
        sched.admit(0, OperatorKind::Split { shard: s(0) }).unwrap();
        sched.admit(0, OperatorKind::Split { shard: s(1) }).unwrap();
        sched.in_flight = sched.start_next(); // s0 runs, s1 pends
        let expired = sched.expire(11);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].kind, OperatorKind::Split { shard: s(1) });
        assert!(sched.in_flight.is_some(), "running op must survive expiry");
    }

    #[test]
    fn cancel_all_clears_everything() {
        let mut sched = OperatorScheduler::new(100);
        sched.admit(0, OperatorKind::Split { shard: s(0) }).unwrap();
        sched.admit(0, OperatorKind::Split { shard: s(1) }).unwrap();
        sched.in_flight = sched.start_next();
        assert_eq!(sched.cancel_all(), 2);
        assert!(sched.in_flight.is_none());
        assert!(sched.start_next().is_none(), "nothing left pending");
    }

    #[test]
    fn scheduler_remap_rewrites_all_operator_kinds() {
        let mut sched = OperatorScheduler::new(100);
        sched
            .admit(
                0,
                OperatorKind::Migrate {
                    shards: vec![s(2), s(9)],
                },
            )
            .unwrap();
        sched.remap_shard(s(9), s(3));
        let op = sched.pending.iter().next().unwrap();
        assert_eq!(
            op.kind,
            OperatorKind::Migrate {
                shards: vec![s(2), s(3)]
            }
        );
    }

    #[test]
    fn disabled_config_builds_no_plane() {
        assert!(HotShardPlane::new(&HotShardConfig::default(), 16).is_none());
    }

    #[test]
    fn merge_renumbers_the_last_shard_in_every_structure() {
        use crate::config::{FaultSpec, RuntimeConfig};
        let mut b = rex_cluster::InstanceBuilder::new(1);
        let m = b.machine(&[100.0]);
        for _ in 0..4 {
            b.shard(&[8.0], 2.0, m);
        }
        let cfg = RuntimeConfig {
            hotshard: HotShardConfig {
                enabled: true,
                ..Default::default()
            },
            faults: vec![FaultSpec::Spike {
                at: 0,
                duration: 10,
                factor: 2.0,
                shard_fraction: 0.25,
            }],
            ..Default::default()
        };
        let mut cl = LiveCluster::new(b.build().unwrap(), cfg);
        cl.spikes[0] = Some(vec![s(0)]);
        let mut plane = HotShardPlane::new(&cl.cfg.hotshard, 4).unwrap();
        let (mut counters, mut obs) = (Counters::default(), Recorder::noop());
        let cx = &mut PlaneCtx {
            cl: &mut cl,
            counters: &mut counters,
            obs: &mut obs,
        };
        plane.cache.observe(0, s(0), 0.6, 0.9);
        plane.cache.observe(0, s(1), 0.2, 0.9);
        // Split 1 → child 4, then 0 → child 5 (the last shard, spiked like
        // its parent), each queueing a follow-up migrate of its two halves.
        plane.exec_split(1, 100, s(1), cx);
        plane.sched.start_next().unwrap(); // retire Migrate{1, 4}
        plane.exec_split(1, 101, s(0), cx);
        assert_eq!(plane.siblings, vec![(s(1), s(4)), (s(0), s(5))]);
        assert_eq!(cx.cl.spikes[0], Some(vec![s(0), s(5)]));

        // Merging 4 back into 1 swap-removes id 4: shard 5 now answers to 4.
        let plan = plane.exec_merge(102, s(1), s(4), cx);
        assert!(plan.is_none(), "co-located halves merge instantly");
        assert_eq!((cx.cl.inst.n_shards(), cx.counters.shard_merges), (5, 1));
        assert_eq!(plane.siblings, vec![(s(0), s(4))]);
        assert_eq!(cx.cl.spikes[0], Some(vec![s(0), s(4)]));
        assert_eq!(plane.cache.get(s(4)), Some(0.3), "child 5's halved EWMA");
        assert!(plane.cache.get(s(5)).is_none() && plane.cache.get(s(1)).is_none());
        let queued: Vec<_> = plane
            .sched
            .pending
            .iter()
            .map(|op| op.kind.clone())
            .collect();
        let shards = vec![s(0), s(4)];
        assert_eq!(queued, vec![OperatorKind::Migrate { shards }]);
    }

    #[test]
    fn one_operator_is_in_flight_while_its_plan_runs() {
        // Cold shards 0 and 2 on m0, 1, 3 and 4 on m1: nothing is proposed
        // on its own, and each merge below needs a directed move first.
        let mut b = rex_cluster::InstanceBuilder::new(1);
        let (m0, m1) = (b.machine(&[100.0]), b.machine(&[100.0]));
        for m in [m0, m1, m0, m1, m1] {
            b.shard(&[8.0], 2.0, m);
        }
        let cfg = crate::config::RuntimeConfig {
            hotshard: HotShardConfig {
                enabled: true,
                operator_expiry_ticks: 10,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut cl = LiveCluster::new(b.build().unwrap(), cfg);
        let mut plane = HotShardPlane::new(&cl.cfg.hotshard, 5).unwrap();
        let (mut counters, mut obs) = (Counters::default(), Recorder::noop());
        let cx = &mut PlaneCtx {
            cl: &mut cl,
            counters: &mut counters,
            obs: &mut obs,
        };
        let merge = |keep, drop| OperatorKind::Merge {
            keep: s(keep),
            drop: s(drop),
        };
        let migrate = |i| OperatorKind::Migrate { shards: vec![s(i)] };
        plane.sched.admit(0, merge(0, 1)).unwrap();
        let pm = plane.poll(1, true, cx).expect("the co-location move");
        assert_eq!(pm.kind, MigrationKind::HotShard);
        assert_eq!(plane.sched.in_flight.as_ref().unwrap().kind, merge(0, 1));

        // While its plan runs: overlapping operators are refused, others
        // wait, and a waiting operator past its expiry is dropped.
        assert!(plane.sched.admit(1, migrate(1)).is_none());
        plane.sched.admit(1, migrate(2)).unwrap();
        assert!(plane.poll(5, false, cx).is_none());
        assert_eq!(plane.sched.pending.len(), 1);
        assert!(plane.poll(15, false, cx).is_none());
        assert_eq!(cx.counters.hotshard_expired, 1);
        plane.sched.admit(15, merge(2, 3)).unwrap();
        assert!(plane.poll(20, false, cx).is_none(), "the executor is busy");
        assert_eq!(plane.sched.pending.len(), 1);

        // The plan leaves: the next idle poll starts the waiting merge.
        plane.plan_finished();
        assert!(plane.sched.in_flight.is_none());
        assert!(plane.poll(21, true, cx).is_some());
        assert_eq!(plane.sched.in_flight.as_ref().unwrap().kind, merge(2, 3));
        assert!(plane.sched.pending.is_empty());

        // A crash mid-plan cancels the in-flight and the waiting operator.
        plane.sched.admit(22, migrate(4)).unwrap();
        plane.on_crash(m1, cx.counters, cx.obs);
        assert!(plane.sched.in_flight.is_none() && plane.sched.pending.is_empty());
        assert_eq!(cx.counters.hotshard_cancelled, 2);
    }

    #[test]
    fn config_validation_rejects_inverted_hysteresis() {
        let cfg = HotShardConfig {
            enabled: true,
            split_fraction: 0.3,
            merge_fraction: 0.4,
            ..Default::default()
        };
        assert!(
            cfg.validate().is_err(),
            "merge above split must be rejected"
        );
    }

    #[test]
    fn disabled_config_skips_validation() {
        // A default (disabled) config validates even with nonsense knobs:
        // the control plane never runs, so they are inert.
        let cfg = HotShardConfig {
            enabled: false,
            poll_interval: 0,
            ..Default::default()
        };
        cfg.validate().unwrap();
    }
}
