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
//! 3. **Execute** — operators flow through an [`OperatorScheduler`] with a
//!    concurrency limit, per-operator pending expiry, and cancel-on-crash.
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
use crate::exec::{batch_durations, MigrationKind, PlannedMigration};
use rex_cluster::{Instance, ShardId};
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
    /// Hard cap on total shards; `0` means 4× the initial shard count.
    pub max_shards: usize,
    /// Maximum operators running at once.
    pub operator_limit: usize,
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
            max_shards: 0,
            operator_limit: 2,
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
        ensure(
            self.operator_limit > 0,
            "hotshard operator_limit must be > 0",
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
    pub fn remap(&mut self, old: ShardId, new: ShardId) {
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
pub enum OperatorKind {
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
pub struct Operator {
    /// Monotonic id unique within the scheduler.
    pub id: u64,
    /// What to do.
    pub kind: OperatorKind,
    /// Tick the operator was admitted.
    pub admitted_at: u64,
}

/// Admits, expires, starts, and cancels operators under a concurrency
/// limit. Pure bookkeeping — the simulation executes the operators.
#[derive(Clone, Debug, Default)]
pub struct OperatorScheduler {
    limit: usize,
    expiry: u64,
    next_id: u64,
    pending: VecDeque<Operator>,
    running: Vec<Operator>,
}

impl OperatorScheduler {
    /// A scheduler allowing `limit` concurrent operators; pending
    /// operators expire after `expiry` ticks unstarted.
    pub fn new(limit: usize, expiry: u64) -> Self {
        Self {
            limit: limit.max(1),
            expiry,
            ..Self::default()
        }
    }

    /// Admits `kind` unless an equivalent or overlapping operator is
    /// already queued or running. Returns the operator id on admission.
    pub fn admit(&mut self, tick: u64, kind: OperatorKind) -> Option<u64> {
        let touches = kind.shards();
        let overlaps = |op: &Operator| op.kind.shards().iter().any(|s| touches.contains(s));
        if self.pending.iter().any(overlaps) || self.running.iter().any(overlaps) {
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
    pub fn expire(&mut self, tick: u64) -> Vec<Operator> {
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

    /// Moves the oldest pending operator to running if a slot is free.
    pub fn start_next(&mut self) -> Option<Operator> {
        if self.running.len() >= self.limit {
            return None;
        }
        let op = self.pending.pop_front()?;
        self.running.push(op.clone());
        Some(op)
    }

    /// Marks a running operator finished.
    pub fn complete(&mut self, id: u64) {
        self.running.retain(|op| op.id != id);
    }

    /// Cancels everything (crash recovery) and returns what was dropped.
    pub fn cancel_all(&mut self) -> Vec<Operator> {
        let mut out: Vec<Operator> = self.pending.drain(..).collect();
        out.append(&mut self.running);
        out
    }

    /// Renames a shard id across all queued and running operators.
    pub fn remap_shard(&mut self, old: ShardId, new: ShardId) {
        for op in self.pending.iter_mut().chain(self.running.iter_mut()) {
            op.kind.remap(old, new);
        }
    }

    /// Queued-but-unstarted operators.
    pub fn pending(&self) -> impl Iterator<Item = &Operator> {
        self.pending.iter()
    }

    /// Currently running operators.
    pub fn running(&self) -> impl Iterator<Item = &Operator> {
        self.running.iter()
    }

    /// True when nothing is queued or running.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.running.is_empty()
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
    let durations = batch_durations(snapshot, &out.plan, copy_bandwidth, overhead_ticks);
    Ok(PlannedMigration {
        target: out.assignment.placement().to_vec(),
        returned: Vec::new(),
        plan: out.plan,
        durations,
        kind: MigrationKind::HotShard,
    })
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
    fn scheduler_enforces_the_concurrency_limit() {
        let mut sched = OperatorScheduler::new(1, 100);
        sched.admit(0, OperatorKind::Split { shard: s(0) }).unwrap();
        sched.admit(0, OperatorKind::Split { shard: s(1) }).unwrap();
        let first = sched.start_next().unwrap();
        assert!(sched.start_next().is_none(), "limit 1: second must wait");
        sched.complete(first.id);
        assert!(sched.start_next().is_some());
    }

    #[test]
    fn admission_dedups_overlapping_operators() {
        let mut sched = OperatorScheduler::new(2, 100);
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
        let mut sched = OperatorScheduler::new(1, 10);
        sched.admit(0, OperatorKind::Split { shard: s(0) }).unwrap();
        sched.admit(0, OperatorKind::Split { shard: s(1) }).unwrap();
        sched.start_next().unwrap(); // s0 runs, s1 pends
        let expired = sched.expire(11);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].kind, OperatorKind::Split { shard: s(1) });
        assert_eq!(sched.running().count(), 1, "running op must survive expiry");
    }

    #[test]
    fn cancel_all_clears_everything() {
        let mut sched = OperatorScheduler::new(2, 100);
        sched.admit(0, OperatorKind::Split { shard: s(0) }).unwrap();
        sched.admit(0, OperatorKind::Split { shard: s(1) }).unwrap();
        sched.start_next().unwrap();
        let dropped = sched.cancel_all();
        assert_eq!(dropped.len(), 2);
        assert!(sched.is_idle());
    }

    #[test]
    fn scheduler_remap_rewrites_all_operator_kinds() {
        let mut sched = OperatorScheduler::new(2, 100);
        sched
            .admit(
                0,
                OperatorKind::Migrate {
                    shards: vec![s(2), s(9)],
                },
            )
            .unwrap();
        sched.remap_shard(s(9), s(3));
        let op = sched.pending().next().unwrap();
        assert_eq!(
            op.kind,
            OperatorKind::Migrate {
                shards: vec![s(2), s(3)]
            }
        );
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
