//! The migration planner: batched greedy scheduling with two-hop staging.
//!
//! A [`Planner`] is bound to one instance and one initial placement and
//! plans any number of targets from it; [`plan_migration`] is the one-shot
//! form. Both run the one planning loop below.

use super::{MigrationPlan, Move};
use crate::arena::PackedVecs;
use crate::assignment::Assignment;
use crate::error::ClusterError;
use crate::instance::Instance;
use crate::machine::MachineId;
use crate::resources::ResourceVec;
use crate::shard::ShardId;
use crate::EPS;

/// Planner tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlannerConfig {
    /// Maximum concurrent moves per batch (`0` = unlimited). Real
    /// datacenters cap concurrent index copies to bound network pressure.
    pub max_batch_moves: usize,
    /// Budget for total executed moves, as a multiple of the minimum
    /// required move count. Staging hops consume budget; exceeding it means
    /// the planner is cycling and reports a deadlock instead.
    pub move_budget_factor: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        // A source-blocked shard costs up to three moves (park a
        // co-resident, migrate, return), so stringent instances need a
        // budget well above the naive 1× diff size.
        Self {
            max_batch_moves: 0,
            move_budget_factor: 6.0,
        }
    }
}

/// One pending relocation: shard `s` must end up on `target`.
#[derive(Clone, Copy, Debug)]
struct Pending {
    shard: ShardId,
    target: MachineId,
    /// True for the homecoming leg of a source-freeing parking: the shard
    /// was temporarily evicted to free copy headroom on `target` and must
    /// eventually return there. Returns are deferred while `target` still
    /// has source-blocked departures, otherwise the parked shard would
    /// bounce home immediately and undo the freeing (a livelock).
    is_return: bool,
    /// Whether `(1+α)·d` fits on `target`.
    arrival: Fit,
    /// Whether `α·d` fits on the machine hosting the shard.
    departure: Fit,
    /// The last batch skipped this move without adding it — resolved, held
    /// or blocked — and neither of its machines has changed since, so the
    /// next batch would skip it again (see [`refresh`]).
    quiet: bool,
}

impl Pending {
    fn new(shard: ShardId, target: MachineId, is_return: bool) -> Self {
        Self {
            shard,
            target,
            is_return,
            arrival: Fit::UNKNOWN,
            departure: Fit::UNKNOWN,
            quiet: false,
        }
    }
}

/// One side of a pending move's capacity test *without* in-batch extra, as
/// computed in round `round`; it stands until a move touches that machine.
/// Extra only adds — `(u+e)+b ≥ u+b` for `e ≥ 0` under monotone rounding —
/// so a side that fails here fails with any extra: a blocked move is not
/// re-tested until its source or target changes.
#[derive(Clone, Copy, Debug)]
struct Fit {
    round: u32,
    ok: bool,
}

impl Fit {
    /// Not computed yet: older than any touch.
    const UNKNOWN: Fit = Fit {
        round: 0,
        ok: false,
    };
}

/// Plans a transient-feasible migration schedule from `initial` to `target`.
///
/// Both placements must have one entry per shard. The target placement is
/// *not* required to satisfy the vacancy quota here (callers check that with
/// [`Assignment::check_target`]); the planner only guarantees that the
/// returned schedule respects capacities at every instant and ends exactly
/// at `target`. A caller planning many targets from one placement keeps a
/// [`Planner`] instead: same plans, set up once.
///
/// # Errors
///
/// [`ClusterError::PlanningDeadlock`] if no transient-feasible schedule is
/// found within the move budget. This genuinely happens in stringent
/// environments without exchange machines — it is the phenomenon the paper
/// is about, not a planner bug. [`ClusterError::UnknownMachine`] if either
/// placement names a machine past the fleet.
pub fn plan_migration(
    inst: &Instance,
    initial: &[MachineId],
    target: &[MachineId],
    cfg: &PlannerConfig,
) -> Result<MigrationPlan, ClusterError> {
    let expected = inst.n_shards();
    if let Some(found) = [initial.len(), target.len()]
        .into_iter()
        .find(|&len| len != expected)
    {
        return Err(ClusterError::BadPlacementLength { expected, found });
    }
    Planner::new(inst, initial)?.plan(target, cfg)
}

/// The migration planner for one instance and one initial placement.
///
/// Everything a plan needs that does not depend on the target is built
/// once: the initial [`Assignment`], the shard order by demand norm, and
/// every shard's `(1+α)·d` and `α·d` rows. Each [`Planner::plan`] resets
/// its working state from these without allocating, so the plannability
/// gate of a search can call it on every would-be best. Plans are
/// byte-identical to [`plan_migration`]'s.
pub struct Planner<'a> {
    inst: &'a Instance,
    /// The initial placement; every plan starts from a copy.
    start: Assignment,
    /// All shards, largest demand norm first (equal norms by id): the order
    /// relocations are scheduled in. Big shards are the hardest to place;
    /// scheduling them early leaves the most flexibility.
    by_norm: Vec<ShardId>,
    /// `norm[s]`: the demand norm of shard `s`.
    norm: Vec<f64>,
    /// Row `s`: `(1+α)·d`, what shard `s` needs free to arrive.
    inflight: PackedVecs,
    /// Row `s`: `α·d`, what shard `s` needs free to depart.
    overhead: PackedVecs,
    work: Work,
}

/// A plan's working state, reset by every [`Planner::plan`].
struct Work {
    cur: Assignment,
    pending: Vec<Pending>,
    /// Each shard may be parked on an intermediate host at most once: its
    /// blockage is resolved by *other* machines draining, not by shuttling
    /// it between staging hosts.
    staged: Vec<bool>,
    /// `is_pending[s]`: shard `s` has an entry in `pending` (at most one).
    is_pending: Vec<bool>,
    /// `pos[s]`: the index of shard `s`'s entry in `pending`.
    pos: Vec<u32>,
    /// `by_target[m]`: shards whose entry targets `m` (retired ones until
    /// [`refresh`] next visits `m`).
    by_target: Vec<Vec<ShardId>>,
    /// `moved_in[s]`: the last round whose batch moved shard `s`.
    moved_in: Vec<u32>,
    /// The blocked-source set (see [`refresh`]).
    blocked: Vec<bool>,
    /// In-batch extra, `dims` values per machine; all-zero between rounds.
    extra: Vec<f64>,
    /// `touched[m]`: the last round whose moves changed machine `m`.
    touched: Vec<u32>,
    /// The machines the last round's moves changed (every machine before
    /// the first round).
    dirty: Vec<MachineId>,
}

impl<'a> Planner<'a> {
    /// Binds a planner to `inst` and the placement every plan starts from.
    ///
    /// # Errors
    ///
    /// [`ClusterError::BadPlacementLength`] or
    /// [`ClusterError::UnknownMachine`] when `initial` is not a placement
    /// of `inst`.
    pub fn new(inst: &'a Instance, initial: &[MachineId]) -> Result<Self, ClusterError> {
        let start = Assignment::from_placement(inst, initial.to_vec())?;
        let n = inst.n_shards();
        // The norm (a square root) is taken once per shard, not per
        // comparison; the sort is stable, so equal norms keep id order.
        let norm: Vec<f64> = inst.shards.iter().map(|s| s.demand.norm()).collect();
        let mut by_norm: Vec<ShardId> = (0..n).map(ShardId::from).collect();
        by_norm.sort_by(|a, b| {
            norm[b.idx()]
                .partial_cmp(&norm[a.idx()])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut inflight = PackedVecs::zeroed(inst.dims, n);
        let mut overhead = PackedVecs::zeroed(inst.dims, n);
        for (i, s) in inst.shards.iter().enumerate() {
            inflight.set(i, &s.demand.scaled(1.0 + inst.alpha));
            overhead.set(i, &s.demand.scaled(inst.alpha));
        }
        let work = Work {
            cur: start.clone(),
            pending: Vec::new(),
            staged: vec![false; n],
            is_pending: vec![false; n],
            pos: vec![0; n],
            by_target: vec![Vec::new(); inst.n_machines()],
            moved_in: vec![0; n],
            blocked: vec![false; inst.n_machines()],
            extra: vec![0.0; inst.n_machines() * inst.dims],
            touched: vec![0; inst.n_machines()],
            dirty: Vec::new(),
        };
        Ok(Self {
            inst,
            start,
            by_norm,
            norm,
            inflight,
            overhead,
            work,
        })
    }

    /// Plans a transient-feasible migration schedule from the bound initial
    /// placement to `target`: the plan (or error) [`plan_migration`] returns
    /// for the same arguments.
    ///
    /// # Errors
    ///
    /// [`ClusterError::BadPlacementLength`] when `target` has the wrong
    /// length, [`ClusterError::UnknownMachine`] when it names a machine
    /// past the fleet, and [`ClusterError::PlanningDeadlock`] as for
    /// [`plan_migration`].
    pub fn plan(
        &mut self,
        target: &[MachineId],
        cfg: &PlannerConfig,
    ) -> Result<MigrationPlan, ClusterError> {
        let Planner {
            inst,
            start,
            by_norm,
            norm,
            inflight,
            overhead,
            work,
        } = self;
        let inst = *inst;
        if target.len() != inst.n_shards() {
            return Err(ClusterError::BadPlacementLength {
                expected: inst.n_shards(),
                found: target.len(),
            });
        }
        let Work {
            cur,
            pending,
            staged,
            is_pending,
            pos,
            by_target,
            moved_in,
            blocked,
            extra,
            touched,
            dirty,
        } = work;
        cur.clone_from(start);
        let initial = start.placement();
        pending.clear();
        pending.extend(
            by_norm
                .iter()
                .filter(|s| initial[s.idx()] != target[s.idx()])
                .map(|&s| Pending::new(s, target[s.idx()], false)),
        );
        staged.fill(false);
        is_pending.fill(false);
        by_target.iter_mut().for_each(Vec::clear);
        for (i, p) in pending.iter().enumerate() {
            // Only a pending shard's target can name a machine past the
            // fleet: every other target is its (validated) initial machine.
            if p.target.idx() >= inst.n_machines() {
                return Err(ClusterError::UnknownMachine {
                    shard: p.shard,
                    machine: p.target,
                });
            }
            is_pending[p.shard.idx()] = true;
            pos[p.shard.idx()] = i as u32;
            by_target[p.target.idx()].push(p.shard);
        }
        moved_in.fill(0);
        extra.fill(0.0);
        touched.fill(0);
        dirty.clear();
        dirty.extend((0..inst.n_machines()).map(MachineId::from));

        let min_moves = pending.len();
        let budget = ((min_moves as f64) * cfg.move_budget_factor).ceil() as usize + 8;
        let mut executed = 0usize;
        let mut plan = MigrationPlan::default();
        let mut round = 0u32;
        // The last source-freeing parking: a repeat of it is a livelock.
        let mut last_parking: Option<Parking> = None;

        while !pending.is_empty() {
            round += 1;
            #[cfg(test)]
            ROUNDS.with(|r| r.set(r.get() + 1));
            let view = View {
                inst,
                norm,
                inflight,
                overhead,
                cur,
                touched,
                round,
            };
            // One blocked set per round: the staging fallbacks below only run
            // when the batch is empty, i.e. on the same `(cur, pending)`.
            refresh(&view, pending, is_pending, pos, by_target, dirty, blocked);
            dirty.clear();
            let batch = collect_batch(&view, pending, cfg, blocked, extra);
            // An empty batch is a deadlock: every pending move is
            // transiently infeasible. First try parking a pending shard on
            // an intermediate machine with headroom (target-side staging);
            // if that fails, free a blocked move's *source* by parking a
            // co-resident shard elsewhere and scheduling its return
            // (source-side staging, only relevant when alpha > 0 charges
            // copy overhead on the source).
            if !batch.is_empty() {
                // Commit the batch, retiring completed relocations.
                for mv in &batch {
                    apply(inst, cur, touched, dirty, mv, round);
                    moved_in[mv.shard.idx()] = round;
                    executed += 1;
                }
                retain(pending, is_pending, pos, |p| {
                    moved_in[p.shard.idx()] != round || cur.machine_of(p.shard) != p.target
                });
                plan.batches.push(batch);
            } else if let Some(mv) = find_staging_move(&view, pending, staged, blocked) {
                staged[mv.shard.idx()] = true;
                apply(inst, cur, touched, dirty, &mv, round);
                executed += 1;
                plan.batches.push(vec![mv]);
            } else if let Some(mv) = find_source_freeing_move(&view, pending, is_pending, blocked) {
                let parking = Parking::observe(cur, mv, executed);
                if last_parking.is_some_and(|prev| parking.repeats(&prev)) {
                    // Same planner state as two moves ago: the park/return
                    // pair repeats until the budget check below fires, so
                    // skip every whole cycle and let the last ≤ 2 moves run.
                    let cycles = (budget - executed) / 2;
                    executed += 2 * cycles;
                }
                last_parking = Some(parking);
                apply(inst, cur, touched, dirty, &mv, round);
                executed += 1;
                // The parked shard must end where the target says: back on
                // the machine it came from (it was not part of the diff).
                pos[mv.shard.idx()] = pending.len() as u32;
                pending.push(Pending::new(mv.shard, mv.from, true));
                is_pending[mv.shard.idx()] = true;
                by_target[mv.from.idx()].push(mv.shard);
                plan.batches.push(vec![mv]);
            } else if let Some(mv) = find_held_arrival(&view, pending) {
                // Every remaining blockage is a *hold* protecting a machine
                // whose own departures cannot be freed anyway: release the
                // smallest held arrival so the rest of the plan proceeds.
                apply(inst, cur, touched, dirty, &mv, round);
                executed += 1;
                retain(pending, is_pending, pos, |p| {
                    p.shard != mv.shard || cur.machine_of(p.shard) != p.target
                });
                plan.batches.push(vec![mv]);
            } else {
                return Err(ClusterError::PlanningDeadlock {
                    remaining_moves: pending.len(),
                });
            }
            if executed > budget {
                return Err(ClusterError::PlanningDeadlock {
                    remaining_moves: pending.len(),
                });
            }
        }
        Ok(plan)
    }
}

/// Executes `mv`: stamps both of its machines with `round` and lists them
/// in `dirty` once.
fn apply(
    inst: &Instance,
    cur: &mut Assignment,
    touched: &mut [u32],
    dirty: &mut Vec<MachineId>,
    mv: &Move,
    round: u32,
) {
    cur.move_shard(inst, mv.shard, mv.to);
    for m in [mv.from, mv.to] {
        if touched[m.idx()] != round {
            touched[m.idx()] = round;
            dirty.push(m);
        }
    }
}

/// `pending.retain(keep)`, keeping `is_pending` and `pos` in step.
fn retain(
    pending: &mut Vec<Pending>,
    is_pending: &mut [bool],
    pos: &mut [u32],
    mut keep: impl FnMut(&Pending) -> bool,
) {
    let mut kept = 0;
    for i in 0..pending.len() {
        let p = pending[i];
        if keep(&p) {
            pos[p.shard.idx()] = kept as u32;
            pending[kept] = p;
            kept += 1;
        } else {
            is_pending[p.shard.idx()] = false;
        }
    }
    pending.truncate(kept);
}

/// What a round's capacity tests read.
struct View<'v> {
    inst: &'v Instance,
    norm: &'v [f64],
    inflight: &'v PackedVecs,
    overhead: &'v PackedVecs,
    cur: &'v Assignment,
    touched: &'v [u32],
    round: u32,
}

impl View<'_> {
    /// `usage(m) + add ≤ C(m)` within [`EPS`], now.
    #[inline]
    fn fits(&self, m: MachineId, add: &[f64]) -> bool {
        fits(
            self.cur.usage_rows().row(m.idx()),
            add,
            self.inst.capacity(m).as_slice(),
        )
    }

    /// `(1+α)·d` of `p`'s shard fits on `p.target` now (no batch extra).
    #[inline]
    fn arrival_fits(&self, p: &mut Pending) -> bool {
        if p.arrival.round <= self.touched[p.target.idx()] {
            p.arrival = Fit {
                round: self.round,
                ok: self.fits(p.target, self.inflight.row(p.shard.idx())),
            };
        }
        p.arrival.ok
    }

    /// `α·d` of `p`'s shard fits on `from`, the machine hosting it now. A
    /// shard that moved since the last test sits on a machine touched since.
    #[inline]
    fn departure_fits(&self, p: &mut Pending, from: MachineId) -> bool {
        if p.departure.round <= self.touched[from.idx()] {
            p.departure = Fit {
                round: self.round,
                ok: self.fits(from, self.overhead.row(p.shard.idx())),
            };
        }
        p.departure.ok
    }
}

/// `u + add ≤ cap` within [`EPS`] per component —
/// [`ResourceVec::fits_after_add`] on rows.
#[inline]
fn fits(u: &[f64], add: &[f64], cap: &[f64]) -> bool {
    for ((&u, &a), &c) in u.iter().zip(add).zip(cap) {
        if u + a > c + EPS {
            return false;
        }
    }
    true
}

/// `(u + extra) + add ≤ cap` within [`EPS`] per component —
/// [`PackedVecs::fits_after_add2`] on rows.
#[inline]
fn fits2(u: &[f64], extra: &[f64], add: &[f64], cap: &[f64]) -> bool {
    for (((&u, &e), &a), &c) in u.iter().zip(extra).zip(add).zip(cap) {
        if (u + e) + a > c + EPS {
            return false;
        }
    }
    true
}

/// What the planner looked like when it chose a source-freeing parking —
/// the part of its state the parking and the parked shard's return touch.
#[derive(Clone, Copy)]
struct Parking {
    mv: Move,
    /// `executed` when the parking was chosen.
    executed: usize,
    /// Usage of `mv.from` and `mv.to` just before the parking.
    usage: [ResourceVec; 2],
    /// `mv.shard` was the last entry of `shards_on(mv.from)`, so leaving
    /// and coming back (swap-remove, push) keeps that list's order.
    last_on_source: bool,
}

impl Parking {
    fn observe(cur: &Assignment, mv: Move, executed: usize) -> Self {
        Self {
            mv,
            executed,
            usage: [cur.usage(mv.from), cur.usage(mv.to)],
            last_on_source: cur.shards_on(mv.from).last() == Some(&mv.shard),
        }
    }

    /// True when the planner state at `self` provably equals the state at
    /// `prev`, its previous parking. The same `Move` with `executed` exactly
    /// 2 higher means the one move in between was the parked shard's return
    /// (it is back on `mv.from`): its `Pending` entry was pushed last and
    /// retired by `retain` (the rest keeps its order), `is_pending` and
    /// `staged` are what they were, every other shard and usage row is
    /// untouched, `shards_on(mv.to)` popped what it pushed and
    /// `shards_on(mv.from)` kept its order because the shard was last. The
    /// two usage rows the round trip re-derived in floating point
    /// (`(u − d) + d` need not be `u`) are compared outright. The cached
    /// [`Fit`]s are not state: each equals the test it caches.
    fn repeats(&self, prev: &Parking) -> bool {
        #[cfg(test)]
        if FAST_FORWARD_OFF.with(|off| off.get()) {
            return false;
        }
        self.mv == prev.mv
            && self.executed == prev.executed + 2
            && prev.last_on_source
            && self.usage == prev.usage
    }
}

#[cfg(test)]
thread_local! {
    /// Planner rounds run on this thread (tests assert work, not time).
    static ROUNDS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    /// Switches the livelock fast-forward off: the reference the
    /// differential test compares `plan_migration` with.
    static FAST_FORWARD_OFF: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Greedily packs a batch of concurrently executable moves.
///
/// A move of shard `s` (demand `d`) from `f` to `t` is admissible given the
/// moves already in the batch iff
///
/// * `usage(t) + batch_extra(t) + (1+α)·d ≤ C(t)` — target holds the
///   arriving replica plus copy overhead, and
/// * `usage(f) + batch_extra(f) + α·d ≤ C(f)` — source still holds the
///   shard (already inside `usage(f)`) plus copy overhead.
///
/// `hold_arrivals` is the round's blocked-source set: no arrival may land on
/// a machine that still has a source-blocked ordinary departure. Arriving
/// first would consume the very headroom the departure's copy overhead
/// needs (and parked shards would bounce straight home, undoing the
/// freeing) — departures come first on congested machines. `extra` is
/// all-zero scratch (`dims` values per machine) and is handed back all-zero.
fn collect_batch(
    view: &View<'_>,
    pending: &mut [Pending],
    cfg: &PlannerConfig,
    hold_arrivals: &[bool],
    extra: &mut [f64],
) -> Vec<Move> {
    let dims = view.inst.dims;
    let row = |m: usize| m * dims..(m + 1) * dims;
    let usage = view.cur.usage_rows();
    let mut batch = Vec::new();
    for p in pending.iter_mut() {
        if cfg.max_batch_moves != 0 && batch.len() >= cfg.max_batch_moves {
            break;
        }
        if p.quiet {
            continue;
        }
        let from = view.cur.machine_of(p.shard);
        p.quiet = true;
        if from == p.target {
            continue; // already resolved by an earlier staging hop
        }
        if hold_arrivals[p.target.idx()] {
            continue; // arrival deferred until the target's departures clear
        }
        // Blocked without extra means blocked with it.
        if !view.arrival_fits(p) || !view.departure_fits(p, from) {
            continue;
        }
        p.quiet = false;
        let (t, f) = (p.target.idx(), from.idx());
        let inflight = view.inflight.row(p.shard.idx());
        let overhead = view.overhead.row(p.shard.idx());
        if fits2(
            usage.row(t),
            &extra[row(t)],
            inflight,
            view.inst.capacity(p.target).as_slice(),
        ) && fits2(
            usage.row(f),
            &extra[row(f)],
            overhead,
            view.inst.capacity(from).as_slice(),
        ) {
            for (e, &x) in extra[row(t)].iter_mut().zip(inflight) {
                *e += x;
            }
            for (e, &x) in extra[row(f)].iter_mut().zip(overhead) {
                *e += x;
            }
            batch.push(Move {
                shard: p.shard,
                from,
                to: p.target,
            });
        }
    }
    for mv in &batch {
        extra[row(mv.from.idx())].fill(0.0);
        extra[row(mv.to.idx())].fill(0.0);
    }
    batch
}

/// Brings the round's state up to date for the `dirty` machines — the only
/// ones whose usage, residents or pending departures changed since the
/// last round, so everything else carries over.
///
/// * `blocked[m]`, the blocked-source set: some shard must leave `m` by an
///   ordinary (non-return) move but `m` lacks its `α·d` copy headroom right
///   now. Such machines must not receive arrivals or host parked shards
///   until their departures clear.
/// * The moves whose shard sits on, or whose target is, a dirty machine
///   stop being quiet: a held move's hold and a blocked move's capacity
///   tests read only those two machines.
fn refresh(
    view: &View<'_>,
    pending: &mut [Pending],
    is_pending: &[bool],
    pos: &[u32],
    by_target: &mut [Vec<ShardId>],
    dirty: &[MachineId],
    blocked: &mut [bool],
) {
    for &m in dirty {
        let mut departure_blocked = false;
        for &s in view.cur.shards_on(m) {
            if !is_pending[s.idx()] {
                continue;
            }
            let p = &mut pending[pos[s.idx()] as usize];
            p.quiet = false;
            if view.inst.alpha > 0.0 && !p.is_return && p.target != m && !view.departure_fits(p, m)
            {
                departure_blocked = true;
            }
        }
        blocked[m.idx()] = departure_blocked;
        by_target[m.idx()].retain(|&s| {
            if !is_pending[s.idx()] {
                return false;
            }
            let p = &mut pending[pos[s.idx()] as usize];
            p.quiet &= p.target != m;
            p.target == m
        });
    }
}

/// Picks a two-hop staging move that breaks a deadlock: parks some pending
/// shard on an intermediate machine with transient headroom. Vacant
/// machines (the exchange machines, in particular) are preferred; among
/// admissible hosts the one with the lowest resulting load is chosen, so
/// staging perturbs the balance as little as possible.
fn find_staging_move(
    view: &View<'_>,
    pending: &mut [Pending],
    staged: &[bool],
    blocked: &[bool],
) -> Option<Move> {
    let (inst, cur) = (view.inst, view.cur);
    for p in pending.iter_mut() {
        if p.is_return || staged[p.shard.idx()] {
            continue; // parked shards wait for departures; re-staging them
                      // would circle them around the fleet forever
        }
        let from = cur.machine_of(p.shard);
        if from == p.target {
            continue;
        }
        // Stage only moves whose target is *physically* full right now.
        // A move that fits but was held back (its target has blocked
        // departures) needs patience, not staging — staging it would
        // ping-pong the shard between intermediate hosts forever.
        if view.arrival_fits(p) {
            continue;
        }
        // Source must be able to bear the copy overhead at all.
        if !view.departure_fits(p, from) {
            continue;
        }
        let d = inst.demand(p.shard);
        let inflight = view.inflight.row(p.shard.idx());

        let mut best: Option<(bool, f64, MachineId)> = None; // (vacant, -load, id)
        for mid in 0..inst.n_machines() {
            let v = MachineId::from(mid);
            if v == from || v == p.target || blocked[v.idx()] {
                continue;
            }
            if !view.fits(v, inflight) {
                continue;
            }
            let load_after = cur
                .usage_rows()
                .max_ratio_after_add(v.idx(), d, inst.capacity(v));
            let key = (cur.is_vacant(v), -load_after, v);
            let better = match &best {
                None => true,
                Some((bv, bl, _)) => (key.0, key.1) > (*bv, *bl),
            };
            if better {
                best = Some(key);
            }
        }
        if let Some((_, _, v)) = best {
            return Some(Move {
                shard: p.shard,
                from,
                to: v,
            });
        }
    }
    None
}

/// Source-side staging: a pending move can be blocked because its *source*
/// lacks the `α·d` copy headroom (only possible when `alpha > 0`). Parking
/// a co-resident shard elsewhere frees exactly its demand on the source.
/// Prefers a parking that single-handedly unblocks the move; the parked
/// shard is scheduled to return afterwards (the caller appends that pending
/// entry), so the final placement is unchanged.
fn find_source_freeing_move(
    view: &View<'_>,
    pending: &mut [Pending],
    is_pending: &[bool],
    blocked: &[bool],
) -> Option<Move> {
    let (inst, cur) = (view.inst, view.cur);
    if inst.alpha <= 0.0 {
        return None; // sources can never block without copy overhead
    }
    for p in pending.iter_mut() {
        if p.is_return {
            continue; // returns resolve via departures, not more parking
        }
        let from = cur.machine_of(p.shard);
        if from == p.target {
            continue;
        }
        // Only source-blocked moves are candidates here.
        if view.departure_fits(p, from) {
            continue;
        }
        let overhead = view.overhead.row(p.shard.idx());
        // Co-resident shards that are not themselves pending (pending ones
        // are handled by target-side staging), largest-unblocking first.
        let mut best: Option<(bool, f64, Move)> = None; // (unblocks, -d_norm, move)
        for &s in cur.shards_on(from) {
            if s == p.shard || is_pending[s.idx()] {
                continue;
            }
            let ds = inst.demand(s);
            // Moving s itself must be transiently possible from this source.
            if !view.fits(from, view.overhead.row(s.idx())) {
                continue;
            }
            // Does parking s free enough for p's overhead?
            let mut after = cur.usage(from);
            after.saturating_sub_assign(ds);
            let unblocks = fits(after.as_slice(), overhead, inst.capacity(from).as_slice());
            // Find the best host for s.
            let inflight = view.inflight.row(s.idx());
            let mut host: Option<(bool, f64, MachineId)> = None;
            for mid in 0..inst.n_machines() {
                let v = MachineId::from(mid);
                // Never park on the blocked move's own target (the parked
                // shard would consume exactly the room the move needs) nor
                // on another blocked source.
                if v == from || v == p.target || blocked[v.idx()] || !view.fits(v, inflight) {
                    continue;
                }
                let load_after =
                    cur.usage_rows()
                        .max_ratio_after_add(v.idx(), ds, inst.capacity(v));
                let key = (cur.is_vacant(v), -load_after, v);
                if host.is_none_or(|(bv, bl, _)| (key.0, key.1) > (bv, bl)) {
                    host = Some(key);
                }
            }
            if let Some((_, _, v)) = host {
                let key = (
                    unblocks,
                    view.norm[s.idx()],
                    Move {
                        shard: s,
                        from,
                        to: v,
                    },
                );
                let better = match &best {
                    None => true,
                    Some((bu, bn, _)) => (key.0, key.1) > (*bu, *bn),
                };
                if better {
                    best = Some(key);
                }
            }
        }
        if let Some((_, _, mv)) = best {
            return Some(mv);
        }
    }
    None
}

/// Last-resort progress: a pending move (return or ordinary) that is
/// physically feasible on both sides *right now* and was only skipped by
/// the arrival hold. Smallest demand first, so the protected machine is
/// perturbed as little as possible.
fn find_held_arrival(view: &View<'_>, pending: &mut [Pending]) -> Option<Move> {
    let mut best: Option<(f64, Move)> = None;
    for p in pending.iter_mut() {
        let from = view.cur.machine_of(p.shard);
        if from == p.target {
            continue;
        }
        if view.arrival_fits(p) && view.departure_fits(p, from) {
            let key = view.norm[p.shard.idx()];
            if best.as_ref().is_none_or(|(b, _)| key < *b) {
                best = Some((
                    key,
                    Move {
                        shard: p.shard,
                        from,
                        to: p.target,
                    },
                ));
            }
        }
    }
    best.map(|(_, mv)| mv)
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::migration::verify_schedule;

    /// Two machines, swap two shards that jointly can't fit: needs staging.
    fn swap_instance(with_exchange: bool) -> Instance {
        let mut b = InstanceBuilder::new(1).alpha(0.0).k_return(0);
        let m0 = b.machine(&[10.0]);
        let m1 = b.machine(&[10.0]);
        if with_exchange {
            b.exchange_machine(&[10.0]);
        }
        b.shard(&[8.0], 1.0, m0);
        b.shard(&[8.0], 1.0, m1);
        b.build().unwrap()
    }

    fn swap_target(_inst: &Instance) -> Vec<MachineId> {
        vec![MachineId(1), MachineId(0)]
    }

    #[test]
    fn direct_swap_deadlocks_without_exchange() {
        let inst = swap_instance(false);
        let target = swap_target(&inst);
        let err = plan_migration(&inst, &inst.initial, &target, &PlannerConfig::default());
        assert!(matches!(err, Err(ClusterError::PlanningDeadlock { .. })));
    }

    #[test]
    fn swap_succeeds_with_exchange_machine() {
        let inst = swap_instance(true);
        let target = swap_target(&inst);
        let plan =
            plan_migration(&inst, &inst.initial, &target, &PlannerConfig::default()).unwrap();
        verify_schedule(&inst, &inst.initial, &target, &plan).unwrap();
        assert!(plan.extra_hops() >= 1, "a staging hop was required");
    }

    #[test]
    fn noop_migration_is_empty() {
        let inst = swap_instance(true);
        let plan = plan_migration(
            &inst,
            &inst.initial,
            &inst.initial,
            &PlannerConfig::default(),
        )
        .unwrap();
        assert_eq!(plan.n_moves(), 0);
    }

    #[test]
    fn easy_moves_are_batched_together() {
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[100.0]);
        let m1 = b.machine(&[100.0]);
        for _ in 0..4 {
            b.shard(&[1.0], 1.0, m0);
        }
        let inst = b.build().unwrap();
        let target = vec![m1; 4];
        let plan =
            plan_migration(&inst, &inst.initial, &target, &PlannerConfig::default()).unwrap();
        verify_schedule(&inst, &inst.initial, &target, &plan).unwrap();
        assert_eq!(plan.n_batches(), 1, "all four moves fit concurrently");
        assert_eq!(plan.n_moves(), 4);
    }

    #[test]
    fn batch_size_cap_is_respected() {
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[100.0]);
        let m1 = b.machine(&[100.0]);
        for _ in 0..4 {
            b.shard(&[1.0], 1.0, m0);
        }
        let inst = b.build().unwrap();
        let target = vec![m1; 4];
        let cfg = PlannerConfig {
            max_batch_moves: 1,
            ..Default::default()
        };
        let plan = plan_migration(&inst, &inst.initial, &target, &cfg).unwrap();
        verify_schedule(&inst, &inst.initial, &target, &plan).unwrap();
        assert_eq!(plan.n_batches(), 4);
        assert!(plan.batches.iter().all(|b| b.len() == 1));
    }

    #[test]
    fn alpha_overhead_blocks_tight_moves() {
        // Target has exactly room for d but not for (1+α)·d.
        let mut b = InstanceBuilder::new(1).alpha(0.5);
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        b.shard(&[4.0], 1.0, m0); // stays
        b.shard(&[4.5], 1.0, MachineId(1)); // occupies target: free = 5.5 < 1.5*4
        b.shard(&[4.0], 1.0, m0); // wants to move to m1
        let inst = b.build().unwrap();
        let mut target = inst.initial.clone();
        target[2] = MachineId(1);
        let res = plan_migration(&inst, &inst.initial, &target, &PlannerConfig::default());
        assert!(matches!(res, Err(ClusterError::PlanningDeadlock { .. })));
    }

    #[test]
    fn alpha_overhead_allows_loose_moves() {
        let mut b = InstanceBuilder::new(1).alpha(0.5);
        let m0 = b.machine(&[10.0]);
        let m1 = b.machine(&[10.0]);
        b.shard(&[4.0], 1.0, m0);
        let inst = b.build().unwrap();
        let target = vec![m1];
        let plan =
            plan_migration(&inst, &inst.initial, &target, &PlannerConfig::default()).unwrap();
        verify_schedule(&inst, &inst.initial, &target, &plan).unwrap();
    }

    #[test]
    fn source_freeing_unblocks_alpha_blocked_evacuation() {
        // m0 (cap 10) holds big=8 and small=1.5 (free 0.5). With α=0.2 the
        // big shard needs 1.6 free at its source — blocked until the small
        // shard is parked elsewhere. The planner must park the small shard,
        // move the big one, and bring the small one home.
        let mut b = InstanceBuilder::new(1).alpha(0.2);
        let m0 = b.machine(&[10.0]);
        let m1 = b.machine(&[10.0]);
        let _m2 = b.machine(&[10.0]); // parking space for the small shard
        let big = b.shard(&[8.0], 1.0, m0);
        let _small = b.shard(&[1.5], 1.0, m0);
        let inst = b.build().unwrap();
        let mut target = inst.initial.clone();
        target[big.idx()] = m1;
        let plan = plan_migration(&inst, &inst.initial, &target, &PlannerConfig::default())
            .expect("source-freeing staging must unblock this");
        verify_schedule(&inst, &inst.initial, &target, &plan).unwrap();
        assert!(
            plan.n_moves() >= 3,
            "park + big move + return, got {}",
            plan.n_moves()
        );
    }

    #[test]
    fn source_freeing_not_used_when_alpha_zero() {
        // Same geometry but α=0: no source blocking, direct move suffices.
        let mut b = InstanceBuilder::new(1).alpha(0.0);
        let m0 = b.machine(&[10.0]);
        let m1 = b.machine(&[10.0]);
        let big = b.shard(&[8.0], 1.0, m0);
        let _small = b.shard(&[1.5], 1.0, m0);
        let inst = b.build().unwrap();
        let mut target = inst.initial.clone();
        target[big.idx()] = m1;
        let plan =
            plan_migration(&inst, &inst.initial, &target, &PlannerConfig::default()).unwrap();
        assert_eq!(plan.n_moves(), 1);
    }

    #[test]
    fn sealed_machine_targets_fail_cleanly() {
        // m0 holds two large shards and no parkable co-resident: its free
        // space (0.5) cannot bear either departure's α·d (≈0.95), so any
        // target that moves them is undeliverable — the planner must say so.
        let mut b = InstanceBuilder::new(1).alpha(0.2);
        let m0 = b.machine(&[10.0]);
        let m1 = b.machine(&[10.0]);
        let big = b.shard(&[4.8], 1.0, m0);
        let _big2 = b.shard(&[4.7], 1.0, m0);
        let inst = b.build().unwrap();
        let mut target = inst.initial.clone();
        target[big.idx()] = m1;
        assert!(matches!(
            plan_migration(&inst, &inst.initial, &target, &PlannerConfig::default()),
            Err(ClusterError::PlanningDeadlock { .. })
        ));
    }

    #[test]
    fn departures_precede_arrivals_on_congested_machines() {
        // m0 (cap 10): big=8 + small=1.5, free 0.5. Target: big leaves to
        // m1 AND a 1.0-shard arrives from m2. Arriving first would fill m0
        // past the point where the big's parking/departure can proceed;
        // the planner must sequence departures (with the small parked on
        // m2/m1) before the arrival.
        let mut b = InstanceBuilder::new(1).alpha(0.2);
        let m0 = b.machine(&[10.0]);
        let m1 = b.machine(&[10.0]);
        let m2 = b.machine(&[10.0]);
        let big = b.shard(&[8.0], 1.0, m0);
        let _small = b.shard(&[1.5], 1.0, m0);
        let incoming = b.shard(&[1.0], 1.0, m2);
        let inst = b.build().unwrap();
        let mut target = inst.initial.clone();
        target[big.idx()] = m1;
        target[incoming.idx()] = m0;
        let plan = plan_migration(&inst, &inst.initial, &target, &PlannerConfig::default())
            .expect("orderable with departures first");
        verify_schedule(&inst, &inst.initial, &target, &plan).unwrap();
        // The big's departure (or its parking) must come before the arrival
        // onto m0.
        let mut big_left_at = None;
        let mut arrived_at = None;
        for (i, batch) in plan.batches.iter().enumerate() {
            for mv in batch {
                if mv.shard == big && mv.from == m0 {
                    big_left_at = Some(i);
                }
                if mv.shard == incoming && mv.to == m0 {
                    arrived_at = Some(i);
                }
            }
        }
        assert!(
            big_left_at.unwrap() <= arrived_at.unwrap(),
            "departure batch {big_left_at:?} must not follow arrival batch {arrived_at:?}"
        );
    }

    #[test]
    fn shards_are_staged_at_most_once() {
        // Large random-ish scenario: verify no shard appears in more than
        // two extra staging hops (park + return) — the staged-once rule.
        let mut b = InstanceBuilder::new(1).alpha(0.1);
        let machines: Vec<MachineId> = (0..6).map(|_| b.machine(&[10.0])).collect();
        for i in 0..18 {
            b.shard(&[1.0 + (i % 3) as f64], 1.0, machines[i % 6]);
        }
        let inst = b.build().unwrap();
        // Rotate every shard one machine to the right.
        let target: Vec<MachineId> = inst
            .initial
            .iter()
            .map(|m| MachineId::from((m.idx() + 1) % 6))
            .collect();
        if let Ok(plan) = plan_migration(&inst, &inst.initial, &target, &PlannerConfig::default()) {
            verify_schedule(&inst, &inst.initial, &target, &plan).unwrap();
            use std::collections::HashMap;
            let mut counts: HashMap<crate::shard::ShardId, usize> = HashMap::new();
            for mv in plan.moves() {
                *counts.entry(mv.shard).or_default() += 1;
            }
            assert!(counts.values().all(|&c| c <= 3), "{counts:?}");
        }
    }

    /// `plan_migration` with the planner rounds it ran; `fast_forward:
    /// false` is the reference loop that walks every park/return cycle.
    fn plan_counting_rounds(
        inst: &Instance,
        target: &[MachineId],
        fast_forward: bool,
    ) -> (Result<Vec<Vec<Move>>, ClusterError>, u32) {
        ROUNDS.with(|r| r.set(0));
        FAST_FORWARD_OFF.with(|off| off.set(!fast_forward));
        let res = plan_migration(inst, &inst.initial, target, &PlannerConfig::default());
        FAST_FORWARD_OFF.with(|off| off.set(false));
        (res.map(|plan| plan.batches), ROUNDS.with(|r| r.get()))
    }

    #[test]
    fn park_return_livelock_is_fast_forwarded_to_the_same_error() {
        // The shape the stringent solves hit (`s619: m14→m17` and back, 416–
        // 484 times a gate call): m0 is a sealed source — big (8.0) may not
        // leave while free < α·8 = 1.6 — whose one co-resident fits exactly
        // one other host (m2). Parking it unblocks the source, but big's
        // target m1 never has the 9.6 an arrival needs, so the next round's
        // one-move batch brings the co-resident home and the state repeats.
        // 200 easy filler moves widen the budget to 1214 moves.
        let mut b = InstanceBuilder::new(1).alpha(0.2);
        let m: Vec<MachineId> = (0..5).map(|_| b.machine(&[10.0])).collect();
        let big = b.shard(&[8.0], 1.0, m[0]);
        b.shard(&[1.5], 1.0, m[0]);
        b.shard(&[1.0], 1.0, m[1]);
        b.shard(&[8.5], 1.0, m[3]);
        b.shard(&[8.5], 1.0, m[4]);
        let fillers: Vec<ShardId> = (0..200).map(|_| b.shard(&[0.001], 1.0, m[3])).collect();
        let inst = b.build().unwrap();
        let mut target = inst.initial.clone();
        target[big.idx()] = m[1];
        for s in fillers {
            target[s.idx()] = m[4];
        }

        let (fast, rounds) = plan_counting_rounds(&inst, &target, true);
        let (slow, reference_rounds) = plan_counting_rounds(&inst, &target, false);
        assert_eq!(
            fast,
            Err(ClusterError::PlanningDeadlock { remaining_moves: 2 })
        );
        assert_eq!(fast, slow);
        assert!(reference_rounds > 1000, "{reference_rounds}");
        // Fillers, park, return, park again (the first repeat) — then at
        // most the two moves the fast-forward leaves to the ordinary exit.
        let first_repeat = 4;
        assert!(rounds <= first_repeat + 2, "{rounds} rounds");
    }

    /// A fleet at 0.85–0.95 fill with copy overhead, and a capacity-feasible
    /// target a few random moves away — tight enough that sources seal,
    /// parkings bounce and budgets run out. A third of the fleets also carry
    /// the livelock's own shape (a sealed source whose big shard is bound for
    /// a machine that holds `d` but never `(1+α)·d`), so the fast-forward
    /// meets every budget parity the random moves around it produce.
    fn tight_instance(seed: u64) -> (Instance, Vec<MachineId>) {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = rng.random_range(1..3usize);
        let alpha = [0.1, 0.2, 0.3][rng.random_range(0..3usize)];
        let mut b = InstanceBuilder::new(dims).alpha(alpha);
        let n_machines = rng.random_range(3..10usize);
        let mut n_random_shards = 0usize;
        for mi in 0..n_machines {
            let m = b.machine(&vec![10.0; dims]);
            // The last machine keeps room; the rest fill to 0.85–0.95.
            let fill = if mi + 1 == n_machines {
                rng.random_range(2.0..8.0)
            } else {
                rng.random_range(8.5..9.5)
            };
            let mut used = 0.0;
            while used < fill {
                let d = f64::min(fill - used + 1e-3, rng.random_range(0.2..3.0));
                let demand: Vec<f64> = (0..dims).map(|_| d * rng.random_range(0.9..1.0)).collect();
                b.shard(&demand, 1.0, m);
                n_random_shards += 1;
                used += d;
            }
        }
        let bound_for = (rng.random_range(0..3) == 0).then(|| {
            let (sealed, full) = (b.machine(&vec![10.0; dims]), b.machine(&vec![10.0; dims]));
            let big: f64 = rng.random_range(4.0..6.5);
            let small: f64 = rng.random_range(0.3..1.2);
            let free = alpha * big * 0.9; // < α·big: big may not leave
            let s = b.shard(&vec![big; dims], 1.0, sealed);
            b.shard(&vec![10.0 - free - big - small; dims], 1.0, sealed);
            b.shard(&vec![small; dims], 1.0, sealed);
            b.shard(&vec![10.0 - big * (1.0 + alpha / 2.0); dims], 1.0, full);
            (s, full)
        });
        for _ in 0..rng.random_range(0..3) {
            b.exchange_machine(&vec![10.0; dims]);
        }
        let inst = b.build().unwrap();
        let mut asg = Assignment::from_initial(&inst);
        if let Some((s, full)) = bound_for {
            asg.move_shard(&inst, s, full);
        }
        // Mostly moves whose target holds `d` but not the `(1+α)·d` an
        // arrival needs: deliverable only after a departure, if at all.
        for _ in 0..rng.random_range(1..10 * n_machines) {
            let s = ShardId::from(rng.random_range(0..n_random_shards));
            let to = MachineId::from(rng.random_range(0..n_machines));
            let inflight = inst.demand(s).scaled(1.0 + alpha);
            let roomy = asg
                .usage_rows()
                .fits_after_add(to.idx(), &inflight, inst.capacity(to));
            if asg.fits(&inst, s, to) && (!roomy || rng.random_range(0..8) == 0) {
                asg.move_shard(&inst, s, to);
            }
        }
        (inst, asg.into_placement())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The fast-forward changes no `Ok` plan and no `Err` payload.
        #[test]
        fn fast_forward_equals_the_walked_out_loop(seed in proptest::prelude::any::<u64>()) {
            let (inst, target) = tight_instance(seed);
            let (fast, rounds) = plan_counting_rounds(&inst, &target, true);
            let (slow, reference_rounds) = plan_counting_rounds(&inst, &target, false);
            proptest::prop_assert_eq!(&fast, &slow);
            proptest::prop_assert!(rounds <= reference_rounds);
            if let Ok(batches) = fast {
                let plan = MigrationPlan { batches };
                verify_schedule(&inst, &inst.initial, &target, &plan).unwrap();
            }
        }

        /// A target that plans under the gate's budget (factor 2) gets the
        /// same plan under the final plan's (factor 6): a call that succeeds
        /// never fast-forwards and never reaches its budget.
        #[test]
        fn a_plan_at_factor_two_is_the_plan_at_factor_six(seed in proptest::prelude::any::<u64>()) {
            let (inst, target) = tight_instance(seed);
            let mut planner = Planner::new(&inst, &inst.initial).unwrap();
            for max_batch_moves in [0, 4] {
                let at = |move_budget_factor| PlannerConfig { max_batch_moves, move_budget_factor };
                if let Ok(two) = planner.plan(&target, &at(2.0)) {
                    proptest::prop_assert_eq!(Ok(two.batches), outcome(planner.plan(&target, &at(6.0))));
                }
            }
        }
    }

    #[test]
    fn the_differential_fixtures_reach_the_livelock() {
        let (mut livelocks, mut planned) = (0, 0);
        for seed in 0..300 {
            let (inst, target) = tight_instance(seed);
            let (fast, rounds) = plan_counting_rounds(&inst, &target, true);
            let (_, reference_rounds) = plan_counting_rounds(&inst, &target, false);
            livelocks += usize::from(rounds < reference_rounds);
            planned += usize::from(fast.is_ok());
        }
        assert!(livelocks >= 50, "only {livelocks} of 300 fixtures livelock");
        assert!(planned >= 50, "only {planned} of 300 fixtures plan");
    }

    #[test]
    fn rejects_bad_lengths() {
        let inst = swap_instance(true);
        let res = plan_migration(
            &inst,
            &inst.initial[..1],
            &swap_target(&inst),
            &PlannerConfig::default(),
        );
        assert!(matches!(res, Err(ClusterError::BadPlacementLength { .. })));
    }

    #[test]
    fn a_too_long_target_reports_its_own_length() {
        let inst = swap_instance(true);
        let mut target = swap_target(&inst);
        target.push(MachineId(0));
        let long = ClusterError::BadPlacementLength {
            expected: inst.n_shards(),
            found: inst.n_shards() + 1,
        };
        let cfg = PlannerConfig::default();
        let res = plan_migration(&inst, &inst.initial, &target, &cfg);
        assert_eq!(res.unwrap_err(), long);
        let res = reference::plan_migration(&inst, &inst.initial, &target, &cfg);
        assert_eq!(res.unwrap_err(), long);
    }

    #[test]
    fn targets_past_the_fleet_are_unknown_machines() {
        let inst = swap_instance(true);
        let past = MachineId::from(inst.n_machines());
        let cfg = PlannerConfig::default();
        let err = ClusterError::UnknownMachine {
            shard: ShardId(1),
            machine: past,
        };
        let hostile = [MachineId(1), past];
        assert_eq!(
            outcome(plan_migration(&inst, &inst.initial, &hostile, &cfg)),
            Err(err)
        );
        // A planner that rejected one target still plans the next exactly.
        let mut planner = Planner::new(&inst, &inst.initial).unwrap();
        assert!(planner.plan(&hostile, &cfg).is_err());
        let target = swap_target(&inst);
        assert_eq!(
            outcome(planner.plan(&target, &cfg)),
            reference(&inst, &target, &cfg)
        );
    }

    /// The settings every differential target is planned under: unlimited
    /// and capped batches, the gate's budget factor and the final plan's.
    const CONFIGS: [PlannerConfig; 4] = [
        PlannerConfig {
            max_batch_moves: 0,
            move_budget_factor: 2.0,
        },
        PlannerConfig {
            max_batch_moves: 0,
            move_budget_factor: 6.0,
        },
        PlannerConfig {
            max_batch_moves: 4,
            move_budget_factor: 2.0,
        },
        PlannerConfig {
            max_batch_moves: 4,
            move_budget_factor: 6.0,
        },
    ];

    /// Plan bytes on `Ok`, the payload on `Err`.
    type Outcome = Result<Vec<Vec<Move>>, ClusterError>;

    fn outcome(res: Result<MigrationPlan, ClusterError>) -> Outcome {
        res.map(|plan| plan.batches)
    }

    /// What the planning loop did before the planner kept its state.
    fn reference(inst: &Instance, target: &[MachineId], cfg: &PlannerConfig) -> Outcome {
        outcome(reference::plan_migration(inst, &inst.initial, target, cfg))
    }

    #[test]
    fn the_fixtures_plan_like_the_reference() {
        for seed in 0..300 {
            let (inst, target) = tight_instance(seed);
            // Half of the relocations, then all of them, under every
            // setting — through one planner, so leaked scratch would show.
            let half: Vec<MachineId> = (0..inst.n_shards())
                .map(|i| {
                    if i % 2 == 0 {
                        target[i]
                    } else {
                        inst.initial[i]
                    }
                })
                .collect();
            let mut planner = Planner::new(&inst, &inst.initial).unwrap();
            for cfg in &CONFIGS {
                for t in [&half, &target] {
                    let want = reference(&inst, t, cfg);
                    assert_eq!(outcome(planner.plan(t, cfg)), want, "seed {seed} {cfg:?}");
                    assert_eq!(outcome(plan_migration(&inst, &inst.initial, t, cfg)), want);
                }
            }
        }
    }

    /// A 100+8 × 1000 fleet shaped like the benchmark's stringent inputs:
    /// three correlated dimensions normalized to `stringency` of the loaded
    /// capacity (each capped at 0.45 of a machine), placed largest first
    /// onto the first 40 machines up to 0.93, the rest best fit; α = 0.1.
    fn stringent_fleet(stringency: f64, seed: u64) -> Instance {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let machines = 100;
        let mut demands: Vec<[f64; 3]> = (0..1000)
            .map(|_| {
                let size = rng.random_range(0.2..2.0f64).powi(2);
                std::array::from_fn(|_| 0.7 * size + 0.3 * rng.random_range(0.1..1.0))
            })
            .collect();
        for r in 0..3 {
            let total: f64 = demands.iter().map(|d| d[r]).sum();
            for d in &mut demands {
                d[r] = (d[r] * stringency * machines as f64 / total).min(0.45);
            }
        }
        let peak = |d: &[f64; 3]| d.iter().copied().fold(0.0, f64::max);
        demands.sort_by(|a, b| peak(b).total_cmp(&peak(a)));
        let fits = |u: &[f64; 3], d: &[f64; 3], cap: f64| (0..3).all(|r| u[r] + d[r] <= cap);
        let mut usage = vec![[0.0f64; 3]; machines];
        let mut b = InstanceBuilder::new(3).alpha(0.1);
        let ms: Vec<MachineId> = (0..machines).map(|_| b.machine(&[1.0; 3])).collect();
        for _ in 0..8 {
            b.exchange_machine(&[1.0; 3]);
        }
        for d in &demands {
            let host = (0..40)
                .find(|&m| fits(&usage[m], d, 0.93))
                .or_else(|| {
                    (0..machines)
                        .filter(|&m| fits(&usage[m], d, 1.0))
                        .min_by(|&x, &y| peak(&usage[x]).total_cmp(&peak(&usage[y])))
                })
                .expect("the fleet packs");
            for r in 0..3 {
                usage[host][r] += d[r];
            }
            b.shard(d, d[2].max(1e-9), ms[host]);
        }
        b.build().unwrap()
    }

    /// A search-like sequence of targets: each makes ten more moves, half of
    /// them a shard off the hottest machine onto the least loaded one with
    /// `(1+α)·d` free, half a random shard onto a random machine with `d`
    /// free — which only a schedule that empties it first can deliver.
    fn gate_like_targets(inst: &Instance, n: usize, seed: u64) -> Vec<Vec<MachineId>> {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut asg = Assignment::from_initial(inst);
        let mut out = Vec::new();
        while out.len() < n {
            for _ in 0..10 {
                if rng.random_range(0..2) == 0 {
                    let s = ShardId::from(rng.random_range(0..inst.n_shards()));
                    let to = MachineId::from(rng.random_range(0..inst.n_machines()));
                    if asg.fits(inst, s, to) {
                        asg.move_shard(inst, s, to);
                    }
                    continue;
                }
                let loads = asg.loads(inst);
                let by_load = |a: &usize, b: &usize| loads[*a].total_cmp(&loads[*b]);
                let hot = (0..inst.n_machines()).max_by(by_load).unwrap();
                let on = asg.shards_on(MachineId::from(hot));
                let s = on[rng.random_range(0..on.len())];
                let inflight = inst.demand(s).scaled(1.0 + inst.alpha);
                let to = (0..inst.n_machines())
                    .filter(|&m| {
                        m != hot
                            && asg.usage_rows().fits_after_add(
                                m,
                                &inflight,
                                inst.capacity(MachineId::from(m)),
                            )
                    })
                    .min_by(by_load);
                if let Some(to) = to {
                    asg.move_shard(inst, s, MachineId::from(to));
                }
            }
            out.push(asg.placement().to_vec());
        }
        out
    }

    #[test]
    fn generated_fleets_plan_like_the_reference_through_one_planner() {
        let (mut planned, mut deadlocked) = (0, 0);
        for (i, stringency) in [0.85, 0.90, 0.95].into_iter().enumerate() {
            let inst = stringent_fleet(stringency, 11 + i as u64);
            let targets = gate_like_targets(&inst, 6, i as u64);
            for cfg in &CONFIGS {
                // Forward, then back: every target is proposed twice.
                let mut planner = Planner::new(&inst, &inst.initial).unwrap();
                for t in targets.iter().chain(targets.iter().rev()) {
                    let got = outcome(planner.plan(t, cfg));
                    assert_eq!(got, reference(&inst, t, cfg), "{stringency} {cfg:?}");
                    planned += usize::from(got.is_ok());
                    deadlocked += usize::from(got.is_err());
                }
            }
        }
        assert!(
            planned > 0 && deadlocked > 0,
            "{planned} planned, {deadlocked} deadlocked"
        );
    }
}
