//! The migration planner: batched greedy scheduling with two-hop staging.

use super::{MigrationPlan, Move};
use crate::assignment::Assignment;
use crate::error::ClusterError;
use crate::instance::Instance;
use crate::machine::MachineId;
use crate::resources::ResourceVec;
use crate::shard::ShardId;

/// Planner tuning knobs.
#[derive(Clone, Copy, Debug)]
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
}

/// Plans a transient-feasible migration schedule from `initial` to `target`.
///
/// Both placements must have one entry per shard. The target placement is
/// *not* required to satisfy the vacancy quota here (callers check that with
/// [`Assignment::check_target`]); the planner only guarantees that the
/// returned schedule respects capacities at every instant and ends exactly
/// at `target`.
///
/// # Errors
///
/// [`ClusterError::PlanningDeadlock`] if no transient-feasible schedule is
/// found within the move budget. This genuinely happens in stringent
/// environments without exchange machines — it is the phenomenon the paper
/// is about, not a planner bug.
pub fn plan_migration(
    inst: &Instance,
    initial: &[MachineId],
    target: &[MachineId],
    cfg: &PlannerConfig,
) -> Result<MigrationPlan, ClusterError> {
    if initial.len() != inst.n_shards() || target.len() != inst.n_shards() {
        return Err(ClusterError::BadPlacementLength {
            expected: inst.n_shards(),
            found: initial.len().min(target.len()),
        });
    }

    let mut cur = Assignment::from_placement(inst, initial.to_vec())?;

    // Collect required relocations, largest demand first: big shards are the
    // hardest to place, scheduling them early leaves the most flexibility.
    // The norm (a square root) is taken once per shard, not per comparison.
    let mut by_norm: Vec<(f64, Pending)> = (0..inst.n_shards())
        .filter(|&i| initial[i] != target[i])
        .map(|i| {
            let relocation = Pending {
                shard: ShardId::from(i),
                target: target[i],
                is_return: false,
            };
            (inst.shards[i].demand.norm(), relocation)
        })
        .collect();
    by_norm.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut pending: Vec<Pending> = by_norm.into_iter().map(|(_, p)| p).collect();

    let min_moves = pending.len();
    let budget = ((min_moves as f64) * cfg.move_budget_factor).ceil() as usize + 8;
    let mut executed = 0usize;
    let mut plan = MigrationPlan::default();
    // Each shard may be parked on an intermediate host at most once: its
    // blockage is resolved by *other* machines draining, not by shuttling
    // it between staging hosts.
    let mut staged = vec![false; inst.n_shards()];
    // Per-round scratch, allocated once: a gate call runs hundreds of
    // rounds over the same fleet.
    let mut blocked = vec![false; inst.n_machines()];
    let mut extra = vec![ResourceVec::zero(inst.dims); inst.n_machines()];
    // `is_pending[s]`: shard `s` has an entry in `pending`.
    let mut is_pending = vec![false; inst.n_shards()];
    for p in &pending {
        is_pending[p.shard.idx()] = true;
    }
    // `moved_in[s]`: the last round whose batch moved shard `s`.
    let mut moved_in = vec![0u32; inst.n_shards()];
    let mut round = 0u32;
    // The last source-freeing parking, and the one that was recognised as a
    // livelock (with the number of park/return cycles skipped).
    let mut last_parking: Option<Parking> = None;
    let mut livelock: Option<(Move, usize)> = None;

    while !pending.is_empty() {
        round += 1;
        #[cfg(test)]
        ROUNDS.with(|r| r.set(r.get() + 1));
        // One blocked set per round: the staging fallbacks below only run
        // when the batch is empty, i.e. on the same `(cur, pending)`.
        mark_blocked_sources(inst, &cur, &pending, &mut blocked);
        let batch = collect_batch(inst, &cur, &pending, cfg, &blocked, &mut extra);
        if !batch.is_empty() {
            // Commit the batch, retiring completed relocations.
            for mv in &batch {
                cur.move_shard(inst, mv.shard, mv.to);
                moved_in[mv.shard.idx()] = round;
                executed += 1;
            }
            pending.retain(|p| {
                let keep = moved_in[p.shard.idx()] != round || cur.machine_of(p.shard) != p.target;
                is_pending[p.shard.idx()] = keep;
                keep
            });
            plan.batches.push(batch);
        } else {
            // Deadlock: every pending move is transiently infeasible. First
            // try parking a pending shard on an intermediate machine with
            // headroom (target-side staging); if that fails, free a blocked
            // move's *source* by parking a co-resident shard elsewhere and
            // scheduling its return (source-side staging, only relevant
            // when alpha > 0 charges copy overhead on the source).
            if let Some(mv) = find_staging_move(inst, &cur, &pending, &staged, &blocked) {
                staged[mv.shard.idx()] = true;
                cur.move_shard(inst, mv.shard, mv.to);
                executed += 1;
                plan.batches.push(vec![mv]);
            } else if let Some(mv) =
                find_source_freeing_move(inst, &cur, &pending, &is_pending, &blocked)
            {
                let parking = Parking::observe(&cur, mv, executed);
                if last_parking.is_some_and(|prev| parking.repeats(&prev)) {
                    // Same planner state as two moves ago: the park/return
                    // pair repeats until the budget check below fires, so
                    // skip every whole cycle and let the last ≤ 2 moves run.
                    let cycles = (budget - executed) / 2;
                    executed += 2 * cycles;
                    livelock = Some((mv, cycles));
                }
                last_parking = Some(parking);
                cur.move_shard(inst, mv.shard, mv.to);
                executed += 1;
                // The parked shard must end where the target says: back on
                // the machine it came from (it was not part of the diff).
                pending.push(Pending {
                    shard: mv.shard,
                    target: mv.from,
                    is_return: true,
                });
                is_pending[mv.shard.idx()] = true;
                plan.batches.push(vec![mv]);
            } else if let Some(mv) = find_held_arrival(inst, &cur, &pending) {
                // Every remaining blockage is a *hold* protecting a machine
                // whose own departures cannot be freed anyway: release the
                // smallest held arrival so the rest of the plan proceeds.
                cur.move_shard(inst, mv.shard, mv.to);
                executed += 1;
                pending.retain(|p| {
                    let keep = p.shard != mv.shard || cur.machine_of(p.shard) != p.target;
                    is_pending[p.shard.idx()] = keep;
                    keep
                });
                plan.batches.push(vec![mv]);
            } else {
                // Debugging aid: REX_PLAN_TRACE=1 dumps why each pending
                // move is blocked at the moment of the deadlock.
                if std::env::var("REX_PLAN_TRACE")
                    .map(|v| v == "1")
                    .unwrap_or(false)
                {
                    trace_deadlock(inst, &cur, &pending);
                }
                return Err(ClusterError::PlanningDeadlock {
                    remaining_moves: pending.len(),
                });
            }
        }
        if executed > budget {
            if std::env::var("REX_PLAN_TRACE")
                .map(|v| v == "1")
                .unwrap_or(false)
            {
                eprintln!("--- planner move budget exhausted ({executed} > {budget}) ---");
                if let Some((mv, cycles)) = livelock {
                    eprintln!(
                        "  livelock: {} parks {}→{} and returns; {cycles} cycles skipped",
                        mv.shard, mv.from, mv.to
                    );
                }
                trace_deadlock(inst, &cur, &pending);
            }
            return Err(ClusterError::PlanningDeadlock {
                remaining_moves: pending.len(),
            });
        }
    }
    Ok(plan)
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
    /// (`(u − d) + d` need not be `u`) are compared outright.
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
/// all-zero scratch (one row per machine) and is handed back all-zero.
fn collect_batch(
    inst: &Instance,
    cur: &Assignment,
    pending: &[Pending],
    cfg: &PlannerConfig,
    hold_arrivals: &[bool],
    extra: &mut [ResourceVec],
) -> Vec<Move> {
    let alpha = inst.alpha;
    let mut batch = Vec::new();
    for p in pending {
        if cfg.max_batch_moves != 0 && batch.len() >= cfg.max_batch_moves {
            break;
        }
        let from = cur.machine_of(p.shard);
        if from == p.target {
            continue; // already resolved by an earlier staging hop
        }
        if hold_arrivals[p.target.idx()] {
            continue; // arrival deferred until the target's departures clear
        }
        let d = &inst.shards[p.shard.idx()].demand;
        let inflight = d.scaled(1.0 + alpha);
        let overhead = d.scaled(alpha);

        let t = p.target.idx();
        let f = from.idx();
        // Packed-row checks: materializing a ResourceVec per candidate here
        // dominates planning time at web-scale fleets (thousands of pending
        // moves × tens of batches).
        let target_ok =
            cur.usage_rows()
                .fits_after_add2(t, &extra[t], &inflight, inst.capacity(p.target));
        let source_ok =
            cur.usage_rows()
                .fits_after_add2(f, &extra[f], &overhead, inst.capacity(from));
        if target_ok && source_ok {
            extra[t] += &inflight;
            extra[f] += &overhead;
            batch.push(Move {
                shard: p.shard,
                from,
                to: p.target,
            });
        }
    }
    let zero = ResourceVec::zero(inst.dims);
    for mv in &batch {
        extra[mv.from.idx()] = zero;
        extra[mv.to.idx()] = zero;
    }
    batch
}

/// Machines with a source-blocked ordinary (non-return) pending departure:
/// `out[m]` is set when some shard must leave `m` but `m` lacks the `α·d`
/// copy headroom right now. Such machines must not receive arrivals or host
/// parked shards until their departures clear.
fn mark_blocked_sources(inst: &Instance, cur: &Assignment, pending: &[Pending], out: &mut [bool]) {
    out.fill(false);
    if inst.alpha <= 0.0 {
        return;
    }
    for p in pending {
        if p.is_return {
            continue;
        }
        let from = cur.machine_of(p.shard);
        if from == p.target {
            continue;
        }
        let overhead = inst.shards[p.shard.idx()].demand.scaled(inst.alpha);
        if !cur
            .usage_rows()
            .fits_after_add(from.idx(), &overhead, inst.capacity(from))
        {
            out[from.idx()] = true;
        }
    }
}

/// Picks a two-hop staging move that breaks a deadlock: parks some pending
/// shard on an intermediate machine with transient headroom. Vacant
/// machines (the exchange machines, in particular) are preferred; among
/// admissible hosts the one with the lowest resulting load is chosen, so
/// staging perturbs the balance as little as possible.
fn find_staging_move(
    inst: &Instance,
    cur: &Assignment,
    pending: &[Pending],
    staged: &[bool],
    blocked: &[bool],
) -> Option<Move> {
    let alpha = inst.alpha;
    for p in pending {
        if p.is_return || staged[p.shard.idx()] {
            continue; // parked shards wait for departures; re-staging them
                      // would circle them around the fleet forever
        }
        let from = cur.machine_of(p.shard);
        if from == p.target {
            continue;
        }
        let d = &inst.shards[p.shard.idx()].demand;
        let inflight = d.scaled(1.0 + alpha);
        let overhead = d.scaled(alpha);

        // Stage only moves whose target is *physically* full right now.
        // A move that fits but was held back (its target has blocked
        // departures) needs patience, not staging — staging it would
        // ping-pong the shard between intermediate hosts forever.
        if cur
            .usage_rows()
            .fits_after_add(p.target.idx(), &inflight, inst.capacity(p.target))
        {
            continue;
        }
        // Source must be able to bear the copy overhead at all.
        if !cur
            .usage_rows()
            .fits_after_add(from.idx(), &overhead, inst.capacity(from))
        {
            continue;
        }

        let mut best: Option<(bool, f64, MachineId)> = None; // (vacant, -load, id)
        for mid in 0..inst.n_machines() {
            let v = MachineId::from(mid);
            if v == from || v == p.target || blocked[v.idx()] {
                continue;
            }
            if !cur
                .usage_rows()
                .fits_after_add(v.idx(), &inflight, inst.capacity(v))
            {
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
    inst: &Instance,
    cur: &Assignment,
    pending: &[Pending],
    is_pending: &[bool],
    blocked: &[bool],
) -> Option<Move> {
    if inst.alpha <= 0.0 {
        return None; // sources can never block without copy overhead
    }
    let alpha = inst.alpha;
    for p in pending {
        if p.is_return {
            continue; // returns resolve via departures, not more parking
        }
        let from = cur.machine_of(p.shard);
        if from == p.target {
            continue;
        }
        let d = &inst.shards[p.shard.idx()].demand;
        let overhead = d.scaled(alpha);
        // Only source-blocked moves are candidates here.
        if cur
            .usage_rows()
            .fits_after_add(from.idx(), &overhead, inst.capacity(from))
        {
            continue;
        }
        // Co-resident shards that are not themselves pending (pending ones
        // are handled by target-side staging), largest-unblocking first.
        let mut best: Option<(bool, f64, Move)> = None; // (unblocks, -d_norm, move)
        for &s in cur.shards_on(from) {
            if s == p.shard || is_pending[s.idx()] {
                continue;
            }
            let ds = &inst.shards[s.idx()].demand;
            let inflight = ds.scaled(1.0 + alpha);
            let s_overhead = ds.scaled(alpha);
            // Moving s itself must be transiently possible from this source.
            if !cur
                .usage_rows()
                .fits_after_add(from.idx(), &s_overhead, inst.capacity(from))
            {
                continue;
            }
            // Does parking s free enough for p's overhead?
            let mut after = cur.usage(from);
            after.saturating_sub_assign(ds);
            let unblocks = after.fits_after_add(&overhead, inst.capacity(from));
            // Find the best host for s.
            let mut host: Option<(bool, f64, MachineId)> = None;
            for mid in 0..inst.n_machines() {
                let v = MachineId::from(mid);
                // Never park on the blocked move's own target (the parked
                // shard would consume exactly the room the move needs) nor
                // on another blocked source.
                if v == from
                    || v == p.target
                    || blocked[v.idx()]
                    || !cur
                        .usage_rows()
                        .fits_after_add(v.idx(), &inflight, inst.capacity(v))
                {
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
                    ds.norm(),
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
fn find_held_arrival(inst: &Instance, cur: &Assignment, pending: &[Pending]) -> Option<Move> {
    let alpha = inst.alpha;
    let mut best: Option<(f64, Move)> = None;
    for p in pending {
        let from = cur.machine_of(p.shard);
        if from == p.target {
            continue;
        }
        let d = &inst.shards[p.shard.idx()].demand;
        let inflight = d.scaled(1.0 + alpha);
        let overhead = d.scaled(alpha);
        if cur
            .usage_rows()
            .fits_after_add(p.target.idx(), &inflight, inst.capacity(p.target))
            && cur
                .usage_rows()
                .fits_after_add(from.idx(), &overhead, inst.capacity(from))
        {
            let key = d.norm();
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

/// Prints a per-move blockage report to stderr (enabled by
/// `REX_PLAN_TRACE=1`; see the deadlock branch of [`plan_migration`]).
fn trace_deadlock(inst: &Instance, cur: &Assignment, pending: &[Pending]) {
    eprintln!("--- planner deadlock: {} moves pending ---", pending.len());
    if let Err(e) = cur.validate_consistency(inst) {
        eprintln!("  !! assignment state inconsistent: {e}");
    }
    // Composition of the first blocked source, to diagnose why no parking
    // cascade freed it.
    if let Some(p) = pending.iter().find(|p| !p.is_return) {
        let from = cur.machine_of(p.shard);
        let free = cur.usage(from).headroom(inst.capacity(from));
        eprintln!("  composition of {from} (free {free:?}):");
        for &s in cur.shards_on(from) {
            let pend = pending.iter().any(|q| q.shard == s);
            eprintln!(
                "    {s} d={:?} alpha_d={:?} pending={pend}",
                inst.demand(s),
                inst.demand(s).scaled(inst.alpha)
            );
        }
    }
    for p in pending.iter().take(16) {
        let from = cur.machine_of(p.shard);
        let d = &inst.shards[p.shard.idx()].demand;
        let inflight = d.scaled(1.0 + inst.alpha);
        let overhead = d.scaled(inst.alpha);
        let tgt_ok = cur
            .usage(p.target)
            .fits_after_add(&inflight, inst.capacity(p.target));
        let src_ok = cur
            .usage(from)
            .fits_after_add(&overhead, inst.capacity(from));
        eprintln!(
            "  {} {}→{} d={:?} | target_ok={} (usage {:?}) source_ok={} (usage {:?})",
            p.shard,
            from,
            p.target,
            d,
            tgt_ok,
            cur.usage(p.target),
            src_ok,
            cur.usage(from),
        );
    }
}

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
}
