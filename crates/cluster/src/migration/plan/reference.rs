//! The planning loop as it was before the planner kept state between calls:
//! every plan builds its own `Assignment`, sorts the relocations by norm and
//! re-tests every pending move in every round. The differential tests in
//! the parent module compare [`super::Planner`] with it — plan bytes on
//! `Ok`, the payload on `Err`. Only the `REX_PLAN_TRACE` dumps are left out.

use super::{MigrationPlan, Move, Parking, PlannerConfig};
use crate::assignment::Assignment;
use crate::error::ClusterError;
use crate::instance::Instance;
use crate::machine::MachineId;
use crate::resources::ResourceVec;
use crate::shard::ShardId;

#[derive(Clone, Copy, Debug)]
struct Pending {
    shard: ShardId,
    target: MachineId,
    is_return: bool,
}

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
    let mut staged = vec![false; inst.n_shards()];
    let mut blocked = vec![false; inst.n_machines()];
    let mut extra = vec![ResourceVec::zero(inst.dims); inst.n_machines()];
    let mut is_pending = vec![false; inst.n_shards()];
    for p in &pending {
        is_pending[p.shard.idx()] = true;
    }
    let mut moved_in = vec![0u32; inst.n_shards()];
    let mut round = 0u32;
    let mut last_parking: Option<Parking> = None;

    while !pending.is_empty() {
        round += 1;
        mark_blocked_sources(inst, &cur, &pending, &mut blocked);
        let batch = collect_batch(inst, &cur, &pending, cfg, &blocked, &mut extra);
        if !batch.is_empty() {
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
        } else if let Some(mv) = find_staging_move(inst, &cur, &pending, &staged, &blocked) {
            staged[mv.shard.idx()] = true;
            cur.move_shard(inst, mv.shard, mv.to);
            executed += 1;
            plan.batches.push(vec![mv]);
        } else if let Some(mv) =
            find_source_freeing_move(inst, &cur, &pending, &is_pending, &blocked)
        {
            let parking = Parking::observe(&cur, mv, executed);
            if last_parking.is_some_and(|prev| parking.repeats(&prev)) {
                let cycles = (budget - executed) / 2;
                executed += 2 * cycles;
            }
            last_parking = Some(parking);
            cur.move_shard(inst, mv.shard, mv.to);
            executed += 1;
            pending.push(Pending {
                shard: mv.shard,
                target: mv.from,
                is_return: true,
            });
            is_pending[mv.shard.idx()] = true;
            plan.batches.push(vec![mv]);
        } else if let Some(mv) = find_held_arrival(inst, &cur, &pending) {
            cur.move_shard(inst, mv.shard, mv.to);
            executed += 1;
            pending.retain(|p| {
                let keep = p.shard != mv.shard || cur.machine_of(p.shard) != p.target;
                is_pending[p.shard.idx()] = keep;
                keep
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
            continue;
        }
        if hold_arrivals[p.target.idx()] {
            continue;
        }
        let d = &inst.shards[p.shard.idx()].demand;
        let inflight = d.scaled(1.0 + alpha);
        let overhead = d.scaled(alpha);

        let t = p.target.idx();
        let f = from.idx();
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
            continue;
        }
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
        {
            continue;
        }
        if !cur
            .usage_rows()
            .fits_after_add(from.idx(), &overhead, inst.capacity(from))
        {
            continue;
        }

        let mut best: Option<(bool, f64, MachineId)> = None;
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

fn find_source_freeing_move(
    inst: &Instance,
    cur: &Assignment,
    pending: &[Pending],
    is_pending: &[bool],
    blocked: &[bool],
) -> Option<Move> {
    if inst.alpha <= 0.0 {
        return None;
    }
    let alpha = inst.alpha;
    for p in pending {
        if p.is_return {
            continue;
        }
        let from = cur.machine_of(p.shard);
        if from == p.target {
            continue;
        }
        let d = &inst.shards[p.shard.idx()].demand;
        let overhead = d.scaled(alpha);
        if cur
            .usage_rows()
            .fits_after_add(from.idx(), &overhead, inst.capacity(from))
        {
            continue;
        }
        let mut best: Option<(bool, f64, Move)> = None;
        for &s in cur.shards_on(from) {
            if s == p.shard || is_pending[s.idx()] {
                continue;
            }
            let ds = &inst.shards[s.idx()].demand;
            let inflight = ds.scaled(1.0 + alpha);
            let s_overhead = ds.scaled(alpha);
            if !cur
                .usage_rows()
                .fits_after_add(from.idx(), &s_overhead, inst.capacity(from))
            {
                continue;
            }
            let mut after = cur.usage(from);
            after.saturating_sub_assign(ds);
            let unblocks = after.fits_after_add(&overhead, inst.capacity(from));
            let mut host: Option<(bool, f64, MachineId)> = None;
            for mid in 0..inst.n_machines() {
                let v = MachineId::from(mid);
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
