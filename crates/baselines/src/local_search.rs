//! Steepest-descent local search over move and swap neighborhoods.

use crate::common::{eligible_machines, single_move_feasible, RebalanceResult, Rebalancer};
use rex_cluster::{
    verify_schedule, Assignment, ClusterError, Instance, MachineId, MigrationPlan, Move, ShardId,
};
use std::time::Instant;

/// Steepest-descent rebalancer: each step applies the best improving
/// *move* (shard → machine) or *swap* (shard ↔ shard) found in the
/// neighborhood of the hottest machines, subject to per-step transient
/// feasibility. Swaps execute as two sequential single-move batches (in
/// whichever order is transiently feasible), so even a swap between two
/// full machines needs a third machine with slack — exactly the limitation
/// the paper's exchange machines remove. Exchange machines are never used.
#[derive(Clone, Copy, Debug, Default)]
pub struct LocalSearchRebalancer;

/// Upper bound on applied steps (a swap counts as one step, two moves).
const MAX_STEPS: usize = 10_000;

/// How many of the hottest machines act as move/swap sources each step.
const TOP_SOURCES: usize = 3;

/// One candidate step.
enum Step {
    Move(ShardId, MachineId),
    Swap(ShardId, ShardId),
}

impl LocalSearchRebalancer {
    /// Loads after hypothetically moving `s` to `t`, for the two machines
    /// involved.
    fn move_loads(
        &self,
        inst: &Instance,
        asg: &Assignment,
        s: ShardId,
        t: MachineId,
    ) -> Option<(f64, f64)> {
        if !asg.fits(inst, s, t) {
            return None;
        }
        let f = asg.machine_of(s);
        let d = inst.demand(s);
        let mut uf = asg.usage(f);
        uf.saturating_sub_assign(d);
        let mut ut = asg.usage(t);
        ut += d;
        Some((
            uf.max_ratio(inst.capacity(f)),
            ut.max_ratio(inst.capacity(t)),
        ))
    }

    /// Whether a swap of `a` (on `ma`) and `b` (on `mb`) fits capacity-wise.
    fn swap_fits(
        &self,
        inst: &Instance,
        asg: &Assignment,
        a: ShardId,
        b: ShardId,
    ) -> Option<(f64, f64)> {
        let ma = asg.machine_of(a);
        let mb = asg.machine_of(b);
        if ma == mb {
            return None;
        }
        let da = inst.demand(a);
        let db = inst.demand(b);
        let mut ua = asg.usage(ma);
        ua.saturating_sub_assign(da);
        ua += db;
        let mut ub = asg.usage(mb);
        ub.saturating_sub_assign(db);
        ub += da;
        if !ua.fits_within(inst.capacity(ma)) || !ub.fits_within(inst.capacity(mb)) {
            return None;
        }
        Some((
            ua.max_ratio(inst.capacity(ma)),
            ub.max_ratio(inst.capacity(mb)),
        ))
    }

    /// Tries to execute a swap as two sequential moves, in either order.
    /// Returns the batches on success, leaving `asg` updated.
    fn apply_swap(
        &self,
        inst: &Instance,
        asg: &mut Assignment,
        a: ShardId,
        b: ShardId,
    ) -> Option<Vec<Vec<Move>>> {
        let ma = asg.machine_of(a);
        let mb = asg.machine_of(b);
        // Order 1: a→mb first, then b→ma.
        if single_move_feasible(inst, asg, a, mb) {
            let mut trial = asg.clone();
            trial.move_shard(inst, a, mb);
            if single_move_feasible(inst, &trial, b, ma) {
                trial.move_shard(inst, b, ma);
                *asg = trial;
                return Some(vec![
                    vec![Move {
                        shard: a,
                        from: ma,
                        to: mb,
                    }],
                    vec![Move {
                        shard: b,
                        from: mb,
                        to: ma,
                    }],
                ]);
            }
        }
        // Order 2: b→ma first.
        if single_move_feasible(inst, asg, b, ma) {
            let mut trial = asg.clone();
            trial.move_shard(inst, b, ma);
            if single_move_feasible(inst, &trial, a, mb) {
                trial.move_shard(inst, a, mb);
                *asg = trial;
                return Some(vec![
                    vec![Move {
                        shard: b,
                        from: mb,
                        to: ma,
                    }],
                    vec![Move {
                        shard: a,
                        from: ma,
                        to: mb,
                    }],
                ]);
            }
        }
        None
    }
}

impl Rebalancer for LocalSearchRebalancer {
    fn name(&self) -> &str {
        "local-search"
    }

    fn rebalance(&self, inst: &Instance) -> Result<RebalanceResult, ClusterError> {
        inst.validate()?;
        let start = Instant::now();
        let machines = eligible_machines(inst);
        let mut asg = Assignment::from_initial(inst);
        let mut plan = MigrationPlan::default();

        for _ in 0..MAX_STEPS {
            // Sources: the hottest machines.
            let mut by_load: Vec<(f64, MachineId)> = machines
                .iter()
                .map(|&m| (asg.machine_load(inst, m), m))
                .collect();
            by_load.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap_or(std::cmp::Ordering::Equal));
            let sources: Vec<MachineId> =
                by_load.iter().take(TOP_SOURCES).map(|&(_, m)| m).collect();

            // Collect improving steps, best (lowest local peak) first. A
            // step must strictly reduce the max load of the two machines it
            // touches (not merely stay under the global peak — that would
            // let the search shuffle load between cool machines forever).
            // Move candidates are transient-checked at collection; swaps
            // only capacity-checked — schedulability is probed at apply
            // time, falling through to the next candidate when the two-move
            // sequence cannot be ordered.
            let mut candidates: Vec<(f64, Step)> = Vec::new();
            for &h in &sources {
                let load_h = asg.machine_load(inst, h);
                for &s in asg.shards_on(h) {
                    // Moves.
                    for &t in &machines {
                        if t == h {
                            continue;
                        }
                        let pair_before = load_h.max(asg.machine_load(inst, t));
                        if let Some((lh, lt)) = self.move_loads(inst, &asg, s, t) {
                            let local = lh.max(lt);
                            if local + 1e-12 < pair_before && single_move_feasible(inst, &asg, s, t)
                            {
                                candidates.push((local, Step::Move(s, t)));
                            }
                        }
                    }
                    // Swaps.
                    for &t in &machines {
                        if t == h {
                            continue;
                        }
                        let pair_before = load_h.max(asg.machine_load(inst, t));
                        for &b in asg.shards_on(t) {
                            if let Some((la, lb)) = self.swap_fits(inst, &asg, s, b) {
                                let local = la.max(lb);
                                if local + 1e-12 < pair_before {
                                    candidates.push((local, Step::Swap(s, b)));
                                }
                            }
                        }
                    }
                }
            }
            candidates.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

            let mut applied = false;
            for (_, step) in candidates {
                match step {
                    Step::Move(s, t) => {
                        let from = asg.move_shard(inst, s, t);
                        plan.batches.push(vec![Move {
                            shard: s,
                            from,
                            to: t,
                        }]);
                        applied = true;
                    }
                    Step::Swap(a, b) => match self.apply_swap(inst, &mut asg, a, b) {
                        Some(batches) => {
                            plan.batches.extend(batches);
                            applied = true;
                        }
                        None => continue, // unschedulable swap: next candidate
                    },
                }
                break;
            }
            if !applied {
                break; // local optimum (or everything transient-blocked)
            }
        }

        verify_schedule(inst, &inst.initial, asg.placement(), &plan)?;
        Ok(RebalanceResult::finish(
            inst,
            asg,
            Some(plan),
            start.elapsed(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_cluster::InstanceBuilder;

    #[test]
    fn local_search_balances_unit_shards() {
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        for _ in 0..6 {
            b.shard(&[1.0], 1.0, m0);
        }
        let inst = b.build().unwrap();
        let r = LocalSearchRebalancer.rebalance(&inst).unwrap();
        assert!((r.final_report.peak - 0.3).abs() < 1e-9);
        assert!(r.schedulable);
    }

    #[test]
    fn swaps_fix_what_moves_cannot() {
        // m0: 7+2 = 9; m1: 6. Pure moves can't help (moving 2 to m1 gives
        // 8 > 7... actually gives peak 8/10): swap 7 ↔ 6 lowers peak to 8.
        // Here a size-mismatch swap is the only improving step:
        // m0: {7, 2}, m1: {6, 2}. Peak 0.9 vs 0.8. Swap 7↔6 → m0=8... no.
        // Use: m0 {7,2}=9, m1 {4}=4. Move 2→m1 gives 7/6 peak 0.7 — moves
        // suffice. To isolate swaps: m0 {6,3}=9, m1 {5,2}=7, caps 10.
        // Moves: 3→m1 = 10 feasible cap-wise → peak max(6,10)=1.0 worse;
        // 2→m0 worse. Swap 3↔2: m0=8, m1=8 → improves peak to 0.8.
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[10.0]);
        let m1 = b.machine(&[10.0]);
        b.shard(&[6.0], 1.0, m0);
        b.shard(&[3.0], 1.0, m0);
        b.shard(&[5.0], 1.0, m1);
        b.shard(&[2.0], 1.0, m1);
        let inst = b.build().unwrap();
        let with_swaps = LocalSearchRebalancer.rebalance(&inst).unwrap();
        assert!(
            (with_swaps.final_report.peak - 0.8).abs() < 1e-9,
            "swap should reach 0.8, got {}",
            with_swaps.final_report.peak
        );
    }

    #[test]
    fn stringent_swap_needs_slack_elsewhere() {
        // Both machines 90% full; the improving swap cannot be sequenced
        // (neither shard fits transiently anywhere) → no progress.
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[10.0]);
        let m1 = b.machine(&[10.0]);
        b.shard(&[9.0], 1.0, m0);
        b.shard(&[8.0], 1.0, m1);
        let inst = b.build().unwrap();
        let r = LocalSearchRebalancer.rebalance(&inst).unwrap();
        assert_eq!(r.migration.total_moves, 0);
    }

    #[test]
    fn deterministic() {
        let mut b = InstanceBuilder::new(2);
        let m0 = b.machine(&[10.0, 10.0]);
        let m1 = b.machine(&[10.0, 10.0]);
        for i in 0..6 {
            let host = if i < 4 { m0 } else { m1 };
            b.shard(&[1.0 + (i as f64) * 0.3, 0.5], 1.0, host);
        }
        let inst = b.build().unwrap();
        let a = LocalSearchRebalancer.rebalance(&inst).unwrap();
        let b2 = LocalSearchRebalancer.rebalance(&inst).unwrap();
        assert_eq!(a.assignment.placement(), b2.assignment.placement());
    }
}
