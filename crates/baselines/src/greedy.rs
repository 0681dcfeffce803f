//! The greedy rebalancer: the "commonly used" datacenter practice.

use crate::common::{eligible_machines, single_move_feasible, RebalanceResult, Rebalancer};
use rex_cluster::{verify_schedule, Assignment, ClusterError, Instance, MigrationPlan, Move};
use std::time::Instant;

/// Repeatedly moves one shard off the currently hottest machine onto the
/// machine that minimizes the resulting peak, as long as each move is
/// transiently feasible *executed on its own* (one move per batch — exactly
/// how cautious production rebalancers ship index shards).
///
/// Never uses the borrowed exchange machines (the paper's baseline does
/// not have them). Stops at the first iteration with no strictly improving
/// feasible move, or after `MAX_MOVES` (10 000).
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyRebalancer;

/// Upper bound on the moves one greedy rebalance executes.
const MAX_MOVES: usize = 10_000;

impl Rebalancer for GreedyRebalancer {
    fn name(&self) -> &str {
        "greedy"
    }

    fn rebalance(&self, inst: &Instance) -> Result<RebalanceResult, ClusterError> {
        inst.validate()?;
        let start = Instant::now();
        let targets = eligible_machines(inst);
        let mut asg = Assignment::from_initial(inst);
        let mut plan = MigrationPlan::default();

        for _ in 0..MAX_MOVES {
            // Hottest machine.
            let (hot, hot_load) = match targets
                .iter()
                .map(|&m| (m, asg.machine_load(inst, m)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            {
                Some(x) => x,
                None => break,
            };

            // Best (shard on hot, target) pair: minimizes the larger of the
            // two affected machines' post-move loads, and must strictly
            // lower the hot machine's contribution to the peak.
            let mut best: Option<(rex_cluster::ShardId, rex_cluster::MachineId, f64)> = None;
            for &s in asg.shards_on(hot) {
                let d = inst.demand(s);
                for &t in &targets {
                    if t == hot || !asg.fits(inst, s, t) {
                        continue;
                    }
                    let mut ut = asg.usage(t);
                    ut += d;
                    let lt = ut.max_ratio(inst.capacity(t));
                    let mut uh = asg.usage(hot);
                    uh.saturating_sub_assign(d);
                    let lh = uh.max_ratio(inst.capacity(hot));
                    let local_peak = lt.max(lh);
                    if local_peak + 1e-12 >= hot_load {
                        continue; // does not reduce the hot machine's peak
                    }
                    if !single_move_feasible(inst, &asg, s, t) {
                        continue; // blocked by the transient constraint
                    }
                    let better = match best {
                        None => true,
                        Some((_, _, b)) => local_peak < b,
                    };
                    if better {
                        best = Some((s, t, local_peak));
                    }
                }
            }

            match best {
                Some((s, t, _)) => {
                    let from = asg.move_shard(inst, s, t);
                    plan.batches.push(vec![Move {
                        shard: s,
                        from,
                        to: t,
                    }]);
                }
                None => break, // local optimum (or transient-blocked)
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
    use rex_cluster::{InstanceBuilder, MachineId};

    fn skewed(alpha: f64) -> Instance {
        let mut b = InstanceBuilder::new(1).alpha(alpha);
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        let _x = b.exchange_machine(&[10.0]);
        for _ in 0..8 {
            b.shard(&[1.0], 1.0, m0);
        }
        b.build().unwrap()
    }

    #[test]
    fn greedy_balances_easy_instance() {
        let inst = skewed(0.0);
        let r = GreedyRebalancer.rebalance(&inst).unwrap();
        assert!(r.schedulable);
        // 8 unit shards over two usable machines → 4/4.
        assert!(
            (r.final_report.peak - 0.4).abs() < 1e-9,
            "peak={}",
            r.final_report.peak
        );
        assert!(r.peak_improvement() > 0.4);
    }

    #[test]
    fn greedy_never_uses_exchange_machines() {
        let inst = skewed(0.0);
        let r = GreedyRebalancer.rebalance(&inst).unwrap();
        assert!(r.assignment.is_vacant(MachineId(2)));
    }

    #[test]
    fn greedy_blocked_by_stringent_transient_constraints() {
        // Two machines at 90%, no slack anywhere: no move is transiently
        // feasible, greedy must return the initial placement unchanged.
        let mut b = InstanceBuilder::new(1).alpha(0.5);
        let m0 = b.machine(&[10.0]);
        let m1 = b.machine(&[10.0]);
        b.shard(&[9.0], 1.0, m0);
        b.shard(&[5.0], 1.0, m1);
        let inst = b.build().unwrap();
        let r = GreedyRebalancer.rebalance(&inst).unwrap();
        assert_eq!(r.migration.total_moves, 0);
        assert_eq!(r.final_report.peak, r.initial_report.peak);
    }

    #[test]
    fn greedy_is_deterministic() {
        let inst = skewed(0.1);
        let a = GreedyRebalancer.rebalance(&inst).unwrap();
        let b = GreedyRebalancer.rebalance(&inst).unwrap();
        assert_eq!(a.assignment.placement(), b.assignment.placement());
    }
}
