//! The shared baseline interface.

use rex_cluster::metrics::MigrationStats;
use rex_cluster::{
    Assignment, BalanceReport, ClusterError, Instance, MachineId, MigrationPlan, ShardId,
};
use std::time::Duration;

/// A load-balancing method that transforms an instance's initial placement
/// into a (hopefully) better one.
pub trait Rebalancer {
    /// Stable method name for tables.
    fn name(&self) -> &str;

    /// Rebalances the instance.
    fn rebalance(&self, inst: &Instance) -> Result<RebalanceResult, ClusterError>;
}

/// What a baseline produces.
#[derive(Clone, Debug)]
pub struct RebalanceResult {
    /// The final placement.
    pub assignment: Assignment,
    /// The migration schedule reaching it, if the method produces one that
    /// respects transient constraints. [`FfdRepacker`] deliberately ignores
    /// them, so its plan may be absent.
    ///
    /// [`FfdRepacker`]: crate::FfdRepacker
    pub plan: Option<MigrationPlan>,
    /// True when `plan` is present and verified.
    pub schedulable: bool,
    /// Balance report of the initial placement.
    pub initial_report: BalanceReport,
    /// Balance report of the final placement.
    pub final_report: BalanceReport,
    /// Migration cost summary (zeroed when no plan exists).
    pub migration: MigrationStats,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl RebalanceResult {
    /// Relative peak-load improvement over the initial placement.
    pub fn peak_improvement(&self) -> f64 {
        self.final_report
            .peak_improvement_over(&self.initial_report)
    }

    /// Builds the result from the pieces every baseline ends with.
    pub fn finish(
        inst: &Instance,
        assignment: Assignment,
        plan: Option<MigrationPlan>,
        elapsed: Duration,
    ) -> Self {
        let initial = Assignment::from_initial(inst);
        let migration = match &plan {
            Some(p) => MigrationStats::compute(inst, p),
            None => MigrationStats {
                shards_moved: assignment.moved_count(&inst.initial),
                total_moves: 0,
                extra_hops: 0,
                traffic: 0.0,
                batches: 0,
            },
        };
        Self {
            schedulable: plan.is_some(),
            initial_report: BalanceReport::compute(inst, &initial),
            final_report: BalanceReport::compute(inst, &assignment),
            migration,
            elapsed,
            plan,
            assignment,
        }
    }
}

/// Whether a single move of shard `s` (demand `d`) from `f` to `t` is
/// transiently feasible right now, executed as its own batch: the target
/// must hold `(1+α)·d` extra and the source `α·d` extra.
pub fn single_move_feasible(inst: &Instance, asg: &Assignment, s: ShardId, t: MachineId) -> bool {
    let f = asg.machine_of(s);
    if f == t {
        return false;
    }
    let d = inst.demand(s);
    let inflight = d.scaled(1.0 + inst.alpha);
    let overhead = d.scaled(inst.alpha);
    asg.usage(t).fits_after_add(&inflight, inst.capacity(t))
        && asg.usage(f).fits_after_add(&overhead, inst.capacity(f))
}

/// Machines a no-exchange baseline may place shards on: the original fleet
/// (exchange machines stay vacant, so the return quota is satisfied by
/// construction).
pub fn eligible_machines(inst: &Instance) -> Vec<MachineId> {
    inst.machines
        .iter()
        .filter(|m| !m.exchange)
        .map(|m| m.id)
        .collect()
}

/// Best-fit decreasing: detaches `shards` from `asg`, then re-places them
/// largest demand norm first (ties by id), each on the machine of
/// `machines` with the lowest load after the add — the first strict
/// minimum in `machines` order among those it [`Assignment::fits`].
///
/// # Errors
///
/// The first shard that fits on none of `machines`; `asg` is then left
/// with that shard and every later one detached.
pub fn best_fit_decreasing(
    inst: &Instance,
    asg: &mut Assignment,
    mut shards: Vec<ShardId>,
    machines: &[MachineId],
) -> Result<(), ShardId> {
    shards.sort_by(|&a, &b| {
        inst.demand(b)
            .norm()
            .partial_cmp(&inst.demand(a).norm())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    for &s in &shards {
        asg.detach_shard(inst, s);
    }
    for s in shards {
        let mut best: Option<(MachineId, f64)> = None;
        for &m in machines {
            if !asg.fits(inst, s, m) {
                continue;
            }
            let mut u = asg.usage(m);
            u += inst.demand(s);
            let load = u.max_ratio(inst.capacity(m));
            if best.is_none_or(|(_, b)| load < b) {
                best = Some((m, load));
            }
        }
        let (m, _) = best.ok_or(s)?;
        asg.attach_shard(inst, s, m);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_cluster::InstanceBuilder;

    fn inst(alpha: f64) -> Instance {
        let mut b = InstanceBuilder::new(1).alpha(alpha);
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        let _x = b.exchange_machine(&[10.0]);
        b.shard(&[6.0], 1.0, m0);
        b.shard(&[6.0], 1.0, MachineId(1));
        b.build().unwrap()
    }

    #[test]
    fn single_move_feasible_respects_alpha() {
        let tight = inst(0.8);
        let asg = Assignment::from_initial(&tight);
        // Moving shard 0 onto m1: m1 must hold 6 + 1.8*6 = 16.8 > 10.
        assert!(!single_move_feasible(
            &tight,
            &asg,
            ShardId(0),
            MachineId(1)
        ));
        // Onto the vacant exchange machine: 1.8*6 = 10.8 > 10 — also blocked.
        assert!(!single_move_feasible(
            &tight,
            &asg,
            ShardId(0),
            MachineId(2)
        ));
        let loose = inst(0.0);
        let asg = Assignment::from_initial(&loose);
        assert!(single_move_feasible(&loose, &asg, ShardId(0), MachineId(2)));
        assert!(!single_move_feasible(
            &loose,
            &asg,
            ShardId(0),
            MachineId(1)
        ));
    }

    #[test]
    fn self_move_is_never_feasible() {
        let i = inst(0.0);
        let asg = Assignment::from_initial(&i);
        assert!(!single_move_feasible(&i, &asg, ShardId(0), MachineId(0)));
    }

    #[test]
    fn eligible_machines_excludes_exchange() {
        let i = inst(0.0);
        assert_eq!(eligible_machines(&i), vec![MachineId(0), MachineId(1)]);
    }

    #[test]
    fn best_fit_decreasing_places_largest_first_and_reports_misfits() {
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[10.0]);
        let m1 = b.machine(&[10.0]);
        b.shard(&[2.0], 1.0, m0);
        b.shard(&[5.0], 1.0, m0);
        b.shard(&[4.0], 1.0, m1);
        let i = b.build().unwrap();
        // 5 → m0 (a tie: the first minimum), 4 → m1, 2 → m1 (0.6 < 0.7).
        let all: Vec<ShardId> = (0..3).map(ShardId).collect();
        let mut asg = Assignment::from_initial(&i);
        best_fit_decreasing(&i, &mut asg, all.clone(), &[m0, m1]).unwrap();
        assert_eq!(asg.placement(), &[m1, m0, m1]);
        // On m0 alone, 5 + 4 leaves no room for the last (smallest) shard.
        let mut asg = Assignment::from_initial(&i);
        assert_eq!(
            best_fit_decreasing(&i, &mut asg, all, &[m0]),
            Err(ShardId(0))
        );
    }

    #[test]
    fn finish_without_plan_marks_unschedulable() {
        let i = inst(0.0);
        let asg = Assignment::from_initial(&i);
        let r = RebalanceResult::finish(&i, asg, None, Duration::ZERO);
        assert!(!r.schedulable);
        assert_eq!(r.migration.total_moves, 0);
        assert_eq!(r.peak_improvement(), 0.0);
    }
}
