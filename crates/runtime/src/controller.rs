//! The rebalance controller: observe → decide → plan.
//!
//! The controller watches a rolling window of steady-state balance gauges
//! and, when the fleet has drifted past its thresholds (and the cooldown
//! has expired), asks its policy for a migration plan against a *snapshot*
//! of the live cluster. Planning is synchronous but its output only starts
//! executing `plan_latency_ticks` later, modeling the decision-to-action
//! gap of a real control loop.
//!
//! Failed machines are threaded through every policy as **drains**: they
//! must end vacant and never receive shards, so a load-driven rebalance can
//! never undo an evacuation.

use crate::config::{ControllerConfig, ControllerPolicy};
use crate::exec::{batch_durations, MigrationKind, PlannedMigration};
use rex_baselines::{GreedyRebalancer, Rebalancer};
use rex_cluster::{plan_migration, Assignment, Instance, MachineId, PlannerConfig};
use rex_core::{solve_with_drain, SolveOptions};
use std::collections::VecDeque;

/// Rolling-window trigger logic.
#[derive(Clone, Debug)]
pub struct Controller {
    cfg: ControllerConfig,
    /// Recent `(peak, imbalance)` observations, newest last.
    window: VecDeque<(f64, f64)>,
    /// Tick of the last triggered rebalance.
    last_trigger: Option<u64>,
}

impl Controller {
    /// A controller with an empty observation window.
    pub fn new(cfg: ControllerConfig) -> Self {
        Self {
            cfg,
            window: VecDeque::with_capacity(cfg.window + 1),
            last_trigger: None,
        }
    }

    /// Feeds one steady-state observation.
    pub fn observe(&mut self, peak: f64, imbalance: f64) {
        self.window.push_back((peak, imbalance));
        while self.window.len() > self.cfg.window {
            self.window.pop_front();
        }
    }

    /// True when the rolling means demand a rebalance at `tick`.
    ///
    /// Requires a full window (a single hot sample right after a migration
    /// commits should not re-trigger) and an expired cooldown.
    pub fn should_trigger(&self, tick: u64) -> bool {
        if self.cfg.policy == ControllerPolicy::Off || self.window.len() < self.cfg.window {
            return false;
        }
        if let Some(last) = self.last_trigger {
            if tick.saturating_sub(last) < self.cfg.cooldown_ticks {
                return false;
            }
        }
        let n = self.window.len() as f64;
        let (peak, imb) = self
            .window
            .iter()
            .fold((0.0, 0.0), |(p, i), &(wp, wi)| (p + wp, i + wi));
        peak / n > self.cfg.peak_threshold || imb / n > self.cfg.imbalance_threshold
    }

    /// Records a trigger and clears the window so post-rebalance
    /// observations start fresh.
    pub fn note_trigger(&mut self, tick: u64) {
        self.last_trigger = Some(tick);
        self.window.clear();
    }
}

/// Plans a load-driven rebalance on `snapshot` under `ctrl.policy`.
///
/// `failed` lists machines that must neither receive shards nor end
/// occupied. The greedy policy cannot express drains, so it requires every
/// failed machine to be already vacant (the evacuation path runs first) and
/// hides them behind the exchange flag it refuses to target.
pub fn plan_load_rebalance(
    ctrl: &ControllerConfig,
    snapshot: &Instance,
    failed: &[MachineId],
    seed: u64,
    copy_bandwidth: f64,
    overhead_ticks: u64,
) -> Result<PlannedMigration, String> {
    match ctrl.policy {
        ControllerPolicy::Off => Err("policy `off` never plans".into()),
        ControllerPolicy::Sra => {
            // Controller policy knobs are layered onto the solver defaults
            // and validated at the boundary: a misconfigured controller is
            // reported as a planning error, never a panic mid-solve.
            let cfg = SolveOptions::new()
                .iters(ctrl.sra_iters)
                .lambda(ctrl.sra_lambda)
                .seed(seed)
                .partitions(ctrl.sra_partitions)
                .build_for(snapshot)
                .map_err(|e| format!("controller solver config: {e}"))?;
            let res = solve_with_drain(snapshot, &cfg, failed).map_err(|e| e.to_string())?;
            let durations = batch_durations(snapshot, &res.plan, copy_bandwidth, overhead_ticks);
            Ok(PlannedMigration {
                plan: res.plan,
                target: res.assignment.placement().to_vec(),
                returned: res.returned_machines,
                durations,
                kind: MigrationKind::Load,
            })
        }
        ControllerPolicy::Greedy => {
            let mut inst = snapshot.clone();
            for &m in failed {
                if inst.initial.contains(&m) {
                    return Err(format!("greedy cannot drain occupied failed machine {m}"));
                }
                inst.machines[m.idx()].exchange = true;
            }
            // The masked instance gained exchange machines; its return
            // quota must stay satisfiable for validation.
            let vacant = count_vacant(&inst);
            inst.k_return = inst.k_return.min(vacant);
            let res = GreedyRebalancer::default()
                .rebalance(&inst)
                .map_err(|e| e.to_string())?;
            let plan = res
                .plan
                .ok_or_else(|| "greedy produced no schedulable plan".to_string())?;
            let durations = batch_durations(snapshot, &plan, copy_bandwidth, overhead_ticks);
            Ok(PlannedMigration {
                target: res.assignment.placement().to_vec(),
                returned: Vec::new(),
                plan,
                durations,
                kind: MigrationKind::Load,
            })
        }
    }
}

fn count_vacant(inst: &Instance) -> usize {
    (0..inst.n_machines())
        .map(MachineId::from)
        .filter(|m| !inst.initial.contains(m))
        .count()
}

/// Plans a mandatory evacuation of the `failed` machines (all shards off,
/// nothing back on). Tries a cheap greedy target first; when that target
/// cannot be constructed or scheduled, escalates to a drain-constrained SRA
/// solve.
pub fn plan_evacuation(
    snapshot: &Instance,
    failed: &[MachineId],
    seed: u64,
    copy_bandwidth: f64,
    overhead_ticks: u64,
) -> Result<PlannedMigration, String> {
    if !failed.iter().any(|m| snapshot.initial.contains(m)) {
        // Nothing to drain: already-vacant machines need no plan.
        return Ok(PlannedMigration {
            plan: rex_cluster::MigrationPlan {
                batches: Vec::new(),
            },
            target: snapshot.initial.clone(),
            returned: Vec::new(),
            durations: Vec::new(),
            kind: MigrationKind::Evacuation,
        });
    }
    if let Some(pm) = greedy_evacuation(snapshot, failed, copy_bandwidth, overhead_ticks) {
        return Ok(pm);
    }
    let cfg = SolveOptions::new()
        .iters(1_500)
        .seed(seed)
        .build_for(snapshot)
        .map_err(|e| format!("evacuation solver config: {e}"))?;
    let res = solve_with_drain(snapshot, &cfg, failed).map_err(|e| e.to_string())?;
    let durations = batch_durations(snapshot, &res.plan, copy_bandwidth, overhead_ticks);
    Ok(PlannedMigration {
        plan: res.plan,
        target: res.assignment.placement().to_vec(),
        returned: Vec::new(),
        durations,
        kind: MigrationKind::Evacuation,
    })
}

/// Greedy evacuation target: every shard on a failed machine goes to the
/// non-failed machine that minimizes the resulting load, biggest shards
/// first. Returns `None` when a shard fits nowhere or the migration
/// planner cannot schedule the target.
fn greedy_evacuation(
    snapshot: &Instance,
    failed: &[MachineId],
    copy_bandwidth: f64,
    overhead_ticks: u64,
) -> Option<PlannedMigration> {
    let mut asg = Assignment::from_initial(snapshot);
    let mut to_move: Vec<rex_cluster::ShardId> = failed
        .iter()
        .flat_map(|&m| asg.shards_on(m).to_vec())
        .collect();
    if to_move.is_empty() {
        return None;
    }
    to_move.sort_by(|a, b| {
        let (da, db) = (snapshot.demand(*a).norm(), snapshot.demand(*b).norm());
        db.partial_cmp(&da)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.idx().cmp(&b.idx()))
    });
    for s in to_move {
        let mut best: Option<(MachineId, f64)> = None;
        for mi in 0..snapshot.n_machines() {
            let m = MachineId::from(mi);
            if failed.contains(&m) || !asg.fits(snapshot, s, m) {
                continue;
            }
            let mut after = asg.usage(m);
            after += snapshot.demand(s);
            let load = after.max_ratio(snapshot.capacity(m));
            if best.is_none_or(|(_, b)| load < b) {
                best = Some((m, load));
            }
        }
        let (target, _) = best?;
        asg.move_shard(snapshot, s, target);
    }
    let target = asg.into_placement();
    let plan = plan_migration(
        snapshot,
        &snapshot.initial,
        &target,
        &PlannerConfig::default(),
    )
    .ok()?;
    let durations = batch_durations(snapshot, &plan, copy_bandwidth, overhead_ticks);
    Some(PlannedMigration {
        plan,
        target,
        returned: Vec::new(),
        durations,
        kind: MigrationKind::Evacuation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::verify_event_boundaries;
    use rex_cluster::InstanceBuilder;
    use rex_workload::synthetic::{generate, Placement, SynthConfig};

    fn cfg() -> ControllerConfig {
        ControllerConfig {
            window: 3,
            cooldown_ticks: 100,
            peak_threshold: 0.9,
            imbalance_threshold: 1.2,
            ..Default::default()
        }
    }

    #[test]
    fn trigger_needs_a_full_window() {
        let mut c = Controller::new(cfg());
        c.observe(0.99, 2.0);
        assert!(!c.should_trigger(10), "one sample must not trigger");
        c.observe(0.99, 2.0);
        c.observe(0.99, 2.0);
        assert!(c.should_trigger(10));
    }

    #[test]
    fn balanced_fleet_never_triggers() {
        let mut c = Controller::new(cfg());
        for _ in 0..10 {
            c.observe(0.7, 1.02);
        }
        assert!(!c.should_trigger(1_000));
    }

    #[test]
    fn cooldown_suppresses_retrigger() {
        let mut c = Controller::new(cfg());
        for _ in 0..3 {
            c.observe(0.99, 2.0);
        }
        assert!(c.should_trigger(500));
        c.note_trigger(500);
        for _ in 0..3 {
            c.observe(0.99, 2.0);
        }
        assert!(!c.should_trigger(550), "inside cooldown");
        assert!(c.should_trigger(650), "cooldown expired");
    }

    #[test]
    fn off_policy_never_triggers() {
        let mut c = Controller::new(ControllerConfig {
            policy: ControllerPolicy::Off,
            ..cfg()
        });
        for _ in 0..5 {
            c.observe(1.0, 3.0);
        }
        assert!(!c.should_trigger(10_000));
    }

    fn hotspot_instance(seed: u64) -> rex_cluster::Instance {
        generate(&SynthConfig {
            n_machines: 8,
            n_exchange: 1,
            n_shards: 64,
            stringency: 0.7,
            alpha: 0.1,
            placement: Placement::Hotspot(0.4),
            seed,
            ..Default::default()
        })
        .unwrap()
    }

    fn policy_cfg(policy: ControllerPolicy, sra_iters: u64) -> ControllerConfig {
        ControllerConfig {
            policy,
            sra_iters,
            ..Default::default()
        }
    }

    #[test]
    fn sra_policy_plans_verifiable_migrations() {
        let inst = hotspot_instance(3);
        let pm = plan_load_rebalance(
            &policy_cfg(ControllerPolicy::Sra, 800),
            &inst,
            &[],
            1,
            1.0,
            1,
        )
        .unwrap();
        assert_eq!(pm.kind, MigrationKind::Load);
        assert_eq!(pm.durations.len(), pm.plan.n_batches());
        assert!(pm.durations.iter().all(|&d| d >= 1));
        verify_event_boundaries(&inst, &inst.initial, &pm.plan).unwrap();
    }

    #[test]
    fn greedy_policy_plans_and_skips_failed_machines() {
        let inst = hotspot_instance(4);
        // The exchange machine (vacant) doubles as a failed machine here.
        let failed = inst.exchange_machines();
        let pm = plan_load_rebalance(
            &policy_cfg(ControllerPolicy::Greedy, 0),
            &inst,
            &failed,
            1,
            1.0,
            1,
        )
        .unwrap();
        assert!(pm.returned.is_empty());
        for mv in pm.plan.moves() {
            assert!(
                !failed.contains(&mv.to),
                "greedy moved onto failed {}",
                mv.to
            );
        }
        verify_event_boundaries(&inst, &inst.initial, &pm.plan).unwrap();
    }

    #[test]
    fn greedy_refuses_occupied_failed_machines() {
        let inst = hotspot_instance(5);
        let occupied = inst.initial[0];
        assert!(plan_load_rebalance(
            &policy_cfg(ControllerPolicy::Greedy, 0),
            &inst,
            &[occupied],
            1,
            1.0,
            1
        )
        .is_err());
    }

    #[test]
    fn evacuation_empties_the_failed_machine() {
        let mut b = InstanceBuilder::new(1).alpha(0.1);
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        let _m2 = b.machine(&[10.0]);
        b.shard(&[3.0], 1.0, m0);
        b.shard(&[2.0], 1.0, m0);
        b.shard(&[4.0], 1.0, MachineId(1));
        let inst = b.build().unwrap();
        let pm = plan_evacuation(&inst, &[m0], 9, 1.0, 1).unwrap();
        assert_eq!(pm.kind, MigrationKind::Evacuation);
        verify_event_boundaries(&inst, &inst.initial, &pm.plan).unwrap();
        for (s, &m) in pm.target.iter().enumerate() {
            assert_ne!(m, m0, "shard {s} still on the failed machine");
        }
    }

    #[test]
    fn evacuation_of_vacant_machine_is_a_no_op() {
        let inst = hotspot_instance(6);
        let vacant = inst.exchange_machines();
        let pm = plan_evacuation(&inst, &vacant, 2, 1.0, 1).unwrap();
        assert_eq!(pm.plan.n_batches(), 0);
        assert_eq!(pm.target, inst.initial);
    }
}
