//! The rebalance controller: observe → decide → plan.
//!
//! The controller watches a rolling window of steady-state balance gauges
//! and, when the fleet has drifted past its thresholds (and the cooldown
//! has expired), asks its policy for a migration plan against a *snapshot*
//! of the live cluster. Planning is synchronous but its output only starts
//! executing two ticks later (the simulation's `PLAN_LATENCY_TICKS`),
//! modeling the decision-to-action gap of a real control loop.
//!
//! Failed machines are threaded through every policy as **drains**: they
//! must end vacant and never receive shards, so a load-driven rebalance can
//! never undo an evacuation.

use crate::config::{ControllerConfig, ControllerPolicy};
use crate::exec::{MigrationKind, PlannedMigration};
use rex_baselines::common::best_fit_decreasing;
use rex_baselines::{GreedyRebalancer, Rebalancer};
use rex_cluster::{plan_migration, Assignment, Instance, MachineId, MigrationPlan, PlannerConfig};
use rex_core::{solve_with_drain, SolveOptions};
use std::collections::VecDeque;

/// The controller also triggers when the rolling mean imbalance (peak /
/// mean over occupied machines) exceeds this.
const IMBALANCE_THRESHOLD: f64 = 1.15;

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
        peak / n > self.cfg.peak_threshold || imb / n > IMBALANCE_THRESHOLD
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
    let (plan, target, returned) = match ctrl.policy {
        ControllerPolicy::Off => return Err("policy `off` never plans".into()),
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
            let target = res.assignment.into_placement();
            (res.plan, target, res.returned_machines)
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
            let res = GreedyRebalancer
                .rebalance(&inst)
                .map_err(|e| e.to_string())?;
            let plan = res
                .plan
                .ok_or_else(|| "greedy produced no schedulable plan".to_string())?;
            (plan, res.assignment.into_placement(), Vec::new())
        }
    };
    Ok(PlannedMigration::new(
        snapshot,
        plan,
        target,
        returned,
        MigrationKind::Load,
        copy_bandwidth,
        overhead_ticks,
    ))
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
    let (plan, target) = if !failed.iter().any(|m| snapshot.initial.contains(m)) {
        // Nothing to drain: already-vacant machines need no plan.
        let empty = MigrationPlan { batches: vec![] };
        (empty, snapshot.initial.clone())
    } else if let Some(greedy) = greedy_evacuation(snapshot, failed) {
        greedy
    } else {
        let cfg = SolveOptions::new()
            .iters(1_500)
            .seed(seed)
            .build_for(snapshot)
            .map_err(|e| format!("evacuation solver config: {e}"))?;
        let res = solve_with_drain(snapshot, &cfg, failed).map_err(|e| e.to_string())?;
        (res.plan, res.assignment.into_placement())
    };
    Ok(PlannedMigration::new(
        snapshot,
        plan,
        target,
        Vec::new(),
        MigrationKind::Evacuation,
        copy_bandwidth,
        overhead_ticks,
    ))
}

/// Greedy evacuation target and its schedule: the shards on failed
/// machines re-placed by best-fit decreasing over every non-failed machine.
/// Returns `None` when a shard fits nowhere or the migration planner cannot
/// schedule the target.
fn greedy_evacuation(
    snapshot: &Instance,
    failed: &[MachineId],
) -> Option<(MigrationPlan, Vec<MachineId>)> {
    let mut asg = Assignment::from_initial(snapshot);
    let (down, hosts): (Vec<MachineId>, Vec<MachineId>) = (0..snapshot.n_machines())
        .map(MachineId::from)
        .partition(|m| failed.contains(m));
    let to_move: Vec<_> = down
        .iter()
        .flat_map(|&m| asg.shards_on(m).to_vec())
        .collect();
    if to_move.is_empty() {
        return None;
    }
    best_fit_decreasing(snapshot, &mut asg, to_move, &hosts).ok()?;
    let target = asg.into_placement();
    let plan = plan_migration(
        snapshot,
        &snapshot.initial,
        &target,
        &PlannerConfig::default(),
    )
    .ok()?;
    Some((plan, target))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_cluster::{verify_schedule, InstanceBuilder};
    use rex_workload::synthetic::{generate, Placement, SynthConfig};

    fn cfg() -> ControllerConfig {
        ControllerConfig {
            window: 3,
            cooldown_ticks: 100,
            peak_threshold: 0.9,
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
        verify_schedule(&inst, &inst.initial, &pm.target, &pm.plan).unwrap();
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
        verify_schedule(&inst, &inst.initial, &pm.target, &pm.plan).unwrap();
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
        verify_schedule(&inst, &inst.initial, &pm.target, &pm.plan).unwrap();
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
