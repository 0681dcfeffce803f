//! Workload evolution across rebalancing epochs.
//!
//! Long-run operation is a loop: traffic drifts, the fleet goes out of
//! balance, a rebalancer runs, repeat. [`next_epoch`] produces the next
//! epoch's instance from the previous one: the *final* placement of epoch
//! `t` becomes the *initial* placement of epoch `t+1`, and the dynamic
//! dimension (CPU, dimension 0) receives multiplicative log-normal drift —
//! index-bound dimensions stay put, like real shards whose sizes change
//! slowly but whose traffic changes nightly.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rex_cluster::{ClusterError, Instance, MachineId};

/// Drift parameters.
#[derive(Clone, Copy, Debug)]
pub struct DriftConfig {
    /// Std-dev of the per-shard log-normal CPU multiplier (0.2 ≈ ±20%).
    pub sigma: f64,
    /// After drifting, CPU demands are rescaled so the fleet's aggregate
    /// CPU utilization returns to this value (traffic grows with attention
    /// shifts, not total volume).
    pub target_utilization: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            sigma: 0.25,
            target_utilization: 0.75,
        }
    }
}

/// Standard-normal sample via Box–Muller.
fn sample_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Builds epoch `t+1` from epoch `t`'s instance and final placement.
///
/// The placement must be capacity-feasible for the *drifted* demands; when
/// drift pushes a machine over capacity, the offending shards' CPU is
/// clamped to fit (a real serving system sheds or throttles rather than
/// exploding) — the clamp count is returned alongside the instance.
pub fn next_epoch(
    prev: &Instance,
    final_placement: &[MachineId],
    cfg: &DriftConfig,
    seed: u64,
) -> Result<(Instance, usize), ClusterError> {
    assert!(cfg.sigma >= 0.0 && cfg.target_utilization > 0.0 && cfg.target_utilization < 1.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inst = prev.clone();
    inst.initial = final_placement.to_vec();
    inst.label = format!("{} +drift", prev.label);

    // Multiplicative CPU drift.
    for s in &mut inst.shards {
        let factor = (cfg.sigma * sample_normal(&mut rng)).exp();
        s.demand[0] *= factor;
    }
    // Renormalize aggregate CPU to the target utilization over the loaded
    // (non-exchange) capacity.
    let loaded_cap: f64 = inst
        .machines
        .iter()
        .filter(|m| !m.exchange)
        .map(|m| m.capacity[0])
        .sum();
    let total_cpu: f64 = inst.shards.iter().map(|s| s.demand[0]).sum();
    let scale = cfg.target_utilization * loaded_cap / total_cpu;
    for s in &mut inst.shards {
        s.demand[0] *= scale;
    }

    let clamped = clamp_to_capacity(&mut inst);
    inst.validate()?;
    Ok((inst, clamped))
}

/// Clamps overflowing machines back to capacity: every shard on a machine
/// whose CPU (dimension 0) under `inst.initial` exceeds the machine's has
/// its CPU scaled by `cap / used × 0.999` (a tiny margin under the cap).
/// Returns how many shard demands were scaled. Usage is summed per machine
/// in one pass in shard order — the additions, and their order, of summing
/// each machine's shards on its own.
pub(crate) fn clamp_to_capacity(inst: &mut Instance) -> usize {
    let mut used = vec![0.0f64; inst.n_machines()];
    for (s, m) in inst.shards.iter().zip(&inst.initial) {
        used[m.idx()] += s.demand[0];
    }
    let mut clamped = 0usize;
    for (s, m) in inst.shards.iter_mut().zip(&inst.initial) {
        let (cap, used) = (inst.machines[m.idx()].capacity[0], used[m.idx()]);
        if used > cap {
            s.demand[0] *= cap / used * 0.999;
            clamped += 1;
        }
    }
    clamped
}

/// Commits a resource exchange between epochs: the machines handed back
/// become the next epoch's loan (they are vacant and marked `exchange`),
/// while borrowed machines that stayed in service become ordinary fleet
/// members. The shard placement is adopted as the next initial placement.
///
/// # Panics
/// If a returned machine is not vacant under `placement` (the solver's
/// contract guarantees it is).
pub fn commit_exchange(
    prev: &Instance,
    placement: &[MachineId],
    returned: &[MachineId],
) -> Result<Instance, ClusterError> {
    let mut inst = prev.clone();
    inst.initial = placement.to_vec();
    for m in &mut inst.machines {
        m.exchange = false;
    }
    for &m in returned {
        assert!(
            !placement.contains(&m),
            "returned machine {m} still hosts shards"
        );
        inst.machines[m.idx()].exchange = true;
    }
    inst.k_return = returned.len();
    inst.validate()?;
    Ok(inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate, SynthConfig};
    use rex_cluster::Assignment;

    fn base() -> Instance {
        generate(&SynthConfig {
            n_machines: 8,
            n_exchange: 1,
            n_shards: 64,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn drift_produces_valid_instances() {
        let inst = base();
        let (next, _) = next_epoch(&inst, &inst.initial, &DriftConfig::default(), 1).unwrap();
        next.validate().unwrap();
        assert_eq!(next.n_shards(), inst.n_shards());
        assert_eq!(next.initial, inst.initial);
    }

    #[test]
    fn drift_changes_cpu_only() {
        let inst = base();
        let (next, _) = next_epoch(&inst, &inst.initial, &DriftConfig::default(), 2).unwrap();
        let mut cpu_changed = 0;
        for (a, b) in inst.shards.iter().zip(&next.shards) {
            if (a.demand[0] - b.demand[0]).abs() > 1e-12 {
                cpu_changed += 1;
            }
            for r in 1..inst.dims {
                assert_eq!(
                    a.demand[r].to_bits(),
                    b.demand[r].to_bits(),
                    "static dim moved"
                );
            }
        }
        assert!(cpu_changed > inst.n_shards() / 2, "most shards drift");
    }

    #[test]
    fn utilization_returns_to_target() {
        let inst = base();
        let cfg = DriftConfig {
            sigma: 0.4,
            target_utilization: 0.7,
        };
        let (next, clamped) = next_epoch(&inst, &inst.initial, &cfg, 3).unwrap();
        let loaded_cap: f64 = next
            .machines
            .iter()
            .filter(|m| !m.exchange)
            .map(|m| m.capacity[0])
            .sum();
        let util = next.total_demand()[0] / loaded_cap;
        // Exact when nothing clamps; slightly below when clamping shed load.
        if clamped == 0 {
            assert!((util - 0.7).abs() < 1e-9, "util {util}");
        } else {
            assert!(util <= 0.7 + 1e-9);
        }
    }

    #[test]
    fn adopts_the_provided_placement() {
        let inst = base();
        // Move one shard somewhere else and hand that in as the final state.
        let mut asg = Assignment::from_initial(&inst);
        let s = rex_cluster::ShardId(0);
        let target = (0..inst.n_machines())
            .map(MachineId::from)
            .find(|&m| m != asg.machine_of(s) && asg.fits(&inst, s, m))
            .unwrap();
        asg.move_shard(&inst, s, target);
        let placement = asg.into_placement();
        let (next, _) = next_epoch(&inst, &placement, &DriftConfig::default(), 4).unwrap();
        assert_eq!(next.initial, placement);
    }

    #[test]
    fn commit_exchange_swaps_membership() {
        let inst = base(); // 8 loaded + 1 exchange (m8), k_return = 1
        let mut asg = Assignment::from_initial(&inst);
        // Occupy the exchange machine with one shard and fully vacate m0.
        let x = MachineId::from(8usize);
        for &s in asg.shards_on(MachineId::from(0usize)).to_vec().iter() {
            let host = (1..8)
                .map(MachineId::from)
                .chain(std::iter::once(x))
                .find(|&m| asg.fits(&inst, s, m))
                .expect("room somewhere");
            asg.move_shard(&inst, s, host);
        }
        assert!(asg.is_vacant(MachineId::from(0usize)));
        let placement = asg.placement().to_vec();
        let returned = vec![MachineId::from(0usize)];
        let next = commit_exchange(&inst, &placement, &returned).unwrap();
        // m0 is now the loaner; m8 is an ordinary member.
        assert!(next.machines[0].exchange);
        assert!(!next.machines[8].exchange);
        assert_eq!(next.k_return, 1);
        next.validate().unwrap();
    }

    /// The per-machine clamp loop `clamp_to_capacity` replaced: every shard
    /// is scanned once per machine.
    fn clamp_quadratic(inst: &mut Instance) -> usize {
        let mut clamped = 0;
        for m in 0..inst.n_machines() {
            let cap = inst.machines[m].capacity[0];
            let on_m: Vec<usize> = (0..inst.n_shards())
                .filter(|&i| inst.initial[i].idx() == m)
                .collect();
            let used: f64 = on_m.iter().map(|&i| inst.shards[i].demand[0]).sum();
            if used > cap {
                for &i in &on_m {
                    inst.shards[i].demand[0] *= cap / used * 0.999;
                }
                clamped += on_m.len();
            }
        }
        clamped
    }

    #[test]
    fn one_pass_clamp_matches_the_per_machine_loop() {
        let mut total = 0;
        for seed in 0..8 {
            let cfg = SynthConfig {
                n_machines: 24,
                n_exchange: 2,
                n_shards: 300,
                seed,
                ..Default::default()
            };
            let mut inst = generate(&cfg).unwrap();
            // Inflate CPU unevenly so a seed-dependent set of machines
            // overflows.
            for (i, s) in inst.shards.iter_mut().enumerate() {
                s.demand[0] *= 1.0 + ((i as u64 * 7 + seed) % 5) as f64 * 0.15;
            }
            let mut reference = inst.clone();
            let want = clamp_quadratic(&mut reference);
            assert_eq!(clamp_to_capacity(&mut inst), want, "seed {seed}");
            let bits = |i: &Instance| -> Vec<u64> {
                i.shards.iter().map(|s| s.demand[0].to_bits()).collect()
            };
            assert_eq!(bits(&inst), bits(&reference), "seed {seed}");
            total += want;
        }
        assert!(total > 0, "no fleet clamped");
    }

    #[test]
    fn deterministic_in_seed() {
        let inst = base();
        let (a, _) = next_epoch(&inst, &inst.initial, &DriftConfig::default(), 9).unwrap();
        let (b, _) = next_epoch(&inst, &inst.initial, &DriftConfig::default(), 9).unwrap();
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x.demand[0].to_bits(), y.demand[0].to_bits());
        }
    }
}
