//! Fractional lower bounds on the optimal peak load.

use rex_cluster::{Instance, MachineId};

/// Vacancy-aware mediant bound.
///
/// For each dimension `r`, any placement that leaves at least `k_return`
/// machines vacant can use at most the total capacity minus the `k_return`
/// smallest per-machine capacities in `r`. By the mediant inequality,
/// `max_m U_m[r]/C_m[r] ≥ Σ_m U_m[r] / Σ_m C_m[r]` over the machines
/// actually in use, hence the optimal peak is at least
/// `D_r / (C_r - smallest k caps)` for every `r`.
fn mediant_bound(inst: &Instance) -> f64 {
    let demand = inst.total_demand();
    let mut best = 0.0f64;
    for r in 0..inst.dims {
        let mut caps: Vec<f64> = inst.machines.iter().map(|m| m.capacity[r]).collect();
        caps.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let usable: f64 = caps[inst.k_return.min(caps.len())..].iter().sum();
        let b = if usable > 0.0 {
            demand[r] / usable
        } else if demand[r] > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        best = best.max(b);
    }
    best
}

/// Largest-shard bound: every shard must live somewhere, so the peak is at
/// least `min_m max_r d_s[r]/C_m[r]` for the shard that maximizes that.
fn largest_shard_bound(inst: &Instance) -> f64 {
    let mut best = 0.0f64;
    for s in &inst.shards {
        let cheapest = inst
            .machines
            .iter()
            .map(|m| s.demand.max_ratio(&m.capacity))
            .fold(f64::INFINITY, f64::min);
        if cheapest.is_finite() {
            best = best.max(cheapest);
        }
    }
    best
}

/// The combined lower bound used for pruning and for gap reporting.
pub fn peak_lower_bound(inst: &Instance) -> f64 {
    mediant_bound(inst).max(largest_shard_bound(inst))
}

/// Which machines are tied for the smallest capacity signature (used by the
/// symmetry-breaking in the exact solver): returns a class id per machine
/// such that machines with identical capacity vectors share a class.
pub fn capacity_classes(inst: &Instance) -> Vec<usize> {
    let mut classes: Vec<(Vec<u64>, usize)> = Vec::new();
    let mut out = Vec::with_capacity(inst.n_machines());
    for m in &inst.machines {
        // Bit-exact signature: capacities come from generators, not
        // arithmetic, so equality is meaningful.
        let sig: Vec<u64> = m.capacity.as_slice().iter().map(|x| x.to_bits()).collect();
        let id = match classes.iter().find(|(s, _)| *s == sig) {
            Some((_, id)) => *id,
            None => {
                let id = classes.len();
                classes.push((sig, id));
                id
            }
        };
        out.push(id);
    }
    out
}

/// Convenience: machine ids grouped by capacity class.
pub fn machines_by_class(inst: &Instance) -> Vec<Vec<MachineId>> {
    let classes = capacity_classes(inst);
    let n_classes = classes.iter().copied().max().map_or(0, |m| m + 1);
    let mut groups = vec![Vec::new(); n_classes];
    for (i, &c) in classes.iter().enumerate() {
        groups[c].push(MachineId::from(i));
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_cluster::InstanceBuilder;

    fn inst(k_return: usize) -> Instance {
        let mut b = InstanceBuilder::new(1).k_return(k_return);
        let m0 = b.machine(&[10.0]);
        let m1 = b.machine(&[10.0]);
        let _x = b.exchange_machine(&[10.0]);
        b.shard(&[6.0], 1.0, m0);
        b.shard(&[6.0], 1.0, m1);
        b.build().unwrap()
    }

    #[test]
    fn mediant_accounts_for_vacancy() {
        // Total demand 12. With k_return=1 usable capacity is 20 → 0.6.
        let i = inst(1);
        assert!((mediant_bound(&i) - 0.6).abs() < 1e-12);
        // With k_return=0 usable capacity is 30 → 0.4.
        let i0 = inst(0);
        assert!((mediant_bound(&i0) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn largest_shard_bound_is_tight_for_big_shards() {
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[20.0]);
        b.shard(&[8.0], 1.0, m0);
        let i = b.build().unwrap();
        // The 8-shard's cheapest home is the 20-cap machine: 0.4.
        assert!((largest_shard_bound(&i) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn combined_bound_takes_max() {
        let i = inst(1);
        assert!(peak_lower_bound(&i) >= mediant_bound(&i));
        assert!(peak_lower_bound(&i) >= largest_shard_bound(&i));
    }

    #[test]
    fn capacity_classes_group_identical_machines() {
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        let _m2 = b.machine(&[20.0]);
        b.shard(&[1.0], 1.0, m0);
        let i = b.build().unwrap();
        let classes = capacity_classes(&i);
        assert_eq!(classes[0], classes[1]);
        assert_ne!(classes[0], classes[2]);
        let groups = machines_by_class(&i);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].len(), 2);
    }

    #[test]
    fn bounds_are_actual_lower_bounds_for_any_placement() {
        use rex_cluster::Assignment;
        let i = inst(1);
        let asg = Assignment::from_initial(&i);
        assert!(asg.peak_load(&i) + 1e-12 >= peak_lower_bound(&i));
    }
}
