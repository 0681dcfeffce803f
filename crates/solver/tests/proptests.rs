//! Property tests tying the exact solver, the bounds, and the IP model
//! together on random tiny instances.

use proptest::prelude::*;
use rex_cluster::{Assignment, Instance, InstanceBuilder, MachineId};
use rex_solver::{branch_and_bound, peak_lower_bound, ExactConfig, IpModel};

/// Random tiny instance: 2–4 machines, 3–9 shards, optional vacancy quota.
fn build(seed: u64, n_m: usize, n_s: usize, k: usize) -> Option<Instance> {
    use rand::{RngExt, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = InstanceBuilder::new(1).k_return(k).label("prop");
    let caps: Vec<f64> = (0..n_m).map(|_| rng.random_range(8.0..14.0)).collect();
    let machines: Vec<MachineId> = caps.iter().map(|&c| b.machine(&[c])).collect();
    let mut usage = vec![0.0; n_m];
    // Keep (n_m - k) machines usable for the initial packing so the quota
    // is satisfiable.
    let usable = n_m - k;
    for _ in 0..n_s {
        let d = rng.random_range(0.5..3.0);
        let host = (0..usable).find(|&m| usage[m] + d <= caps[m])?;
        usage[host] += d;
        b.shard(&[d], 1.0, machines[host]);
    }
    b.build().ok()
}

/// Random tiny instance for the brute-force check: capacities from two
/// values (so capacity classes repeat), demands on a 0.5 grid, and each
/// shard's initial host drawn at random among the first `n_m - k`
/// machines it fits on.
fn build_spread(seed: u64, n_m: usize, n_s: usize, k: usize) -> Option<Instance> {
    use rand::{RngExt, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = InstanceBuilder::new(1).k_return(k).label("prop-spread");
    let caps: Vec<f64> = (0..n_m)
        .map(|_| [10.0, 12.0][rng.random_range(0..2usize)])
        .collect();
    let machines: Vec<MachineId> = caps.iter().map(|&c| b.machine(&[c])).collect();
    let mut usage = vec![0.0; n_m];
    for _ in 0..n_s {
        let d = 0.5 * rng.random_range(1..9u32) as f64;
        let fits: Vec<usize> = (0..n_m - k).filter(|&m| usage[m] + d <= caps[m]).collect();
        if fits.is_empty() {
            return None;
        }
        let host = fits[rng.random_range(0..fits.len())];
        usage[host] += d;
        b.shard(&[d], 0.5 + rng.random_range(0..4u32) as f64, machines[host]);
    }
    b.build().ok()
}

/// The best objective over every placement, by enumeration: peak plus
/// `lambda` times the moved share of the total move cost, over the
/// capacity-feasible placements that leave `k_return` machines vacant.
fn brute_force(inst: &Instance, lambda: f64) -> f64 {
    let (n_m, n_s) = (inst.n_machines(), inst.n_shards());
    let total: f64 = inst.shards.iter().map(|s| s.move_cost).sum();
    let mut best = f64::INFINITY;
    for code in 0..(n_m as u64).pow(n_s as u32) {
        let placement: Vec<MachineId> = (0..n_s)
            .map(|s| MachineId((code / (n_m as u64).pow(s as u32) % n_m as u64) as u32))
            .collect();
        let moved: f64 = (0..n_s)
            .filter(|&s| placement[s] != inst.initial[s])
            .map(|s| inst.shards[s].move_cost)
            .sum();
        let asg = Assignment::from_placement(inst, placement).unwrap();
        if asg.is_capacity_feasible(inst) && asg.vacant_count() >= inst.k_return {
            best = best.min(asg.peak_load(inst) + lambda * moved / total);
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The exact solver's proven optimum is the enumerated one, with and
    /// without a migration-cost term.
    #[test]
    fn exact_optimum_matches_brute_force(
        seed in any::<u64>(),
        n_m in 2usize..5,
        n_s in 1usize..7,
        k in 0usize..2,
        which in 0usize..3,
    ) {
        let Some(inst) = build_spread(seed, n_m, n_s, k) else { return Ok(()) };
        let lambda = [0.0, 0.1, 1.0][which];
        let res = branch_and_bound(&inst, &ExactConfig { lambda, ..Default::default() }).unwrap();
        prop_assert!(res.proven_optimal);
        let best = brute_force(&inst, lambda);
        prop_assert!(
            (res.objective - best).abs() < 1e-9,
            "λ={}: b&b {} vs brute force {}", lambda, res.objective, best
        );
    }

    /// The exact optimum respects the fractional bound and never exceeds
    /// the warm start; its placement is IP-feasible and quota-satisfying.
    #[test]
    fn exact_solver_contract(
        seed in any::<u64>(),
        n_m in 2usize..5,
        n_s in 3usize..10,
        k in 0usize..2,
    ) {
        prop_assume!(k < n_m);
        let Some(inst) = build(seed, n_m, n_s, k) else { return Ok(()) };
        let res = branch_and_bound(&inst, &ExactConfig::default()).unwrap();
        let lb = peak_lower_bound(&inst);
        prop_assert!(res.peak + 1e-9 >= lb, "peak {} below LB {}", res.peak, lb);
        let initial_peak = Assignment::from_initial(&inst).peak_load(&inst);
        prop_assert!(res.objective <= initial_peak + 1e-9);

        let asg = Assignment::from_placement(&inst, res.placement.clone()).unwrap();
        prop_assert!(asg.is_capacity_feasible(&inst));
        prop_assert!(asg.vacant_count() >= inst.k_return);

        let model = IpModel::build(&inst, 0.0);
        let vars = model.variables_from_placement(&inst, &res.placement);
        prop_assert!(model.check(&vars).is_empty());
        // The model's objective (with λ=0) equals the reported peak.
        prop_assert!((model.objective_value(&vars) - res.peak).abs() < 1e-9);
    }

    /// With λ large enough, the optimum is exactly the initial placement.
    #[test]
    fn huge_lambda_freezes_the_placement(seed in any::<u64>()) {
        let Some(inst) = build(seed, 3, 6, 0) else { return Ok(()) };
        let res = branch_and_bound(
            &inst,
            &ExactConfig { lambda: 1_000.0, ..Default::default() },
        )
        .unwrap();
        prop_assert!(res.proven_optimal);
        prop_assert_eq!(res.placement, inst.initial);
    }

    /// Shrinking the node budget only ever worsens (or preserves) the
    /// result, never breaks feasibility.
    #[test]
    fn budget_monotonicity(seed in any::<u64>()) {
        let Some(inst) = build(seed, 3, 8, 1) else { return Ok(()) };
        let full = branch_and_bound(&inst, &ExactConfig::default()).unwrap();
        let tiny = branch_and_bound(
            &inst,
            &ExactConfig { max_nodes: 50, ..Default::default() },
        )
        .unwrap();
        prop_assert!(full.objective <= tiny.objective + 1e-12);
        let asg = Assignment::from_placement(&inst, tiny.placement).unwrap();
        prop_assert!(asg.is_capacity_feasible(&inst));
    }
}
