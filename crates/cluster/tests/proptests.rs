//! Property-based tests for the cluster substrate.
//!
//! The central property: **any plan the planner emits is accepted by the
//! independent step simulator**, across randomly generated instances and
//! randomly generated feasible target placements. The planner and the
//! verifier implement the transient semantics separately, so agreement here
//! is strong evidence both are right.

use proptest::prelude::*;
use rex_cluster::{
    partition_fleet, partition_subfleet, plan_migration, verify_schedule, Assignment, ClusterError,
    FleetSpec, GenerationSpec, Instance, InstanceBuilder, MachineId, PartitionSpec, PlannerConfig,
    ResourceVec, ShardId,
};

/// Strategy: a random instance with `n_machines` machines (plus `n_exchange`
/// exchange machines), `n_shards` shards with random demands that initially
/// fit, and a random overhead factor.
fn arb_instance() -> impl Strategy<Value = Instance> {
    (
        2usize..6,      // loaded machines
        0usize..3,      // exchange machines
        1usize..16,     // shards
        1usize..4,      // dims
        0u64..u64::MAX, // seed
        prop_oneof![Just(0.0), Just(0.1), Just(0.5)],
    )
        .prop_map(|(nm, nx, ns, dims, seed, alpha)| build_instance(nm, nx, ns, dims, seed, alpha))
}

fn build_instance(nm: usize, nx: usize, ns: usize, dims: usize, seed: u64, alpha: f64) -> Instance {
    use rand::prelude::*;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = InstanceBuilder::new(dims).alpha(alpha).label("prop");
    // Heterogeneous fleet: capacities vary 2x across machines.
    let caps: Vec<Vec<f64>> = (0..nm)
        .map(|_| (0..dims).map(|_| rng.random_range(70.0..140.0)).collect())
        .collect();
    let machines: Vec<MachineId> = caps.iter().map(|c| b.machine(c)).collect();
    for _ in 0..nx {
        b.exchange_machine(&vec![100.0; dims]);
    }
    // Place shards greedily on whichever machine still has room; demands are
    // small enough relative to capacity that this always succeeds.
    let mut usage = vec![vec![0.0f64; dims]; nm];
    for _ in 0..ns {
        let demand: Vec<f64> = (0..dims)
            .map(|_| rng.random_range(1.0..70.0 / (ns as f64).max(4.0)))
            .collect();
        let host = (0..nm)
            .find(|&m| (0..dims).all(|r| usage[m][r] + demand[r] <= caps[m][r]))
            .expect("demands sized to always fit somewhere");
        for r in 0..dims {
            usage[host][r] += demand[r];
        }
        b.shard(&demand, rng.random_range(0.5..10.0), machines[host]);
    }
    b.build().expect("constructed instance must validate")
}

/// Random capacity-feasible target placement derived from the initial one by
/// random feasible relocations (may land shards on exchange machines).
fn random_target(inst: &Instance, seed: u64, moves: usize) -> Vec<MachineId> {
    use rand::prelude::*;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut asg = Assignment::from_initial(inst);
    for _ in 0..moves {
        let s = ShardId::from(rng.random_range(0..inst.n_shards()));
        let m = MachineId::from(rng.random_range(0..inst.n_machines()));
        if asg.fits(inst, s, m) {
            asg.move_shard(inst, s, m);
        }
    }
    asg.into_placement()
}

/// Strategy: a heterogeneous fleet described by a generation table with a
/// 2–4× capacity spread (the workload plane's [`FleetSpec`]), a vacant
/// tail backing a nonzero return quota, and shards dealt round-robin over
/// the loaded head. Yields `(instance, loaded_machine_count)`.
fn arb_hetero_fleet() -> impl Strategy<Value = (Instance, usize)> {
    (
        2usize..5,      // small-generation count
        2usize..5,      // big-generation count
        2.0f64..4.0,    // capacity spread of the big generation
        1usize..4,      // vacant tail machines
        6usize..24,     // shards
        0u64..u64::MAX, // seed
    )
        .prop_map(|(c1, c2, spread, vacant, ns, seed)| {
            build_hetero_fleet(c1, c2, spread, vacant, ns, seed)
        })
}

fn build_hetero_fleet(
    c1: usize,
    c2: usize,
    spread: f64,
    vacant: usize,
    ns: usize,
    seed: u64,
) -> (Instance, usize) {
    use rand::prelude::*;
    let fleet = FleetSpec {
        generations: vec![
            GenerationSpec {
                name: "small".into(),
                count: c1,
                scale: 1.0,
            },
            GenerationSpec {
                name: "big".into(),
                count: c2,
                scale: spread,
            },
            GenerationSpec {
                name: "spare".into(),
                count: vacant,
                scale: spread,
            },
        ],
        exchange: 0,
        exchange_scale: 1.0,
        racks: 0,
    };
    // The generated table is a valid workload-plane fleet spec.
    rex_cluster::WorkloadSpec {
        scenario: Default::default(),
        fleet: Some(fleet.clone()),
        load: None,
        rack_crashes: Vec::new(),
    }
    .validate()
    .expect("generated fleet tables are valid");
    let scales = fleet.loaded_scales();
    let loaded = c1 + c2;
    let base = 100.0;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = InstanceBuilder::new(1)
        .alpha(0.1)
        .label("hetero")
        .k_return(vacant.min(2));
    let machines: Vec<MachineId> = scales.iter().map(|s| b.machine(&[base * s])).collect();
    // Round-robin over the loaded head keeps every machine under its
    // smallest-generation capacity by construction.
    let per = ns.div_ceil(loaded) as f64;
    for i in 0..ns {
        let demand = rng.random_range(1.0..0.9 * base / per);
        b.shard(&[demand], rng.random_range(0.5..10.0), machines[i % loaded]);
    }
    (b.build().expect("hetero fleet must validate"), loaded)
}

/// One split of the partition tree: a node of `n` machines and vacancy
/// quota `quota` dealt into `k` children of `⌊n/k⌋` or `⌈n/k⌉` machines
/// each (so at least two when `n ≥ 2k`), whose quotas sum to `quota`.
fn check_split(
    n: usize,
    quota: usize,
    k: usize,
    children: &[PartitionSpec],
) -> Result<(), TestCaseError> {
    let sizes: Vec<usize> = children.iter().map(|c| c.machines.len()).collect();
    prop_assert_eq!(sizes.len(), k);
    prop_assert_eq!(sizes.iter().sum::<usize>(), n);
    let (lo, hi) = (sizes.iter().min(), sizes.iter().max());
    prop_assert!(lo >= Some(&2), "a child below two machines: {sizes:?}");
    prop_assert!(hi <= lo.map(|l| l + 1).as_ref(), "uneven sizes: {sizes:?}");
    let total: usize = children.iter().map(|c| c.vacancy_quota).sum();
    prop_assert_eq!(total, quota, "quota conserved");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Planner output always verifies; deadlock is the only allowed failure.
    #[test]
    fn planner_output_always_verifies(inst in arb_instance(), seed in 0u64..u64::MAX) {
        let target = random_target(&inst, seed, 2 * inst.n_shards());
        match plan_migration(&inst, &inst.initial, &target, &PlannerConfig::default()) {
            Ok(plan) => {
                verify_schedule(&inst, &inst.initial, &target, &plan)
                    .expect("planner-produced schedule must verify");
            }
            Err(ClusterError::PlanningDeadlock { .. }) => {
                // Legitimate in stringent cases; nothing further to check.
            }
            Err(e) => panic!("unexpected planner error: {e}"),
        }
    }

    /// The identity migration always plans to an empty schedule.
    #[test]
    fn identity_migration_is_empty(inst in arb_instance()) {
        let plan = plan_migration(&inst, &inst.initial, &inst.initial, &PlannerConfig::default())
            .expect("identity must plan");
        prop_assert_eq!(plan.n_moves(), 0);
    }

    /// Assignment bookkeeping survives arbitrary move sequences.
    #[test]
    fn assignment_consistency_under_random_moves(
        inst in arb_instance(),
        seed in 0u64..u64::MAX,
    ) {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut asg = Assignment::from_initial(&inst);
        for _ in 0..200 {
            let s = ShardId::from(rng.random_range(0..inst.n_shards()));
            let m = MachineId::from(rng.random_range(0..inst.n_machines()));
            asg.move_shard(&inst, s, m);
        }
        asg.validate_consistency(&inst).unwrap();
        // Usage must equal recomputed usage from placement exactly enough
        // for loads to agree.
        let fresh = Assignment::from_placement(&inst, asg.placement().to_vec()).unwrap();
        for m in 0..inst.n_machines() {
            let mid = MachineId::from(m);
            prop_assert!(
                (asg.machine_load(&inst, mid) - fresh.machine_load(&inst, mid)).abs() < 1e-6
            );
        }
    }

    /// ResourceVec add/sub round-trips within tolerance.
    #[test]
    fn resource_vec_add_sub_roundtrip(
        a in proptest::collection::vec(0.0f64..1e6, 1..8),
        b in proptest::collection::vec(0.0f64..1e6, 1..8),
    ) {
        let n = a.len().min(b.len());
        let va = ResourceVec::from_slice(&a[..n]);
        let vb = ResourceVec::from_slice(&b[..n]);
        let back = (va + vb) - vb;
        prop_assert!(back.approx_eq(&va, 1e-6));
    }

    /// max_ratio is monotone: adding demand never lowers the load.
    #[test]
    fn max_ratio_monotone(
        u in proptest::collection::vec(0.0f64..100.0, 1..8),
        d in proptest::collection::vec(0.0f64..100.0, 1..8),
    ) {
        let n = u.len().min(d.len());
        let cap = ResourceVec::splat(n, 200.0);
        let vu = ResourceVec::from_slice(&u[..n]);
        let vd = ResourceVec::from_slice(&d[..n]);
        let before = vu.max_ratio(&cap);
        let after = (vu + vd).max_ratio(&cap);
        prop_assert!(after + 1e-12 >= before);
    }

    /// Tampering with any single move's destination breaks verification
    /// against the original target: either a later move's source no longer
    /// matches (`InconsistentMove`), a machine transiently overflows, or
    /// the final placement is wrong. The verifier must never accept a
    /// tampered schedule as reaching the original target.
    #[test]
    fn verifier_rejects_tampered_plans(
        inst in arb_instance(),
        seed in 0u64..u64::MAX,
        pick in any::<u64>(),
    ) {
        let target = random_target(&inst, seed, inst.n_shards());
        let Ok(plan) = plan_migration(&inst, &inst.initial, &target, &PlannerConfig::default())
        else { return Ok(()) };
        if plan.n_moves() == 0 {
            return Ok(());
        }
        let mut tampered = plan.clone();
        // Pick one move and redirect it to a different machine.
        let flat: Vec<(usize, usize)> = tampered
            .batches
            .iter()
            .enumerate()
            .flat_map(|(b, moves)| (0..moves.len()).map(move |i| (b, i)))
            .collect();
        let (b, i) = flat[(pick % flat.len() as u64) as usize];
        let mv = tampered.batches[b][i];
        let new_to = MachineId::from((mv.to.idx() + 1) % inst.n_machines());
        if new_to == mv.from {
            return Ok(()); // would become a self-move; ambiguous, skip
        }
        tampered.batches[b][i].to = new_to;
        prop_assert!(
            verify_schedule(&inst, &inst.initial, &target, &tampered).is_err(),
            "tampered move {mv:?} → {new_to} must not verify"
        );
    }

    /// A verified schedule's final usage is capacity-feasible, hence the
    /// target assignment is too.
    #[test]
    fn verified_targets_are_feasible(inst in arb_instance(), seed in 0u64..u64::MAX) {
        let target = random_target(&inst, seed, inst.n_shards());
        if let Ok(plan) =
            plan_migration(&inst, &inst.initial, &target, &PlannerConfig::default())
        {
            verify_schedule(&inst, &inst.initial, &target, &plan).unwrap();
            let asg = Assignment::from_placement(&inst, target).unwrap();
            prop_assert!(asg.is_capacity_feasible(&inst));
        }
    }

    /// On a heterogeneous generation-table fleet (2–4× capacity spread),
    /// `partition_fleet` covers every machine exactly once, every shard
    /// follows its machine, and the per-partition `vacancy_quota` shares
    /// conserve the global quota while never exceeding a partition's own
    /// vacancies.
    #[test]
    fn heterogeneous_partition_covers_and_conserves_quota(
        (inst, loaded) in arb_hetero_fleet(),
        k in 1usize..6,
    ) {
        let asg = Assignment::from_initial(&inst);
        let loads = asg.loads(&inst);
        let parts = partition_fleet(&inst, &inst.initial, &loads, k, inst.k_return, &[]);
        prop_assert_eq!(parts.len(), k.min(inst.n_machines()));
        let mut m_seen = vec![0usize; inst.n_machines()];
        let mut s_seen = vec![0usize; inst.n_shards()];
        for p in &parts {
            for m in &p.machines {
                m_seen[m.idx()] += 1;
            }
            for s in &p.shards {
                s_seen[s.idx()] += 1;
                prop_assert!(p.machines.contains(&inst.initial[s.idx()]));
            }
        }
        prop_assert!(m_seen.iter().all(|&c| c == 1), "machine cover: {m_seen:?}");
        prop_assert!(s_seen.iter().all(|&c| c == 1), "shard cover: {s_seen:?}");
        let total: usize = parts.iter().map(|p| p.vacancy_quota).sum();
        prop_assert_eq!(total, inst.k_return, "quota sum conserved");
        for p in &parts {
            let vacant = p
                .machines
                .iter()
                .filter(|m| !inst.initial.contains(m))
                .count();
            prop_assert!(p.vacancy_quota <= vacant);
        }
        let _ = loaded;
    }

    /// Every split of the partition tree, at the root and one level down,
    /// deals each child `⌊n/k⌋` or `⌈n/k⌉` machines and conserves the
    /// node's vacancy quota, however the loads are skewed.
    #[test]
    fn partition_children_are_even_and_conserve_quota(
        (inst, _loaded) in arb_hetero_fleet(),
        k in 1usize..6,
    ) {
        let n = inst.n_machines();
        prop_assume!(n >= 2 * k);
        let asg = Assignment::from_initial(&inst);
        let loads = asg.loads(&inst);
        let parts = partition_fleet(&inst, &inst.initial, &loads, k, inst.k_return, &[]);
        check_split(n, inst.k_return, k, &parts)?;
        for node in parts.iter().filter(|p| p.machines.len() >= 4) {
            let children = partition_subfleet(
                &inst,
                &inst.initial,
                &loads,
                &node.machines,
                &node.shards,
                2,
                node.vacancy_quota,
                &[],
            );
            check_split(node.machines.len(), node.vacancy_quota, 2, &children)?;
        }
    }

    /// The LPT split keeps headroom spread bounded even when machine
    /// capacities differ 2–4×: the heaviest and lightest partition totals
    /// differ by at most one machine's load (the classic LPT bound — the
    /// partition that ends heaviest was lightest when its last loaded
    /// machine landed).
    #[test]
    fn heterogeneous_partition_spread_is_lpt_bounded(
        (inst, loaded) in arb_hetero_fleet(),
        k in 2usize..5,
    ) {
        prop_assume!(k <= loaded);
        let asg = Assignment::from_initial(&inst);
        let loads = asg.loads(&inst);
        let parts = partition_fleet(&inst, &inst.initial, &loads, k, inst.k_return, &[]);
        let totals: Vec<f64> = parts
            .iter()
            .map(|p| p.machines.iter().map(|m| loads[m.idx()]).sum())
            .collect();
        let max_total = totals.iter().cloned().fold(f64::MIN, f64::max);
        let min_total = totals.iter().cloned().fold(f64::MAX, f64::min);
        let max_load = loads.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(
            max_total - min_total <= max_load + 1e-9,
            "spread {:.4} exceeds the heaviest machine {:.4}: totals {totals:?}",
            max_total - min_total,
            max_load
        );
    }
}
