//! Differential suite: the cooperative decomposed solver vs the monolithic
//! search on the same instances.
//!
//! Three contracts:
//! 1. **Constraints** — the decomposed result satisfies everything the
//!    monolithic one does: complete placement, per-machine capacity, the
//!    `k_return` vacancy quota, and a verified transient-feasible
//!    migration schedule.
//! 2. **Quality** — final peak within 1% of the monolithic solve at the
//!    same iteration budget.
//! 3. **Determinism** — byte-identical output for `REX_THREADS` ∈
//!    {1, 2, 8} (the thread-count override is process-global, so every
//!    thread-sensitive check lives in one `#[test]`), and rex-obs
//!    recording never perturbs the outcome.
//!
//! The fleet sizes the partition tree (parts of more than 512 machines
//! split again), so the two-level path runs here on a 1 237-machine
//! fleet; `rex-core`'s `decomposed` unit tests grow deep trees on small
//! fleets through the solver's private tree floor.

use rex_cluster::{verify_schedule, Objective};
use rex_core::{solve, solve_traced, SraConfig, SraResult};
use rex_obs::{EventKind, Recorder};
use rex_workload::synthetic::{generate, DemandFamily, Placement, SynthConfig};

fn instance(machines: usize, shards: usize, seed: u64) -> rex_cluster::Instance {
    generate(&SynthConfig {
        n_machines: machines,
        n_exchange: (machines / 8).max(1),
        n_shards: shards,
        stringency: 0.8,
        family: DemandFamily::Correlated,
        placement: Placement::Hotspot(0.4),
        seed,
        ..Default::default()
    })
    .expect("generate")
}

fn cfg(partitions: usize) -> SraConfig {
    SraConfig {
        iters: 1_500,
        partitions,
        seed: 23,
        objective: Objective::pure(),
        ..Default::default()
    }
}

fn check_constraints(inst: &rex_cluster::Instance, res: &SraResult) {
    res.assignment
        .check_target(inst)
        .expect("target constraints");
    assert!(res.assignment.vacant_count() >= inst.k_return);
    assert_eq!(res.returned_machines.len(), inst.k_return);
    verify_schedule(inst, &inst.initial, res.assignment.placement(), &res.plan)
        .expect("schedule must stay transient-feasible");
}

#[test]
fn decomposed_matches_monolithic_and_is_thread_count_invariant() {
    let inst = instance(48, 480, 5);

    let mono = solve(&inst, &cfg(0)).expect("monolithic solve");
    check_constraints(&inst, &mono);

    let deco = solve(&inst, &cfg(8)).expect("decomposed solve");
    check_constraints(&inst, &deco);

    // Quality bound: within 1% of the monolithic peak.
    assert!(
        deco.final_report.peak <= mono.final_report.peak * 1.01 + 1e-9,
        "decomposed peak {} vs monolithic {}",
        deco.final_report.peak,
        mono.final_report.peak
    );
    // Both must actually improve the hotspot placement.
    assert!(deco.final_report.peak < deco.initial_report.peak);

    // Thread-count invariance: byte-identical placement, objective,
    // iteration count, and trace for 1, 2, and 8 threads.
    let reference_trace = {
        let mut rec = Recorder::active();
        let r = solve_traced(&inst, &cfg(8), &[], &mut rec).expect("traced solve");
        assert_eq!(
            r.assignment.placement(),
            deco.assignment.placement(),
            "recording must never perturb the outcome"
        );
        assert_eq!(r.objective_value, deco.objective_value);
        assert_eq!(r.iterations, deco.iterations);
        rec.to_jsonl()
    };
    assert!(!reference_trace.is_empty());
    for threads in [1usize, 2, 8] {
        rayon::set_threads_override(Some(threads));
        let run = solve(&inst, &cfg(8)).expect("solve under override");
        assert_eq!(
            run.assignment.placement(),
            deco.assignment.placement(),
            "placement must be byte-identical at {threads} threads"
        );
        assert_eq!(run.objective_value, deco.objective_value);
        assert_eq!(run.iterations, deco.iterations);

        let mut rec = Recorder::active();
        let traced = solve_traced(&inst, &cfg(8), &[], &mut rec).expect("traced");
        assert_eq!(traced.assignment.placement(), deco.assignment.placement());
        assert_eq!(
            rec.to_jsonl(),
            reference_trace,
            "trace must be byte-identical at {threads} threads"
        );
    }
    rayon::set_threads_override(None);

    // Hierarchical path: 1 237 machines at k = 2 give parts of about 618,
    // above the 512-machine floor, so every round runs a two-level tree.
    // Same constraint set, ≤1% of the monolithic peak, and byte-identical
    // across thread counts. This lives in the same #[test] because the
    // thread override is process-global.
    let big = generate(&SynthConfig {
        n_machines: 1_100,
        n_exchange: 137,
        n_shards: 3_300,
        stringency: 0.6,
        placement: Placement::Hotspot(0.1),
        seed: 5,
        ..Default::default()
    })
    .expect("generate");
    let quick = |partitions| SraConfig {
        iters: 400,
        ..cfg(partitions)
    };
    let hcfg = quick(2);
    let mut rec = Recorder::active();
    let hier = solve_traced(&big, &hcfg, &[], &mut rec).expect("hierarchical solve");
    let round_depths = rec
        .events()
        .iter()
        .filter(|e| e.name == "round" && e.kind == EventKind::SpanOpen);
    let depths: Vec<String> = round_depths.map(|e| format!("{:?}", e.fields[1])).collect();
    assert_eq!(
        depths, [r#"("depth", U64(2))"#; 4],
        "every round is two levels deep"
    );
    check_constraints(&big, &hier);
    let big_mono = solve(&big, &quick(0)).expect("monolithic solve");
    assert!(
        hier.final_report.peak <= big_mono.final_report.peak * 1.01 + 1e-9,
        "hierarchical peak {} vs monolithic {}",
        hier.final_report.peak,
        big_mono.final_report.peak
    );
    assert!(hier.final_report.peak < hier.initial_report.peak);
    for threads in [1usize, 8] {
        rayon::set_threads_override(Some(threads));
        let run = solve(&big, &hcfg).expect("hierarchical under override");
        assert_eq!(
            run.assignment.placement(),
            hier.assignment.placement(),
            "hierarchical placement must be byte-identical at {threads} threads"
        );
        assert_eq!(run.objective_value, hier.objective_value);
        assert_eq!(run.iterations, hier.iterations);
    }
    rayon::set_threads_override(None);
}

mod prop {
    use super::*;
    use proptest::prelude::*;
    use rex_cluster::{
        partition_fleet, partition_subfleet, Assignment, MachineId, PartitionSpec, ShardId,
    };
    use std::collections::HashSet;

    /// Recursively splits a node exactly like the hierarchical solver
    /// (same stop rule: the root splits, a node below it while it holds
    /// more than `floor` machines, and only if every child can get two
    /// machines) and checks, at every level, that the children partition
    /// the parent's machines and shards exactly and that the children's
    /// vacancy quotas sum to the parent's.
    fn check_tree(
        inst: &rex_cluster::Instance,
        placement: &[MachineId],
        loads: &[f64],
        node: &PartitionSpec,
        level: usize,
        floor: usize,
        k: usize,
    ) -> Result<(), TestCaseError> {
        let n = node.machines.len();
        if k < 2 || n < 2 * k || (level > 0 && n <= floor) {
            return Ok(());
        }
        let children = partition_subfleet(
            inst,
            placement,
            loads,
            &node.machines,
            &node.shards,
            k,
            node.vacancy_quota,
            &[],
        );
        let mut mseen = HashSet::new();
        let mut sseen = HashSet::new();
        for c in &children {
            for m in &c.machines {
                prop_assert!(mseen.insert(*m), "machine {m} in two children");
                prop_assert!(node.machines.contains(m), "machine {m} not in parent");
            }
            for s in &c.shards {
                prop_assert!(sseen.insert(*s), "shard {s} in two children");
                prop_assert!(
                    c.machines.contains(&placement[s.idx()]),
                    "shard {s} does not follow its machine"
                );
            }
        }
        prop_assert_eq!(mseen.len(), node.machines.len(), "machines lost in split");
        prop_assert_eq!(sseen.len(), node.shards.len(), "shards lost in split");
        let q: usize = children.iter().map(|c| c.vacancy_quota).sum();
        prop_assert_eq!(q, node.vacancy_quota, "vacancy quota not conserved");
        for c in &children {
            check_tree(inst, placement, loads, c, level + 1, floor, k)?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every machine lands in exactly one partition and every shard
        /// follows its hosting machine, for arbitrary fleet shapes and k.
        #[test]
        fn partition_covers_every_machine_exactly_once(
            machines in 6usize..40,
            shards_per in 2usize..12,
            k in 1usize..10,
            seed in 0u64..1_000,
        ) {
            let inst = instance(machines, machines * shards_per, seed);
            let asg = Assignment::from_initial(&inst);
            let loads = asg.loads(&inst);
            let parts = partition_fleet(&inst, &inst.initial, &loads, k, inst.k_return, &[]);

            let mut machine_seen = vec![0usize; inst.n_machines()];
            let mut shard_seen = vec![0usize; inst.n_shards()];
            for p in &parts {
                for m in &p.machines {
                    machine_seen[m.idx()] += 1;
                }
                for s in &p.shards {
                    shard_seen[s.idx()] += 1;
                    prop_assert!(p.machines.contains(&inst.initial[s.idx()]));
                }
            }
            prop_assert!(machine_seen.iter().all(|&c| c == 1));
            prop_assert!(shard_seen.iter().all(|&c| c == 1));
            let quota: usize = parts.iter().map(|p| p.vacancy_quota).sum();
            prop_assert_eq!(quota, inst.k_return);
        }

        /// End-to-end: the decomposed solve (partition rounds + boundary
        /// repair) always produces a verified transient-feasible schedule
        /// — boundary repair never ships a target that violates transient
        /// capacity.
        #[test]
        fn boundary_repair_respects_transient_capacity(
            machines in 10usize..28,
            seed in 0u64..50,
        ) {
            let inst = instance(machines, machines * 8, seed);
            let res = solve(
                &inst,
                &SraConfig {
                    iters: 400,
                    partitions: 4,
                    seed,
                    objective: Objective::pure(),
                    ..Default::default()
                },
            )
            .expect("decomposed solve");
            // Independent re-verification with the step simulator: every
            // batch must respect (1+α)-inflated source/target usage.
            verify_schedule(&inst, &inst.initial, res.assignment.placement(), &res.plan)
                .expect("transient-feasible schedule");
            prop_assert!(res.assignment.vacant_count() >= inst.k_return);
        }

        /// The partition tree covers every machine and shard of every node
        /// exactly once in its children, at every level, and vacancy
        /// quotas are conserved all the way down.
        #[test]
        fn hierarchical_tree_covers_and_conserves_quota(
            machines in 12usize..48,
            shards_per in 2usize..10,
            k in 2usize..5,
            floor in 2usize..16,
            seed in 0u64..500,
        ) {
            let inst = instance(machines, machines * shards_per, seed);
            let asg = Assignment::from_initial(&inst);
            let loads = asg.loads(&inst);
            let root = PartitionSpec {
                machines: (0..inst.n_machines()).map(MachineId::from).collect(),
                shards: (0..inst.n_shards()).map(ShardId::from).collect(),
                vacancy_quota: inst.k_return,
            };
            check_tree(&inst, &inst.initial, &loads, &root, 0, floor, k)?;
        }
    }
}
