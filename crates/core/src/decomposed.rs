//! Cooperative decomposed SRA search: partition → parallel sub-solves →
//! merge → boundary repair, repeated while the rounds keep lowering the
//! best, for at most [`ROUNDS`] rounds.
//!
//! The serial search scans the whole fleet on every iteration. The
//! decomposed solver instead splits the fleet into `k` machine
//! neighborhoods, runs one in-place LNS worker per neighborhood on a
//! **sub-instance** containing only that neighborhood's machines and
//! shards, and splices the per-partition solutions back together. Each
//! covered iteration touches `O(n/k)` machines instead of `O(n)` — the
//! source of the wall-clock win on a single core, and the reason it also
//! parallelizes cleanly when cores exist.
//!
//! One round — the same routine at every tree depth (POP-style: one
//! `split → solve each → merge` step reused per tree level):
//!
//! 1. **Partition** the fleet by current loads (LPT over machines; shards
//!    follow the machine hosting them) into `k` children, and each child
//!    that still holds more than `LEAF_MACHINES` machines (and can give
//!    every child two) into `k` again ([`rex_cluster::partition_subfleet`]).
//!    The fleet alone sizes the tree: no setting asks for a depth. Nodes of
//!    one level are disjoint in both machines and shards, so their
//!    solutions compose without conflicts. The global `k_return` vacancy
//!    quota is split into per-node shares backed by each node's own
//!    vacancies and conserved at every split. While every child of the root
//!    stays at or below the floor, the tree is just the `k` leaves.
//! 2. **Sub-solve** every leaf in parallel
//!    ([`rex_lns::cooperative_round`]) on its sub-instance, with seeds
//!    from [`rex_lns::round_seed`]`(seed, round, job)` — fixed before the
//!    parallel section, so the result is bit-identical for any
//!    `REX_THREADS`.
//! 3. **Merge** by splicing each node's placement into the global one
//!    (conflict-free by construction; capacity- and vacancy-feasible
//!    because every sub-solution is, and the quota shares sum to
//!    `k_return`).
//! 4. **Repair bottom-up**: every internal level of the tree runs steps
//!    2–3 again over its (larger) nodes on a short budget, so shards cross
//!    the borders of the level below.
//! 5. **Boundary repair**: a short serial LNS pass on the *global* problem
//!    starting from the merged placement — the root's repair. This is
//!    where shards cross top-level borders, and where the global
//!    `plan_on_best` gate sees candidates against the true initial
//!    placement.
//!
//! Re-partitioning by the new loads each round rotates the neighborhood
//! structure, so shards trapped in an unlucky partition get fresh chances.
//! Those chances stop paying: once some round's result has passed the
//! plannability gate, the search ends after the first round that lowers the
//! best by `ROUND_GAIN` or less. Budgets, seeds and trees do not depend on
//! how many rounds run, so every round that runs is the one the full
//! [`ROUNDS`] would have run, at any `REX_THREADS`.
//!
//! ## Deliverable by construction
//!
//! The search returns what the serial search returns: its start, or a
//! placement the global plannability gate ([`SraProblem::accept_best`])
//! accepted. One check guarantees it: a round's result becomes the best
//! only if it passes the global gate, whose plan `solve`'s final planning
//! step replays. The other gates only aim round 0 at results that pass:
//! its leaves search gated (without a drain their start is the initial
//! placement restricted to the leaf, so a leaf's gate is the global one
//! on that leaf), and it drops an internal level's merge that fails the
//! global gate, so that its root pass is meant to start from a placement
//! that plans. With machines draining, the start is the greedy
//! evacuation, and the leaves plan from it, not from home. If neither
//! that start nor any round's result plans, the solve fails with
//! `PlanningDeadlock`, as the serial search does.
//!
//! ## Fidelity caveats (accepted, documented)
//!
//! Sub-instances use the **round-start placement as their initial**: the
//! sub-objective's migration-cost term, `α`-escapability and (in round 0)
//! the plannability gate are measured from the round start, not the global
//! initial. From round 1 on that start is no longer the initial
//! placement, so those leaves and every internal level search ungated;
//! with machines draining, round 0 starts from the greedy evacuation. The
//! boundary pass, the best's gate and the final objective always use the
//! global initial, and the returned best is chosen by the *global*
//! objective, so reported numbers are exact; only the sub-searches'
//! guidance is approximate. The global best is tracked explicitly and
//! seeded with the starting solution, so the decomposed search never
//! returns anything worse than the monolithic start.

use crate::problem::SraProblem;
use crate::sra::{starting_solution, SraConfig};
use rex_cluster::{
    partition_subfleet, Assignment, ClusterError, Instance, Machine, MachineId, PartitionSpec,
    Shard, ShardId,
};
use rex_lns::{
    cooperative_round, round_seed, EngineStats, LnsProblemInPlace, SearchOutcome, TrajectoryPoint,
};
use rex_obs::Recorder;

/// The most recombination rounds a solve runs. Each round re-partitions by
/// current loads, so this also caps how many distinct neighborhood
/// structures the search explores. Every round's budget is sized for the
/// full cap, so a search that `ROUND_GAIN` stops early is a prefix of the
/// full one.
pub const ROUNDS: u64 = 4;

/// Once some round's result has passed the plannability gate, the search
/// stops after the first round that lowers the best by this much or less (a
/// round whose result the gate rejects lowers it by nothing). Chosen by a
/// sweep over {0, 1e-5, 1e-4, 1e-3} (EXPERIMENTS.md "PR 50").
pub(crate) const ROUND_GAIN: f64 = 1e-4;

/// A node below the root that holds more machines than this splits into
/// `k` children again. The benchmark's 1 125-machine fleet at `k = 8`
/// (parts of about 141) stays one level deep; a 10 000-machine fleet
/// (parts of about 1 375) goes two deep. Chosen by a sweep over
/// {256, 512, 1024} (EXPERIMENTS.md "PR 45").
pub(crate) const LEAF_MACHINES: usize = 512;

/// Sub-instance for one tree node, plus what maps it back to the round.
struct SubCtx {
    /// Index of the node in its level's node list.
    node: usize,
    /// The node as its own instance (local dense ids); its `initial` is
    /// the level-start placement in local ids.
    inst: Instance,
    /// Drained machines of this node, in local ids.
    drain: Vec<MachineId>,
}

/// Builds the local sub-instance for one tree node (`part`). Local
/// machine `j` is `part.machines[j]`; local shard `j` is
/// `part.shards[j]`; the sub-initial is the current global `placement`
/// restricted to the node. Exchange flags are dropped — inside a node
/// every machine is just capacity — and the sub `k_return` is the node's
/// vacancy-quota share.
fn build_sub(
    inst: &Instance,
    placement: &[MachineId],
    part: &PartitionSpec,
    node: usize,
    is_drained: impl Fn(MachineId) -> bool,
    label: String,
) -> SubCtx {
    let mut local_of = vec![u32::MAX; inst.n_machines()];
    let machines: Vec<Machine> = part
        .machines
        .iter()
        .enumerate()
        .map(|(j, &m)| {
            local_of[m.idx()] = j as u32;
            Machine::new(MachineId::from(j), inst.machines[m.idx()].capacity)
        })
        .collect();
    let shards: Vec<Shard> = part
        .shards
        .iter()
        .enumerate()
        .map(|(j, &s)| {
            Shard::new(
                ShardId::from(j),
                *inst.demand(s),
                inst.shards[s.idx()].move_cost,
            )
        })
        .collect();
    let initial: Vec<MachineId> = part
        .shards
        .iter()
        .map(|&s| MachineId::from(local_of[placement[s.idx()].idx()] as usize))
        .collect();
    let drain: Vec<MachineId> = part
        .machines
        .iter()
        .filter(|&&m| is_drained(m))
        .map(|&m| MachineId::from(local_of[m.idx()] as usize))
        .collect();
    let sub_inst = Instance {
        dims: inst.dims,
        machines,
        shards,
        initial,
        k_return: part.vacancy_quota,
        alpha: inst.alpha,
        label,
    };
    debug_assert!(
        sub_inst.validate().is_ok(),
        "sub-instance of a feasible placement must validate"
    );
    SubCtx {
        node,
        inst: sub_inst,
        drain,
    }
}

/// What every round of one decomposed solve shares.
struct Rounds<'a, 'p> {
    problem: &'a SraProblem<'p>,
    cfg: &'a SraConfig,
    seed: u64,
    /// Effective children per split.
    k: usize,
    /// Nodes below the root above this many machines split again.
    leaf_machines: usize,
    drained: Vec<MachineId>,
    /// Per-round budget of a leaf worker.
    sub_iters: u64,
    /// Per-round budget of every repair pass (internal levels and root).
    boundary_iters: u64,
}

/// One round's partition tree.
#[derive(Default)]
struct Tree {
    /// The leaves, in traversal (DFS) order.
    leaves: Vec<PartitionSpec>,
    /// Internal nodes strictly below the root, one list per level from the
    /// root's children down.
    internal: Vec<Vec<PartitionSpec>>,
}

impl Tree {
    /// Levels below the root the tree reached (1 when the root's children
    /// are the leaves, or when the root could not split at all).
    fn depth(&self) -> usize {
        self.internal.len() + 1
    }
}

/// Runs the cooperative decomposed search (see module docs) and returns
/// `(best, iterations, stats, trajectory)` in [`crate::sra`]'s search
/// contract. Stats and trajectory are empty — per-worker engine stats do
/// not aggregate meaningfully across sub-instances. Nodes below the root
/// with more than `leaf_machines` machines split again (the solver passes
/// `LEAF_MACHINES`; tests pass small floors to grow deep trees on small
/// fleets).
///
/// Deterministic for a fixed `(problem, cfg, seed)` and byte-identical
/// across `REX_THREADS` settings: all seeds are fixed before each parallel
/// section, workers run untraced, and every trace event is emitted
/// serially after the round barrier.
pub(crate) fn decomposed_search(
    problem: &SraProblem<'_>,
    cfg: &SraConfig,
    seed: u64,
    leaf_machines: usize,
    rec: &mut Recorder,
) -> Result<(Assignment, u64, Option<EngineStats>, Vec<TrajectoryPoint>), ClusterError> {
    let inst = problem.inst;
    let rounds = Rounds {
        problem,
        cfg,
        seed,
        // At least two machines per partition, at least one partition.
        k: cfg.partitions.min(inst.n_machines() / 2).max(1),
        leaf_machines,
        drained: (0..inst.n_machines())
            .map(MachineId::from)
            .filter(|&m| problem.is_drained(m))
            .collect(),
        // Budget split: each leaf worker gets the full per-worker budget
        // spread over the rounds (total covered iterations ≈ cfg.iters per
        // leaf, each over an O(n/k) sub-instance); every repair pass gets
        // a small slice per round.
        sub_iters: (cfg.iters / ROUNDS).max(1),
        boundary_iters: (cfg.iters / (ROUNDS * 8)).max(50),
    };

    let mut current = starting_solution(problem)?;
    let mut best = current.clone();
    let mut best_val = LnsProblemInPlace::objective(problem, &best);
    let mut iterations = 0u64;
    // Each round partitions by its own start's loads; the first tree is
    // built here so the span can report its depth.
    let mut tree = rounds.tree(&current);

    rec.span_open(
        "sra",
        "decomposed",
        &[
            ("partitions", rounds.k.into()),
            ("depth", tree.depth().into()),
            ("rounds", ROUNDS.into()),
            ("sub_iters", rounds.sub_iters.into()),
            ("boundary_iters", rounds.boundary_iters.into()),
        ],
    );

    let mut rounds_run = 0u64;
    // Whether some round's result passed the gate. Until one has, a start
    // that may not plan (a drain's evacuation) gives every round its chance.
    let mut gated = false;
    for round in 0..ROUNDS {
        let (next, round_iters, val) = rounds.hierarchical_round(round, &current, &tree, rec)?;
        current = next;
        iterations += round_iters;
        rounds_run += 1;
        let round_start = best_val;
        // A round's result may be a merge no gate judged as a whole; it
        // becomes the best only through the gate, whose plan the final
        // planning step then replays.
        if val < best_val && problem.accept_best(&current) {
            best_val = val;
            best = current.clone();
            gated = true;
        }
        // The gate keeps its plans; its fleet-sized planner need not sit
        // beside the next round's leaves.
        problem.release_planner();
        if gated && round_start - best_val <= ROUND_GAIN {
            break;
        }
        if round + 1 < ROUNDS {
            tree = rounds.tree(&current);
        }
    }

    rec.span_close(
        "sra",
        "decomposed",
        &[
            ("best_objective", best_val.into()),
            ("iterations", iterations.into()),
            ("rounds_run", rounds_run.into()),
        ],
    );
    Ok((best, iterations, None, Vec::new()))
}

impl Rounds<'_, '_> {
    /// The partition tree of the fleet under `current`'s loads.
    fn tree(&self, current: &Assignment) -> Tree {
        let inst = self.problem.inst;
        let root = PartitionSpec {
            machines: (0..inst.n_machines()).map(MachineId::from).collect(),
            shards: (0..inst.n_shards()).map(ShardId::from).collect(),
            vacancy_quota: inst.k_return,
        };
        let mut tree = Tree::default();
        let loads = current.loads(inst);
        self.split_rec(current.placement(), &loads, root, 0, &mut tree);
        tree
    }

    /// Recursively splits `node`, collecting leaves in traversal (DFS)
    /// order and internal nodes (strictly below the root) per level for the
    /// bottom-up repair sweep. The root always splits; a node below it
    /// splits while it holds more than `leaf_machines` machines. Either
    /// way a node splits only if it can give every child at least two
    /// machines. The root is never stored — its repair is the round's
    /// global boundary pass. Vacancy quotas are conserved at every split
    /// ([`partition_subfleet`]).
    fn split_rec(
        &self,
        placement: &[MachineId],
        loads: &[f64],
        node: PartitionSpec,
        level: usize,
        tree: &mut Tree,
    ) {
        let n = node.machines.len();
        if self.k < 2 || n < 2 * self.k || (level > 0 && n <= self.leaf_machines) {
            tree.leaves.push(node);
            return;
        }
        let children = partition_subfleet(
            self.problem.inst,
            placement,
            loads,
            &node.machines,
            &node.shards,
            self.k,
            node.vacancy_quota,
            &self.drained,
        );
        if level > 0 {
            if tree.internal.len() < level {
                tree.internal.push(Vec::new());
            }
            tree.internal[level - 1].push(node);
        }
        for child in children {
            self.split_rec(placement, loads, child, level + 1, tree);
        }
    }

    /// Solves one level of the partition tree: every node of `nodes` that
    /// holds shards becomes a sub-instance of `merged` restricted to it,
    /// all of them run in one cooperative round (node `i` seeded by job
    /// slot `base + i`), and each sub-solution is spliced back into
    /// `merged`. Nodes of one level are disjoint in machines and shards,
    /// so the splice is conflict-free; every sub-solution is
    /// capacity-feasible and keeps its vacancy-quota share, and the shares
    /// sum to the parent's quota, so `merged` stays globally feasible.
    /// Shardless nodes have nothing to search and stay untouched (and
    /// vacant). With `gated`, every node's bests must plan from the node's
    /// start under the solve's planner config. Returns `(node index,
    /// outcome)` per solved node, in node order.
    fn solve_level(
        &self,
        round: u64,
        nodes: &[PartitionSpec],
        base: usize,
        iters: u64,
        gated: bool,
        merged: &mut [MachineId],
    ) -> Vec<(usize, SearchOutcome<Assignment>)> {
        let (problem, cfg) = (self.problem, self.cfg);
        let inst = problem.inst;
        let subs: Vec<SubCtx> = nodes
            .iter()
            .enumerate()
            .filter(|(_, nd)| !nd.shards.is_empty())
            .map(|(i, nd)| {
                build_sub(
                    inst,
                    merged,
                    nd,
                    i,
                    |m| problem.is_drained(m),
                    format!("{}#r{round}j{}", inst.label, base + i),
                )
            })
            .collect();
        // Each job builds its sub-problem and engine in its worker and drops
        // them there (a gated leaf's planner included), so a level holds one
        // node's search state per thread rather than every node's.
        let (planner, smoothing) = (problem.planner, problem.smoothing);
        let jobs: Vec<_> = subs
            .iter()
            .map(|sc| {
                let seed = round_seed(self.seed, round, base + sc.node);
                move || {
                    let mut sp = SraProblem::new(&sc.inst, cfg.objective).with_drain(&sc.drain);
                    sp.plan_on_best = gated;
                    sp.planner = planner;
                    sp.smoothing = smoothing;
                    cfg.engine(&sp, Assignment::from_initial(&sc.inst), iters)
                        .run(seed)
                }
            })
            .collect();
        let outcomes = cooperative_round(jobs);
        for (sc, out) in subs.iter().zip(&outcomes) {
            let nd = &nodes[sc.node];
            for (j, &s) in nd.shards.iter().enumerate() {
                merged[s.idx()] = nd.machines[out.best.placement()[j].idx()];
            }
        }
        subs.iter().map(|sc| sc.node).zip(outcomes).collect()
    }

    /// One round over `tree` (POP-style): leaf solves in one flat
    /// cooperative round → bottom-up per-level internal-node repairs → one
    /// global serial boundary repair with the usual plan gating. At depth 1
    /// the tree is the `k` children of the root, there are no internal
    /// levels, and this is the flat partition → solve → merge →
    /// boundary-repair round. Returns `(new current, iterations, global
    /// objective)`.
    ///
    /// Determinism: every engine's seed is `round_seed(seed, round,
    /// job_idx)` where `job_idx` numbers the engines launched this round
    /// in fixed traversal order (leaves, then internal levels bottom-up,
    /// then the global pass) — all assigned before any parallel section,
    /// so the round is byte-identical for any `REX_THREADS`.
    fn hierarchical_round(
        &self,
        round: u64,
        current: &Assignment,
        tree: &Tree,
        rec: &mut Recorder,
    ) -> Result<(Assignment, u64, f64), ClusterError> {
        let (problem, cfg) = (self.problem, self.cfg);
        let inst = problem.inst;
        rec.span_open(
            "sra",
            "round",
            &[
                ("round", round.into()),
                ("depth", tree.depth().into()),
                ("leaves", tree.leaves.len().into()),
            ],
        );
        let Tree { leaves, internal } = tree;

        // Stage 1: solve every leaf in one flat cooperative round (no
        // nested parallelism — the tree only shapes *which* sub-instances
        // exist). A round-0 leaf starts from the solve's start (the initial
        // placement unless machines drain), so without a drain its gate is
        // the global one restricted to the leaf; later rounds start
        // elsewhere and search their leaves, like every internal level,
        // ungated.
        let mut merged = current.placement().to_vec();
        let leaf_runs = self.solve_level(round, leaves, 0, self.sub_iters, round == 0, &mut merged);
        let mut iterations: u64 = leaf_runs.iter().map(|(_, out)| out.iterations).sum();
        for (i, out) in &leaf_runs {
            rec.event(
                "lns",
                "partition",
                &[
                    ("round", round.into()),
                    ("partition", (*i).into()),
                    ("machines", leaves[*i].machines.len().into()),
                    ("shards", leaves[*i].shards.len().into()),
                    ("seed", round_seed(self.seed, round, *i).into()),
                    ("objective", out.best_objective.into()),
                    ("iterations", out.iterations.into()),
                ],
            );
        }
        let mut next_job = leaves.len();

        // Stage 2: bottom-up repairs across each internal level, exactly
        // like the leaf solves but on the repair budget. They search
        // ungated, so in round 0, whose leaves searched gated, a level's
        // merge that fails the global gate is dropped, to keep the root
        // pass's start close to one that plans. Nothing here guarantees
        // it: the gate on the round's result does.
        let iters = self.boundary_iters;
        for nodes in internal.iter().rev() {
            let kept = (round == 0).then(|| merged.clone());
            let runs = self.solve_level(round, nodes, next_job, iters, false, &mut merged);
            iterations += runs.iter().map(|(_, out)| out.iterations).sum::<u64>();
            next_job += nodes.len();
            if let Some(kept) = kept {
                if !problem.accept_best(&Assignment::from_placement(inst, merged.clone())?) {
                    merged = kept;
                }
            }
        }

        // Stage 3: the root's repair — a global serial boundary pass with
        // cross-node moves, judged against the true initial placement with
        // the usual plan-on-best gating. Merged placements are feasible by
        // construction, so the engine's feasible-start requirement holds.
        let out = cfg
            .engine(
                problem,
                Assignment::from_placement(inst, merged)?,
                self.boundary_iters,
            )
            .run_recorded(round_seed(self.seed, round, next_job), rec);
        iterations += out.iterations;
        let next = out.best;
        let val = LnsProblemInPlace::objective(problem, &next);
        rec.span_close("sra", "round", &[("objective", val.into())]);
        Ok((next, iterations, val))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sra::{
        solve, solve_traced, solve_with_drain, solve_with_floor, AcceptanceKind, SraResult,
    };
    use rex_cluster::{InstanceBuilder, Objective};

    /// A fleet big enough to split: `hot` heavily loaded machines, `cool`
    /// lightly loaded ones, a tail of vacancies, one exchange machine.
    fn fleet(hot: usize, cool: usize, vacant: usize, seed: u64) -> Instance {
        let mut b = InstanceBuilder::new(1).alpha(0.05).label("decomp");
        let mut rng = seed;
        let mut next = || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut ms = Vec::new();
        for _ in 0..(hot + cool + vacant) {
            ms.push(b.machine(&[100.0]));
        }
        let _x = b.exchange_machine(&[100.0]);
        for &m in ms.iter().take(hot) {
            for _ in 0..6 {
                b.shard(&[10.0 + 4.0 * next()], 1.0, m);
            }
        }
        for i in 0..cool {
            b.shard(&[5.0 + 5.0 * next()], 1.0, ms[hot + i]);
        }
        b.build().unwrap()
    }

    fn cfg(partitions: usize) -> SraConfig {
        SraConfig {
            iters: 2_000,
            partitions,
            objective: Objective::pure(),
            acceptance: AcceptanceKind::SimulatedAnnealing,
            ..Default::default()
        }
    }

    /// [`solve_with_drain`] through trees whose nodes below the root split
    /// while they hold more than `floor` machines. On `fleet(6, 18, 8, _)`
    /// (33 machines) at `k = 2`, floor 12 grows a two-level tree and floor
    /// 5 a three-level one.
    fn solve_floored(
        inst: &Instance,
        c: &SraConfig,
        drain: &[MachineId],
        floor: usize,
    ) -> SraResult {
        solve_with_floor(inst, c, drain, floor, &mut Recorder::noop()).unwrap()
    }

    /// The round-start tree of a decomposed solve of `inst` at `k`.
    fn tree_of(inst: &Instance, k: usize, floor: usize) -> Tree {
        let problem = SraProblem::new(inst, Objective::pure());
        let c = cfg(k);
        let rounds = Rounds {
            problem: &problem,
            cfg: &c,
            seed: 0,
            k: k.min(inst.n_machines() / 2).max(1),
            leaf_machines: floor,
            drained: Vec::new(),
            sub_iters: 1,
            boundary_iters: 1,
        };
        rounds.tree(&Assignment::from_initial(inst))
    }

    #[test]
    fn the_fleet_sizes_the_tree() {
        let inst = fleet(6, 18, 8, 3); // 33 machines
        for (k, floor, depth) in [(2, 512, 1), (2, 32, 1), (2, 12, 2), (2, 5, 3), (4, 5, 2)] {
            let tree = tree_of(&inst, k, floor);
            assert_eq!(tree.depth(), depth, "k={k} floor={floor}");
            // Every leaf is at or below the floor unless it is too small
            // to give each of `k` children two machines.
            for leaf in &tree.leaves {
                let n = leaf.machines.len();
                assert!(n <= floor || n < 2 * k, "k={k} floor={floor}: leaf of {n}");
            }
            // Every internal node holds more than the floor.
            for level in &tree.internal {
                assert!(level.iter().all(|nd| nd.machines.len() > floor));
            }
        }
        // Every split deals ⌊n/k⌋ or ⌈n/k⌉ machines per child, so no leaf
        // is a single machine that could move nothing (LPT by load alone
        // split a 9-machine node 1 + 8 here).
        let sizes: Vec<usize> = tree_of(&inst, 2, 5)
            .leaves
            .iter()
            .map(|leaf| leaf.machines.len())
            .collect();
        assert_eq!(sizes, [4, 5, 4, 4, 4, 4, 4, 4]);
        // A fleet too small to split is one leaf at depth 1.
        let tiny = tree_of(&fleet(1, 1, 0, 3), 2, 1);
        assert_eq!((tiny.depth(), tiny.leaves.len()), (1, 1));
    }

    #[test]
    fn decomposed_solve_improves_balance() {
        let inst = fleet(4, 8, 4, 7);
        let res = solve(&inst, &cfg(4)).unwrap();
        assert!(
            res.final_report.peak < res.initial_report.peak,
            "final {} vs initial {}",
            res.final_report.peak,
            res.initial_report.peak
        );
        res.assignment.check_target(&inst).unwrap();
        assert_eq!(res.returned_machines.len(), inst.k_return);
    }

    #[test]
    fn decomposed_solve_is_deterministic_at_every_depth() {
        for (inst, c, floor) in [
            (fleet(4, 8, 4, 3), cfg(4), LEAF_MACHINES),
            (fleet(6, 18, 8, 17), cfg(2), 5),
        ] {
            let a = solve_floored(&inst, &c, &[], floor);
            let b = solve_floored(&inst, &c, &[], floor);
            assert_eq!(a.objective_value, b.objective_value);
            assert_eq!(a.assignment.placement(), b.assignment.placement());
            assert_eq!(a.iterations, b.iterations);
        }
    }

    #[test]
    fn decomposed_never_worse_than_initial() {
        for seed in 0..3 {
            let inst = fleet(3, 6, 3, seed);
            let c = SraConfig {
                seed,
                iters: 600,
                ..cfg(3)
            };
            let res = solve(&inst, &c).unwrap();
            assert!(res.final_report.peak <= res.initial_report.peak + 1e-9);
        }
    }

    #[test]
    fn decomposed_matches_monolithic_quality_on_small_fleet() {
        let inst = fleet(4, 8, 4, 11);
        let mono = solve(&inst, &cfg(0)).unwrap();
        let deco = solve(&inst, &cfg(4)).unwrap();
        assert!(
            deco.final_report.peak <= mono.final_report.peak * 1.01 + 1e-9,
            "decomposed {} vs monolithic {}",
            deco.final_report.peak,
            mono.final_report.peak
        );
    }

    #[test]
    fn decomposed_respects_drain_at_every_depth() {
        let drain = [MachineId(0)];
        for (inst, c, floor) in [
            (fleet(4, 8, 4, 5), cfg(4), LEAF_MACHINES),
            (fleet(6, 18, 8, 5), cfg(2), 12),
        ] {
            let res = solve_floored(&inst, &c, &drain, floor);
            assert!(res.assignment.is_vacant(MachineId(0)));
            assert!(!res.returned_machines.contains(&MachineId(0)));
            res.assignment.check_target(&inst).unwrap();
        }
    }

    #[test]
    fn partitions_clamp_to_tiny_fleets() {
        // 3 machines: k_eff = 1, a single partition covering everything.
        let mut b = InstanceBuilder::new(1).label("tiny");
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        let _x = b.exchange_machine(&[10.0]);
        for _ in 0..6 {
            b.shard(&[1.0], 1.0, m0);
        }
        let inst = b.build().unwrap();
        let res = solve(&inst, &cfg(8)).unwrap();
        assert!(res.final_report.peak <= res.initial_report.peak + 1e-9);
    }

    #[test]
    fn hierarchical_solve_improves_and_returns_quota() {
        let inst = fleet(6, 18, 8, 13);
        let res = solve_floored(&inst, &cfg(2), &[], 12);
        assert!(
            res.final_report.peak < res.initial_report.peak,
            "final {} vs initial {}",
            res.final_report.peak,
            res.initial_report.peak
        );
        res.assignment.check_target(&inst).unwrap();
        assert_eq!(res.returned_machines.len(), inst.k_return);
    }

    #[test]
    fn hierarchical_matches_flat_quality() {
        let inst = fleet(6, 18, 8, 19);
        let flat = solve(&inst, &cfg(4)).unwrap();
        let hier = solve_floored(&inst, &cfg(2), &[], 12);
        assert!(
            hier.final_report.peak <= flat.final_report.peak * 1.01 + 1e-9,
            "hierarchical {} vs flat {}",
            hier.final_report.peak,
            flat.final_report.peak
        );
    }

    proptest::proptest! {
        // Each case runs two full solves — keep the count modest.
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        /// Hierarchical (floor 4: the root's children of 5–9 machines
        /// split again where they can give four children two machines each)
        /// and flat decomposed solves agree within a 1% quality band at the
        /// same iteration budget.
        #[test]
        fn hierarchical_matches_flat_within_one_percent(
            machines in 20usize..36,
            seed in 0u64..30,
        ) {
            let inst = synth(machines, (machines / 8).max(1), machines * 8, 0.8, seed);
            let base = SraConfig { iters: 600, seed, ..cfg(4) };
            let flat = solve(&inst, &base).unwrap();
            let hier = solve_floored(&inst, &base, &[], 4);
            proptest::prop_assert!(
                hier.final_report.peak <= flat.final_report.peak * 1.01 + 1e-9,
                "hierarchical peak {} vs flat {}",
                hier.final_report.peak,
                flat.final_report.peak
            );
        }
    }

    fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
        words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// FNV-1a over the machine ids of a placement.
    fn placement_checksum(placement: &[MachineId]) -> u64 {
        fnv1a(placement.iter().map(|m| u64::from(m.0)))
    }

    #[test]
    #[rustfmt::skip] // one pin per row
    fn depth_one_matches_the_frozen_flat_rounds() {
        // Recorded from the dedicated flat round loop before it was folded
        // into `hierarchical_round`: `fleet` arguments, partitions, seed and
        // drain → objective bits, iterations, placement checksum. The drain
        // row's checksum was taken again when the partitioner started to
        // cap child sizes (one of its rounds had split 4 + 3 + 3 + 7
        // machines); its objective bits and iterations did not move. When
        // the rounds started to stop once they stopped paying, three rows
        // lost rounds: their objective bits stayed, their iterations fell
        // (8248 → 6186, 4248 → 2124, 8248 → 6186), and the second and the
        // drain row's checksums moved (the dropped rounds had only lowered
        // the smoothing term).
        let pin = |f: (usize, usize, usize, u64), k, seed, drain: &[MachineId], bits, iters, sum| {
            let inst = fleet(f.0, f.1, f.2, f.3);
            let res = solve_with_drain(&inst, &SraConfig { seed, ..cfg(k) }, drain).unwrap();
            let got = (
                res.objective_value.to_bits(),
                res.iterations,
                placement_checksum(res.assignment.placement()),
            );
            assert_eq!(got, (bits, iters, sum), "fleet {f:?} k={k} seed={seed}");
        };
        pin((4, 8, 4, 3), 4, 42, &[], 0x3fce6038508f5c29, 6186, 0x58e1649903c2c337);
        pin((6, 18, 8, 13), 2, 7, &[], 0x3fcb46c227147ae1, 2124, 0x218157723bc95ee0);
        pin((3, 6, 3, 1), 3, 1, &[], 0x3fce1f74f4333333, 6248, 0xcfd90bb7623ad8b7);
        pin((4, 8, 4, 5), 4, 42, &[MachineId(0)], 0x3fce6e3408333333, 6186, 0x130ba2ce3b4ca2df);
    }

    /// The benchmark's synthetic instance family (correlated demand,
    /// hotspot placement, α = 0.1) at a given size and stringency.
    fn synth(
        machines: usize,
        exchange: usize,
        shards: usize,
        stringency: f64,
        seed: u64,
    ) -> Instance {
        use rex_workload::synthetic::{generate, DemandFamily, Placement, SynthConfig};
        generate(&SynthConfig {
            n_machines: machines,
            n_exchange: exchange,
            n_shards: shards,
            dims: 3,
            stringency,
            alpha: 0.1,
            family: DemandFamily::Correlated,
            placement: Placement::Hotspot(0.4),
            seed,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    #[rustfmt::skip] // one pin per row
    fn operator_pruning_matches_the_frozen_unpruned_scans() {
        // Recorded before the repair scans got their tight lower bound and
        // worst-machine removal lost its sort (both must be decision-exact):
        // default-objective solves → objective bits, iterations, placement
        // checksum; and the length + FNV-1a of one traced solve's JSONL. The
        // `mid` row's iterations fell 1800 → 1350 when its rounds started to
        // stop once they stopped paying; its bits and checksum did not move.
        let pin = |inst: &Instance, c: &SraConfig, floor, drain: &[MachineId], bits, iters, sum| {
            let res = solve_floored(inst, c, drain, floor);
            let got = (
                res.objective_value.to_bits(),
                res.iterations,
                placement_checksum(res.assignment.placement()),
            );
            assert_eq!(got, (bits, iters, sum), "{} {c:?}", inst.label);
        };
        let stringent = synth(100, 8, 1000, 0.90, 11);
        let serial = SraConfig { iters: 400, seed: 11, ..Default::default() };
        pin(&stringent, &serial, LEAF_MACHINES, &[], 0x3fed6fec60a3ceb5, 400, 0x435ddb3caadf96c8);
        // 66 machines at k = 2: parts of about 33 split, their children of about 16 do not.
        let mid = synth(60, 6, 720, 0.80, 12);
        pin(&mid, &SraConfig { iters: 300, seed: 5, partitions: 2, ..Default::default() }, 24, &[], 0x3fea2a19db77d873, 1350, 0xc78f1aeec0aca0f1);
        let loose = synth(40, 4, 400, 0.50, 13);
        pin(&loose, &SraConfig { iters: 600, seed: 3, ..Default::default() }, LEAF_MACHINES, &[MachineId(3), MachineId(7)], 0x3fe14a44f56fd55e, 600, 0xc82f2d555078f75a);

        let mut rec = Recorder::active();
        solve_traced(&stringent, &SraConfig { iters: 150, seed: 2, ..Default::default() }, &[], &mut rec).unwrap();
        let jsonl = rec.to_jsonl();
        let hash = fnv1a(jsonl.bytes().map(u64::from));
        assert_eq!((jsonl.len(), hash), (38947, 0x2a1708da555f601c));
    }

    /// The closes of the `("sra", name)` spans `rec` recorded.
    fn span_closes<'r>(
        rec: &'r Recorder,
        name: &'r str,
    ) -> impl Iterator<Item = &'r rex_obs::EventRecord> + 'r {
        rec.events().iter().filter(move |e| {
            e.layer == "sra"
                && e.name == name
                && matches!(e.kind, rex_obs::EventKind::SpanClose { .. })
        })
    }

    /// The value of `key` among `e`'s fields.
    fn field<'e>(e: &'e rex_obs::EventRecord, key: &str) -> Option<&'e rex_obs::Value> {
        e.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    #[test]
    fn rounds_stop_at_the_first_that_does_not_pay() {
        // `fleet` arguments, partitions, seed → rounds run. Every round but
        // the last lowers the best by more than `ROUND_GAIN`; the last
        // lowers it by no more, unless it is round `ROUNDS - 1`.
        for (f, k, seed, want) in [
            ((6, 18, 8, 13), 2, 7, 2),
            ((4, 8, 4, 3), 4, 42, 3),
            ((3, 6, 3, 1), 3, 1, ROUNDS),
        ] {
            let inst = fleet(f.0, f.1, f.2, f.3);
            let c = SraConfig { seed, ..cfg(k) };
            let mut rec = Recorder::active();
            solve_traced(&inst, &c, &[], &mut rec).unwrap();
            let objectives: Vec<f64> = span_closes(&rec, "round")
                .map(|e| match field(e, "objective") {
                    Some(rex_obs::Value::F64(x)) => *x,
                    other => panic!("round objective {other:?}"),
                })
                .collect();
            assert_eq!(objectives.len() as u64, want, "fleet {f:?}");
            let run = span_closes(&rec, "decomposed").find_map(|e| field(e, "rounds_run"));
            assert!(
                matches!(run, Some(rex_obs::Value::U64(n)) if *n == want),
                "fleet {f:?}: rounds_run {run:?}"
            );
            let problem = SraProblem::new(&inst, c.objective);
            let mut best = LnsProblemInPlace::objective(&problem, &Assignment::from_initial(&inst));
            for (round, &val) in objectives.iter().enumerate() {
                let gain = best - val.min(best);
                best = best.min(val);
                if round + 1 < objectives.len() {
                    assert!(gain > ROUND_GAIN, "fleet {f:?} round {round}: {gain}");
                } else if want < ROUNDS {
                    assert!(gain <= ROUND_GAIN, "fleet {f:?} round {round}: {gain}");
                }
            }
        }
    }

    #[test]
    fn an_undeliverable_merge_never_becomes_the_best() {
        // At stringency 0.90 a round's merge need not plan from the initial
        // placement: this solve's ungated merged best used to deadlock the
        // final plan. The gate keeps such merges out of the best, so the
        // search's best plans on its own and the final plan is the gate's.
        let inst = synth(32, 3, 320, 0.90, 4);
        let c = SraConfig {
            iters: 400,
            seed: 4,
            partitions: 4,
            ..Default::default()
        };
        let problem = SraProblem::new(&inst, c.objective);
        let (best, _, _, _) =
            crate::sra::run_search(&problem, &c, c.seed, &mut Recorder::noop()).unwrap();
        rex_cluster::plan_migration(&inst, &inst.initial, best.placement(), &c.planner).unwrap();

        let mut rec = Recorder::active();
        let res = solve_traced(&inst, &c, &[], &mut rec).unwrap();
        let sra_events = |name| {
            rec.events()
                .iter()
                .filter(move |e| e.layer == "sra" && e.name == name)
        };
        assert_eq!(sra_events("fallback").count(), 0);
        let plan_close = sra_events("plan")
            .find(|e| matches!(e.kind, rex_obs::EventKind::SpanClose { .. }))
            .unwrap();
        assert!(plan_close
            .fields
            .iter()
            .any(|(k, v)| *k == "outcome" && matches!(v, rex_obs::Value::Str(o) if o == "ok")));
        assert_eq!(rec.open_spans(), 0);
        rex_cluster::verify_schedule(&inst, &inst.initial, res.assignment.placement(), &res.plan)
            .unwrap();
        assert!(res.final_report.peak <= res.initial_report.peak);
    }

    #[test]
    fn a_drained_solve_that_never_plans_is_a_deadlock() {
        // Two hot machines drain: the evacuation moves their 12 shards. A
        // planner whose budget is 8 moves plans neither that start nor any
        // round's result, so the decomposed search keeps its start and the
        // final plan's deadlock is the solve's error, as on the serial
        // path.
        let inst = fleet(4, 8, 4, 9);
        let drain = [MachineId(0), MachineId(1)];
        let planner = rex_cluster::PlannerConfig {
            max_batch_moves: 0,
            move_budget_factor: 0.0,
        };
        let problem = SraProblem::new(&inst, Objective::pure()).with_drain(&drain);
        let start = LnsProblemInPlace::objective(&problem, &starting_solution(&problem).unwrap());
        for partitions in [1, 2] {
            let c = SraConfig {
                planner,
                ..cfg(partitions)
            };
            let mut rec = Recorder::active();
            let res = solve_with_floor(&inst, &c, &drain, LEAF_MACHINES, &mut rec);
            assert!(
                matches!(res, Err(ClusterError::PlanningDeadlock { .. })),
                "partitions {partitions}: {:?}",
                res.map(|r| r.final_report.peak)
            );
            assert_eq!(rec.open_spans(), 0, "partitions {partitions}");
            let closes = |name| {
                rec.events()
                    .iter()
                    .filter(move |e| e.layer == "sra" && e.name == name)
                    .filter(|e| matches!(e.kind, rex_obs::EventKind::SpanClose { .. }))
            };
            if partitions == 1 {
                assert_eq!(closes("round").count(), 0);
                continue;
            }
            assert_eq!(closes("round").count(), ROUNDS as usize);
            let best =
                closes("decomposed")
                    .flat_map(|e| e.fields.iter())
                    .find_map(|(k, v)| match v {
                        rex_obs::Value::F64(x) if *k == "best_objective" => Some(*x),
                        _ => None,
                    });
            assert_eq!(
                best,
                Some(start),
                "a round that does not plan became the best"
            );
        }
    }

    proptest::proptest! {
        // A search that keeps ungated merges fails case 30 of these (its
        // final plan deadlocks); each case takes about 30 ms.
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// A decomposed solve always plans: through trees of any depth on
        /// small stringent fleets, every solve returns `Ok`, its schedule
        /// verifies, and its best is no worse than its start.
        #[test]
        fn a_decomposed_solve_always_plans(
            machines in 24usize..40,
            partitions in 2usize..=4,
            floor in 4usize..12,
            stringency in 0.85f64..0.92,
            seed in 0u64..50,
        ) {
            let inst = synth(machines, (machines / 8).max(1), machines * 8, stringency, seed);
            let c = SraConfig { iters: 400, seed, partitions, ..Default::default() };
            let res = solve_with_floor(&inst, &c, &[], floor, &mut Recorder::noop());
            proptest::prop_assert!(res.is_ok(), "{:?}", res.err());
            let res = res.unwrap();
            rex_cluster::verify_schedule(&inst, &inst.initial, res.assignment.placement(), &res.plan)
                .unwrap();
            let problem = SraProblem::new(&inst, c.objective);
            let start = LnsProblemInPlace::objective(&problem, &Assignment::from_initial(&inst));
            proptest::prop_assert!(
                LnsProblemInPlace::objective(&problem, &res.assignment) <= start,
                "best worse than the start"
            );
        }
    }

    #[test]
    fn traced_matches_untraced_and_balances_spans_at_every_depth() {
        for (inst, c, floor, depth) in [
            (fleet(4, 8, 4, 9), cfg(4), LEAF_MACHINES, 1),
            (fleet(6, 18, 8, 9), cfg(2), 12, 2),
        ] {
            let plain = solve_floored(&inst, &c, &[], floor);
            let mut rec = Recorder::active();
            let traced = solve_with_floor(&inst, &c, &[], floor, &mut rec).unwrap();
            assert_eq!(plain.objective_value, traced.objective_value);
            assert_eq!(plain.assignment.placement(), traced.assignment.placement());
            assert_eq!(plain.iterations, traced.iterations);
            assert_eq!(rec.open_spans(), 0);
            let narrated = |layer, name| {
                rec.events()
                    .iter()
                    .any(|e| e.layer == layer && e.name == name)
            };
            assert!(narrated("sra", "decomposed"));
            assert!(narrated("sra", "round"));
            assert!(
                narrated("lns", "partition"),
                "partition summaries must be narrated"
            );
            // Both spans report the depth the tree reached.
            for e in rec.events().iter().filter(|e| {
                e.layer == "sra"
                    && (e.name == "decomposed" || e.name == "round")
                    && e.kind == rex_obs::EventKind::SpanOpen
            }) {
                let reported = e.fields.iter().find(|(k, _)| *k == "depth");
                assert!(
                    matches!(reported, Some((_, rex_obs::Value::U64(d))) if *d == depth),
                    "{}: {reported:?}, want {depth}",
                    e.name
                );
            }
        }
    }
}
