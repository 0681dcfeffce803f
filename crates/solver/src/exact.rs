//! Exact branch-and-bound over shard placements.
//!
//! Exhaustive DFS with three accelerations that keep tiny instances (≤ ~14
//! shards × ~6 machines) tractable:
//!
//! * **bound pruning** — a node's completion can never beat
//!   `max(partial peak, fractional lower bound) + λ·cost-so-far`,
//! * **capacity-class symmetry breaking** — when a shard opens a fresh
//!   machine, only the first empty machine of each capacity class is tried
//!   (identical machines are interchangeable),
//! * **warm start** — the initial placement seeds the incumbent, so the
//!   search begins with a real bound instead of `∞`.
//!
//! Like the paper's IP, this optimizes the *target* placement; transient
//! schedulability is the migration planner's job.

use crate::bounds::{capacity_classes, peak_lower_bound};
use rex_cluster::{Assignment, ClusterError, Instance, MachineId, ResourceVec, ShardId};

/// Exact-solver knobs.
#[derive(Clone, Copy, Debug)]
pub struct ExactConfig {
    /// Node budget; the search returns the incumbent (not proven optimal)
    /// when exceeded.
    pub max_nodes: u64,
    /// Migration-cost weight (matching [`rex_cluster::Objective::lambda`]).
    pub lambda: f64,
}

impl Default for ExactConfig {
    fn default() -> Self {
        Self {
            max_nodes: 5_000_000,
            lambda: 0.0,
        }
    }
}

/// Result of an exact solve.
#[derive(Clone, Debug)]
pub struct ExactResult {
    /// Best placement found.
    pub placement: Vec<MachineId>,
    /// Its full objective value (`peak + λ·normalized cost`).
    pub objective: f64,
    /// Its peak load.
    pub peak: f64,
    /// Nodes explored.
    pub nodes: u64,
    /// True when the search ran to completion (the result is optimal).
    pub proven_optimal: bool,
}

struct Search<'a> {
    inst: &'a Instance,
    cfg: ExactConfig,
    order: Vec<ShardId>,
    classes: Vec<usize>,
    total_cost: f64,
    global_lb: f64,
    // Mutable search state.
    usage: Vec<ResourceVec>,
    counts: Vec<u32>,
    loads: Vec<f64>,
    occupied: usize,
    moved_cost: f64,
    placement: Vec<MachineId>,
    // Incumbent.
    best_placement: Vec<MachineId>,
    best_obj: f64,
    nodes: u64,
    truncated: bool,
}

/// Solves the instance exactly (within the node budget).
pub fn branch_and_bound(inst: &Instance, cfg: &ExactConfig) -> Result<ExactResult, ClusterError> {
    inst.validate()?;

    // Largest-first branching order.
    let mut order: Vec<ShardId> = (0..inst.n_shards()).map(ShardId::from).collect();
    order.sort_by(|&a, &b| {
        inst.demand(b)
            .norm()
            .partial_cmp(&inst.demand(a).norm())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    // Warm start from the initial placement.
    let initial = Assignment::from_initial(inst);
    let initial_obj = initial.peak_load(inst); // cost term is zero

    let mut search = Search {
        inst,
        cfg: *cfg,
        order,
        classes: capacity_classes(inst),
        total_cost: inst.shards.iter().map(|s| s.move_cost).sum(),
        global_lb: peak_lower_bound(inst),
        usage: vec![ResourceVec::zero(inst.dims); inst.n_machines()],
        counts: vec![0; inst.n_machines()],
        loads: vec![0.0; inst.n_machines()],
        occupied: 0,
        moved_cost: 0.0,
        placement: vec![MachineId(0); inst.n_shards()],
        best_placement: inst.initial.clone(),
        best_obj: initial_obj,
        nodes: 0,
        truncated: false,
    };
    search.dfs(0, 0.0);

    let best = Assignment::from_placement(inst, search.best_placement.clone())?;
    Ok(ExactResult {
        peak: best.peak_load(inst),
        objective: search.best_obj,
        placement: search.best_placement,
        nodes: search.nodes,
        proven_optimal: !search.truncated,
    })
}

impl Search<'_> {
    fn dfs(&mut self, depth: usize, partial_peak: f64) {
        self.nodes += 1;
        if self.nodes > self.cfg.max_nodes {
            self.truncated = true;
            return;
        }

        if depth == self.order.len() {
            let obj = partial_peak + self.cost_term(self.moved_cost);
            if obj < self.best_obj - 1e-12 {
                self.best_obj = obj;
                self.best_placement = self.placement.clone();
            }
            return;
        }

        // Bound: the completion's peak is at least the larger of the
        // current partial peak and the fractional bound, and its cost term
        // at least the cost already incurred.
        let lb = partial_peak.max(self.global_lb) + self.cost_term(self.moved_cost);
        if lb >= self.best_obj - 1e-12 {
            return;
        }

        let s = self.order[depth];
        let demand = *self.inst.demand(s);
        let m_n = self.inst.n_machines();
        let max_occupied = m_n - self.inst.k_return;

        // Candidate machines, cheapest resulting load first (finds strong
        // incumbents early). Symmetry: only the first empty machine per
        // capacity class.
        let mut cands: Vec<(f64, usize)> = Vec::with_capacity(m_n);
        let mut seen_empty_class = [false; 64];
        for m in 0..m_n {
            let cap = &self.inst.machines[m].capacity;
            if !self.usage[m].fits_after_add(&demand, cap) {
                continue;
            }
            if self.counts[m] == 0 {
                if self.occupied + 1 > max_occupied {
                    continue; // would leave too few vacancies
                }
                let class = self.classes[m].min(63);
                if seen_empty_class[class] {
                    continue; // interchangeable with an earlier empty machine
                }
                seen_empty_class[class] = true;
            }
            let mut u = self.usage[m];
            u += &demand;
            cands.push((u.max_ratio(cap), m));
        }
        cands.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

        for (load_after, m) in cands {
            if self.truncated {
                return;
            }
            let new_peak = partial_peak.max(load_after);
            let moved = MachineId::from(m) != self.inst.initial[s.idx()];
            let add_cost = if moved {
                self.inst.shards[s.idx()].move_cost
            } else {
                0.0
            };
            // Child bound before descending.
            if new_peak.max(self.global_lb) + self.cost_term(self.moved_cost + add_cost)
                >= self.best_obj - 1e-12
            {
                continue;
            }

            // Apply.
            let old_load = self.loads[m];
            self.usage[m] += &demand;
            self.loads[m] = load_after;
            self.counts[m] += 1;
            if self.counts[m] == 1 {
                self.occupied += 1;
            }
            self.moved_cost += add_cost;
            self.placement[s.idx()] = MachineId::from(m);

            self.dfs(depth + 1, new_peak);

            // Undo.
            self.usage[m].saturating_sub_assign(&demand);
            self.loads[m] = old_load;
            self.counts[m] -= 1;
            if self.counts[m] == 0 {
                self.occupied -= 1;
            }
            self.moved_cost -= add_cost;
        }
    }

    #[inline]
    fn cost_term(&self, moved_cost: f64) -> f64 {
        if self.cfg.lambda > 0.0 && self.total_cost > 0.0 {
            self.cfg.lambda * moved_cost / self.total_cost
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_cluster::InstanceBuilder;

    fn simple(shards: &[f64], caps: &[f64], k_return: usize) -> Instance {
        // Places shards greedily for a feasible initial placement.
        let mut b = InstanceBuilder::new(1).k_return(k_return);
        let machines: Vec<MachineId> = caps.iter().map(|&c| b.machine(&[c])).collect();
        let mut usage = vec![0.0; caps.len()];
        for &d in shards {
            let host = (0..caps.len())
                .find(|&m| usage[m] + d <= caps[m])
                .expect("test shards must fit greedily");
            usage[host] += d;
            b.shard(&[d], 1.0, machines[host]);
        }
        b.build().unwrap()
    }

    #[test]
    fn finds_known_optimum() {
        // {4,3,3,2} over two 10-machines: optimal peak 0.6 (6|6).
        let inst = simple(&[4.0, 3.0, 3.0, 2.0], &[10.0, 10.0], 0);
        let r = branch_and_bound(&inst, &ExactConfig::default()).unwrap();
        assert!(r.proven_optimal);
        assert!((r.peak - 0.6).abs() < 1e-9, "peak={}", r.peak);
    }

    #[test]
    fn respects_vacancy_quota() {
        // Three machines but one must end vacant: optimum packs onto two.
        let inst = simple(&[4.0, 4.0, 4.0], &[10.0, 10.0, 10.0], 1);
        let r = branch_and_bound(&inst, &ExactConfig::default()).unwrap();
        assert!(r.proven_optimal);
        let asg = Assignment::from_placement(&inst, r.placement.clone()).unwrap();
        assert!(asg.vacant_count() >= 1);
        assert!(
            (r.peak - 0.8).abs() < 1e-9,
            "8|4|vacant → peak 0.8, got {}",
            r.peak
        );
    }

    #[test]
    fn matches_brute_force_on_random_tiny_instances() {
        use rand::prelude::*;
        for seed in 0..12u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n_m = rng.random_range(2..4);
            let n_s = rng.random_range(2..7);
            let caps: Vec<f64> = (0..n_m).map(|_| rng.random_range(8.0..14.0)).collect();
            let shards: Vec<f64> = (0..n_s).map(|_| rng.random_range(0.5..3.5)).collect();
            let inst = simple(&shards, &caps, 0);

            let r = branch_and_bound(&inst, &ExactConfig::default()).unwrap();
            assert!(r.proven_optimal);

            // Brute force over all machine^shard placements.
            let mut best = f64::INFINITY;
            let total = (n_m as u64).pow(n_s as u32);
            for code in 0..total {
                let mut c = code;
                let mut usage = vec![0.0; n_m];
                let mut ok = true;
                #[allow(clippy::needless_range_loop)] // s indexes two arrays
                for s in 0..n_s {
                    let m = (c % n_m as u64) as usize;
                    c /= n_m as u64;
                    usage[m] += shards[s];
                    if usage[m] > caps[m] + 1e-9 {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    let peak = usage
                        .iter()
                        .zip(&caps)
                        .map(|(u, c)| u / c)
                        .fold(0.0f64, f64::max);
                    best = best.min(peak);
                }
            }
            assert!(
                (r.peak - best).abs() < 1e-9,
                "seed {seed}: b&b {} vs brute {best}",
                r.peak
            );
        }
    }

    #[test]
    fn symmetry_breaking_keeps_node_count_sane() {
        // 8 identical machines, 8 identical shards: without symmetry
        // breaking this explodes; with it the count stays small.
        let inst = simple(&[1.0; 8], &[10.0; 8], 0);
        let r = branch_and_bound(&inst, &ExactConfig::default()).unwrap();
        assert!(r.proven_optimal);
        assert!((r.peak - 0.1).abs() < 1e-9);
        assert!(r.nodes < 200_000, "nodes = {}", r.nodes);
    }

    #[test]
    fn lambda_tradeoff() {
        // Rebalancing helps peak but costs moves; with a huge λ the
        // optimum is the initial placement.
        let inst = simple(&[4.0, 4.0], &[10.0, 10.0], 0);
        // Initial: both on m0 (greedy) → peak 0.8. Optimum λ=0: 0.4.
        let free = branch_and_bound(&inst, &ExactConfig::default()).unwrap();
        assert!((free.peak - 0.4).abs() < 1e-9);
        let taxed = branch_and_bound(
            &inst,
            &ExactConfig {
                lambda: 100.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(taxed.placement, inst.initial);
        assert!((taxed.peak - 0.8).abs() < 1e-9);
    }

    #[test]
    fn node_budget_truncates_gracefully() {
        let inst = simple(&[1.0; 10], &[10.0; 4], 0);
        let r = branch_and_bound(
            &inst,
            &ExactConfig {
                max_nodes: 10,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!r.proven_optimal);
        // Still returns a feasible placement (the warm start at worst).
        let asg = Assignment::from_placement(&inst, r.placement).unwrap();
        assert!(asg.is_capacity_feasible(&inst));
    }

    #[test]
    fn never_worse_than_initial() {
        let inst = simple(&[3.0, 2.0, 2.0, 1.0], &[6.0, 6.0, 6.0], 1);
        let initial_peak = Assignment::from_initial(&inst).peak_load(&inst);
        let r = branch_and_bound(&inst, &ExactConfig::default()).unwrap();
        assert!(r.objective <= initial_peak + 1e-12);
    }
}
