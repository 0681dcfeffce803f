//! Greedy load-aware fleet partitioning for the decomposed solver.
//!
//! The cooperative solver splits the cluster into `k` near-independent
//! machine neighborhoods and runs one LNS worker per neighborhood. The
//! split is over the shard→machine bipartite graph induced by the current
//! placement: every machine lands in exactly one partition, and every
//! shard follows the machine currently hosting it — so partitions are
//! disjoint in both machines *and* shards, and per-partition solutions
//! splice back together without conflicts.
//!
//! The heuristic is longest-processing-time style: machines in descending
//! load order, each placed into the partition with the least total load so
//! far, ties broken by machine count then partition index. Heavy machines
//! spread first (every worker gets hot spots to fix), and the count
//! tie-break deals the tail of vacant machines round-robin instead of
//! piling all spare capacity into one neighborhood. Sizes are capped: of
//! `n` machines in `k` partitions, every partition gets `⌊n/k⌋` or
//! `⌈n/k⌉`, so one heavy machine never ends up a partition of its own
//! while another partition takes the rest.

use crate::instance::Instance;
use crate::machine::MachineId;
use crate::shard::ShardId;

/// One machine neighborhood produced by [`partition_fleet`].
#[derive(Clone, Debug)]
pub struct PartitionSpec {
    /// Machines of this partition, ascending by id.
    pub machines: Vec<MachineId>,
    /// Shards currently placed on those machines, ascending by id.
    pub shards: Vec<ShardId>,
    /// Share of the global `k_return` vacancy quota this partition must
    /// preserve. Always satisfiable: at most the partition's own count of
    /// non-drained vacant machines, and the shares sum to the global quota
    /// whenever the input placement itself satisfies it.
    pub vacancy_quota: usize,
}

/// Partitions the fleet into `k` neighborhoods (see module docs).
///
/// `placement[s]` is the current machine of shard `s` (no detached
/// shards), `loads[m]` the current normalized load of machine `m`, and
/// `drained` lists machines whose vacancies are reserved for a
/// decommission and therefore never count toward `k_return` shares.
///
/// `k` is clamped to the machine count; the result always contains
/// `min(k, n_machines)` partitions, every machine in exactly one, each
/// holding `⌊n/k⌋` or `⌈n/k⌉` of the `n` machines.
pub fn partition_fleet(
    inst: &Instance,
    placement: &[MachineId],
    loads: &[f64],
    k: usize,
    k_return: usize,
    drained: &[MachineId],
) -> Vec<PartitionSpec> {
    assert_eq!(placement.len(), inst.n_shards(), "one machine per shard");
    let machines: Vec<MachineId> = (0..inst.n_machines()).map(MachineId::from).collect();
    let shards: Vec<ShardId> = (0..inst.n_shards()).map(ShardId::from).collect();
    partition_subfleet(
        inst, placement, loads, &machines, &shards, k, k_return, drained,
    )
}

/// [`partition_fleet`] generalized to a *subset* of the fleet — the
/// recursion step of the hierarchical (POP-style) decomposition.
///
/// `machines` and `shards` describe one node of the partition tree (every
/// listed shard is placed on a listed machine); `quota` is that node's
/// vacancy-quota share, which is **conserved**: the children's
/// `vacancy_quota`s always sum to `quota`, each capped by the child's own
/// count of undrained vacancies — exactly the invariant `partition_fleet`
/// maintains for the whole fleet. `loads` stays indexed by *global*
/// machine id; machine and shard ids in the output are global too, in the
/// same relative order as the input slices.
#[allow(clippy::too_many_arguments)] // mirrors partition_fleet plus the subset
pub fn partition_subfleet(
    inst: &Instance,
    placement: &[MachineId],
    loads: &[f64],
    machines: &[MachineId],
    shards: &[ShardId],
    k: usize,
    quota: usize,
    drained: &[MachineId],
) -> Vec<PartitionSpec> {
    let n = inst.n_machines();
    assert!(k >= 1, "need at least one partition");
    assert_eq!(loads.len(), n, "one load per machine");
    let k = k.min(machines.len());

    // LPT assignment: heaviest machines first, into the lightest partition.
    let mut order: Vec<u32> = machines.iter().map(|m| m.idx() as u32).collect();
    order.sort_by(|&a, &b| {
        loads[b as usize]
            .partial_cmp(&loads[a as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut part_of = vec![u32::MAX; n];
    let mut totals = vec![0.0f64; k];
    let mut counts = vec![0usize; k];
    // Size caps: every partition takes `small` machines, and `big_left` of
    // them one more. While machines remain, some partition is open (below
    // `small`, or at `small` while `big_left > 0`), so `best` gets set.
    let small = machines.len() / k;
    let mut big_left = machines.len() % k;
    for &mi in &order {
        // Loaded machines go to the lightest open partition (LPT);
        // zero-load machines add nothing to any total, so they are dealt by
        // machine count instead — otherwise the whole vacant tail would
        // pile into whichever partition happened to end lightest.
        let by_load = loads[mi as usize] > 0.0;
        let mut best = usize::MAX;
        for p in 0..k {
            if counts[p] > small || (counts[p] == small && big_left == 0) {
                continue;
            }
            let better = best == usize::MAX
                || if by_load {
                    (totals[p], counts[p]) < (totals[best], counts[best])
                } else {
                    (counts[p], totals[p]) < (counts[best], totals[best])
                };
            if better {
                best = p;
            }
        }
        part_of[mi as usize] = best as u32;
        totals[best] += loads[mi as usize];
        counts[best] += 1;
        if counts[best] > small {
            big_left -= 1;
        }
    }

    let mut parts: Vec<PartitionSpec> = (0..k)
        .map(|_| PartitionSpec {
            machines: Vec::new(),
            shards: Vec::new(),
            vacancy_quota: 0,
        })
        .collect();
    for &m in machines {
        parts[part_of[m.idx()] as usize].machines.push(m);
    }
    for &s in shards {
        let m = placement[s.idx()];
        debug_assert_ne!(part_of[m.idx()], u32::MAX, "shard hosted outside node");
        parts[part_of[m.idx()] as usize].shards.push(s);
    }

    // Distribute the node's quota over partitions, never promising a
    // partition more vacancies than it currently has (minus any drained
    // machines, whose vacancies are spoken for).
    let mut occupied = vec![false; n];
    for &s in shards {
        occupied[placement[s.idx()].idx()] = true;
    }
    let mut eligible = vec![0usize; k];
    for &m in machines {
        if !occupied[m.idx()] && !drained.contains(&m) {
            eligible[part_of[m.idx()] as usize] += 1;
        }
    }
    let mut remaining = quota;
    for (p, part) in parts.iter_mut().enumerate() {
        let q = remaining.min(eligible[p]);
        part.vacancy_quota = q;
        remaining -= q;
    }
    debug_assert_eq!(
        remaining, 0,
        "the node satisfies its quota, so the shares must cover it"
    );
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;

    /// `n` machines, one shard of demand `i+1` on machine `i` for the first
    /// `loaded` machines; the rest vacant. One exchange machine at the end.
    fn fleet(loaded: usize, n: usize) -> Instance {
        let mut b = InstanceBuilder::new(1).label("part").k_return(1);
        let ms: Vec<MachineId> = (0..n).map(|_| b.machine(&[100.0])).collect();
        for (i, &m) in ms.iter().enumerate().take(loaded) {
            b.shard(&[(i + 1) as f64], 1.0, m);
        }
        b.build().unwrap()
    }

    fn split(inst: &Instance, k: usize) -> Vec<PartitionSpec> {
        let asg = crate::assignment::Assignment::from_initial(inst);
        let loads = asg.loads(inst);
        partition_fleet(inst, &inst.initial, &loads, k, inst.k_return, &[])
    }

    #[test]
    fn every_machine_exactly_once() {
        let inst = fleet(6, 10);
        let parts = split(&inst, 3);
        let mut seen = vec![0usize; inst.n_machines()];
        for p in &parts {
            for m in &p.machines {
                seen[m.idx()] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn every_shard_follows_its_machine() {
        let inst = fleet(6, 10);
        let parts = split(&inst, 3);
        let mut seen = vec![0usize; inst.n_shards()];
        for p in &parts {
            for s in &p.shards {
                seen[s.idx()] += 1;
                assert!(p.machines.contains(&inst.initial[s.idx()]));
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn quota_sums_to_k_return_and_fits_vacancies() {
        let inst = fleet(5, 12); // 7 vacant machines, k_return = 1
        for k in 1..=6 {
            let parts = split(&inst, k);
            let total: usize = parts.iter().map(|p| p.vacancy_quota).sum();
            assert_eq!(total, inst.k_return);
            for p in &parts {
                let vacant = p
                    .machines
                    .iter()
                    .filter(|m| !inst.initial.contains(m))
                    .count();
                assert!(p.vacancy_quota <= vacant);
            }
        }
    }

    #[test]
    fn vacant_machines_spread_across_partitions() {
        let inst = fleet(4, 12); // 8 vacant machines
        let parts = split(&inst, 4);
        for p in &parts {
            assert_eq!(p.machines.len(), 3, "count tie-break deals evenly");
        }
    }

    #[test]
    fn k_larger_than_fleet_is_clamped() {
        let inst = fleet(2, 3);
        let parts = split(&inst, 10);
        assert_eq!(parts.len(), 3);
        let total: usize = parts.iter().map(|p| p.machines.len()).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn partitioning_is_deterministic() {
        let inst = fleet(7, 16);
        let a = split(&inst, 4);
        let b = split(&inst, 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.machines, y.machines);
            assert_eq!(x.shards, y.shards);
            assert_eq!(x.vacancy_quota, y.vacancy_quota);
        }
    }

    #[test]
    fn drained_vacancies_do_not_back_the_quota() {
        let inst = fleet(5, 8); // 3 vacant, k_return = 1
        let asg = crate::assignment::Assignment::from_initial(&inst);
        let loads = asg.loads(&inst);
        // Drain two of the three vacant machines; the quota must land on
        // partitions that still have an undrained vacancy.
        let drains = [MachineId(5), MachineId(6)];
        let parts = partition_fleet(&inst, &inst.initial, &loads, 3, 1, &drains);
        let total: usize = parts.iter().map(|p| p.vacancy_quota).sum();
        assert_eq!(total, 1);
        for p in &parts {
            let undrained_vacant = p
                .machines
                .iter()
                .filter(|m| !inst.initial.contains(m) && !drains.contains(m))
                .count();
            assert!(p.vacancy_quota <= undrained_vacant);
        }
    }
}
