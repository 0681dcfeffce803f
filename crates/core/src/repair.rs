//! Repair operators: re-insert detached shards.
//!
//! All repairs share the same hard rules, enforced through
//! [`SraProblem::insertion_score`] and the vacancy budget:
//!
//! * never overload a machine,
//! * never occupy a vacant machine when doing so would leave fewer than
//!   `k_return` vacancies (the exchange compensation would become
//!   impossible),
//! * a repair that cannot place every detached shard reports failure and
//!   the iteration is discarded.
//!
//! All operators implement the in-place edit protocol: they take the
//! state's `removed` buffer, attach through `SraState::attach` (undo-logged,
//! caches updated), and hand the buffer back — on failure with the unplaced
//! tail still listed, so the engine's revert sees a consistent state.

use crate::problem::SraProblem;
use crate::state::{RegretEntry, SraState, REGRET_ABSENT, REGRET_UNKNOWN};
use rand::rngs::StdRng;
use rand::RngExt;
use rex_cluster::{Assignment, MachineId, ShardId};
use rex_lns::RepairInPlace;

/// Shared insertion state: tracks how many vacancies may still be consumed.
struct InsertCtx {
    vacancy_budget: usize,
}

impl InsertCtx {
    /// Builds the context from the state's cached vacancy budget.
    fn with_budget(vacancy_budget: usize) -> Self {
        Self { vacancy_budget }
    }

    /// Whether machine `m` may receive a shard right now.
    fn allowed(&self, asg: &Assignment, m: MachineId) -> bool {
        !asg.is_vacant(m) || self.vacancy_budget > 0
    }

    /// Registers that a shard was placed on `m` (must be called *before*
    /// the attach mutates vacancy state).
    fn consume(&mut self, asg: &Assignment, m: MachineId) {
        if asg.is_vacant(m) {
            self.vacancy_budget -= 1;
        }
    }
}

/// Sorts detached shards by decreasing demand norm (hardest first), using
/// the state's cached norms (the norm is a pure function of the static
/// demand).
fn sort_big_first_cached(state: &SraState, removed: &mut [ShardId]) {
    let norms = &state.demand_norm;
    removed.sort_by(|&a, &b| {
        norms[b.idx()]
            .partial_cmp(&norms[a.idx()])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
}

/// Lower bound on `insertion_score(s, m)` for every admissible pair, from
/// cached quantities only: the machine's load now, plus the least the
/// shard can add to it (`SraState::delta`, where the rounding argument
/// lives), plus the migration penalty off the initial machine. Both
/// additions are rounded and monotone, so along the load-sorted scan order
/// the bound never decreases — once it reaches the slot a scan is trying to
/// beat, neither this machine nor any later one can displace that slot.
#[inline]
fn score_bound(p: &SraProblem<'_>, state: &SraState, s: ShardId, m: MachineId) -> f64 {
    let pen = if m == p.inst.initial[s.idx()] {
        0.0
    } else {
        state.pen[s.idx()]
    };
    state.loads[m.idx()] + state.delta[s.idx()] + pen
}

#[cfg(test)]
thread_local! {
    /// Number of `insertion_score` evaluations the repairs made on this
    /// thread (tests assert the pruning's work, not its time).
    static SCORE_VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// `insertion_score` as the repair scans call it: every evaluation is
/// checked against [`score_bound`] in debug builds.
#[inline]
fn scored(p: &SraProblem<'_>, state: &SraState, s: ShardId, m: MachineId) -> Option<f64> {
    #[cfg(test)]
    SCORE_VISITS.with(|v| v.set(v.get() + 1));
    let score = p.insertion_score(&state.asg, s, m)?;
    debug_assert!(
        score_bound(p, state, s, m) <= score,
        "inadmissible bound for {s} on {m}: {} > {score}",
        score_bound(p, state, s, m)
    );
    Some(score)
}

/// Greedy best-fit: inserts shards, largest first, each on the machine with
/// the lowest insertion score.
#[derive(Clone, Copy, Debug)]
pub struct GreedyBestFit;

impl RepairInPlace<SraProblem<'_>> for GreedyBestFit {
    fn name(&self) -> &str {
        "greedy-best-fit"
    }

    fn repair(&self, p: &SraProblem<'_>, state: &mut SraState, _rng: &mut StdRng) -> bool {
        let mut removed = std::mem::take(&mut state.removed);
        sort_big_first_cached(state, &mut removed);
        state.refresh_order();
        let mut ctx = InsertCtx::with_budget(state.vacancy_budget());
        for (idx, &s) in removed.iter().enumerate() {
            let Some((m, _)) = best_machine_cached(p, state, &ctx, s) else {
                removed.drain(..idx);
                state.removed = removed;
                return false;
            };
            place(p, state, &mut ctx, s, m);
        }
        removed.clear();
        state.removed = removed;
        true
    }
}

/// Places detached shard `s` on `m`: charges the vacancy budget, attaches,
/// and moves `m` to its new place in the scan order.
fn place(p: &SraProblem<'_>, state: &mut SraState, ctx: &mut InsertCtx, s: ShardId, m: MachineId) {
    ctx.consume(&state.asg, m);
    let before = state.loads[m.idx()];
    state.attach(p, s, m);
    state.reposition(m, before);
}

/// Best feasible machine for `s` under the insertion score, driven by the
/// load-sorted scan order with an early break: once [`score_bound`]
/// reaches the running best, every later machine in load order is beaten
/// too. The shard's initial machine is visited first — it is the only one
/// whose penalty is zero. Selection is deterministic: ties resolve to the
/// earliest machine in scan order.
fn best_machine_cached(
    p: &SraProblem<'_>,
    state: &SraState,
    ctx: &InsertCtx,
    s: ShardId,
) -> Option<(MachineId, f64)> {
    let init_m = p.inst.initial[s.idx()];
    let mut best: Option<(MachineId, f64)> = None;
    if ctx.allowed(&state.asg, init_m) {
        if let Some(score) = scored(p, state, s, init_m) {
            best = Some((init_m, score));
        }
    }
    for &raw in &state.order {
        let m = MachineId::from(raw as usize);
        if m == init_m {
            continue;
        }
        if let Some((_, b)) = best {
            if score_bound(p, state, s, m) >= b {
                break; // later machines have equal or larger loads
            }
        }
        if !ctx.allowed(&state.asg, m) {
            continue;
        }
        if let Some(score) = scored(p, state, s, m) {
            let better = match best {
                None => true,
                Some((_, b)) => score < b,
            };
            if better {
                best = Some((m, score));
            }
        }
    }
    best
}

/// Top-3 scan for one shard over the load-sorted order (initial machine
/// first), breaking once [`score_bound`] reaches the running third
/// slot — so every machine left unvisited (or visited but outscored)
/// provably scores at least the final `s[2]`, which is the invariant the
/// cascade update relies on. `None` means no feasible machine (the repair
/// must fail).
fn scan_regret(
    p: &SraProblem<'_>,
    state: &SraState,
    ctx: &InsertCtx,
    s: ShardId,
) -> Option<RegretEntry> {
    let mut e = RegretEntry {
        m: [REGRET_ABSENT; 3],
        s: [f64::INFINITY; 3],
    };
    let init_m = p.inst.initial[s.idx()];
    let consider = |m: MachineId, e: &mut RegretEntry| {
        if !ctx.allowed(&state.asg, m) {
            return;
        }
        if let Some(score) = scored(p, state, s, m) {
            let raw = m.idx() as u32;
            if score < e.s[0] {
                (e.m[2], e.s[2]) = (e.m[1], e.s[1]);
                (e.m[1], e.s[1]) = (e.m[0], e.s[0]);
                (e.m[0], e.s[0]) = (raw, score);
            } else if score < e.s[1] {
                (e.m[2], e.s[2]) = (e.m[1], e.s[1]);
                (e.m[1], e.s[1]) = (raw, score);
            } else if score < e.s[2] {
                (e.m[2], e.s[2]) = (raw, score);
            }
        }
    };
    consider(init_m, &mut e);
    for &raw in &state.order {
        let m = MachineId::from(raw as usize);
        if m == init_m {
            continue;
        }
        if score_bound(p, state, s, m) >= e.s[2] {
            break; // cannot displace any slot, nor can any later machine
        }
        consider(m, &mut e);
    }
    if e.m[0] == REGRET_ABSENT {
        None
    } else {
        Some(e)
    }
}

/// Rebuilds a regret entry after machine `m` — occupying slot `k` — grew,
/// without rescanning: the surviving slots keep exact values (their
/// machines' usage is untouched), `m` is re-scored once, and the old
/// `s[2]` remains a lower bound on every machine outside the old entry.
/// Slots stay exact while their value does not exceed that bound; a third
/// slot that would, degrades to [`REGRET_UNKNOWN`] carrying the bound.
/// Returns `None` when the exact best/second-best can no longer be derived
/// locally and a full rescan is required.
fn cascade(
    p: &SraProblem<'_>,
    state: &SraState,
    s: ShardId,
    e: &RegretEntry,
    k: usize,
    m: MachineId,
) -> Option<RegretEntry> {
    let bound = e.s[2];
    let mut cand_m = [0u32; 4];
    let mut cand_s = [0.0f64; 4];
    let mut n = 0usize;
    for j in 0..3 {
        if j != k && e.m[j] != REGRET_ABSENT && e.m[j] != REGRET_UNKNOWN {
            cand_m[n] = e.m[j];
            cand_s[n] = e.s[j];
            n += 1;
        }
    }
    // Re-score `m` (it just received a shard, so it is non-vacant and
    // always allowed) and insert it after any value-equal survivors, so
    // ties resolve deterministically toward the established slots.
    if let Some(ns) = p.insertion_score(&state.asg, s, m) {
        let mut pos = n;
        while pos > 0 && ns < cand_s[pos - 1] {
            pos -= 1;
        }
        for j in (pos..n).rev() {
            cand_m[j + 1] = cand_m[j];
            cand_s[j + 1] = cand_s[j];
        }
        cand_m[pos] = m.idx() as u32;
        cand_s[pos] = ns;
        n += 1;
    }
    if bound.is_infinite() {
        // The original scan never broke early, so the candidates are the
        // complete feasible set and missing slots are exact ABSENTs.
        if n == 0 {
            return None; // nothing feasible left; the rescan confirms & fails
        }
        let mut ne = RegretEntry {
            m: [REGRET_ABSENT; 3],
            s: [f64::INFINITY; 3],
        };
        for j in 0..n.min(3) {
            (ne.m[j], ne.s[j]) = (cand_m[j], cand_s[j]);
        }
        return Some(ne);
    }
    if n < 2 || cand_s[1] > bound {
        return None; // top-2 not provably exact any more
    }
    let third_exact = n >= 3 && cand_s[2] <= bound;
    Some(RegretEntry {
        m: [
            cand_m[0],
            cand_m[1],
            if third_exact {
                cand_m[2]
            } else {
                REGRET_UNKNOWN
            },
        ],
        s: [
            cand_s[0],
            cand_s[1],
            if third_exact { cand_s[2] } else { bound },
        ],
    })
}

/// Regret-2 insertion: repeatedly inserts the shard that would lose the
/// most by *not* getting its best machine (difference between its best and
/// second-best scores). Shards with a single feasible machine have infinite
/// regret and go first.
#[derive(Clone, Copy, Debug)]
pub struct Regret2Insert;

impl RepairInPlace<SraProblem<'_>> for Regret2Insert {
    fn name(&self) -> &str {
        "regret-2"
    }

    /// Incremental regret loop: an attach on machine `m` only changes
    /// scores *on* `m` (and only for the worse — usage grows
    /// monotonically), so a shard whose cached best and second-best live
    /// elsewhere keeps a bit-identical entry and is not rescanned. The
    /// per-round cost drops from `O(removed · machines)` to a handful of
    /// rescans, except when the vacancy budget reaches zero — that flips
    /// the allowed-set for every vacant machine, so everything is rescanned
    /// once.
    fn repair(&self, p: &SraProblem<'_>, state: &mut SraState, _rng: &mut StdRng) -> bool {
        let mut removed = std::mem::take(&mut state.removed);
        let mut entries = std::mem::take(&mut state.regret);
        state.refresh_order();
        let mut ctx = InsertCtx::with_budget(state.vacancy_budget());
        entries.clear();
        for &s in &removed {
            let Some(e) = scan_regret(p, state, &ctx, s) else {
                state.removed = removed;
                state.regret = entries;
                return false;
            };
            entries.push(e);
        }
        while !removed.is_empty() {
            let mut pick = 0usize;
            let mut best_regret = f64::NEG_INFINITY;
            for (idx, e) in entries.iter().enumerate() {
                let regret = e.s[1] - e.s[0]; // INFINITY - finite = INFINITY
                if idx == 0 || regret > best_regret {
                    pick = idx;
                    best_regret = regret;
                }
            }
            let m = MachineId::from(entries[pick].m[0] as usize);
            let s = removed.swap_remove(pick);
            entries.swap_remove(pick);
            let was_vacant = state.asg.is_vacant(m);
            place(p, state, &mut ctx, s, m);
            let rescan_all = was_vacant && ctx.vacancy_budget == 0;
            let m_raw = m.idx() as u32;
            for i in 0..removed.len() {
                if !rescan_all {
                    let e = entries[i];
                    let Some(k) = e.m.iter().position(|&x| x == m_raw) else {
                        continue; // scores elsewhere are untouched
                    };
                    if let Some(ne) = cascade(p, state, removed[i], &e, k, m) {
                        entries[i] = ne;
                        continue;
                    }
                }
                let Some(e) = scan_regret(p, state, &ctx, removed[i]) else {
                    state.removed = removed;
                    state.regret = entries;
                    return false;
                };
                entries[i] = e;
            }
        }
        entries.clear();
        state.removed = removed;
        state.regret = entries;
        true
    }
}

/// Randomized greedy: like best-fit but each shard samples `sample`
/// candidate machines and takes the best of the sample. Adds the
/// diversification pure best-fit lacks, at a fraction of its cost on large
/// fleets.
#[derive(Clone, Copy, Debug)]
pub struct RandomizedGreedy {
    /// Number of machines sampled per shard.
    pub sample: usize,
}

impl RepairInPlace<SraProblem<'_>> for RandomizedGreedy {
    fn name(&self) -> &str {
        "randomized-greedy"
    }

    fn repair(&self, p: &SraProblem<'_>, state: &mut SraState, rng: &mut StdRng) -> bool {
        let mut removed = std::mem::take(&mut state.removed);
        sort_big_first_cached(state, &mut removed);
        state.refresh_order();
        let mut ctx = InsertCtx::with_budget(state.vacancy_budget());
        let n = p.inst.n_machines();
        for (idx, &s) in removed.iter().enumerate() {
            let mut best: Option<(MachineId, f64)> = None;
            for _ in 0..self.sample.max(1) {
                let m = MachineId::from(rng.random_range(0..n));
                if !ctx.allowed(&state.asg, m) {
                    continue;
                }
                if let Some((_, b)) = best {
                    if score_bound(p, state, s, m) >= b {
                        continue; // cannot beat the sample's incumbent
                    }
                }
                if let Some(score) = scored(p, state, s, m) {
                    if best.is_none_or(|(_, b)| score < b) {
                        best = Some((m, score));
                    }
                }
            }
            // Fall back to the full scan when sampling found nothing — the
            // shard may genuinely have only a few feasible hosts.
            let found = match best {
                Some(x) => Some(x),
                None => best_machine_cached(p, state, &ctx, s),
            };
            let Some((m, _)) = found else {
                removed.drain(..idx);
                state.removed = removed;
                return false;
            };
            place(p, state, &mut ctx, s, m);
        }
        removed.clear();
        state.removed = removed;
        true
    }
}

/// The full default repair portfolio used by SRA.
pub fn default_repairs_in_place<'a>() -> Vec<Box<dyn RepairInPlace<SraProblem<'a>>>> {
    vec![
        Box::new(GreedyBestFit),
        Box::new(Regret2Insert),
        Box::new(RandomizedGreedy { sample: 8 }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rex_cluster::{Instance, InstanceBuilder, Objective, ObjectiveKind};
    use rex_lns::{LnsProblem, LnsProblemInPlace};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    fn inst() -> Instance {
        let mut b = InstanceBuilder::new(1).label("r");
        let m0 = b.machine(&[10.0]);
        let m1 = b.machine(&[10.0]);
        let _x = b.exchange_machine(&[10.0]);
        b.shard(&[6.0], 1.0, m0);
        b.shard(&[3.0], 1.0, m0);
        b.shard(&[2.0], 1.0, m1);
        b.build().unwrap()
    }

    fn detach_all_state(p: &SraProblem<'_>) -> SraState {
        let mut state = p.make_state(Assignment::from_initial(p.inst));
        for i in 0..p.inst.n_shards() {
            state.detach(p, ShardId::from(i));
        }
        state
    }

    #[test]
    fn greedy_best_fit_balances() {
        let inst = inst();
        let p = SraProblem::new(&inst, Objective::pure(ObjectiveKind::PeakLoad));
        let mut state = detach_all_state(&p);
        assert!(RepairInPlace::repair(
            &GreedyBestFit,
            &p,
            &mut state,
            &mut rng()
        ));
        let sol = state.solution();
        assert!(LnsProblem::is_feasible(&p, sol));
        // Greedy LPT on {6,3,2} over two usable machines (one must stay
        // vacant): 6 | 3+2 → peak 0.6.
        assert!(
            (sol.peak_load(&inst) - 0.6).abs() < 1e-9,
            "peak={}",
            sol.peak_load(&inst)
        );
    }

    #[test]
    fn repairs_respect_vacancy_quota() {
        let inst = inst(); // k_return = 1
        let p = SraProblem::new(&inst, Objective::pure(ObjectiveKind::PeakLoad));
        for repair in default_repairs_in_place() {
            let mut state = detach_all_state(&p);
            assert!(
                repair.repair(&p, &mut state, &mut rng()),
                "{} failed",
                repair.name()
            );
            assert!(
                state.solution().vacant_count() >= inst.k_return,
                "{} violated the vacancy quota",
                repair.name()
            );
        }
    }

    #[test]
    fn regret2_produces_feasible_balanced_solution() {
        let inst = inst();
        let p = SraProblem::new(&inst, Objective::pure(ObjectiveKind::PeakLoad));
        let mut state = detach_all_state(&p);
        assert!(RepairInPlace::repair(
            &Regret2Insert,
            &p,
            &mut state,
            &mut rng()
        ));
        assert!(LnsProblem::is_feasible(&p, state.solution()));
        assert!(state.solution().peak_load(&inst) <= 0.9 + 1e-9);
    }

    #[test]
    fn randomized_greedy_is_feasible_across_seeds() {
        let inst = inst();
        let p = SraProblem::new(&inst, Objective::pure(ObjectiveKind::PeakLoad));
        for seed in 0..10 {
            let mut r = StdRng::seed_from_u64(seed);
            let mut state = detach_all_state(&p);
            assert!(
                RepairInPlace::repair(&RandomizedGreedy { sample: 2 }, &p, &mut state, &mut r),
                "seed {seed}"
            );
            assert!(LnsProblem::is_feasible(&p, state.solution()), "seed {seed}");
        }
    }

    #[test]
    fn greedy_is_deterministic() {
        let inst = inst();
        let p = SraProblem::new(&inst, Objective::pure(ObjectiveKind::PeakLoad));
        let mut sa = detach_all_state(&p);
        let mut sb = detach_all_state(&p);
        assert!(RepairInPlace::repair(
            &GreedyBestFit,
            &p,
            &mut sa,
            &mut rng()
        ));
        assert!(RepairInPlace::repair(
            &GreedyBestFit,
            &p,
            &mut sb,
            &mut rng()
        ));
        assert_eq!(sa.solution().placement(), sb.solution().placement());
    }

    #[test]
    fn default_portfolio_names() {
        let ops = default_repairs_in_place();
        let names: Vec<&str> = ops.iter().map(|o| o.name()).collect();
        assert_eq!(
            names,
            vec!["greedy-best-fit", "regret-2", "randomized-greedy"]
        );
    }

    #[test]
    fn in_place_repairs_complete_detached_states() {
        let inst = inst();
        let p = SraProblem::new(&inst, Objective::pure(ObjectiveKind::PeakLoad));
        for repair in default_repairs_in_place() {
            let mut state = detach_all_state(&p);
            let ok = repair.repair(&p, &mut state, &mut rng());
            assert!(ok, "{} failed on a repairable state", repair.name());
            assert!(state.removed().is_empty());
            assert!(p.state_feasible(&state), "{}", repair.name());
            assert!(
                LnsProblem::is_feasible(&p, state.solution()),
                "{} produced an infeasible solution",
                repair.name()
            );
            state.solution().validate_consistency(&inst).unwrap();
        }
    }

    #[test]
    fn in_place_repair_failure_leaves_revertible_state() {
        // m0 (cap 20) hosts F=11 and B=9; m1 (cap 8) hosts G=5. Detach B
        // and cram G onto m0: now B fits nowhere (m0: 16+9 > 20, m1: 9 > 8),
        // so every repair must report failure.
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[20.0]);
        let m1 = b.machine(&[8.0]);
        b.shard(&[11.0], 1.0, m0);
        let shard_b = b.shard(&[9.0], 1.0, m0);
        let g = b.shard(&[5.0], 1.0, m1);
        let inst = b.build().unwrap();
        let p = SraProblem::new(&inst, Objective::default());
        let mut asg = Assignment::from_initial(&inst);
        asg.move_shard(&inst, g, MachineId(0));
        let before = asg.placement().to_vec();
        for repair in default_repairs_in_place() {
            let mut state = p.make_state(asg.clone());
            state.detach(&p, shard_b);
            assert!(
                !repair.repair(&p, &mut state, &mut rng()),
                "{} should fail",
                repair.name()
            );
            LnsProblemInPlace::revert(&p, &mut state);
            assert_eq!(state.solution().placement(), before.as_slice());
        }
    }

    /// A fleet with everything the scans' lower bound must survive:
    /// capacities mixed 1×/2×/4× over uneven per-dimension bases, shards
    /// with a zero-demand dimension (`δ = 0`), shards smaller than the
    /// rounding margin (`δ` clamps to `0`), vacant exchange machines.
    fn mixed_fleet(rng: &mut StdRng, dims: usize, machines: usize, shards: usize) -> Instance {
        let base: Vec<f64> = (0..dims).map(|d| [10.0, 64.0, 3.0, 250.0][d]).collect();
        let scaled = |rng: &mut StdRng| {
            let scale = [1.0, 2.0, 4.0][rng.random_range(0..3usize)];
            base.iter().map(|b| b * scale).collect::<Vec<f64>>()
        };
        let n_exchange = rng.random_range(0..3);
        let mut b = InstanceBuilder::new(dims)
            .alpha([0.0, 0.1][rng.random_range(0..2usize)])
            .k_return(rng.random_range(0..=n_exchange));
        let ms: Vec<MachineId> = (0..machines).map(|_| b.machine(&scaled(rng))).collect();
        for _ in 0..n_exchange {
            b.exchange_machine(&scaled(rng));
        }
        // Every machine's share fits the smallest (1×) capacity.
        let per_machine = shards.div_ceil(machines) as f64;
        for j in 0..shards {
            let kind = rng.random_range(0..6);
            let zero_dim = rng.random_range(0..dims);
            let demand: Vec<f64> = (0..dims)
                .map(|d| match kind {
                    0 if d == zero_dim => 0.0,
                    1 => base[d] * 1e-17,
                    _ => base[d] * 0.8 / per_machine * rng.random_range(0.05..1.0),
                })
                .collect();
            b.shard(&demand, rng.random_range(0.5..2.0), ms[j % machines]);
        }
        b.build().unwrap()
    }

    /// `best_machine_cached` without the early break.
    fn unpruned_best(
        p: &SraProblem<'_>,
        state: &SraState,
        ctx: &InsertCtx,
        s: ShardId,
    ) -> Option<(MachineId, f64)> {
        let init_m = p.inst.initial[s.idx()];
        let rest = state.order.iter().map(|&raw| MachineId::from(raw as usize));
        let mut best: Option<(MachineId, f64)> = None;
        for m in std::iter::once(init_m).chain(rest.filter(|&m| m != init_m)) {
            if !ctx.allowed(&state.asg, m) {
                continue;
            }
            if let Some(score) = p.insertion_score(&state.asg, s, m) {
                if best.is_none_or(|(_, b)| score < b) {
                    best = Some((m, score));
                }
            }
        }
        best
    }

    /// `scan_regret` without the early break: the three lowest scores in
    /// visit order, ties to the earlier visit.
    fn unpruned_regret(
        p: &SraProblem<'_>,
        state: &SraState,
        ctx: &InsertCtx,
        s: ShardId,
    ) -> Option<([u32; 3], [u64; 3])> {
        let init_m = p.inst.initial[s.idx()];
        let rest = state.order.iter().map(|&raw| MachineId::from(raw as usize));
        let mut top: Vec<(u32, f64)> = Vec::new();
        for m in std::iter::once(init_m).chain(rest.filter(|&m| m != init_m)) {
            if !ctx.allowed(&state.asg, m) {
                continue;
            }
            if let Some(score) = p.insertion_score(&state.asg, s, m) {
                let at = top
                    .iter()
                    .position(|&(_, t)| score < t)
                    .unwrap_or(top.len());
                top.insert(at, (m.idx() as u32, score));
                top.truncate(3);
            }
        }
        if top.is_empty() {
            return None;
        }
        top.resize(3, (REGRET_ABSENT, f64::INFINITY));
        Some((
            [top[0].0, top[1].0, top[2].0],
            [top[0].1, top[1].1, top[2].1].map(f64::to_bits),
        ))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The pruned scans return the machines and score bits of the
        /// unpruned ones, and the bound they prune with is admissible, on
        /// every state of a repair pass (order repositioned after each
        /// attach), with the vacancy budget at 0 and above it.
        #[test]
        fn pruned_scans_equal_unpruned_scans(
            seed in any::<u64>(),
            dims in 1usize..5,
            machines in 3usize..10,
            shards in 8usize..40,
            lambda in prop_oneof![Just(0.0), Just(0.3)],
            drains in 0usize..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let inst = mixed_fleet(&mut rng, dims, machines, shards);
            let drained: Vec<MachineId> = (0..drains)
                .map(|_| MachineId::from(rng.random_range(0..inst.n_machines())))
                .collect();
            let p = SraProblem::new(&inst, Objective { kind: ObjectiveKind::PeakLoad, lambda })
                .with_drain(&drained);
            let mut state = p.make_state(Assignment::from_initial(&inst));
            // Vacate one machine outright, then detach a random handful.
            let emptied = MachineId::from(rng.random_range(0..machines));
            for s in state.asg.shards_on(emptied).to_vec() {
                state.detach(&p, s);
            }
            for _ in 0..rng.random_range(1..10) {
                let s = ShardId::from(rng.random_range(0..shards));
                if !state.asg.is_detached(s) {
                    state.detach(&p, s);
                }
            }
            let removed = std::mem::take(&mut state.removed);
            state.refresh_order();
            let mut ctx = InsertCtx::with_budget(state.vacancy_budget());
            for &s in &removed {
                for budget in [0, ctx.vacancy_budget, ctx.vacancy_budget + 1] {
                    let c = InsertCtx::with_budget(budget);
                    let best = best_machine_cached(&p, &state, &c, s);
                    let want = unpruned_best(&p, &state, &c, s);
                    prop_assert_eq!(
                        best.map(|(m, v)| (m, v.to_bits())),
                        want.map(|(m, v)| (m, v.to_bits()))
                    );
                    let e = scan_regret(&p, &state, &c, s);
                    prop_assert_eq!(
                        e.map(|e| (e.m, e.s.map(f64::to_bits))),
                        unpruned_regret(&p, &state, &c, s)
                    );
                }
                for mi in 0..inst.n_machines() {
                    let m = MachineId::from(mi);
                    if let Some(score) = p.insertion_score(&state.asg, s, m) {
                        prop_assert!(
                            score_bound(&p, &state, s, m) <= score,
                            "bound {} > score {score} for {s} on {m}",
                            score_bound(&p, &state, s, m)
                        );
                    }
                }
                if let Some((m, _)) = best_machine_cached(&p, &state, &ctx, s) {
                    place(&p, &mut state, &mut ctx, s, m);
                }
            }
        }
    }

    #[test]
    fn margin_sized_and_zero_dimension_shards_get_no_growth_credit() {
        let mut b = InstanceBuilder::new(2);
        let m0 = b.machine(&[10.0, 10.0]);
        let _m1 = b.machine(&[40.0, 20.0]);
        let plain = b.shard(&[2.0, 1.0], 1.0, m0);
        let flat = b.shard(&[2.0, 0.0], 1.0, m0);
        let dust = b.shard(&[1e-16, 1e-16], 1.0, m0);
        let inst = b.build().unwrap();
        let p = SraProblem::new(&inst, Objective::default());
        let state = p.make_state(Assignment::from_initial(&inst));
        // min(2/40, 1/20) less a margin of a few ulps of 1.
        assert!((state.delta[plain.idx()] - 0.05).abs() < 1e-14);
        assert!(state.delta[plain.idx()] < 0.05);
        assert_eq!(state.delta[flat.idx()], 0.0);
        assert_eq!(state.delta[dust.idx()], 0.0);
    }

    #[test]
    fn pruned_regret_scan_scores_a_small_share_of_a_balanced_fleet() {
        use rex_workload::synthetic::{generate, Placement, SynthConfig};
        let inst = generate(&SynthConfig {
            n_machines: 100,
            n_exchange: 8,
            n_shards: 1000,
            stringency: 0.75,
            placement: Placement::BalancedBfd,
            seed: 11,
            ..Default::default()
        })
        .unwrap();
        let p = SraProblem::new(&inst, Objective::default());
        let mut state = p.make_state(Assignment::from_initial(&inst));
        for i in (0..inst.n_shards()).step_by(31) {
            state.detach(&p, ShardId::from(i));
        }
        let removed = std::mem::take(&mut state.removed);
        state.refresh_order();
        let ctx = InsertCtx::with_budget(state.vacancy_budget());
        SCORE_VISITS.with(|v| v.set(0));
        for &s in &removed {
            assert!(scan_regret(&p, &state, &ctx, s).is_some());
        }
        let visits = SCORE_VISITS.with(|v| v.get());
        // 4.5 % with the tight bound; 21.5 % with `loads + pen` alone.
        let fleet_scans = (removed.len() * inst.n_machines()) as u64;
        assert!(
            visits * 100 <= fleet_scans * 15,
            "regret scans scored {visits} of {fleet_scans} (shard, machine) pairs"
        );
    }
}
