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

use crate::problem::{RowScorer, SraProblem};
use crate::state::{Frontier, SraState, REGRET_K};
use rand::rngs::StdRng;
use rand::RngExt;
use rex_cluster::{MachineId, ShardId};
use rex_lns::RepairInPlace;

/// Shared insertion state of one repair pass over a freshly ordered fleet.
struct InsertCtx {
    /// How many vacancies may still be consumed.
    vacancy_budget: usize,
    /// Where the fleet scans start in `SraState::order`: past the leading
    /// run of vacant machines while the budget is 0 (they sort first, at
    /// load 0, and every one of them would be refused), else 0. With no
    /// budget no vacant machine fills and none appears, so the run stands
    /// for the rest of the pass.
    skip: usize,
}

impl InsertCtx {
    /// `state.order` must be fresh (`refresh_order`).
    fn new(state: &SraState, vacancy_budget: usize) -> Self {
        let mut ctx = Self {
            vacancy_budget,
            skip: 0,
        };
        ctx.skip_vacant_run(state);
        ctx
    }

    fn skip_vacant_run(&mut self, state: &SraState) {
        if self.vacancy_budget == 0 {
            let vacant = |&m: &u32| state.asg.is_vacant(MachineId::from(m as usize));
            self.skip = state.order.iter().take_while(|m| vacant(m)).count();
        }
    }

    /// Whether machine `m` may receive a shard right now.
    fn allowed(&self, state: &SraState, m: MachineId) -> bool {
        !state.asg.is_vacant(m) || self.vacancy_budget > 0
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

#[cfg(test)]
thread_local! {
    /// Machines the repair scans looked at on this thread — scored or
    /// refused — and how many of them were vacant (tests assert the
    /// pruning's work, not its time).
    static VISITS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
    /// Frontier scans `Regret2Insert` ran after a placement on this thread
    /// (the first scan of every entry not counted).
    static RESCANS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One regret-2 placement: shard, machine, best and second-best score bits.
#[cfg(test)]
type Pick = (ShardId, MachineId, u64, u64);

#[cfg(test)]
thread_local! {
    /// The placements `Regret2Insert` made on this thread, in order.
    static PICKS: std::cell::RefCell<Vec<Pick>> = const { std::cell::RefCell::new(Vec::new()) };
    /// After each of those placements that left every entry readable: the
    /// frontiers of the shards still detached, in `removed` order.
    static FRONTIERS: std::cell::RefCell<Vec<Vec<Frontier>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Counts one machine a scan looks at (test builds only).
#[inline]
#[cfg_attr(not(test), allow(unused_variables))]
fn visit(state: &SraState, m: MachineId) {
    #[cfg(test)]
    VISITS.with(|v| {
        let (all, vacant) = v.get();
        v.set((all + 1, vacant + u64::from(state.asg.is_vacant(m))));
    });
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
        let mut ctx = InsertCtx::new(state, state.vacancy_budget());
        for (idx, &s) in removed.iter().enumerate() {
            let Some((m, _)) = best_machine_cached(state, &ctx, &p.row_scorer(state, s)) else {
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

/// Places detached shard `s` on `m`: attaches, moves `m` to its new place
/// in the scan order and charges the vacancy budget. Returns true when this
/// placement spent the last vacancy — from here on every vacant machine is
/// refused.
fn place(
    p: &SraProblem<'_>,
    state: &mut SraState,
    ctx: &mut InsertCtx,
    s: ShardId,
    m: MachineId,
) -> bool {
    let was_vacant = state.asg.is_vacant(m);
    let before = state.loads[m.idx()];
    state.attach(p, s, m);
    state.reposition(m, before);
    if was_vacant {
        ctx.vacancy_budget -= 1;
        ctx.skip_vacant_run(state);
    }
    was_vacant && ctx.vacancy_budget == 0
}

/// Best feasible machine for the scorer's shard, driven by the load-sorted
/// scan order with an early break: once [`RowScorer::bound`] reaches the
/// running best, every later machine in load order is beaten too. The
/// shard's initial machine is visited first — it is the only one whose
/// penalty is zero. Selection is deterministic: ties resolve to the
/// earliest machine in scan order.
fn best_machine_cached(
    state: &SraState,
    ctx: &InsertCtx,
    sc: &RowScorer<'_, '_>,
) -> Option<(MachineId, f64)> {
    let init_m = sc.init;
    let mut best: Option<(MachineId, f64)> = None;
    visit(state, init_m);
    if ctx.allowed(state, init_m) {
        best = sc.score(state, init_m).map(|score| (init_m, score));
    }
    for &raw in &state.order[ctx.skip..] {
        let m = MachineId::from(raw as usize);
        if m == init_m {
            continue;
        }
        if best.is_some_and(|(_, b)| sc.bound(state, m) >= b) {
            break; // later machines have equal or larger loads
        }
        visit(state, m);
        if !ctx.allowed(state, m) {
            continue;
        }
        if let Some(score) = sc.score(state, m) {
            if best.is_none_or(|(_, b)| score < b) {
                best = Some((m, score));
            }
        }
    }
    best
}

/// Scans the fleet for the scorer's shard in scan order (initial machine
/// first, then the load-sorted order), keeping the `K` lowest scores — ties
/// to the earlier visit — and breaking once [`RowScorer::bound`] reaches the
/// last slot: every machine left unvisited, or visited and outscored,
/// provably scores at least the final `s[K-1]`, which becomes the entry's
/// `bound`. Returns false when no machine is feasible (the repair must
/// fail).
fn scan_regret(
    state: &SraState,
    ctx: &InsertCtx,
    sc: &RowScorer<'_, '_>,
    e: &mut Frontier,
) -> bool {
    *e = Frontier::EMPTY;
    let init_m = sc.init;
    let consider = |m: MachineId, e: &mut Frontier| {
        visit(state, m);
        if !ctx.allowed(state, m) {
            return;
        }
        match sc.score(state, m) {
            Some(score) if score < e.s[REGRET_K - 1] => e.file(m, score),
            _ => {}
        }
    };
    consider(init_m, e);
    for &raw in &state.order[ctx.skip..] {
        let m = MachineId::from(raw as usize);
        if m == init_m {
            continue;
        }
        if sc.bound(state, m) >= e.s[REGRET_K - 1] {
            break; // cannot displace any slot, nor can any later machine
        }
        consider(m, e);
    }
    e.bound = e.s[REGRET_K - 1];
    e.n > 0
}

/// Brings an entry naming `m` (in slot `k`) up to date after `m` grew,
/// without a scan: the other slots keep exact values (their machines' usage
/// is untouched) and every machine outside the entry still ranks behind
/// every slot — scores only rise and `m`'s scan key only moves later, which
/// is also why an entry that does not name `m` needs no look at all. `m` is
/// re-scored once and filed at its place in the canonical ranking (score,
/// then scan key: the shard's initial machine first, then ascending
/// `(loads[m], m)`). It goes back only when that place is provably ahead of
/// every outsider: below `bound`, or ahead of a slot. A re-score equal to
/// `bound` that would be filed behind every slot may trail an outsider tied
/// at `bound`, so it becomes one more outsider, as does anything above
/// `bound`. Returns false when the best two can no longer be read off the
/// entry (a finite-`bound` entry left with fewer than two slots, or an empty
/// one) and a scan is required.
fn reinsert(
    state: &SraState,
    sc: &RowScorer<'_, '_>,
    e: &mut Frontier,
    k: usize,
    m: MachineId,
) -> bool {
    e.remove(k);
    if let Some(score) = sc.score(state, m) {
        let key = |x: usize| (x != sc.init.idx(), state.loads[x], x);
        let ahead = |j: usize| {
            let slot = e.s[j];
            slot < score || (slot == score && key(e.m[j] as usize) < key(m.idx()))
        };
        let pos = (0..e.n).take_while(|&j| ahead(j)).count();
        if score < e.bound || pos < e.n {
            e.insert(pos, m, score);
        }
    }
    e.n >= 2 || (e.n == 1 && e.bound == f64::INFINITY)
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

    /// Incremental regret loop over one exact `Frontier` per detached
    /// shard: an attach on machine `m` only changes scores *on* `m` (and
    /// only for the worse — usage grows monotonically), so an entry that
    /// does not name `m` is untouched, one that does is patched by
    /// `reinsert`, and only an entry patched down to fewer than two
    /// machines is rescanned. The exception is the vacancy budget reaching
    /// zero — that flips the allowed-set for every vacant machine, so
    /// everything is rescanned once.
    fn repair(&self, p: &SraProblem<'_>, state: &mut SraState, _rng: &mut StdRng) -> bool {
        let mut removed = std::mem::take(&mut state.removed);
        let mut entries = std::mem::take(&mut state.regret);
        state.refresh_order();
        let mut ctx = InsertCtx::new(state, state.vacancy_budget());
        entries.clear();
        entries.resize(removed.len(), Frontier::EMPTY);
        let mut feasible = removed
            .iter()
            .zip(&mut entries)
            .all(|(&s, e)| scan_regret(state, &ctx, &p.row_scorer(state, s), e));
        while feasible && !removed.is_empty() {
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
            #[cfg(test)]
            PICKS.with(|t| {
                let [best, second, ..] = entries[pick].s.map(f64::to_bits);
                t.borrow_mut().push((s, m, best, second));
            });
            entries.swap_remove(pick);
            let rescan_all = place(p, state, &mut ctx, s, m);
            let m_raw = m.idx() as u32;
            feasible = removed.iter().zip(&mut entries).all(|(&s, e)| {
                let slot = e.m[..e.n].iter().position(|&x| x == m_raw);
                if slot.is_none() && !rescan_all {
                    return true; // scores elsewhere are untouched
                }
                let sc = p.row_scorer(state, s);
                let patched = !rescan_all && slot.is_some_and(|k| reinsert(state, &sc, e, k, m));
                #[cfg(test)]
                RESCANS.with(|r| r.set(r.get() + u64::from(!patched)));
                patched || scan_regret(state, &ctx, &sc, e)
            });
            #[cfg(test)]
            if feasible {
                FRONTIERS.with(|t| t.borrow_mut().push(entries.clone()));
            }
        }
        entries.clear();
        state.regret = entries;
        state.removed = removed;
        feasible
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
        let mut ctx = InsertCtx::new(state, state.vacancy_budget());
        let n = p.inst.n_machines();
        for (idx, &s) in removed.iter().enumerate() {
            let sc = p.row_scorer(state, s);
            let mut best: Option<(MachineId, f64)> = None;
            for _ in 0..self.sample.max(1) {
                let m = MachineId::from(rng.random_range(0..n));
                visit(state, m);
                if !ctx.allowed(state, m) {
                    continue;
                }
                if best.is_some_and(|(_, b)| sc.bound(state, m) >= b) {
                    continue; // cannot beat the sample's incumbent
                }
                if let Some(score) = sc.score(state, m) {
                    if best.is_none_or(|(_, b)| score < b) {
                        best = Some((m, score));
                    }
                }
            }
            // Fall back to the full scan when sampling found nothing — the
            // shard may genuinely have only a few feasible hosts.
            let found = best.or_else(|| best_machine_cached(state, &ctx, &sc));
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
    use rex_cluster::{Assignment, Instance, InstanceBuilder, Objective};
    use rex_lns::LnsProblemInPlace;

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
        let p = SraProblem::new(&inst, Objective::pure());
        let mut state = detach_all_state(&p);
        assert!(RepairInPlace::repair(
            &GreedyBestFit,
            &p,
            &mut state,
            &mut rng()
        ));
        let sol = state.solution();
        assert!(p.is_feasible(sol));
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
        let p = SraProblem::new(&inst, Objective::pure());
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
        let p = SraProblem::new(&inst, Objective::pure());
        let mut state = detach_all_state(&p);
        assert!(RepairInPlace::repair(
            &Regret2Insert,
            &p,
            &mut state,
            &mut rng()
        ));
        assert!(p.is_feasible(state.solution()));
        assert!(state.solution().peak_load(&inst) <= 0.9 + 1e-9);
    }

    #[test]
    fn randomized_greedy_is_feasible_across_seeds() {
        let inst = inst();
        let p = SraProblem::new(&inst, Objective::pure());
        for seed in 0..10 {
            let mut r = StdRng::seed_from_u64(seed);
            let mut state = detach_all_state(&p);
            assert!(
                RepairInPlace::repair(&RandomizedGreedy { sample: 2 }, &p, &mut state, &mut r),
                "seed {seed}"
            );
            assert!(p.is_feasible(state.solution()), "seed {seed}");
        }
    }

    #[test]
    fn greedy_is_deterministic() {
        let inst = inst();
        let p = SraProblem::new(&inst, Objective::pure());
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
        let p = SraProblem::new(&inst, Objective::pure());
        for repair in default_repairs_in_place() {
            let mut state = detach_all_state(&p);
            let ok = repair.repair(&p, &mut state, &mut rng());
            assert!(ok, "{} failed on a repairable state", repair.name());
            assert!(state.removed().is_empty());
            assert!(p.state_feasible(&state), "{}", repair.name());
            assert!(
                p.is_feasible(state.solution()),
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

    /// A fleet with everything the scans must survive: capacities mixed
    /// 1×/2×/4× over uneven per-dimension bases, shards with a zero-demand
    /// dimension (`δ = 0`), shards smaller than the rounding margin (`δ`
    /// clamps to `0`), duplicate shards (exact regret ties) and several
    /// identical vacant exchange machines (exact score ties).
    fn mixed_fleet(rng: &mut StdRng, dims: usize, machines: usize, shards: usize) -> Instance {
        let base: Vec<f64> = (0..dims).map(|d| [10.0, 64.0, 3.0, 250.0][d]).collect();
        let scaled = |rng: &mut StdRng| {
            let scale = [1.0, 2.0, 4.0][rng.random_range(0..3usize)];
            base.iter().map(|b| b * scale).collect::<Vec<f64>>()
        };
        let n_exchange = rng.random_range(0..5);
        let mut b = InstanceBuilder::new(dims)
            .alpha([0.0, 0.1][rng.random_range(0..2usize)])
            .k_return(rng.random_range(0..=n_exchange));
        let ms: Vec<MachineId> = (0..machines).map(|_| b.machine(&scaled(rng))).collect();
        let exchange_cap = scaled(rng);
        for _ in 0..n_exchange {
            b.exchange_machine(&exchange_cap);
        }
        // Every machine's share fits the smallest (1×) capacity.
        let per_machine = shards.div_ceil(machines) as f64;
        let mut last: Option<(Vec<f64>, f64)> = None;
        for j in 0..shards {
            let kind = rng.random_range(0..7);
            let zero_dim = rng.random_range(0..dims);
            let demand: Vec<f64> = (0..dims)
                .map(|d| match kind {
                    0 if d == zero_dim => 0.0,
                    1 => base[d] * 1e-17,
                    _ => base[d] * 0.8 / per_machine * rng.random_range(0.05..1.0),
                })
                .collect();
            let fresh = (demand, rng.random_range(0.5..2.0));
            let (demand, cost) = last.take().filter(|_| kind == 2).unwrap_or(fresh);
            b.shard(&demand, cost, ms[j % machines]);
            last = Some((demand, cost));
        }
        b.build().unwrap()
    }

    /// The state of a burst: one machine vacated outright (its vacancy may
    /// raise the budget), then a random handful of shards detached.
    fn burst_state(p: &SraProblem<'_>, rng: &mut StdRng, machines: usize) -> SraState {
        let mut state = p.make_state(Assignment::from_initial(p.inst));
        let emptied = MachineId::from(rng.random_range(0..machines));
        for s in state.asg.shards_on(emptied).to_vec() {
            state.detach(p, s);
        }
        for _ in 0..rng.random_range(1..10) {
            let s = ShardId::from(rng.random_range(0..p.inst.n_shards()));
            if !state.asg.is_detached(s) {
                state.detach(p, s);
            }
        }
        state
    }

    /// `count` random machines to drain; `usize::MAX` drains all but one, so
    /// the repair usually has to fail.
    fn drained_machines(rng: &mut StdRng, inst: &Instance, count: usize) -> Vec<MachineId> {
        let mut pick = || MachineId::from(rng.random_range(0..inst.n_machines()));
        if count == usize::MAX {
            let spared = pick();
            let fleet = (0..inst.n_machines()).map(MachineId::from);
            return fleet.filter(|&m| m != spared).collect();
        }
        (0..count).map(|_| pick()).collect()
    }

    /// Every allowed, admissible machine for `s` with its score, in (score,
    /// scan order): the whole fleet, `insertion_score`, no pruning.
    fn unpruned_ranking(
        p: &SraProblem<'_>,
        state: &SraState,
        vacancy_budget: usize,
        s: ShardId,
    ) -> Vec<(u32, f64)> {
        let init_m = p.inst.initial[s.idx()];
        let rest = state.order.iter().map(|&raw| MachineId::from(raw as usize));
        let mut ranking: Vec<(u32, f64)> = std::iter::once(init_m)
            .chain(rest.filter(|&m| m != init_m))
            .filter(|&m| !state.asg.is_vacant(m) || vacancy_budget > 0)
            .filter_map(|m| Some((m.idx() as u32, p.insertion_score(&state.asg, s, m)?)))
            .collect();
        ranking.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap()); // stable
        ranking
    }

    /// Runs `Regret2Insert` on the burst `seed` makes, then replays its
    /// picks on an identical burst, re-ranking every remaining shard over
    /// the whole fleet before each one (`insertion_score`, no pruning, no
    /// frontier). Each pick must be the first shard of maximal regret, carry
    /// the ranking's best and second-best score bits, and go to the
    /// ranking's first machine — ties to the bit included: the ranking is
    /// the canonical order of [`Frontier`], so the picks cannot depend on
    /// `REGRET_K`. The repair must fail exactly when a remaining shard has
    /// no machine left.
    fn regret2_against_full_rescans(
        p: &SraProblem<'_>,
        seed: u64,
        machines: usize,
    ) -> Result<(bool, Vec<Pick>), TestCaseError> {
        let burst = || burst_state(p, &mut StdRng::seed_from_u64(seed), machines);
        let (mut real, mut replica) = (burst(), burst());
        PICKS.with(|t| t.borrow_mut().clear());
        FRONTIERS.with(|t| t.borrow_mut().clear());
        let ok = RepairInPlace::repair(&Regret2Insert, p, &mut real, &mut rng());
        let picks = PICKS.with(|t| std::mem::take(&mut *t.borrow_mut()));
        let frontiers = FRONTIERS.with(|t| std::mem::take(&mut *t.borrow_mut()));

        let state = &mut replica;
        let mut removed = std::mem::take(&mut state.removed);
        state.refresh_order();
        let mut budget = state.vacancy_budget();
        let rank_all = |state: &SraState, budget: usize, removed: &[ShardId]| {
            let rank = |&s: &ShardId| unpruned_ranking(p, state, budget, s);
            removed.iter().map(rank).collect::<Vec<_>>()
        };
        for (i, &(s, m, best, second)) in picks.iter().enumerate() {
            let rankings = rank_all(state, budget, &removed);
            // What the last placement left: every entry is a prefix of its
            // shard's ranking, and everything past it scores at least `bound`.
            for (e, r) in i
                .checked_sub(1)
                .and_then(|j| frontiers.get(j))
                .into_iter()
                .flatten()
                .zip(&rankings)
            {
                for (j, &(rm, rv)) in r.iter().enumerate() {
                    if j < e.n {
                        prop_assert_eq!((e.m[j], e.s[j].to_bits()), (rm, rv.to_bits()));
                    } else {
                        prop_assert!(rv >= e.bound, "{} outside scores {} < {}", rm, rv, e.bound);
                    }
                }
            }
            prop_assert!(
                rankings.iter().all(|r| !r.is_empty()),
                "placed past a dead end"
            );
            let regret = |r: &Vec<(u32, f64)>| r.get(1).map_or(f64::INFINITY, |x| x.1) - r[0].1;
            let mut pick = 0;
            for (idx, r) in rankings.iter().enumerate() {
                if regret(r) > regret(&rankings[pick]) {
                    pick = idx;
                }
            }
            prop_assert_eq!(removed[pick], s);
            let ranking = &rankings[pick];
            let runner_up = ranking.get(1).map_or(f64::INFINITY, |x| x.1);
            prop_assert_eq!(
                (ranking[0].1.to_bits(), runner_up.to_bits()),
                (best, second)
            );
            prop_assert_eq!(
                ranking[0].0,
                m.idx() as u32,
                "{} is not the first machine",
                m
            );
            removed.swap_remove(pick);
            budget -= usize::from(state.asg.is_vacant(m));
            let before = state.loads[m.idx()];
            state.attach(p, s, m);
            state.reposition(m, before);
        }
        let dead_end = rank_all(state, budget, &removed)
            .iter()
            .any(|r| r.is_empty());
        prop_assert_eq!(ok, removed.is_empty());
        prop_assert_eq!(ok, !dead_end);
        prop_assert_eq!(real.removed(), removed.as_slice());
        Ok((ok, picks))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The pruned scans return the machines and score bits of the
        /// unpruned ranking — a fresh frontier is its first `K` and its
        /// `bound` holds for all the rest — and the row scorer returns
        /// `insertion_score`'s bits for every (shard, machine) pair,
        /// admissible or not, on every state of a repair pass (order
        /// repositioned after each attach), with the vacancy budget at 0
        /// and above it.
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
            let drained = drained_machines(&mut rng, &inst, drains);
            let p = SraProblem::new(&inst, Objective { lambda })
                .with_drain(&drained);
            let mut state = burst_state(&p, &mut rng, machines);
            let removed = std::mem::take(&mut state.removed);
            state.refresh_order();
            let mut ctx = InsertCtx::new(&state, state.vacancy_budget());
            for &s in &removed {
                let sc = p.row_scorer(&state, s);
                for budget in [0, ctx.vacancy_budget, ctx.vacancy_budget + 1] {
                    let c = InsertCtx::new(&state, budget);
                    let ranking = unpruned_ranking(&p, &state, budget, s);
                    let best = best_machine_cached(&state, &c, &sc);
                    prop_assert_eq!(
                        best.map(|(m, v)| (m.idx() as u32, v.to_bits())),
                        ranking.first().map(|&(m, v)| (m, v.to_bits()))
                    );
                    let mut e = Frontier::EMPTY;
                    prop_assert_eq!(scan_regret(&state, &c, &sc, &mut e), !ranking.is_empty());
                    prop_assert_eq!(e.n, ranking.len().min(REGRET_K));
                    for (j, &(m, v)) in ranking.iter().enumerate() {
                        if j < e.n {
                            prop_assert_eq!((e.m[j], e.s[j].to_bits()), (m, v.to_bits()));
                        } else {
                            prop_assert!(v >= e.bound, "{m} outside scores {v} < {}", e.bound);
                        }
                    }
                    prop_assert!(e.s[e.n..].iter().all(|&v| v == f64::INFINITY));
                }
                for mi in 0..inst.n_machines() {
                    let m = MachineId::from(mi);
                    let score = p.insertion_score(&state.asg, s, m);
                    prop_assert_eq!(
                        sc.score(&state, m).map(f64::to_bits),
                        score.map(f64::to_bits)
                    );
                    prop_assert!(
                        score.is_none_or(|v| sc.bound(&state, m) <= v),
                        "bound {} > score {score:?} for {s} on {m}",
                        sc.bound(&state, m)
                    );
                }
                if let Some((m, _)) = best_machine_cached(&state, &ctx, &sc) {
                    place(&p, &mut state, &mut ctx, s, m);
                }
            }
        }

        /// The frontier changes no decision: the shard sequence, the best /
        /// second-best score bits and the machines are what re-ranking every
        /// remaining shard over the whole fleet after every placement gives.
        #[test]
        fn regret2_equals_full_rescans_after_every_placement(
            seed in any::<u64>(),
            dims in 1usize..5,
            machines in 3usize..10,
            shards in 8usize..40,
            lambda in prop_oneof![Just(0.0), Just(0.3)],
            drains in prop_oneof![Just(0usize), Just(1), Just(2), Just(usize::MAX)],
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let inst = mixed_fleet(&mut rng, dims, machines, shards);
            let drained = drained_machines(&mut rng, &inst, drains);
            let p = SraProblem::new(&inst, Objective { lambda })
                .with_drain(&drained);
            regret2_against_full_rescans(&p, seed, machines)?;
        }
    }

    /// The differential fixtures reach what they are there for: repairs that
    /// fail, budgets of 0, 1 and more, the budget running out mid-repair,
    /// exact score ties and exact regret ties. Seeds 945 and 1109 join the
    /// first 400 because a re-score lands exactly on `bound` there at a
    /// depth of 8: dropping one that ranks ahead of a slot breaks a frontier
    /// on them (filing one behind every slot breaks seed 20); each half of
    /// the tie rule, broken, fails about one seed in 400.
    #[test]
    fn the_regret_fixtures_are_not_vacuous() {
        let mut seen = [0usize; 7];
        for seed in (0..400u64).chain([945, 1109]) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (dims, machines) = (rng.random_range(1..5), rng.random_range(3..10));
            let shards = rng.random_range(8..40);
            let inst = mixed_fleet(&mut rng, dims, machines, shards);
            let drains = [0, 1, 2, usize::MAX][rng.random_range(0..4usize)];
            let drained = drained_machines(&mut rng, &inst, drains);
            let p = SraProblem::new(&inst, Objective::default()).with_drain(&drained);
            let budget =
                burst_state(&p, &mut StdRng::seed_from_u64(seed), machines).vacancy_budget();
            let (ok, picks) = regret2_against_full_rescans(&p, seed, machines).unwrap();
            let onto_vacant = picks
                .iter()
                .filter(|&&(_, m, ..)| inst.initial.iter().all(|&home| home != m))
                .count();
            let regrets: Vec<u64> = picks
                .iter()
                .map(|&(.., best, second)| {
                    (f64::from_bits(second) - f64::from_bits(best)).to_bits()
                })
                .collect();
            let hit = [
                !ok,
                budget == 0,
                budget == 1,
                budget > 1,
                budget > 0 && onto_vacant >= budget,
                picks.iter().any(|&(.., best, second)| best == second),
                regrets.windows(2).any(|w| w[0] == w[1]),
            ];
            for (count, hit) in seen.iter_mut().zip(hit) {
                *count += usize::from(hit);
            }
        }
        assert!(seen.iter().all(|&count| count >= 10), "{seen:?}");
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
    fn regret2_looks_at_a_small_share_of_a_balanced_fleet_and_at_no_vacancy() {
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
        for i in (0..inst.n_shards()).step_by(21) {
            state.detach(&p, ShardId::from(i));
        }
        let detached = state.removed().len() as u64;
        assert_eq!((detached, state.vacancy_budget()), (48, 0));
        VISITS.with(|v| v.set((0, 0)));
        RESCANS.with(|r| r.set(0));
        assert!(RepairInPlace::repair(
            &Regret2Insert,
            &p,
            &mut state,
            &mut rng()
        ));
        let (looked_at, vacant) = VISITS.with(|v| v.get());
        let rescans = RESCANS.with(|r| r.get());
        // Measured 31.25 per placed shard (52 at a depth of 3, behind-equals
        // ties); 108 would be one fleet scan each.
        assert!(
            looked_at <= 35 * detached,
            "regret-2 looked at {looked_at} machines for {detached} shards"
        );
        // Measured 2.08 per placed shard (9.25 at a depth of 3).
        assert!(
            10 * rescans <= 23 * detached,
            "regret-2 rescanned {rescans} frontiers for {detached} shards"
        );
        assert_eq!(
            vacant, 0,
            "a zero vacancy budget refuses every vacant machine"
        );
    }
}
