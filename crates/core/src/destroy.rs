//! Destroy operators: choose which shards to detach.
//!
//! Each operator detaches between one and `cap` shards, scaling with the
//! engine-supplied intensity. The cap keeps destroy size bounded on large
//! instances — repairing hundreds of shards per iteration would dominate
//! the iteration budget without improving search quality.
//!
//! All operators implement the in-place edit protocol: they edit one
//! [`SraState`] (recording every detach in its undo log) and draw all
//! scratch space from the state's persistent buffers, so the steady-state
//! hot loop allocates nothing.

use crate::problem::SraProblem;
use crate::state::SraState;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::RngExt;
use rex_cluster::{MachineId, ShardId};
use rex_lns::DestroyInPlace;

/// Number of shards to remove given intensity, instance size, and cap.
///
/// The lower bound of three (when the instance has that many shards)
/// matters: under the vacancy quota the solution space is disconnected for
/// single-shard moves — a pairwise swap through an exchange machine needs
/// both parties detached in the same iteration, or every intermediate
/// state violates either capacity or the vacancy count and is rejected.
fn removal_count(n_shards: usize, intensity: f64, cap: usize) -> usize {
    let floor = 3.min(n_shards);
    (((n_shards as f64) * intensity).ceil() as usize).clamp(floor, cap.max(floor).min(n_shards))
}

/// Detaches a uniformly random subset of shards.
#[derive(Clone, Copy, Debug)]
pub struct RandomRemoval {
    /// Maximum shards detached per invocation.
    pub cap: usize,
}

impl DestroyInPlace<SraProblem<'_>> for RandomRemoval {
    fn name(&self) -> &str {
        "random-removal"
    }

    fn destroy(&self, p: &SraProblem<'_>, state: &mut SraState, intensity: f64, rng: &mut StdRng) {
        let n = p.inst.n_shards();
        let k = removal_count(n, intensity, self.cap);
        // Partial Fisher–Yates over the persistent index pool: the first
        // `k` entries become a uniform k-subset.
        let mut pool = std::mem::take(&mut state.pool);
        pool.clear();
        pool.extend(0..n as u32);
        for i in 0..k {
            let j = rng.random_range(i..n);
            pool.swap(i, j);
            state.detach(p, ShardId(pool[i]));
        }
        state.pool = pool;
    }
}

/// Detaches shards from the hottest machines: repeatedly picks one of the
/// top-3 most-loaded machines and detaches its largest shard. This is the
/// operator that directly attacks the peak-load objective.
#[derive(Clone, Copy, Debug)]
pub struct WorstMachineRemoval {
    /// Maximum shards detached per invocation.
    pub cap: usize,
}

impl DestroyInPlace<SraProblem<'_>> for WorstMachineRemoval {
    fn name(&self) -> &str {
        "worst-machine"
    }

    fn destroy(&self, p: &SraProblem<'_>, state: &mut SraState, intensity: f64, rng: &mut StdRng) {
        let k = removal_count(p.inst.n_shards(), intensity, self.cap);
        for _ in 0..k {
            // Rank occupied machines by the *cached* load (kept current by
            // `detach`); sample among the top 3 so repeated invocations
            // explore different evacuation patterns.
            let (hot, n_hot) = hottest_three(state);
            if n_hot == 0 {
                break;
            }
            let machine = MachineId::from(hot[rng.random_range(0..n_hot)] as usize);
            let norms = &state.demand_norm;
            let s = *state
                .asg
                .shards_on(machine)
                .iter()
                .max_by(|a, b| {
                    norms[a.idx()]
                        .partial_cmp(&norms[b.idx()])
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("machine is occupied");
            state.detach(p, s);
        }
    }
}

/// The (up to) three most-loaded occupied machines, hottest first, and how
/// many there are. `(load desc, id asc)` is a strict total order and ids
/// are visited ascending, so a machine enters a slot only on a strictly
/// larger load — one pass yields exactly the prefix a full sort would.
fn hottest_three(state: &SraState) -> ([u32; 3], usize) {
    let mut top = [(f64::NEG_INFINITY, 0u32); 3];
    let mut n = 0;
    for (i, &load) in state.loads.iter().enumerate() {
        if load <= top[2].0 || state.asg.is_vacant(MachineId::from(i)) {
            continue;
        }
        let mut slot = 2;
        while slot > 0 && load > top[slot - 1].0 {
            slot -= 1;
        }
        top.copy_within(slot..2, slot + 1);
        top[slot] = (load, i as u32);
        n += 1;
    }
    (top.map(|(_, m)| m), n.min(3))
}

/// Shaw-style related removal: detaches shards whose demand vectors are
/// similar to a random seed shard's. Similar shards are interchangeable, so
/// re-inserting a related group gives the repair real room to rearrange.
#[derive(Clone, Copy, Debug)]
pub struct RelatedRemoval {
    /// Maximum shards detached per invocation.
    pub cap: usize,
}

impl DestroyInPlace<SraProblem<'_>> for RelatedRemoval {
    fn name(&self) -> &str {
        "related-removal"
    }

    fn destroy(&self, p: &SraProblem<'_>, state: &mut SraState, intensity: f64, rng: &mut StdRng) {
        let inst = p.inst;
        let n = inst.n_shards();
        let k = removal_count(n, intensity, self.cap);
        let seed = ShardId::from(rng.random_range(0..n));
        let seed_demand = *inst.demand(seed);

        // Rank all shards by distance to the seed, then detach a random k of
        // the nearest 2k (the randomization prevents the operator from
        // detaching the identical set every time).
        let mut ranked = std::mem::take(&mut state.scored);
        ranked.clear();
        ranked.extend((0..n as u32).map(|i| (seed_demand.distance(inst.demand(ShardId(i))), i)));
        let pool = (2 * k).min(n);
        ranked.select_nth_unstable_by(pool - 1, |a, b| {
            a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal)
        });
        ranked[..pool].shuffle(rng);
        for &(_, raw) in ranked.iter().take(k) {
            state.detach(p, ShardId(raw));
        }
        state.scored = ranked;
    }
}

/// Evacuates one occupied machine entirely.
///
/// This is the **resource-exchange move**: with the machine empty, the
/// repair pass may leave it vacant, making it eligible for return in place
/// of a borrowed exchange machine — the membership exchange the paper's
/// scheme allows. Machines with fewer shards are preferred (cheaper to
/// evacuate); exchange machines can be evacuated too, which undoes an
/// earlier occupation.
#[derive(Clone, Copy, Debug)]
pub struct MachineExchangeRemoval {
    /// Upper bound on the number of shards the chosen machine may host.
    pub cap: usize,
}

impl DestroyInPlace<SraProblem<'_>> for MachineExchangeRemoval {
    fn name(&self) -> &str {
        "machine-exchange"
    }

    fn destroy(&self, p: &SraProblem<'_>, state: &mut SraState, _intensity: f64, rng: &mut StdRng) {
        let inst = p.inst;
        // Candidates: occupied machines with at most `cap` shards.
        let mut candidates = std::mem::take(&mut state.pool);
        candidates.clear();
        candidates.extend((0..inst.n_machines() as u32).filter(|&i| {
            let c = state.asg.shards_on(MachineId::from(i as usize)).len();
            c > 0 && c <= self.cap.max(1)
        }));
        if candidates.is_empty() {
            // Degenerate: fall back to detaching a single random shard so
            // the iteration still proposes something.
            let s = ShardId::from(rng.random_range(0..inst.n_shards()));
            state.detach(p, s);
        } else {
            candidates.shuffle(rng);
            let machine = MachineId::from(candidates[0] as usize);
            candidates.clear();
            candidates.extend(state.asg.shards_on(machine).iter().map(|s| s.idx() as u32));
            for &raw in &candidates {
                state.detach(p, ShardId(raw));
            }
        }
        state.pool = candidates;
    }
}

/// The full default destroy portfolio used by SRA.
pub fn default_destroys_in_place<'a>(cap: usize) -> Vec<Box<dyn DestroyInPlace<SraProblem<'a>>>> {
    vec![
        Box::new(RandomRemoval { cap }),
        Box::new(WorstMachineRemoval { cap }),
        Box::new(RelatedRemoval { cap }),
        Box::new(MachineExchangeRemoval { cap }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rex_cluster::{Assignment, Instance, InstanceBuilder, Objective};
    use rex_lns::LnsProblemInPlace;

    fn inst() -> Instance {
        let mut b = InstanceBuilder::new(2).label("d");
        let m0 = b.machine(&[10.0, 10.0]);
        let m1 = b.machine(&[10.0, 10.0]);
        let _x = b.exchange_machine(&[10.0, 10.0]);
        b.shard(&[4.0, 1.0], 1.0, m0);
        b.shard(&[3.0, 2.0], 1.0, m0);
        b.shard(&[1.0, 1.0], 1.0, m1);
        b.shard(&[1.5, 0.5], 1.0, m1);
        b.build().unwrap()
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn removal_count_bounds() {
        assert_eq!(removal_count(100, 0.1, 50), 10);
        // Floor of three: single-shard destroys cannot express swaps.
        assert_eq!(removal_count(100, 0.001, 50), 3);
        assert_eq!(removal_count(100, 0.9, 20), 20);
        assert_eq!(removal_count(5, 1.0, 100), 5);
        assert_eq!(removal_count(2, 0.1, 100), 2);
    }

    #[test]
    fn random_removal_detaches_requested_count() {
        let inst = inst();
        let p = SraProblem::new(&inst, Objective::default());
        let mut state = p.make_state(Assignment::from_initial(&inst));
        DestroyInPlace::destroy(&RandomRemoval { cap: 10 }, &p, &mut state, 0.75, &mut rng());
        assert_eq!(state.removed().len(), 3);
        for &s in state.removed() {
            assert!(state.solution().is_detached(s));
        }
        state.solution().validate_consistency(&inst).unwrap();
    }

    #[test]
    fn worst_machine_targets_hot_machine() {
        let inst = inst(); // m0 load 0.7, m1 load 0.25
        let p = SraProblem::new(&inst, Objective::default());
        let mut state = p.make_state(Assignment::from_initial(&inst));
        // With only two occupied machines, top-3 sampling may pick either,
        // but over many draws the hot machine must dominate.
        let mut from_hot = 0;
        let mut r = rng();
        for _ in 0..50 {
            DestroyInPlace::destroy(&WorstMachineRemoval { cap: 1 }, &p, &mut state, 0.1, &mut r);
            // The connectivity floor (3) overrides a smaller cap.
            assert_eq!(state.removed().len(), 3);
            if inst.initial[state.removed()[0].idx()] == MachineId(0) {
                from_hot += 1;
            }
            LnsProblemInPlace::revert(&p, &mut state);
        }
        assert!(
            from_hot > 10,
            "hot machine should be targeted often, got {from_hot}"
        );
    }

    #[test]
    fn related_removal_picks_similar_shards() {
        // Two clusters of identical shards; removing ~half must stay inside
        // one cluster when the seed is in it.
        let mut b = InstanceBuilder::new(2);
        let m0 = b.machine(&[100.0, 100.0]);
        let _m1 = b.machine(&[100.0, 100.0]);
        for _ in 0..6 {
            b.shard(&[5.0, 0.0], 1.0, m0);
        }
        for _ in 0..6 {
            b.shard(&[0.0, 5.0], 1.0, m0);
        }
        let inst = b.build().unwrap();
        let p = SraProblem::new(&inst, Objective::default());
        let mut state = p.make_state(Assignment::from_initial(&inst));
        // k = 3 (floor), candidate pool = 6 nearest = exactly one cluster.
        DestroyInPlace::destroy(&RelatedRemoval { cap: 3 }, &p, &mut state, 0.1, &mut rng());
        assert_eq!(state.removed().len(), 3);
        let kinds: Vec<usize> = state.removed().iter().map(|s| s.idx() / 6).collect();
        assert!(
            kinds.windows(2).all(|w| w[0] == w[1]),
            "related removal must stay within one demand cluster: {kinds:?}"
        );
    }

    #[test]
    fn machine_exchange_empties_exactly_one_machine() {
        let inst = inst();
        let p = SraProblem::new(&inst, Objective::default());
        let mut state = p.make_state(Assignment::from_initial(&inst));
        DestroyInPlace::destroy(
            &MachineExchangeRemoval { cap: 8 },
            &p,
            &mut state,
            0.5,
            &mut rng(),
        );
        // All removed shards come from the same, now-vacant machine.
        let origins: Vec<MachineId> = state
            .removed()
            .iter()
            .map(|s| inst.initial[s.idx()])
            .collect();
        assert!(origins.windows(2).all(|w| w[0] == w[1]));
        assert!(state.solution().is_vacant(origins[0]));
        state.solution().validate_consistency(&inst).unwrap();
    }

    #[test]
    fn machine_exchange_falls_back_when_no_small_machine() {
        let inst = inst(); // both occupied machines host 2 shards
        let p = SraProblem::new(&inst, Objective::default());
        let mut state = p.make_state(Assignment::from_initial(&inst));
        DestroyInPlace::destroy(
            &MachineExchangeRemoval { cap: 1 },
            &p,
            &mut state,
            0.5,
            &mut rng(),
        );
        assert_eq!(state.removed().len(), 1);
    }

    #[test]
    fn default_portfolio_has_four_operators() {
        let ops = default_destroys_in_place(32);
        let names: Vec<&str> = ops.iter().map(|o| o.name()).collect();
        assert_eq!(
            names,
            vec![
                "random-removal",
                "worst-machine",
                "related-removal",
                "machine-exchange"
            ]
        );
    }

    #[test]
    fn in_place_destroys_detach_and_revert_cleanly() {
        let inst = inst();
        let p = SraProblem::new(&inst, Objective::default());
        let mut state = p.make_state(Assignment::from_initial(&inst));
        let before = state.solution().placement().to_vec();
        let mut r = rng();
        for op in &default_destroys_in_place(8) {
            op.destroy(&p, &mut state, 0.5, &mut r);
            assert!(
                !state.removed().is_empty(),
                "{} detached nothing",
                op.name()
            );
            for &s in state.removed() {
                assert!(state.solution().is_detached(s));
            }
            state.solution().validate_consistency(&inst).unwrap();
            LnsProblemInPlace::revert(&p, &mut state);
            assert_eq!(state.solution().placement(), before.as_slice());
        }
    }

    proptest! {
        /// The one-pass top three equals the prefix of the full
        /// `(load desc, id asc)` sort it replaced — on loads with exact
        /// ties, with vacant machines in between, down to no occupied
        /// machine at all.
        #[test]
        fn hottest_three_is_the_sorted_prefix(
            shards_per_machine in proptest::collection::vec(0usize..4, 1..10),
            sizes in proptest::collection::vec(1u8..4, 27..28),
        ) {
            prop_assume!(shards_per_machine.iter().any(|&n| n > 0));
            let mut b = InstanceBuilder::new(1).k_return(0);
            let mut sizes = sizes.iter();
            for &n in &shards_per_machine {
                let m = b.machine(&[10.0]);
                for _ in 0..n {
                    b.shard(&[f64::from(*sizes.next().unwrap())], 1.0, m);
                }
            }
            let inst = b.build().unwrap();
            let p = SraProblem::new(&inst, Objective::default());
            let mut state = p.make_state(Assignment::from_initial(&inst));
            loop {
                let mut sorted: Vec<(f64, u32)> = (0..inst.n_machines())
                    .filter(|&i| !state.asg.is_vacant(MachineId::from(i)))
                    .map(|i| (state.loads[i], i as u32))
                    .collect();
                sorted.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
                let (hot, n_hot) = hottest_three(&state);
                prop_assert_eq!(n_hot, sorted.len().min(3));
                let want: Vec<u32> = sorted.iter().take(3).map(|&(_, m)| m).collect();
                prop_assert_eq!(&hot[..n_hot], &want[..]);
                // Shrink the hottest machine and look again.
                let Some(&(_, m)) = sorted.first() else { break };
                let s = state.asg.shards_on(MachineId::from(m as usize))[0];
                state.detach(&p, s);
            }
        }
    }
}
