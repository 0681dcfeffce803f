//! Bridge between the query-level router and the tick-level solver world.
//!
//! Two directions:
//!
//! * **Instance → router**: [`build_fleet`] derives the replica map and
//!   machine utilization state from a validated
//!   [`rex_cluster::Instance`] — shard `s`'s primary replica sits on
//!   `inst.initial[s]`, the `R−1` extras spread over distinct machines by
//!   a deterministic rotation, and each replica contributes `demand/R` of
//!   its shard's CPU demand to its machine's ρ (the same load that feeds
//!   the `1/(1−ρ)` straggler service shape).
//! * **Router → SRA**: [`Coupling`] counts per-shard arrivals in a
//!   window; on each poll it renormalizes the observed traffic into a
//!   fresh one-dimensional `Instance` (primaries as the initial
//!   placement), runs the rex-core LNS search over it, and applies the
//!   resulting shard moves as *replica-map mutations mid-run* — queue
//!   depths, in-flight work, and probe pools all survive the move, only
//!   the machine (and hence the service rate) changes.

use crate::config::SraCoupling;
use crate::state::{MachineState, ReplicaState};
use rex_cluster::{Instance, InstanceBuilder, Objective};
use rex_core::{run_search, SraConfig, SraProblem};
use rex_obs::Recorder;

/// Replica placement + machine state derived from `inst` (see module
/// docs). Also returns `shares[s]`: the per-replica demand share of shard
/// `s` in the machine-load accounting.
pub fn build_fleet(
    inst: &Instance,
    replication: usize,
    ewma_init_us: f64,
    rho_max: f64,
) -> (ReplicaState, MachineState, Vec<f64>) {
    let n_m = inst.n_machines();
    let n_s = inst.n_shards();
    let mut st = ReplicaState::new(n_s, replication, ewma_init_us);
    let cap: Vec<f64> = (0..n_m)
        .map(|m| inst.machines[m].capacity.as_slice()[0])
        .collect();
    let mut ms = MachineState::new(cap, rho_max);
    let mut shares = Vec::with_capacity(n_s);
    for s in 0..n_s {
        let share = inst.demand(rex_cluster::ShardId::from(s)).as_slice()[0] / replication as f64;
        shares.push(share);
        let primary = inst.initial[s].idx();
        for j in 0..replication {
            // j = 0 is the primary; extras rotate over the other machines
            // with a shard-dependent offset, so two replicas of one shard
            // never share a machine (as long as R ≤ M) and different
            // shards spread differently.
            let m = if j == 0 || n_m == 1 {
                primary
            } else {
                (primary + 1 + (s + j - 1) % (n_m - 1)) % n_m
            };
            let r = st.base(s as u32) as usize + j;
            st.machine[r] = m as u32;
            ms.load[m] += share;
        }
    }
    for m in 0..n_m {
        ms.recompute(m);
    }
    (st, ms, shares)
}

/// Moves shard `s`'s *primary* replica to machine `to`, carrying its
/// steady demand share and any live flash-crowd surcharge with it.
/// Returns `false` (and does nothing) when the primary is already there.
///
/// This is the **single** replica-map mutation path: the mid-run SRA
/// [`Coupling`] and the runtime's event backend (mirroring executor batch
/// moves, `rex_runtime::Simulation`) both apply placement changes through
/// it, so the replica map cannot drift from whichever control plane owns
/// the decision — the "one source of truth" contract of DESIGN.md §14.
/// The float operation order (load first, then surcharge, each with both
/// factors recomputed) is part of that contract: the runtime asserts its
/// `Assignment` usage and this machine state stay bit-equal on the steady
/// component.
pub fn move_primary(
    st: &mut ReplicaState,
    ms: &mut MachineState,
    s: usize,
    to: usize,
    share: f64,
    spike_share: f64,
) -> bool {
    let primary = st.base(s as u32) as usize;
    let from = st.machine[primary] as usize;
    if to == from {
        return false;
    }
    ms.move_share(from, to, share);
    if spike_share != 0.0 {
        ms.spike_extra[from] -= spike_share;
        ms.spike_extra[to] += spike_share;
        ms.recompute(from);
        ms.recompute(to);
    }
    st.machine[primary] = to as u32;
    true
}

/// Mid-run SRA reassignment state: the observed-traffic window plus the
/// apply hook. `Clone` snapshots the coupling — window, solve counter, and
/// derived seed — so a run restarted from mid-run clones replays the exact
/// same solve sequence (resumability invariant).
#[derive(Clone)]
pub struct Coupling {
    /// Per-shard arrivals since the last poll.
    pub window: Vec<u64>,
    /// Solves run so far.
    pub solves: u64,
    /// Replica-map moves applied so far.
    pub moves_applied: u64,
    cfg: SraCoupling,
    seed: u64,
}

impl Coupling {
    /// A coupling for `n_shards` shards under master seed `seed`.
    pub fn new(cfg: SraCoupling, n_shards: usize, seed: u64) -> Self {
        Self {
            window: vec![0; n_shards],
            solves: 0,
            moves_applied: 0,
            cfg,
            // Named stream: the coupling's solves never share randomness
            // with arrivals/service/policy.
            seed: seed ^ 0x5EA5_0C0D_E55A_0001,
        }
    }

    /// Notes one query arrival on `shard`.
    #[inline]
    pub fn note_arrival(&mut self, shard: u32) {
        self.window[shard as usize] += 1;
    }

    /// Builds the observed-traffic snapshot instance: demand proportional
    /// to window counts (floor 1 so idle shards stay movable), normalized
    /// to `snapshot_utilization` of total capacity and rescaled further if
    /// any machine's initial usage would overflow (a flash crowd can pile
    /// more observed demand on a machine than it has capacity — the
    /// *relative* imbalance is what the solver needs to see).
    fn snapshot(&self, st: &ReplicaState, ms: &MachineState) -> Instance {
        let n_s = self.window.len();
        let n_m = ms.len();
        let total_cap: f64 = ms.cap.iter().sum();
        let total_obs: f64 = self.window.iter().map(|&c| c.max(1) as f64).sum();
        let scale = self.cfg.snapshot_utilization * total_cap / total_obs;
        let demand: Vec<f64> = self
            .window
            .iter()
            .map(|&c| c.max(1) as f64 * scale)
            .collect();
        // Per-machine feasibility: compute primary usage, shrink globally.
        let mut usage = vec![0.0; n_m];
        for s in 0..n_s {
            usage[st.machine[st.base(s as u32) as usize] as usize] += demand[s];
        }
        let worst = (0..n_m)
            .map(|m| usage[m] / ms.cap[m])
            .fold(0.0f64, f64::max);
        let shrink = if worst > 1.0 { 0.999 / worst } else { 1.0 };
        let mut b = InstanceBuilder::new(1).label("router-traffic-snapshot");
        let machines: Vec<_> = ms.cap.iter().map(|&c| b.machine(&[c])).collect();
        for s in 0..n_s {
            b.shard(
                &[demand[s] * shrink],
                1.0,
                machines[st.machine[st.base(s as u32) as usize] as usize],
            );
        }
        b.build()
            .expect("traffic snapshot is feasible by construction")
    }

    /// Runs one poll: search over the traffic snapshot, then mutate the
    /// replica map (primaries only — extras keep serving where they are).
    /// `spike_share[s]` is the flash-crowd surcharge currently attributed
    /// to shard `s`'s primary, which must travel with it. Returns the
    /// moves applied.
    pub fn poll(
        &mut self,
        st: &mut ReplicaState,
        ms: &mut MachineState,
        shares: &[f64],
        spike_share: &[f64],
    ) -> usize {
        let snap = self.snapshot(st, ms);
        let problem = SraProblem::new(&snap, Objective::pure()).without_plan_checks();
        let seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.solves);
        let cfg = SraConfig {
            iters: self.cfg.iters,
            seed,
            workers: 1,
            objective: Objective::pure(),
            ..Default::default()
        };
        let (best, _iters, _, _) =
            run_search(&problem, &cfg, seed, &mut Recorder::noop()).expect("snapshot search");
        let mut applied = 0;
        for s in 0..self.window.len() {
            let to = best.placement()[s].idx();
            if move_primary(st, ms, s, to, shares[s], spike_share[s]) {
                applied += 1;
            }
        }
        self.solves += 1;
        self.moves_applied += applied as u64;
        for c in &mut self.window {
            *c = 0;
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_cluster::ShardId;

    fn small_instance() -> Instance {
        let mut b = InstanceBuilder::new(1).label("bridge-test");
        let m: Vec<_> = (0..4).map(|_| b.machine(&[10.0])).collect();
        for s in 0..12 {
            b.shard(&[1.0], 1.0, m[s % 4]);
        }
        b.build().unwrap()
    }

    #[test]
    fn fleet_spreads_replicas_and_accounts_load() {
        let inst = small_instance();
        let (st, ms, shares) = build_fleet(&inst, 3, 100.0, 0.98);
        assert_eq!(st.len(), 36);
        assert_eq!(shares[0], 1.0 / 3.0);
        // Primary matches the instance placement.
        for s in 0..12usize {
            assert_eq!(
                st.machine[st.base(s as u32) as usize],
                inst.initial[s].idx() as u32
            );
            // Replicas of one shard sit on distinct machines (R <= M).
            let b = st.base(s as u32) as usize;
            let ms_of: Vec<u32> = st.machine[b..b + 3].to_vec();
            assert_eq!(
                ms_of.len(),
                ms_of.iter().collect::<std::collections::HashSet<_>>().len()
            );
        }
        // Total load equals total demand.
        let total: f64 = ms.load.iter().sum();
        let demand: f64 = (0..12)
            .map(|s| inst.demand(ShardId::from(s)).as_slice()[0])
            .sum();
        assert!((total - demand).abs() < 1e-9);
    }

    #[test]
    fn coupling_moves_primaries_toward_observed_traffic() {
        let inst = small_instance();
        let (mut st, mut ms, shares) = build_fleet(&inst, 3, 100.0, 0.98);
        let mut c = Coupling::new(
            SraCoupling {
                every_us: 1000,
                iters: 800,
                snapshot_utilization: 0.6,
            },
            12,
            7,
        );
        // All observed traffic lands on machine 0's shards (0, 4, 8).
        for _ in 0..1000 {
            c.note_arrival(0);
            c.note_arrival(4);
            c.note_arrival(8);
        }
        let spike = vec![0.0; 12];
        let before_rho0 = ms.rho(0);
        let applied = c.poll(&mut st, &mut ms, &shares, &spike);
        assert!(applied > 0, "skewed traffic must trigger moves");
        assert!(ms.rho(0) < before_rho0, "machine 0 must shed load");
        assert_eq!(c.solves, 1);
        // Window resets.
        assert!(c.window.iter().all(|&w| w == 0));
        // The replica map mutated mid-run: at least one primary moved.
        assert!((0..12)
            .any(|s| st.machine[st.base(s) as usize] != inst.initial[s as usize].idx() as u32));
    }

    /// The resumability invariant: a run that polls the coupling at
    /// T0..T2 equals a run restarted from a mid-run snapshot (clones of
    /// `ReplicaState`/`MachineState`/`Coupling` taken just before T1) —
    /// bit-identical replica map, machine loads, and surcharges after
    /// every subsequent poll. Mid-run replica-map mutation carries no
    /// hidden state outside the cloned structs.
    #[test]
    fn poll_after_snapshot_equals_uninterrupted_run() {
        let inst = small_instance();
        let (mut st, mut ms, shares) = build_fleet(&inst, 3, 100.0, 0.98);
        let cfg = SraCoupling {
            every_us: 1000,
            iters: 400,
            snapshot_utilization: 0.6,
        };
        let mut c = Coupling::new(cfg, 12, 7);
        // A nonzero surcharge on shard 2 travels with its primary.
        let mut spike = vec![0.0; 12];
        spike[2] = 0.4;
        ms.spike_extra[st.machine[st.base(2) as usize] as usize] += 0.4;
        let traffic = |c: &mut Coupling, phase: u64| {
            for s in 0..12u32 {
                for _ in 0..((s as u64 * 37 + phase * 13) % 97) {
                    c.note_arrival(s);
                }
            }
        };

        // Poll T0 happens before the snapshot on the original run.
        traffic(&mut c, 0);
        c.poll(&mut st, &mut ms, &shares, &spike);

        // Snapshot: clones are the entire resumable state.
        let (mut st2, mut ms2, mut c2) = (st.clone(), ms.clone(), c.clone());

        for phase in 1..3u64 {
            traffic(&mut c, phase);
            traffic(&mut c2, phase);
            let a = c.poll(&mut st, &mut ms, &shares, &spike);
            let b = c2.poll(&mut st2, &mut ms2, &shares, &spike);
            assert_eq!(a, b, "poll {phase} applied different move counts");
            assert_eq!(st.machine, st2.machine, "replica map diverged");
            for m in 0..ms.len() {
                assert_eq!(
                    ms.load[m].to_bits(),
                    ms2.load[m].to_bits(),
                    "machine {m} load diverged after poll {phase}"
                );
                assert_eq!(
                    ms.spike_extra[m].to_bits(),
                    ms2.spike_extra[m].to_bits(),
                    "machine {m} surcharge diverged after poll {phase}"
                );
            }
        }
        assert_eq!(c.solves, c2.solves);
        assert_eq!(c.moves_applied, c2.moves_applied);
        assert_eq!(c.solves, 3, "both runs saw all three polls");
    }

    #[test]
    fn poll_is_deterministic() {
        let run = || {
            let inst = small_instance();
            let (mut st, mut ms, shares) = build_fleet(&inst, 3, 100.0, 0.98);
            let mut c = Coupling::new(SraCoupling::default(), 12, 7);
            for s in 0..12u32 {
                for _ in 0..(s as u64 * 37 % 101) {
                    c.note_arrival(s);
                }
            }
            let spike = vec![0.0; 12];
            c.poll(&mut st, &mut ms, &shares, &spike);
            st.machine.clone()
        };
        assert_eq!(run(), run());
    }
}
