//! Replica selection.
//!
//! A policy sees a shard's replica block plus the shared SoA state and
//! returns one replica index. Policies are mutable (round-robin cursors,
//! token counts, probe pools) but allocation-free after construction, and
//! they draw randomness only from the named policy RNG stream the engine
//! passes in — determinism is the engine's job, not theirs.
//!
//! The engine holds one [`Policy`], the arm `cfg.policy` names. `base` is
//! the first replica of `shard`'s block and `r` the block size (see
//! [`ReplicaState::base`]) in every method below.

use crate::config::{PolicyKind, RouterConfig};
use crate::prequal::{Prequal, ProbeStats};
use crate::state::ReplicaState;
use crate::token::TokenBalancer;
use rand::rngs::StdRng;
use rand::RngExt;

/// Every replica-selection policy the config can name.
pub enum Policy {
    /// Uniform random replica — the floor every informed policy must beat.
    Random,
    /// Per-shard round-robin over one cursor per shard: perfectly even in
    /// counts, blind to state.
    RoundRobin(Vec<u32>),
    /// Best of `d` sampled replicas by queue depth (`power_of_d`).
    PowerOfD(u32),
    /// See [`Prequal`].
    Prequal(Prequal),
    /// See [`TokenBalancer`].
    Token(TokenBalancer),
}

impl Policy {
    /// Builds the policy `cfg.policy` names, sized for `n_shards`.
    pub fn from_config(cfg: &RouterConfig, n_shards: usize) -> Self {
        match cfg.policy {
            PolicyKind::Random => Policy::Random,
            PolicyKind::RoundRobin => Policy::RoundRobin(vec![0; n_shards]),
            PolicyKind::PowerOfD => Policy::PowerOfD(cfg.d_choices as u32),
            PolicyKind::Prequal => Policy::Prequal(Prequal::new(n_shards, cfg.d_choices)),
            PolicyKind::Token => Policy::Token(TokenBalancer::new(n_shards * cfg.replication)),
        }
    }

    /// Picks the replica to serve one subrequest of `shard`.
    #[inline]
    pub fn pick(
        &mut self,
        shard: u32,
        base: u32,
        r: u32,
        st: &ReplicaState,
        now: u64,
        rng: &mut StdRng,
    ) -> u32 {
        match self {
            // One replica is the only pick: draw nothing. Replication is
            // fleet-wide and the policy stream feeds only picks, so the
            // draws skipped never reach a pick that could differ.
            Policy::Random | Policy::PowerOfD(_) if r == 1 => base,
            Policy::Random => base + rng.random_range(0..r),
            Policy::RoundRobin(next) => round_robin(next, shard, base, r),
            Policy::PowerOfD(d) => power_of_d(*d, base, r, st, rng),
            Policy::Prequal(p) => p.pick(shard, base, r, st, now, rng),
            Policy::Token(p) => p.pick(base, r),
        }
    }

    /// Replica to probe alongside this pick (Prequal, every pick), if any.
    /// The engine schedules the reply `PROBE_RTT_US` (the router's probe
    /// round-trip time) later.
    #[inline]
    pub fn probe_target(&mut self, shard: u32, base: u32, r: u32) -> Option<u32> {
        match self {
            Policy::Prequal(p) => Some(p.probe_target(shard, base, r)),
            _ => None,
        }
    }

    /// A probe reply arrived: `rif`/`ewma_us` are the replica's state at
    /// reply time.
    #[inline]
    pub fn on_probe_reply(&mut self, shard: u32, replica: u32, rif: u32, ewma_us: f64, now: u64) {
        if let Policy::Prequal(p) = self {
            p.on_probe_reply(shard, replica, rif, ewma_us, now);
        }
    }

    /// A subrequest completed on `replica`.
    #[inline]
    pub fn on_complete(&mut self, replica: u32) {
        if let Policy::Token(p) = self {
            p.on_complete(replica);
        }
    }

    /// Probe-economy counters: Prequal's; zero for the policies that do
    /// not probe.
    pub fn probe_stats(&self) -> ProbeStats {
        match self {
            Policy::Prequal(p) => p.stats,
            _ => ProbeStats::default(),
        }
    }
}

/// The replica `shard`'s cursor in `next` points at; advances the cursor
/// around the block.
#[inline]
pub(crate) fn round_robin(next: &mut [u32], shard: u32, base: u32, r: u32) -> u32 {
    let c = &mut next[shard as usize];
    let picked = base + *c;
    *c += 1;
    if *c == r {
        *c = 0;
    }
    picked
}

/// Best of `d` replicas of the block drawn with replacement, by queue
/// depth. The first minimum wins, so ties break deterministically toward
/// the earlier draw; `d` draws are made whatever the depths (one when
/// `d ≤ 1`).
#[inline]
pub(crate) fn power_of_d(d: u32, base: u32, r: u32, st: &ReplicaState, rng: &mut StdRng) -> u32 {
    let mut best = base + rng.random_range(0..r);
    for _ in 1..d {
        let cand = base + rng.random_range(0..r);
        if st.queue_depth[cand as usize] < st.queue_depth[best as usize] {
            best = cand;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn state() -> ReplicaState {
        let mut st = ReplicaState::new(2, 4, 100.0);
        st.queue_depth = vec![5, 0, 7, 3, 1, 1, 1, 1];
        st
    }

    #[test]
    fn round_robin_cycles_per_shard() {
        let st = state();
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = Policy::RoundRobin(vec![0; 2]);
        let picks: Vec<u32> = (0..5).map(|_| p.pick(0, 0, 4, &st, 0, &mut rng)).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0]);
        // Shard 1 has its own cursor.
        assert_eq!(p.pick(1, 4, 4, &st, 0, &mut rng), 4);
    }

    #[test]
    fn power_of_d_prefers_shorter_queues() {
        let st = state();
        let mut rng = StdRng::seed_from_u64(7);
        // With d = replica count a full scan is likely; over many picks the
        // deepest queue (replica 2, depth 7) must never win against
        // replica 1 (depth 0) when both are drawn.
        let mut p = Policy::PowerOfD(4);
        let mut wins = [0u32; 4];
        for _ in 0..400 {
            wins[p.pick(0, 0, 4, &st, 0, &mut rng) as usize] += 1;
        }
        assert!(wins[1] > wins[0]);
        assert!(wins[1] > wins[2]);
        assert!(wins[2] <= wins[3]);
    }

    #[test]
    fn random_stays_in_block() {
        let st = state();
        let mut rng = StdRng::seed_from_u64(3);
        let mut p = Policy::Random;
        for _ in 0..100 {
            let r = p.pick(1, 4, 4, &st, 0, &mut rng);
            assert!((4..8).contains(&r));
        }
    }

    #[test]
    fn same_seed_same_picks() {
        let st = state();
        let run = |seed: u64| -> Vec<u32> {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = Policy::PowerOfD(2);
            (0..50).map(|_| p.pick(0, 0, 4, &st, 0, &mut rng)).collect()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different streams should diverge");
    }

    /// A one-replica block is its only pick, and random and power-of-d
    /// leave the policy stream untouched there.
    #[test]
    fn one_replica_picks_draw_nothing() {
        let st = ReplicaState::new(8, 1, 100.0);
        for mut p in [Policy::Random, Policy::PowerOfD(2), Policy::PowerOfD(4)] {
            let mut rng = StdRng::seed_from_u64(23);
            let untouched = rng.clone();
            for shard in 0..8 {
                assert_eq!(p.pick(shard, shard, 1, &st, 0, &mut rng), shard);
            }
            assert_eq!(
                rng.clone().random::<u64>(),
                untouched.clone().random::<u64>(),
                "a one-replica pick drew from the policy stream"
            );
        }
    }

    /// Prequal's empty-pool pick is power of `max(d_choices, 2)`: from the
    /// same seed it returns the replicas `PowerOfD` returns, draw for draw.
    #[test]
    fn prequal_pool_miss_is_power_of_d() {
        let st = state();
        for d_choices in [1usize, 2, 3] {
            let picks = |mut p: Policy| -> Vec<u32> {
                let mut rng = StdRng::seed_from_u64(17);
                (0..60)
                    .map(|i| p.pick(i % 2, (i % 2) * 4, 4, &st, 0, &mut rng))
                    .collect()
            };
            let powd = Policy::PowerOfD(d_choices.max(2) as u32);
            let prequal = Policy::Prequal(Prequal::new(2, d_choices));
            assert_eq!(picks(prequal), picks(powd), "d_choices {d_choices}");
        }
    }
}
