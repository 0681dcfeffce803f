//! Pluggable replica selection.
//!
//! A policy sees a shard's replica block plus the shared SoA state and
//! returns one replica index. Policies are mutable (round-robin cursors,
//! token counts, probe pools) but allocation-free after construction, and
//! they draw randomness only from the named policy RNG stream the engine
//! passes in — determinism is the engine's job, not theirs.
//!
//! The engine holds an [`AnyPolicy`], the enum adapter that lets one
//! engine run every policy the config can name.

use crate::config::{PolicyKind, RouterConfig};
use crate::prequal::{Prequal, ProbeStats};
use crate::state::ReplicaState;
use crate::token::TokenBalancer;
use rand::rngs::StdRng;
use rand::RngExt;

/// Replica selection plus the feedback hooks the adaptive policies need.
/// `base` is the first replica of `shard`'s block and `r` the block size
/// (see [`ReplicaState::base`]).
pub trait RoutingPolicy {
    /// The policy's kind (stable name for spans and tables).
    fn kind(&self) -> PolicyKind;

    /// Picks the replica to serve one subrequest of `shard`.
    fn pick(
        &mut self,
        shard: u32,
        base: u32,
        r: u32,
        st: &ReplicaState,
        now: u64,
        rng: &mut StdRng,
    ) -> u32;

    /// Replica to probe alongside this pick (Prequal), if any. The engine
    /// schedules the reply `probe_rtt_us` later.
    fn probe_target(
        &mut self,
        _shard: u32,
        _base: u32,
        _r: u32,
        _now: u64,
        _rng: &mut StdRng,
    ) -> Option<u32> {
        None
    }

    /// A probe reply arrived: `rif`/`ewma_us` are the replica's state at
    /// reply time.
    fn on_probe_reply(&mut self, _shard: u32, _replica: u32, _rif: u32, _ewma_us: f64, _now: u64) {}

    /// A subrequest completed on `replica`.
    fn on_complete(&mut self, _replica: u32) {}

    /// Probe-economy counters, if this policy probes (Prequal; the rest
    /// report `None` and the run's probe fields stay zero).
    fn probe_stats(&self) -> Option<ProbeStats> {
        None
    }
}

/// Uniform random replica — the floor every informed policy must beat.
pub struct Random;

impl RoutingPolicy for Random {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Random
    }

    #[inline]
    fn pick(
        &mut self,
        _shard: u32,
        base: u32,
        r: u32,
        _st: &ReplicaState,
        _now: u64,
        rng: &mut StdRng,
    ) -> u32 {
        base + rng.random_range(0..r)
    }
}

/// Per-shard round-robin: perfectly even in counts, blind to state.
pub struct RoundRobin {
    next: Vec<u32>,
}

impl RoundRobin {
    /// Cursors for `n_shards` shards.
    pub fn new(n_shards: usize) -> Self {
        Self {
            next: vec![0; n_shards],
        }
    }
}

impl RoutingPolicy for RoundRobin {
    fn kind(&self) -> PolicyKind {
        PolicyKind::RoundRobin
    }

    #[inline]
    fn pick(
        &mut self,
        shard: u32,
        base: u32,
        r: u32,
        _st: &ReplicaState,
        _now: u64,
        _rng: &mut StdRng,
    ) -> u32 {
        let c = &mut self.next[shard as usize];
        let picked = base + *c;
        *c += 1;
        if *c == r {
            *c = 0;
        }
        picked
    }
}

/// Best of `d` sampled replicas by queue depth (power of d choices,
/// sampling with replacement; first minimum wins, so ties break
/// deterministically toward the earlier draw).
pub struct PowerOfD {
    d: u32,
}

impl PowerOfD {
    /// Power of `d` choices.
    pub fn new(d: usize) -> Self {
        Self { d: d as u32 }
    }
}

impl RoutingPolicy for PowerOfD {
    fn kind(&self) -> PolicyKind {
        PolicyKind::PowerOfD
    }

    #[inline]
    fn pick(
        &mut self,
        _shard: u32,
        base: u32,
        r: u32,
        st: &ReplicaState,
        _now: u64,
        rng: &mut StdRng,
    ) -> u32 {
        let mut best = base + rng.random_range(0..r);
        for _ in 1..self.d {
            let cand = base + rng.random_range(0..r);
            if st.queue_depth[cand as usize] < st.queue_depth[best as usize] {
                best = cand;
            }
        }
        best
    }
}

/// Enum adapter: the one engine runs every policy through it (static
/// dispatch per arm).
pub enum AnyPolicy {
    /// See [`Random`].
    Random(Random),
    /// See [`RoundRobin`].
    RoundRobin(RoundRobin),
    /// See [`PowerOfD`].
    PowerOfD(PowerOfD),
    /// See [`Prequal`].
    Prequal(Prequal),
    /// See [`TokenBalancer`].
    Token(TokenBalancer),
}

impl AnyPolicy {
    /// Builds the policy `cfg.policy` names, sized for `n_shards`.
    pub fn from_config(cfg: &RouterConfig, n_shards: usize) -> Self {
        match cfg.policy {
            PolicyKind::Random => AnyPolicy::Random(Random),
            PolicyKind::RoundRobin => AnyPolicy::RoundRobin(RoundRobin::new(n_shards)),
            PolicyKind::PowerOfD => AnyPolicy::PowerOfD(PowerOfD::new(cfg.d_choices)),
            PolicyKind::Prequal => AnyPolicy::Prequal(Prequal::from_config(cfg, n_shards)),
            PolicyKind::Token => AnyPolicy::Token(TokenBalancer::new(
                n_shards * cfg.replication,
                cfg.token_init,
            )),
        }
    }
}

impl RoutingPolicy for AnyPolicy {
    fn kind(&self) -> PolicyKind {
        match self {
            AnyPolicy::Random(p) => p.kind(),
            AnyPolicy::RoundRobin(p) => p.kind(),
            AnyPolicy::PowerOfD(p) => p.kind(),
            AnyPolicy::Prequal(p) => p.kind(),
            AnyPolicy::Token(p) => p.kind(),
        }
    }

    #[inline]
    fn pick(
        &mut self,
        shard: u32,
        base: u32,
        r: u32,
        st: &ReplicaState,
        now: u64,
        rng: &mut StdRng,
    ) -> u32 {
        match self {
            AnyPolicy::Random(p) => p.pick(shard, base, r, st, now, rng),
            AnyPolicy::RoundRobin(p) => p.pick(shard, base, r, st, now, rng),
            AnyPolicy::PowerOfD(p) => p.pick(shard, base, r, st, now, rng),
            AnyPolicy::Prequal(p) => p.pick(shard, base, r, st, now, rng),
            AnyPolicy::Token(p) => p.pick(shard, base, r, st, now, rng),
        }
    }

    #[inline]
    fn probe_target(
        &mut self,
        shard: u32,
        base: u32,
        r: u32,
        now: u64,
        rng: &mut StdRng,
    ) -> Option<u32> {
        match self {
            AnyPolicy::Prequal(p) => p.probe_target(shard, base, r, now, rng),
            _ => None,
        }
    }

    #[inline]
    fn on_probe_reply(&mut self, shard: u32, replica: u32, rif: u32, ewma_us: f64, now: u64) {
        if let AnyPolicy::Prequal(p) = self {
            p.on_probe_reply(shard, replica, rif, ewma_us, now);
        }
    }

    #[inline]
    fn on_complete(&mut self, replica: u32) {
        match self {
            AnyPolicy::Prequal(p) => p.on_complete(replica),
            AnyPolicy::Token(p) => p.on_complete(replica),
            _ => {}
        }
    }

    fn probe_stats(&self) -> Option<ProbeStats> {
        match self {
            AnyPolicy::Prequal(p) => p.probe_stats(),
            _ => None,
        }
    }
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
        let mut p = RoundRobin::new(2);
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
        let mut p = PowerOfD::new(4);
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
        let mut p = Random;
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
            let mut p = PowerOfD::new(2);
            (0..50).map(|_| p.pick(0, 0, 4, &st, 0, &mut rng)).collect()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different streams should diverge");
    }
}
