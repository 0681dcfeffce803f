//! Prequal-style probing ("Load is not what you should balance",
//! PAPERS.md): instead of balancing offered load, probe replicas
//! asynchronously, keep a small per-shard pool of recent answers, classify
//! entries **hot** (requests-in-flight at or above `HOT_RIF`) or
//! **cold**, and route to the lowest-estimated-latency cold replica —
//! falling back to lowest RIF when everything is hot, and to power-of-d
//! over live queue depths when the pool is empty (probes still in flight
//! or expired). Every pick sends one probe.
//!
//! Pool entries are reused across picks up to `PROBE_MAX_USES` times and
//! expire after `PROBE_EXPIRY_US`; both guards keep the router off stale
//! signals. All storage is flat arrays sized at construction — pool
//! maintenance never allocates.

use crate::policy::{power_of_d, round_robin};
use crate::state::ReplicaState;
use rand::rngs::StdRng;

/// Per-shard probe-pool capacity.
const PROBE_POOL: usize = 16;
/// Pool entries older than this are discarded (µs).
const PROBE_EXPIRY_US: u64 = 5_000;
/// A pool entry serves at most this many picks before it is discarded
/// (reuse budget).
const PROBE_MAX_USES: u32 = 3;
/// Entries with requests-in-flight at or above this are hot.
const HOT_RIF: u32 = 4;

/// One probe answer: the probed replica's state at reply time.
#[derive(Clone, Copy, Debug)]
struct ProbeEntry {
    replica: u32,
    rif: u32,
    ewma_us: f64,
    born: u64,
    uses: u32,
}

/// Probe-economy counters (reported per run and exposed as obs counters).
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeStats {
    /// Picks answered from the pool.
    pub pool_hits: u64,
    /// Picks that fell back to power-of-d (empty pool).
    pub pool_misses: u64,
    /// Entries dropped for age.
    pub expired: u64,
    /// Entries dropped for exhausting their reuse budget.
    pub exhausted: u64,
    /// Picks that had to settle for a hot replica (no cold candidate).
    pub hot_picks: u64,
}

/// The probing policy. See the module docs.
pub struct Prequal {
    /// Flat pool: shard `s` owns `pool[s·PROBE_POOL .. s·PROBE_POOL + len[s]]`.
    pool: Vec<ProbeEntry>,
    len: Vec<u32>,
    /// Round-robin probe cursor (probes sweep the block so the pool sees
    /// every replica, not just the random winner).
    probe_next: Vec<u32>,
    d: u32,
    /// Probe-economy counters.
    pub stats: ProbeStats,
}

impl Prequal {
    /// A pool sized for `n_shards` shards; an empty pool falls back to
    /// power of `max(d_choices, 2)`.
    pub fn new(n_shards: usize, d_choices: usize) -> Self {
        Self {
            pool: vec![
                ProbeEntry {
                    replica: 0,
                    rif: 0,
                    ewma_us: 0.0,
                    born: 0,
                    uses: 0,
                };
                n_shards * PROBE_POOL
            ],
            len: vec![0; n_shards],
            probe_next: vec![0; n_shards],
            d: d_choices.max(2) as u32,
            stats: ProbeStats::default(),
        }
    }

    /// Drops expired and use-exhausted entries of `shard`, preserving the
    /// order of survivors (swap-free compaction keeps it deterministic).
    fn sweep(&mut self, shard: u32, now: u64) {
        let s = shard as usize;
        let start = s * PROBE_POOL;
        let n = self.len[s] as usize;
        let mut kept = 0usize;
        for i in 0..n {
            let e = self.pool[start + i];
            if now.saturating_sub(e.born) > PROBE_EXPIRY_US {
                self.stats.expired += 1;
            } else if e.uses >= PROBE_MAX_USES {
                self.stats.exhausted += 1;
            } else {
                self.pool[start + kept] = e;
                kept += 1;
            }
        }
        self.len[s] = kept as u32;
    }

    /// Picks `shard`'s replica from its pool after sweeping it.
    pub fn pick(
        &mut self,
        shard: u32,
        base: u32,
        r: u32,
        st: &ReplicaState,
        now: u64,
        rng: &mut StdRng,
    ) -> u32 {
        self.sweep(shard, now);
        let s = shard as usize;
        let start = s * PROBE_POOL;
        let n = self.len[s] as usize;
        if n == 0 {
            // Pool dry: power-of-d over live queue depths.
            self.stats.pool_misses += 1;
            return power_of_d(self.d, base, r, st, rng);
        }
        // Hot/cold classification: among cold entries take the lowest
        // estimated latency; if everything is hot, take the lowest RIF.
        // First winner keeps ties deterministic.
        let mut cold_best: Option<usize> = None;
        let mut hot_best: usize = 0;
        for i in 0..n {
            let e = &self.pool[start + i];
            if e.rif < HOT_RIF {
                if cold_best.is_none_or(|b| e.ewma_us < self.pool[start + b].ewma_us) {
                    cold_best = Some(i);
                }
            } else if self.pool[start + i].rif < self.pool[start + hot_best].rif {
                hot_best = i;
            }
        }
        let chosen = match cold_best {
            Some(i) => i,
            None => {
                self.stats.hot_picks += 1;
                hot_best
            }
        };
        self.stats.pool_hits += 1;
        self.pool[start + chosen].uses += 1;
        self.pool[start + chosen].replica
    }

    /// The replica this pick probes: the next one of `shard`'s block in
    /// round-robin order.
    pub fn probe_target(&mut self, shard: u32, base: u32, r: u32) -> u32 {
        round_robin(&mut self.probe_next, shard, base, r)
    }

    /// Files a probe reply into `shard`'s pool.
    pub fn on_probe_reply(&mut self, shard: u32, replica: u32, rif: u32, ewma_us: f64, now: u64) {
        let s = shard as usize;
        let start = s * PROBE_POOL;
        let n = self.len[s] as usize;
        let entry = ProbeEntry {
            replica,
            rif,
            ewma_us,
            born: now,
            uses: 0,
        };
        // A fresh answer supersedes any older entry for the same replica.
        for i in 0..n {
            if self.pool[start + i].replica == replica {
                self.pool[start + i] = entry;
                return;
            }
        }
        if n < PROBE_POOL {
            self.pool[start + n] = entry;
            self.len[s] += 1;
        } else {
            // Full pool: replace the oldest entry.
            let mut oldest = 0usize;
            for i in 1..n {
                if self.pool[start + i].born < self.pool[start + oldest].born {
                    oldest = i;
                }
            }
            self.pool[start + oldest] = entry;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn policy(n_shards: usize) -> Prequal {
        Prequal::new(n_shards, 2)
    }

    #[test]
    fn routes_to_coldest_known_replica() {
        let st = ReplicaState::new(1, 4, 100.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = policy(1);
        p.on_probe_reply(0, 0, 6, 50.0, 10); // hot
        p.on_probe_reply(0, 1, 1, 80.0, 10); // cold, slower
        p.on_probe_reply(0, 2, 2, 30.0, 10); // cold, fastest -> winner
        assert_eq!(p.pick(0, 0, 4, &st, 11, &mut rng), 2);
        assert_eq!(p.stats.pool_hits, 1);
    }

    #[test]
    fn all_hot_falls_back_to_lowest_rif() {
        let st = ReplicaState::new(1, 4, 100.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = policy(1);
        p.on_probe_reply(0, 0, 9, 50.0, 10);
        p.on_probe_reply(0, 3, 5, 90.0, 10);
        assert_eq!(p.pick(0, 0, 4, &st, 11, &mut rng), 3);
        assert_eq!(p.stats.hot_picks, 1);
    }

    #[test]
    fn entries_expire_and_exhaust() {
        let st = ReplicaState::new(1, 4, 100.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = policy(1);
        p.on_probe_reply(0, 1, 0, 10.0, 10);
        // PROBE_MAX_USES (3) uses allowed...
        for now in 20..23 {
            assert_eq!(p.pick(0, 0, 4, &st, now, &mut rng), 1);
        }
        // ...then the entry is swept and the pick falls back.
        p.pick(0, 0, 4, &st, 23, &mut rng);
        assert_eq!(p.stats.exhausted, 1);
        assert_eq!(p.stats.pool_misses, 1);
        // Expiry: a fresh entry lives PROBE_EXPIRY_US (5 000 µs), no longer.
        p.on_probe_reply(0, 2, 0, 10.0, 100);
        assert_eq!(p.pick(0, 0, 4, &st, 5_100, &mut rng), 2);
        p.pick(0, 0, 4, &st, 5_101, &mut rng);
        assert_eq!(p.stats.expired, 1);
        assert_eq!(p.stats.pool_misses, 2);
    }

    #[test]
    fn newer_reply_supersedes_same_replica() {
        let st = ReplicaState::new(1, 4, 100.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = policy(1);
        p.on_probe_reply(0, 1, 0, 10.0, 10);
        p.on_probe_reply(0, 1, 9, 10.0, 11); // now hot
        p.on_probe_reply(0, 2, 1, 40.0, 11);
        // Replica 1's stale cold reading must not survive.
        assert_eq!(p.pick(0, 0, 4, &st, 12, &mut rng), 2);
    }

    #[test]
    fn full_pool_replaces_the_oldest_entry() {
        let st = ReplicaState::new(1, 20, 100.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = policy(1);
        // Replica 0 answers first and coldest; fifteen hot replies fill
        // the 16-entry pool, and the 17th reply evicts replica 0.
        p.on_probe_reply(0, 0, 0, 1.0, 10);
        for rep in 1..=PROBE_POOL as u32 {
            p.on_probe_reply(0, rep, 5 + rep, 50.0, 10 + u64::from(rep));
        }
        let live = live_entries(&p, 0);
        assert_eq!(live.len(), PROBE_POOL);
        assert_eq!(
            live[0].replica, PROBE_POOL as u32,
            "the oldest slot is reused"
        );
        assert!(live.iter().all(|e| e.replica != 0));
        // Everything left is hot: the lowest RIF (replica 1) wins.
        assert_eq!(p.pick(0, 0, 20, &st, 40, &mut rng), 1);
        assert_eq!(p.stats.hot_picks, 1);
    }

    #[test]
    fn probe_targets_sweep_the_block() {
        let mut p = policy(1);
        let targets: Vec<u32> = (0..5).map(|_| p.probe_target(0, 0, 4)).collect();
        assert_eq!(targets, vec![0, 1, 2, 3, 0]);
    }

    /// Snapshot of one shard's live pool keyed by `(replica, born)` — the
    /// pair is unique because a fresh reply supersedes its replica's entry.
    fn live_entries(p: &Prequal, shard: u32) -> Vec<ProbeEntry> {
        let start = shard as usize * PROBE_POOL;
        p.pool[start..start + p.len[shard as usize] as usize].to_vec()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Pool invariants under arbitrary reply/pick traffic:
        ///
        /// * a shard's pool never exceeds its capacity and never holds two
        ///   entries for the same replica,
        /// * an expired or use-exhausted entry is never selected (every
        ///   pool hit returns a replica whose entry was live at pick time),
        /// * the reuse budget decrements exactly once per routed pick — the
        ///   chosen entry's `uses` rises by one, every other surviving
        ///   entry is untouched.
        ///
        /// Seven ops in ten are replies over 20-replica blocks, so pools
        /// fill past their 16 entries; one in forty jumps the clock past
        /// the expiry and picks.
        #[test]
        fn pool_respects_capacity_expiry_and_reuse_budget(
            ops in proptest::collection::vec(
                (0u8..40, 0u32..2, 0u32..20, 0u32..10, 1.0f64..200.0, 0u64..60),
                1..400,
            ),
        ) {
            let n_shards = 2usize;
            let r = 20u32;
            let mut p = policy(n_shards);
            let st = ReplicaState::new(n_shards, r as usize, 100.0);
            let mut rng = StdRng::seed_from_u64(0x9E37);
            let mut now = 1u64;
            for &(op, shard, rep, rif, ewma, dt) in &ops {
                now += dt;
                if op == 39 {
                    now += PROBE_EXPIRY_US;
                }
                let base = shard * r;
                if op < 28 {
                    p.on_probe_reply(shard, base + rep, rif, ewma, now);
                } else {
                    let before = live_entries(&p, shard);
                    let hits = p.stats.pool_hits;
                    let chosen = p.pick(shard, base, r, &st, now, &mut rng);
                    prop_assert!(
                        (base..base + r).contains(&chosen),
                        "pick left the shard's replica block"
                    );
                    let after = live_entries(&p, shard);
                    if p.stats.pool_hits > hits {
                        // Pool hit: the winner must have been live — fresh
                        // and under budget — when the pick ran.
                        let src = before
                            .iter()
                            .find(|e| e.replica == chosen)
                            .expect("pool hit must come from a pre-pick entry");
                        prop_assert!(
                            now.saturating_sub(src.born) <= PROBE_EXPIRY_US,
                            "expired probe selected"
                        );
                        prop_assert!(src.uses < PROBE_MAX_USES, "exhausted probe selected");
                        // Budget: exactly one entry gained exactly one use.
                        for e in &after {
                            let old = before
                                .iter()
                                .find(|o| (o.replica, o.born) == (e.replica, e.born))
                                .expect("pick must not invent entries");
                            let expect = old.uses + u32::from(e.replica == chosen);
                            prop_assert_eq!(e.uses, expect, "reuse budget misapplied");
                        }
                    } else {
                        // Pool miss: the sweep must have found nothing live.
                        for e in &before {
                            prop_assert!(
                                now.saturating_sub(e.born) > PROBE_EXPIRY_US
                                    || e.uses >= PROBE_MAX_USES,
                                "a live entry was ignored by a pool miss"
                            );
                        }
                    }
                }
                // Structural invariants after every operation.
                for s in 0..n_shards as u32 {
                    let live = live_entries(&p, s);
                    prop_assert!(live.len() <= PROBE_POOL, "pool over capacity");
                    for (i, a) in live.iter().enumerate() {
                        prop_assert!(a.uses <= PROBE_MAX_USES);
                        for b in &live[..i] {
                            prop_assert_ne!(a.replica, b.replica);
                        }
                    }
                }
            }
        }
    }
}
