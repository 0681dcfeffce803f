//! Bridge: search-engine measurements → cluster instances.
//!
//! This is where the "real data" of the reproduction comes from: shard
//! demand vectors are *measured* from the simulated engine rather than
//! drawn from a distribution —
//!
//! * **CPU** = postings traversed serving the query log (normalized),
//! * **memory** = index bytes (normalized),
//! * **disk** = raw token bytes (normalized),
//! * **move cost** = index bytes (what a migration actually copies).
//!
//! Machine capacities are then sized so the busiest dimension reaches the
//! requested *stringency* (aggregate utilization), and shards are placed
//! round-robin weighted by the dominant dimension — mimicking a fleet that
//! was balanced once, long ago, and has since drifted as traffic changed.

use crate::corpus::{Corpus, CorpusConfig};
use crate::engine::SearchEngine;
use crate::queries::{QueryConfig, QueryLog};
use rex_cluster::{ClusterError, Instance, InstanceBuilder, MachineId, ShardId};

/// Bridge parameters.
#[derive(Clone, Copy, Debug)]
pub struct BridgeConfig {
    /// Corpus generation.
    pub corpus: CorpusConfig,
    /// Query-log generation (its `vocab` is overridden to the corpus').
    pub queries: QueryConfig,
    /// Number of index shards (skewed-range partitioned).
    pub n_shards: usize,
    /// Number of (loaded) machines.
    pub n_machines: usize,
    /// Number of borrowed exchange machines appended.
    pub n_exchange: usize,
    /// Target aggregate utilization in the hottest dimension (0, 1).
    pub stringency: f64,
    /// Transient migration-overhead factor.
    pub alpha: f64,
}

impl Default for BridgeConfig {
    fn default() -> Self {
        Self {
            corpus: CorpusConfig::default(),
            queries: QueryConfig::default(),
            n_shards: 64,
            n_machines: 8,
            n_exchange: 2,
            stringency: 0.8,
            alpha: 0.1,
        }
    }
}

/// No shard demands more than this share of a machine in any dimension.
const MAX_SHARD_FRAC: f64 = 0.45;

/// Rejects settings the pipeline cannot honour, before anything is built.
fn validate(cfg: &BridgeConfig) -> Result<(), ClusterError> {
    let counts = [
        ("shards", cfg.n_shards),
        ("machines", cfg.n_machines),
        ("docs", cfg.corpus.n_docs),
        ("vocab", cfg.corpus.vocab),
        ("queries", cfg.queries.n_queries),
        ("max_terms", cfg.queries.max_terms),
    ];
    let reason = if let Some((name, _)) = counts.iter().find(|(_, n)| *n == 0) {
        format!("{name} must be at least 1")
    } else if !(cfg.stringency > 0.0 && cfg.stringency < 1.0) {
        format!("stringency must be in (0,1), got {}", cfg.stringency)
    } else if !(0.0..=1.0).contains(&cfg.queries.and_fraction) {
        format!(
            "and_fraction must be in [0,1], got {}",
            cfg.queries.and_fraction
        )
    } else {
        let target = cfg.n_machines as f64 * cfg.stringency;
        if target <= cfg.n_shards as f64 * MAX_SHARD_FRAC {
            return Ok(());
        }
        format!(
            "{} shards cannot reach stringency {} on {} machines with each capped at \
             {MAX_SHARD_FRAC} of a machine (at least {} needed)",
            cfg.n_shards,
            cfg.stringency,
            cfg.n_machines,
            (target / MAX_SHARD_FRAC).ceil()
        )
    };
    Err(ClusterError::BadGenerator { reason })
}

/// Runs the full pipeline (corpus → index → replay → instance).
///
/// The returned instance has `dims = 3` (cpu, mem, disk), homogeneous
/// unit-capacity machines, and a weighted round-robin initial placement.
///
/// # Errors
///
/// [`ClusterError::BadGenerator`] on settings the pipeline cannot honour
/// (a zero count, stringency outside `(0,1)`, `and_fraction` outside
/// `[0,1]`, too few shards to reach the stringency under the per-shard
/// cap), [`ClusterError::Unpackable`] when the placement finds no machine
/// with room for a shard, and instance validation errors.
pub fn build_instance(cfg: &BridgeConfig) -> Result<Instance, ClusterError> {
    validate(cfg)?;

    // Raw per-shard demands.
    let raw = measure(cfg);
    let cpu: Vec<f64> = raw.cost.iter().map(|&c| c as f64).collect();
    let mem: Vec<f64> = raw.size_bytes.iter().map(|&b| b as f64).collect();
    let disk: Vec<f64> = raw.n_tokens.iter().map(|&t| t as f64 * 4.0).collect();

    // Normalize each dimension so its total is `n_machines * stringency`,
    // against homogeneous unit-capacity machines — with individual demands
    // capped at 45% of a machine (clamp-and-rescale, like the synthetic
    // generator): skewed query traffic can concentrate enough cost on the
    // head shard that it would otherwise exceed a whole machine.
    let target = cfg.n_machines as f64 * cfg.stringency;
    let scale = |v: &[f64]| -> Vec<f64> {
        let mut out = v.to_vec();
        for _ in 0..32 {
            let total: f64 = out.iter().sum();
            let s = target / total;
            let mut clamped = false;
            for x in &mut out {
                *x *= s;
                if *x > MAX_SHARD_FRAC {
                    *x = MAX_SHARD_FRAC;
                    clamped = true;
                }
            }
            if !clamped {
                break;
            }
        }
        out
    };
    let cpu = scale(&cpu);
    let mem = scale(&mem);
    let disk = scale(&disk);

    let mut b = InstanceBuilder::new(3).alpha(cfg.alpha).label(format!(
        "searchsim(shards={},machines={},stringency={:.2},SkewedRange)",
        cfg.n_shards, cfg.n_machines, cfg.stringency
    ));
    let machines: Vec<MachineId> = (0..cfg.n_machines)
        .map(|_| b.machine(&[1.0, 1.0, 1.0]))
        .collect();
    for _ in 0..cfg.n_exchange {
        b.exchange_machine(&[1.0, 1.0, 1.0]);
    }

    // Weighted round-robin placement by dominant dimension: sort shards by
    // peak demand descending, place each on the machine with the lowest
    // current peak usage *ignoring* later drift.
    let mut order: Vec<usize> = (0..cfg.n_shards).collect();
    let peak = |i: usize| cpu[i].max(mem[i]).max(disk[i]);
    order.sort_by(|&a, &b| {
        peak(b)
            .partial_cmp(&peak(a))
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut usage = vec![[0.0f64; 3]; cfg.n_machines];
    let mut placement = vec![0usize; cfg.n_shards];
    let fits = |usage: &[[f64; 3]], h: usize, i: usize| {
        usage[h][0] + cpu[i] <= 1.0 && usage[h][1] + mem[i] <= 1.0 && usage[h][2] + disk[i] <= 1.0
    };
    for &i in &order {
        // Least-loaded by index size (dims 1–2) — deliberately ignoring
        // CPU, to create the drift the paper rebalances: the fleet was
        // laid out by index footprint long ago, and traffic (CPU) has
        // changed since. Hard capacity still binds: when the drift choice
        // would overflow (heavy query skew piling onto one machine), fall
        // back to the least-CPU-loaded machine that fits.
        let host = (0..cfg.n_machines)
            .filter(|&h| fits(&usage, h, i))
            .min_by(|&a, &b| {
                let la = usage[a][1].max(usage[a][2]);
                let lb = usage[b][1].max(usage[b][2]);
                la.partial_cmp(&lb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .ok_or(ClusterError::Unpackable {
                shard: ShardId(i as u32),
                stringency: cfg.stringency,
            })?;
        usage[host][0] += cpu[i];
        usage[host][1] += mem[i];
        usage[host][2] += disk[i];
        placement[i] = host;
    }

    for i in 0..cfg.n_shards {
        b.shard(&[cpu[i], mem[i], disk[i]], mem[i], machines[placement[i]]);
    }
    b.build()
}

/// What the pipeline measures per shard, before any normalization.
struct Measured {
    /// Postings traversed replaying the query log.
    cost: Vec<u64>,
    /// Index storage footprint.
    size_bytes: Vec<u64>,
    /// Indexed tokens.
    n_tokens: Vec<u64>,
}

/// Corpus → shards → index → query replay.
fn measure(cfg: &BridgeConfig) -> Measured {
    let corpus = Corpus::generate(&cfg.corpus);
    let engine = SearchEngine::build(&corpus, cfg.n_shards);
    let queries = QueryLog::generate(&QueryConfig {
        vocab: cfg.corpus.vocab,
        ..cfg.queries
    });
    Measured {
        cost: engine.replay(&queries),
        size_bytes: (0..cfg.n_shards)
            .map(|i| engine.shard(i).size_bytes())
            .collect(),
        n_tokens: (0..cfg.n_shards)
            .map(|i| engine.shard(i).n_tokens())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> BridgeConfig {
        BridgeConfig {
            corpus: CorpusConfig {
                n_docs: 600,
                vocab: 800,
                seed: 7,
                ..Default::default()
            },
            queries: QueryConfig {
                n_queries: 400,
                seed: 8,
                ..Default::default()
            },
            n_shards: 16,
            n_machines: 4,
            n_exchange: 1,
            stringency: 0.7,
            ..Default::default()
        }
    }

    #[test]
    fn builds_a_valid_instance_at_the_requested_stringency() {
        let inst = build_instance(&small_cfg()).unwrap();
        inst.validate().unwrap();
        assert_eq!(inst.dims, 3);
        assert_eq!(inst.n_machines(), 5);
        assert_eq!(inst.n_exchange(), 1);
        assert_eq!(inst.n_shards(), 16);
        assert_eq!(inst.k_return, 1);
        // Demand per dimension totals n_machines × 0.7 = 2.8; capacity
        // including the exchange machine is 5.0 → aggregate 0.56, while
        // utilization over the loaded fleet alone is the requested 0.7.
        assert!((inst.stringency() - 0.56).abs() < 1e-6);
        assert!((inst.total_demand()[0] / 4.0 - 0.7).abs() < 1e-6);
        // A migration copies the index, so move cost is the memory demand.
        for s in &inst.shards {
            assert!((s.move_cost - s.demand[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn demands_are_heavy_tailed() {
        let inst = build_instance(&small_cfg()).unwrap();
        let mut cpus: Vec<f64> = inst.shards.iter().map(|s| s.demand[0]).collect();
        cpus.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top = cpus[0];
        let median = cpus[cpus.len() / 2];
        assert!(
            top > 2.0 * median,
            "top={top} median={median}: query skew must show"
        );
    }

    #[test]
    fn initial_placement_is_imbalanced_in_cpu() {
        // The bridge places by mem/disk only, so CPU loads should spread
        // unevenly — that imbalance is the problem instance's raison d'être.
        let inst = build_instance(&small_cfg()).unwrap();
        let asg = rex_cluster::Assignment::from_initial(&inst);
        let report = rex_cluster::BalanceReport::compute(&inst, &asg);
        assert!(
            report.imbalance > 1.02,
            "expected drift-induced imbalance, got {}",
            report.imbalance
        );
    }

    #[test]
    fn bridge_settings_are_errors_not_panics() {
        type Edit = fn(&mut BridgeConfig);
        let cases: [(Edit, &str); 12] = [
            (|c| c.n_shards = 0, "shards must be"),
            (|c| c.n_machines = 0, "machines must be"),
            (|c| c.corpus.n_docs = 0, "docs must be"),
            (|c| c.corpus.vocab = 0, "vocab must be"),
            (|c| c.queries.n_queries = 0, "queries must be"),
            (|c| c.queries.max_terms = 0, "max_terms must be"),
            (|c| c.stringency = 0.0, "stringency"),
            (|c| c.stringency = 1.0, "stringency"),
            (|c| c.stringency = f64::NAN, "stringency"),
            (|c| c.queries.and_fraction = 1.5, "and_fraction"),
            (|c| c.queries.and_fraction = f64::NAN, "and_fraction"),
            // 10 machines at 0.7 need 7.0 / 0.45 → 16 shards.
            (
                |c| (c.n_shards, c.n_machines) = (15, 10),
                "at least 16 needed",
            ),
        ];
        for (edit, says) in cases {
            let mut cfg = small_cfg();
            edit(&mut cfg);
            match build_instance(&cfg) {
                Err(ClusterError::BadGenerator { reason }) => {
                    assert!(reason.contains(says), "{reason}")
                }
                other => panic!("{cfg:?}: expected BadGenerator, got {other:?}"),
            }
        }
        // Nearly every shard clamps at 0.45 and a machine holds two: the
        // placement runs out of room and names the shard.
        let mut tight = small_cfg();
        (tight.n_shards, tight.n_machines, tight.stringency) = (20, 9, 0.99);
        assert!(matches!(
            build_instance(&tight),
            Err(ClusterError::Unpackable { .. })
        ));
    }

    fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
        words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// FNV-1a of the raw `(cost, size_bytes, n_tokens)` of every shard,
    /// and of every demand and move-cost bit, `initial` and the label.
    fn pin(cfg: &BridgeConfig) -> (u64, u64) {
        let raw = measure(cfg);
        let inst = build_instance(cfg).unwrap();
        (
            fnv1a(
                (0..cfg.n_shards).flat_map(|i| [raw.cost[i], raw.size_bytes[i], raw.n_tokens[i]]),
            ),
            fnv1a(
                inst.shards
                    .iter()
                    .flat_map(|s| {
                        let d = s.demand.as_slice().iter().map(|x| x.to_bits());
                        d.chain([s.move_cost.to_bits()]).collect::<Vec<_>>()
                    })
                    .chain(inst.initial.iter().map(|m| m.idx() as u64))
                    .chain(inst.label.bytes().map(u64::from)),
            ),
        )
    }

    /// The configurations the pins cover: the unit tests', the
    /// integration test's, each query mode alone, one close enough to the
    /// per-shard cap that the clamp loop runs, and one with empty shards.
    fn pinned_cfgs() -> Vec<(&'static str, BridgeConfig)> {
        let small = small_cfg();
        vec![
            ("small", small),
            (
                "integration",
                BridgeConfig {
                    corpus: CorpusConfig {
                        n_docs: 1_500,
                        vocab: 3_000,
                        seed: 1,
                        ..Default::default()
                    },
                    queries: QueryConfig {
                        n_queries: 800,
                        seed: 2,
                        ..Default::default()
                    },
                    n_shards: 32,
                    n_machines: 6,
                    n_exchange: 1,
                    stringency: 0.78,
                    ..Default::default()
                },
            ),
            (
                "all-or",
                BridgeConfig {
                    queries: QueryConfig {
                        and_fraction: 0.0,
                        ..small.queries
                    },
                    ..small
                },
            ),
            (
                "all-and",
                BridgeConfig {
                    queries: QueryConfig {
                        and_fraction: 1.0,
                        ..small.queries
                    },
                    ..small
                },
            ),
            (
                "near-cap",
                BridgeConfig {
                    n_machines: 9,
                    stringency: 0.75,
                    ..small
                },
            ),
            (
                "empty-shards",
                BridgeConfig {
                    corpus: CorpusConfig {
                        n_docs: 10,
                        ..small.corpus
                    },
                    ..small
                },
            ),
        ]
    }

    #[test]
    fn bridge_instances_match_their_frozen_pins() {
        // Recorded before the engine lost its ranker and the codec its
        // decoder; the replay is the only parallel reduction in the
        // pipeline, so the pins hold at every thread count.
        let want = [
            ("small", 0xf4c9_dae6_8fe2_6423, 0xd7eb_05d4_d9d0_ab1b),
            ("integration", 0xe922_baad_e00e_39a9, 0x638e_4627_fc6e_40b8),
            ("all-or", 0xb79e_67d5_7be2_1278, 0xabe9_b749_e572_4f93),
            ("all-and", 0x1520_af22_8c6f_095b, 0x6896_c283_90fc_5803),
            ("near-cap", 0xf4c9_dae6_8fe2_6423, 0xb511_4662_c569_d076),
            ("empty-shards", 0xa0f2_9929_d752_6e86, 0xcc81_2bb5_80df_433f),
        ];
        let cfgs = pinned_cfgs();
        for threads in [1, 2, 8] {
            rayon::set_threads_override(Some(threads));
            let got: Vec<_> = cfgs
                .iter()
                .map(|(name, cfg)| {
                    let (raw, inst) = pin(cfg);
                    (*name, raw, inst)
                })
                .collect();
            assert_eq!(got, want, "{threads} threads");
        }
        rayon::set_threads_override(None);

        // The configurations cover what they claim to.
        let near_cap = build_instance(&cfgs[4].1).unwrap();
        assert!(near_cap.shards.iter().any(|s| s.demand[0] == 0.45));
        assert!(measure(&cfgs[5].1).n_tokens.contains(&0));
    }
}
