//! Synthetic instance families.
//!
//! A generator is a triple: a **demand family** (how shard demand vectors
//! are drawn), a **placement policy** (how the initial — deliberately
//! imbalanced — placement is constructed), and the scalar knobs in
//! [`SynthConfig`]. Machines are homogeneous with unit capacity; demands
//! are normalized so the loaded fleet's aggregate utilization in each
//! dimension equals `stringency`.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rex_cluster::{
    ClusterError, FleetSpec, GenerationSpec, Instance, InstanceBuilder, MachineId, ResourceVec,
    ShardId, WorkloadSpec,
};
use serde::{Deserialize, Serialize};

mod place;

/// How shard demand vectors are drawn (before normalization).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DemandFamily {
    /// Uniform in `(0.5, 1.5)` per dimension, independent.
    Uniform,
    /// Power-law sizes: shard `i` has weight `1/(i+1)^0.9`, all dimensions
    /// scaled together with ±20% jitter (heavy tail, high correlation).
    Zipf,
    /// A latent "size" drives all dimensions plus independent noise
    /// (moderate correlation — the shape searchsim produces).
    Correlated,
    /// A few huge shards (25–40% of a machine) among small ones: the
    /// adversarial case where transient constraints bite hardest.
    BigShards,
}

/// Capacity structure of the fleet.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum MachineProfile {
    /// Every machine has unit capacity.
    Homogeneous,
    /// A fraction of machines are `ratio`× larger (two hardware
    /// generations in one fleet — the regime where membership exchange
    /// pays: a strong vacant machine can permanently replace a weak one).
    TwoTier {
        /// Fraction of *loaded* machines that are big.
        big_fraction: f64,
        /// Capacity multiplier of the big tier (> 1).
        ratio: f64,
    },
    /// Loaded machines are unit-capacity; exchange machines are `factor`×
    /// larger (the operator lends next-generation hardware).
    BigExchange {
        /// Capacity multiplier of the exchange machines (> 1).
        factor: f64,
    },
}

/// How the initial placement is constructed.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Placement {
    /// Best-fit decreasing on peak dimension: a *balanced* start (useful
    /// as a control: there is little for any rebalancer to do).
    BalancedBfd,
    /// Concentrates load: the given fraction of machines is filled to
    /// near-capacity first-fit before the rest are touched — the classic
    /// "traffic drifted onto the old machines" hotspot.
    Hotspot(f64),
    /// Best-fit decreasing ignoring dimension 0: balanced by index size
    /// (dims 1..) but drifted in CPU (dim 0). Requires `dims >= 2`.
    Drift,
}

/// Generator knobs.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Number of loaded machines.
    pub n_machines: usize,
    /// Number of borrowed exchange machines appended.
    pub n_exchange: usize,
    /// Number of shards.
    pub n_shards: usize,
    /// Resource dimensions.
    pub dims: usize,
    /// Target aggregate utilization of the loaded fleet per dimension.
    pub stringency: f64,
    /// Transient migration-overhead factor.
    pub alpha: f64,
    /// Demand family.
    pub family: DemandFamily,
    /// Placement policy.
    pub placement: Placement,
    /// Fleet capacity structure.
    pub profile: MachineProfile,
    /// Seed.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self {
            n_machines: 16,
            n_exchange: 2,
            n_shards: 160,
            dims: 3,
            stringency: 0.75,
            alpha: 0.1,
            family: DemandFamily::Correlated,
            placement: Placement::Hotspot(0.4),
            profile: MachineProfile::Homogeneous,
            seed: 0,
        }
    }
}

/// The machine-generation table a [`MachineProfile`] implies: every
/// profile is a special case of the workload plane's [`FleetSpec`]
/// (DESIGN.md §16), so profile-driven generation routes through the same
/// table as `--workload` files.
pub fn profile_fleet(cfg: &SynthConfig) -> FleetSpec {
    let (generations, exchange_scale) = match cfg.profile {
        MachineProfile::Homogeneous => (
            vec![GenerationSpec {
                name: "base".into(),
                count: cfg.n_machines,
                scale: 1.0,
            }],
            1.0,
        ),
        MachineProfile::TwoTier {
            big_fraction,
            ratio,
        } => {
            assert!((0.0..=1.0).contains(&big_fraction) && ratio > 1.0);
            let n_big =
                (((cfg.n_machines as f64) * big_fraction).round() as usize).min(cfg.n_machines);
            let mut generations = Vec::new();
            if n_big > 0 {
                generations.push(GenerationSpec {
                    name: "big".into(),
                    count: n_big,
                    scale: ratio,
                });
            }
            if cfg.n_machines > n_big {
                generations.push(GenerationSpec {
                    name: "base".into(),
                    count: cfg.n_machines - n_big,
                    scale: 1.0,
                });
            }
            (generations, 1.0)
        }
        MachineProfile::BigExchange { factor } => {
            assert!(factor > 1.0);
            (
                vec![GenerationSpec {
                    name: "base".into(),
                    count: cfg.n_machines,
                    scale: 1.0,
                }],
                factor,
            )
        }
    };
    FleetSpec {
        generations,
        exchange: cfg.n_exchange,
        exchange_scale,
        racks: 0,
    }
}

/// Per-machine capacity scale factors implied by the profile: first the
/// loaded machines, then the exchange machines.
fn capacity_scales(cfg: &SynthConfig) -> (Vec<f64>, Vec<f64>) {
    let fleet = profile_fleet(cfg);
    let loaded = fleet.loaded_scales();
    let exchange = vec![fleet.exchange_scale; fleet.exchange];
    (loaded, exchange)
}

/// Generates an instance.
///
/// # Errors
/// [`ClusterError::BadGenerator`] on settings it cannot honour (zero
/// counts, stringency outside `(0,1)`, too few shards to reach it, `Drift`
/// on one dimension), [`ClusterError::Unpackable`] when no placement packs
/// the demands, and instance validation errors.
pub fn generate(cfg: &SynthConfig) -> Result<Instance, ClusterError> {
    let (loaded_scales, exchange_scales) = capacity_scales(cfg);
    let label = format!(
        "synth({:?},{:?},m={},x={},s={},u={:.2},seed={})",
        cfg.family,
        cfg.placement,
        cfg.n_machines,
        cfg.n_exchange,
        cfg.n_shards,
        cfg.stringency,
        cfg.seed
    );
    generate_with_scales(cfg, &loaded_scales, &exchange_scales, label)
}

/// Generates a heterogeneous instance from a workload's fleet table
/// (DESIGN.md §16): machine counts, capacity scales, and the exchange pool
/// come from `w.fleet`; demand family, placement policy, dimensions, and
/// shard count come from `base`.
///
/// With a degenerate fleet (one generation at scale 1, exchange scale 1)
/// this produces bit-identical instances to [`generate`] modulo the label.
///
/// # Panics
/// Panics when the workload carries no fleet table — callers decide the
/// instance source before lowering.
pub fn generate_workload(w: &WorkloadSpec, base: &SynthConfig) -> Result<Instance, ClusterError> {
    let fleet = w
        .fleet
        .as_ref()
        .expect("generate_workload needs a workload with a fleet table");
    let cfg = SynthConfig {
        n_machines: fleet.n_machines(),
        n_exchange: fleet.exchange,
        seed: w.scenario.seed,
        ..*base
    };
    let loaded_scales = fleet.loaded_scales();
    let exchange_scales = vec![fleet.exchange_scale; fleet.exchange];
    let label = format!(
        "workload({:?},{:?},m={},x={},s={},gens={},racks={},u={:.2},seed={})",
        cfg.family,
        cfg.placement,
        cfg.n_machines,
        cfg.n_exchange,
        cfg.n_shards,
        fleet.generations.len(),
        fleet.racks,
        cfg.stringency,
        cfg.seed
    );
    generate_with_scales(&cfg, &loaded_scales, &exchange_scales, label)
}

/// Shared generation core: draws demands, normalizes them against the
/// given capacity scales, places, and emits through the arena
/// [`InstanceBuilder`].
fn generate_with_scales(
    cfg: &SynthConfig,
    loaded_scales: &[f64],
    exchange_scales: &[f64],
    label: String,
) -> Result<Instance, ClusterError> {
    assert_eq!(loaded_scales.len(), cfg.n_machines);
    validate(cfg, loaded_scales)?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Raw demands, then per-dimension normalization to the target total —
    // with individual demands capped at MAX_SHARD_FRAC of a machine so
    // heavy-tailed families stay placeable. Clamping and rescaling
    // alternate until both the total and the cap hold.
    let (target, shard_cap) = demand_target(cfg, loaded_scales);
    let mut demands = draw_demands(cfg, &mut rng);
    for r in 0..cfg.dims {
        for _ in 0..32 {
            let total: f64 = demands.iter().map(|d| d[r]).sum();
            let scale = target / total;
            let mut clamped = false;
            for d in &mut demands {
                d[r] *= scale;
                if d[r] > shard_cap {
                    d[r] = shard_cap;
                    clamped = true;
                }
            }
            if !clamped {
                break;
            }
        }
    }

    let placement = match place::place(cfg, &demands, loaded_scales, &mut rng) {
        Ok(p) => p,
        Err(_) => {
            // The decorated placement (hotspot/drift) can fail on tight
            // multi-dimensional packings; fall back to a plain balanced
            // best-fit-decreasing start, which packs whenever anything
            // reasonable does.
            let fallback = SynthConfig {
                placement: Placement::BalancedBfd,
                ..*cfg
            };
            place::place(&fallback, &demands, loaded_scales, &mut rng).map_err(|shard| {
                ClusterError::Unpackable {
                    shard: ShardId::from(shard),
                    stringency: cfg.stringency,
                }
            })?
        }
    };

    let mut b = InstanceBuilder::with_capacity(
        cfg.dims,
        cfg.n_machines + exchange_scales.len(),
        cfg.n_shards,
    )
    .alpha(cfg.alpha)
    .label(label);
    let machines: Vec<MachineId> = loaded_scales
        .iter()
        .map(|&c| b.push_machine(ResourceVec::splat(cfg.dims, c)))
        .collect();
    for &c in exchange_scales {
        b.push_exchange(ResourceVec::splat(cfg.dims, c));
    }
    for (i, d) in demands.iter().enumerate() {
        // Move cost: the shard's index footprint (last dimension = disk).
        let move_cost = d[cfg.dims - 1].max(1e-9);
        b.push_shard(
            ResourceVec::from_slice(d),
            move_cost,
            machines[placement[i]],
        );
    }
    b.build()
}

/// No shard demands more than this share of the smallest loaded machine,
/// so heavy-tailed families stay placeable.
const MAX_SHARD_FRAC: f64 = 0.45;

/// The total demand per dimension normalization aims at, and the per-shard
/// demand cap.
fn demand_target(cfg: &SynthConfig, loaded_scales: &[f64]) -> (f64, f64) {
    let loaded_capacity: f64 = loaded_scales.iter().sum();
    let min_scale = loaded_scales.iter().cloned().fold(f64::INFINITY, f64::min);
    (loaded_capacity * cfg.stringency, MAX_SHARD_FRAC * min_scale)
}

/// Rejects settings the generator cannot honour, before anything is drawn.
fn validate(cfg: &SynthConfig, loaded_scales: &[f64]) -> Result<(), ClusterError> {
    let reason = if cfg.n_machines == 0 {
        "machines must be at least 1".to_string()
    } else if cfg.n_shards == 0 {
        "shards must be at least 1".to_string()
    } else if cfg.dims == 0 {
        "dims must be at least 1".to_string()
    } else if !(cfg.stringency > 0.0 && cfg.stringency < 1.0) {
        format!("stringency must be in (0,1), got {}", cfg.stringency)
    } else if cfg.placement == Placement::Drift && cfg.dims < 2 {
        format!(
            "drift placement needs at least 2 dimensions, got {}",
            cfg.dims
        )
    } else if !loaded_scales.iter().all(|&s| s > 0.0 && s.is_finite()) {
        "machine capacity scales must be positive and finite".to_string()
    } else {
        let (target, shard_cap) = demand_target(cfg, loaded_scales);
        if target <= cfg.n_shards as f64 * shard_cap {
            return Ok(());
        }
        format!(
            "{} shards cannot reach stringency {} with each capped at {MAX_SHARD_FRAC} \
             of the smallest machine (at least {} needed)",
            cfg.n_shards,
            cfg.stringency,
            (target / shard_cap).ceil()
        )
    };
    Err(ClusterError::BadGenerator { reason })
}

/// Raw (un-normalized) demand vectors per family.
fn draw_demands(cfg: &SynthConfig, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let n = cfg.n_shards;
    let dims = cfg.dims;
    match cfg.family {
        DemandFamily::Uniform => (0..n)
            .map(|_| (0..dims).map(|_| rng.random_range(0.5..1.5)).collect())
            .collect(),
        DemandFamily::Zipf => (0..n)
            .map(|i| {
                let base = 1.0 / ((i + 1) as f64).powf(0.9);
                (0..dims)
                    .map(|_| base * rng.random_range(0.8..1.2))
                    .collect()
            })
            .collect(),
        DemandFamily::Correlated => (0..n)
            .map(|_| {
                let size = rng.random_range(0.2..2.0f64).powi(2);
                (0..dims)
                    .map(|_| 0.7 * size + 0.3 * rng.random_range(0.1..1.0))
                    .collect()
            })
            .collect(),
        DemandFamily::BigShards => (0..n)
            .map(|i| {
                // Every 10th shard is an order of magnitude larger.
                let base = if i % 10 == 0 {
                    rng.random_range(8.0..12.0)
                } else {
                    rng.random_range(0.5..1.5)
                };
                (0..dims)
                    .map(|_| base * rng.random_range(0.9..1.1))
                    .collect()
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_cluster::{Assignment, BalanceReport};

    fn base(family: DemandFamily, placement: Placement) -> SynthConfig {
        SynthConfig {
            family,
            placement,
            seed: 5,
            ..Default::default()
        }
    }

    #[test]
    fn all_families_generate_valid_instances() {
        for family in [
            DemandFamily::Uniform,
            DemandFamily::Zipf,
            DemandFamily::Correlated,
            DemandFamily::BigShards,
        ] {
            let inst = generate(&base(family, Placement::Hotspot(0.4))).unwrap();
            inst.validate().unwrap();
            assert_eq!(inst.n_shards(), 160);
            assert_eq!(inst.n_exchange(), 2);
        }
    }

    #[test]
    fn profile_fleet_subsumes_every_machine_profile() {
        // The generation table is now the single source of capacity truth:
        // expanding it must reproduce the historical per-profile scales
        // bit for bit.
        let cases = [
            (MachineProfile::Homogeneous, vec![1.0; 6], vec![1.0; 2]),
            (
                MachineProfile::TwoTier {
                    big_fraction: 0.5,
                    ratio: 3.0,
                },
                vec![3.0, 3.0, 3.0, 1.0, 1.0, 1.0],
                vec![1.0; 2],
            ),
            (
                MachineProfile::BigExchange { factor: 2.5 },
                vec![1.0; 6],
                vec![2.5; 2],
            ),
        ];
        for (profile, loaded, exchange) in cases {
            let cfg = SynthConfig {
                n_machines: 6,
                n_exchange: 2,
                profile,
                ..Default::default()
            };
            let fleet = profile_fleet(&cfg);
            assert_eq!(fleet.loaded_scales(), loaded, "{profile:?}");
            assert_eq!(vec![fleet.exchange_scale; fleet.exchange], exchange);
        }
    }

    #[test]
    fn generate_workload_honors_the_fleet_table() {
        let w = rex_cluster::WorkloadSpec {
            scenario: rex_cluster::ScenarioSpec {
                seed: 9,
                ..Default::default()
            },
            fleet: Some(rex_cluster::FleetSpec {
                generations: vec![
                    GenerationSpec {
                        name: "old".into(),
                        count: 4,
                        scale: 1.0,
                    },
                    GenerationSpec {
                        name: "new".into(),
                        count: 4,
                        scale: 4.0,
                    },
                ],
                exchange: 2,
                exchange_scale: 4.0,
                racks: 2,
            }),
            load: None,
            rack_crashes: Vec::new(),
        };
        let base = SynthConfig {
            n_shards: 64,
            dims: 1,
            stringency: 0.6,
            ..Default::default()
        };
        let inst = generate_workload(&w, &base).unwrap();
        inst.validate().unwrap();
        assert_eq!(inst.n_machines(), 10);
        assert_eq!(inst.n_exchange(), 2);
        assert_eq!(inst.n_shards(), 64);
        for m in 0..4 {
            assert_eq!(inst.machines[m].capacity[0], 1.0);
        }
        for m in 4..10 {
            assert_eq!(inst.machines[m].capacity[0], 4.0);
        }
        // Deterministic: same workload, same bytes.
        let again = generate_workload(&w, &base).unwrap();
        assert_eq!(crate::io::to_json(&inst), crate::io::to_json(&again));
    }

    #[test]
    fn degenerate_fleet_matches_plain_generate_up_to_label() {
        let base = SynthConfig {
            seed: 11,
            ..Default::default()
        };
        let w = rex_cluster::WorkloadSpec {
            scenario: rex_cluster::ScenarioSpec {
                seed: 11,
                ..Default::default()
            },
            fleet: Some(profile_fleet(&base)),
            load: None,
            rack_crashes: Vec::new(),
        };
        let mut from_workload = generate_workload(&w, &base).unwrap();
        let plain = generate(&base).unwrap();
        from_workload.label = plain.label.clone();
        assert_eq!(
            crate::io::to_json(&from_workload),
            crate::io::to_json(&plain)
        );
    }

    #[test]
    fn stringency_is_exact_on_loaded_fleet() {
        let inst = generate(&base(DemandFamily::Uniform, Placement::BalancedBfd)).unwrap();
        for r in 0..inst.dims {
            let util = inst.total_demand()[r] / 16.0;
            assert!((util - 0.75).abs() < 1e-9, "dim {r}: {util}");
        }
    }

    #[test]
    fn hotspot_start_is_imbalanced_and_balanced_start_is_not() {
        let hot = generate(&base(DemandFamily::Correlated, Placement::Hotspot(0.4))).unwrap();
        let bal = generate(&base(DemandFamily::Correlated, Placement::BalancedBfd)).unwrap();
        let rep = |i: &Instance| BalanceReport::compute(i, &Assignment::from_initial(i));
        let (rh, rb) = (rep(&hot), rep(&bal));
        assert!(
            rh.imbalance > rb.imbalance + 0.05,
            "hotspot {} vs balanced {}",
            rh.imbalance,
            rb.imbalance
        );
        assert!(
            rh.peak > 0.9,
            "hot machines should be nearly full, peak={}",
            rh.peak
        );
    }

    #[test]
    fn drift_start_is_cpu_imbalanced() {
        let inst = generate(&base(DemandFamily::Correlated, Placement::Drift)).unwrap();
        let asg = Assignment::from_initial(&inst);
        // CPU (dim 0) utilizations vary; index dims are tight.
        let cpu: Vec<f64> = (0..16)
            .map(|m| asg.usage(rex_cluster::MachineId::from(m))[0])
            .collect();
        let max = cpu.iter().cloned().fold(0.0f64, f64::max);
        let min = cpu.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max > min * 1.1, "cpu spread expected: {cpu:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&base(DemandFamily::Zipf, Placement::Hotspot(0.3))).unwrap();
        let b = generate(&base(DemandFamily::Zipf, Placement::Hotspot(0.3))).unwrap();
        assert_eq!(a.initial, b.initial);
        let c = generate(&SynthConfig {
            seed: 6,
            ..base(DemandFamily::Zipf, Placement::Hotspot(0.3))
        })
        .unwrap();
        assert_ne!(a.initial, c.initial);
    }

    #[test]
    fn zipf_family_is_heavy_tailed() {
        let inst = generate(&base(DemandFamily::Zipf, Placement::BalancedBfd)).unwrap();
        let mut peaks: Vec<f64> = inst
            .shards
            .iter()
            .map(|s| s.demand.as_slice().iter().cloned().fold(0.0f64, f64::max))
            .collect();
        peaks.sort_by(|a, b| b.partial_cmp(a).unwrap());
        // The head is clamped at MAX_SHARD_FRAC, so the tail ratio is
        // bounded but must still be clearly heavy.
        assert!(
            peaks[0] > 5.0 * peaks[peaks.len() / 2],
            "head {} median {}",
            peaks[0],
            peaks[peaks.len() / 2]
        );
    }

    #[test]
    fn big_shards_family_has_bimodal_sizes() {
        let inst = generate(&base(DemandFamily::BigShards, Placement::BalancedBfd)).unwrap();
        let sizes: Vec<f64> = inst.shards.iter().map(|s| s.demand[0]).collect();
        let max = sizes.iter().cloned().fold(0.0f64, f64::max);
        let median = {
            let mut s = sizes.clone();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s[s.len() / 2]
        };
        assert!(max > 5.0 * median);
    }

    #[test]
    fn two_tier_profile_sizes_machines() {
        let cfg = SynthConfig {
            profile: MachineProfile::TwoTier {
                big_fraction: 0.25,
                ratio: 2.0,
            },
            ..base(DemandFamily::Uniform, Placement::BalancedBfd)
        };
        let inst = generate(&cfg).unwrap();
        let bigs = inst
            .machines
            .iter()
            .filter(|m| !m.exchange && (m.capacity[0] - 2.0).abs() < 1e-12)
            .count();
        assert_eq!(bigs, 4, "25% of 16 loaded machines are big");
        // Aggregate utilization over the loaded fleet stays at target.
        let loaded_cap: f64 = inst
            .machines
            .iter()
            .filter(|m| !m.exchange)
            .map(|m| m.capacity[0])
            .sum();
        assert!((inst.total_demand()[0] / loaded_cap - 0.75).abs() < 1e-9);
    }

    #[test]
    fn big_exchange_profile_sizes_loaner_machines() {
        let cfg = SynthConfig {
            profile: MachineProfile::BigExchange { factor: 2.5 },
            ..base(DemandFamily::Correlated, Placement::Hotspot(0.4))
        };
        let inst = generate(&cfg).unwrap();
        for m in &inst.machines {
            if m.exchange {
                assert!((m.capacity[0] - 2.5).abs() < 1e-12);
            } else {
                assert!((m.capacity[0] - 1.0).abs() < 1e-12);
            }
        }
        inst.validate().unwrap();
    }

    #[test]
    fn heterogeneous_placements_respect_capacity() {
        use rex_cluster::Assignment;
        for placement in [
            Placement::BalancedBfd,
            Placement::Hotspot(0.4),
            Placement::Drift,
        ] {
            let cfg = SynthConfig {
                profile: MachineProfile::TwoTier {
                    big_fraction: 0.5,
                    ratio: 3.0,
                },
                ..base(DemandFamily::Zipf, placement)
            };
            let inst = generate(&cfg).unwrap();
            let asg = Assignment::from_initial(&inst);
            assert!(asg.is_capacity_feasible(&inst), "{placement:?}");
        }
    }

    #[test]
    fn drift_requires_two_dims() {
        let cfg = SynthConfig {
            dims: 1,
            ..base(DemandFamily::Uniform, Placement::Drift)
        };
        assert!(generate(&cfg).is_err());
    }

    #[test]
    fn stringency_one_is_rejected() {
        let cfg = SynthConfig {
            stringency: 1.0,
            ..Default::default()
        };
        assert!(generate(&cfg).is_err());
    }

    #[test]
    fn out_of_range_settings_are_errors_not_panics() {
        let d = SynthConfig::default();
        for (cfg, says) in [
            (SynthConfig { n_machines: 0, ..d }, "machines"),
            (SynthConfig { n_shards: 0, ..d }, "shards"),
            (SynthConfig { dims: 0, ..d }, "dims"),
            (
                SynthConfig {
                    dims: 1,
                    placement: Placement::Drift,
                    ..d
                },
                "2 dimensions",
            ),
            (
                SynthConfig {
                    stringency: f64::NAN,
                    ..d
                },
                "stringency",
            ),
            (
                SynthConfig {
                    n_machines: 100,
                    n_shards: 5,
                    ..d
                },
                "167 needed",
            ),
        ] {
            match generate(&cfg) {
                Err(ClusterError::BadGenerator { reason }) => {
                    assert!(reason.contains(says), "{reason}")
                }
                other => panic!("{cfg:?}: expected BadGenerator, got {other:?}"),
            }
        }
    }

    #[test]
    fn unpackable_demands_name_the_shard_not_the_return_count() {
        // `rex generate --machines 200 --exchange 20 --shards 3000
        // --stringency 0.95 --family uniform`: 3-dimensional uniform
        // demands at 0.95 pack under neither the hot set nor the balanced
        // fallback. This used to report `BadReturnCount`.
        let cfg = SynthConfig {
            n_machines: 200,
            n_exchange: 20,
            n_shards: 3000,
            stringency: 0.95,
            family: DemandFamily::Uniform,
            ..Default::default()
        };
        let err = generate(&cfg).unwrap_err();
        assert!(
            matches!(err, ClusterError::Unpackable { stringency, .. } if stringency == 0.95),
            "{err:?}"
        );
        assert!(err.to_string().contains("do not pack at stringency 0.95"));
    }
}
