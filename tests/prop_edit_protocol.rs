//! Property tests for the in-place edit protocol (`rex-core::state`):
//!
//! 1. **Revert is bit-exact.** For any instance and any destroy→repair
//!    burst, reverting restores the placement *and every cached usage
//!    vector* bit-identically — not approximately: the undo log restores
//!    first-touch usage snapshots rather than re-running inverse
//!    floating-point arithmetic, because `(u - d) + d ≠ u` in general.
//! 2. **Delta objective = full recompute.** Across long random edit
//!    sequences (with commits and reverts interleaved), the incrementally
//!    tracked objective agrees with a from-scratch evaluation of the same
//!    solution to 1e-9.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use resource_exchange::cluster::{Assignment, Objective};
use resource_exchange::core::{default_destroys_in_place, default_repairs_in_place, SraProblem};
use resource_exchange::lns::{LnsProblem, LnsProblemInPlace};
use resource_exchange::workload::synthetic::{generate, DemandFamily, Placement, SynthConfig};

fn arb_config() -> impl Strategy<Value = SynthConfig> {
    (
        2usize..8,   // machines
        0usize..3,   // exchange
        6usize..40,  // shards
        1usize..4,   // dims
        0.3f64..0.8, // stringency
        prop_oneof![Just(0.0), Just(0.2)],
        prop_oneof![
            Just(DemandFamily::Uniform),
            Just(DemandFamily::Zipf),
            Just(DemandFamily::Correlated),
        ],
        any::<u64>(),
    )
        .prop_map(
            |(m, x, s, dims, stringency, alpha, family, seed)| SynthConfig {
                n_machines: m,
                n_exchange: x,
                n_shards: s.max(2 * m),
                dims,
                stringency,
                alpha,
                family,
                placement: Placement::Hotspot(0.5),
                profile: resource_exchange::workload::MachineProfile::Homogeneous,
                seed,
            },
        )
}

/// Bitwise snapshot of everything a revert must restore.
fn fingerprint(inst: &resource_exchange::cluster::Instance, asg: &Assignment) -> Vec<u64> {
    let mut out: Vec<u64> = asg.placement().iter().map(|m| m.idx() as u64).collect();
    for mi in 0..inst.n_machines() {
        let m = resource_exchange::cluster::MachineId::from(mi);
        out.extend(asg.usage(m).as_slice().iter().map(|v| v.to_bits()));
    }
    out
}

/// Deterministic anchor: on a fixed instance the gates in the property
/// tests (generator accepts, initial placement feasible) must pass, so the
/// properties above can never regress into vacuous skips.
#[test]
fn property_gates_are_not_vacuous() {
    let cfg = SynthConfig {
        n_machines: 6,
        n_exchange: 2,
        n_shards: 24,
        dims: 2,
        stringency: 0.6,
        alpha: 0.2,
        family: DemandFamily::Zipf,
        placement: Placement::Hotspot(0.5),
        profile: resource_exchange::workload::MachineProfile::Homogeneous,
        seed: 0xED17,
    };
    let inst = generate(&cfg).expect("fixed config must generate");
    let p = SraProblem::new(&inst, Objective::default());
    let initial = Assignment::from_initial(&inst);
    assert!(
        p.is_feasible(&initial),
        "fixed initial placement must be feasible"
    );

    let destroys = default_destroys_in_place(16);
    let repairs = default_repairs_in_place();
    let mut rng = StdRng::seed_from_u64(7);
    let mut state = p.make_state(initial);
    let before = fingerprint(&inst, state.solution());
    let mut exercised = 0u32;
    for d in &destroys {
        for r in &repairs {
            d.destroy(&p, &mut state, 0.3, &mut rng);
            assert!(
                !state.removed().is_empty(),
                "{} must detach something",
                d.name()
            );
            let _ = r.repair(&p, &mut state, &mut rng);
            LnsProblemInPlace::revert(&p, &mut state);
            exercised += 1;
        }
    }
    assert_eq!(fingerprint(&inst, state.solution()), before);
    assert_eq!(exercised, (destroys.len() * repairs.len()) as u32);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (1) destroy → repair → revert restores assignment and cached usage
    /// bit-identically, for every operator pairing.
    #[test]
    fn destroy_repair_revert_is_bit_exact(cfg in arb_config(), op_seed in any::<u64>()) {
        let inst = match generate(&cfg) {
            Ok(i) => i,
            Err(_) => return Ok(()),
        };
        let p = SraProblem::new(&inst, Objective::default());
        let initial = Assignment::from_initial(&inst);
        if !p.is_feasible(&initial) {
            return Ok(());
        }
        let destroys = default_destroys_in_place(16);
        let repairs = default_repairs_in_place();
        let mut rng = StdRng::seed_from_u64(op_seed);
        let mut state = p.make_state(initial);
        let before = fingerprint(&inst, state.solution());
        for d in &destroys {
            for r in &repairs {
                d.destroy(&p, &mut state, 0.3, &mut rng);
                let _ = r.repair(&p, &mut state, &mut rng);
                LnsProblemInPlace::revert(&p, &mut state);
                let after = fingerprint(&inst, state.solution());
                prop_assert_eq!(
                    &before, &after,
                    "revert after {}+{} must be bit-exact", d.name(), r.name()
                );
                state.solution().validate_consistency(&inst).unwrap();
            }
        }
    }

    /// (2) the delta objective tracks a full recompute within 1e-9 across
    /// random committed/reverted edit sequences.
    #[test]
    fn delta_objective_matches_full_recompute(
        cfg in arb_config(),
        op_seed in any::<u64>(),
        lambda in prop_oneof![Just(0.0), Just(0.01), Just(0.5)],
    ) {
        let inst = match generate(&cfg) {
            Ok(i) => i,
            Err(_) => return Ok(()),
        };
        let p = SraProblem::new(&inst, Objective { lambda });
        let initial = Assignment::from_initial(&inst);
        if !p.is_feasible(&initial) {
            return Ok(());
        }
        let destroys = default_destroys_in_place(16);
        let repairs = default_repairs_in_place();
        let mut rng = StdRng::seed_from_u64(op_seed);
        let mut state = p.make_state(initial);
        for round in 0..60u32 {
            let di = (round as usize) % destroys.len();
            let ri = (round as usize / destroys.len()) % repairs.len();
            destroys[di].destroy(&p, &mut state, 0.25, &mut rng);
            let repaired = repairs[ri].repair(&p, &mut state, &mut rng);
            if repaired {
                let delta = p.state_objective(&mut state);
                let full = LnsProblem::objective(&p, state.solution());
                prop_assert!(
                    (delta - full).abs() < 1e-9,
                    "round {}: delta {} vs full {}", round, delta, full
                );
            }
            if !repaired || round % 3 == 0 {
                LnsProblemInPlace::revert(&p, &mut state);
            } else {
                LnsProblemInPlace::commit(&p, &mut state);
            }
            // The objective of the settled state always matches too.
            let delta = p.state_objective(&mut state);
            let full = LnsProblem::objective(&p, state.solution());
            prop_assert!((delta - full).abs() < 1e-9, "settled: {} vs {}", delta, full);
        }
    }
}
