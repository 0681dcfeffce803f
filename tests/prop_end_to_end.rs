//! Cross-crate property tests: SRA's result contract over random instances.
//!
//! For any valid generated instance, `solve` must return a result whose
//! every component is mutually consistent: a capacity-feasible final
//! assignment meeting the vacancy quota, a schedule that the independent
//! simulator verifies and that ends at the final assignment, a peak no
//! worse than the initial placement's, and `k_return` vacant machines
//! selected for return.

use proptest::prelude::*;
use resource_exchange::cluster::{verify_schedule, MachineId};
use resource_exchange::core::{solve, solve_with_drain, SraConfig};
use resource_exchange::workload::synthetic::{generate, DemandFamily, Placement, SynthConfig};
use rex_solver::IpModel;

fn arb_config() -> impl Strategy<Value = SynthConfig> {
    (
        2usize..8,    // machines
        0usize..3,    // exchange
        4usize..40,   // shards
        1usize..4,    // dims
        0.3f64..0.85, // stringency
        prop_oneof![Just(0.0), Just(0.1), Just(0.3)],
        prop_oneof![
            Just(DemandFamily::Uniform),
            Just(DemandFamily::Zipf),
            Just(DemandFamily::Correlated),
            Just(DemandFamily::BigShards),
        ],
        any::<u64>(),
    )
        .prop_map(
            |(m, x, s, dims, stringency, alpha, family, seed)| SynthConfig {
                n_machines: m,
                n_exchange: x,
                n_shards: s.max(2 * m), // enough shards for the target utilization
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

/// Promoted proptest regression (from `prop_end_to_end.proptest-regressions`):
/// draining the *exchange machine itself* on a small stringent instance.
/// `drain_pick % n_machines` landed on the borrowed exchange machine, so the
/// drain reserves a vacancy on top of `k_return` while the fleet has little
/// slack — historically this tripped the vacancy accounting in the drain
/// path. Kept as a named deterministic test so the case can never silently
/// rotate out of the regression file.
#[test]
fn drain_contract_holds_when_draining_the_exchange_machine() {
    let cfg = SynthConfig {
        n_machines: 4,
        n_exchange: 1,
        n_shards: 8,
        dims: 1,
        stringency: 0.5379914052582881,
        alpha: 0.0,
        family: DemandFamily::Uniform,
        placement: Placement::Hotspot(0.5),
        profile: resource_exchange::workload::MachineProfile::Homogeneous,
        seed: 1091622592762745018,
    };
    let inst = generate(&cfg).expect("generator accepts the regression parameters");
    // drain_pick = 15164068430237181204 → 15164068430237181204 % 5 == 4,
    // i.e. MachineId(4): the exchange machine.
    let drain = vec![MachineId::from(4)];
    match solve_with_drain(
        &inst,
        &SraConfig {
            iters: 300,
            seed: cfg.seed,
            ..Default::default()
        },
        &drain,
    ) {
        // Evacuation may genuinely be impossible — but then the reported
        // shortfall must be self-consistent: the requirement (k_return plus
        // one reserved vacancy per drained machine) actually exceeds what
        // the fleet can provide.
        Err(resource_exchange::cluster::ClusterError::VacancyShortfall { required, found }) => {
            assert!(
                required > found,
                "shortfall error must describe an actual shortfall: required {required} vs found {found}"
            );
        }
        Err(_) => {} // other planning errors: acceptable
        Ok(res) => {
            for &m in &drain {
                assert!(
                    res.assignment.is_vacant(m),
                    "drained machine must end vacant"
                );
                assert!(
                    !res.returned_machines.contains(&m),
                    "drained machine cannot be the returned compensation"
                );
            }
            res.assignment.check_target(&inst).unwrap();
            verify_schedule(&inst, &inst.initial, res.assignment.placement(), &res.plan).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sra_contract_holds_on_random_instances(cfg in arb_config()) {
        let inst = match generate(&cfg) {
            Ok(i) => i,
            Err(_) => return Ok(()), // generator rejected the parameters
        };
        let res = solve(
            &inst,
            &SraConfig { iters: 400, seed: cfg.seed, ..Default::default() },
        )
        .expect("solve must succeed on valid instances");

        // Final assignment is complete, capacity-feasible, quota-satisfying.
        res.assignment.check_target(&inst).unwrap();
        // The schedule independently verifies and lands on the assignment.
        verify_schedule(&inst, &inst.initial, res.assignment.placement(), &res.plan).unwrap();
        // Monotone: never worse than doing nothing.
        prop_assert!(res.final_report.peak <= res.initial_report.peak + 1e-9);
        // Returned machines: exactly k, all vacant.
        prop_assert_eq!(res.returned_machines.len(), inst.k_return);
        for &m in &res.returned_machines {
            prop_assert!(res.assignment.is_vacant(m));
        }
        // The placement satisfies the paper's IP.
        let model = IpModel::build(&inst, 0.0);
        let vars = model.variables_from_placement(&inst, res.assignment.placement());
        prop_assert!(model.check(&vars).is_empty());
    }

    /// Draining contract: for any valid instance and drain choice, the
    /// solver either reports an error (evacuation impossible) or returns a
    /// verified result whose drained machines are vacant and excluded from
    /// the returned set.
    #[test]
    fn drain_contract_holds(cfg in arb_config(), drain_pick in any::<u64>()) {
        let inst = match generate(&cfg) {
            Ok(i) => i,
            Err(_) => return Ok(()),
        };
        let drain = vec![MachineId::from((drain_pick % inst.n_machines() as u64) as usize)];
        match solve_with_drain(
            &inst,
            &SraConfig { iters: 300, seed: cfg.seed, ..Default::default() },
            &drain,
        ) {
            Err(_) => {} // evacuation genuinely impossible: acceptable
            Ok(res) => {
                for &m in &drain {
                    prop_assert!(res.assignment.is_vacant(m));
                    prop_assert!(!res.returned_machines.contains(&m));
                }
                res.assignment.check_target(&inst).unwrap();
                verify_schedule(&inst, &inst.initial, res.assignment.placement(), &res.plan)
                    .unwrap();
            }
        }
    }
}
