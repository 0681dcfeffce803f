//! Black-box tests of [`Simulation`]'s public API: determinism, the
//! controller policies, faults, the hot-shard plane, both arrival engines
//! and the workload plane. (Moved out of `src/sim.rs` unchanged when the
//! simulation became a brain over planes; tests that need the private
//! seams stay beside them in `src/sim/` and `src/hotshard.rs`.)

use rex_cluster::{Instance, MachineId};
use rex_obs::Recorder;
use rex_router::PolicyKind;
use rex_runtime::{
    ControllerConfig, ControllerPolicy, DriftSpec, FaultSpec, ReplayScript, RuntimeConfig,
    Simulation,
};
use rex_workload::synthetic::{generate, Placement, SynthConfig};

fn hotspot(seed: u64) -> Instance {
    generate(&SynthConfig {
        n_machines: 10,
        n_exchange: 2,
        n_shards: 80,
        stringency: 0.65,
        alpha: 0.1,
        placement: Placement::Hotspot(0.35),
        seed,
        ..Default::default()
    })
    .unwrap()
}

fn short_cfg(policy: ControllerPolicy) -> RuntimeConfig {
    RuntimeConfig {
        ticks: 1_500,
        seed: 7,
        controller: ControllerConfig {
            policy,
            poll_interval: 25,
            window: 2,
            cooldown_ticks: 200,
            sra_iters: 400,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let run = || {
        let mut cfg = short_cfg(ControllerPolicy::Sra);
        cfg.faults = vec![
            FaultSpec::Crash {
                at: 400,
                machine: 1,
                recover_at: Some(900),
            },
            FaultSpec::Spike {
                at: 600,
                duration: 200,
                factor: 1.5,
                shard_fraction: 0.1,
            },
        ];
        cfg.drift = Some(DriftSpec {
            every_ticks: 300,
            sigma: 0.15,
            target_utilization: 0.6,
        });
        Simulation::new(hotspot(11), cfg).run().to_json()
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_differ() {
    let run = |seed| {
        let mut cfg = short_cfg(ControllerPolicy::Sra);
        cfg.seed = seed;
        Simulation::new(hotspot(11), cfg).run().to_json()
    };
    assert_ne!(run(1), run(2));
}

#[test]
fn off_policy_never_rebalances_for_load() {
    let e = Simulation::new(hotspot(12), short_cfg(ControllerPolicy::Off)).run();
    assert_eq!(e.counters.rebalances_triggered, 0);
    assert_eq!(e.counters.rebalances_completed, 0);
    assert!(e.counters.queries_arrived > 0);
    assert!(e.latency.count > 0);
}

#[test]
fn slow_plan_does_not_double_trigger_on_completion() {
    // Regression: samples recorded while a plan was in flight used to
    // refill the trigger window `note_trigger` had cleared, so the
    // first poll after a slow plan completed re-triggered on stale
    // in-flight peaks. Here a flash crowd burns out mid-flight (spike
    // ticks 60..100, plan ticks 50..119 at this seed): before the fix
    // the window still held the spiked samples at completion and
    // re-triggered at tick 125 — and the solver found nothing to do
    // (`plan_empty`), proving the trigger was spurious. Fixed, the
    // window restarts empty at completion and the run triggers once.
    let cfg = RuntimeConfig {
        ticks: 1_000,
        seed: 7,
        copy_bandwidth: 0.02,
        faults: vec![FaultSpec::Spike {
            at: 60,
            duration: 40,
            factor: 2.0,
            shard_fraction: 0.05,
        }],
        controller: ControllerConfig {
            policy: ControllerPolicy::Sra,
            poll_interval: 25,
            window: 4,
            cooldown_ticks: 40,
            sra_iters: 400,
            ..Default::default()
        },
        ..Default::default()
    };
    let e = Simulation::new(hotspot(3), cfg).run();
    assert_eq!(
        e.counters.rebalances_triggered, 1,
        "stale in-flight samples must not re-trigger after completion"
    );
    assert_eq!(e.counters.rebalances_completed, 1);
    assert_eq!(e.counters.transient_violations, 0);
}

#[test]
fn sra_controller_rebalances_a_hotspot() {
    let e = Simulation::new(hotspot(13), short_cfg(ControllerPolicy::Sra)).run();
    assert!(e.counters.rebalances_triggered > 0, "hotspot must trigger");
    assert!(e.counters.moves_committed > 0);
    assert_eq!(e.counters.transient_violations, 0);
    assert!(e.final_report.peak < e.initial_report.peak);
}

#[test]
fn crash_is_evacuated_and_drained() {
    let mut cfg = short_cfg(ControllerPolicy::Off);
    cfg.ticks = 2_000;
    cfg.faults = vec![FaultSpec::Crash {
        at: 100,
        machine: 0,
        recover_at: None,
    }];
    let inst = hotspot(14);
    assert!(
        inst.initial.contains(&MachineId(0)),
        "test premise: machine 0 hosts shards"
    );
    let e = Simulation::new(inst, cfg).run();
    assert!(e.counters.evacuations >= 1);
    assert_eq!(e.counters.transient_violations, 0);
    let last = e.gauges.last().unwrap();
    assert_eq!(last.failed_machines, 1);
    // Degradation happened, then stopped once drained.
    assert!(e.counters.queries_degraded > 0);
    assert!(e.counters.queries_degraded < e.counters.queries_arrived);
}

#[test]
fn crash_mid_migration_aborts_and_replans() {
    // Crash right when the SRA controller is likely mid-plan; whatever
    // the timing, the run must finish with the machine drained and no
    // transient violations.
    let mut cfg = short_cfg(ControllerPolicy::Sra);
    cfg.ticks = 2_500;
    cfg.copy_bandwidth = 0.05; // long batches → crash lands mid-flight
    cfg.faults = vec![FaultSpec::Crash {
        at: 300,
        machine: 2,
        recover_at: None,
    }];
    let e = Simulation::new(hotspot(15), cfg).run();
    assert_eq!(e.counters.transient_violations, 0);
    assert!(e.counters.crashes == 1);
    assert!(e.counters.evacuations >= 1);
}

#[test]
fn traced_run_matches_plain_run_and_narrates_decisions() {
    let mk = || {
        let mut cfg = short_cfg(ControllerPolicy::Sra);
        cfg.faults = vec![
            FaultSpec::Crash {
                at: 400,
                machine: 1,
                recover_at: Some(900),
            },
            FaultSpec::Spike {
                at: 600,
                duration: 200,
                factor: 1.5,
                shard_fraction: 0.1,
            },
        ];
        Simulation::new(hotspot(11), cfg)
    };
    let plain = mk().run().to_json();
    let mut rec = Recorder::active();
    let traced = mk().run_traced(&mut rec).to_json();
    assert_eq!(plain, traced, "tracing must not perturb the run");

    assert_eq!(rec.open_spans(), 0);
    assert!(rec.is_active());
    let names: Vec<&str> = rec.events().iter().map(|e| e.name).collect();
    assert_eq!(names.first(), Some(&"simulate"));
    assert_eq!(names.last(), Some(&"simulate"));
    for expected in [
        "trigger",
        "plan_adopted",
        "plan_start",
        "batch",
        "plan_done",
        "crash",
        "recover",
        "spike_start",
        "spike_end",
    ] {
        assert!(
            names.contains(&expected),
            "missing runtime event {expected}"
        );
    }
    // Counters in the trace agree with the metrics bus.
    let export = mk().run();
    assert_eq!(
        rec.counter("runtime.triggers"),
        export.counters.rebalances_triggered
    );
    assert_eq!(rec.counter("runtime.crashes"), export.counters.crashes);
}

#[test]
fn traced_runs_are_byte_identical() {
    let mk = || {
        let mut cfg = short_cfg(ControllerPolicy::Sra);
        cfg.drift = Some(DriftSpec {
            every_ticks: 300,
            sigma: 0.15,
            target_utilization: 0.6,
        });
        Simulation::new(hotspot(11), cfg)
    };
    let mut ra = Recorder::active();
    let _ = mk().run_traced(&mut ra);
    let mut rb = Recorder::active();
    let _ = mk().run_traced(&mut rb);
    assert_eq!(ra.to_jsonl(), rb.to_jsonl());
    assert_eq!(ra.summary(), rb.summary());
    assert!(!ra.to_jsonl().is_empty());
}

#[test]
fn spike_and_drift_keep_the_loop_safe() {
    let mut cfg = short_cfg(ControllerPolicy::Sra);
    cfg.faults = vec![FaultSpec::Spike {
        at: 200,
        duration: 400,
        factor: 2.0,
        shard_fraction: 0.15,
    }];
    cfg.drift = Some(DriftSpec {
        every_ticks: 250,
        sigma: 0.2,
        target_utilization: 0.6,
    });
    let e = Simulation::new(hotspot(16), cfg).run();
    assert_eq!(e.counters.spikes_started, 1);
    assert_eq!(e.counters.spikes_ended, 1);
    assert!(e.counters.drift_epochs > 0);
    assert_eq!(e.counters.transient_violations, 0);
}

/// A fleet where one shard alone dominates its machine, plus light
/// background load everywhere else.
fn one_hot(hot_demand: f64) -> Instance {
    let mut b = rex_cluster::InstanceBuilder::new(1)
        .alpha(0.1)
        .label("one-hot");
    let machines: Vec<MachineId> = (0..6).map(|_| b.machine(&[100.0])).collect();
    b.exchange_machine(&[100.0]);
    b.exchange_machine(&[100.0]);
    b.shard(&[hot_demand], 8.0, machines[0]);
    for i in 0..15 {
        b.shard(&[6.0], 2.0, machines[1 + i % 5]);
    }
    b.build().unwrap()
}

fn hotshard_cfg() -> RuntimeConfig {
    RuntimeConfig {
        ticks: 1_500,
        seed: 9,
        controller: ControllerConfig {
            policy: ControllerPolicy::Off,
            ..Default::default()
        },
        hotshard: rex_runtime::HotShardConfig {
            enabled: true,
            poll_interval: 20,
            ewma_alpha: 0.4,
            delta_iters: 400,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn hotshard_splits_dominant_shard_and_sheds_load() {
    // One indivisible 55%-of-machine shard: no whole-shard migration
    // can fix m0, only a split followed by a delta migration can.
    let e = Simulation::new(one_hot(55.0), hotshard_cfg()).run();
    assert!(e.counters.shard_splits >= 1, "no split: {:?}", e.counters);
    assert!(
        e.counters.hotshard_migrations >= 1,
        "no delta migration completed: {:?}",
        e.counters
    );
    assert_eq!(e.counters.transient_violations, 0);
    let last = e.gauges.last().unwrap();
    assert!(
        last.shards > 16,
        "shard count did not grow: {}",
        last.shards
    );
    // m0 held 0.55 + background; after the split one half moved away.
    assert!(
        last.peak_util < 0.50,
        "peak did not drop below the pre-split level: {}",
        last.peak_util
    );
}

#[test]
fn hotshard_merges_cold_siblings_after_spike_ends() {
    // Statically warm (0.30) shard pushed over the split threshold by
    // a flash crowd; once the crowd passes, both halves cool below the
    // merge threshold and the pair merges back.
    let mut cfg = hotshard_cfg();
    cfg.faults = vec![FaultSpec::Spike {
        at: 100,
        duration: 300,
        factor: 2.0,
        shard_fraction: 0.01, // hottest shard only
    }];
    cfg.ticks = 3_000;
    let e = Simulation::new(one_hot(30.0), cfg).run();
    assert!(e.counters.shard_splits >= 1, "no split: {:?}", e.counters);
    assert!(e.counters.shard_merges >= 1, "no merge: {:?}", e.counters);
    assert_eq!(e.counters.transient_violations, 0);
    let last = e.gauges.last().unwrap();
    assert_eq!(
        last.shards, 16,
        "fleet did not return to its original shape"
    );
}

#[test]
fn hotshard_runs_are_deterministic_and_trace_never_perturbs() {
    let run = || {
        Simulation::new(one_hot(55.0), hotshard_cfg())
            .run()
            .to_json()
    };
    assert_eq!(run(), run());
    let mut rec = Recorder::active();
    let traced = Simulation::new(one_hot(55.0), hotshard_cfg())
        .run_traced(&mut rec)
        .to_json();
    assert_eq!(run(), traced, "tracing perturbed a hot-shard run");
    let mut rec2 = Recorder::active();
    let _ = Simulation::new(one_hot(55.0), hotshard_cfg()).run_traced(&mut rec2);
    assert_eq!(rec.to_jsonl(), rec2.to_jsonl(), "same-seed traces diverged");
}

/// A one-dimensional fleet shaped like the differential scenarios.
fn scenario_fleet(seed: u64, hotspot: bool) -> Instance {
    generate(&SynthConfig {
        n_machines: 8,
        n_exchange: if hotspot { 2 } else { 0 },
        n_shards: 64,
        dims: 1,
        stringency: 0.4,
        placement: if hotspot {
            Placement::Hotspot(0.35)
        } else {
            Placement::BalancedBfd
        },
        seed,
        ..Default::default()
    })
    .unwrap()
}

#[test]
fn sampled_fanout_mode_is_deterministic_and_spikes_scale_arrivals() {
    let spec = rex_cluster::ScenarioSpec {
        ticks: 300,
        qps_per_tick: 4.0,
        ..Default::default()
    };
    let calm = Simulation::from_scenario(scenario_fleet(3, false), &spec).run();
    assert!(calm.counters.queries_arrived > 600, "300 ticks at 4 qpt");
    assert_eq!(
        calm.counters.queries_sampled, calm.counters.queries_arrived,
        "scenario lowering samples every arrival"
    );
    let a = Simulation::from_scenario(scenario_fleet(3, false), &spec)
        .run()
        .to_json();
    assert_eq!(a, calm.to_json(), "same scenario must reproduce");
    // A flash crowd scales the arrival rate by the weight ratio.
    let spiked_spec = rex_cluster::ScenarioSpec {
        spike: Some(rex_cluster::SpikeSpec {
            at_tick: 50,
            duration_ticks: 200,
            factor: 3.0,
            shard_fraction: 0.2,
        }),
        ..spec
    };
    let spiked = Simulation::from_scenario(scenario_fleet(3, false), &spiked_spec).run();
    assert!(
        spiked.counters.queries_arrived > calm.counters.queries_arrived,
        "hot shards must arrive more often: {} vs {}",
        spiked.counters.queries_arrived,
        calm.counters.queries_arrived
    );
    assert!(spiked.latency.p99 > calm.latency.p99);
}

#[test]
fn event_mode_runs_deterministically_over_the_same_scenario() {
    let spec = rex_cluster::ScenarioSpec {
        ticks: 200,
        qps_per_tick: 4.0,
        ..Default::default()
    };
    let run = || {
        Simulation::from_scenario_event(
            scenario_fleet(3, false),
            &spec,
            PolicyKind::RoundRobin,
            false,
        )
        .run()
    };
    let e = run();
    assert!(e.counters.queries_arrived > 400);
    assert!(e.latency.count > 0);
    assert_eq!(e.to_json(), run().to_json());
}

#[test]
fn event_mode_mirrors_moves_through_spike_crash_and_sra() {
    // The strongest lockstep check in the crate: every gauge sample
    // runs the bitwise load-parity assertion while the controller
    // evacuates a crash, SRA rebalances a hotspot, and a flash crowd
    // moves surcharge around — any drift between the Assignment and
    // the router replica map panics the run.
    let spec = rex_cluster::ScenarioSpec {
        ticks: 600,
        qps_per_tick: 4.0,
        spike: Some(rex_cluster::SpikeSpec {
            at_tick: 100,
            duration_ticks: 200,
            factor: 2.0,
            shard_fraction: 0.1,
        }),
        crash: Some(rex_cluster::CrashSpec {
            at_tick: 300,
            machine: 1,
            recover_at_tick: Some(500),
        }),
        sra: Some(rex_cluster::SraSpec {
            every_ticks: 50,
            iters: 300,
        }),
        ..Default::default()
    };
    let e = Simulation::from_scenario_event(
        scenario_fleet(7, true),
        &spec,
        PolicyKind::PowerOfD,
        false,
    )
    .run();
    assert_eq!(e.counters.crashes, 1);
    assert_eq!(e.counters.spikes_started, 1);
    assert!(
        e.counters.moves_committed > 0,
        "the evacuation moves shards"
    );
    assert!(
        e.counters.queries_degraded > 0,
        "crash degrades until drained"
    );
    assert_eq!(e.counters.transient_violations, 0);
}

#[test]
fn ewma_controller_mode_observes_router_latency_and_stays_deterministic() {
    let spec = rex_cluster::ScenarioSpec {
        ticks: 400,
        qps_per_tick: 4.0,
        sra: Some(rex_cluster::SraSpec {
            every_ticks: 50,
            iters: 300,
        }),
        ..Default::default()
    };
    let run = |ewma: bool| {
        Simulation::from_scenario_event(scenario_fleet(7, true), &spec, PolicyKind::PowerOfD, ewma)
            .run()
    };
    let a = run(true);
    assert_eq!(a.to_json(), run(true).to_json());
    // The observed-EWMA signal is a different controller input than
    // ground truth, so trigger counts may differ — but the run stays
    // healthy either way.
    assert!(a.counters.queries_arrived > 800);
    assert_eq!(a.counters.transient_violations, 0);
}

#[test]
fn crash_cancels_in_flight_hotshard_operators() {
    // The split fires at the first poll (tick 20) and its follow-up
    // delta migration flies for ~80 ticks at this bandwidth; a crash
    // at tick 50 lands mid-flight and must cancel the operator.
    let mut cfg = hotshard_cfg();
    cfg.copy_bandwidth = 0.05;
    cfg.faults = vec![FaultSpec::Crash {
        at: 50,
        machine: 3,
        recover_at: Some(600),
    }];
    let e = Simulation::new(one_hot(55.0), cfg).run();
    assert!(
        e.counters.hotshard_cancelled >= 1,
        "crash did not cancel operators: {:?}",
        e.counters
    );
    assert_eq!(e.counters.transient_violations, 0);
}

// ---- workload plane ----------------------------------------------------

/// A 3-generation fleet on 3 racks with a rack crash, a flash crowd,
/// and (optionally) a drifting-Zipfian load script — the full workload
/// plane in one spec.
fn heterogeneous_workload(with_load: bool) -> (Instance, rex_cluster::WorkloadSpec) {
    let w = rex_cluster::WorkloadSpec {
        scenario: rex_cluster::ScenarioSpec {
            ticks: 800,
            seed: 11,
            spike: Some(rex_cluster::SpikeSpec {
                at_tick: 200,
                duration_ticks: 100,
                factor: 1.6,
                shard_fraction: 0.08,
            }),
            sra: Some(rex_cluster::SraSpec {
                every_ticks: 100,
                iters: 300,
            }),
            ..Default::default()
        },
        fleet: Some(rex_cluster::FleetSpec {
            generations: vec![
                rex_cluster::GenerationSpec {
                    name: "gen-a".into(),
                    count: 4,
                    scale: 1.0,
                },
                rex_cluster::GenerationSpec {
                    name: "gen-b".into(),
                    count: 4,
                    scale: 2.0,
                },
                rex_cluster::GenerationSpec {
                    name: "gen-c".into(),
                    count: 4,
                    scale: 4.0,
                },
            ],
            exchange: 2,
            exchange_scale: 4.0,
            racks: 3,
        }),
        load: with_load.then_some(rex_cluster::LoadScriptSpec {
            diurnal_amplitude: 0.2,
            ticks_per_hour: 200,
            zipf_alpha: 0.9,
            drift_every_ticks: 150,
            swaps_per_epoch: 40,
            target_utilization: 0.6,
        }),
        rack_crashes: vec![rex_cluster::RackCrashSpec {
            at_tick: 350,
            rack: 1,
            recover_at_tick: Some(600),
        }],
    };
    let inst = rex_workload::generate_workload(
        &w,
        &SynthConfig {
            n_shards: 96,
            stringency: 0.65,
            alpha: 0.1,
            ..Default::default()
        },
    )
    .unwrap();
    (inst, w)
}

#[test]
fn workload_popularity_and_rack_crashes_run_deterministically() {
    let run = || {
        let (inst, w) = heterogeneous_workload(true);
        Simulation::from_workload(inst, &w).run()
    };
    let e = run();
    assert_eq!(e.to_json(), run().to_json());
    assert!(
        e.counters.popularity_epochs > 0,
        "the load script must drive popularity epochs: {:?}",
        e.counters
    );
    // Rack 1 of 3 over 12 machines crashes machines 4..8 as one clause.
    assert_eq!(e.counters.crashes, 4);
    assert_eq!(e.counters.recoveries, 4);
    assert_eq!(e.counters.transient_violations, 0);
}

#[test]
fn recording_never_perturbs_and_replay_is_byte_identical() {
    let (inst, w) = heterogeneous_workload(true);
    let plain = Simulation::from_workload(inst.clone(), &w).run().to_json();
    let (recorded, lines) =
        Simulation::from_workload(inst.clone(), &w).run_recorded(&mut Recorder::noop());
    assert_eq!(
        plain,
        recorded.to_json(),
        "recording must be an append-only side channel"
    );
    assert!(
        lines.iter().any(|l| l.kind == "popularity"),
        "trace must capture popularity epochs"
    );
    assert!(lines.iter().any(|l| l.kind == "crash"));
    assert!(lines.iter().any(|l| l.kind == "spike_start"));
    // Round-trip the trace through its JSONL file form, then replay.
    let text = rex_runtime::trace::write_jsonl(&w, &inst, &lines);
    let (w2, inst2, lines2) = rex_runtime::trace::parse_jsonl(&text).unwrap();
    let mut sim = Simulation::from_workload(inst2, &w2);
    sim.set_replay(ReplayScript::from_lines(&lines2));
    assert_eq!(
        plain,
        sim.run().to_json(),
        "a replayed trace must reproduce the run byte for byte"
    );
}

#[test]
fn workload_replays_through_the_event_engine_too() {
    let (inst, w) = heterogeneous_workload(false);
    let run = |replay: Option<ReplayScript>| {
        let mut sim =
            Simulation::from_workload_event(inst.clone(), &w, PolicyKind::PowerOfD, false);
        if let Some(script) = replay {
            sim.set_replay(script);
        }
        sim.run_recorded(&mut Recorder::noop())
    };
    let (original, lines) = run(None);
    assert_eq!(original.counters.crashes, 4);
    assert!(original.counters.spikes_started > 0);
    let (replayed, _) = run(Some(ReplayScript::from_lines(&lines)));
    assert_eq!(
        original.to_json(),
        replayed.to_json(),
        "event-engine replay must reproduce the run byte for byte"
    );
}

#[test]
#[should_panic(expected = "load-script")]
fn event_engine_rejects_load_scripts() {
    let (inst, w) = heterogeneous_workload(true);
    let _ = Simulation::from_workload_event(inst, &w, PolicyKind::PowerOfD, false);
}
