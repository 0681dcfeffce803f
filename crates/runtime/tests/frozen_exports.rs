//! Frozen pins for the closed-loop runtime: FNV-1a-64 of the metrics
//! export JSON and of the rex-obs JSONL trace for six runs, recorded at
//! commit bda1699 (before `Simulation` was split into a control brain and
//! its arrival / hot-shard planes). Any change to RNG draw order, event
//! scheduling order, float summation order, obs event order or a counter
//! update moves at least one of these hashes.

use rex_cluster::{
    CrashSpec, Instance, InstanceBuilder, MachineId, ScenarioSpec, SpikeSpec, SraSpec, WorkloadSpec,
};
use rex_obs::Recorder;
use rex_router::PolicyKind;
use rex_runtime::{
    trace, ControllerConfig, ControllerPolicy, DriftSpec, FaultSpec, HotShardConfig, MetricsExport,
    ReplayScript, RuntimeConfig, Simulation,
};
use rex_workload::synthetic::{generate, generate_workload, Placement, SynthConfig};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(export hash, trace hash)` of a finished run.
fn pin(export: &MetricsExport, rec: &Recorder) -> (u64, u64) {
    (
        fnv1a(export.to_json().as_bytes()),
        fnv1a(rec.to_jsonl().as_bytes()),
    )
}

/// Runs `sim` traced and pins it.
fn hashes(sim: Simulation) -> (u64, u64) {
    let mut rec = Recorder::active();
    let export = sim.run_traced(&mut rec);
    pin(&export, &rec)
}

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

/// One dominant shard on machine 0, light background load elsewhere.
fn one_hot(hot_demand: f64) -> Instance {
    let mut b = InstanceBuilder::new(1).alpha(0.1).label("one-hot");
    let machines: Vec<MachineId> = (0..6).map(|_| b.machine(&[100.0])).collect();
    b.exchange_machine(&[100.0]);
    b.exchange_machine(&[100.0]);
    b.shard(&[hot_demand], 8.0, machines[0]);
    for i in 0..15 {
        b.shard(&[6.0], 2.0, machines[1 + i % 5]);
    }
    b.build().unwrap()
}

/// The one-dimensional hotspot fleet of the differential scenarios.
fn scenario_fleet() -> Instance {
    generate(&SynthConfig {
        n_machines: 8,
        n_exchange: 2,
        n_shards: 64,
        dims: 1,
        stringency: 0.4,
        placement: Placement::Hotspot(0.35),
        seed: 7,
        ..Default::default()
    })
    .unwrap()
}

#[test]
fn flag_style_tick_run_with_crash_spike_and_drift() {
    // The first load plan flies ticks 27..45 in two batches; the crash at 32
    // lands on its first batch (abort, then evacuation).
    let cfg = RuntimeConfig {
        ticks: 1_500,
        seed: 7,
        copy_bandwidth: 0.05,
        controller: ControllerConfig {
            policy: ControllerPolicy::Sra,
            poll_interval: 25,
            window: 2,
            cooldown_ticks: 200,
            sra_iters: 400,
            ..Default::default()
        },
        faults: vec![
            FaultSpec::Crash {
                at: 32,
                machine: 2,
                recover_at: Some(900),
            },
            FaultSpec::Spike {
                at: 600,
                duration: 200,
                factor: 1.5,
                shard_fraction: 0.1,
            },
            FaultSpec::Spike {
                at: 700,
                duration: 200,
                factor: 1.3,
                shard_fraction: 0.2,
            },
        ],
        drift: Some(DriftSpec {
            every_ticks: 300,
            sigma: 0.15,
            target_utilization: 0.6,
        }),
        ..Default::default()
    };
    let mut rec = Recorder::active();
    let export = Simulation::new(hotspot(15), cfg).run_traced(&mut rec);
    let c = &export.counters;
    assert!(c.rebalances_aborted == 1 && c.evacuations == 1 && c.drift_epochs == 4);
    assert_eq!(
        pin(&export, &rec),
        (0xc54f_6d92_5aed_8b28, 0x3457_1b29_ff3c_99ab)
    );
}

#[test]
fn hotshard_split_delta_migrate_and_merge() {
    let cfg = RuntimeConfig {
        ticks: 3_000,
        seed: 9,
        controller: ControllerConfig {
            policy: ControllerPolicy::Off,
            ..Default::default()
        },
        hotshard: HotShardConfig {
            enabled: true,
            poll_interval: 20,
            ewma_alpha: 0.4,
            delta_iters: 400,
            ..Default::default()
        },
        faults: vec![FaultSpec::Spike {
            at: 100,
            duration: 300,
            factor: 2.0,
            shard_fraction: 0.01,
        }],
        ..Default::default()
    };
    let mut rec = Recorder::active();
    let export = Simulation::new(one_hot(30.0), cfg).run_traced(&mut rec);
    let c = &export.counters;
    assert!(c.shard_splits >= 1 && c.hotshard_migrations >= 1 && c.shard_merges >= 1);
    assert_eq!(
        pin(&export, &rec),
        (0xdb34_b8ca_c0fd_1caa, 0x522d_1bfe_5947_7319)
    );
}

#[test]
fn heterogeneous_example_records_and_replays() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/workload_heterogeneous.json"
    );
    let w: WorkloadSpec = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let inst = generate_workload(
        &w,
        &SynthConfig {
            n_shards: 96,
            stringency: 0.65,
            alpha: 0.1,
            seed: w.scenario.seed,
            ..Default::default()
        },
    )
    .unwrap();
    let mut rec = Recorder::active();
    let (export, lines) = Simulation::from_workload(inst.clone(), &w).run_recorded(&mut rec);
    let text = trace::write_jsonl(&w, &inst, &lines);
    let recorded = pin(&export, &rec);
    assert_eq!(recorded, (0x5648_fa27_70b1_447e, 0x545e_8ed7_5718_4fc3));
    assert_eq!(
        fnv1a(text.as_bytes()),
        0x82bb_0058_a6d4_6346,
        "--record-trace bytes"
    );
    let (w2, inst2, lines2) = trace::parse_jsonl(&text).unwrap();
    let mut replay = Simulation::from_workload(inst2, &w2);
    replay.set_replay(ReplayScript::from_lines(&lines2));
    assert_eq!(hashes(replay), recorded, "replay must reproduce the record");
}

/// Crash + recover + flash crowd + periodic SRA through the event engine.
fn event_spec() -> ScenarioSpec {
    ScenarioSpec {
        ticks: 600,
        qps_per_tick: 4.0,
        spike: Some(SpikeSpec {
            at_tick: 100,
            duration_ticks: 200,
            factor: 2.0,
            shard_fraction: 0.1,
        }),
        crash: Some(CrashSpec {
            at_tick: 300,
            machine: 1,
            recover_at_tick: Some(500),
        }),
        sra: Some(SraSpec {
            every_ticks: 50,
            iters: 300,
        }),
        ..Default::default()
    }
}

#[test]
fn event_mode_with_crash_and_sra_on_ground_truth() {
    let sim = Simulation::from_scenario_event(
        scenario_fleet(),
        &event_spec(),
        PolicyKind::PowerOfD,
        false,
    );
    assert_eq!(hashes(sim), (0x61b8_3185_4aa8_a191, 0x1850_002f_c35e_e7c6));
}

#[test]
fn event_mode_with_crash_and_sra_on_the_router_ewma() {
    let sim =
        Simulation::from_scenario_event(scenario_fleet(), &event_spec(), PolicyKind::Prequal, true);
    assert_eq!(hashes(sim), (0xeda7_8f6d_4c2f_d68f, 0xca17_6d13_c19d_f422));
}

#[test]
fn event_mode_replays_a_recorded_trace() {
    let w = WorkloadSpec::from_scenario(event_spec());
    let inst = scenario_fleet();
    let mut rec = Recorder::active();
    let (export, lines) =
        Simulation::from_workload_event(inst.clone(), &w, PolicyKind::RoundRobin, false)
            .run_recorded(&mut rec);
    let recorded = pin(&export, &rec);
    assert_eq!(recorded, (0x61b8_3185_4aa8_a191, 0x5ca7_7f78_cde5_3b71));
    let mut replay = Simulation::from_workload_event(inst, &w, PolicyKind::RoundRobin, false);
    replay.set_replay(ReplayScript::from_lines(&lines));
    assert_eq!(hashes(replay), recorded, "replay must reproduce the record");
}
