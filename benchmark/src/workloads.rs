//! The five workloads: their frozen parameters, how their inputs are made
//! from a seed, the `rex` command lines of one operation, and the checks
//! and quality numbers taken from what an operation wrote.
//!
//! Every run works on a small **pool** of inputs generated from `--seed`
//! (input `i` is seeded `seed · 1000 + i`), and operations visit the pool
//! round-robin. One instance per run would not do: the wall time of a
//! solve depends on how many new bests the search happens to find (each is
//! gated on a full migration plan), and that count varies by ±25–60 % from
//! one instance to the next — far more than any bound worth gating on. The
//! median over a pool is what a fleet of callers would see, and it repeats.

use rex_cluster::{
    Assignment, BalanceReport, CrashSpec, FleetSpec, GenerationSpec, Instance, LoadScriptSpec,
    MachineId, MigrationPlan, RackCrashSpec, ScenarioSpec, SpikeSpec, SraSpec, WorkloadSpec,
};
use rex_runtime::Simulation;
use rex_workload::io;
use rex_workload::synthetic::{
    generate, generate_workload, DemandFamily, MachineProfile, Placement, SynthConfig,
};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// One benchmark workload. `name` is what `--workload` takes and what
/// later issues cite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(clippy::enum_variant_names)] // the variants are the workload names
pub enum Workload {
    SolveDecomposed,
    SolveStringent,
    ClosedLoop,
    WorkloadReplay,
    ConvergeEvents,
}

pub const ALL: [Workload; 5] = [
    Workload::SolveDecomposed,
    Workload::SolveStringent,
    Workload::ClosedLoop,
    Workload::WorkloadReplay,
    Workload::ConvergeEvents,
];

// ---- frozen parameters ---------------------------------------------------
//
// Sized so an operation takes 0.2–1.4 s on the 2-core reference box and one
// pass over the pool takes 9–14 s of the 15 s a run measures: as many
// different inputs as fit, because input-to-input variation, not timer
// noise, is what limits how steady a run's numbers are.

/// `rex solve --partitions 8 --iters N` on the web-scale instance.
pub const DECOMPOSED_ITERS: u64 = 600;
pub const DECOMPOSED_PARTITIONS: usize = 8;
/// `rex solve --iters N` (serial) on the stringent instance.
pub const STRINGENT_ITERS: u64 = 400;
/// `rex simulate --ticks N` for the closed loop; the fault script is laid
/// out in fractions of it.
pub const CLOSED_LOOP_TICKS: u64 = 1500;
pub const REPLAY_TICKS: u64 = 1000;
pub const REPLAY_SRA_EVERY: u64 = 200;
pub const REPLAY_SRA_ITERS: u64 = 1500;
pub const CONVERGE_TICKS: u64 = 10_000;
pub const CONVERGE_QPS: f64 = 80.0;
/// `rex converge` fails an op whose tick-vs-event p99 differ by more.
pub const P99_BAND_LIMIT: f64 = 0.15;
/// Ticks of the controller-off simulation that turns a solved placement
/// into a query-latency number.
pub const PLACEMENT_PROBE_TICKS: u64 = 300;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveDecomposed => "solve_decomposed",
            Workload::SolveStringent => "solve_stringent",
            Workload::ClosedLoop => "closed_loop",
            Workload::WorkloadReplay => "workload_replay",
            Workload::ConvergeEvents => "converge_events",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Inputs per run.
    pub fn pool(self) -> usize {
        match self {
            Workload::SolveDecomposed => 9,
            Workload::SolveStringent => 80,
            Workload::ClosedLoop => 20,
            Workload::WorkloadReplay => 14,
            Workload::ConvergeEvents => 8,
        }
    }

    pub fn is_solve(self) -> bool {
        matches!(self, Workload::SolveDecomposed | Workload::SolveStringent)
    }

    /// Generator settings of the workload's instances.
    pub fn synth(self, seed: u64) -> SynthConfig {
        let hotspot = Placement::Hotspot(0.4);
        let (n_machines, n_exchange, n_shards, dims, stringency, placement) = match self {
            Workload::SolveDecomposed => (1000, 125, 10_000, 3, 0.75, hotspot),
            Workload::SolveStringent => (100, 8, 1000, 3, 0.90, hotspot),
            Workload::ClosedLoop => (24, 3, 480, 3, 0.75, hotspot),
            // Machine counts come from the fleet table for these two.
            Workload::WorkloadReplay => (48, 6, 960, 3, 0.60, hotspot),
            // What `rex converge` itself synthesizes: one resource, a
            // balanced fleet at 40% — the regime in which the two engines'
            // latency models are meant to agree.
            Workload::ConvergeEvents => (64, 0, 1280, 1, 0.40, Placement::BalancedBfd),
        };
        SynthConfig {
            n_machines,
            n_exchange,
            n_shards,
            dims,
            stringency,
            alpha: 0.1,
            family: DemandFamily::Correlated,
            placement,
            profile: MachineProfile::Homogeneous,
            seed,
        }
    }

    /// The engine-neutral spec file of the two workload-plane workloads.
    pub fn spec(self, seed: u64) -> Option<WorkloadSpec> {
        let generation = |name: &str, count, scale| GenerationSpec {
            name: name.into(),
            count,
            scale,
        };
        match self {
            Workload::WorkloadReplay => {
                let t = REPLAY_TICKS;
                Some(WorkloadSpec {
                    scenario: ScenarioSpec {
                        ticks: t,
                        qps_per_tick: 8.0,
                        seed,
                        sra: Some(SraSpec {
                            every_ticks: REPLAY_SRA_EVERY,
                            iters: REPLAY_SRA_ITERS,
                        }),
                        ..Default::default()
                    },
                    fleet: Some(FleetSpec {
                        generations: vec![
                            generation("gen-a", 18, 1.0),
                            generation("gen-b", 18, 2.0),
                            generation("gen-c", 12, 4.0),
                        ],
                        exchange: 6,
                        exchange_scale: 4.0,
                        racks: 6,
                    }),
                    load: Some(LoadScriptSpec {
                        diurnal_amplitude: 0.3,
                        ticks_per_hour: t / 5,
                        zipf_alpha: 0.3,
                        drift_every_ticks: t / 8,
                        swaps_per_epoch: 60,
                        target_utilization: 0.5,
                    }),
                    rack_crashes: vec![RackCrashSpec {
                        at_tick: 3 * t / 10,
                        rack: 1,
                        recover_at_tick: Some(t / 2),
                    }],
                })
            }
            Workload::ConvergeEvents => {
                let t = CONVERGE_TICKS;
                Some(WorkloadSpec {
                    scenario: ScenarioSpec {
                        ticks: t,
                        qps_per_tick: CONVERGE_QPS,
                        seed,
                        spike: Some(SpikeSpec {
                            at_tick: 3 * t / 10,
                            duration_ticks: 3 * t / 40,
                            factor: 2.0,
                            shard_fraction: 0.1,
                        }),
                        crash: None::<CrashSpec>,
                        sra: None,
                        ..Default::default()
                    },
                    fleet: Some(FleetSpec {
                        generations: vec![
                            generation("gen-a", 32, 1.0),
                            generation("gen-b", 32, 2.0),
                        ],
                        exchange: 0,
                        exchange_scale: 1.0,
                        racks: 8,
                    }),
                    load: None,
                    rack_crashes: vec![RackCrashSpec {
                        at_tick: 9 * t / 20,
                        rack: 2,
                        recover_at_tick: Some(13 * t / 20),
                    }],
                })
            }
            _ => None,
        }
    }
}

// ---- inputs --------------------------------------------------------------

/// One generated input: the files `rex` is pointed at, plus the parsed
/// instance the harness checks outputs against.
pub struct Input {
    pub seed: u64,
    pub inst: Instance,
    pub inst_path: PathBuf,
    pub spec: Option<WorkloadSpec>,
    pub spec_path: Option<PathBuf>,
}

/// Seed of pool slot `slot` in a run seeded `seed`.
pub fn slot_seed(seed: u64, slot: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(slot as u64)
}

/// Builds pool slot `slot`: generate, save, load + validate, write the
/// spec file. This is exactly what `setup_s` times.
pub fn build_input(w: Workload, seed: u64, slot: usize, dir: &Path) -> Result<Input, String> {
    let seed = slot_seed(seed, slot);
    let spec = w.spec(seed);
    let generated = match &spec {
        Some(spec) => generate_workload(spec, &w.synth(seed)),
        None => generate(&w.synth(seed)),
    }
    .map_err(|e| format!("generating input {slot}: {e}"))?;
    let inst_path = dir.join(format!("inst-{slot}.json"));
    io::save(&generated, &inst_path).map_err(|e| format!("saving {inst_path:?}: {e}"))?;
    // Round-trip through the file: the harness checks outputs against the
    // bytes `rex` will read, not against the in-memory original.
    let inst = io::load(&inst_path).map_err(|e| format!("loading {inst_path:?}: {e}"))?;
    let spec_path = match &spec {
        Some(spec) => {
            spec.validate().map_err(|e| format!("workload spec: {e}"))?;
            let path = dir.join(format!("spec-{slot}.json"));
            let json = serde_json::to_string_pretty(spec).map_err(|e| e.to_string())?;
            std::fs::write(&path, json).map_err(|e| format!("writing {path:?}: {e}"))?;
            Some(path)
        }
        None => None,
    };
    Ok(Input {
        seed,
        inst,
        inst_path,
        spec,
        spec_path,
    })
}

// ---- one operation -------------------------------------------------------

/// Files one operation writes (all inside the run's scratch directory).
pub struct OpFiles {
    /// Main output: solution JSON or metrics export.
    pub out: PathBuf,
    /// Second export (`workload_replay`: the replayed run).
    pub out_b: PathBuf,
    /// Recorded workload trace (`workload_replay`).
    pub trace: PathBuf,
}

impl OpFiles {
    pub fn new(dir: &Path, slot: usize) -> Self {
        Self {
            out: dir.join(format!("out-{slot}.json")),
            out_b: dir.join(format!("out-{slot}-replayed.json")),
            trace: dir.join(format!("trace-{slot}.jsonl")),
        }
    }
}

fn s(p: &Path) -> String {
    p.to_str().expect("scratch paths are UTF-8").to_string()
}

/// The `rex` argument vectors of one operation, in order. Every workload
/// is one invocation except `workload_replay`, which records then replays.
pub fn op_args(w: Workload, input: &Input, files: &OpFiles) -> Vec<Vec<String>> {
    let seed = input.seed.to_string();
    let inst = s(&input.inst_path);
    let out = s(&files.out);
    let strs = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
    match w {
        Workload::SolveDecomposed => vec![strs(&[
            "solve",
            "--inst",
            &inst,
            "--partitions",
            &DECOMPOSED_PARTITIONS.to_string(),
            "--iters",
            &DECOMPOSED_ITERS.to_string(),
            "--seed",
            &seed,
            "--out",
            &out,
        ])],
        Workload::SolveStringent => vec![strs(&[
            "solve",
            "--inst",
            &inst,
            "--iters",
            &STRINGENT_ITERS.to_string(),
            "--seed",
            &seed,
            "--out",
            &out,
        ])],
        Workload::ClosedLoop => {
            let f = closed_loop_faults();
            vec![strs(&[
                "simulate",
                "--inst",
                &inst,
                "--seed",
                &seed,
                "--ticks",
                &CLOSED_LOOP_TICKS.to_string(),
                "--controller",
                "sra",
                "--hotshard",
                "--crash-at",
                &f.crash_at.to_string(),
                "--crash-machine",
                &f.crash_machine.to_string(),
                "--recover-at",
                &f.recover_at.to_string(),
                "--spike-at",
                &f.spike_at.to_string(),
                "--spike-duration",
                &f.spike_duration.to_string(),
                "--spike-fraction",
                &f.spike_fraction.to_string(),
                "--spike-factor",
                &f.spike_factor.to_string(),
                "--out",
                &out,
                "--quiet",
            ])]
        }
        Workload::WorkloadReplay => {
            let spec = s(input.spec_path.as_deref().expect("replay has a spec"));
            let trace = s(&files.trace);
            vec![
                strs(&[
                    "simulate",
                    "--workload",
                    &spec,
                    "--inst",
                    &inst,
                    "--record-trace",
                    &trace,
                    "--out",
                    &out,
                    "--quiet",
                ]),
                strs(&[
                    "simulate",
                    "--replay-trace",
                    &trace,
                    "--out",
                    &s(&files.out_b),
                    "--quiet",
                ]),
            ]
        }
        Workload::ConvergeEvents => {
            let spec = s(input.spec_path.as_deref().expect("converge has a spec"));
            vec![strs(&[
                "converge",
                "--workload",
                &spec,
                "--inst",
                &inst,
                "--policy",
                "power_of_d",
                "--out",
                &out,
                "--quiet",
            ])]
        }
    }
}

/// The closed loop's fault script, in ticks.
pub struct ClosedLoopFaults {
    pub crash_at: u64,
    pub crash_machine: u32,
    pub recover_at: u64,
    pub spike_at: u64,
    pub spike_duration: u64,
    pub spike_fraction: f64,
    pub spike_factor: f64,
}

pub fn closed_loop_faults() -> ClosedLoopFaults {
    let t = CLOSED_LOOP_TICKS;
    // Everything is over by 55% of the run, so the last third of the gauge
    // samples — what `steady_state_peak` averages — sees the fleet after
    // the controller has dealt with it, not the spike itself.
    ClosedLoopFaults {
        crash_at: 3 * t / 20,
        crash_machine: 5,
        recover_at: 3 * t / 10,
        spike_at: 7 * t / 20,
        spike_duration: t / 5,
        spike_fraction: 0.01,
        spike_factor: 8.0,
    }
}

// ---- checking and scoring ------------------------------------------------

/// The deterministic quality numbers of one operation's output.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quality {
    pub peak_load: f64,
    pub migration_traffic: f64,
    pub sim_p99_latency: f64,
}

/// `rex solve --out` file (mirror of the CLI's private `SolutionFile`):
/// parsed to check an op, written by the traced run's in-process replica.
#[derive(Serialize, Deserialize)]
pub struct SolutionFile {
    pub placement: Vec<MachineId>,
    pub plan: MigrationPlan,
    pub returned: Vec<MachineId>,
}

/// The parts of a `rex simulate --out` metrics export the harness reads.
/// `rex_runtime::MetricsExport` only serializes, so the file format — the
/// CLI's public contract — is mirrored here.
#[derive(Deserialize)]
pub struct Export {
    pub counters: ExportCounters,
    pub latency: ExportLatency,
    pub gauges: Vec<ExportGauge>,
}

#[derive(Deserialize)]
pub struct ExportCounters {
    pub plans_failed: u64,
    pub migration_traffic: f64,
    pub transient_violations: u64,
}

#[derive(Deserialize)]
pub struct ExportLatency {
    pub p99: f64,
}

/// Every field of a gauge sample: engine parity is judged on all of them.
#[derive(Deserialize, PartialEq)]
pub struct ExportGauge {
    pub tick: u64,
    pub peak_util: f64,
    pub mean_util: f64,
    pub imbalance: f64,
    pub effective_peak_rho: f64,
    pub in_flight_moves: usize,
    pub failed_machines: usize,
    pub shards: usize,
}

impl Export {
    /// Mean `peak_util` over the last third of the gauge samples: the
    /// formula of `MetricsExport::steady_state_peak`, on the parsed file.
    pub fn steady_state_peak(&self) -> f64 {
        let n = self.gauges.len();
        if n == 0 {
            return 0.0;
        }
        let tail = &self.gauges[n - n / 3 - 1..];
        tail.iter().map(|g| g.peak_util).sum::<f64>() / tail.len() as f64
    }
}

/// `rex converge --out` file.
#[derive(Deserialize)]
struct ConvergeFile {
    tick: Export,
    event: Export,
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))
}

fn parse<T: Deserialize>(path: &Path) -> Result<T, String> {
    serde_json::from_str(&read(path)?).map_err(|e| format!("parsing {path:?}: {e}"))
}

/// Counter rules every simulated run must meet. `plans_failed` is held at
/// zero too: the workloads are sized so every evacuation is feasible, and a
/// change that makes one fail should fail the benchmark. Aborted
/// rebalances are not checked — every simulate workload injects a crash,
/// and a crash landing mid-migration legitimately aborts it.
fn check_counters(export: &Export) -> Result<(), String> {
    let c = &export.counters;
    if c.transient_violations != 0 {
        return Err(format!(
            "rule transient_violations: {} transient capacity violations",
            c.transient_violations
        ));
    }
    if c.plans_failed != 0 {
        return Err(format!(
            "rule plans_failed: {} plans failed",
            c.plans_failed
        ));
    }
    Ok(())
}

/// Query p99 (service units) a solved placement would serve: a short
/// controller-off, fault-free tick-engine run on the fleet as it stands
/// after the exchange (shards where the solution put them, the returned
/// machines now the vacant exchange pool). This is the same `latency.p99`
/// the simulate workloads report, so the metric means one thing on all
/// five workloads.
pub fn placement_p99(inst: &Instance, sol: &SolutionFile, seed: u64) -> Result<f64, String> {
    let mut after = inst.clone();
    after.initial = sol.placement.clone();
    for m in &mut after.machines {
        m.exchange = false;
    }
    for r in &sol.returned {
        after.machines[r.idx()].exchange = true;
    }
    after
        .validate()
        .map_err(|e| format!("rule post_exchange_fleet: {e}"))?;
    let spec = ScenarioSpec {
        ticks: PLACEMENT_PROBE_TICKS,
        seed,
        ..Default::default()
    };
    Ok(Simulation::from_scenario(after, &spec).run().latency.p99)
}

/// Checks what one operation wrote and extracts its quality numbers.
/// `Err` names the rule that was broken.
pub fn check_output(w: Workload, input: &Input, files: &OpFiles) -> Result<Quality, String> {
    match w {
        Workload::SolveDecomposed | Workload::SolveStringent => {
            let sol: SolutionFile = parse(&files.out)?;
            if sol.returned.len() != input.inst.k_return {
                return Err(format!(
                    "rule k_return: {} machines returned, {} owed",
                    sol.returned.len(),
                    input.inst.k_return
                ));
            }
            let asg = Assignment::from_placement(&input.inst, sol.placement.clone())
                .map_err(|e| format!("rule placement: {e}"))?;
            Ok(Quality {
                peak_load: BalanceReport::compute(&input.inst, &asg).peak,
                migration_traffic: sol.plan.total_cost(&input.inst),
                sim_p99_latency: placement_p99(&input.inst, &sol, input.seed)?,
            })
        }
        Workload::ClosedLoop | Workload::WorkloadReplay => {
            if w == Workload::WorkloadReplay && read(&files.out)? != read(&files.out_b)? {
                return Err("rule replay: replayed export differs from the recorded run".into());
            }
            let export: Export = parse(&files.out)?;
            check_counters(&export)?;
            Ok(Quality {
                peak_load: export.steady_state_peak(),
                migration_traffic: export.counters.migration_traffic,
                sim_p99_latency: export.latency.p99,
            })
        }
        Workload::ConvergeEvents => {
            let both: ConvergeFile = parse(&files.out)?;
            check_counters(&both.tick)?;
            check_counters(&both.event)?;
            if both.tick.gauges != both.event.gauges {
                return Err("rule gauge_parity: utilization gauges differ between engines".into());
            }
            let (a, b) = (both.tick.latency.p99, both.event.latency.p99);
            let band = (a - b).abs() / a.max(b);
            if band > P99_BAND_LIMIT {
                return Err(format!(
                    "rule p99_band: tick p99 {a:.2} vs event p99 {b:.2} differ by {:.1}%",
                    100.0 * band
                ));
            }
            Ok(Quality {
                peak_load: both.tick.steady_state_peak(),
                migration_traffic: both.tick.counters.migration_traffic,
                sim_p99_latency: b,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        for w in ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn specs_validate_and_same_seed_gives_same_input() {
        let dir = std::env::temp_dir().join("rexbench-workloads-test");
        std::fs::create_dir_all(&dir).unwrap();
        for w in [Workload::WorkloadReplay, Workload::ConvergeEvents] {
            w.spec(7).unwrap().validate().unwrap();
        }
        let a = build_input(Workload::ClosedLoop, 3, 1, &dir).unwrap();
        let bytes_a = std::fs::read(&a.inst_path).unwrap();
        let b = build_input(Workload::ClosedLoop, 3, 1, &dir).unwrap();
        assert_eq!(bytes_a, std::fs::read(&b.inst_path).unwrap());
        let c = build_input(Workload::ClosedLoop, 4, 1, &dir).unwrap();
        assert_ne!(bytes_a, std::fs::read(&c.inst_path).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }
}
