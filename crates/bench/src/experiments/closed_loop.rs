//! **E13 — the controller in the loop: does rebalancing pay for itself?**
//!
//! Everything before this experiment scores *solutions*; this one scores
//! *operation*. The closed-loop runtime simulates a fleet serving diurnal
//! query traffic while demand drifts, a flash crowd hits, and a machine
//! crashes mid-run (and likely mid-migration). Three controller policies
//! ride the identical event sequence — same instance, same seed, same
//! faults — differing only in what happens when the balance alarm fires:
//!
//! * **off** — never rebalance for load. Crashed machines are still
//!   evacuated (an operator cannot leave shards on a dead machine), so the
//!   column isolates exactly the value of load-driven rebalancing.
//! * **greedy** — the classic playbook: move shards off the hottest
//!   machine until the alarm clears, no exchange machines.
//! * **sra** — the paper's exchange-aware large-neighborhood search, with
//!   the loan rotating onto the machines each solve hands back.
//!
//! Reported per policy: controller activity, steady-state peak utilization
//! (mean over the last third of the run), query-latency percentiles from
//! the fan-out straggler model, the fraction of queries degraded by a dead
//! machine still hosting shards, migration traffic, and the executor's
//! independent transient-constraint violation count (must be zero).

use crate::{assert_shape, f2, f4, instance, run_policy, scaled, scaled_fleet, synth, Table};
use rex_runtime::{ControllerConfig, ControllerPolicy, DriftSpec, FaultSpec, RuntimeConfig};
use rex_workload::synthetic::{DemandFamily, Placement, SynthConfig};

const COLS: &str = "trig | done | abort | evac | steady peak | final peak | lat p50 | lat p99 | degraded % | traffic | viol";

pub fn run() {
    let machines = scaled_fleet(24);
    let shards = scaled(240).max(6 * machines);
    let ticks = scaled(12_000) as u64;
    let inst = instance(SynthConfig {
        // Tight capacity + heavy-tailed shard sizes: the regime where
        // single-shard relocation hits fit walls and the exchange machines
        // earn their keep (cf. E2, where greedy improves zipf by only ~1%).
        family: DemandFamily::Zipf,
        placement: Placement::Hotspot(0.35),
        ..synth(machines, (machines / 8).max(1), shards, 0.65, 20)
    });

    let base = RuntimeConfig {
        ticks,
        seed: 9,
        qps: 8.0,
        // Slow copies: batches span many ticks, so the crash below lands
        // mid-migration whenever a plan is in flight.
        copy_bandwidth: 0.5,
        // Keep the balanced fleet below saturation at the diurnal peak
        // (steady peak × the damped swing stays under rho_max).
        diurnal_amplitude: 0.1,
        controller: ControllerConfig {
            sra_iters: scaled(3_000) as u64,
            ..Default::default()
        },
        faults: vec![
            FaultSpec::Crash {
                // A few ticks after the t≈0.27·ticks controller poll: at
                // full scale the SRA plan adopted there is still copying,
                // so the crash exercises the abort-and-replan path.
                at: ticks * 271 / 1000 + 4,
                machine: 1,
                recover_at: Some(ticks * 45 / 100),
            },
            FaultSpec::Spike {
                at: ticks / 2,
                duration: ticks / 20,
                factor: 1.4,
                shard_fraction: 0.05,
            },
        ],
        drift: Some(DriftSpec {
            every_ticks: 400,
            sigma: 0.15,
            target_utilization: 0.6,
        }),
        ..Default::default()
    };

    let mut t = Table::new(&format!("policy | {COLS}"));
    // (steady peak, p99) per policy, in the order below.
    let mut runs = Vec::new();
    for policy in [
        ControllerPolicy::Off,
        ControllerPolicy::Greedy,
        ControllerPolicy::Sra,
    ] {
        let mut cfg = base.clone();
        cfg.controller.policy = policy;
        let (e, row) = run_policy(policy.name(), &inst, cfg, COLS);
        t.row(row);
        runs.push((e.steady_state_peak(), e.latency.p99));
    }

    t.print("E13 — closed-loop control: SRA vs greedy vs no controller");
    println!(
        "\nOne identical run per policy: {} machines, {} shards, {} ticks; \
         crash of machine 1 at t={} (recovers t={}), 1.4x flash crowd at t={}, \
         demand drift every 400 ticks.",
        machines,
        shards,
        ticks,
        ticks * 271 / 1000 + 4,
        ticks * 45 / 100,
        ticks / 2
    );
    println!(
        "Expected shape: `off` drifts to a high steady peak and the worst p99; \
         `greedy` reacts but plateaus above SRA (no exchange, weaker targets); \
         `sra` holds the lowest steady peak and tail latency for moderate extra \
         traffic. Aborted plans come from the crash landing mid-migration; the \
         violation column must stay 0 throughout."
    );
    // The shape the line above promises (the violation column is checked
    // by `run_policy`).
    let [off, greedy, sra] = [runs[0], runs[1], runs[2]];
    let mut broken = Vec::new();
    for (name, (peak, p99)) in [("off", off), ("greedy", greedy)] {
        if sra.0 >= peak {
            broken.push(format!(
                "sra steady peak {} not below {name}'s {}",
                f4(sra.0),
                f4(peak)
            ));
        }
        if sra.1 >= p99 {
            broken.push(format!(
                "sra p99 {} not below {name}'s {}",
                f2(sra.1),
                f2(p99)
            ));
        }
    }
    if off.1 <= greedy.1 {
        broken.push(format!(
            "off p99 {} not above greedy's {}",
            f2(off.1),
            f2(greedy.1)
        ));
    }
    assert_shape(&broken);
}
