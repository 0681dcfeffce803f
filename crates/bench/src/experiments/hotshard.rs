//! **E14 — the hot-shard control plane: when migration alone cannot help.**
//!
//! The SRA controller moves *whole shards*. That is the right tool while
//! every shard is small against its machine — and useless the moment a
//! single shard's flash crowd saturates whichever machine hosts it: every
//! placement of an indivisible near-capacity shard is equally bad. This
//! experiment builds exactly that regime — one shard that a 2.2× flash
//! crowd pushes to ~97% of a machine by itself — and rides the identical
//! event sequence twice:
//!
//! * **sra** — the closed-loop SRA controller alone. It reacts (the alarm
//!   fires), sheds the background shards, and still ends pinned near
//!   saturation: no whole-shard move can shrink the hot shard.
//! * **sra+hotshard** — the same controller plus the continuous hot-shard
//!   plane: per-shard EWMA observation spots the shard crossing the split
//!   threshold, splits it in place, and hands the solver a *delta* (the
//!   two halves only) to re-place. Peak returns below the controller's
//!   trigger threshold and stays there.
//!
//! Reported per policy: controller activity, hot-shard operator activity,
//! steady-state peak (mean over the last third, fully inside the crowd),
//! recovery time (ticks from crowd start until peak utilization first
//! drops below the 0.92 trigger threshold), tail latency, and the
//! executor's transient-violation count (must be 0).

use crate::{counter_cell, run_policy, scaled, Table};
use rex_cluster::{Instance, InstanceBuilder, MachineId};
use rex_runtime::{ControllerConfig, ControllerPolicy, FaultSpec, HotShardConfig, RuntimeConfig};

/// Eight 100-capacity machines plus two exchange machines. Machine 0 hosts
/// one 44-demand shard (the crowd's target — largest demand in the fleet,
/// so the hottest-shards-first spike selector hits exactly it); the rest
/// carry light background shards the controller is free to shuffle.
fn one_hot_fleet() -> Instance {
    let mut b = InstanceBuilder::new(1).alpha(0.1).label("one-hot-e14");
    let machines: Vec<MachineId> = (0..8).map(|_| b.machine(&[100.0])).collect();
    b.exchange_machine(&[100.0]);
    b.exchange_machine(&[100.0]);
    b.shard(&[44.0], 8.0, machines[0]);
    for i in 0..21 {
        b.shard(&[6.0], 2.0, machines[1 + i % 7]);
    }
    b.build().expect("one-hot fleet validates")
}

pub fn run() {
    let ticks = scaled(8_000) as u64;
    let crowd_at = ticks / 4;
    let inst = one_hot_fleet();

    let base = RuntimeConfig {
        ticks,
        seed: 17,
        qps: 8.0,
        diurnal_amplitude: 0.1,
        controller: ControllerConfig {
            policy: ControllerPolicy::Sra,
            sra_iters: scaled(2_000) as u64,
            ..Default::default()
        },
        // One flash crowd on the single hottest shard, lasting to the end
        // of the run: 44 × 2.2 ≈ 97% of a machine from one shard alone.
        faults: vec![FaultSpec::Spike {
            at: crowd_at,
            // Outlasts the run: the crowd never ends, so recovery can only
            // come from the control plane, never from the spike clearing.
            duration: ticks,
            factor: 2.2,
            shard_fraction: 0.01,
        }],
        drift: None,
        ..Default::default()
    };

    let mut t = Table::new(
        "policy | trig | done | splits | merges | hs migr | steady peak | final peak | recovery | lat p99 | viol",
    );

    for hotshard in [false, true] {
        let mut cfg = base.clone();
        if hotshard {
            cfg.hotshard = HotShardConfig {
                enabled: true,
                poll_interval: 20,
                ewma_alpha: 0.4,
                delta_iters: scaled(1_000).max(200) as u64,
                ..Default::default()
            };
        }
        let threshold = cfg.controller.peak_threshold;
        let name = if hotshard { "sra+hotshard" } else { "sra" };
        let cols = "trig | done | splits | merges | hs migr | steady peak | final peak";
        let (e, mut row) = run_policy(name, &inst, cfg, cols);
        // First gauge tick at/after the crowd start where peak utilization
        // is back under the controller's trigger threshold for good.
        let recovery = e
            .gauges
            .iter()
            .filter(|g| g.tick >= crowd_at)
            .scan(None, |cand: &mut Option<u64>, g| {
                if g.peak_util < threshold {
                    cand.get_or_insert(g.tick);
                } else {
                    *cand = None;
                }
                Some(*cand)
            })
            .last()
            .flatten();
        row.extend([
            recovery
                .map(|t| format!("{} ticks", t - crowd_at))
                .unwrap_or_else(|| "never".into()),
            counter_cell(&e, "lat p99"),
            counter_cell(&e, "viol"),
        ]);
        t.row(row);

        if hotshard {
            assert!(
                e.counters.shard_splits >= 1 && e.counters.hotshard_migrations >= 1,
                "hotshard plane never acted: {:?}",
                e.counters
            );
            assert!(
                recovery.is_some(),
                "sra+hotshard never brought peak back under the trigger threshold"
            );
        } else {
            assert!(
                e.steady_state_peak() > 0.95,
                "baseline regime broken: whole-shard migration was enough ({:.4})",
                e.steady_state_peak()
            );
        }
    }

    t.print("E14 — hot-shard splitting vs whole-shard migration under a one-shard flash crowd");
    println!(
        "\nOne identical run per policy: 8+2 machines, 22 shards, {} ticks; 2.2x \
         flash crowd on the single 44-demand shard from t={} to the end.",
        ticks, crowd_at
    );
    println!(
        "Expected shape: `sra` keeps triggering but stays pinned near saturation — \
         the hot shard is indivisible, so no whole-shard plan can help. \
         `sra+hotshard` splits it once, delta-migrates one half, and recovers \
         below the 0.92 trigger threshold within a bounded number of ticks; the \
         violation column must stay 0 throughout."
    );
}
