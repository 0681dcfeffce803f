//! The per-machine queueing service model.
//!
//! Each machine is a single-server queue at utilization ρ; a subrequest's
//! sojourn time is exponential with mean `1/(1−ρ)` (relative latency,
//! clamped at `ρ_max` so saturated or failed machines answer at a large
//! but finite latency). A query fans out to every occupied machine and its
//! latency is the **max** over subrequests — the straggler machine sets the
//! response time, which is why peak load is the objective the paper
//! minimizes and why tail latency is the honest judge of a load balancer
//! (Prequal's argument).
//!
//! Effective utilization composes four terms per machine:
//!
//! * the steady shard demand hosted there (`Assignment` usage),
//! * the diurnal traffic multiplier (CPU dimension only — disk and memory
//!   don't follow the sun),
//! * active flash crowds (extra CPU for spiked shards, also diurnal),
//! * in-flight copy overhead from the migration executor (all dimensions,
//!   *not* diurnal — copies are not query traffic).

use rand::rngs::StdRng;
use rand::RngExt;
use rex_cluster::service::{self, DIURNAL};
use rex_cluster::{Assignment, Instance, MachineId, ResourceVec};

/// Normalized, amplitude-damped diurnal multiplier for a tick.
///
/// The raw [`DIURNAL`] curve is normalized to mean 1.0 over a day, then its
/// swing is scaled by `amplitude` around that mean (`1 + (raw − 1)·a`), so
/// the mean stays 1.0 for every amplitude. A provisioned fleet sizes
/// capacity for peak traffic, so its *utilization* swing is much smaller
/// than the raw traffic swing — amplitude models that head-room.
pub fn diurnal_multiplier(tick: u64, ticks_per_hour: u64, amplitude: f64) -> f64 {
    let total: f64 = DIURNAL.iter().sum();
    let hour = ((tick / ticks_per_hour) % 24) as usize;
    let raw = DIURNAL[hour] * 24.0 / total;
    1.0 + (raw - 1.0) * amplitude
}

/// Per-machine effective utilization ρ (unclamped).
///
/// `spike_cpu[m]` is the extra CPU demand from active flash crowds on
/// machine `m`; `transient[m]` is the in-flight copy footprint. Vacant
/// machines with no transient footprint report 0.
pub fn effective_rho(
    inst: &Instance,
    asg: &Assignment,
    spike_cpu: &[f64],
    transient: &[ResourceVec],
    diurnal_mult: f64,
    out: &mut Vec<f64>,
) {
    out.clear();
    for m in 0..inst.n_machines() {
        let cap = &inst.machines[m].capacity;
        let usage = asg.usage(rex_cluster::MachineId::from(m));
        let t = &transient[m];
        // CPU (dimension 0): query-driven demand scales with traffic.
        let cpu = (usage.as_slice()[0] + spike_cpu[m]) * diurnal_mult + t.as_slice()[0];
        let mut rho: f64 = cpu / cap.as_slice()[0];
        // Index-bound dimensions: static.
        for d in 1..inst.dims {
            let x = usage.as_slice()[d] + t.as_slice()[d];
            rho = rho.max(x / cap.as_slice()[d]);
        }
        out.push(rho);
    }
}

/// Per-machine mean sojourn `1/(1−min(ρ, ρ_max))` into `out`, one entry
/// per machine of `rho`: failed machines serve at the saturation clamp.
/// The samplers below read it instead of re-deriving it per pick, so it is
/// computed once per tick.
pub fn latency_factors(rho: &[f64], failed: &[bool], rho_max: f64, out: &mut Vec<f64>) {
    out.clear();
    // Shared service model (`rex_cluster::service`), bit-identical to the
    // pre-refactor inline formulas — pinned by
    // `service_model_is_bit_identical_to_old_call_sites`.
    out.extend(
        rho.iter()
            .zip(failed)
            .map(|(&r, &down)| service::latency_factor(if down { rho_max } else { r }, rho_max)),
    );
}

/// Draws one fan-out latency sample: the max over *serving* machines of an
/// exponential sojourn with mean `factor[m]` ([`latency_factors`]).
/// Machines hosting nothing (and bearing no copy traffic) are skipped.
///
/// Returns relative latency ≥ 0 (0 only if no machine serves anything).
pub fn sample_fanout_latency(factor: &[f64], serving: &[bool], rng: &mut StdRng) -> f64 {
    let mut worst = 0.0f64;
    for (&mean, &serves) in factor.iter().zip(serving) {
        if !serves {
            continue;
        }
        let u: f64 = rng.random();
        worst = worst.max(service::exp_sojourn(mean, u));
    }
    worst
}

/// Draws one fan-out latency sample in *sampled-fanout* mode
/// (`RuntimeConfig::fanout > 0`): `fanout` demand-weighted shard picks from
/// the cumulative weight table `cum` (total weight `total`), each
/// contributing an exponential sojourn at its hosting machine's mean
/// `factor[m]` ([`latency_factors`]); the query's latency is the max over
/// picks. This mirrors the event engine's per-query fanout draw
/// (`rex-router` dispatch) at tick granularity: the same shards get hit
/// in proportion to the same weights, so tick-level and event-level tail
/// curves become comparable.
///
/// Two uniforms are drawn per pick (shard, then sojourn) from the one
/// latency stream. Returns relative latency (service mean 1.0 at ρ = 0).
pub fn sample_sampled_fanout_latency(
    factor: &[f64],
    cum: &[f64],
    total: f64,
    placement: &[MachineId],
    fanout: usize,
    rng: &mut StdRng,
) -> f64 {
    let mut worst = 0.0f64;
    for _ in 0..fanout {
        let u: f64 = rng.random::<f64>() * total;
        let s = cum.partition_point(|&x| x <= u).min(cum.len() - 1);
        let v: f64 = rng.random();
        worst = worst.max(service::exp_sojourn(factor[placement[s].idx()], v));
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rex_cluster::InstanceBuilder;

    #[test]
    fn diurnal_multiplier_has_unit_mean() {
        for amplitude in [0.0, 0.5, 1.0] {
            let mean: f64 = (0..24)
                .map(|h| diurnal_multiplier(h, 1, amplitude))
                .sum::<f64>()
                / 24.0;
            assert!((mean - 1.0).abs() < 1e-12, "amplitude {amplitude}");
        }
        // At full amplitude, peak hour beats trough hour.
        assert!(diurnal_multiplier(9, 1, 1.0) > 3.0 * diurnal_multiplier(2, 1, 1.0));
        // Wraps around the day.
        assert_eq!(
            diurnal_multiplier(0, 1, 1.0),
            diurnal_multiplier(24, 1, 1.0)
        );
        // Zero amplitude flattens the day.
        assert_eq!(diurnal_multiplier(9, 1, 0.0), 1.0);
        // Damping keeps the ordering but shrinks the swing.
        let full = diurnal_multiplier(9, 1, 1.0);
        let half = diurnal_multiplier(9, 1, 0.5);
        assert!(1.0 < half && half < full);
    }

    #[test]
    fn effective_rho_composes_terms() {
        let mut b = InstanceBuilder::new(2);
        let m0 = b.machine(&[10.0, 10.0]);
        let _m1 = b.machine(&[10.0, 10.0]);
        b.shard(&[4.0, 6.0], 1.0, m0);
        let inst = b.build().unwrap();
        let asg = Assignment::from_initial(&inst);
        let transient = vec![ResourceVec::zero(2); 2];
        let mut rho = Vec::new();

        // No multipliers: dimension 1 dominates (0.6 > 0.4).
        effective_rho(&inst, &asg, &[0.0, 0.0], &transient, 1.0, &mut rho);
        assert!((rho[0] - 0.6).abs() < 1e-12);
        assert_eq!(rho[1], 0.0);

        // Diurnal 2×: CPU becomes 0.8 and takes over; dim 1 unchanged.
        effective_rho(&inst, &asg, &[0.0, 0.0], &transient, 2.0, &mut rho);
        assert!((rho[0] - 0.8).abs() < 1e-12);

        // Spike adds CPU before the multiplier.
        effective_rho(&inst, &asg, &[1.0, 0.0], &transient, 2.0, &mut rho);
        assert!((rho[0] - 1.0).abs() < 1e-12);

        // Transient copy load is not scaled by traffic.
        let mut tr = vec![ResourceVec::zero(2); 2];
        tr[1] = ResourceVec::from_slice(&[3.0, 0.0]);
        effective_rho(&inst, &asg, &[0.0, 0.0], &tr, 2.0, &mut rho);
        assert!((rho[1] - 0.3).abs() < 1e-12);
    }

    /// `factors(rho, failed)` at the default clamp.
    fn factors(rho: &[f64], failed: &[bool]) -> Vec<f64> {
        let mut out = Vec::new();
        latency_factors(rho, failed, 0.98, &mut out);
        out
    }

    #[test]
    fn latency_factors_are_the_service_model_with_failures_clamped() {
        let rho = [0.0, 0.5, 0.99, 0.1];
        let got = factors(&rho, &[false, false, false, true]);
        let want = [
            service::latency_factor(0.0, 0.98),
            service::latency_factor(0.5, 0.98),
            service::latency_factor(0.99, 0.98),
            service::latency_factor(0.98, 0.98),
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn latency_tracks_the_straggler() {
        let mut rng = StdRng::seed_from_u64(7);
        let serving = vec![true, true];
        let failed = [false, false];
        let (low, high) = (factors(&[0.2, 0.2], &failed), factors(&[0.2, 0.9], &failed));
        let (mut lo, mut hi) = (0.0, 0.0);
        for _ in 0..2000 {
            lo += sample_fanout_latency(&low, &serving, &mut rng);
            hi += sample_fanout_latency(&high, &serving, &mut rng);
        }
        assert!(hi > 3.0 * lo, "straggler must dominate: {hi} vs {lo}");
    }

    #[test]
    fn failed_serving_machine_saturates() {
        let mut rng = StdRng::seed_from_u64(1);
        let factor = factors(&[0.1], &[true]);
        let mut acc = 0.0;
        for _ in 0..2000 {
            acc += sample_fanout_latency(&factor, &[true], &mut rng);
        }
        // Mean must approach the clamp 1/(1−0.98) = 50 despite ρ = 0.1.
        assert!(acc / 2000.0 > 25.0);
    }

    #[test]
    fn nothing_serving_means_zero_latency() {
        let mut rng = StdRng::seed_from_u64(2);
        let lat = sample_fanout_latency(&factors(&[0.5], &[false]), &[false], &mut rng);
        assert_eq!(lat, 0.0);
    }

    #[test]
    fn sampled_fanout_follows_the_weights() {
        // Shard 0 (machine 0, ρ = 0.9) carries 9× the arrival weight of
        // shard 1 (machine 1, idle): the weighted draw must land on the
        // slow machine most of the time, so mean latency approaches the
        // hot machine's 10× sojourn rather than the idle one's.
        let factor = factors(&[0.9, 0.0], &[false, false]);
        let placement = vec![MachineId::from(0), MachineId::from(1)];
        let sample_mean = |cum: &[f64]| {
            let mut rng = StdRng::seed_from_u64(3);
            (0..4000)
                .map(|_| sample_sampled_fanout_latency(&factor, cum, 10.0, &placement, 1, &mut rng))
                .sum::<f64>()
                / 4000.0
        };
        let hot_heavy = sample_mean(&[9.0, 10.0]);
        let cold_heavy = sample_mean(&[1.0, 10.0]);
        assert!(
            hot_heavy > 3.0 * cold_heavy,
            "weighting the hot shard must dominate: {hot_heavy} vs {cold_heavy}"
        );
        // Fanout 0 draws nothing.
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(
            sample_sampled_fanout_latency(&factor, &[9.0, 10.0], 10.0, &placement, 0, &mut rng),
            0.0
        );
        // A failed machine serves at the clamp even when its ρ reads low.
        let mut rng = StdRng::seed_from_u64(5);
        let factor = factors(&[0.1, 0.1], &[true, false]);
        let mut acc = 0.0;
        for _ in 0..2000 {
            acc += sample_sampled_fanout_latency(
                &factor,
                &[10.0, 10.0],
                10.0,
                &placement,
                1,
                &mut rng,
            );
        }
        assert!(acc / 2000.0 > 10.0, "half the picks hit the saturated host");
    }
}
