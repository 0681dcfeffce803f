//! The shared `1/(1−ρ)` straggler service model.
//!
//! Both simulation engines — `rex-runtime` (tick aggregates) and
//! `rex-router` (query events) — model a machine as a single-server queue
//! whose sojourn time is exponential with mean `1/(1−ρ)`, clamped at
//! `ρ_max` so saturated or failed machines answer at a large but finite
//! latency. Until PR 8 each engine carried its own copy of this math;
//! the differential-validation harness (`tests/differential_engines.rs`,
//! experiment E16) requires the two copies to be *bit-identical*, so the
//! formulas live here and both engines call in.
//!
//! The contract, pinned by `service_model_is_bit_identical_to_old_call_sites`
//! below and by the cross-crate differential suite:
//!
//! * `clamp_rho` is `ρ.min(ρ_max).max(0.0)` — exactly the router's
//!   `MachineState::recompute` clamp; the `.max(0.0)` is a bitwise no-op
//!   for the non-negative utilizations both engines produce.
//! * [`latency_factor`] is `1/(1−clamp_rho(ρ))` — the cached per-machine
//!   multiplier in the event engine and the per-sample mean in the tick
//!   engine.
//! * [`exp_sojourn`] is the inverse-CDF exponential draw
//!   `mean · −ln(max(1−u, 1e-12))` shared by both engines' latency
//!   samplers; [`exp_unit`] is its unit factor, which the event engine
//!   draws ahead of knowing the mean.

/// Default saturation clamp: machines never report ρ above this, so the
/// latency factor tops out at `1/(1−0.98) = 50`.
pub const DEFAULT_RHO_MAX: f64 = 0.98;

/// Floor for the `1−u` argument of the exponential inverse CDF, keeping
/// `ln` finite when a uniform draw lands exactly on 1.0.
const MIN_LOG_ARG: f64 = 1e-12;

/// Relative traffic weight of each hour (diurnal double hump: morning and
/// evening peaks, night trough). The weights sum to 25.85, not 24: every
/// reader normalizes by the sum. Only the runtime reads it now (its
/// diurnal load factor, `rex_runtime::server`); searchsim's query log has
/// no arrival hour.
pub const DIURNAL: [f64; 24] = [
    0.35, 0.25, 0.2, 0.2, 0.25, 0.4, 0.7, 1.1, 1.5, 1.7, 1.6, 1.5, 1.45, 1.5, 1.55, 1.5, 1.4, 1.35,
    1.45, 1.6, 1.55, 1.3, 0.9, 0.55,
];

/// Clamps a utilization into `[0, ρ_max]`.
///
/// Identical operation order to both historical call sites
/// (`min` before `max`), so results are bit-equal to the old inline code.
#[inline]
fn clamp_rho(rho: f64, rho_max: f64) -> f64 {
    rho.min(rho_max).max(0.0)
}

/// The straggler latency multiplier `1/(1−min(ρ, ρ_max))`.
///
/// At ρ = 0 this is 1.0 (pure service time); as ρ → ρ_max it approaches
/// the saturation ceiling. Failed machines that still host shards are
/// modelled as serving at `latency_factor(ρ_max, ρ_max)`.
#[inline]
pub fn latency_factor(rho: f64, rho_max: f64) -> f64 {
    1.0 / (1.0 - clamp_rho(rho, rho_max))
}

/// One exponential sojourn draw with the given mean, from a uniform
/// `u ∈ [0, 1)` via the inverse CDF. `1−u` keeps the log argument in
/// `(0, 1]`; the `MIN_LOG_ARG` floor keeps it finite.
#[inline]
pub fn exp_sojourn(mean: f64, u: f64) -> f64 {
    mean * exp_unit(u)
}

/// The unit-mean exponential draw [`exp_sojourn`] scales:
/// `exp_sojourn(mean, u)` is `mean * exp_unit(u)`, bit for bit, so a
/// caller can draw the factor before it knows the mean.
#[inline]
pub fn exp_unit(u: f64) -> f64 {
    -(1.0 - u).max(MIN_LOG_ARG).ln()
}

/// Inverts [`latency_factor`]: the utilization a machine must be running
/// at for its (EWMA-observed) mean sojourn to be `factor` × the base
/// service time. Factors below 1 (possible transiently while an EWMA
/// warms up) clamp to ρ = 0.
///
/// This is the bridge that lets the runtime controller consume
/// router-observed per-replica EWMAs as utilization estimates.
#[inline]
pub fn rho_from_factor(factor: f64, rho_max: f64) -> f64 {
    clamp_rho(1.0 - 1.0 / factor.max(1.0), rho_max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Re-implementations of the pre-refactor inline formulas, verbatim,
    /// so the pin survives even after the call sites migrate.
    mod legacy {
        /// `crates/runtime/src/server.rs::sample_fanout_latency`, healthy
        /// branch (pre-PR 8).
        pub fn runtime_draw(rho: f64, rho_max: f64, u: f64) -> f64 {
            let r = rho.min(rho_max);
            let mean = 1.0 / (1.0 - r);
            mean * -(1.0 - u).max(1e-12).ln()
        }

        /// `crates/router/src/state.rs::MachineState::recompute`
        /// (pre-PR 8).
        pub fn router_factor(rho: f64, rho_max: f64) -> f64 {
            let r = rho.min(rho_max).max(0.0);
            1.0 / (1.0 - r)
        }

        /// `crates/router/src/sim.rs::dispatch` service draw (pre-PR 8),
        /// up to the µs truncation the event engine applies afterwards.
        pub fn router_draw(base_service_us: f64, lat_factor: f64, u: f64) -> f64 {
            let mean = base_service_us * lat_factor;
            mean * -(1.0 - u).max(1e-12).ln()
        }
    }

    #[test]
    fn service_model_is_bit_identical_to_old_call_sites() {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for _ in 0..10_000 {
            let rho: f64 = rng.random::<f64>() * 1.5; // past saturation too
            let u: f64 = rng.random();
            let rho_max = DEFAULT_RHO_MAX;

            let new_draw = exp_sojourn(latency_factor(rho, rho_max), u);
            let old_draw = legacy::runtime_draw(rho, rho_max, u);
            assert_eq!(
                new_draw.to_bits(),
                old_draw.to_bits(),
                "runtime draw diverged at rho={rho} u={u}"
            );

            assert_eq!(
                latency_factor(rho, rho_max).to_bits(),
                legacy::router_factor(rho, rho_max).to_bits(),
                "router factor diverged at rho={rho}"
            );

            let base = 600.0;
            let new_router = exp_sojourn(base * latency_factor(rho, rho_max), u);
            let old_router = legacy::router_draw(base, legacy::router_factor(rho, rho_max), u);
            assert_eq!(
                new_router.to_bits(),
                old_router.to_bits(),
                "router draw diverged at rho={rho} u={u}"
            );
        }
        // Edge cases the sweep can miss: exact zero, exact clamp, u → 1.
        for rho in [0.0, DEFAULT_RHO_MAX, 1.0] {
            for u in [0.0, 0.5, 1.0 - f64::EPSILON, 1.0] {
                assert_eq!(
                    exp_sojourn(latency_factor(rho, DEFAULT_RHO_MAX), u).to_bits(),
                    legacy::runtime_draw(rho, DEFAULT_RHO_MAX, u).to_bits()
                );
            }
        }
    }

    #[test]
    fn diurnal_profile_is_pinned() {
        // Moved from `rex-searchsim`; both engines' gauges depend on every
        // entry and on the left-to-right sum.
        assert_eq!(DIURNAL.iter().sum::<f64>().to_bits(), 25.85f64.to_bits());
        let moment: f64 = (0..24).map(|h| h as f64 * DIURNAL[h]).sum();
        assert_eq!(moment.to_bits(), 0x4075da6666666666); // 349.65
    }

    #[test]
    fn latency_factor_saturates_at_rho_max() {
        assert_eq!(latency_factor(0.0, DEFAULT_RHO_MAX), 1.0);
        let ceiling = latency_factor(DEFAULT_RHO_MAX, DEFAULT_RHO_MAX);
        assert!((ceiling - 50.0).abs() < 1e-9);
        // Anything past the clamp reports the ceiling, including ρ = ∞.
        assert_eq!(latency_factor(2.0, DEFAULT_RHO_MAX), ceiling);
        assert_eq!(latency_factor(f64::INFINITY, DEFAULT_RHO_MAX), ceiling);
        // Negative input clamps to the idle factor.
        assert_eq!(latency_factor(-0.5, DEFAULT_RHO_MAX), 1.0);
    }

    #[test]
    fn rho_from_factor_inverts_latency_factor() {
        for rho in [0.0, 0.1, 0.5, 0.9, DEFAULT_RHO_MAX] {
            let back = rho_from_factor(latency_factor(rho, DEFAULT_RHO_MAX), DEFAULT_RHO_MAX);
            assert!((back - rho).abs() < 1e-12, "round trip {rho} -> {back}");
        }
        // Warm-up factors below 1 clamp to idle, past-clamp factors to ρ_max.
        assert_eq!(rho_from_factor(0.5, DEFAULT_RHO_MAX), 0.0);
        assert_eq!(rho_from_factor(1e9, DEFAULT_RHO_MAX), DEFAULT_RHO_MAX);
    }

    #[test]
    fn exp_sojourn_mean_matches_analytic() {
        let mut rng = StdRng::seed_from_u64(99);
        let mean = 7.0;
        let n = 200_000;
        let acc: f64 = (0..n).map(|_| exp_sojourn(mean, rng.random())).sum();
        let empirical = acc / n as f64;
        assert!(
            (empirical - mean).abs() / mean < 0.02,
            "empirical {empirical} vs {mean}"
        );
    }
}
