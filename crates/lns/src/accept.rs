//! Acceptance criteria: decide whether a repaired candidate replaces the
//! incumbent.
//!
//! The ablation study (experiment E9) compares these three classics:
//!
//! * [`HillClimb`] — accept only strict improvements; fast but easily stuck,
//! * [`SimulatedAnnealing`] — accept worsenings with probability
//!   `exp(-Δ/T)` under a geometrically cooling temperature; the paper's LNS
//!   family conventionally uses this,
//! * [`RecordToRecord`] — accept anything within a (shrinking) band above
//!   the best objective seen.

use rand::rngs::StdRng;
use rand::RngExt;

/// Decides whether a candidate objective value is accepted.
///
/// Implementations are stateful (temperature schedules, bands) and are
/// ticked once per engine iteration via [`Acceptance::step`].
pub trait Acceptance: Send {
    /// Stable name for stats and ablation tables.
    fn name(&self) -> &str;

    /// Whether a candidate with objective `candidate` replaces the
    /// incumbent with objective `current`, given the best value seen so far.
    fn accept(&mut self, candidate: f64, current: f64, best: f64, rng: &mut StdRng) -> bool;

    /// Advances schedule state (called once per iteration, after `accept`).
    fn step(&mut self) {}
}

/// Accept only strict improvements over the incumbent.
#[derive(Clone, Copy, Debug, Default)]
pub struct HillClimb;

impl Acceptance for HillClimb {
    fn name(&self) -> &str {
        "hill-climb"
    }

    fn accept(&mut self, candidate: f64, current: f64, _best: f64, _rng: &mut StdRng) -> bool {
        candidate < current
    }
}

/// Metropolis acceptance with geometric cooling.
#[derive(Clone, Copy, Debug)]
pub struct SimulatedAnnealing {
    /// Per-iteration multiplicative cooling factor in `(0, 1)`.
    cooling: f64,
    /// Temperature floor (keeps `exp` well-behaved late in the run).
    t_min: f64,
    /// Current temperature, in objective units.
    temperature: f64,
}

impl SimulatedAnnealing {
    /// Creates a schedule starting at `t0`, cooling by `cooling` per
    /// iteration, floored at `t_min`.
    pub fn new(t0: f64, cooling: f64, t_min: f64) -> Self {
        assert!(t0 > 0.0 && (0.0..1.0).contains(&cooling) && t_min > 0.0);
        Self {
            cooling,
            t_min,
            temperature: t0,
        }
    }

    /// A schedule tuned for objectives on the `[0, ~2]` scale of normalized
    /// loads: starts warm enough to cross small barriers, cools within a
    /// few thousand iterations.
    pub fn for_normalized_loads(iters: usize) -> Self {
        // Choose cooling so temperature decays by ~1e4 over the run.
        let cooling = (1e-4f64).powf(1.0 / iters.max(1) as f64);
        Self::new(0.05, cooling, 1e-7)
    }
}

impl Acceptance for SimulatedAnnealing {
    fn name(&self) -> &str {
        "simulated-annealing"
    }

    fn accept(&mut self, candidate: f64, current: f64, _best: f64, rng: &mut StdRng) -> bool {
        if candidate < current {
            return true;
        }
        let delta = candidate - current;
        rng.random::<f64>() < (-delta / self.temperature).exp()
    }

    fn step(&mut self) {
        self.temperature = (self.temperature * self.cooling).max(self.t_min);
    }
}

/// Record-to-record travel: accept any candidate within `deviation × best`
/// above the best objective found so far.
#[derive(Clone, Copy, Debug)]
pub struct RecordToRecord {
    /// Allowed relative deviation above the record (e.g. `0.02` = 2%).
    deviation: f64,
}

impl RecordToRecord {
    /// Creates the criterion with the given relative deviation.
    pub fn new(deviation: f64) -> Self {
        assert!(deviation >= 0.0);
        Self { deviation }
    }
}

impl Acceptance for RecordToRecord {
    fn name(&self) -> &str {
        "record-to-record"
    }

    fn accept(&mut self, candidate: f64, _current: f64, best: f64, _rng: &mut StdRng) -> bool {
        candidate <= best * (1.0 + self.deviation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn hill_climb_accepts_only_improvements() {
        let mut hc = HillClimb;
        let mut r = rng();
        assert!(hc.accept(0.9, 1.0, 0.8, &mut r));
        assert!(!hc.accept(1.0, 1.0, 0.8, &mut r));
        assert!(!hc.accept(1.1, 1.0, 0.8, &mut r));
    }

    #[test]
    fn sa_always_accepts_improvements() {
        let mut sa = SimulatedAnnealing::new(0.01, 0.99, 1e-9);
        let mut r = rng();
        for _ in 0..100 {
            assert!(sa.accept(0.5, 1.0, 0.5, &mut r));
        }
    }

    #[test]
    fn sa_accepts_some_worsenings_when_hot_and_none_when_cold() {
        let mut hot = SimulatedAnnealing::new(10.0, 0.99, 1e-9);
        let mut r = rng();
        let accepted_hot = (0..1000)
            .filter(|_| hot.accept(1.01, 1.0, 1.0, &mut r))
            .count();
        assert!(
            accepted_hot > 900,
            "hot SA should accept almost everything, got {accepted_hot}"
        );

        let mut cold = SimulatedAnnealing::new(1e-9, 0.99, 1e-12);
        let accepted_cold = (0..1000)
            .filter(|_| cold.accept(1.01, 1.0, 1.0, &mut r))
            .count();
        assert_eq!(accepted_cold, 0, "cold SA should reject all worsenings");
    }

    #[test]
    fn sa_cooling_reaches_floor() {
        let mut sa = SimulatedAnnealing::new(1.0, 0.5, 0.01);
        for _ in 0..100 {
            sa.step();
        }
        assert_eq!(sa.temperature, 0.01);
    }

    #[test]
    fn rrt_band_semantics() {
        let mut rrt = RecordToRecord::new(0.10);
        let mut r = rng();
        assert!(rrt.accept(1.05, 2.0, 1.0, &mut r)); // within 10% of record
        assert!(!rrt.accept(1.2, 2.0, 1.0, &mut r)); // outside band
        assert!(rrt.accept(0.9, 2.0, 1.0, &mut r)); // better than record
    }

    #[test]
    fn for_normalized_loads_cools_over_run() {
        let mut sa = SimulatedAnnealing::for_normalized_loads(1000);
        let start = sa.temperature;
        for _ in 0..1000 {
            sa.step();
        }
        assert!(sa.temperature < start * 1e-3);
    }
}
