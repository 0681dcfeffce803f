//! Adaptive operator selection (the "A" in ALNS).
//!
//! Operators are drawn by roulette wheel over positive weights. After each
//! segment of iterations, weights are smoothed toward the scores the
//! operators earned in that segment (Ropke & Pisinger's scheme): finding a
//! new global best scores highest, improving the incumbent scores medium,
//! merely being accepted scores low, rejection scores zero.

use rand::rngs::StdRng;
use rand::RngExt;
use serde::Serialize;

/// Outcome of one iteration, used to credit the operators involved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IterationOutcome {
    /// Candidate became the new global best.
    NewBest,
    /// Candidate improved on the incumbent (but not the best).
    Improved,
    /// Candidate was accepted without improving.
    Accepted,
    /// Candidate was rejected or the repair failed.
    Rejected,
}

impl IterationOutcome {
    fn score(self) -> f64 {
        match self {
            IterationOutcome::NewBest => 9.0,
            IterationOutcome::Improved => 4.0,
            IterationOutcome::Accepted => 1.0,
            IterationOutcome::Rejected => 0.0,
        }
    }
}

/// Smoothing factor ρ: `w ← ρ·w + (1−ρ)·segment_score_per_use`.
const RHO: f64 = 0.8;

/// Iterations per weight-update segment.
const SEGMENT_LEN: u64 = 100;

/// Roulette-wheel weights over `n` operators with segment-wise smoothing.
#[derive(Clone, Debug, Serialize)]
pub struct OperatorWeights {
    weights: Vec<f64>,
    segment_scores: Vec<f64>,
    segment_uses: Vec<u64>,
    total_uses: Vec<u64>,
    total_best: Vec<u64>,
    since_update: u64,
}

impl OperatorWeights {
    /// Uniform initial weights over `n` operators.
    ///
    /// # Panics
    /// If `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one operator");
        Self {
            weights: vec![1.0; n],
            segment_scores: vec![0.0; n],
            segment_uses: vec![0; n],
            total_uses: vec![0; n],
            total_best: vec![0; n],
            since_update: 0,
        }
    }

    /// Number of operators tracked.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when no operators are tracked (never — kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Draws an operator index proportionally to current weights.
    pub fn pick(&self, rng: &mut StdRng) -> usize {
        let total: f64 = self.weights.iter().sum();
        let mut x = rng.random::<f64>() * total;
        for (i, w) in self.weights.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return i;
            }
        }
        self.weights.len() - 1
    }

    /// Credits operator `i` with the outcome of the iteration it produced,
    /// and advances the segment clock.
    pub fn record(&mut self, i: usize, outcome: IterationOutcome) {
        self.segment_scores[i] += outcome.score();
        self.segment_uses[i] += 1;
        self.total_uses[i] += 1;
        if outcome == IterationOutcome::NewBest {
            self.total_best[i] += 1;
        }
        self.since_update += 1;
        if self.since_update >= SEGMENT_LEN {
            self.apply_segment();
        }
    }

    fn apply_segment(&mut self) {
        for i in 0..self.weights.len() {
            if self.segment_uses[i] > 0 {
                let earned = self.segment_scores[i] / self.segment_uses[i] as f64;
                self.weights[i] = RHO * self.weights[i] + (1.0 - RHO) * earned;
                // Keep every operator drawable: weight floor.
                self.weights[i] = self.weights[i].max(0.05);
            }
            self.segment_scores[i] = 0.0;
            self.segment_uses[i] = 0;
        }
        self.since_update = 0;
    }

    /// Current weight of operator `i`.
    pub fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// Lifetime number of times operator `i` was drawn.
    pub fn uses(&self, i: usize) -> u64 {
        self.total_uses[i]
    }

    /// Lifetime number of global bests operator `i` produced.
    pub fn bests(&self, i: usize) -> u64 {
        self.total_best[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn pick_covers_all_operators() {
        let w = OperatorWeights::new(4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[w.pick(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn successful_operator_gains_weight() {
        let mut w = OperatorWeights::new(2);
        for _ in 0..SEGMENT_LEN {
            // Alternate: op 0 always finds new bests, op 1 always rejected.
            w.record(0, IterationOutcome::NewBest);
            w.record(1, IterationOutcome::Rejected);
        }
        assert!(
            w.weight(0) > w.weight(1),
            "op0={} op1={}",
            w.weight(0),
            w.weight(1)
        );
    }

    #[test]
    fn weight_floor_keeps_losers_drawable() {
        let mut w = OperatorWeights::new(2);
        // 40 segments: 0.8^40 is far below the floor.
        for _ in 0..20 * SEGMENT_LEN {
            w.record(0, IterationOutcome::NewBest);
            w.record(1, IterationOutcome::Rejected);
        }
        assert_eq!(w.weight(1), 0.05);
        let mut rng = StdRng::seed_from_u64(3);
        let picked1 = (0..20_000).filter(|_| w.pick(&mut rng) == 1).count();
        assert!(picked1 > 0, "floored operator must still be drawn");
    }

    #[test]
    fn biased_weights_bias_the_draw() {
        let mut w = OperatorWeights::new(2);
        // 60 segments of op 0 earning the max score: its weight converges
        // to 9.0; op 1 is never drawn, so its weight stays 1.0.
        for _ in 0..60 * SEGMENT_LEN {
            w.record(0, IterationOutcome::NewBest);
        }
        let mut rng = StdRng::seed_from_u64(9);
        let n = 50_000;
        let zero = (0..n).filter(|_| w.pick(&mut rng) == 0).count();
        // Weights are 9.0 vs 1.0 → expected hit rate 0.9.
        assert!(zero as f64 / n as f64 > 0.85, "got {zero}/{n}");
    }

    #[test]
    fn counters_accumulate() {
        let mut w = OperatorWeights::new(1);
        w.record(0, IterationOutcome::NewBest);
        w.record(0, IterationOutcome::Accepted);
        assert_eq!(w.uses(0), 2);
        assert_eq!(w.bests(0), 1);
    }

    #[test]
    #[should_panic]
    fn zero_operators_panics() {
        OperatorWeights::new(0);
    }

    #[test]
    fn outcome_scores_are_ordered() {
        assert!(IterationOutcome::NewBest.score() > IterationOutcome::Improved.score());
        assert!(IterationOutcome::Improved.score() > IterationOutcome::Accepted.score());
        assert!(IterationOutcome::Accepted.score() > IterationOutcome::Rejected.score());
    }
}
