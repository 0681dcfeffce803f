//! Deterministic metric aggregates: gauges and the one latency histogram.
//!
//! Counters are plain `u64`s in the recorder; the types here carry the
//! state that needs more than one word. Everything is a pure function of
//! the recorded sample sequence — no timestamps, no sampling.

/// Last-value gauge with min/max/count.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gauge {
    /// Most recent value (0.0 before the first `set`).
    pub last: f64,
    /// Smallest value seen.
    pub min: f64,
    /// Largest value seen.
    pub max: f64,
    /// Number of `set` calls.
    pub count: u64,
}

impl Gauge {
    /// Records a new value.
    pub fn set(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.last = v;
        self.count += 1;
    }
}

/// Geometric ratio between consecutive bucket bounds: ~2 % relative
/// precision.
const RATIO: f64 = 1.02;
/// Smallest magnitude a geometric bucket holds; anything below it counts
/// in the zero bucket.
const MIN_MAGNITUDE: f64 = 1e-9;
/// Bucket exponents `floor(ln v / ln 1.02)` of the resolved range's ends,
/// 1e-9 and 1e15 (pinned by a unit test). Magnitudes past 1e15,
/// non-finite ones included, land in the top bucket.
const MIN_EXP: i32 = -1047;
const MAX_EXP: i32 = 1744;
const N_BUCKETS: usize = (MAX_EXP - MIN_EXP + 1) as usize;

/// The workspace's one latency/percentile histogram, over **magnitudes**
/// `|v|`.
///
/// HDR-style: geometric bucket `i` holds `|v|` in `[1.02^i, 1.02^(i+1))`,
/// `i = floor(ln|v| / ln 1.02)`, over a fixed, preallocated range of
/// exponents spanning magnitudes 1e-9 to 1e15, plus a zero bucket below
/// it. Recording is O(1) and never allocates; a percentile is the
/// nearest-rank sample's bucket, reported as the bucket's geometric
/// midpoint `1.02^(i+0.5)` (0.0 for the zero bucket), so it lies within
/// one bucket (≤ 2 %) of the exact nearest-rank sample. Count, sum, mean,
/// min and max are exact. The layout is compiled in, not data-dependent,
/// so two same-seed runs produce bit-identical percentiles.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    buckets: Vec<u64>,
    zero: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: vec![0; N_BUCKETS],
            zero: 0,
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }
}

impl Histogram {
    /// Records `|v|`.
    pub fn record(&mut self, v: f64) {
        let mag = v.abs();
        if self.count == 0 {
            self.min = mag;
            self.max = mag;
        } else {
            self.min = self.min.min(mag);
            self.max = self.max.max(mag);
        }
        self.count += 1;
        self.sum += mag;
        if mag < MIN_MAGNITUDE {
            self.zero += 1;
            return;
        }
        let i = if mag.is_nan() {
            MAX_EXP
        } else {
            ((mag.ln() / RATIO.ln()).floor() as i32).clamp(MIN_EXP, MAX_EXP)
        };
        self.buckets[(i - MIN_EXP) as usize] += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean magnitude; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact smallest magnitude; 0.0 when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Exact largest magnitude; 0.0 when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Nearest-rank percentile (`p` in `[0, 100]`); 0.0 when empty.
    ///
    /// The representative value of the bucket holding the
    /// `ceil(p/100 · count)`-th smallest sample (rank at least 1).
    pub fn percentile(&self, p: f64) -> f64 {
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.zero;
        if self.count == 0 || seen >= rank {
            return 0.0;
        }
        let i = self.buckets.iter().position(|&c| {
            seen += c;
            seen >= rank
        });
        RATIO.powf(i.map_or(MAX_EXP, |i| i as i32 + MIN_EXP) as f64 + 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_tracks_last_min_max() {
        let mut g = Gauge::default();
        g.set(2.0);
        g.set(-1.0);
        g.set(0.5);
        assert_eq!(g.last, 0.5);
        assert_eq!(g.min, -1.0);
        assert_eq!(g.max, 2.0);
        assert_eq!(g.count, 3);
    }

    #[test]
    fn bucket_exponents_span_the_magnitude_range() {
        let exp = |v: f64| (v.ln() / RATIO.ln()).floor() as i32;
        assert_eq!(exp(MIN_MAGNITUDE), MIN_EXP);
        assert_eq!(exp(1e15), MAX_EXP);
    }
}
