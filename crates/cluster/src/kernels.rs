//! Branch-free lane scans over struct-of-arrays load vectors.
//!
//! The hot paths of the solver keep machine loads in a flat `Vec<f64>`
//! (struct-of-arrays: one cache-friendly stream of normalized loads,
//! instead of pointer-chasing per-machine `ResourceVec`s). Everything that
//! rescans that vector — peak-load refreshes, `Σ loads²` resynchronization,
//! balance reports — funnels through one loop, [`scan_with`], so there is
//! one accumulation order on every machine:
//!
//! * element `i` feeds lane `i % LANES`, in index order,
//! * one independent accumulator per lane (no loop-carried dependency
//!   across the whole vector, so the compiler may keep the lanes in
//!   vector registers),
//! * `f64::max`/`f64::min` instead of branches.
//!
//! Determinism note: `max`/`min` are associative and commutative over the
//! non-NaN loads used here, so lane order never changes the peak. The
//! lane-strided summation of `sum`/`sumsq` *is* a fixed reassociation of
//! the sequential sum — a different rounding than `iter().sum()`, but a
//! pure function of the input, so results stay bit-identical across runs,
//! thread counts and CPUs. Every caller that must agree with another caller
//! (state resync vs. full objective recompute) uses these kernels, so the
//! two sides always round identically.

/// Accumulator lanes. The lane order fixes the rounding of `sum` and
/// `sumsq`, and every pinned objective, checksum and gate byte depends on
/// that rounding, so this stays 8.
const LANES: usize = 8;

/// Aggregate statistics of one load vector, computed in a single pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadScan {
    /// Maximum element (`-inf` for an empty slice).
    pub peak: f64,
    /// Minimum element (`+inf` for an empty slice).
    pub min: f64,
    /// Sum of elements.
    pub sum: f64,
    /// Sum of squared elements.
    pub sumsq: f64,
}

/// Scans `loads` once, branch-free, returning peak / min / sum / sumsq:
/// [`scan_with`] over the slice.
#[inline]
pub fn scan(loads: &[f64]) -> LoadScan {
    scan_with(loads.len(), |i| loads[i])
}

/// Alias of [`scan`], kept for the benchmark's kernel record.
pub fn scan_scalar(loads: &[f64]) -> LoadScan {
    scan(loads)
}

/// The one scan loop: [`LoadScan`] of `load(i)` for `i < n`.
///
/// Feeds element `i` into lane `i % LANES` in index order, so for the same
/// values every caller — [`scan`] over a cached load vector,
/// `Assignment::load_stats` deriving loads from usage vectors without a
/// buffer, [`ratio_scan_rows`] computing them row by row — gets a
/// **bit-identical** result.
pub fn scan_with(n: usize, mut load: impl FnMut(usize) -> f64) -> LoadScan {
    let mut acc = Lanes::new();
    let mut i = 0;
    while i + LANES <= n {
        for j in 0..LANES {
            acc.feed(j, load(i + j));
        }
        i += LANES;
    }
    for j in 0..(n - i) {
        acc.feed(j, load(i + j));
    }
    acc.fold()
}

/// Per-lane accumulators of [`scan_with`].
struct Lanes {
    maxs: [f64; LANES],
    mins: [f64; LANES],
    sums: [f64; LANES],
    sqs: [f64; LANES],
}

impl Lanes {
    #[inline]
    fn new() -> Self {
        Self {
            maxs: [f64::NEG_INFINITY; LANES],
            mins: [f64::INFINITY; LANES],
            sums: [0.0; LANES],
            sqs: [0.0; LANES],
        }
    }

    #[inline]
    fn feed(&mut self, lane: usize, x: f64) {
        self.maxs[lane] = self.maxs[lane].max(x);
        self.mins[lane] = self.mins[lane].min(x);
        self.sums[lane] += x;
        self.sqs[lane] += x * x;
    }

    #[inline]
    fn fold(&self) -> LoadScan {
        let mut out = LoadScan {
            peak: self.maxs[0],
            min: self.mins[0],
            sum: self.sums[0],
            sumsq: self.sqs[0],
        };
        for i in 1..LANES {
            out.peak = out.peak.max(self.maxs[i]);
            out.min = out.min.min(self.mins[i]);
            out.sum += self.sums[i];
            out.sumsq += self.sqs[i];
        }
        out
    }
}

/// Fused scan over packed machine-major rows: computes
/// `out[i] = max_ratio(usage row i, capacity row i)` for every row and
/// returns the [`LoadScan`] of `out` in the same pass.
///
/// The per-row ratio replicates `ResourceVec::max_ratio` exactly (zero
/// capacity: infinity if used beyond `EPS`, else ignored), and the ratios
/// go through [`scan_with`], so the returned scan is **bit-identical** to
/// `scan(&out)` after the call — one traversal of the packed arrays
/// instead of a ratio pass plus a rescan.
///
/// # Panics
/// If slice lengths are inconsistent with `dims` rows of `out.len()`.
pub fn ratio_scan_rows(dims: usize, usage: &[f64], caps: &[f64], out: &mut [f64]) -> LoadScan {
    let n = out.len();
    assert_eq!(usage.len(), n * dims, "usage rows mismatch");
    assert_eq!(caps.len(), n * dims, "capacity rows mismatch");
    scan_with(n, |i| {
        let u = &usage[i * dims..(i + 1) * dims];
        let c = &caps[i * dims..(i + 1) * dims];
        let mut best = 0.0f64;
        for d in 0..dims {
            let r = if c[d] > 0.0 {
                u[d] / c[d]
            } else if u[d] > crate::EPS {
                f64::INFINITY
            } else {
                0.0
            };
            if r > best {
                best = r;
            }
        }
        out[i] = best;
        best
    })
}

/// Peak (maximum) of a non-negative load vector; `0.0` when empty. This is
/// the identity the solver state uses (loads are normalized utilizations,
/// never negative).
#[inline]
pub fn peak(loads: &[f64]) -> f64 {
    scan(loads).peak.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The naive per-lane reduction the one loop must equal bit for bit:
    /// lane `j` reduces elements `j, j + LANES, …` in order, then lanes
    /// `0..LANES` are folded in order.
    fn reference(loads: &[f64]) -> LoadScan {
        let lane = |j: usize| loads.iter().copied().skip(j).step_by(LANES);
        let mut out = LoadScan {
            peak: f64::NEG_INFINITY,
            min: f64::INFINITY,
            sum: 0.0,
            sumsq: 0.0,
        };
        for j in 0..LANES {
            let peak = lane(j).fold(f64::NEG_INFINITY, f64::max);
            let min = lane(j).fold(f64::INFINITY, f64::min);
            let sum = lane(j).fold(0.0, |s, x| s + x);
            let sumsq = lane(j).fold(0.0, |s, x| s + x * x);
            if j == 0 {
                out = LoadScan {
                    peak,
                    min,
                    sum,
                    sumsq,
                };
            } else {
                out.peak = out.peak.max(peak);
                out.min = out.min.min(min);
                out.sum += sum;
                out.sumsq += sumsq;
            }
        }
        out
    }

    fn assert_bits(got: LoadScan, want: LoadScan, what: &str) {
        assert_eq!(got.peak.to_bits(), want.peak.to_bits(), "peak {what}");
        assert_eq!(got.min.to_bits(), want.min.to_bits(), "min {what}");
        assert_eq!(got.sum.to_bits(), want.sum.to_bits(), "sum {what}");
        assert_eq!(got.sumsq.to_bits(), want.sumsq.to_bits(), "sumsq {what}");
    }

    #[test]
    fn matches_reference_on_varied_lengths() {
        // Deterministic pseudo-loads with ±0.0, subnormals and +inf mixed
        // in; lengths cover every remainder around two full chunks.
        let special = [0.0, -0.0, 5e-324, f64::MIN_POSITIVE / 4.0, f64::INFINITY];
        for n in 0..=2 * LANES + 1 {
            let loads: Vec<f64> = (0..n)
                .map(|i| match i % 3 {
                    0 => special[(i / 3) % special.len()],
                    _ => ((i * 2654435761 % 1000) as f64) / 1000.0,
                })
                .collect();
            let want = reference(&loads);
            assert_bits(scan(&loads), want, &format!("scan n={n}"));
            assert_bits(scan_scalar(&loads), want, &format!("scan_scalar n={n}"));
            assert_bits(
                scan_with(n, |i| loads[i]),
                want,
                &format!("scan_with n={n}"),
            );

            // One dimension, so each row's ratio is its usage over its
            // capacity; row 1 has zero capacity and real usage, so its
            // ratio is +inf.
            let usage: Vec<f64> = loads
                .iter()
                .enumerate()
                .map(|(i, &x)| if i == 1 { 0.5 } else { x.min(2.0) })
                .collect();
            let caps: Vec<f64> = (0..n).map(|i| if i == 1 { 0.0 } else { 1.0 }).collect();
            let mut out = vec![f64::NAN; n];
            let got = ratio_scan_rows(1, &usage, &caps, &mut out);
            if n > 1 {
                assert_eq!(out[1], f64::INFINITY, "zero-capacity row n={n}");
            }
            assert_bits(got, reference(&out), &format!("ratio_scan_rows n={n}"));
        }
    }

    #[test]
    fn scan_is_bit_deterministic() {
        let loads: Vec<f64> = (0..321).map(|i| (i as f64 * 0.7).sin().abs()).collect();
        let a = scan(&loads);
        let b = scan(&loads);
        assert_eq!(a.peak.to_bits(), b.peak.to_bits());
        assert_eq!(a.sum.to_bits(), b.sum.to_bits());
        assert_eq!(a.sumsq.to_bits(), b.sumsq.to_bits());
    }

    #[test]
    fn peak_of_empty_is_zero() {
        assert_eq!(peak(&[]), 0.0);
    }

    #[test]
    fn ratio_scan_rows_matches_resource_vec_and_rescan() {
        use crate::resources::ResourceVec;
        for (dims, n) in [(1usize, 5usize), (3, 37), (3, 2048), (8, 130)] {
            let mut usage = vec![0.0; n * dims];
            let mut caps = vec![0.0; n * dims];
            for i in 0..n * dims {
                usage[i] = ((i as u64).wrapping_mul(40503) % 997) as f64 / 997.0;
                caps[i] = 0.5 + ((i as u64).wrapping_mul(9973) % 101) as f64 / 101.0;
            }
            // Exercise the zero-capacity branches: one unused, one abused.
            if n > 2 {
                caps[dims] = 0.0;
                usage[dims] = 0.0;
                caps[2 * dims] = 0.0;
                usage[2 * dims] = 1.0;
            }
            let mut out = vec![0.0; n];
            let got = ratio_scan_rows(dims, &usage, &caps, &mut out);
            for i in 0..n {
                let u = ResourceVec::from_slice(&usage[i * dims..(i + 1) * dims]);
                let c = ResourceVec::from_slice(&caps[i * dims..(i + 1) * dims]);
                assert_eq!(
                    out[i].to_bits(),
                    u.max_ratio(&c).to_bits(),
                    "row {i} dims={dims}"
                );
            }
            assert_bits(got, scan(&out), &format!("rescan dims={dims} n={n}"));
        }
    }

    #[test]
    fn peak_exact_on_ties() {
        // max is exact (no rounding), regardless of lane placement.
        let mut loads = vec![0.25; 40];
        loads[13] = 0.75;
        loads[29] = 0.75;
        assert_eq!(peak(&loads), 0.75);
    }
}
