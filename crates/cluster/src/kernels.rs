//! Branch-free chunked scans over struct-of-arrays load vectors.
//!
//! The hot paths of the solver keep machine loads in a flat `Vec<f64>`
//! (struct-of-arrays: one cache-friendly stream of normalized loads,
//! instead of pointer-chasing per-machine `ResourceVec`s). Everything that
//! rescans that vector — peak-load refreshes, `Σ loads²` resynchronization,
//! balance reports — funnels through this module so the scan is written
//! once, in a shape the compiler auto-vectorizes:
//!
//! * fixed-width chunks of `LANES` elements,
//! * one independent accumulator per lane (no loop-carried dependency
//!   across the whole vector, so the backend can keep `LANES` maxima /
//!   partial sums in SIMD registers),
//! * `f64::max`/`f64::min` instead of branches (they lower to
//!   `maxsd`/`minsd` and vectorize cleanly).
//!
//! Determinism note: `max`/`min` are associative and commutative over the
//! non-NaN loads used here, so lane order never changes the peak. The
//! lane-strided summation of `sum`/`sumsq` *is* a fixed reassociation of
//! the sequential sum — a different rounding than `iter().sum()`, but a
//! pure function of the input, so results stay bit-identical across runs
//! and thread counts. Every caller that must agree with another caller
//! (state resync vs. full objective recompute) uses these kernels, so the
//! two sides always round identically.

/// Accumulator lanes per chunk. Wide enough for 4×AVX2 / 2×AVX-512
/// unrolling; narrow enough that the remainder loop stays trivial.
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

/// Scans `loads` once, branch-free, returning peak / min / sum / sumsq.
///
/// On `x86_64` this dispatches at runtime to an explicit AVX-512F (one
/// 8-lane `__m512d` per accumulator) or AVX2 (two 4-lane `__m256d`) kernel
/// when the CPU has one; otherwise — and on other targets — it runs the
/// scalar lane-unrolled path. The SIMD kernels keep the exact per-lane
/// accumulation order of [`scan_scalar`] (element `i` feeds lane
/// `i % LANES`, fold extracts lanes and reruns the identical sequential
/// reduction), so all paths are **bit-identical**; `scan_scalar` is the
/// differential oracle the tests compare against.
#[inline]
pub fn scan(loads: &[f64]) -> LoadScan {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: avx512f support was just verified at runtime.
            return unsafe { simd::scan_avx512(loads) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: avx2 support was just verified at runtime.
            return unsafe { simd::scan_avx2(loads) };
        }
    }
    scan_scalar(loads)
}

/// The scalar lane-unrolled scan: the reference implementation every SIMD
/// path must match bit for bit, and the fallback where no vector unit is
/// detected. Public so differential tests and benches can pin the oracle
/// explicitly.
pub fn scan_scalar(loads: &[f64]) -> LoadScan {
    let mut acc = Lanes::new();
    let mut chunks = loads.chunks_exact(LANES);
    for c in &mut chunks {
        for (i, &x) in c.iter().enumerate() {
            acc.feed(i, x);
        }
    }
    for (i, &x) in chunks.remainder().iter().enumerate() {
        acc.feed(i, x);
    }
    acc.fold()
}

#[cfg(target_arch = "x86_64")]
mod simd {
    //! Explicit vector kernels. Bit-identity with the scalar path holds by
    //! construction: lane `j` of the vector accumulators sees exactly the
    //! elements `j, j+LANES, j+2*LANES, …` in order (same as
    //! `Lanes::feed`), `vmaxpd`/`vminpd`/`vaddpd`/`vmulpd` are the same
    //! IEEE-754 operations as their scalar forms applied per lane (loads
    //! are never NaN, so max/min tie-handling differences cannot
    //! surface), and the horizontal fold extracts the lanes into a
    //! `Lanes` struct and reuses the identical sequential reduction.
    use super::{Lanes, LoadScan, LANES};
    use core::arch::x86_64::*;

    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn scan_avx512(loads: &[f64]) -> LoadScan {
        let mut maxs = _mm512_set1_pd(f64::NEG_INFINITY);
        let mut mins = _mm512_set1_pd(f64::INFINITY);
        let mut sums = _mm512_setzero_pd();
        let mut sqs = _mm512_setzero_pd();
        let chunks = loads.len() / LANES;
        let ptr = loads.as_ptr();
        for c in 0..chunks {
            let v = _mm512_loadu_pd(ptr.add(c * LANES));
            maxs = _mm512_max_pd(maxs, v);
            mins = _mm512_min_pd(mins, v);
            sums = _mm512_add_pd(sums, v);
            sqs = _mm512_add_pd(sqs, _mm512_mul_pd(v, v));
        }
        let mut acc = Lanes::new();
        _mm512_storeu_pd(acc.maxs.as_mut_ptr(), maxs);
        _mm512_storeu_pd(acc.mins.as_mut_ptr(), mins);
        _mm512_storeu_pd(acc.sums.as_mut_ptr(), sums);
        _mm512_storeu_pd(acc.sqs.as_mut_ptr(), sqs);
        for (i, &x) in loads[chunks * LANES..].iter().enumerate() {
            acc.feed(i, x);
        }
        acc.fold()
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan_avx2(loads: &[f64]) -> LoadScan {
        // Lanes 0..4 live in the `_lo` registers, lanes 4..8 in `_hi`.
        let mut maxs_lo = _mm256_set1_pd(f64::NEG_INFINITY);
        let mut maxs_hi = maxs_lo;
        let mut mins_lo = _mm256_set1_pd(f64::INFINITY);
        let mut mins_hi = mins_lo;
        let mut sums_lo = _mm256_setzero_pd();
        let mut sums_hi = sums_lo;
        let mut sqs_lo = _mm256_setzero_pd();
        let mut sqs_hi = sqs_lo;
        let chunks = loads.len() / LANES;
        let ptr = loads.as_ptr();
        for c in 0..chunks {
            let lo = _mm256_loadu_pd(ptr.add(c * LANES));
            let hi = _mm256_loadu_pd(ptr.add(c * LANES + 4));
            maxs_lo = _mm256_max_pd(maxs_lo, lo);
            maxs_hi = _mm256_max_pd(maxs_hi, hi);
            mins_lo = _mm256_min_pd(mins_lo, lo);
            mins_hi = _mm256_min_pd(mins_hi, hi);
            sums_lo = _mm256_add_pd(sums_lo, lo);
            sums_hi = _mm256_add_pd(sums_hi, hi);
            sqs_lo = _mm256_add_pd(sqs_lo, _mm256_mul_pd(lo, lo));
            sqs_hi = _mm256_add_pd(sqs_hi, _mm256_mul_pd(hi, hi));
        }
        let mut acc = Lanes::new();
        _mm256_storeu_pd(acc.maxs.as_mut_ptr(), maxs_lo);
        _mm256_storeu_pd(acc.maxs.as_mut_ptr().add(4), maxs_hi);
        _mm256_storeu_pd(acc.mins.as_mut_ptr(), mins_lo);
        _mm256_storeu_pd(acc.mins.as_mut_ptr().add(4), mins_hi);
        _mm256_storeu_pd(acc.sums.as_mut_ptr(), sums_lo);
        _mm256_storeu_pd(acc.sums.as_mut_ptr().add(4), sums_hi);
        _mm256_storeu_pd(acc.sqs.as_mut_ptr(), sqs_lo);
        _mm256_storeu_pd(acc.sqs.as_mut_ptr().add(4), sqs_hi);
        for (i, &x) in loads[chunks * LANES..].iter().enumerate() {
            acc.feed(i, x);
        }
        acc.fold()
    }
}

/// [`scan`] over loads produced on the fly: `load(i)` for `i < n`.
///
/// Feeds element `i` into lane `i % LANES`, exactly like the slice scan,
/// so for the same values the result is **bit-identical** to [`scan`] —
/// the property that lets `Assignment::load_stats` (which derives loads
/// from usage vectors without a buffer) agree with a scan over the
/// solver's cached load vector.
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

/// Per-lane accumulators shared by [`scan`] and [`scan_with`]; one struct
/// so the two paths cannot drift apart in accumulation order.
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

/// Row block size for the fused usage/capacity ratio scan. A multiple of
/// `LANES` (so lane placement inside a block matches the global scan) and
/// small enough that one block of ratios plus its usage/capacity rows stays
/// L1/L2-resident at 8 dimensions (1024 rows × 8 dims × 8 B × 2 arrays ≈
/// 128 KiB streamed, 8 KiB of ratios retained).
const BLOCK_ROWS: usize = 1024;

/// Fused, cache-blocked scan over packed machine-major rows: computes
/// `out[i] = max_ratio(usage row i, capacity row i)` for every row and
/// returns the [`LoadScan`] of `out` in the same pass.
///
/// The per-row ratio replicates `ResourceVec::max_ratio` exactly (zero
/// capacity: infinity if used beyond `EPS`, else ignored), and the
/// aggregate feeds lanes in global-index order, so the returned scan is
/// **bit-identical** to `scan(&out)` after the call — one traversal of the
/// packed arrays instead of a ratio pass plus a rescan.
///
/// # Panics
/// If slice lengths are inconsistent with `dims` rows of `out.len()`.
pub fn ratio_scan_rows(dims: usize, usage: &[f64], caps: &[f64], out: &mut [f64]) -> LoadScan {
    let n = out.len();
    assert_eq!(usage.len(), n * dims, "usage rows mismatch");
    assert_eq!(caps.len(), n * dims, "capacity rows mismatch");
    let mut acc = Lanes::new();
    let mut row = 0;
    while row < n {
        let end = (row + BLOCK_ROWS).min(n);
        for i in row..end {
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
            // BLOCK_ROWS is a multiple of LANES, so `i % LANES` inside a
            // block equals the lane `scan(&out)` would use globally.
            acc.feed(i % LANES, best);
        }
        row = end;
    }
    acc.fold()
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

    fn reference(loads: &[f64]) -> LoadScan {
        LoadScan {
            peak: loads.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            min: loads.iter().copied().fold(f64::INFINITY, f64::min),
            sum: loads.iter().sum(),
            sumsq: loads.iter().map(|x| x * x).sum(),
        }
    }

    #[test]
    fn matches_reference_on_varied_lengths() {
        // Deterministic pseudo-loads; lengths straddle the chunk width.
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 64, 100, 1000] {
            let loads: Vec<f64> = (0..n)
                .map(|i| ((i * 2654435761 % 1000) as f64) / 1000.0)
                .collect();
            let got = scan(&loads);
            let want = reference(&loads);
            assert_eq!(got.peak, want.peak, "peak n={n}");
            assert_eq!(got.min, want.min, "min n={n}");
            assert!((got.sum - want.sum).abs() < 1e-9, "sum n={n}");
            assert!((got.sumsq - want.sumsq).abs() < 1e-9, "sumsq n={n}");
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
    fn scan_with_is_bit_identical_to_scan() {
        for n in [0usize, 5, 8, 13, 64, 257] {
            let loads: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos().abs()).collect();
            let a = scan(&loads);
            let b = scan_with(n, |i| loads[i]);
            assert_eq!(a.peak.to_bits(), b.peak.to_bits(), "n={n}");
            assert_eq!(a.min.to_bits(), b.min.to_bits(), "n={n}");
            assert_eq!(a.sum.to_bits(), b.sum.to_bits(), "n={n}");
            assert_eq!(a.sumsq.to_bits(), b.sumsq.to_bits(), "n={n}");
        }
    }

    #[test]
    fn peak_of_empty_is_zero() {
        assert_eq!(peak(&[]), 0.0);
    }

    #[test]
    fn dispatch_matches_scalar_oracle_bit_identically() {
        // On an AVX-512F/AVX2 machine this is the real SIMD-vs-scalar
        // differential; elsewhere the two paths coincide and the test
        // degenerates to a self-check.
        // Lengths straddle chunk boundaries; values include 0.0 and +inf
        // (the sentinel `max_ratio` emits for overcommitted zero-capacity
        // dimensions).
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000, 4097] {
            let mut loads: Vec<f64> = (0..n)
                .map(|i| ((i as u64).wrapping_mul(2654435761) % 10007) as f64 / 10007.0)
                .collect();
            if n > 3 {
                loads[n / 3] = 0.0;
                loads[n / 2] = f64::INFINITY;
            }
            let got = scan(&loads);
            let want = scan_scalar(&loads);
            assert_eq!(got.peak.to_bits(), want.peak.to_bits(), "peak n={n}");
            assert_eq!(got.min.to_bits(), want.min.to_bits(), "min n={n}");
            assert_eq!(got.sum.to_bits(), want.sum.to_bits(), "sum n={n}");
            assert_eq!(got.sumsq.to_bits(), want.sumsq.to_bits(), "sumsq n={n}");
        }
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
            let rescan = scan(&out);
            assert_eq!(got.peak.to_bits(), rescan.peak.to_bits());
            assert_eq!(got.min.to_bits(), rescan.min.to_bits());
            assert_eq!(got.sum.to_bits(), rescan.sum.to_bits());
            assert_eq!(got.sumsq.to_bits(), rescan.sumsq.to_bits());
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

#[cfg(test)]
mod perf_probe {
    use super::*;

    /// Manual probe (not a CI assertion): `cargo test -p rex-cluster
    /// --release -- --ignored --nocapture probe_scan`.
    #[test]
    #[ignore]
    fn probe_scan_speedup() {
        for n in [10_000usize, 100_000] {
            let loads: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).fract()).collect();
            let time = |f: &dyn Fn(&[f64]) -> LoadScan| {
                let reps = 200_000_000 / n;
                let mut sink = 0.0;
                let t = std::time::Instant::now();
                for _ in 0..reps {
                    sink += f(std::hint::black_box(&loads)).sumsq;
                }
                std::hint::black_box(sink);
                t.elapsed().as_nanos() as f64 / reps as f64
            };
            let scalar = time(&scan_scalar);
            let simd = time(&scan);
            println!(
                "n={n}: scalar {scalar:.0} ns, dispatch {simd:.0} ns, speedup {:.2}x",
                scalar / simd
            );
        }
    }
}
