//! The one percentile type, checked two ways: a property sweep against
//! the exact nearest-rank sample, and a bit-for-bit reference against the
//! 2 % bucket mapping the runtime's latency export has always used.
//!
//! rex-obs has no dependencies, dev ones included, so the sweep draws its
//! streams from a seeded xorshift rather than the proptest shim: every case
//! is a pure function of its seed and reproduces exactly.

use rex_obs::Histogram;

/// xorshift64*: the sweep's only randomness. Returns a uniform in `[0, 1)`.
fn unit(state: &mut u64) -> f64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
}

fn histogram_of(samples: &[f64]) -> Histogram {
    let mut h = Histogram::default();
    samples.iter().for_each(|&v| h.record(v));
    h
}

/// The inputs the retired histograms' and the exact nearest-rank helper's
/// own tests used: empty, single samples, all-duplicate and
/// duplicate-heavy streams, unaligned completion-order streams, round
/// counts, huge and non-finite values, zeros and negative magnitudes.
fn retired_cases() -> Vec<Vec<f64>> {
    let mut heavy = vec![400.0; 97];
    heavy.extend_from_slice(&[812.5, 1203.0, 9001.0]);
    vec![
        vec![],
        vec![5.0],
        vec![137.25],
        vec![1e12],
        vec![7.5; 64],
        heavy,
        vec![
            1000.7, 402.3, 401.9, 403.1, 17234.6, 402.3, 980.0, 402.3, 55.1, 402.4,
        ],
        (1..=1000).map(|i| 1.0 + i as f64 / 100.0).collect(),
        (1..=100).map(|i| i as f64 * 0.01).collect(),
        (1..=100).rev().map(|i| i as f64 + 0.5).collect(),
        (1..=101).rev().map(f64::from).collect(),
        (1..=20).rev().map(f64::from).collect(),
        vec![0.0, 1e-12, 3e-9, 1.0, -1.0, 1e20, f64::INFINITY],
        vec![0.0; 5],
        vec![-2.5, -0.001, 4.0, -4.0],
    ]
}

/// A seeded stream: log-uniform over the whole range, relative latencies,
/// heavy ties, signed values with zeros, or a narrow band.
fn random_stream(seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let n = 1 + (unit(&mut s) * 300.0) as usize;
    let shape = (unit(&mut s) * 5.0) as u32;
    (0..n)
        .map(|_| {
            let u = unit(&mut s);
            match shape {
                0 => 10f64.powf(-9.0 + 24.0 * u),
                1 => 1.0 - 8.0 * (1.0 - u).ln(),
                2 => [0.25, 1.0, 7.5, 400.0][(u * 4.0) as usize],
                3 if u < 0.125 => 0.0,
                3 => (u - 0.5) * 1e3,
                _ => 100.0 + u,
            }
        })
        .collect()
}

/// Every percentile lies within one bucket of the exact nearest-rank
/// sample (zero below 1e-9, the top bucket past 1e15), percentiles are
/// ordered and order-free, and count/mean/min/max are exact.
fn check_properties(samples: &[f64], case: &str) {
    let h = histogram_of(samples);
    let mut sorted: Vec<f64> = samples.iter().map(|v| v.abs()).collect();
    let sum = sorted.iter().fold(0.0, |s, v| s + v);
    sorted.sort_by(f64::total_cmp);
    let n = samples.len();
    assert_eq!(h.count(), n as u64, "{case}");
    let mean = if n == 0 { 0.0 } else { sum / n as f64 };
    assert_eq!(h.mean().to_bits(), mean.to_bits(), "{case}: mean");
    let (lo, hi) = (sorted.first(), sorted.last());
    assert_eq!(
        (h.min(), h.max()),
        (*lo.unwrap_or(&0.0), *hi.unwrap_or(&0.0))
    );
    for p in [50.0, 95.0, 99.0, 100.0] {
        let got = h.percentile(p);
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        let Some(&want) = sorted.get(rank - 1) else {
            assert_eq!(got, 0.0, "{case}: empty p{p}");
            continue;
        };
        let ok = if want < 1e-9 {
            got == 0.0
        } else if want > 1e15 {
            got > 1e15
        } else {
            (1.0 / 1.02..=1.02).contains(&(got / want))
        };
        assert!(ok, "{case}: p{p} {got} vs exact {want}");
    }
    // A percentile is its bucket's midpoint, so p99 can sit up to half a
    // bucket above the exact max: the max's own bucket (p100) bounds it.
    let ps = [50.0, 95.0, 99.0, 100.0];
    let got = ps.map(|p| h.percentile(p));
    assert!(got.windows(2).all(|w| w[0] <= w[1]), "{case}: {got:?}");
    let rev: Vec<f64> = samples.iter().rev().copied().collect();
    assert_eq!(got, ps.map(|p| histogram_of(&rev).percentile(p)), "{case}");
}

#[test]
fn percentiles_lie_within_one_bucket_of_the_exact_nearest_rank() {
    for (i, case) in retired_cases().iter().enumerate() {
        check_properties(case, &format!("retired case {i}"));
    }
    for seed in 0..2_000 {
        check_properties(&random_stream(seed), &format!("seed {seed}"));
    }
}

/// The retired runtime mapping, kept as the reference: 464 buckets at
/// ratio 1.02 from 1.0 (everything at or below 1.0 in bucket 0, everything
/// past the last bound clamped into it), representative `1.02^(i+0.5)`.
/// Returns `count` and the bits of `mean, p50, p95, p99, max`.
fn retired_runtime_mapping(samples: &[f64]) -> [u64; 6] {
    let (mut buckets, mut sum, mut max) = ([0u64; 464], 0.0, 0.0f64);
    for &v in samples {
        let i = if v <= 1.0 {
            0
        } else {
            (v.ln() / 1.02f64.ln()).floor() as usize
        };
        buckets[i.min(463)] += 1;
        sum += v;
        max = max.max(v);
    }
    let n = samples.len() as u64;
    let pct = |p: f64| {
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        let i = buckets.iter().position(|&c| {
            seen += c;
            seen >= rank
        });
        i.map_or(0.0, |i| 1.02f64.powf(i as f64 + 0.5)).to_bits()
    };
    let mean = if n == 0 { 0.0 } else { sum / n as f64 };
    [
        n,
        mean.to_bits(),
        pct(50.0),
        pct(95.0),
        pct(99.0),
        max.to_bits(),
    ]
}

#[test]
fn samples_of_at_least_one_map_exactly_as_the_runtime_export_did() {
    // The runtime's domain: relative latencies ≥ 1, below its clamp at
    // 1.02^464 ≈ 9 806.
    let mut cases: Vec<Vec<f64>> = retired_cases()
        .into_iter()
        .filter(|c| c.iter().all(|&v| (1.0..9_806.0).contains(&v)))
        .collect();
    assert!(
        cases.len() >= 8,
        "the retired inputs in the runtime's domain"
    );
    for seed in 0..500u64 {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let n = (unit(&mut s) * 2_000.0) as usize;
        let scale = [0.5, 4.0, 60.0][(unit(&mut s) * 3.0) as usize];
        let tail = |s: &mut u64| (1.0 - scale * (1.0 - unit(s)).ln()).min(9_000.0);
        cases.push((0..n).map(|_| tail(&mut s)).collect());
    }
    for (i, case) in cases.iter().enumerate() {
        let h = histogram_of(case);
        let pct = [50.0, 95.0, 99.0].map(|p| h.percentile(p).to_bits());
        let got = [
            h.count(),
            h.mean().to_bits(),
            pct[0],
            pct[1],
            pct[2],
            h.max().to_bits(),
        ];
        assert_eq!(got, retired_runtime_mapping(case), "case {i}");
    }
}
