//! The initial placements, and how they find a host (DESIGN.md §15).
//!
//! Each placement is defined by a fleet scan: best fit takes the fitting
//! host of least `peak(usage)/scale`, the first by id among equals; the
//! hot set's first fit takes the lowest-id hot host with room under 93 %.
//! Scanning the fleet for every shard made generation O(shards × machines)
//! (14 s at 11000×100000). Here the same two rules are answered by a
//! load-ordered index and a max-slack segment tree: both offer hosts to the
//! unchanged `fits` test in the scan's order and pass over only hosts that
//! provably fail it, so they choose the scan's host and every instance
//! keeps its bytes. `Drift` keeps its scan: its comparator draws from the
//! RNG once per comparison, so any other visiting order would change it.

use super::{Placement, SynthConfig};
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::BTreeSet;

/// Hot machines fill first-fit up to this share of their capacity. The 7 %
/// headroom keeps them *serviceable*: filling further would seal them
/// outright under the α·d departure overhead (with α = 0.2 even a
/// 0.35-demand shard could no longer leave), turning every instance into
/// one with an unimprovable floor.
const HOT_HEADROOM: f64 = 0.93;

fn peak(d: &[f64]) -> f64 {
    d.iter().cloned().fold(0.0f64, f64::max)
}

/// Builds the initial placement (machine index per shard); `Err` names the
/// first shard, in placement order, that fits on no machine.
pub(super) fn place(
    cfg: &SynthConfig,
    demands: &[Vec<f64>],
    scales: &[f64],
    rng: &mut StdRng,
) -> Result<Vec<usize>, usize> {
    #[cfg(test)]
    if cfg.placement != Placement::Drift && reference::SCAN.get() {
        return reference::place(cfg, demands, scales);
    }
    let m = cfg.n_machines;
    let dims = cfg.dims;
    let mut order: Vec<usize> = (0..demands.len()).collect();
    order.sort_by(|&a, &b| {
        peak(&demands[b])
            .partial_cmp(&peak(&demands[a]))
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    // Row-major per-host usage, `dims` values per host.
    let mut usage = vec![0.0f64; m * dims];
    let mut placement = vec![0usize; demands.len()];
    let fits = |usage: &[f64], host: usize, d: &[f64], headroom: f64| -> bool {
        (0..dims).all(|r| usage[host * dims + r] + d[r] <= headroom * scales[host])
    };
    let assign = |i: usize, host: usize, usage: &mut [f64], placement: &mut [usize]| {
        for r in 0..dims {
            usage[host * dims + r] += demands[i][r];
        }
        placement[i] = host;
    };
    let row = |h: usize| h * dims..(h + 1) * dims;

    match cfg.placement {
        Placement::BalancedBfd => {
            let mut best = LoadIndex::new(scales);
            for &i in &order {
                let d = &demands[i];
                let host = best.first(|h| fits(&usage, h, d, 1.0)).ok_or(i)?;
                assign(i, host, &mut usage, &mut placement);
                best.update(host, &usage[row(host)]);
            }
        }
        Placement::Hotspot(frac) => {
            // First fit into the hot set, overflow best-fit into the rest.
            let hot = ((m as f64 * frac).ceil() as usize).clamp(1, m);
            let mut best = LoadIndex::new(scales);
            let mut room = SlackTree::new(&scales[..hot], dims, HOT_HEADROOM);
            for &i in &order {
                let d = &demands[i];
                let host = room
                    .first(d, |h| fits(&usage, h, d, HOT_HEADROOM))
                    .or_else(|| best.first(|h| fits(&usage, h, d, 1.0)))
                    .ok_or(i)?;
                assign(i, host, &mut usage, &mut placement);
                best.update(host, &usage[row(host)]);
                if host < hot {
                    room.update(host, &usage[row(host)]);
                }
            }
        }
        Placement::Drift => {
            let tail_peak = |u: &[f64]| u[1..].iter().cloned().fold(0.0f64, f64::max);
            let balance = |usage: &[f64], h: usize| tail_peak(&usage[row(h)]) / scales[h];
            for &i in &order {
                // Balanced on dims 1.. with a small random tie-breaker;
                // dim 0 is ignored (it "changed since the layout").
                let host = (0..m)
                    .filter(|&h| fits(&usage, h, &demands[i], 1.0))
                    .min_by(|&a, &b| {
                        (balance(&usage, a), rng.random::<f64>())
                            .partial_cmp(&(balance(&usage, b), 0.5))
                            .unwrap()
                    })
                    .ok_or(i)?;
                assign(i, host, &mut usage, &mut placement);
            }
        }
    }
    Ok(placement)
}

/// Counts one host or summary node examined (test builds only).
#[inline]
fn examined() {
    #[cfg(test)]
    reference::EXAMINED.set(reference::EXAMINED.get() + 1);
}

/// Hosts in best-fit order: ascending `peak(usage)/scale`, then id. That is
/// the order `(0..m).min_by(peak/scale)` prefers them in: usage and scale
/// are non-negative and finite, so the quotient's bit pattern orders like
/// its value, and `min_by` keeps the first (lowest-id) of equal minima.
struct LoadIndex<'a> {
    scales: &'a [f64],
    keys: Vec<u64>,
    order: BTreeSet<(u64, usize)>,
}

impl<'a> LoadIndex<'a> {
    /// Every host empty: key `0.0/scale`, i.e. `+0.0`.
    fn new(scales: &'a [f64]) -> Self {
        Self {
            scales,
            keys: vec![0; scales.len()],
            order: (0..scales.len()).map(|h| (0, h)).collect(),
        }
    }

    /// The first host in best-fit order that `fits` accepts.
    fn first(&self, mut fits: impl FnMut(usize) -> bool) -> Option<usize> {
        self.order.iter().map(|&(_, h)| h).find(|&h| {
            examined();
            fits(h)
        })
    }

    /// Re-files `host` under its new usage `row`.
    fn update(&mut self, host: usize, row: &[f64]) {
        let ratio = peak(row) / self.scales[host];
        debug_assert!(ratio.is_finite() && ratio.is_sign_positive());
        self.order.remove(&(self.keys[host], host));
        self.keys[host] = ratio.to_bits();
        self.order.insert((self.keys[host], host));
    }
}

/// Per-dimension maximum slack `headroom·scale − usage` over aligned groups
/// of hosts, as a segment tree (node 1 the root, node `n`'s children `2n`
/// and `2n + 1`, host `h` at leaf `leaves + h`; padding leaves hold `−∞`).
/// A group whose largest slack in some dimension falls short of the demand
/// by more than rounding holds no host that fits, so first fit passes over
/// it; `fits` stays the only test that accepts a host.
struct SlackTree<'a> {
    scales: &'a [f64],
    dims: usize,
    leaves: usize,
    headroom: f64,
    /// The skip margin: far above the rounding of `headroom·scale − usage`
    /// and of `fits`' `usage + d`, both below `ulp(max scale)`.
    tol: f64,
    slack: Vec<f64>,
}

impl<'a> SlackTree<'a> {
    fn new(scales: &'a [f64], dims: usize, headroom: f64) -> Self {
        let leaves = scales.len().next_power_of_two();
        let mut slack = vec![f64::NEG_INFINITY; 2 * leaves * dims];
        for (h, &s) in scales.iter().enumerate() {
            slack[(leaves + h) * dims..(leaves + h + 1) * dims].fill(headroom * s);
        }
        let max_scale = scales.iter().cloned().fold(0.0f64, f64::max);
        let mut tree = Self {
            scales,
            dims,
            leaves,
            headroom,
            tol: 1e-9 * (1.0 + max_scale),
            slack,
        };
        for node in (1..leaves).rev() {
            tree.pull(node);
        }
        tree
    }

    fn pull(&mut self, node: usize) {
        let d = self.dims;
        for r in 0..d {
            self.slack[node * d + r] =
                self.slack[2 * node * d + r].max(self.slack[(2 * node + 1) * d + r]);
        }
    }

    /// Records `host`'s new usage `row`.
    fn update(&mut self, host: usize, row: &[f64]) {
        let d = self.dims;
        let mut node = self.leaves + host;
        let cap = self.headroom * self.scales[host];
        for (s, &u) in self.slack[node * d..(node + 1) * d].iter_mut().zip(row) {
            *s = cap - u;
        }
        while node > 1 {
            node /= 2;
            self.pull(node);
        }
    }

    /// The lowest-id host `fits` accepts, demand `d`.
    fn first(&self, d: &[f64], mut fits: impl FnMut(usize) -> bool) -> Option<usize> {
        self.descend(1, d, &mut fits)
    }

    fn descend(
        &self,
        node: usize,
        d: &[f64],
        fits: &mut impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        examined();
        let slack = &self.slack[node * self.dims..(node + 1) * self.dims];
        if slack.iter().zip(d).any(|(&s, &need)| s + self.tol < need) {
            return None;
        }
        if node >= self.leaves {
            let host = node - self.leaves;
            return fits(host).then_some(host);
        }
        self.descend(2 * node, d, fits)
            .or_else(|| self.descend(2 * node + 1, d, fits))
    }
}

/// The fleet scans the placements are defined by, kept as the reference the
/// index and the summary are diffed against, and the work counter.
#[cfg(test)]
pub(super) mod reference {
    use super::{peak, Placement, SynthConfig};
    use std::cell::Cell;

    thread_local! {
        /// Routes `BalancedBfd`/`Hotspot` through the scans below.
        pub static SCAN: Cell<bool> = const { Cell::new(false) };
        /// Hosts plus summary nodes the placements examined on this thread.
        pub static EXAMINED: Cell<u64> = const { Cell::new(0) };
    }

    /// The fleet scans of the two index-driven placements (`BalancedBfd`
    /// is the case without a hot set); `Err` names the shard that fits
    /// nowhere.
    pub fn place(
        cfg: &SynthConfig,
        demands: &[Vec<f64>],
        scales: &[f64],
    ) -> Result<Vec<usize>, usize> {
        let m = cfg.n_machines;
        let dims = cfg.dims;
        let mut order: Vec<usize> = (0..demands.len()).collect();
        order.sort_by(|&a, &b| {
            peak(&demands[b])
                .partial_cmp(&peak(&demands[a]))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut usage = vec![vec![0.0f64; dims]; m];
        let mut placement = vec![0usize; demands.len()];
        let fits = |usage: &[Vec<f64>], host: usize, d: &[f64], headroom: f64| -> bool {
            (0..dims).all(|r| usage[host][r] + d[r] <= headroom * scales[host])
        };
        let best_fit = |usage: &[Vec<f64>], d: &[f64]| {
            (0..m).filter(|&h| fits(usage, h, d, 1.0)).min_by(|&a, &b| {
                (peak(&usage[a]) / scales[a])
                    .partial_cmp(&(peak(&usage[b]) / scales[b]))
                    .unwrap()
            })
        };
        let hot = match cfg.placement {
            Placement::Hotspot(frac) => ((m as f64 * frac).ceil() as usize).clamp(1, m),
            _ => 0,
        };
        for &i in &order {
            let d = &demands[i];
            let host = (0..hot)
                .find(|&h| fits(&usage, h, d, 0.93))
                .or_else(|| best_fit(&usage, d))
                .ok_or(i)?;
            for r in 0..dims {
                usage[host][r] += d[r];
            }
            placement[i] = host;
        }
        Ok(placement)
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{EXAMINED, SCAN};
    use crate::io;
    use crate::synthetic::{generate, DemandFamily, MachineProfile, Placement, SynthConfig};
    use rex_cluster::ClusterError;

    /// What `generate` makes of `cfg`: the instance bytes, or the error.
    fn outcome(cfg: &SynthConfig) -> Result<String, ClusterError> {
        generate(cfg).map(|inst| io::to_json(&inst))
    }

    /// The same, with the two index-driven placements run as fleet scans.
    fn scanned(cfg: &SynthConfig) -> Result<String, ClusterError> {
        SCAN.set(true);
        let out = outcome(cfg);
        SCAN.set(false);
        out
    }

    /// The benchmark's `solve_decomposed` input for seed 11000.
    fn web() -> SynthConfig {
        SynthConfig {
            n_machines: 1000,
            n_exchange: 125,
            n_shards: 10_000,
            dims: 3,
            stringency: 0.75,
            alpha: 0.1,
            family: DemandFamily::Correlated,
            placement: Placement::Hotspot(0.4),
            profile: MachineProfile::Homogeneous,
            seed: 11_000,
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn index_and_summary_choose_the_scans_hosts() {
        let families = [
            DemandFamily::Uniform,
            DemandFamily::Zipf,
            DemandFamily::Correlated,
            DemandFamily::BigShards,
        ];
        let placements = [
            Placement::BalancedBfd,
            Placement::Hotspot(0.1),
            Placement::Hotspot(0.4),
            Placement::Hotspot(1.0),
        ];
        let profiles = [
            MachineProfile::Homogeneous,
            MachineProfile::TwoTier {
                big_fraction: 0.25,
                ratio: 2.0,
            },
            MachineProfile::BigExchange { factor: 2.0 },
        ];
        let shapes = [(7, 1, 60), (24, 3, 300), (50, 5, 400)];
        let (mut configs, mut failed) = (0, 0);
        for family in families {
            for placement in placements {
                for profile in profiles {
                    for dims in 1..=3 {
                        for (k, stringency) in [0.5, 0.8, 0.9, 0.95].into_iter().enumerate() {
                            let (n_machines, n_exchange, n_shards) = shapes[(k + dims) % 3];
                            let cfg = SynthConfig {
                                n_machines,
                                n_exchange,
                                n_shards,
                                dims,
                                stringency,
                                family,
                                placement,
                                profile,
                                seed: (k * 7 + dims) as u64,
                                ..Default::default()
                            };
                            let fast = outcome(&cfg);
                            assert_eq!(fast, scanned(&cfg), "{cfg:?}");
                            configs += 1;
                            failed += usize::from(fast.is_err());
                        }
                    }
                }
            }
        }
        assert_eq!(configs, 576);
        // Tight multi-dimensional packings at 0.95 really do fail, so the
        // error side of the comparison is exercised too.
        assert!(failed > 0);
    }

    #[test]
    fn fallback_and_double_failure_match_the_scans() {
        // The hot set overflows, the overflow best fit fails, and the
        // balanced fallback packs: the Hotspot instance carries the BFD
        // placement.
        let fallback = SynthConfig {
            n_machines: 8,
            n_exchange: 1,
            n_shards: 80,
            stringency: 0.9,
            family: DemandFamily::Uniform,
            placement: Placement::Hotspot(0.4),
            seed: 2,
            ..Default::default()
        };
        let bfd = SynthConfig {
            placement: Placement::BalancedBfd,
            ..fallback
        };
        let (hot, balanced) = (generate(&fallback).unwrap(), generate(&bfd).unwrap());
        assert_eq!(hot.initial, balanced.initial, "the fallback must run");
        assert_eq!(outcome(&fallback), scanned(&fallback));
        // Neither packs (the `rex generate` repro, scaled down): both sides
        // name the same shard.
        let neither = SynthConfig {
            stringency: 0.95,
            seed: 0,
            ..fallback
        };
        let err = outcome(&neither).unwrap_err();
        assert!(matches!(err, ClusterError::Unpackable { stringency, .. } if stringency == 0.95));
        assert_eq!(Err(err), scanned(&neither));
    }

    #[test]
    fn web_instance_keeps_its_frozen_bytes() {
        // FNV-1a of `io::to_json`, taken at the parent of the index (the
        // fleet-scan generator).
        let json = outcome(&web()).unwrap();
        assert_eq!(fnv1a(json.as_bytes()), 0x164c_035c_0a89_2a1c);
    }

    #[test]
    fn web_instance_examines_few_hosts_per_shard() {
        EXAMINED.set(0);
        generate(&web()).unwrap();
        let per_shard = EXAMINED.get() as f64 / 10_000.0;
        // The scans examined 1 086.5 hosts per placed shard here.
        assert!(per_shard <= 150.0, "{per_shard} hosts + nodes per shard");
    }
}
