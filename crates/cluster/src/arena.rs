//! Flat arena storage for resource vectors.
//!
//! [`PackedVecs`] holds **row-major packed** rows (`data[i*dims + d]`):
//! all dimensions of one element adjacent. The right shape for the
//! solver's mutable usage table, where the hot loop touches *all*
//! dimensions of *one* machine per edit (add demand, subtract demand,
//! capacity check, max-ratio). At 3 dimensions a row is 24 bytes versus
//! the 72-byte inline [`ResourceVec`], so a full-fleet scan streams 3×
//! less memory and never chases per-machine padding.
//!
//! It is a plain `Vec<f64>` underneath — no per-element allocation, no
//! pointer indirection — and converts to/from [`ResourceVec`] at the API
//! boundary so existing callers keep their types. All arithmetic
//! replicates the corresponding `ResourceVec` operation **bit for bit**
//! (same per-component operation order), which is what lets
//! `Assignment`'s arena-backed usage table keep every documented
//! bit-identity contract.

use crate::resources::ResourceVec;

/// Row-major packed table of resource vectors: `dims` consecutive `f64`s
/// per row, no padding. Backs `Assignment`'s per-machine usage.
#[derive(Clone, Debug, PartialEq)]
pub struct PackedVecs {
    dims: usize,
    data: Vec<f64>,
}

impl PackedVecs {
    /// A table of `n` all-zero rows.
    pub fn zeroed(dims: usize, n: usize) -> Self {
        assert!(
            (1..=crate::MAX_DIMS).contains(&dims),
            "dims must be in 1..={}, got {dims}",
            crate::MAX_DIMS
        );
        Self {
            dims,
            data: vec![0.0; dims * n],
        }
    }

    /// Builds the table from an iterator of vectors (all `dims`-dimensional).
    pub fn from_vecs<'a>(dims: usize, rows: impl IntoIterator<Item = &'a ResourceVec>) -> Self {
        let iter = rows.into_iter();
        let mut data = Vec::with_capacity(dims * iter.size_hint().0);
        for v in iter {
            debug_assert_eq!(v.dims(), dims);
            data.extend_from_slice(v.as_slice());
        }
        Self { dims, data }
    }

    /// Number of dimensions per row.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dims
    }

    /// True when the table has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The whole table as one flat slice (row-major) — the shape
    /// [`crate::kernels::ratio_scan_rows`] consumes.
    #[inline]
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dims..(i + 1) * self.dims]
    }

    /// Materializes row `i` as a [`ResourceVec`].
    #[inline]
    pub fn get(&self, i: usize) -> ResourceVec {
        ResourceVec::from_slice_trusted(self.row(i))
    }

    /// Overwrites row `i`.
    #[inline]
    pub fn set(&mut self, i: usize, v: &ResourceVec) {
        debug_assert_eq!(v.dims(), self.dims);
        self.data[i * self.dims..(i + 1) * self.dims].copy_from_slice(v.as_slice());
    }

    /// `row[i] += rhs`, component-wise — bit-identical to
    /// `ResourceVec::add_assign`.
    #[inline]
    pub fn add_assign(&mut self, i: usize, rhs: &ResourceVec) {
        debug_assert_eq!(rhs.dims(), self.dims);
        let row = &mut self.data[i * self.dims..(i + 1) * self.dims];
        for (d, x) in row.iter_mut().enumerate() {
            *x += rhs[d];
        }
    }

    /// `row[i] = max(row[i] - rhs, 0)` component-wise — bit-identical to
    /// `ResourceVec::saturating_sub_assign`.
    #[inline]
    pub fn saturating_sub_assign(&mut self, i: usize, rhs: &ResourceVec) {
        debug_assert_eq!(rhs.dims(), self.dims);
        let row = &mut self.data[i * self.dims..(i + 1) * self.dims];
        for (d, x) in row.iter_mut().enumerate() {
            *x = (*x - rhs[d]).max(0.0);
        }
    }

    /// Peak normalized utilization of row `i` against `cap` —
    /// bit-identical to `ResourceVec::max_ratio`.
    #[inline]
    pub fn max_ratio(&self, i: usize, cap: &ResourceVec) -> f64 {
        debug_assert_eq!(cap.dims(), self.dims);
        let row = self.row(i);
        let mut best = 0.0f64;
        for (d, &u) in row.iter().enumerate() {
            let c = cap[d];
            let r = if c > 0.0 {
                u / c
            } else if u > crate::EPS {
                f64::INFINITY
            } else {
                0.0
            };
            if r > best {
                best = r;
            }
        }
        best
    }

    /// Peak normalized utilization of `row[i] + add` against `cap` —
    /// bit-identical to materializing the sum into a `ResourceVec` and
    /// calling `max_ratio` (`u + add[d]` is the same rounded addition
    /// `ResourceVec::add_assign` performs), but without the temporary.
    /// This is the best-fit repair scan's inner loop: one call per
    /// candidate machine.
    #[inline]
    pub fn max_ratio_after_add(&self, i: usize, add: &ResourceVec, cap: &ResourceVec) -> f64 {
        debug_assert_eq!(add.dims(), self.dims);
        debug_assert_eq!(cap.dims(), self.dims);
        let row = self.row(i);
        let mut best = 0.0f64;
        for (d, &u) in row.iter().enumerate() {
            let u = u + add[d];
            let c = cap[d];
            let r = if c > 0.0 {
                u / c
            } else if u > crate::EPS {
                f64::INFINITY
            } else {
                0.0
            };
            if r > best {
                best = r;
            }
        }
        best
    }

    /// `row[i] + rhs <= cap` within [`crate::EPS`] — bit-identical to
    /// `ResourceVec::fits_after_add`.
    #[inline]
    pub fn fits_after_add(&self, i: usize, rhs: &ResourceVec, cap: &ResourceVec) -> bool {
        debug_assert_eq!(rhs.dims(), self.dims);
        debug_assert_eq!(cap.dims(), self.dims);
        let row = self.row(i);
        for (d, &u) in row.iter().enumerate() {
            if u + rhs[d] > cap[d] + crate::EPS {
                return false;
            }
        }
        true
    }

    /// `(row[i] + a) + b <= cap` within [`crate::EPS`] — bit-identical to
    /// materializing `row[i]`, adding `a`, then calling
    /// `ResourceVec::fits_after_add(b, cap)` (the parenthesization matches
    /// that sequence of rounded additions). This is the migration planner's
    /// batch-admissibility check: `a` is the in-batch extra already charged
    /// to the machine, `b` the candidate move's in-flight demand.
    #[inline]
    pub fn fits_after_add2(
        &self,
        i: usize,
        a: &ResourceVec,
        b: &ResourceVec,
        cap: &ResourceVec,
    ) -> bool {
        debug_assert_eq!(a.dims(), self.dims);
        debug_assert_eq!(b.dims(), self.dims);
        debug_assert_eq!(cap.dims(), self.dims);
        let row = self.row(i);
        for (d, &u) in row.iter().enumerate() {
            if (u + a[d]) + b[d] > cap[d] + crate::EPS {
                return false;
            }
        }
        true
    }

    /// `row[i] <= cap` within tolerance — bit-identical to
    /// `ResourceVec::fits_within`.
    #[inline]
    pub fn fits_within(&self, i: usize, cap: &ResourceVec) -> bool {
        debug_assert_eq!(cap.dims(), self.dims);
        let row = self.row(i);
        for (d, &u) in row.iter().enumerate() {
            if u > cap[d] + crate::EPS {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rv(vals: &[f64]) -> ResourceVec {
        ResourceVec::from_slice(vals)
    }

    #[test]
    fn packed_ops_match_resource_vec_bitwise() {
        let cap = rv(&[1.0, 0.0, 3.0]);
        let rows = [rv(&[0.3, 0.0, 2.9]), rv(&[0.9999999, 0.0, 0.0])];
        let mut packed = PackedVecs::from_vecs(3, &rows);
        let mut plain: Vec<ResourceVec> = rows.to_vec();
        let delta = rv(&[0.1, 0.0, 0.7]);

        for (i, plain_row) in plain.iter_mut().enumerate() {
            assert_eq!(
                packed.max_ratio(i, &cap).to_bits(),
                plain_row.max_ratio(&cap).to_bits()
            );
            assert_eq!(
                packed.fits_after_add(i, &delta, &cap),
                plain_row.fits_after_add(&delta, &cap)
            );
            assert_eq!(packed.fits_within(i, &cap), plain_row.fits_within(&cap));

            packed.add_assign(i, &delta);
            *plain_row += &delta;
            assert_eq!(packed.get(i).as_slice(), plain_row.as_slice());

            packed.saturating_sub_assign(i, &rv(&[0.5, 0.0, 5.0]));
            plain_row.saturating_sub_assign(&rv(&[0.5, 0.0, 5.0]));
            assert_eq!(packed.get(i).as_slice(), plain_row.as_slice());
        }
    }

    #[test]
    fn packed_zero_capacity_overcommit_is_infinite() {
        let cap = rv(&[1.0, 0.0]);
        let packed = PackedVecs::from_vecs(2, &[rv(&[0.5, 0.2])]);
        assert!(packed.max_ratio(0, &cap).is_infinite());
    }

    #[test]
    fn packed_set_and_zeroed() {
        let mut p = PackedVecs::zeroed(2, 3);
        assert_eq!(p.len(), 3);
        assert!(p.get(1).is_zero());
        p.set(1, &rv(&[4.0, 5.0]));
        assert_eq!(p.row(1), &[4.0, 5.0]);
        assert_eq!(p.as_flat(), &[0.0, 0.0, 4.0, 5.0, 0.0, 0.0]);
    }
}
