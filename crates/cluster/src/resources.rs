//! Fixed-capacity multi-dimensional resource vectors.
//!
//! A [`ResourceVec`] holds up to [`MAX_DIMS`] non-negative `f64` components
//! inline (no heap allocation), because these vectors are added and compared
//! millions of times inside the LNS inner loop. All binary operations
//! require both operands to have the same dimensionality and panic otherwise
//! — mixing dimensionalities is a programming error, not a runtime
//! condition.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub, SubAssign};

/// Maximum number of resource dimensions supported.
///
/// The paper's setting needs three (CPU, memory, disk); we leave headroom
/// for network bandwidth, SSD IOPS, etc. Eight keeps the struct at 72 bytes
/// — one cache line plus a word — which measured faster than a `Vec<f64>`
/// by ~6x on the insertion microbench.
pub const MAX_DIMS: usize = 8;

/// A multi-dimensional resource quantity (capacity, demand, or usage).
#[derive(Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceVec {
    dims: u8,
    vals: [f64; MAX_DIMS],
}

impl ResourceVec {
    /// The all-zero vector with `dims` dimensions.
    ///
    /// # Panics
    /// If `dims` is zero or exceeds [`MAX_DIMS`].
    #[inline]
    pub fn zero(dims: usize) -> Self {
        assert!(
            (1..=MAX_DIMS).contains(&dims),
            "dims must be in 1..={MAX_DIMS}, got {dims}"
        );
        Self {
            dims: dims as u8,
            vals: [0.0; MAX_DIMS],
        }
    }

    /// Builds a vector from a slice of components.
    ///
    /// # Panics
    /// If the slice is empty, longer than [`MAX_DIMS`], or contains a
    /// negative or non-finite component.
    pub fn from_slice(vals: &[f64]) -> Self {
        let mut v = Self::zero(vals.len());
        for (i, &x) in vals.iter().enumerate() {
            assert!(
                x.is_finite() && x >= 0.0,
                "component {i} must be finite and >= 0, got {x}"
            );
            v.vals[i] = x;
        }
        v
    }

    /// Crate-internal: builds from a slice **without** the finite /
    /// non-negative validation of [`ResourceVec::from_slice`]. For arena
    /// rows whose invariants are maintained by construction (usage is only
    /// ever a clamped sum of validated demands) — the hot path cannot
    /// afford eight asserts per materialized row.
    #[inline]
    pub(crate) fn from_slice_trusted(vals: &[f64]) -> Self {
        debug_assert!((1..=MAX_DIMS).contains(&vals.len()));
        let mut v = Self {
            dims: vals.len() as u8,
            vals: [0.0; MAX_DIMS],
        };
        v.vals[..vals.len()].copy_from_slice(vals);
        v
    }

    /// A vector with every component equal to `value`.
    pub fn splat(dims: usize, value: f64) -> Self {
        assert!(value.is_finite() && value >= 0.0);
        let mut v = Self::zero(dims);
        v.vals[..dims].fill(value);
        v
    }

    /// Number of active dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims as usize
    }

    /// Active components as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.vals[..self.dims as usize]
    }

    /// True if every component is (numerically) zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.as_slice().iter().all(|&x| x.abs() <= crate::EPS)
    }

    /// Component-wise `self + rhs <= cap` within [`crate::EPS`] tolerance.
    ///
    /// This is the hot capacity check: "does adding `rhs` to current usage
    /// `self` still fit under `cap`?"
    #[inline]
    pub fn fits_after_add(&self, rhs: &ResourceVec, cap: &ResourceVec) -> bool {
        debug_assert_eq!(self.dims, rhs.dims);
        debug_assert_eq!(self.dims, cap.dims);
        for i in 0..self.dims as usize {
            if self.vals[i] + rhs.vals[i] > cap.vals[i] + crate::EPS {
                return false;
            }
        }
        true
    }

    /// Component-wise `self <= cap` within tolerance.
    #[inline]
    pub fn fits_within(&self, cap: &ResourceVec) -> bool {
        debug_assert_eq!(self.dims, cap.dims);
        for i in 0..self.dims as usize {
            if self.vals[i] > cap.vals[i] + crate::EPS {
                return false;
            }
        }
        true
    }

    /// The peak normalized utilization `max_i self[i] / cap[i]`.
    ///
    /// This is the machine-load definition used throughout: a machine's load
    /// is its most-saturated dimension. Dimensions with zero capacity
    /// contribute infinity if used and are skipped if unused.
    #[inline]
    pub fn max_ratio(&self, cap: &ResourceVec) -> f64 {
        debug_assert_eq!(self.dims, cap.dims);
        let mut best = 0.0f64;
        for i in 0..self.dims as usize {
            let r = if cap.vals[i] > 0.0 {
                self.vals[i] / cap.vals[i]
            } else if self.vals[i] > crate::EPS {
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

    /// Component-wise saturating subtraction (clamps at zero).
    ///
    /// Usage bookkeeping subtracts exactly what was added, but floating-point
    /// cancellation can leave `-1e-13` residue; clamping keeps usage
    /// non-negative by construction.
    #[inline]
    pub fn saturating_sub_assign(&mut self, rhs: &ResourceVec) {
        debug_assert_eq!(self.dims, rhs.dims);
        for i in 0..self.dims as usize {
            self.vals[i] = (self.vals[i] - rhs.vals[i]).max(0.0);
        }
    }

    /// Returns `self` scaled by a non-negative factor.
    #[inline]
    pub fn scaled(&self, factor: f64) -> ResourceVec {
        debug_assert!(factor.is_finite() && factor >= 0.0);
        let mut out = *self;
        for i in 0..self.dims as usize {
            out.vals[i] *= factor;
        }
        out
    }

    /// Sum of components (used for rough size heuristics).
    #[inline]
    pub fn sum(&self) -> f64 {
        self.as_slice().iter().sum()
    }

    /// Euclidean norm of the active components.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.as_slice().iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Euclidean distance to another vector of the same dimensionality.
    ///
    /// Used by the Shaw-style "related removal" destroy operator to group
    /// shards with similar demand shapes.
    #[inline]
    pub fn distance(&self, other: &ResourceVec) -> f64 {
        debug_assert_eq!(self.dims, other.dims);
        let mut acc = 0.0;
        for i in 0..self.dims as usize {
            let d = self.vals[i] - other.vals[i];
            acc += d * d;
        }
        acc.sqrt()
    }

    /// Component-wise minimum of remaining headroom: `cap - self`, clamped
    /// at zero.
    #[inline]
    pub fn headroom(&self, cap: &ResourceVec) -> ResourceVec {
        debug_assert_eq!(self.dims, cap.dims);
        let mut out = Self::zero(self.dims as usize);
        for i in 0..self.dims as usize {
            out.vals[i] = (cap.vals[i] - self.vals[i]).max(0.0);
        }
        out
    }

    /// True if every component of `self` is within `tol` of `other`'s.
    pub fn approx_eq(&self, other: &ResourceVec, tol: f64) -> bool {
        self.dims == other.dims
            && self
                .as_slice()
                .iter()
                .zip(other.as_slice())
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl Index<usize> for ResourceVec {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        debug_assert!(i < self.dims as usize);
        &self.vals[i]
    }
}

impl IndexMut<usize> for ResourceVec {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        debug_assert!(i < self.dims as usize);
        &mut self.vals[i]
    }
}

impl AddAssign<&ResourceVec> for ResourceVec {
    #[inline]
    fn add_assign(&mut self, rhs: &ResourceVec) {
        debug_assert_eq!(self.dims, rhs.dims);
        for i in 0..self.dims as usize {
            self.vals[i] += rhs.vals[i];
        }
    }
}

impl SubAssign<&ResourceVec> for ResourceVec {
    #[inline]
    fn sub_assign(&mut self, rhs: &ResourceVec) {
        debug_assert_eq!(self.dims, rhs.dims);
        for i in 0..self.dims as usize {
            self.vals[i] -= rhs.vals[i];
        }
    }
}

impl Add for ResourceVec {
    type Output = ResourceVec;
    #[inline]
    fn add(mut self, rhs: ResourceVec) -> ResourceVec {
        self += &rhs;
        self
    }
}

impl Sub for ResourceVec {
    type Output = ResourceVec;
    #[inline]
    fn sub(mut self, rhs: ResourceVec) -> ResourceVec {
        self -= &rhs;
        self
    }
}

impl Mul<f64> for ResourceVec {
    type Output = ResourceVec;
    #[inline]
    fn mul(self, factor: f64) -> ResourceVec {
        self.scaled(factor)
    }
}

impl fmt::Debug for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rv{:?}", self.as_slice())
    }
}

impl fmt::Display for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.3}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_zero() {
        let z = ResourceVec::zero(3);
        assert!(z.is_zero());
        assert_eq!(z.dims(), 3);
        assert_eq!(z.as_slice(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn from_slice_roundtrip() {
        let v = ResourceVec::from_slice(&[1.0, 2.0, 3.5]);
        assert_eq!(v.as_slice(), &[1.0, 2.0, 3.5]);
        assert_eq!(v.dims(), 3);
        assert!(!v.is_zero());
    }

    #[test]
    #[should_panic]
    fn from_slice_rejects_negative() {
        ResourceVec::from_slice(&[1.0, -2.0]);
    }

    #[test]
    #[should_panic]
    fn from_slice_rejects_nan() {
        ResourceVec::from_slice(&[f64::NAN]);
    }

    #[test]
    #[should_panic]
    fn zero_rejects_too_many_dims() {
        ResourceVec::zero(MAX_DIMS + 1);
    }

    #[test]
    #[should_panic]
    fn zero_rejects_zero_dims() {
        ResourceVec::zero(0);
    }

    #[test]
    fn add_sub_inverse() {
        let a = ResourceVec::from_slice(&[1.0, 2.0]);
        let b = ResourceVec::from_slice(&[0.5, 1.5]);
        let c = a + b;
        assert_eq!(c.as_slice(), &[1.5, 3.5]);
        let d = c - b;
        assert!(d.approx_eq(&a, 1e-12));
    }

    #[test]
    fn fits_checks() {
        let cap = ResourceVec::from_slice(&[10.0, 10.0]);
        let use_ = ResourceVec::from_slice(&[6.0, 9.0]);
        let small = ResourceVec::from_slice(&[4.0, 1.0]);
        let big = ResourceVec::from_slice(&[4.0, 1.1]);
        assert!(use_.fits_within(&cap));
        assert!(use_.fits_after_add(&small, &cap));
        assert!(!use_.fits_after_add(&big, &cap));
    }

    #[test]
    fn fits_allows_eps_slack() {
        let cap = ResourceVec::from_slice(&[1.0]);
        let use_ = ResourceVec::from_slice(&[1.0 + crate::EPS / 2.0]);
        assert!(use_.fits_within(&cap));
    }

    #[test]
    fn max_ratio_peak_dimension() {
        let cap = ResourceVec::from_slice(&[10.0, 100.0]);
        let use_ = ResourceVec::from_slice(&[5.0, 80.0]);
        assert!((use_.max_ratio(&cap) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn max_ratio_zero_capacity_unused_is_ok() {
        let cap = ResourceVec::from_slice(&[10.0, 0.0]);
        let use_ = ResourceVec::from_slice(&[5.0, 0.0]);
        assert!((use_.max_ratio(&cap) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn max_ratio_zero_capacity_used_is_infinite() {
        let cap = ResourceVec::from_slice(&[10.0, 0.0]);
        let use_ = ResourceVec::from_slice(&[5.0, 1.0]);
        assert!(use_.max_ratio(&cap).is_infinite());
    }

    #[test]
    fn saturating_sub_clamps() {
        let mut a = ResourceVec::from_slice(&[1.0, 0.0]);
        let b = ResourceVec::from_slice(&[2.0, 0.0]);
        a.saturating_sub_assign(&b);
        assert_eq!(a.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn scaled_and_mul_agree() {
        let a = ResourceVec::from_slice(&[1.0, 2.0]);
        assert_eq!(a.scaled(2.5).as_slice(), (a * 2.5).as_slice());
        assert_eq!((a * 2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn distance_symmetric() {
        let a = ResourceVec::from_slice(&[1.0, 2.0]);
        let b = ResourceVec::from_slice(&[4.0, 6.0]);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert!((b.distance(&a) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn headroom_clamps_at_zero() {
        let cap = ResourceVec::from_slice(&[10.0, 5.0]);
        let use_ = ResourceVec::from_slice(&[4.0, 7.0]);
        let h = use_.headroom(&cap);
        assert_eq!(h.as_slice(), &[6.0, 0.0]);
    }

    #[test]
    fn splat_fills() {
        let v = ResourceVec::splat(4, 2.5);
        assert_eq!(v.as_slice(), &[2.5, 2.5, 2.5, 2.5]);
    }

    #[test]
    fn serde_roundtrip() {
        let v = ResourceVec::from_slice(&[1.0, 2.0, 3.0]);
        let json = serde_json::to_string(&v).unwrap();
        let back: ResourceVec = serde_json::from_str(&json).unwrap();
        assert!(v.approx_eq(&back, 0.0));
    }

    #[test]
    fn norm_and_sum() {
        let v = ResourceVec::from_slice(&[3.0, 4.0]);
        assert!((v.norm() - 5.0).abs() < 1e-12);
        assert!((v.sum() - 7.0).abs() < 1e-12);
    }
}
