use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

use serde::{Deserialize, Serialize};

use crate::{IntervalError, Result};

/// A closed interval `[lo, hi]` over `f64` (Definition 1 of the paper).
///
/// The arithmetic follows the Sunaga interval algebra quoted in Definition 3:
///
/// * `[a, b] + [c, d] = [a + c, b + d]`
/// * `[a, b] − [c, d] = [a − d, b − c]`
/// * `[a, b] × [c, d] = [min(ac, ad, bc, bd), max(ac, ad, bc, bd)]`
///
/// A *scalar* interval is one with `lo == hi` (Definition 1). The `span`
/// (Definition 2) is `hi − lo`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// Creates an interval, validating `lo <= hi` and that neither bound is
    /// NaN.
    pub fn new(lo: f64, hi: f64) -> Result<Self> {
        if lo.is_nan() || hi.is_nan() {
            return Err(IntervalError::NotANumber);
        }
        if lo > hi {
            return Err(IntervalError::InvalidBounds { lo, hi });
        }
        Ok(Interval { lo, hi })
    }

    /// Creates an interval from possibly mis-ordered bounds by swapping them
    /// when necessary (used when assembling intervals from independently
    /// decomposed min/max factors, which the paper explicitly allows to be
    /// misordered).
    pub fn from_unordered(a: f64, b: f64) -> Result<Self> {
        if a.is_nan() || b.is_nan() {
            return Err(IntervalError::NotANumber);
        }
        Ok(if a <= b {
            Interval { lo: a, hi: b }
        } else {
            Interval { lo: b, hi: a }
        })
    }

    /// Creates the degenerate (scalar) interval `[x, x]`.
    pub fn scalar(x: f64) -> Self {
        Interval { lo: x, hi: x }
    }

    /// Lower bound.
    #[inline]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    #[inline]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// The span `hi − lo` (Definition 2).
    #[inline]
    pub fn span(&self) -> f64 {
        self.hi - self.lo
    }

    /// The midpoint `(lo + hi) / 2`, i.e. the "average" value ISVD0 uses.
    #[inline]
    pub fn mid(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Whether the interval is degenerate (`lo == hi`).
    #[inline]
    pub fn is_scalar(&self) -> bool {
        self.lo == self.hi
    }

    /// Whether `x` lies inside the interval (inclusive).
    #[inline]
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Whether `other` is entirely contained in `self`.
    #[inline]
    pub fn contains_interval(&self, other: &Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// The smallest interval containing both operands (interval hull).
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// The intersection of the two intervals, if non-empty.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Some(Interval { lo, hi })
        } else {
            None
        }
    }

    /// Scales the interval by a scalar (negative scalars swap the bounds).
    pub fn scale(&self, s: f64) -> Interval {
        if s >= 0.0 {
            Interval {
                lo: self.lo * s,
                hi: self.hi * s,
            }
        } else {
            Interval {
                lo: self.hi * s,
                hi: self.lo * s,
            }
        }
    }

    /// Interval square `x × x` using interval multiplication.
    ///
    /// Note this is the *algebraic* square of Definition 3 (it can contain
    /// negative products only through the endpoint products), used by the
    /// dot-product theorems; for `[-1, 2]` it yields `[-2, 4]`.
    pub fn square(&self) -> Interval {
        *self * *self
    }

    /// Collapses the interval to its midpoint (the repair step of the
    /// average-replacement algorithms).
    pub fn collapse_to_mid(&self) -> Interval {
        Interval::scalar(self.mid())
    }
}

impl Default for Interval {
    fn default() -> Self {
        Interval::scalar(0.0)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_scalar() {
            write!(f, "{}", self.lo)
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

impl Add for Interval {
    type Output = Interval;

    fn add(self, rhs: Interval) -> Interval {
        Interval {
            lo: self.lo + rhs.lo,
            hi: self.hi + rhs.hi,
        }
    }
}

impl Sub for Interval {
    type Output = Interval;

    fn sub(self, rhs: Interval) -> Interval {
        Interval {
            lo: self.lo - rhs.hi,
            hi: self.hi - rhs.lo,
        }
    }
}

/// The `[min, max]` envelope of an interval product's four endpoint
/// products. NaN for both bounds when any product is NaN — `f64::min` /
/// `f64::max` would silently drop it; otherwise exactly the
/// `fold(±∞, min/max)` chain, signed zeros included.
pub(crate) fn envelope(products: [f64; 4]) -> (f64, f64) {
    if products.iter().any(|p| p.is_nan()) {
        return (f64::NAN, f64::NAN);
    }
    let lo = products.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = products.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (lo, hi)
}

impl Mul for Interval {
    type Output = Interval;

    fn mul(self, rhs: Interval) -> Interval {
        let (lo, hi) = envelope([
            self.lo * rhs.lo,
            self.lo * rhs.hi,
            self.hi * rhs.lo,
            self.hi * rhs.hi,
        ]);
        Interval { lo, hi }
    }
}

impl Neg for Interval {
    type Output = Interval;

    fn neg(self) -> Interval {
        Interval {
            lo: -self.hi,
            hi: -self.lo,
        }
    }
}

impl From<f64> for Interval {
    fn from(x: f64) -> Self {
        Interval::scalar(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_validates_order_and_nan() {
        assert!(Interval::new(1.0, 2.0).is_ok());
        assert!(Interval::new(2.0, 1.0).is_err());
        assert!(Interval::new(f64::NAN, 1.0).is_err());
        assert!(Interval::new(0.0, f64::NAN).is_err());
    }

    #[test]
    fn from_unordered_swaps() {
        let i = Interval::from_unordered(3.0, 1.0).unwrap();
        assert_eq!((i.lo(), i.hi()), (1.0, 3.0));
        assert!(Interval::from_unordered(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn scalar_interval_properties() {
        let s = Interval::scalar(4.0);
        assert!(s.is_scalar());
        assert_eq!(s.span(), 0.0);
        assert_eq!(s.mid(), 4.0);
        assert_eq!(format!("{s}"), "4");
    }

    #[test]
    fn span_and_mid() {
        let i = Interval::new(1.0, 3.0).unwrap();
        assert_eq!(i.span(), 2.0);
        assert_eq!(i.mid(), 2.0);
        assert_eq!(format!("{i}"), "[1, 3]");
    }

    #[test]
    fn addition_matches_definition() {
        let a = Interval::new(1.0, 2.0).unwrap();
        let b = Interval::new(3.0, 5.0).unwrap();
        assert_eq!(a + b, Interval::new(4.0, 7.0).unwrap());
    }

    #[test]
    fn subtraction_matches_definition() {
        let a = Interval::new(1.0, 2.0).unwrap();
        let b = Interval::new(3.0, 5.0).unwrap();
        assert_eq!(a - b, Interval::new(-4.0, -1.0).unwrap());
    }

    #[test]
    fn multiplication_matches_definition() {
        let a = Interval::new(1.0, 2.0).unwrap();
        let b = Interval::new(-1.0, 3.0).unwrap();
        assert_eq!(a * b, Interval::new(-2.0, 6.0).unwrap());
        // Negative times negative.
        let c = Interval::new(-3.0, -1.0).unwrap();
        assert_eq!(c * c, Interval::new(1.0, 9.0).unwrap());
    }

    #[test]
    fn scalar_multiplication_span_identity() {
        // span(a × [b, c]) = a × span([b, c]) for scalar a ≥ 0 (Section 2.1).
        let b = Interval::new(2.0, 5.0).unwrap();
        let scaled = Interval::scalar(3.0) * b;
        assert_eq!(scaled.span(), 3.0 * b.span());
    }

    #[test]
    fn scale_handles_negative_factors() {
        let i = Interval::new(1.0, 2.0).unwrap();
        assert_eq!(i.scale(-2.0), Interval::new(-4.0, -2.0).unwrap());
        assert_eq!(i.scale(2.0), Interval::new(2.0, 4.0).unwrap());
    }

    #[test]
    fn negation_swaps_bounds() {
        let i = Interval::new(-1.0, 2.0).unwrap();
        assert_eq!(-i, Interval::new(-2.0, 1.0).unwrap());
    }

    #[test]
    fn containment_and_hull_and_intersection() {
        let a = Interval::new(0.0, 4.0).unwrap();
        let b = Interval::new(1.0, 2.0).unwrap();
        let c = Interval::new(5.0, 6.0).unwrap();
        assert!(a.contains(2.0));
        assert!(!a.contains(4.5));
        assert!(a.contains_interval(&b));
        assert!(!b.contains_interval(&a));
        assert_eq!(a.hull(&c), Interval::new(0.0, 6.0).unwrap());
        assert_eq!(a.intersect(&b), Some(b));
        assert_eq!(a.intersect(&c), None);
    }

    #[test]
    fn collapse_to_mid() {
        let i = Interval::new(1.0, 3.0).unwrap();
        assert_eq!(i.collapse_to_mid(), Interval::scalar(2.0));
    }

    #[test]
    fn scalar_theorem_for_multiplication() {
        // Theorem 1: if the product of two non-zero intervals is scalar,
        // both operands are scalar. We verify the contrapositive on a grid.
        let grid = [-2.0, -1.0, 0.5, 1.0, 2.0];
        for &a in &grid {
            for &b in &grid {
                for &c in &grid {
                    for &d in &grid {
                        let (Ok(x), Ok(y)) = (
                            Interval::from_unordered(a, b),
                            Interval::from_unordered(c, d),
                        ) else {
                            continue;
                        };
                        if !x.is_scalar() && !y.is_scalar() {
                            // Neither operand is zero on this grid.
                            assert!(!(x * y).is_scalar(), "{x} * {y} collapsed to a scalar");
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_addition_contains_pointwise_sums(
            a in -100.0f64..100.0, b in 0.0f64..50.0,
            c in -100.0f64..100.0, d in 0.0f64..50.0,
            ta in 0.0f64..1.0, tb in 0.0f64..1.0,
        ) {
            let x = Interval::new(a, a + b).unwrap();
            let y = Interval::new(c, c + d).unwrap();
            let px = a + ta * b;
            let py = c + tb * d;
            prop_assert!((x + y).contains(px + py));
            prop_assert!((x - y).contains(px - py));
        }

        #[test]
        fn prop_multiplication_contains_pointwise_products(
            a in -10.0f64..10.0, b in 0.0f64..5.0,
            c in -10.0f64..10.0, d in 0.0f64..5.0,
            ta in 0.0f64..1.0, tb in 0.0f64..1.0,
        ) {
            let x = Interval::new(a, a + b).unwrap();
            let y = Interval::new(c, c + d).unwrap();
            let px = a + ta * b;
            let py = c + tb * d;
            let prod = x * y;
            // Allow a tiny tolerance for floating point rounding.
            prop_assert!(prod.lo() <= px * py + 1e-9 && px * py <= prod.hi() + 1e-9);
        }

        #[test]
        fn prop_span_nonnegative_and_operations_preserve_validity(
            a in -100.0f64..100.0, b in 0.0f64..50.0,
            c in -100.0f64..100.0, d in 0.0f64..50.0,
        ) {
            let x = Interval::new(a, a + b).unwrap();
            let y = Interval::new(c, c + d).unwrap();
            for v in [x + y, x - y, x * y, -x, x.scale(-3.0), x.hull(&y)] {
                prop_assert!(v.lo() <= v.hi());
                prop_assert!(v.span() >= 0.0);
            }
        }

        #[test]
        fn prop_mid_lies_inside(a in -100.0f64..100.0, b in 0.0f64..50.0) {
            let x = Interval::new(a, a + b).unwrap();
            prop_assert!(x.contains(x.mid()));
        }
    }
}
