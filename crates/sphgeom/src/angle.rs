//! Strongly-typed angles.
//!
//! Qserv mixes three angular units: catalog columns are degrees (RA/decl),
//! overlap widths are quoted in arcminutes (the paper uses 1′ = 0.01667°),
//! and trigonometry wants radians. Wrapping the raw `f64` in [`Angle`]
//! prevents the classic unit-confusion bugs at these seams.

use std::cmp::Ordering;
use std::f64::consts::PI;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An angle, stored internally in radians.
///
/// `Angle` is a plain `Copy` newtype over `f64`; all arithmetic is exact
/// `f64` arithmetic with no hidden normalization. Use
/// [`Angle::normalized_positive`] / [`Angle::normalized_signed`] to wrap into
/// `[0, 2π)` or `[-π, π)` explicitly.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Angle(f64);

impl Angle {
    /// The zero angle.
    pub const ZERO: Angle = Angle(0.0);
    /// A half turn (π radians, 180°).
    pub const HALF_TURN: Angle = Angle(PI);
    /// A full turn (2π radians, 360°).
    pub const FULL_TURN: Angle = Angle(2.0 * PI);

    /// Creates an angle from radians.
    #[inline]
    pub const fn from_radians(rad: f64) -> Angle {
        Angle(rad)
    }

    /// Creates an angle from degrees.
    #[inline]
    pub fn from_degrees(deg: f64) -> Angle {
        Angle(deg.to_radians())
    }

    /// Creates an angle from arcminutes (1/60 degree). The paper's default
    /// partition overlap is 1 arcminute (§6.1.2).
    #[inline]
    pub fn from_arcmin(amin: f64) -> Angle {
        Angle::from_degrees(amin / 60.0)
    }

    /// Creates an angle from arcseconds (1/3600 degree).
    #[inline]
    pub fn from_arcsec(asec: f64) -> Angle {
        Angle::from_degrees(asec / 3600.0)
    }

    /// The angle in radians.
    #[inline]
    pub const fn radians(self) -> f64 {
        self.0
    }

    /// The angle in degrees.
    #[inline]
    pub fn degrees(self) -> f64 {
        self.0.to_degrees()
    }

    /// Wraps into `[0, 2π)`. Useful for right ascension.
    pub fn normalized_positive(self) -> Angle {
        let tau = 2.0 * PI;
        let mut r = self.0 % tau;
        if r < 0.0 {
            r += tau;
        }
        // `r` can still equal `tau` after the addition when `self.0` is a
        // tiny negative number; fold that back to zero.
        if r >= tau {
            r = 0.0;
        }
        Angle(r)
    }

    /// Wraps into `[-π, π)`.
    pub fn normalized_signed(self) -> Angle {
        let mut a = self.normalized_positive().0;
        if a >= PI {
            a -= 2.0 * PI;
        }
        Angle(a)
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Angle {
        Angle(self.0.abs())
    }

    /// Sine of the angle.
    #[inline]
    pub fn sin(self) -> f64 {
        self.0.sin()
    }

    /// Cosine of the angle.
    #[inline]
    pub fn cos(self) -> f64 {
        self.0.cos()
    }

    /// Tangent of the angle.
    #[inline]
    pub fn tan(self) -> f64 {
        self.0.tan()
    }

    /// Clamps to the inclusive range `[lo, hi]`.
    pub fn clamp(self, lo: Angle, hi: Angle) -> Angle {
        Angle(self.0.clamp(lo.0, hi.0))
    }

    /// True when the value is finite (not NaN/±∞).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// The smaller of the two angles.
    pub fn min(self, other: Angle) -> Angle {
        Angle(self.0.min(other.0))
    }

    /// The larger of the two angles.
    pub fn max(self, other: Angle) -> Angle {
        Angle(self.0.max(other.0))
    }
}

impl PartialOrd for Angle {
    fn partial_cmp(&self, other: &Angle) -> Option<Ordering> {
        self.0.partial_cmp(&other.0)
    }
}

impl Add for Angle {
    type Output = Angle;
    fn add(self, rhs: Angle) -> Angle {
        Angle(self.0 + rhs.0)
    }
}

impl Sub for Angle {
    type Output = Angle;
    fn sub(self, rhs: Angle) -> Angle {
        Angle(self.0 - rhs.0)
    }
}

impl Mul<f64> for Angle {
    type Output = Angle;
    fn mul(self, rhs: f64) -> Angle {
        Angle(self.0 * rhs)
    }
}

impl Div<f64> for Angle {
    type Output = Angle;
    fn div(self, rhs: f64) -> Angle {
        Angle(self.0 / rhs)
    }
}

impl Div for Angle {
    type Output = f64;
    fn div(self, rhs: Angle) -> f64 {
        self.0 / rhs.0
    }
}

impl Neg for Angle {
    type Output = Angle;
    fn neg(self) -> Angle {
        Angle(-self.0)
    }
}

impl fmt::Display for Angle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}°", self.degrees())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn degree_radian_round_trip() {
        let a = Angle::from_degrees(123.456);
        assert!(close(a.degrees(), 123.456));
        let b = Angle::from_radians(1.0);
        assert!(close(b.radians(), 1.0));
    }

    #[test]
    fn arcmin_matches_paper_overlap() {
        // The paper sets overlap to 0.01667 degrees = 1 arcminute.
        let overlap = Angle::from_arcmin(1.0);
        assert!((overlap.degrees() - 0.0166666).abs() < 1e-4);
    }

    #[test]
    fn arcsec_is_sixtieth_of_arcmin() {
        assert!(close(
            Angle::from_arcsec(60.0).radians(),
            Angle::from_arcmin(1.0).radians()
        ));
    }

    #[test]
    fn normalize_positive_wraps_negative() {
        let a = Angle::from_degrees(-10.0).normalized_positive();
        assert!(close(a.degrees(), 350.0));
    }

    #[test]
    fn normalize_positive_wraps_over_full_turn() {
        let a = Angle::from_degrees(725.0).normalized_positive();
        assert!(close(a.degrees(), 5.0));
    }

    #[test]
    fn normalize_positive_identity_in_range() {
        let a = Angle::from_degrees(200.0).normalized_positive();
        assert!(close(a.degrees(), 200.0));
    }

    #[test]
    fn normalize_positive_tiny_negative_folds_to_zero() {
        let a = Angle::from_radians(-1e-20).normalized_positive();
        assert!(a.radians() >= 0.0 && a.radians() < 2.0 * PI);
    }

    #[test]
    fn normalize_signed_range() {
        assert!(close(
            Angle::from_degrees(270.0).normalized_signed().degrees(),
            -90.0
        ));
        assert!(close(
            Angle::from_degrees(-180.0).normalized_signed().degrees(),
            -180.0
        ));
        assert!(close(
            Angle::from_degrees(180.0).normalized_signed().degrees(),
            -180.0
        ));
    }

    #[test]
    fn arithmetic() {
        let a = Angle::from_degrees(10.0);
        let b = Angle::from_degrees(20.0);
        assert!(close((a + b).degrees(), 30.0));
        assert!(close((b - a).degrees(), 10.0));
        assert!(close((a * 3.0).degrees(), 30.0));
        assert!(close((b / 2.0).degrees(), 10.0));
        assert!(close(b / a, 2.0));
        assert!(close((-a).degrees(), -10.0));
    }

    #[test]
    fn ordering_and_min_max() {
        let a = Angle::from_degrees(1.0);
        let b = Angle::from_degrees(2.0);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display_shows_degrees() {
        assert_eq!(format!("{}", Angle::from_degrees(90.0)), "90°");
    }
}
