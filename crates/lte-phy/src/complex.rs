//! Minimal complex-number arithmetic for baseband (IQ) samples.
//!
//! A deliberately small, dependency-free `f32` complex type. Only the
//! operations the PHY chain needs are implemented; no generic numeric
//! tower, no trait tricks (see the smoltcp design notes adopted in this
//! repository: simplicity over cleverness).

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex sample with `f32` in-phase (`re`) and quadrature (`im`) parts.
///
/// `repr(C)` pins the layout the SIMD kernels rely on when they read a
/// `&[Cf32]` as interleaved `[re, im]` floats.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C)]
pub struct Cf32 {
    /// Real (in-phase) component.
    pub re: f32,
    /// Imaginary (quadrature) component.
    pub im: f32,
}

const _: () = assert!(size_of::<Cf32>() == 8 && align_of::<Cf32>() == 4);
const _: () = assert!(std::mem::offset_of!(Cf32, im) == 4);

impl Cf32 {
    /// The additive identity.
    pub const ZERO: Cf32 = Cf32 { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Cf32 = Cf32 { re: 1.0, im: 0.0 };

    /// Creates a complex number from rectangular coordinates.
    #[inline]
    pub const fn new(re: f32, im: f32) -> Self {
        Cf32 { re, im }
    }

    /// Creates a unit-magnitude complex number `e^{jθ}` from a phase in radians.
    #[inline]
    pub fn from_phase(theta: f32) -> Self {
        Cf32 {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Cf32 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `|z|²` (avoids the square root of [`Cf32::abs`]).
    #[inline]
    pub fn norm_sq(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Multiplies by the scalar `s`.
    #[inline]
    pub fn scale(self, s: f32) -> Self {
        Cf32 {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for Cf32 {
    type Output = Cf32;
    #[inline]
    fn add(self, rhs: Cf32) -> Cf32 {
        Cf32::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Cf32 {
    #[inline]
    fn add_assign(&mut self, rhs: Cf32) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Cf32 {
    type Output = Cf32;
    #[inline]
    fn sub(self, rhs: Cf32) -> Cf32 {
        Cf32::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Cf32 {
    #[inline]
    fn sub_assign(&mut self, rhs: Cf32) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Cf32 {
    type Output = Cf32;
    #[inline]
    fn mul(self, rhs: Cf32) -> Cf32 {
        Cf32::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Cf32 {
    #[inline]
    fn mul_assign(&mut self, rhs: Cf32) {
        *self = *self * rhs;
    }
}

impl Mul<f32> for Cf32 {
    type Output = Cf32;
    #[inline]
    fn mul(self, rhs: f32) -> Cf32 {
        self.scale(rhs)
    }
}

impl Div for Cf32 {
    type Output = Cf32;
    /// Complex division. Dividing by (near-)zero yields non-finite parts,
    /// mirroring `f32` semantics; callers guard with a noise floor.
    #[inline]
    fn div(self, rhs: Cf32) -> Cf32 {
        let d = rhs.norm_sq();
        let n = self * rhs.conj();
        Cf32::new(n.re / d, n.im / d)
    }
}

impl Div<f32> for Cf32 {
    type Output = Cf32;
    #[inline]
    fn div(self, rhs: f32) -> Cf32 {
        Cf32::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Cf32 {
    type Output = Cf32;
    #[inline]
    fn neg(self) -> Cf32 {
        Cf32::new(-self.re, -self.im)
    }
}

/// Mean power `Σ|zᵢ|²/n` of a sample slice (0.0 for an empty slice).
#[cfg(test)]
pub(crate) fn mean_power(samples: &[Cf32]) -> f32 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|s| s.norm_sq() as f64).sum::<f64>() as f32 / samples.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Cf32::new(1.5, -2.5);
        let b = Cf32::new(-0.25, 4.0);
        let c = a + b - b;
        assert!(close(c.re, a.re) && close(c.im, a.im));
    }

    #[test]
    fn mul_matches_expansion() {
        let a = Cf32::new(3.0, 4.0);
        let b = Cf32::new(-2.0, 1.0);
        let c = a * b;
        assert!(close(c.re, -10.0) && close(c.im, -5.0));
    }

    #[test]
    fn div_is_inverse_of_mul() {
        let a = Cf32::new(0.7, -1.3);
        let b = Cf32::new(2.0, 0.5);
        let c = (a * b) / b;
        assert!(close(c.re, a.re) && close(c.im, a.im));
    }

    #[test]
    fn conj_negates_imaginary() {
        let a = Cf32::new(1.0, 2.0);
        assert_eq!(a.conj(), Cf32::new(1.0, -2.0));
    }

    #[test]
    fn norm_and_abs() {
        let a = Cf32::new(3.0, 4.0);
        assert!(close(a.norm_sq(), 25.0));
        assert!(close(a.abs(), 5.0));
    }

    #[test]
    fn from_phase_is_unit() {
        for k in 0..16 {
            let z = Cf32::from_phase(k as f32 * std::f32::consts::FRAC_PI_8);
            assert!(close(z.abs(), 1.0));
        }
    }

    #[test]
    fn mean_power_of_unit_circle() {
        let v: Vec<Cf32> = (0..64).map(|k| Cf32::from_phase(k as f32 * 0.1)).collect();
        assert!(close(mean_power(&v), 1.0));
    }

    #[test]
    fn mean_power_empty_is_zero() {
        assert_eq!(mean_power(&[]), 0.0);
    }
}
