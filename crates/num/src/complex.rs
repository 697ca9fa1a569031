//! A minimal complex-number type used to represent IQ samples.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components, used throughout the workspace to
/// represent a single IQ (in-phase/quadrature) sample.
///
/// The readout chain digitises the down-converted microwave signal into two
/// real streams; packing them as `re` (I) and `im` (Q) lets the DSP layers
/// treat demodulation as complex multiplication.
///
/// # Examples
///
/// ```
/// use mlr_num::Complex;
///
/// let a = Complex::new(1.0, 2.0);
/// let b = Complex::new(3.0, -1.0);
/// assert_eq!(a + b, Complex::new(4.0, 1.0));
/// assert_eq!(a * Complex::I, Complex::new(-2.0, 1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex {
    /// Real (in-phase) component.
    pub re: f64,
    /// Imaginary (quadrature) component.
    pub im: f64,
}

impl Complex {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular components.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Views samples as their interleaved components,
    /// `[re₀, im₀, re₁, im₁, …]`, without copying.
    ///
    /// # Examples
    ///
    /// ```
    /// use mlr_num::Complex;
    /// let iq = [Complex::new(1.0, 2.0), Complex::new(3.0, 4.0)];
    /// assert_eq!(Complex::as_interleaved(&iq), &[1.0, 2.0, 3.0, 4.0]);
    /// ```
    #[inline]
    pub fn as_interleaved(samples: &[Complex]) -> &[f64] {
        // SAFETY: `Complex` is `#[repr(C)]` with exactly two `f64` fields,
        // so it has `f64` alignment, no padding, and `re` before `im`; `n`
        // samples are therefore `2n` initialised, contiguous `f64`s, borrowed
        // for the same lifetime (`2n` cannot overflow: the slice already
        // spans that many bytes).
        unsafe { std::slice::from_raw_parts(samples.as_ptr().cast::<f64>(), 2 * samples.len()) }
    }

    /// Creates a complex number from polar coordinates.
    ///
    /// # Examples
    ///
    /// ```
    /// use mlr_num::Complex;
    /// let z = Complex::from_polar(2.0, std::f64::consts::PI);
    /// assert!((z.re + 2.0).abs() < 1e-12 && z.im.abs() < 1e-12);
    /// ```
    #[inline]
    pub fn from_polar(magnitude: f64, phase: f64) -> Self {
        Self::new(magnitude * phase.cos(), magnitude * phase.sin())
    }

    /// Returns `e^{i phase}`, a unit phasor. Equivalent to
    /// [`Complex::from_polar`] with magnitude 1.
    #[inline]
    pub fn cis(phase: f64) -> Self {
        Self::from_polar(1.0, phase)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Magnitude (absolute value).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude, cheaper than [`Complex::abs`] when only ordering
    /// matters.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase angle) in radians, in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Scales both components by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Self::new(self.re * k, self.im * k)
    }

    /// Returns `true` if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.norm_sqr();
        Complex::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |acc, z| acc + z)
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::new(re, 0.0)
    }
}

impl From<(f64, f64)> for Complex {
    fn from((re, im): (f64, f64)) -> Self {
        Complex::new(re, im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z + Complex::ZERO, z);
        assert_eq!(z * Complex::ONE, z);
        assert_eq!(z - z, Complex::ZERO);
        assert_eq!(-z + z, Complex::ZERO);
    }

    #[test]
    fn multiplication_matches_polar_form() {
        let a = Complex::from_polar(2.0, 0.3);
        let b = Complex::from_polar(1.5, -1.1);
        let p = a * b;
        assert!(close(p.abs(), 3.0));
        assert!(close(p.arg(), 0.3 - 1.1));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-0.5, 0.7);
        let q = (a * b) / b;
        assert!(close(q.re, a.re) && close(q.im, a.im));
    }

    #[test]
    fn conjugate_gives_norm() {
        let z = Complex::new(3.0, -4.0);
        let n = z * z.conj();
        assert!(close(n.re, 25.0));
        assert!(close(n.im, 0.0));
        assert!(close(z.abs(), 5.0));
        assert!(close(z.norm_sqr(), 25.0));
    }

    #[test]
    fn cis_is_unit_phasor() {
        for k in 0..8 {
            let phase = k as f64 * 0.7;
            assert!(close(Complex::cis(phase).abs(), 1.0));
        }
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn sum_accumulates() {
        let total: Complex = (0..4).map(|k| Complex::new(k as f64, 1.0)).sum();
        assert_eq!(total, Complex::new(6.0, 4.0));
    }

    #[test]
    fn conversions() {
        assert_eq!(Complex::from(2.5), Complex::new(2.5, 0.0));
        assert_eq!(Complex::from((1.0, -1.0)), Complex::new(1.0, -1.0));
    }
}
