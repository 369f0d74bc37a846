//! Exact non-negative rational arithmetic for makespans.
//!
//! On uniform machines a makespan is `load / speed`; comparing two schedules
//! through `f64` invites exactly the kind of tie-breaking bugs that make
//! "optimal" assertions flaky. `Rat` keeps `u64` numerator/denominator in
//! lowest terms and compares via `u128` cross-multiplication, so every
//! optimality and approximation-ratio check in the workspace is exact.
//! Floats appear only when *reporting* ratios in experiment tables.

use std::cmp::Ordering;
use std::fmt;

/// A non-negative rational in lowest terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Rat {
    num: u64,
    den: u64,
}

/// Greatest common divisor (binary-free Euclid; inputs fit `u64`).
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl Rat {
    /// Zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };

    /// Constructs `num/den`, normalizing to lowest terms. Panics if `den == 0`.
    pub fn new(num: u64, den: u64) -> Rat {
        assert!(den != 0, "rational with zero denominator");
        if num == 0 {
            return Rat::ZERO;
        }
        let g = gcd(num, den);
        Rat {
            num: num / g,
            den: den / g,
        }
    }

    /// The integer `n`.
    pub const fn integer(n: u64) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// Numerator (lowest terms).
    pub fn num(&self) -> u64 {
        self.num
    }

    /// Denominator (lowest terms).
    pub fn den(&self) -> u64 {
        self.den
    }

    /// `⌊self⌋`.
    pub fn floor(&self) -> u64 {
        self.num / self.den
    }

    /// `⌈self⌉`.
    pub fn ceil(&self) -> u64 {
        self.num.div_ceil(self.den)
    }

    /// Exact sum. Panics on (astronomically unlikely at our scales) overflow.
    pub fn add(&self, other: &Rat) -> Rat {
        let g = gcd(self.den, other.den);
        let den = self.den / g * other.den;
        let num = self
            .num
            .checked_mul(other.den / g)
            .and_then(|a| a.checked_add(other.num.checked_mul(self.den / g).expect("Rat overflow")))
            .expect("Rat overflow");
        Rat::new(num, den)
    }

    /// Exact product with an integer.
    pub fn mul_int(&self, k: u64) -> Rat {
        let g = gcd(k, self.den);
        Rat::new(
            self.num.checked_mul(k / g).expect("Rat overflow"),
            self.den / g,
        )
    }

    /// Exact product.
    pub fn mul(&self, other: &Rat) -> Rat {
        // Cross-reduce first to keep intermediates small.
        let g1 = gcd(self.num, other.den);
        let g2 = gcd(other.num, self.den);
        Rat::new(
            (self.num / g1)
                .checked_mul(other.num / g2)
                .expect("Rat overflow"),
            (self.den / g2)
                .checked_mul(other.den / g1)
                .expect("Rat overflow"),
        )
    }

    /// Lossy conversion for reporting.
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Exact ratio `self / other` as `f64` for reporting (`other > 0`).
    pub fn ratio_to(&self, other: &Rat) -> f64 {
        assert!(other.num != 0, "ratio against zero");
        (self.num as u128 * other.den as u128) as f64
            / (self.den as u128 * other.num as u128) as f64
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Self) -> Ordering {
        let lhs = self.num as u128 * other.den as u128;
        let rhs = other.num as u128 * self.den as u128;
        lhs.cmp(&rhs)
    }
}

impl fmt::Display for Rat {
    /// Integers print bare (`7`); fractions as `num/den` (`7/2`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Rat::new(6, 4), Rat::new(3, 2));
        assert_eq!(Rat::new(0, 7), Rat::ZERO);
        assert_eq!(Rat::new(5, 5), Rat::integer(1));
    }

    #[test]
    fn ordering_is_exact() {
        // 1/3 < 0.3333333333333333 style traps: compare 10^18-scale values.
        let a = Rat::new(333_333_333_333_333_333, 1_000_000_000_000_000_000);
        let b = Rat::new(1, 3);
        assert!(a < b);
        assert!(Rat::new(2, 3) > Rat::new(3, 5));
        assert_eq!(Rat::new(4, 6), Rat::new(2, 3));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::integer(5).floor(), 5);
        assert_eq!(Rat::integer(5).ceil(), 5);
        assert_eq!(Rat::ZERO.ceil(), 0);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Rat::new(1, 2).add(&Rat::new(1, 3)), Rat::new(5, 6));
        assert_eq!(Rat::new(3, 4).mul_int(8), Rat::integer(6));
        assert_eq!(Rat::new(3, 4).mul(&Rat::new(2, 9)), Rat::new(1, 6));
    }

    #[test]
    fn ratio_reporting() {
        let two = Rat::integer(2);
        let three = Rat::integer(3);
        assert!((three.ratio_to(&two) - 1.5).abs() < 1e-12);
        assert!((Rat::new(1, 2).ratio_to(&Rat::new(1, 4)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn display() {
        assert_eq!(Rat::integer(7).to_string(), "7");
        assert_eq!(Rat::new(7, 2).to_string(), "7/2");
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        Rat::new(1, 0);
    }

    #[test]
    fn big_values_do_not_overflow_comparison() {
        let a = Rat::new(u64::MAX / 2, u64::MAX / 3);
        let b = Rat::new(u64::MAX / 3, u64::MAX / 2);
        assert!(a > b);
    }
}
