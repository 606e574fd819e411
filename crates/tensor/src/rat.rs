//! Exact rational arithmetic.
//!
//! The paper verifies C-vs-TACO equivalence over *rational* datatypes
//! (extending CBMC) because floating-point equivalence is both hard to
//! verify and usually not preserved by compiler optimisations (§7). We make
//! the same choice for the whole data plane: every tensor element, every
//! interpreted C value and every verifier sample is a [`Rat`].

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Error raised by fallible rational operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RatError {
    /// Division by an exactly-zero rational.
    DivisionByZero,
    /// Numerator or denominator overflowed `i128` during normalisation.
    Overflow,
}

impl fmt::Display for RatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RatError::DivisionByZero => write!(f, "division by zero"),
            RatError::Overflow => write!(f, "rational arithmetic overflowed i128"),
        }
    }
}

impl std::error::Error for RatError {}

/// An exact rational number with a normalised `i128` numerator/denominator.
///
/// Invariants: the denominator is always strictly positive and
/// `gcd(|num|, den) == 1`. Zero is represented as `0/1`.
///
/// ```
/// use gtl_tensor::Rat;
///
/// let a = Rat::new(1, 3);
/// let b = Rat::new(1, 6);
/// assert_eq!(a + b, Rat::new(1, 2));
/// assert_eq!(Rat::from(2) / Rat::from(4), Rat::new(1, 2));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Rat {
    num: i128,
    den: i128,
}

const fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    if a < 0 {
        -a
    } else {
        a
    }
}

impl Rat {
    /// The rational zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates a rational `num / den`, normalising sign and common factors.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`. Use [`Rat::checked_div`] for fallible division.
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "Rat::new with zero denominator");
        let g = gcd(num, den);
        let (mut n, mut d) = if g == 0 { (0, 1) } else { (num / g, den / g) };
        if d < 0 {
            n = -n;
            d = -d;
        }
        Rat { num: n, den: d }
    }

    /// The numerator of the normalised representation (sign-carrying).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// The denominator of the normalised representation (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Returns `true` if this rational is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Returns `true` if this rational is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// The absolute value.
    pub fn abs(self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// The multiplicative inverse, or an error if `self` is zero.
    pub fn recip(self) -> Result<Rat, RatError> {
        if self.num == 0 {
            return Err(RatError::DivisionByZero);
        }
        Ok(Rat::new(self.den, self.num))
    }

    /// Checked addition; errors on `i128` overflow.
    pub fn checked_add(self, rhs: Rat) -> Result<Rat, RatError> {
        // Integer + integer stays an integer: no gcd, no renormalisation.
        if self.den == 1 && rhs.den == 1 {
            let num = self.num.checked_add(rhs.num).ok_or(RatError::Overflow)?;
            return Ok(Rat { num, den: 1 });
        }
        // a/b + c/d = (a*d + c*b) / (b*d), reduced via gcd(b, d) first to
        // keep intermediates small.
        let g = gcd(self.den, rhs.den);
        let lcm_factor = rhs.den / g;
        let den = self.den.checked_mul(lcm_factor).ok_or(RatError::Overflow)?;
        let left = self
            .num
            .checked_mul(lcm_factor)
            .ok_or(RatError::Overflow)?;
        let right = rhs
            .num
            .checked_mul(self.den / g)
            .ok_or(RatError::Overflow)?;
        let num = left.checked_add(right).ok_or(RatError::Overflow)?;
        Ok(Rat::new(num, den))
    }

    /// Checked subtraction; errors on `i128` overflow.
    pub fn checked_sub(self, rhs: Rat) -> Result<Rat, RatError> {
        self.checked_add(Rat {
            num: rhs.num.checked_neg().ok_or(RatError::Overflow)?,
            den: rhs.den,
        })
    }

    /// Checked multiplication; errors on `i128` overflow.
    pub fn checked_mul(self, rhs: Rat) -> Result<Rat, RatError> {
        // Integer * integer needs no cross-reduction (both gcds are 1).
        if self.den == 1 && rhs.den == 1 {
            let num = self.num.checked_mul(rhs.num).ok_or(RatError::Overflow)?;
            return Ok(Rat { num, den: 1 });
        }
        // Cross-reduce before multiplying to avoid needless overflow.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        let (an, ad) = (self.num / g1, self.den / g2);
        let (bn, bd) = (rhs.num / g2, rhs.den / g1);
        let num = an.checked_mul(bn).ok_or(RatError::Overflow)?;
        let den = ad.checked_mul(bd).ok_or(RatError::Overflow)?;
        Ok(Rat::new(num, den))
    }

    /// Checked division; errors on division by zero or overflow.
    pub fn checked_div(self, rhs: Rat) -> Result<Rat, RatError> {
        self.checked_mul(rhs.recip()?)
    }

    /// Raises to a non-negative integer power.
    pub fn checked_pow(self, mut exp: u32) -> Result<Rat, RatError> {
        let mut base = self;
        let mut acc = Rat::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.checked_mul(base)?;
            }
            exp >>= 1;
            if exp > 0 {
                base = base.checked_mul(base)?;
            }
        }
        Ok(acc)
    }

    /// An approximate `f64` rendering, for display and plotting only.
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// The exact `i64` value, or `None` if this rational is not an
    /// integer or does not fit in `i64`. Used by the batched evaluator
    /// to decide whether a tensor qualifies for the machine-integer fast
    /// path.
    pub fn to_i64(self) -> Option<i64> {
        if self.den != 1 {
            return None;
        }
        i64::try_from(self.num).ok()
    }
}

impl Default for Rat {
    fn default() -> Self {
        Rat::ZERO
    }
}

impl From<i64> for Rat {
    fn from(v: i64) -> Self {
        Rat {
            num: v as i128,
            den: 1,
        }
    }
}

impl From<i32> for Rat {
    fn from(v: i32) -> Self {
        Rat {
            num: v as i128,
            den: 1,
        }
    }
}

impl PartialEq for Rat {
    fn eq(&self, other: &Self) -> bool {
        // Normalised representation makes field equality correct.
        self.num == other.num && self.den == other.den
    }
}

impl Eq for Rat {}

impl Hash for Rat {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.num.hash(state);
        self.den.hash(state);
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b  (b, d > 0). Saturating keeps extreme
        // comparisons ordered correctly even if exact products overflow.
        let left = self.num.saturating_mul(other.den);
        let right = other.num.saturating_mul(self.den);
        left.cmp(&right)
    }
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident, $checked:ident, $assign_trait:ident, $assign_method:ident) => {
        impl $trait for Rat {
            type Output = Rat;
            fn $method(self, rhs: Rat) -> Rat {
                self.$checked(rhs)
                    .unwrap_or_else(|e| panic!("Rat::{}: {e}", stringify!($method)))
            }
        }
        impl $assign_trait for Rat {
            fn $assign_method(&mut self, rhs: Rat) {
                *self = $trait::$method(*self, rhs);
            }
        }
    };
}

forward_binop!(Add, add, checked_add, AddAssign, add_assign);
forward_binop!(Sub, sub, checked_sub, SubAssign, sub_assign);
forward_binop!(Mul, mul, checked_mul, MulAssign, mul_assign);
forward_binop!(Div, div, checked_div, DivAssign, div_assign);

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl std::iter::Sum for Rat {
    fn sum<I: Iterator<Item = Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ZERO, |a, b| a + b)
    }
}

impl std::iter::Product for Rat {
    fn product<I: Iterator<Item = Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ONE, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, -7), Rat::ZERO);
        assert_eq!(Rat::new(0, 5).denom(), 1);
    }

    #[test]
    fn arithmetic() {
        let half = Rat::new(1, 2);
        let third = Rat::new(1, 3);
        assert_eq!(half + third, Rat::new(5, 6));
        assert_eq!(half - third, Rat::new(1, 6));
        assert_eq!(half * third, Rat::new(1, 6));
        assert_eq!(half / third, Rat::new(3, 2));
        assert_eq!(-half, Rat::new(-1, 2));
    }

    #[test]
    fn division_by_zero_is_error() {
        assert_eq!(
            Rat::ONE.checked_div(Rat::ZERO),
            Err(RatError::DivisionByZero)
        );
        assert_eq!(Rat::ZERO.recip(), Err(RatError::DivisionByZero));
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::ZERO);
        assert!(Rat::new(7, 3) > Rat::from(2));
    }

    #[test]
    fn pow() {
        assert_eq!(Rat::new(2, 3).checked_pow(3).unwrap(), Rat::new(8, 27));
        assert_eq!(Rat::new(5, 7).checked_pow(0).unwrap(), Rat::ONE);
    }

    #[test]
    fn display() {
        assert_eq!(Rat::new(3, 1).to_string(), "3");
        assert_eq!(Rat::new(-3, 6).to_string(), "-1/2");
    }

    #[test]
    fn sum_product() {
        let xs = [Rat::new(1, 2), Rat::new(1, 3), Rat::new(1, 6)];
        assert_eq!(xs.iter().copied().sum::<Rat>(), Rat::ONE);
        let ys = [Rat::from(2), Rat::new(1, 2)];
        assert_eq!(ys.iter().copied().product::<Rat>(), Rat::ONE);
    }

    #[test]
    fn overflow_detected() {
        let big = Rat::new(i128::MAX / 2, 1);
        assert_eq!(big.checked_mul(Rat::from(4)), Err(RatError::Overflow));
    }

    #[test]
    fn integer_fast_paths_match_general_arithmetic() {
        // den == 1 pairs take the gcd-free branch; mixed pairs take the
        // general branch. Both must agree with the mathematical result.
        let cases = [(3i64, 4i64), (-7, 7), (0, 5), (i64::MAX, 1), (-2, -9)];
        for (a, b) in cases {
            let (ra, rb) = (Rat::from(a), Rat::from(b));
            assert_eq!(
                ra.checked_add(rb).unwrap(),
                Rat::new(a as i128 + b as i128, 1)
            );
            assert_eq!(
                ra.checked_mul(rb).unwrap(),
                Rat::new(a as i128 * b as i128, 1)
            );
        }
        // Fast path preserves the normalised-den invariant and still
        // reports overflow.
        let big = Rat::new(i128::MAX, 1);
        assert_eq!(big.checked_add(Rat::ONE), Err(RatError::Overflow));
        assert_eq!(big.checked_mul(Rat::from(2)), Err(RatError::Overflow));
        // Mixed den still normalises: 1/2 + 1/2 = 1.
        assert_eq!(
            Rat::new(1, 2).checked_add(Rat::new(1, 2)).unwrap(),
            Rat::ONE
        );
    }

    #[test]
    fn to_i64_exact_integers_only() {
        assert_eq!(Rat::from(42).to_i64(), Some(42));
        assert_eq!(Rat::from(-42).to_i64(), Some(-42));
        assert_eq!(Rat::new(1, 2).to_i64(), None);
        assert_eq!(Rat::new(i64::MAX as i128, 1).to_i64(), Some(i64::MAX));
        assert_eq!(Rat::new(i64::MAX as i128 + 1, 1).to_i64(), None);
        assert_eq!(Rat::new(i64::MIN as i128, 1).to_i64(), Some(i64::MIN));
        assert_eq!(Rat::new(i64::MIN as i128 - 1, 1).to_i64(), None);
    }
}
