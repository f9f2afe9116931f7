//! Monetary cost as a first-class value.
//!
//! The paper's central argument (§1) is that dollar cost must be an
//! optimization objective with the same standing as latency. [`Dollars`]
//! makes that explicit in type signatures throughout the workspace: the cost
//! estimator returns `Dollars`, the optimizer constrains on `Dollars`, the
//! billing meter accumulates `Dollars`, and what-if tuning reports net
//! `Dollars` per hour.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::time::SimDuration;

/// A (possibly negative) amount of money in US dollars.
///
/// Negative values appear legitimately in what-if analysis: the *net* rate
/// `x - y` of a tuning action (§4) is negative when the action loses money.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Dollars(pub f64);

impl Dollars {
    /// Zero dollars.
    pub const ZERO: Dollars = Dollars(0.0);

    /// Constructs from a raw `f64` amount.
    pub const fn new(amount: f64) -> Self {
        Dollars(amount)
    }

    /// The raw amount.
    pub const fn amount(self) -> f64 {
        self.0
    }

    /// `true` if the amount is a finite number (billing invariant).
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Rounds to whole cents. Used at report boundaries only; internal
    /// arithmetic keeps full precision so long simulations do not drift.
    pub fn round_cents(self) -> Dollars {
        Dollars((self.0 * 100.0).round() / 100.0)
    }

    /// The larger of two amounts.
    pub fn max(self, other: Dollars) -> Dollars {
        Dollars(self.0.max(other.0))
    }
}

impl fmt::Display for Dollars {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 0.0 {
            write!(f, "-${:.4}", -self.0)
        } else {
            write!(f, "${:.4}", self.0)
        }
    }
}

impl Add for Dollars {
    type Output = Dollars;
    fn add(self, rhs: Dollars) -> Dollars {
        Dollars(self.0 + rhs.0)
    }
}

impl AddAssign for Dollars {
    fn add_assign(&mut self, rhs: Dollars) {
        self.0 += rhs.0;
    }
}

impl Sub for Dollars {
    type Output = Dollars;
    fn sub(self, rhs: Dollars) -> Dollars {
        Dollars(self.0 - rhs.0)
    }
}

impl SubAssign for Dollars {
    fn sub_assign(&mut self, rhs: Dollars) {
        self.0 -= rhs.0;
    }
}

impl Neg for Dollars {
    type Output = Dollars;
    fn neg(self) -> Dollars {
        Dollars(-self.0)
    }
}

impl Mul<f64> for Dollars {
    type Output = Dollars;
    fn mul(self, rhs: f64) -> Dollars {
        Dollars(self.0 * rhs)
    }
}

impl Div<f64> for Dollars {
    type Output = Dollars;
    fn div(self, rhs: f64) -> Dollars {
        Dollars(self.0 / rhs)
    }
}

impl Div<Dollars> for Dollars {
    /// Ratio of two amounts (dimensionless), e.g. cost inflation factors.
    type Output = f64;
    fn div(self, rhs: Dollars) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Dollars {
    fn sum<I: Iterator<Item = Dollars>>(iter: I) -> Dollars {
        iter.fold(Dollars::ZERO, |a, b| a + b)
    }
}

/// A price expressed per unit of machine time.
///
/// The paper's billing rule (§3.1): "the monetary cost of a workload is
/// proportional to the total machine time instead of the CPU time" — so the
/// fundamental rate in the system is dollars per node-second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct DollarsPerSecond(pub f64);

impl DollarsPerSecond {
    /// Constructs from a $/s value.
    pub const fn new(rate: f64) -> Self {
        DollarsPerSecond(rate)
    }

    /// Convenience constructor from the common $/hour quote.
    pub fn per_hour(rate: f64) -> Self {
        DollarsPerSecond(rate / 3600.0)
    }

    /// The rate expressed per hour (for display; cloud prices are quoted hourly).
    pub fn hourly(self) -> f64 {
        self.0 * 3600.0
    }

    /// Bills a duration at this rate.
    pub fn bill(self, d: SimDuration) -> Dollars {
        Dollars(self.0 * d.as_secs_f64())
    }
}

impl fmt::Display for DollarsPerSecond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${:.4}/h", self.hourly())
    }
}

impl Mul<f64> for DollarsPerSecond {
    type Output = DollarsPerSecond;
    fn mul(self, rhs: f64) -> DollarsPerSecond {
        DollarsPerSecond(self.0 * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Dollars::new(1.5);
        let b = Dollars::new(0.25);
        assert_eq!((a + b).amount(), 1.75);
        assert_eq!((a - b).amount(), 1.25);
        assert_eq!((a * 2.0).amount(), 3.0);
        assert_eq!((a / 2.0).amount(), 0.75);
        assert_eq!((-b).amount(), -0.25);
        assert!((a / b - 6.0).abs() < 1e-12);
    }

    #[test]
    fn sum_of_iterator() {
        let total: Dollars = (1..=4).map(|i| Dollars::new(i as f64)).sum();
        assert_eq!(total.amount(), 10.0);
    }

    #[test]
    fn rounding_to_cents() {
        assert_eq!(Dollars::new(1.23456).round_cents().amount(), 1.23);
        assert_eq!(Dollars::new(1.237).round_cents().amount(), 1.24);
        // f64::round rounds half away from zero.
        assert_eq!(Dollars::new(-0.017).round_cents().amount(), -0.02);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Dollars::new(2.5).to_string(), "$2.5000");
        assert_eq!(Dollars::new(-2.5).to_string(), "-$2.5000");
    }

    #[test]
    fn rate_bills_machine_time() {
        // $3.60/hour == $0.001/second.
        let rate = DollarsPerSecond::per_hour(3.6);
        let bill = rate.bill(SimDuration::from_secs_f64(100.0));
        assert!((bill - Dollars::new(0.1)).amount().abs() < 1e-9);
        assert!((rate.hourly() - 3.6).abs() < 1e-12);
    }

    #[test]
    fn min_max() {
        let a = Dollars::new(1.0);
        let b = Dollars::new(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }
}
