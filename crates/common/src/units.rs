//! Unit newtypes: cycles, bytes, and energy.
//!
//! The timing model is integer-cycle based; traffic is byte based;
//! energy is picojoule based (stored as `f64` because it is only ever
//! aggregated, never compared for simulation decisions).

use crate::impl_json_newtype;

/// A duration or timestamp in core clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl_json_newtype!(to_json Cycles, Bytes, PicoJoules);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);
}

impl std::ops::Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl std::iter::Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, |a, b| a + b)
    }
}

impl std::fmt::Display for Cycles {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

/// A quantity of data in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Construct from a kibibyte count.
    pub const fn kib(k: u64) -> Bytes {
        Bytes(k * 1024)
    }

    /// Value as f64 (for ratios).
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl std::ops::Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

impl std::fmt::Display for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.0;
        if b >= 1 << 30 {
            write!(f, "{:.2}GiB", b as f64 / (1u64 << 30) as f64)
        } else if b >= 1 << 20 {
            write!(f, "{:.2}MiB", b as f64 / (1u64 << 20) as f64)
        } else if b >= 1 << 10 {
            write!(f, "{:.2}KiB", b as f64 / 1024.0)
        } else {
            write!(f, "{}B", b)
        }
    }
}

/// Energy in picojoules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct PicoJoules(pub f64);

impl PicoJoules {
    /// Zero energy.
    pub const ZERO: PicoJoules = PicoJoules(0.0);

    /// Value in microjoules.
    #[inline]
    pub(crate) fn as_uj(self) -> f64 {
        self.0 / 1e6
    }

    /// Value in millijoules.
    #[inline]
    pub(crate) fn as_mj(self) -> f64 {
        self.0 / 1e9
    }
}

impl std::ops::Add for PicoJoules {
    type Output = PicoJoules;
    #[inline]
    fn add(self, rhs: PicoJoules) -> PicoJoules {
        PicoJoules(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for PicoJoules {
    #[inline]
    fn add_assign(&mut self, rhs: PicoJoules) {
        self.0 += rhs.0;
    }
}

impl std::ops::Mul<f64> for PicoJoules {
    type Output = PicoJoules;
    #[inline]
    fn mul(self, rhs: f64) -> PicoJoules {
        PicoJoules(self.0 * rhs)
    }
}

impl std::iter::Sum for PicoJoules {
    fn sum<I: Iterator<Item = PicoJoules>>(iter: I) -> PicoJoules {
        iter.fold(PicoJoules::ZERO, |a, b| a + b)
    }
}

impl std::fmt::Display for PicoJoules {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.3}mJ", self.as_mj())
        } else if self.0 >= 1e6 {
            write!(f, "{:.3}uJ", self.as_uj())
        } else {
            write!(f, "{:.1}pJ", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_arithmetic() {
        let a = Cycles(10) + Cycles(5);
        assert_eq!(a, Cycles(15));
        assert_eq!(a - Cycles(5), Cycles(10));
        let mut b = Cycles(1);
        b += Cycles(2);
        assert_eq!(b, Cycles(3));
    }

    #[test]
    fn bytes_constructors_and_display() {
        assert_eq!(Bytes::kib(2), Bytes(2048));
        assert_eq!(Bytes(512).to_string(), "512B");
        assert_eq!(Bytes::kib(1).to_string(), "1.00KiB");
        assert_eq!(Bytes(3 << 20).to_string(), "3.00MiB");
    }

    #[test]
    fn energy_aggregation() {
        let e: PicoJoules = vec![PicoJoules(1.5), PicoJoules(2.5)].into_iter().sum();
        assert!((e.0 - 4.0).abs() < 1e-12);
        assert!((PicoJoules(2e6).as_uj() - 2.0).abs() < 1e-12);
        assert!(((PicoJoules(3.0) * 2.0).0 - 6.0).abs() < 1e-12);
    }

    #[test]
    fn sums_over_iterators() {
        let c: Cycles = vec![Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(c, Cycles(6));
        let b: Bytes = vec![Bytes(10), Bytes(20)].into_iter().sum();
        assert_eq!(b, Bytes(30));
    }
}
