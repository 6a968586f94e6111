//! Time-base types: slots and physical durations.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A discrete slot index on the buffer's synchronous time base.
///
/// One slot is the transmission time of one cell at the line rate. All state
/// machines in the workspace advance one slot at a time.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Slot(pub u64);

impl Slot {
    /// Slot zero (simulation start).
    pub const ZERO: Slot = Slot(0);

    /// Creates a slot from a raw index.
    pub fn new(index: u64) -> Self {
        Slot(index)
    }

    /// Raw slot index.
    pub fn index(self) -> u64 {
        self.0
    }

    /// The next slot.
    #[must_use]
    pub fn next(self) -> Slot {
        Slot(self.0 + 1)
    }

    /// Number of slots elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: Slot) -> u64 {
        self.0
            .checked_sub(earlier.0)
            .expect("Slot::since called with a later slot")
    }
}

impl Add<u64> for Slot {
    type Output = Slot;
    fn add(self, rhs: u64) -> Slot {
        Slot(self.0 + rhs)
    }
}

impl AddAssign<u64> for Slot {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Slot> for Slot {
    type Output = u64;
    fn sub(self, rhs: Slot) -> u64 {
        self.since(rhs)
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot {}", self.0)
    }
}

/// A physical duration in nanoseconds.
///
/// Used by the technology model (the `cacti_lite` crate) and by the conversion between
/// DRAM timing parameters and slot counts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Nanoseconds(pub f64);

impl Nanoseconds {
    /// Creates a duration from nanoseconds.
    pub fn new(ns: f64) -> Self {
        Nanoseconds(ns)
    }

    /// Value in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0
    }

    /// Value in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 * 1e-9
    }

    /// Value in microseconds.
    pub fn as_us(self) -> f64 {
        self.0 * 1e-3
    }
}

impl fmt::Display for Nanoseconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.0)
    }
}

/// Duration of one time slot.
///
/// Thin wrapper distinguishing "a slot length" from other nanosecond
/// quantities; converts slot counts to wall-clock delays.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct SlotDuration(Nanoseconds);

impl SlotDuration {
    /// Creates a slot duration from nanoseconds.
    pub fn from_ns(ns: f64) -> Self {
        SlotDuration(Nanoseconds(ns))
    }

    /// Duration in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0.as_ns()
    }

    /// Wall-clock duration of `n` slots.
    pub fn times(self, n: u64) -> Nanoseconds {
        Nanoseconds(self.as_ns() * n as f64)
    }
}

impl fmt::Display for SlotDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} per slot", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_arithmetic() {
        let s = Slot::new(10);
        assert_eq!(s.next(), Slot::new(11));
        assert_eq!(s + 5, Slot::new(15));
        assert_eq!(Slot::new(15) - s, 5);
        assert_eq!(Slot::new(15).since(s), 5);
        let mut t = Slot::ZERO;
        t += 3;
        assert_eq!(t.index(), 3);
        assert_eq!(t.to_string(), "slot 3");
    }

    #[test]
    #[should_panic(expected = "later slot")]
    fn since_panics_when_reversed() {
        let _ = Slot::new(1).since(Slot::new(2));
    }

    #[test]
    fn nanoseconds_conversions() {
        let ns = Nanoseconds::new(3200.0);
        assert!((ns.as_secs() - 3.2e-6).abs() < 1e-18);
        assert!((ns.as_us() - 3.2).abs() < 1e-12);
        assert_eq!(ns.to_string(), "3200.000 ns");
    }

    #[test]
    fn slot_duration_cover_and_times() {
        let d = SlotDuration::from_ns(3.2);
        assert!((d.times(10).as_ns() - 32.0).abs() < 1e-9);
        assert!(d.to_string().contains("per slot"));
    }
}
