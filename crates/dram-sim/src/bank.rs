//! A single DRAM bank timing state machine.

#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use std::error::Error;
use std::fmt;

use crate::request::BankId;

/// State of a bank at a given slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankState {
    /// The bank can accept a new access.
    Idle,
    /// The bank is busy with an access until (exclusive) the given slot.
    Busy {
        /// First slot at which the bank is free again.
        until_slot: u64,
    },
}

/// Error returned when a bank is accessed while still busy.
///
/// In a packet buffer a bank conflict is fatal for worst-case guarantees: it
/// would delay a transfer past its deadline and drop a cell, which is why the
/// CFDS scheduler is designed to make this error impossible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankConflict {
    /// Bank that was accessed while busy.
    pub bank: BankId,
    /// Slot at which the conflicting access was attempted.
    pub at_slot: u64,
    /// Slot at which the bank becomes free.
    pub busy_until: u64,
}

impl fmt::Display for BankConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bank conflict on {} at slot {} (busy until slot {})",
            self.bank, self.at_slot, self.busy_until
        )
    }
}

impl Error for BankConflict {}

/// A single DRAM bank.
///
/// The bank only models *timing*: it is busy for a fixed number of slots after
/// each access (the DRAM random access time expressed in slots) and rejects
/// overlapping accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bank {
    id: BankId,
    state: BankState,
}

impl Bank {
    /// Creates an idle bank.
    pub fn new(id: BankId) -> Self {
        Bank {
            id,
            state: BankState::Idle,
        }
    }

    /// Current state, after accounting for the passage of time up to `now`.
    pub fn state_at(&self, now: u64) -> BankState {
        match self.state {
            BankState::Busy { until_slot } if until_slot > now => BankState::Busy { until_slot },
            _ => BankState::Idle,
        }
    }

    /// Whether the bank is busy at slot `now`.
    pub fn is_busy(&self, now: u64) -> bool {
        matches!(self.state_at(now), BankState::Busy { .. })
    }

    /// Starts an access of `busy_slots` slots at slot `now`.
    ///
    /// # Errors
    ///
    /// Returns [`BankConflict`] if the bank is still busy at `now`.
    pub fn start_access(&mut self, now: u64, busy_slots: u64) -> Result<(), BankConflict> {
        if let BankState::Busy { until_slot } = self.state_at(now) {
            return Err(BankConflict {
                bank: self.id,
                at_slot: now,
                busy_until: until_slot,
            });
        }
        self.state = BankState::Busy {
            until_slot: now + busy_slots,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_bank_accepts_access() {
        let mut b = Bank::new(BankId::new(0));
        assert!(!b.is_busy(0));
        b.start_access(0, 8).unwrap();
        assert!(b.is_busy(0));
        assert!(b.is_busy(7));
        assert!(!b.is_busy(8));
    }

    #[test]
    fn busy_bank_rejects_access() {
        let mut b = Bank::new(BankId::new(3));
        b.start_access(10, 32).unwrap();
        let err = b.start_access(20, 32).unwrap_err();
        assert_eq!(err.bank, BankId::new(3));
        assert_eq!(err.at_slot, 20);
        assert_eq!(err.busy_until, 42);
        assert!(err.to_string().contains("bank3"));
        // Once free again, access succeeds.
        b.start_access(42, 32).unwrap();
        assert_eq!(b.state_at(42), BankState::Busy { until_slot: 74 });
    }

    #[test]
    fn state_at_reports_busy_window() {
        let mut b = Bank::new(BankId::new(1));
        b.start_access(5, 4).unwrap();
        assert_eq!(b.state_at(5), BankState::Busy { until_slot: 9 });
        assert_eq!(b.state_at(9), BankState::Idle);
        assert_eq!(b.state_at(100), BankState::Idle);
    }

    #[test]
    fn back_to_back_accesses_at_exact_boundary() {
        let mut b = Bank::new(BankId::new(2));
        for i in 0..10u64 {
            b.start_access(i * 8, 8).unwrap();
        }
        assert_eq!(b.state_at(79), BankState::Busy { until_slot: 80 });
        assert!(!b.is_busy(80));
    }
}
