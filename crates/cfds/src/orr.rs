//! The Ongoing Requests Register (ORR).

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

use dram_sim::BankId;
use std::collections::VecDeque;

/// The Ongoing Requests Register: a shift register holding the identifiers of
/// the banks whose accesses are still in flight (§5.3).
///
/// An access occupies its bank for a fixed number of issue opportunities, so
/// the register shifts by one position at *every* opportunity — recording the
/// issued bank, or an empty slot when nothing was issued — and a bank is
/// locked while its identifier is anywhere in the register.
#[derive(Debug, Clone)]
pub struct OngoingRequestsRegister {
    slots: VecDeque<Option<BankId>>,
    capacity: usize,
    /// In-window issue count per bank index (lazily grown), so `is_locked` —
    /// called once per pending request per issue opportunity by the DSA — is
    /// an O(1) lookup instead of a scan over the shift register.
    lock_counts: Vec<u8>,
}

// The lock-count cache is derived state and grows lazily, so two registers
// with identical shift-register contents must compare equal regardless of
// how far their caches have grown.
impl PartialEq for OngoingRequestsRegister {
    fn eq(&self, other: &Self) -> bool {
        self.slots == other.slots && self.capacity == other.capacity
    }
}

impl Eq for OngoingRequestsRegister {}

impl OngoingRequestsRegister {
    /// Creates a register that remembers the last `capacity` issue
    /// opportunities (`capacity` = lock window − 1, e.g. `B/b − 1` when one
    /// request is issued per `b` slots). A capacity of zero (the `b = B`
    /// degenerate case) locks nothing.
    #[expect(clippy::disallowed_methods, reason = "setup, not the slot loop")]
    pub fn new(capacity: usize) -> Self {
        OngoingRequestsRegister {
            slots: VecDeque::with_capacity(capacity + 1),
            capacity,
            lock_counts: Vec::new(),
        }
    }

    /// Number of issue opportunities the register remembers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `bank` is currently locked.
    pub fn is_locked(&self, bank: BankId) -> bool {
        self.lock_counts
            .get(bank.index())
            .is_some_and(|count| *count > 0)
    }

    fn shift(&mut self, entry: Option<BankId>) {
        if self.capacity == 0 {
            return;
        }
        if let Some(bank) = entry {
            let idx = bank.index();
            if idx >= self.lock_counts.len() {
                self.lock_counts.resize(idx + 1, 0);
            }
            self.lock_counts[idx] += 1;
        }
        self.slots.push_back(entry);
        if self.slots.len() > self.capacity {
            if let Some(Some(expired)) = self.slots.pop_front() {
                self.lock_counts[expired.index()] -= 1;
            }
        }
    }

    /// Records that an access to `bank` was issued at this opportunity.
    pub fn record_issue(&mut self, bank: BankId) {
        self.shift(Some(bank));
    }

    /// Records an issue opportunity in which nothing was issued. Existing
    /// locks still age by one position.
    pub fn record_idle(&mut self) {
        self.shift(None);
    }

    /// Records `opportunities` consecutive idle issue opportunities at once:
    /// exactly equivalent to that many [`OngoingRequestsRegister::record_idle`]
    /// calls. After `capacity` idle opportunities the register is a fixed
    /// point (all positions empty), so at most `capacity` shifts are applied
    /// — O(window), independent of `opportunities`.
    pub fn advance_idle(&mut self, opportunities: u64) {
        for _ in 0..opportunities.min(self.capacity as u64) {
            self.record_idle();
        }
    }

    /// Banks currently locked, oldest first.
    #[expect(
        clippy::disallowed_methods,
        reason = "diagnostic accessor for tests; the slot loop never calls it"
    )]
    pub fn locked_banks(&self) -> Vec<BankId> {
        self.slots.iter().copied().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locks_last_n_banks() {
        let mut orr = OngoingRequestsRegister::new(3);
        for i in 0..5u32 {
            orr.record_issue(BankId::new(i));
        }
        assert!(!orr.is_locked(BankId::new(0)));
        assert!(!orr.is_locked(BankId::new(1)));
        assert!(orr.is_locked(BankId::new(2)));
        assert!(orr.is_locked(BankId::new(3)));
        assert!(orr.is_locked(BankId::new(4)));
        assert_eq!(orr.locked_banks().len(), 3);
        assert_eq!(orr.capacity(), 3);
    }

    #[test]
    fn idle_opportunities_age_but_do_not_erase_fresh_locks() {
        let mut orr = OngoingRequestsRegister::new(3);
        orr.record_issue(BankId::new(7));
        // One idle opportunity: the lock on bank 7 is only 1 of 3 positions
        // old and must still hold.
        orr.record_idle();
        assert!(orr.is_locked(BankId::new(7)));
        orr.record_idle();
        assert!(orr.is_locked(BankId::new(7)));
        // After three further opportunities the access has completed.
        orr.record_idle();
        assert!(!orr.is_locked(BankId::new(7)));
        assert!(orr.locked_banks().is_empty());
    }

    #[test]
    fn mixed_issues_and_idles_expire_in_order() {
        let mut orr = OngoingRequestsRegister::new(2);
        orr.record_issue(BankId::new(1));
        orr.record_idle();
        orr.record_issue(BankId::new(2));
        // Bank 1 was issued 2 opportunities ago and has now expired; bank 2 is
        // fresh.
        assert!(!orr.is_locked(BankId::new(1)));
        assert!(orr.is_locked(BankId::new(2)));
        assert_eq!(orr.locked_banks(), vec![BankId::new(2)]);
    }

    #[test]
    fn zero_capacity_never_locks() {
        let mut orr = OngoingRequestsRegister::new(0);
        orr.record_issue(BankId::new(1));
        assert!(!orr.is_locked(BankId::new(1)));
        assert!(orr.locked_banks().is_empty());
        orr.record_idle();
    }
}
