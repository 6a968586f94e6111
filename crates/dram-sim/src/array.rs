//! The array of all DRAM banks with conflict accounting.

use crate::bank::{Bank, BankConflict};
use crate::request::BankId;
use crate::stats::DramStats;

/// An array of `M` DRAM banks sharing the same timing parameters.
///
/// This is the timing-only view of the DRAM used by both RADS (which treats
/// the whole array as a single resource accessed every `B` slots) and CFDS
/// (which overlaps accesses to distinct banks every `b` slots).
#[derive(Debug, Clone)]
pub struct BankArray {
    banks: Vec<Bank>,
    busy_slots: u64,
    stats: DramStats,
}

impl BankArray {
    /// Creates an array of `num_banks` banks, each busy for `busy_slots` slots
    /// per access (the DRAM random access time in slots, i.e. `B`).
    ///
    /// # Panics
    ///
    /// Panics if `num_banks` is zero.
    pub fn new(num_banks: usize, busy_slots: u64) -> Self {
        assert!(num_banks > 0, "a DRAM needs at least one bank");
        BankArray {
            banks: (0..num_banks)
                .map(|i| Bank::new(BankId::new(i as u32)))
                .collect(),
            busy_slots,
            stats: DramStats::default(),
        }
    }

    /// Number of banks `M`.
    pub fn num_banks(&self) -> usize {
        self.banks.len()
    }

    /// Bank busy time in slots.
    pub fn busy_slots(&self) -> u64 {
        self.busy_slots
    }

    /// Whether `bank` is busy at slot `now`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn is_busy(&self, bank: BankId, now: u64) -> bool {
        self.banks[bank.index()].is_busy(now)
    }

    /// Starts an access on `bank` at slot `now`.
    ///
    /// # Errors
    ///
    /// Returns [`BankConflict`] when the bank is still busy; the conflict is
    /// also recorded in the statistics.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn start_access(&mut self, bank: BankId, now: u64) -> Result<(), BankConflict> {
        let res = self.banks[bank.index()].start_access(now, self.busy_slots);
        match &res {
            Ok(()) => self.stats.record_access(now, self.busy_slots),
            Err(_) => self.stats.record_conflict(),
        }
        res
    }

    /// Returns the banks that are busy at slot `now`.
    pub fn busy_banks(&self, now: u64) -> Vec<BankId> {
        self.banks
            .iter()
            .filter(|b| b.is_busy(now))
            .map(|b| b.id())
            .collect()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Per-bank access counts (for load-balance analysis).
    pub fn per_bank_accesses(&self) -> Vec<u64> {
        self.banks.iter().map(|b| b.accesses()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_accesses_to_different_banks_are_fine() {
        let mut arr = BankArray::new(4, 8);
        arr.start_access(BankId::new(0), 0).unwrap();
        arr.start_access(BankId::new(1), 1).unwrap();
        arr.start_access(BankId::new(2), 2).unwrap();
        arr.start_access(BankId::new(3), 3).unwrap();
        assert_eq!(arr.stats().accesses, 4);
        assert_eq!(arr.stats().conflicts, 0);
        assert_eq!(arr.busy_banks(3).len(), 4);
    }

    #[test]
    fn conflict_is_detected_and_counted() {
        let mut arr = BankArray::new(2, 8);
        arr.start_access(BankId::new(0), 0).unwrap();
        assert!(arr.start_access(BankId::new(0), 4).is_err());
        assert_eq!(arr.stats().conflicts, 1);
        assert_eq!(arr.stats().accesses, 1);
        assert!(arr.is_busy(BankId::new(0), 4));
        assert!(!arr.is_busy(BankId::new(1), 4));
    }

    #[test]
    fn per_bank_accesses_tracks_counts() {
        let mut arr = BankArray::new(3, 2);
        arr.start_access(BankId::new(1), 0).unwrap();
        arr.start_access(BankId::new(1), 2).unwrap();
        arr.start_access(BankId::new(2), 0).unwrap();
        assert_eq!(arr.per_bank_accesses(), vec![0, 2, 1]);
        assert_eq!(arr.num_banks(), 3);
        assert_eq!(arr.busy_slots(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_panics() {
        let _ = BankArray::new(0, 8);
    }
}
