//! The Requests Register (RR).

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

use dram_sim::{BankId, DramRequest};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One entry of the Requests Register: a pending DRAM request together with
/// the bank it will access and its submit slot, for the delay statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RrEntry {
    /// The pending request (queue, block ordinal, read/write).
    pub request: DramRequest,
    /// Bank the request will access (fixed at submit time by the block-cyclic
    /// mapping).
    pub bank: BankId,
    /// Slot at which the request entered the RR.
    pub submitted_slot: u64,
}

/// The Requests Register: an age-ordered buffer of MMA requests that have not
/// been issued to the DRAM yet (§5.3).
///
/// The register behaves like the issue window of an out-of-order processor:
/// entries are kept in age order, the scheduler may remove an entry from any
/// position, and younger entries are compacted towards the head so that age
/// order is preserved.
#[derive(Debug, Clone, Default)]
pub struct RequestsRegister {
    entries: VecDeque<RrEntry>,
    peak_occupancy: usize,
    total_submitted: u64,
}

impl RequestsRegister {
    /// Creates an empty register.
    pub fn new() -> Self {
        RequestsRegister::default()
    }

    /// Number of pending requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the register is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Largest number of simultaneously pending requests observed.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Total number of requests that have entered the register.
    pub fn total_submitted(&self) -> u64 {
        self.total_submitted
    }

    /// Appends a request at the tail (youngest position).
    pub fn push(&mut self, request: DramRequest, bank: BankId, now: u64) {
        self.entries.push_back(RrEntry {
            request,
            bank,
            submitted_slot: now,
        });
        self.total_submitted += 1;
        self.peak_occupancy = self.peak_occupancy.max(self.entries.len());
    }

    /// Iterates over the entries from oldest to youngest.
    pub fn iter(&self) -> impl Iterator<Item = &RrEntry> {
        self.entries.iter()
    }

    /// Removes and returns the entry at `position` (0 = oldest); the entries
    /// on either side keep their age order.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range.
    pub fn take(&mut self, position: usize) -> RrEntry {
        #[expect(
            clippy::expect_used,
            reason = "documented panic: the scheduler passes positions from its own scan of this register"
        )]
        self.entries
            .remove(position)
            .expect("RequestsRegister::take position out of range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pktbuf_model::PhysicalQueueId;

    fn req(q: u32, o: u64) -> DramRequest {
        DramRequest::read(PhysicalQueueId::new(q), o, 0)
    }

    #[test]
    fn push_take_preserves_age_order() {
        let mut rr = RequestsRegister::new();
        rr.push(req(0, 0), BankId::new(0), 0);
        rr.push(req(1, 0), BankId::new(1), 4);
        rr.push(req(2, 0), BankId::new(2), 8);
        assert_eq!(rr.len(), 3);
        // Take the middle entry.
        let e = rr.take(1);
        assert_eq!(e.request.queue.index(), 1);
        let remaining: Vec<u32> = rr.iter().map(|e| e.request.queue.index()).collect();
        assert_eq!(remaining, vec![0, 2]);
        assert_eq!(rr.peak_occupancy(), 3);
        assert_eq!(rr.total_submitted(), 3);
    }

    #[test]
    fn empty_register_reports_zero() {
        let rr = RequestsRegister::new();
        assert!(rr.is_empty());
        assert_eq!(rr.peak_occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn take_out_of_range_panics() {
        let mut rr = RequestsRegister::new();
        rr.push(req(0, 0), BankId::new(0), 0);
        rr.take(3);
    }
}
