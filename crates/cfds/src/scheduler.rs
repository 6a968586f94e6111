//! The DRAM Scheduler Subsystem (DSS).

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

use crate::dsa::{Dsa, DsaPolicy};
use crate::orr::OngoingRequestsRegister;
use crate::rr::{RequestsRegister, RrEntry};
use dram_sim::{AddressMapper, BankId, DramRequest};
use pktbuf_model::PhysicalQueueId;

/// A request the DSS has decided to issue to the DRAM in the current issue
/// period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssuedRequest {
    /// The request (queue, ordinal, kind).
    pub request: DramRequest,
    /// Bank the access goes to.
    pub bank: BankId,
    /// Slot at which the request entered the RR.
    pub submitted_slot: u64,
    /// Slot at which the DSS issued it.
    pub issued_slot: u64,
}

impl IssuedRequest {
    /// Queueing delay experienced inside the DSS, in slots.
    pub fn delay_slots(&self) -> u64 {
        self.issued_slot - self.submitted_slot
    }
}

/// Aggregate DSS statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DssStats {
    /// Requests issued.
    pub issued: u64,
    /// Issue opportunities with a non-empty RR in which no eligible request
    /// was found (never happens with the paper's sizing and the oldest-first
    /// DSA; counted for the ablation policies).
    pub stalls: u64,
    /// Largest per-request delay observed (slots).
    pub max_delay_slots: u64,
}

/// The DRAM Scheduler Subsystem (§5.3): hides the banked organisation from the
/// MMA by buffering its requests in the Requests Register and issuing them —
/// possibly out of order — so that no bank is ever accessed while busy.
pub struct DramSchedulerSubsystem {
    rr: RequestsRegister,
    orr: OngoingRequestsRegister,
    dsa: Dsa,
    mapper: AddressMapper,
    /// Next block ordinal a *read* of each physical queue will fetch.
    next_read_ordinal: Vec<u64>,
    /// Next block ordinal a *write* of each physical queue will create.
    next_write_ordinal: Vec<u64>,
    stats: DssStats,
}

impl std::fmt::Debug for DramSchedulerSubsystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DramSchedulerSubsystem")
            .field("dsa", &self.dsa.name())
            .field("rr_len", &self.rr.len())
            .field("locked_banks", &self.orr.locked_banks())
            .field("stats", &self.stats)
            .finish()
    }
}

impl DramSchedulerSubsystem {
    /// Creates a DSS over the given block-cyclic mapping.
    ///
    /// `banks_per_group` is `B/b`; the ORR remembers the last `B/b − 1`
    /// issues.
    #[expect(clippy::disallowed_macros, reason = "setup, not the slot loop")]
    pub fn new(mapper: AddressMapper, banks_per_group: usize, policy: DsaPolicy) -> Self {
        let nq = mapper.config().num_physical_queues();
        DramSchedulerSubsystem {
            rr: RequestsRegister::new(),
            orr: OngoingRequestsRegister::new(banks_per_group.saturating_sub(1)),
            dsa: Dsa::new(policy),
            mapper,
            next_read_ordinal: vec![0; nq],
            next_write_ordinal: vec![0; nq],
            stats: DssStats::default(),
        }
    }

    /// Submits a read (DRAM → SRAM) request for the next pending block of
    /// `queue`. The block ordinal and hence the bank are assigned here so that
    /// two in-flight reads of the same queue target consecutive banks.
    pub fn submit_read(&mut self, queue: PhysicalQueueId, now: u64) -> DramRequest {
        let ordinal = self.next_read_ordinal[queue.as_usize()];
        self.next_read_ordinal[queue.as_usize()] += 1;
        let request = DramRequest::read(queue, ordinal, now);
        let bank = self.mapper.bank_for(queue, ordinal);
        self.rr.push(request, bank, now);
        request
    }

    /// Submits a write (SRAM → DRAM) request for the next block of `queue`.
    pub fn submit_write(&mut self, queue: PhysicalQueueId, now: u64) -> DramRequest {
        let ordinal = self.next_write_ordinal[queue.as_usize()];
        self.next_write_ordinal[queue.as_usize()] += 1;
        let request = DramRequest::write(queue, ordinal, now);
        let bank = self.mapper.bank_for(queue, ordinal);
        self.rr.push(request, bank, now);
        request
    }

    /// Aligns the ordinal counters of `queue` with externally known DRAM
    /// state (used when a buffer is initialised with pre-loaded queues).
    pub fn set_ordinals(&mut self, queue: PhysicalQueueId, next_read: u64, next_write: u64) {
        self.next_read_ordinal[queue.as_usize()] = next_read;
        self.next_write_ordinal[queue.as_usize()] = next_write;
    }

    /// One issue opportunity (every `b` slots): the DSA selects the oldest
    /// pending request whose bank is not locked, the request leaves the RR and
    /// its bank is recorded in the ORR.
    ///
    /// Returns `None` when the RR is empty or (for the ablation policies) when
    /// no pending request is eligible; the lock window still advances.
    pub fn issue(&mut self, now: u64) -> Option<IssuedRequest> {
        match self.dsa.choose(&self.rr, &self.orr) {
            Some(position) => {
                let RrEntry {
                    request,
                    bank,
                    submitted_slot,
                } = self.rr.take(position);
                self.orr.record_issue(bank);
                let issued = IssuedRequest {
                    request,
                    bank,
                    submitted_slot,
                    issued_slot: now,
                };
                self.stats.issued += 1;
                self.stats.max_delay_slots = self.stats.max_delay_slots.max(issued.delay_slots());
                Some(issued)
            }
            None => {
                if !self.rr.is_empty() {
                    self.stats.stalls += 1;
                }
                self.orr.record_idle();
                None
            }
        }
    }

    /// Number of requests currently waiting in the RR.
    pub fn pending(&self) -> usize {
        self.rr.len()
    }

    /// Fast-forwards `opportunities` issue opportunities in which the RR is
    /// empty: exactly equivalent to that many [`DramSchedulerSubsystem::issue`]
    /// calls returning `None` (each of which only ages the ORR lock window —
    /// an empty RR never counts a stall), but bounded O(lock window) work.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the RR is not empty.
    pub fn advance_idle(&mut self, opportunities: u64) {
        debug_assert!(
            self.rr.is_empty(),
            "advance_idle on a DSS with pending requests"
        );
        self.orr.advance_idle(opportunities);
    }

    /// Largest RR occupancy observed (to check equation (1) empirically).
    pub fn peak_rr_occupancy(&self) -> usize {
        self.rr.peak_occupancy()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &DssStats {
        &self.stats
    }

    /// Banks currently locked by in-flight accesses.
    pub fn locked_banks(&self) -> Vec<BankId> {
        self.orr.locked_banks()
    }

    /// The mapper used for bank assignment.
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Name of the configured DSA policy.
    pub fn policy_name(&self) -> &'static str {
        self.dsa.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::InterleavingConfig;

    fn dss(policy: DsaPolicy) -> DramSchedulerSubsystem {
        // 16 banks, 4 per group (B/b = 4), 8 physical queues.
        let mapper = AddressMapper::new(InterleavingConfig::new(16, 4, 8).unwrap());
        DramSchedulerSubsystem::new(mapper, 4, policy)
    }

    #[test]
    fn consecutive_reads_of_one_queue_issue_back_to_back() {
        let mut d = dss(DsaPolicy::OldestFirst);
        let q = PhysicalQueueId::new(1);
        for i in 0..4 {
            d.submit_read(q, i);
        }
        // All four target distinct banks of the queue's group, so they issue
        // on four consecutive opportunities with no stall.
        let mut banks = Vec::new();
        for t in 0..4 {
            let issued = d.issue(t * 4).expect("eligible request");
            banks.push(issued.bank);
        }
        banks.dedup();
        assert_eq!(banks.len(), 4);
        assert_eq!(d.stats().stalls, 0);
        assert_eq!(d.stats().issued, 4);
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn same_bank_requests_are_reordered_around() {
        let mut d = dss(DsaPolicy::OldestFirst);
        let qa = PhysicalQueueId::new(0); // group 0
        let qb = PhysicalQueueId::new(4); // also group 0 (8 queues, 4 groups)
                                          // Both queues start at ordinal 0 → both target bank 0 of group 0.
        d.submit_read(qa, 0);
        d.submit_read(qb, 1);
        // And a queue in another group.
        let qc = PhysicalQueueId::new(1);
        d.submit_read(qc, 2);
        // qa issues first and locks bank 0 of group 0 for the next three
        // opportunities, so the DSA passes over the older qb to take qc and
        // issues qb once the lock expires.
        let mut order = Vec::new();
        let mut t = 0;
        while d.pending() > 0 {
            if let Some(issued) = d.issue(t) {
                order.push(issued.request.queue);
            }
            t += 4;
        }
        assert_eq!(order, [qa, qc, qb]);
    }

    #[test]
    fn fifo_policy_stalls_where_oldest_first_does_not() {
        let mut fifo = dss(DsaPolicy::FifoOnly);
        let qa = PhysicalQueueId::new(0);
        let qb = PhysicalQueueId::new(4);
        let qc = PhysicalQueueId::new(1);
        fifo.submit_read(qa, 0);
        fifo.submit_read(qb, 1);
        fifo.submit_read(qc, 2);
        fifo.issue(0).unwrap();
        // Head of RR is qb whose bank is locked → stall even though qc could go.
        assert!(fifo.issue(4).is_none());
        assert_eq!(fifo.stats().stalls, 1);
    }

    #[test]
    fn write_and_read_ordinals_are_independent() {
        let mut d = dss(DsaPolicy::OldestFirst);
        let q = PhysicalQueueId::new(2);
        let w0 = d.submit_write(q, 0);
        let w1 = d.submit_write(q, 1);
        let r0 = d.submit_read(q, 2);
        assert_eq!(w0.block_ordinal, 0);
        assert_eq!(w1.block_ordinal, 1);
        assert_eq!(r0.block_ordinal, 0);
        assert_eq!(d.peak_rr_occupancy(), 3);
        d.set_ordinals(q, 5, 7);
        assert_eq!(d.submit_read(q, 3).block_ordinal, 5);
        assert_eq!(d.submit_write(q, 4).block_ordinal, 7);
    }

    #[test]
    fn issue_on_empty_rr_is_not_a_stall() {
        let mut d = dss(DsaPolicy::OldestFirst);
        assert!(d.issue(0).is_none());
        assert_eq!(d.stats().stalls, 0);
        assert_eq!(d.stats().max_delay_slots, 0);
        assert!(d.locked_banks().is_empty());
        assert_eq!(d.policy_name(), "oldest-first");
        assert!(format!("{d:?}").contains("oldest-first"));
    }

    #[test]
    fn delay_statistics_accumulate() {
        let mut d = dss(DsaPolicy::OldestFirst);
        let q = PhysicalQueueId::new(3);
        d.submit_read(q, 0);
        d.submit_read(q, 0);
        d.issue(8).unwrap();
        d.issue(12).unwrap();
        assert_eq!(d.stats().issued, 2);
        assert_eq!(d.stats().max_delay_slots, 12);
        assert_eq!(d.peak_rr_occupancy(), 2);
    }
}
