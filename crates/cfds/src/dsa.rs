//! DRAM Scheduler Algorithms (the selection policy of the DSS).

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

use crate::orr::OngoingRequestsRegister;
use crate::rr::RequestsRegister;

/// Enumerates the available DSA policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DsaPolicy {
    /// The paper's policy: the *oldest* request addressed to an unlocked bank
    /// (wake-up/select, like a superscalar issue queue).
    OldestFirst,
    /// Strict FIFO: only the oldest request may issue; if its bank is locked
    /// the opportunity is wasted. This is the no-reordering ablation baseline.
    FifoOnly,
    /// Any eligible request, chosen pseudo-randomly (ablation: shows that age
    /// ordering, not just eligibility, is what bounds the delay).
    RandomEligible {
        /// Seed of the small xorshift generator used for the choice.
        seed: u64,
    },
}

/// The DSS's selection state: the configured policy plus the xorshift word
/// `RandomEligible` draws from (the other policies never touch it).
#[derive(Debug, Clone)]
pub(crate) struct Dsa {
    policy: DsaPolicy,
    state: u64,
}

impl Dsa {
    pub(crate) fn new(policy: DsaPolicy) -> Self {
        let state = match policy {
            DsaPolicy::RandomEligible { seed } => seed.max(1),
            DsaPolicy::OldestFirst | DsaPolicy::FifoOnly => 1,
        };
        Dsa { policy, state }
    }

    /// Returns the position (0 = oldest) of the RR entry to issue, or `None`
    /// when no pending request may issue (or the RR is empty). Runs twice
    /// per granularity period on the DSS issue path.
    #[inline]
    pub(crate) fn choose(
        &mut self,
        rr: &RequestsRegister,
        orr: &OngoingRequestsRegister,
    ) -> Option<usize> {
        match self.policy {
            DsaPolicy::OldestFirst => rr.iter().position(|e| !orr.is_locked(e.bank)),
            DsaPolicy::FifoOnly => {
                let oldest = rr.iter().next()?;
                (!orr.is_locked(oldest.bank)).then_some(0)
            }
            DsaPolicy::RandomEligible { .. } => {
                // Two passes instead of materialising the eligible set: count,
                // then walk to the chosen one. Same pick as indexing the
                // collected list (the RNG is only advanced when at least one
                // entry is eligible).
                let eligible = rr.iter().filter(|e| !orr.is_locked(e.bank)).count();
                if eligible == 0 {
                    return None;
                }
                let pick = (self.next_u64() % eligible as u64) as usize;
                rr.iter()
                    .enumerate()
                    .filter(|(_, e)| !orr.is_locked(e.bank))
                    .nth(pick)
                    .map(|(i, _)| i)
            }
        }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*: cheap, deterministic, no external dependency.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Policy name for reports and ablations.
    pub(crate) fn name(&self) -> &'static str {
        match self.policy {
            DsaPolicy::OldestFirst => "oldest-first",
            DsaPolicy::FifoOnly => "fifo-only",
            DsaPolicy::RandomEligible { .. } => "random-eligible",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::{BankId, DramRequest};
    use pktbuf_model::PhysicalQueueId;

    fn rr_with(banks: &[u32]) -> RequestsRegister {
        let mut rr = RequestsRegister::new();
        for (i, b) in banks.iter().enumerate() {
            rr.push(
                DramRequest::read(PhysicalQueueId::new(i as u32), 0, 0),
                BankId::new(*b),
                i as u64,
            );
        }
        rr
    }

    #[test]
    fn oldest_first_skips_locked_banks() {
        let rr = rr_with(&[3, 5, 7]);
        let mut orr = OngoingRequestsRegister::new(2);
        orr.record_issue(BankId::new(3));
        let mut dsa = Dsa::new(DsaPolicy::OldestFirst);
        assert_eq!(dsa.choose(&rr, &orr), Some(1));
        orr.record_issue(BankId::new(5));
        assert_eq!(dsa.choose(&rr, &orr), Some(2));
        assert_eq!(dsa.name(), "oldest-first");
    }

    #[test]
    fn oldest_first_returns_none_when_all_locked() {
        let rr = rr_with(&[1, 1]);
        let mut orr = OngoingRequestsRegister::new(1);
        orr.record_issue(BankId::new(1));
        let mut dsa = Dsa::new(DsaPolicy::OldestFirst);
        assert_eq!(dsa.choose(&rr, &orr), None);
        assert_eq!(dsa.choose(&RequestsRegister::new(), &orr), None);
    }

    #[test]
    fn fifo_only_wastes_opportunity_on_conflict() {
        let rr = rr_with(&[4, 9]);
        let mut orr = OngoingRequestsRegister::new(1);
        orr.record_issue(BankId::new(4));
        let mut dsa = Dsa::new(DsaPolicy::FifoOnly);
        // Bank 9 is free, but FIFO refuses to reorder.
        assert_eq!(dsa.choose(&rr, &orr), None);
        let empty_orr = OngoingRequestsRegister::new(1);
        assert_eq!(dsa.choose(&rr, &empty_orr), Some(0));
        assert_eq!(dsa.name(), "fifo-only");
    }

    #[test]
    fn random_eligible_only_picks_unlocked() {
        let rr = rr_with(&[2, 6, 2, 6, 8]);
        let mut orr = OngoingRequestsRegister::new(1);
        orr.record_issue(BankId::new(2));
        let mut dsa = Dsa::new(DsaPolicy::RandomEligible { seed: 42 });
        for _ in 0..50 {
            let pos = dsa.choose(&rr, &orr).unwrap();
            assert!(
                pos == 1 || pos == 3 || pos == 4,
                "picked locked entry {pos}"
            );
        }
        assert_eq!(dsa.name(), "random-eligible");
    }
}
