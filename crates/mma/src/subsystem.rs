//! The assembled head-MMA subsystem: lookahead + counters + ECQF.

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

use crate::counters::OccupancyCounters;
use crate::ecqf::EcqfMma;
use crate::lookahead::{LookaheadRegister, NIL};
use pktbuf_model::LogicalQueueId;

/// Event produced by one slot of MMA operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MmaEvent {
    /// Request that left the lookahead this slot and must now be served from
    /// the SRAM (i.e. granted to the arbiter). `None` while the lookahead is
    /// still warming up or for idle slots.
    pub due: Option<LogicalQueueId>,
}

/// The head-MMA subsystem of Figure 3/Figure 5: a lookahead shift register, a
/// set of occupancy counters and the ECQF replenishment policy.
///
/// The owner drives it with one [`HeadMmaSubsystem::on_request`] call per slot
/// and one [`HeadMmaSubsystem::select_replenishment`] call every granularity
/// period.
pub struct HeadMmaSubsystem {
    lookahead: LookaheadRegister,
    counters: OccupancyCounters,
    policy: EcqfMma,
}

impl std::fmt::Debug for HeadMmaSubsystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeadMmaSubsystem")
            .field("policy", &self.policy.name())
            .field("granularity", &self.policy.granularity())
            .field("lookahead_capacity", &self.lookahead.capacity())
            .field("counters", &self.counters)
            .finish()
    }
}

impl HeadMmaSubsystem {
    /// Creates a subsystem around `policy` with the given lookahead length
    /// and number of queues.
    pub fn with_policy(policy: EcqfMma, lookahead: usize, num_queues: usize) -> Self {
        HeadMmaSubsystem {
            lookahead: LookaheadRegister::new(lookahead),
            counters: OccupancyCounters::new(num_queues),
            policy,
        }
    }

    /// Slot-level operation: push the arbiter's request of this slot (or
    /// `None` for an idle slot) into the lookahead. If the lookahead is full,
    /// the request shifted out at the head is *due* and is returned in the
    /// event; its occupancy counter is decremented.
    ///
    /// The queue critical marks follow the counters: a due request was its
    /// queue's critical one iff the counter was `≤ 0`, and then the queue's
    /// next pending request takes over; a pushed request becomes critical iff
    /// its queue had none and now holds `max(c, 0) + 1` pending requests.
    #[inline]
    pub fn on_request(&mut self, request: Option<LogicalQueueId>) -> MmaEvent {
        let due = match self.lookahead.push(request) {
            Some(Some(due)) => {
                if self.counters.get(due) <= 0 {
                    let qi = due.as_usize();
                    let first = self.lookahead.chain(qi).first;
                    self.lookahead.set_critical(qi, first, 0);
                }
                self.counters.take_one(due);
                Some(due)
            }
            _ => None,
        };
        if let Some(queue) = request {
            let qi = queue.as_usize();
            let chain = self.lookahead.chain(qi);
            if chain.critical == NIL && i64::from(chain.len) == self.counters.get(queue).max(0) + 1
            {
                self.lookahead.set_critical(qi, chain.last, 0);
            }
        }
        MmaEvent { due }
    }

    /// Granularity-period operation: ask the policy which queue to replenish.
    /// If a queue is selected its counter is credited with the granularity and
    /// the queue is returned so the owner can schedule the DRAM transfer.
    pub fn select_replenishment(&mut self) -> Option<LogicalQueueId> {
        let choice = self.lookahead.earliest_critical();
        debug_assert_eq!(
            choice,
            self.policy.select(&self.counters, &self.lookahead),
            "ECQF's critical-request bitmap diverged from the reference scan"
        );
        let choice = choice?;
        let before = self.counters.get(choice);
        let b = self.policy.granularity() as i64;
        self.counters.add(choice, b);
        // The critical request moves from the max(c, 0)-th pending one to
        // the max(c + B, 0)-th.
        let steps = ((before + b).max(0) - before.max(0)) as usize;
        let qi = choice.as_usize();
        let critical = self.lookahead.chain(qi).critical;
        self.lookahead.set_critical(qi, critical, steps);
        Some(choice)
    }

    /// Fast-forwards the subsystem by `slots` idle slots at once: exactly
    /// equivalent to `slots` calls of
    /// [`HeadMmaSubsystem::on_request`]`(None)` **while no request is
    /// pending in the lookahead**, but O(1). With an all-idle lookahead, each
    /// such call only rotates the shift register and can never produce a due
    /// request, touch a counter, or mark a critical request.
    ///
    /// Skipping `select_replenishment` periods along with the slots is
    /// unobservable: ECQF selects `None` whenever the lookahead holds no
    /// pending request.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if a request is pending in the lookahead.
    pub fn advance_idle(&mut self, slots: u64) {
        debug_assert_eq!(
            self.lookahead.pending_len(),
            0,
            "advance_idle with pending requests in the lookahead"
        );
        self.lookahead.advance_idle(slots);
    }

    /// Credits `queue` with `cells` already present in the SRAM (used to
    /// initialise a warm buffer, or `-B` to roll back a replenishment that
    /// found nothing to transfer). The queue's critical request is found
    /// again by walking its chain.
    pub fn preload(&mut self, queue: LogicalQueueId, cells: i64) {
        self.counters.add(queue, cells);
        let k = self.counters.get(queue).max(0) as usize;
        let qi = queue.as_usize();
        let first = self.lookahead.chain(qi).first;
        self.lookahead.set_critical(qi, first, k);
    }

    /// Read access to the occupancy counters (for verification).
    pub fn counters(&self) -> &OccupancyCounters {
        &self.counters
    }

    /// Read access to the lookahead register.
    pub fn lookahead(&self) -> &LookaheadRegister {
        &self.lookahead
    }

    /// Granularity of the replenishments.
    pub fn granularity(&self) -> usize {
        self.policy.granularity()
    }

    /// Name of the underlying policy.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }
}

#[cfg(test)]
mod debug_tests {
    use super::*;

    #[test]
    fn debug_is_nonempty() {
        let mma = HeadMmaSubsystem::with_policy(EcqfMma::new(2), 3, 2);
        let s = format!("{mma:?}");
        assert!(s.contains("ECQF"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> LogicalQueueId {
        LogicalQueueId::new(i)
    }

    #[test]
    fn requests_become_due_after_lookahead_delay() {
        let mut mma = HeadMmaSubsystem::with_policy(EcqfMma::new(2), 3, 2);
        mma.preload(q(0), 2);
        assert_eq!(mma.on_request(Some(q(0))).due, None);
        assert_eq!(mma.on_request(Some(q(1))).due, None);
        assert_eq!(mma.on_request(Some(q(0))).due, None);
        // Fourth push shifts the first request out.
        assert_eq!(mma.on_request(None).due, Some(q(0)));
        assert_eq!(mma.counters().get(q(0)), 1);
    }

    #[test]
    fn replenishment_credits_counter() {
        let mut mma = HeadMmaSubsystem::with_policy(EcqfMma::new(4), 4, 2);
        for _ in 0..4 {
            mma.on_request(Some(q(1)));
        }
        let sel = mma.select_replenishment();
        assert_eq!(sel, Some(q(1)));
        assert_eq!(mma.counters().get(q(1)), 4);
        assert_eq!(mma.granularity(), 4);
        assert_eq!(mma.policy_name(), "ECQF");
        assert_eq!(mma.lookahead().capacity(), 4);
    }

    #[test]
    fn idle_slots_produce_no_due_request() {
        let mut mma = HeadMmaSubsystem::with_policy(EcqfMma::new(2), 2, 1);
        assert_eq!(mma.on_request(None).due, None);
        assert_eq!(mma.on_request(None).due, None);
        assert_eq!(mma.on_request(None).due, None);
        assert_eq!(mma.counters().get(q(0)), 0);
    }
}
